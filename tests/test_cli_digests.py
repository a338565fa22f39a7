"""Pinned SHA-256 digests of what `run`, `sweep` and `coverage` write.

Criterion 7 checks that two runs of one tree write the same bytes; these
digests check that a change to the code leaves those bytes alone. A change
that means to alter an output updates its digest here and says so in
CHANGES.md, as `test_default_hash_pinned` does for the config hash.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from t3s import cli
from t3s.aggregator import MeanLogits
from t3s.harness import ExperimentConfig, TaskParams, config_to_dict
from t3s.sampler import SamplerConfig
from t3s.toymodel import ModelConfig

SMALL = ExperimentConfig(
    sampler=SamplerConfig(
        total_frames=32, frames_per_trial=8, tokens_per_frame=4, trials=2, ratios=(0.5, 0.3)
    ),
    model=ModelConfig(layers=2, model_dim=16, heads=2, vocab=16, max_positions=1024),
    strategy=MeanLogits(),
    task=TaskParams(needle_count=1, noise_scale=0.1, question_len=3),
    repeats=24,
    seed=11,
)

# each command's argv; "small" and "transformer" stand for config files of
# SMALL on the probe and on the seeded transformer
COMMANDS = {
    "run_default_json": ["run"],
    "run_default_csv": ["run", "--format", "csv"],
    "run_transformer": ["run", "--config", "transformer"],
    "sweep_m_values": ["sweep", "--axis", "m_values", "--plots", "on", "--config", "small"],
    "coverage_default": ["coverage"],
}

DIGESTS = {
    "run_default_json": {
        "report.json": "cac8aeff73761e2e08072bbb2421627beaf2d4146c23e9f21a46a2c5fcbe0da4",
    },
    "run_default_csv": {
        "report.csv": "b5d300e660b0890a6c1b56e429ffff4294b0011764d2724ed5663b65ba24d1c6",
    },
    "run_transformer": {
        "report.json": "70d920b1cc0c97f047c5d0025bd05148d13587a5553123bbd4ba04813250867a",
    },
    "sweep_m_values": {
        "m_scaling.svg": "d181f06c9109849c7d751a2666072cc2c2d651b512e97bfb245542b48253f141",
        "sweep_m_values.csv": "769556a0aca6b7480095aae4c48b33a0a78554ea931afcd2adc98d5e0edbd2d9",
        "sweep_m_values.json": "6989ee49e10e8958c94344dddb0ca6b34bb1d23fc224416a468b5c8724a37e88",
    },
    "coverage_default": {
        "coverage.json": "3b1c90252c5b7d3c0dfdf32ce19155709cb7db58c6d973f9c9b01f6be5d967b0",
    },
}


def written(tmp_path, name):
    """{file name: SHA-256} of every file `t3s <COMMANDS[name]>` writes."""
    configs = {
        "small": SMALL,
        "transformer": replace(SMALL, backend="seeded_transformer", repeats=8),
    }
    argv = []
    for arg in COMMANDS[name]:
        if arg in configs:
            path = tmp_path / f"{arg}.json"
            path.write_text(json.dumps(config_to_dict(configs[arg])))
            arg = str(path)
        argv.append(arg)
    out = tmp_path / name
    assert cli.main(argv + ["--out-dir", str(out)]) == 0
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("name", list(COMMANDS))
def test_outputs_pinned(tmp_path, name):
    assert written(tmp_path, name) == DIGESTS[name]
