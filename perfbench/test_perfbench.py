"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.bootstrap()
import workloads  # noqa: E402  (needs the t3s sources on the path)
from t3s.toymodel import SeededTransformer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *args):
    assert run.main([*args, "--seconds", "0.2", "--tiny"]) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_workload_runs_and_prints_the_declared_metrics(capsys, name, trace, kind):
    result = _result(capsys, "--workload", name, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {m: v["unit"] for m, v in result["metrics"].items()} == declared


def test_perturbed_packed_logit_counts_as_failure(capsys, monkeypatch):
    forward = SeededTransformer.forward

    def perturbed(self, packed, *args, **kwargs):
        result = forward(self, packed, *args, **kwargs)
        if packed.num_segments > 1:
            logits = result.logits.copy()
            logits[-1, 0] += 1e-6
            result = result._replace(logits=logits)
        return result

    monkeypatch.setattr(SeededTransformer, "forward", perturbed)
    result = _result(capsys, "--workload", "ttft_L2048")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_tail_leaves_ten_samples_beyond_it():
    samples = list(range(run.MIN_OP_SAMPLES))
    tail = run.percentile(samples, run.TAIL_PERCENTILE)
    assert sum(s > tail for s in samples) >= 10


def test_fails_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ttft_L2048", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_default_runs_every_workload(capsys):
    result = _result(capsys)
    assert result["correct"]
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert set(result["metrics"]) == {f"{w}/{m}" for w in workloads.WORKLOADS for m in declared}


def test_peak_rss_is_each_workloads_own(capsys):
    # Memory held by the calling process, or by a workload run before,
    # must not show in a workload's peak_rss_mb.
    hog_mb = 128
    hog = np.ones(hog_mb * 2**20 // 8)
    result = _result(capsys)
    del hog
    for name in workloads.WORKLOADS:
        assert result["metrics"][f"{name}/peak_rss_mb"]["value"] < hog_mb


def test_layer_norm_calls_are_counted():
    ttft = workloads.TtftL2048(0, workloads.TINY_SIZES["ttft_L2048"])
    _, multi, _ = ttft.prepare(0, workloads.NULL)
    layers = workloads.DESK.layers
    assert workloads.count_layer_norm_calls(ttft.transformer, multi) == 2 * layers + 1
    assert workloads.toymodel.layer_norm is workloads.layer_norm
