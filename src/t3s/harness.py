"""Experiment driver: synthetic needle tasks, ablation sweeps, coverage checks.

Accuracy on synthetic tasks is first-token exact match against the task's
answer id. Reports are reproducible bit-for-bit from (config, seed); wall
clock is only measured when a caller passes `latency_repeats` (the bench
path), never by a config, so run/sweep outputs stay byte-identical across
repeated invocations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from dataclasses import dataclass, replace
from enum import Enum
from functools import partial
from typing import Callable, Optional

import numpy as np

from .aggregator import (
    DEFAULT_TOP_K,
    AggregationStrategy,
    ConfidenceWeighted,
    CrossRefine,
    MeanLogits,
    fuse_tokens,
)
from .costmodel import CostReport, measure
from .errors import ConfigError, ContractError
from .numkernel import Rng, mix64, per_row, uniform_integers
from .packer import kept_rows, pack
from .sampler import (
    FrameMethod,
    SamplerConfig,
    TokenStrategy,
    TrialPlan,
    build_trial_plans,
    closed_form_coverage,
    sample_frame_indices,
)
from .toymodel import (
    ModelConfig,
    NeedleProbe,
    VideoTokenStream,
    build_model,
    needle_answer,
)

# Tasks per `block_logits` call: it bounds the plans and rows held at once,
# and no result depends on it.
_TASK_BLOCK = 64


@dataclass(frozen=True)
class SyntheticTask:
    """One needle-retrieval instance: a video whose needle frames decide the
    answerability of a short seeded question, and whose key fixes the
    answer id, `needle_answer(video.key, vocab)`."""

    video: VideoTokenStream
    question: tuple[int, ...]
    answer: int
    noise_scale: float

    @property
    def needle_frames(self) -> frozenset[int]:
        return self.video.needle_frames


@dataclass(frozen=True)
class TaskParams:
    needle_count: int = 1
    noise_scale: float = 0.1  # probe noise, under the 1 each needle token adds
    question_len: int = 4

    def __post_init__(self):
        if self.needle_count < 0:
            raise ConfigError("needle_count must be >= 0")
        if not (0.0 <= self.noise_scale < 1.0):
            raise ConfigError(f"noise_scale must lie in [0, 1), got {self.noise_scale}")
        if self.question_len < 1:
            raise ConfigError("question_len must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment's whole setup, checked on every construction (each
    `dataclasses.replace` included), so an invalid one cannot exist."""

    sampler: SamplerConfig
    model: ModelConfig
    strategy: AggregationStrategy
    task: TaskParams = TaskParams()
    backend: str = "needle_probe"  # or "seeded_transformer"
    repeats: int = 200
    seed: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.backend not in ("needle_probe", "seeded_transformer"):
            raise ConfigError(f"unknown backend {self.backend!r}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if not 0 <= self.seed < 2**64:
            raise ConfigError(f"seed must lie in [0, 2**64), got {self.seed}")
        if isinstance(self.strategy, CrossRefine):
            if self.sampler.trials != 2:
                raise ConfigError(
                    "cross-refinement requires exactly 2 trials, "
                    f"got {self.sampler.trials}"
                )
            if self.strategy.top_k > self.model.vocab:
                raise ConfigError("top_k exceeds vocabulary size")
        if self.task.needle_count > self.sampler.total_frames:
            raise ConfigError("needle_count exceeds total_frames")
        longest = self.sampler.trials * (self.sampler.tokens_per_trial + self.task.question_len)
        if longest > self.model.max_positions:
            raise ConfigError(
                f"worst-case packed length {longest} exceeds "
                f"max_positions={self.model.max_positions}"
            )


def default_experiment_config(**overrides) -> ExperimentConfig:
    """Reference desk-scale setup: F=256, M=16, N=64, one needle frame,
    D=64, probe noise 0.1, two trials at ratios (0.5, 0.3)."""
    cfg = ExperimentConfig(
        sampler=SamplerConfig(
            total_frames=256,
            frames_per_trial=64,
            tokens_per_frame=16,
            trials=2,
            ratios=(0.5, 0.3),
        ),
        model=ModelConfig(
            layers=4, model_dim=64, heads=4, vocab=64, max_positions=16384
        ),
        strategy=CrossRefine(DEFAULT_TOP_K),
    )
    return replace(cfg, **overrides) if overrides else cfg


# ---------------------------------------------------------------------------
# JSON codec (field names are the schema)


_STRATEGY_KINDS = {
    "mean_logits": MeanLogits,
    "confidence_weighted": ConfidenceWeighted,
    "cross_refine": CrossRefine,
}
_KIND_OF = {cls: kind for kind, cls in _STRATEGY_KINDS.items()}


def _from_json(hint, value, where: str, default=None):
    """`value`, parsed from JSON, as the type annotation `hint` declares.

    Dataclasses are built from objects field by field, over `default` when
    one is given; a strategy is picked by its `kind` and replaced whole. A
    value of the wrong JSON type raises ConfigError naming its path. Ints
    pass where floats are declared and are kept as ints, so config hashes
    stay as written.
    """
    if dataclasses.is_dataclass(hint) or hint == AggregationStrategy:
        if not isinstance(value, dict):
            raise ConfigError(f"{where} must be an object, got {value!r}")
        if hint == AggregationStrategy:
            kind = value.get("kind")
            hint = _STRATEGY_KINDS.get(kind) if isinstance(kind, str) else None
            if hint is None:
                raise ConfigError(f"unknown strategy kind {kind!r}")
            value, default = {k: v for k, v in value.items() if k != "kind"}, None
        hints = typing.get_type_hints(hint)
        unknown = set(value) - set(hints)
        if unknown:
            raise ConfigError(f"unknown {where} fields: {sorted(unknown)}")
        fields = {
            k: _from_json(hints[k], v, f"{where}.{k}", getattr(default, k, None))
            for k, v in value.items()
        }
        return hint(**fields) if default is None else replace(default, **fields)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {value!r}")
        item = typing.get_args(hint)[0]
        return tuple(_from_json(item, v, f"{where}[{i}]") for i, v in enumerate(value))
    if issubclass(hint, Enum):
        try:
            return hint(value)
        except (TypeError, ValueError):
            choices = [m.value for m in hint]
            raise ConfigError(f"{where} must be one of {choices}, got {value!r}") from None
    accepted = (int, float) if hint is float else hint
    # JSON true/false arrive as bools, which Python also counts as ints
    if not isinstance(value, accepted) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{where} must be {hint.__name__}, got {value!r}")
    return value


def config_to_dict(value):
    """The JSON form of a config, the inverse of `_from_json`: a dataclass
    becomes an object (a strategy also names its `kind`), an Enum its value
    and a tuple a list."""
    if dataclasses.is_dataclass(value):
        fields = {
            f.name: config_to_dict(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
        kind = _KIND_OF.get(type(value))
        return fields if kind is None else {"kind": kind, **fields}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [config_to_dict(v) for v in value]
    return value


def config_from_dict(data) -> ExperimentConfig:
    """An experiment config from its JSON form: the given fields over the
    defaults, nested configs field by field, the strategy replaced whole.
    Any malformed input raises ConfigError."""
    if not isinstance(data, dict):
        raise ConfigError(f"config must be an object, got {type(data).__name__}")
    return _from_json(ExperimentConfig, data, "config", default_experiment_config())


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(config_to_dict(cfg), sort_keys=True)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# Synthetic tasks


def gen_task(
    total_frames: int,
    tokens_per_frame: int,
    needle_count: int,
    seed: int,
    model: ModelConfig,
    noise_scale: float = 0.1,
    question_len: int = 4,
) -> SyntheticTask:
    """Seeded needle task: needle frames drawn uniformly, a video that plants
    them, a short question, and the video's nonzero answer id."""
    if needle_count > total_frames:
        raise ContractError("needle_count exceeds total_frames")
    rng = Rng(seed)
    needles = frozenset(
        int(f)
        for f in sample_frame_indices(
            total_frames, needle_count, FrameMethod.RANDOM, rng.child(0)
        )
    )
    video = VideoTokenStream(
        total_frames, tokens_per_frame, model.model_dim, rng.child(1).key, needles
    )
    question = uniform_integers(model.vocab, question_len, rng.child(2))
    answer = needle_answer(video.key, model.vocab)
    return SyntheticTask(video, tuple(int(t) for t in question), answer, noise_scale)


def probe_for_task(task: SyntheticTask, model: ModelConfig) -> NeedleProbe:
    """The probe `run_experiment` builds for `task`'s experiment. Only
    perfbench's replay of `run_experiment` calls it; ROADMAP item 2 drops it."""
    return NeedleProbe(model.vocab, task.noise_scale)


# ---------------------------------------------------------------------------
# Experiments


@dataclass
class ExperimentReport:
    config_hash: str
    seed: int
    repeats: int
    accuracy: float
    any_trial_coverage: float
    per_trial: list[dict]
    cost: CostReport
    backend: str


def _attn_scores(task: SyntheticTask, transformer, frame_indices) -> np.ndarray:
    """Attention each visual token of the given frames receives when all of
    them are packed, in full, ahead of the question."""
    tokens = len(frame_indices) * task.video.tokens_per_frame
    full = TrialPlan(frame_indices, np.arange(tokens, dtype=np.int64), 1.0)
    packed = pack([full], task.video, task.question)
    return transformer.attention_received(packed)[:tokens]


def _task_seed(seed: int, rep: int) -> int:
    return int(mix64(seed ^ mix64(rep + 1)))


def run_experiment(
    cfg: ExperimentConfig, latency_repeats: Optional[int] = None
) -> ExperimentReport:
    """Execute `repeats` independent task instances and aggregate accuracy,
    coverage diagnostics, and a cost report. With `latency_repeats`, the cost
    report also holds median first-token latencies over that many runs.

    One backend serves every task: the seeded transformer or one needle
    probe, plus a transformer for the `attn_top` scores when the backend is
    the probe. Tasks are drawn in blocks of `_TASK_BLOCK` repeats, and each
    trial's frames and kept tokens are stacked over the block as (R, N) and
    (R, k_i) arrays, whose (R, k_i) video rows `kept_rows` gives once per
    block. Per block, one `backend.block_logits` call reads every segment's
    last-position logits from those rows as an (R, m, vocab) array, and one
    `fuse_tokens` call fuses them; coverage is tallied over the block's
    stacked needle masks at the frames, and surviving needle tokens at the
    rows. The tokens are those `decode` gives for one step. Only the cost
    report packs a task's trials, the first task's."""
    s = cfg.sampler
    on_transformer = cfg.backend == "seeded_transformer"
    attn_top = s.token_strategy is TokenStrategy.ATTN_TOP
    transformer = build_model(cfg.model) if on_transformer or attn_top else None
    backend = transformer if on_transformer else NeedleProbe(cfg.model.vocab, cfg.task.noise_scale)
    root = Rng(cfg.seed)

    hits = covered_any = 0
    trial_cover = np.zeros(s.trials, dtype=np.int64)
    trial_survive = np.zeros(s.trials, dtype=np.int64)

    for block_start in range(0, cfg.repeats, _TASK_BLOCK):
        tasks, plans = [], []
        for rep in range(block_start, min(block_start + _TASK_BLOCK, cfg.repeats)):
            task = gen_task(
                s.total_frames,
                s.tokens_per_frame,
                cfg.task.needle_count,
                _task_seed(cfg.seed, rep),
                cfg.model,
                noise_scale=cfg.task.noise_scale,
                question_len=cfg.task.question_len,
            )
            scores_fn = partial(_attn_scores, task, transformer) if attn_top else None
            tasks.append(task)
            plans.append(build_trial_plans(s, root.child(rep), attn_scores_fn=scores_fn))
        # each trial's (R, N) frames, (R, k_i) kept tokens and the video rows
        # they keep, alike for every task's video
        frames = [np.array([p[i].frame_indices for p in plans]) for i in range(s.trials)]
        keeps = [np.array([p[i].token_keep for p in plans]) for i in range(s.trials)]
        rows = [kept_rows(f, k, tasks[0].video) for f, k in zip(frames, keeps)]
        questions = np.array([task.question for task in tasks])
        logits = backend.block_logits([task.video for task in tasks], questions, rows)
        if block_start == 0:
            first = (tasks[0], plans[0])
        tokens = fuse_tokens(logits, cfg.strategy)
        hits += int(np.count_nonzero(tokens == [task.answer for task in tasks]))

        # the (R, F) needle masks read at each trial's (R, N) frames and at
        # the frames of its (R, k_i) rows
        masks = np.array([task.video.needle_mask for task in tasks])
        covered = np.zeros(len(tasks), dtype=bool)
        for i in range(s.trials):
            cover = per_row(masks, frames[i]).any(axis=1)
            trial_cover[i] += np.count_nonzero(cover)
            trial_survive[i] += np.count_nonzero(per_row(masks, rows[i] // s.tokens_per_frame))
            covered |= cover
        covered_any += int(np.count_nonzero(covered))

    cost = _cost_report(cfg, *first, backend, latency_repeats)
    per_trial = [
        {
            "trial": i,
            "coverage": trial_cover[i] / cfg.repeats,
            "mean_surviving_needle_tokens": trial_survive[i] / cfg.repeats,
        }
        for i in range(s.trials)
    ]
    return ExperimentReport(
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        repeats=cfg.repeats,
        accuracy=hits / cfg.repeats,
        any_trial_coverage=covered_any / cfg.repeats,
        per_trial=per_trial,
        cost=cost,
        backend=cfg.backend,
    )


def _cost_report(cfg, task, plans, backend, latency_repeats) -> CostReport:
    """Costs of the task's trial plans, packed, against one full-retention
    trial on frames drawn from a fixed child stream of the seed."""
    s = cfg.sampler
    packed = pack(plans, task.video, task.question)
    full = TrialPlan(
        sample_frame_indices(
            s.total_frames, s.frames_per_trial, s.frame_method, Rng(cfg.seed).child(10**6)
        ),
        np.arange(s.tokens_per_trial, dtype=np.int64),
        1.0,
    )
    return measure(
        backend,
        pack([full], task.video, task.question),
        packed,
        s.ratios,
        repeats=latency_repeats,
        strategy=cfg.strategy,
    )


# ---------------------------------------------------------------------------
# Sweeps

SWEEP_AXES = ("alpha_grid", "m_values", "k_values", "strategy_matrix")

CSV_COLUMNS = [
    "config_hash",
    "axis",
    "point",
    "accuracy",
    "theoretical_speedup",
    "measured_speedup",
    "pairs_base",
    "pairs_multi",
    "wall_ms_base",
    "wall_ms_t3s",
    "error",
]

# the grid of each numeric axis
GRIDS = {
    "alpha_grid": (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
    "m_values": (1, 2, 3, 4),
    "k_values": (1, 2, 5, 10, 100),
}

STRATEGY_MATRIX = (
    ("rand-tok-m2", FrameMethod.RANDOM, TokenStrategy.RAND_TOK, False),
    ("rand-tok-m1", FrameMethod.RANDOM, TokenStrategy.RAND_TOK, True),
    ("uni-tok-m2", FrameMethod.UNIFORM, TokenStrategy.RAND_TOK, False),
    ("uni-tok-m1", FrameMethod.UNIFORM, TokenStrategy.RAND_TOK, True),
    ("rand-frm-m2", FrameMethod.RANDOM, TokenStrategy.RAND_FRM, False),
    ("rand-attn-m2", FrameMethod.RANDOM, TokenStrategy.ATTN_TOP, False),
)


def _sweep_points(
    axis: str, base: ExperimentConfig
) -> list[tuple[str, Callable[[], ExperimentConfig]]]:
    """(label, build) per grid point. `build()` makes the point's config,
    sampler and strategy together, so a point that does not fit the base
    (an m whose packed length exceeds `max_positions`) fails inside its own
    row, not the sweep."""
    s = base.sampler
    two_trial_ratios = s.ratios[:2] if s.trials >= 2 else (s.ratios[0],) * 2

    def build(strategy=None, **sampler) -> ExperimentConfig:
        return replace(base, sampler=replace(s, **sampler), strategy=strategy or base.strategy)

    if axis == "alpha_grid":
        grid = GRIDS[axis]
        return [
            (f"{a1:g},{a2:g}", partial(build, trials=2, ratios=(a1, a2)))
            for a1 in grid
            for a2 in grid
        ]
    if axis == "m_values":
        return [
            (f"m={m}", partial(build, MeanLogits(), trials=m, ratios=(s.ratios[0],) * m))
            for m in GRIDS[axis]
        ]
    if axis == "k_values":
        # clipping to vocab can repeat a value; each k runs once, in grid order
        ks = dict.fromkeys(min(k, base.model.vocab) for k in GRIDS[axis])
        return [
            (f"k={k}", partial(build, CrossRefine(k), trials=2, ratios=two_trial_ratios))
            for k in ks
        ]
    if axis == "strategy_matrix":
        return [
            (
                name,
                partial(
                    build,
                    trials=2,
                    ratios=two_trial_ratios,
                    frame_method=fm,
                    token_strategy=ts,
                    reuse_frames=reuse,
                ),
            )
            for name, fm, ts, reuse in STRATEGY_MATRIX
        ]
    raise ConfigError(f"unknown sweep axis {axis!r}; choose from {SWEEP_AXES}")


def report_csv_row(axis: str, point: str, report: ExperimentReport) -> dict:
    c = report.cost
    return {
        "config_hash": report.config_hash,
        "axis": axis,
        "point": point,
        "accuracy": f"{report.accuracy:.6f}",
        "theoretical_speedup": f"{c.theoretical_speedup:.6f}",
        "measured_speedup": "" if c.measured_speedup is None else f"{c.measured_speedup:.4f}",
        "pairs_base": str(c.measured_pairs_base),
        "pairs_multi": str(c.measured_pairs_multi),
        "wall_ms_base": "" if c.tau1 is None else f"{c.tau1 * 1e3:.3f}",
        "wall_ms_t3s": "" if c.tau2 is None else f"{c.tau2 * 1e3:.3f}",
        "error": "",
    }


def sweep(axis: str, base: ExperimentConfig) -> list[dict]:
    """One experiment per point of the axis's fixed grid, in grid order. A
    failing point yields a row with its error recorded; the sweep continues."""
    rows = []
    for point, build in _sweep_points(axis, base):
        try:
            rows.append(report_csv_row(axis, point, run_experiment(build())))
        except Exception as exc:  # recorded, never silently dropped
            rows.append(
                {
                    **{col: "" for col in CSV_COLUMNS},
                    "config_hash": config_hash(base),
                    "axis": axis,
                    "point": point,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Coverage


@dataclass
class CoverageReport:
    total_frames: int
    frames_per_trial: int
    trials: int
    draws: int
    empirical: float
    closed_form: float
    z_score: float


def coverage_report(
    total_frames: int,
    frames_per_trial: int,
    trials: int,
    draws: int,
    seed: int = 0,
) -> CoverageReport:
    """Monte-Carlo needle-hit rate versus the closed form 1-(1-N/F)^m."""
    if draws < 10000:
        raise ContractError(f"draws must be >= 10000, got {draws}")
    if not 0 <= seed < 2**64:
        raise ContractError(f"seed must lie in [0, 2**64), got {seed}")
    p = closed_form_coverage(total_frames, frames_per_trial, trials)
    root = Rng(seed)
    key_frame = 0  # uniform sampling makes every fixed frame equivalent
    hits = 0
    for d in range(draws):
        draw_rng = root.child(d)
        for t in range(trials):
            frames = sample_frame_indices(
                total_frames, frames_per_trial, FrameMethod.RANDOM, draw_rng.child(t)
            )
            if (frames == key_frame).any():
                hits += 1
                break
    emp = hits / draws
    se = (p * (1.0 - p) / draws) ** 0.5
    if se == 0.0:
        z = 0.0 if emp == p else float("inf")
    else:
        z = (emp - p) / se
    return CoverageReport(
        total_frames=total_frames,
        frames_per_trial=frames_per_trial,
        trials=trials,
        draws=draws,
        empirical=emp,
        closed_form=p,
        z_score=z,
    )
