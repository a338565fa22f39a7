"""Test-only reference code: a video given as an explicit array, the whole of
a lazy video drawn at once, packed sequences built directly from row and
vocabulary ids, a direct single-sequence greedy baseline that shares no code
with the sampler or the multi-trial packer paths, the multi-trial decode that
recomputes the whole packed sequence every step, the sampler's trial-plan
postcondition, a structural dump of packed sequences for golden tests,
each position's segment id and its index inside its segment,
`run_experiment` as a loop of one task at a time with its needle tallies,
one segment's view of a transformer cache, the Shannon entropy of one
probability vector, and each fusion rule applied to one task's logits."""

from functools import partial
from typing import Sequence

import numpy as np

from t3s.aggregator import ConfidenceWeighted, CrossRefine, decode, fuse_token
from t3s.errors import ContractError
from t3s.harness import (
    ExperimentReport,
    SyntheticTask,
    _attn_scores,
    _cost_report,
    _task_seed,
    config_hash,
    gen_task,
)
from t3s.numkernel import Rng, softmax_rows
from t3s.packer import PackedSequence, Segment, append_token, last_positions, pack
from t3s.sampler import SamplerConfig, TokenStrategy, TrialPlan, build_trial_plans, kept_tokens
from t3s.toymodel import NeedleProbe, VideoTokenStream, build_model


class ArrayVideo:
    """A video whose rows are an explicit (F, M, model_dim) array, read
    through the same `rows`, `key` and `needle_mask` as `VideoTokenStream`;
    its key is 0 and it has no needle frames."""

    def __init__(self, frames: np.ndarray):
        self.frames = np.asarray(frames, dtype=np.float64)
        self.num_frames, self.tokens_per_frame, self.model_dim = self.frames.shape
        self.key = 0
        self.needle_mask = np.zeros(self.num_frames, dtype=bool)

    def rows(self, index: np.ndarray) -> np.ndarray:
        return self.frames.reshape(-1, self.model_dim)[index]


def materialise(video) -> np.ndarray:
    """Every row of `video` drawn in one read, as (F, M, model_dim)."""
    f, m = video.num_frames, video.tokens_per_frame
    return video.rows(np.arange(f * m)).reshape(f, m, video.model_dim)


def segments_of(video, parts) -> PackedSequence:
    """One packed segment per part, back to back. A part holds one int per
    position: a vocabulary id t >= 0, or -1 - r for row r of `video`."""
    codes = np.concatenate([np.asarray(p, dtype=np.int64) for p in parts])
    starts = np.cumsum([0] + [len(p) for p in parts])
    return PackedSequence(
        tuple(Segment(int(b), len(p)) for b, p in zip(starts, parts)),
        np.maximum(codes, -1),
        -1 - codes[codes < 0],
        video,
    )


def single_sequence(video: VideoTokenStream, text: Sequence[int]) -> PackedSequence:
    """The plain <video, text> sequence, built without trial plans or packing."""
    rows = np.arange(video.num_frames * video.tokens_per_frame, dtype=np.int64)
    return segments_of(video, [np.concatenate([-1 - rows, np.asarray(text, dtype=np.int64)])])


def baseline_greedy_decode(
    backend,
    video: VideoTokenStream,
    text: Sequence[int],
    steps: int,
) -> list[int]:
    """Plain greedy decoding of the single full sequence."""
    ids = list(text)
    out: list[int] = []
    for _ in range(steps):
        logits, _ = backend.forward(single_sequence(video, ids))
        token = int(np.argmax(logits[-1]))
        out.append(token)
        ids.append(token)
    return out


def recompute_decode(
    backend,
    plans,
    video,
    text: Sequence[int],
    steps: int,
    strategy,
) -> list[int]:
    """Oracle for `aggregator.decode`: every step forwards the whole packed
    sequence without a cache, then appends the fused token to each segment."""
    packed = pack(plans, video, text)
    out: list[int] = []
    for step in range(steps):
        logits, _ = backend.forward(packed)
        token = fuse_token(logits[last_positions(packed)], strategy)
        out.append(token)
        if step + 1 < steps:
            packed = append_token(packed, token, max_positions=backend.max_positions)
    return out


def check_plan(plan: TrialPlan, cfg: SamplerConfig) -> None:
    """Postcondition of `build_trial_plans`: N frame indices inside the video
    and floor(alpha * N * M) token positions inside the trial, both strictly
    ascending."""
    f, k = plan.frame_indices, plan.token_keep
    n, m = cfg.frames_per_trial, cfg.tokens_per_frame
    assert len(f) == n, f"expected {n} frame indices, got {len(f)}"
    assert 0 <= f[0] and f[-1] < cfg.total_frames, "frame index out of range"
    assert np.all(np.diff(f) > 0), "frame indices must be strictly ascending"
    want = kept_tokens(plan.alpha, n * m)
    assert len(k) == want, f"expected {want} kept tokens, got {len(k)}"
    if len(k):
        assert 0 <= k[0] and k[-1] < n * m, "token index out of range"
    assert np.all(np.diff(k) > 0), "token indices must be strictly ascending"


def to_debug_json(packed: PackedSequence) -> dict:
    """JSON-friendly structural dump (segment table + token ids)."""
    return {
        "segments": [[s.start, s.length] for s in packed.segments],
        "token_ids": [int(t) for t in packed.token_ids],
    }


def segment_ids(packed: PackedSequence) -> np.ndarray:
    """The segment of each flat position, read off the segment table."""
    return np.repeat(
        np.arange(packed.num_segments), [s.length for s in packed.segments]
    )


def pos_in_segment(packed: PackedSequence) -> np.ndarray:
    """(total,) int64 index of each position inside its own segment."""
    return np.concatenate([np.arange(s.length, dtype=np.int64) for s in packed.segments])


def surviving_needle_tokens(plan: TrialPlan, task: SyntheticTask) -> int:
    """Needle tokens that outlive both frame sampling and token subsampling."""
    hit = task.video.needle_mask[plan.frame_indices]
    return int(hit[plan.token_keep // task.video.tokens_per_frame].sum())


def per_task_experiment(cfg) -> ExperimentReport:
    """Oracle for `run_experiment`: one task at a time, drawn, planned and
    decoded for one step on its own backend (the shared transformer, or a
    fresh needle probe per task), with the same cost report."""
    s = cfg.sampler
    attn_top = s.token_strategy is TokenStrategy.ATTN_TOP
    on_transformer = cfg.backend == "seeded_transformer"
    transformer = build_model(cfg.model) if on_transformer or attn_top else None
    hits = covered_any = 0
    trial_cover = np.zeros(s.trials, dtype=np.int64)
    trial_survive = np.zeros(s.trials, dtype=np.float64)
    for rep in range(cfg.repeats):
        task = gen_task(
            s.total_frames, s.tokens_per_frame, cfg.task.needle_count,
            _task_seed(cfg.seed, rep), cfg.model,
            noise_scale=cfg.task.noise_scale, question_len=cfg.task.question_len,
        )
        scores_fn = partial(_attn_scores, task, transformer) if attn_top else None
        plans = build_trial_plans(s, Rng(cfg.seed).child(rep), attn_scores_fn=scores_fn)
        probe = NeedleProbe(cfg.model.vocab, cfg.task.noise_scale)
        backend = transformer if on_transformer else probe
        token = decode(backend, plans, task.video, task.question, steps=1, strategy=cfg.strategy)[0]
        hits += int(token == task.answer)
        covers = [bool(task.video.needle_mask[p.frame_indices].any()) for p in plans]
        trial_cover += covers
        trial_survive += [surviving_needle_tokens(p, task) for p in plans]
        covered_any += any(covers)
        if rep == 0:
            first = (task, plans, backend)
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
        cost=_cost_report(cfg, *first, None),
        backend=cfg.backend,
    )


def cached_kv(cache, i: int) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Segment i's per-layer (keys, values, largest squared key norm) in a
    transformer's `SegmentCache`, views trimmed to its `lengths[i]` tokens."""
    n = cache.lengths[i]
    return [(c.keys[i, :, :, :n], c.values[i, :, :n], c.key_sq_max[i]) for c in cache.state]


def entropy(dist) -> float:
    """Shannon entropy in nats, with 0*ln(0) := 0: the reference for
    `aggregator._row_entropies`, one vector at a time.

    The input must be a probability vector: non-negative entries summing to 1
    within 1e-9; anything else raises ContractError.
    """
    p = np.asarray(dist, dtype=np.float64).ravel()
    if p.size == 0:
        raise ContractError("entropy of an empty vector is undefined")
    if p.min() < 0.0:
        raise ContractError(f"negative probability {p.min()}")
    total = p.sum()
    if abs(total - 1.0) > 1e-9:
        raise ContractError(f"probabilities sum to {total}, not 1")
    nz = p[p > 0.0]
    return float(-(nz * np.log(nz)).sum())


def fusion_oracle(logits, strategy) -> tuple:
    """(fused vector, token) of one task's (m, vocab) logits by the
    per-vector rules, the reference for one (m, vocab) slice of
    `aggregator.fuse_tokens`; the fused vector is None under
    cross-refinement, which fuses none. No input checks."""
    o = np.asarray(logits, dtype=np.float64)
    if isinstance(strategy, CrossRefine):
        candidates = np.argsort(-o[0], kind="stable")[: strategy.top_k]
        scores = o[1][candidates]
        return None, int(candidates[scores == scores.max()].min())
    if isinstance(strategy, ConfidenceWeighted):
        probs = softmax_rows(o)
        logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
        inv = 1.0 / np.maximum(-(probs * logs).sum(axis=1), 1e-8)
        weighted = (inv / np.add.reduce(np.sort(inv)))[:, None] * o
        fused = np.add.reduce(np.sort(weighted, axis=0), axis=0)
    else:
        fused = np.add.reduce(np.sort(o, axis=0), axis=0) / len(o)
    return fused, int(np.argmax(fused))
