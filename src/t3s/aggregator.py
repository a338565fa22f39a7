"""Logit aggregation across trials and the autoregressive decode loop.

Three fusion rules: plain mean, inverse-entropy confidence weighting, and the
asymmetric two-trial cross-refinement (trial 1 proposes top-k candidates,
trial 2 re-ranks them). Every argmax breaks ties toward the lowest token id.
Mean and confidence weighting sum per-coordinate addends in sorted order so
the fused vector is bit-identical under any permutation of the trials. Each
rule is implemented once, over an (R, m, vocab) block of R tasks
(`fuse_tokens`); the one-task functions are its R = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ConfigError, ContractError
from .numkernel import softmax_rows
from .packer import pack, token_per_segment
from .sampler import TrialPlan
from .toymodel import SegmentCache

# Entropy floor: inverse-entropy weights blow up on one-hot distributions.
_ENTROPY_FLOOR = 1e-8
DEFAULT_TOP_K = 2


@dataclass(frozen=True)
class MeanLogits:
    pass


@dataclass(frozen=True)
class ConfidenceWeighted:
    pass


@dataclass(frozen=True)
class CrossRefine:
    top_k: int = DEFAULT_TOP_K

    def __post_init__(self):
        if self.top_k < 1:
            raise ConfigError(f"top_k must be >= 1, got {self.top_k}")


AggregationStrategy = Union[MeanLogits, ConfidenceWeighted, CrossRefine]


_SHAPES = {2: "(m, vocab)", 3: "(R, m, vocab)"}


def _check_trial_logits(logits, ndim: int = 2) -> np.ndarray:
    o = np.asarray(logits, dtype=np.float64)
    if o.ndim != ndim or 0 in o.shape:
        raise ContractError(
            f"trial logits must be {_SHAPES[ndim]} with every size >= 1, got {o.shape}"
        )
    if not np.isfinite(o).all():
        raise ContractError("trial logits must be finite")
    return o


def _ordered_sum(addends: np.ndarray) -> np.ndarray:
    # sort each (task, coordinate) column along the trial axis before
    # reducing: permutation-invariant float result
    return np.add.reduce(np.sort(addends, axis=1), axis=1)


def _row_entropies(probs: np.ndarray) -> np.ndarray:
    # the Shannon entropy in nats (0*ln(0) := 0) of every row in one pass;
    # raises ContractError on a negative entry or a row summing off 1 by
    # more than 1e-9
    if probs.min() < 0.0:
        raise ContractError(f"negative probability {probs.min()}")
    totals = probs.sum(axis=1)
    off = np.abs(totals - 1.0) > 1e-9
    if off.any():
        raise ContractError(f"probabilities sum to {totals[off][0]}, not 1")
    logs = np.log(probs, out=np.zeros_like(probs), where=probs > 0.0)
    return -(probs * logs).sum(axis=1)


def _fused(o: np.ndarray, strategy) -> np.ndarray:
    """The (R, vocab) fused vectors of checked (R, m, vocab) logits: their
    mean over the trials, or, under confidence weighting, their sum weighted
    by each trial's inverse predictive entropy, normalized to sum 1."""
    if isinstance(strategy, MeanLogits):
        return _ordered_sum(o) / o.shape[1]
    r, m, vocab = o.shape
    h = _row_entropies(softmax_rows(o.reshape(r * m, vocab))).reshape(r, m)
    inv = 1.0 / np.maximum(h, _ENTROPY_FLOOR)
    weights = inv / np.add.reduce(np.sort(inv, axis=1), axis=1, keepdims=True)
    return _ordered_sum(weights[:, :, None] * o)


def _refined(o: np.ndarray, top_k: int) -> np.ndarray:
    """The cross-refinement token of each task of checked (R, 2, vocab)
    logits: trial 1 proposes its top-k token ids (ties: larger logit first,
    then lower id); trial 2 re-ranks and the best candidate wins (lowest id
    on ties)."""
    vocab = o.shape[2]
    if not (1 <= top_k <= vocab):
        raise ContractError(f"top_k must be in [1, {vocab}], got {top_k}")
    candidates = np.argsort(-o[:, 0], axis=1, kind="stable")[:, :top_k]
    scores = o[np.arange(len(o))[:, None], 1, candidates]
    best = scores == scores.max(axis=1, keepdims=True)
    return np.where(best, candidates, vocab).min(axis=1)


def _tokens(o: np.ndarray, strategy: AggregationStrategy) -> np.ndarray:
    if isinstance(strategy, (MeanLogits, ConfidenceWeighted)):
        return _fused(o, strategy).argmax(axis=1)
    if isinstance(strategy, CrossRefine):
        if o.shape[1] != 2:
            raise ConfigError(
                f"cross-refinement needs exactly 2 trials, got {o.shape[1]}"
            )
        return _refined(o, strategy.top_k)
    raise ConfigError(f"unknown strategy {strategy!r}")


def fuse_tokens(logits, strategy: AggregationStrategy) -> np.ndarray:
    """One aggregated next-token decision per task: (R,) int64 tokens from
    (R, m, vocab) logits, the m per-trial vectors of each of R tasks.
    `fuse_token`, `mean_logits`, `confidence_weighted` and `cross_refine`
    are its R = 1 case, bit for bit."""
    return _tokens(_check_trial_logits(logits, 3), strategy)


def fuse_token(logits, strategy: AggregationStrategy) -> int:
    """One aggregated next-token decision from the m per-trial logit vectors."""
    return int(_tokens(_check_trial_logits(logits)[None], strategy)[0])


def mean_logits(logits) -> tuple[np.ndarray, int]:
    """Elementwise mean across trials; returns (fused vector, argmax token)."""
    fused = _fused(_check_trial_logits(logits)[None], MeanLogits())[0]
    return fused, int(fused.argmax())


def confidence_weighted(logits) -> tuple[np.ndarray, int]:
    """Trials weighted by inverse predictive entropy, normalized to sum 1."""
    fused = _fused(_check_trial_logits(logits)[None], ConfidenceWeighted())[0]
    return fused, int(fused.argmax())


def cross_refine(first, second, top_k: int) -> int:
    """Trial 1 proposes its top-k token ids (ties: larger logit first, then
    lower id); trial 2 re-ranks and the best candidate wins (lowest id on ties)."""
    o1 = np.asarray(first, dtype=np.float64).ravel()
    o2 = np.asarray(second, dtype=np.float64).ravel()
    if o1.shape != o2.shape:
        raise ContractError(f"trial logits differ in size: {o1.shape} vs {o2.shape}")
    return int(_refined(_check_trial_logits(np.stack([o1, o2]))[None], top_k)[0])


def decode(
    backend,
    plans: Sequence[TrialPlan],
    video,
    text: Sequence[int],
    steps: int,
    strategy: AggregationStrategy,
) -> list[int]:
    """Greedy multi-trial decoding.

    Packs the plans, then per step: read each segment's last-position
    logits of the one packed sequence through `backend.last_logits`, which
    continues its `SegmentCache`, fuse them to one token, and pack only
    that token, once per segment, for the next step. Returns `steps` tokens;
    raises ContractError before the first step if the last step's packed
    total would exceed the backend's `max_positions`, on a backend that has
    one (the probe has none).
    """
    if steps < 1:
        raise ContractError(f"steps must be >= 1, got {steps}")
    packed = pack(plans, video, text)
    limit = backend.max_positions
    need = packed.total_length + (steps - 1) * packed.num_segments
    if limit is not None and need > limit:
        raise ContractError(
            f"{steps} steps need {need} positions, over max_positions={limit}"
        )
    cache = SegmentCache(reserve=steps - 1)
    out: list[int] = []
    for step in range(steps):
        token = fuse_token(backend.last_logits(packed, cache), strategy)
        out.append(token)
        if step + 1 < steps:
            packed = token_per_segment(token, packed)
    return out
