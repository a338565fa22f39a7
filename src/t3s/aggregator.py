"""Logit aggregation across trials and the autoregressive decode loop.

Three fusion rules: plain mean, inverse-entropy confidence weighting, and the
asymmetric two-trial cross-refinement (trial 1 proposes top-k candidates,
trial 2 re-ranks them). Every argmax breaks ties toward the lowest token id.
Mean and confidence weighting sum per-coordinate addends in sorted order so
the fused vector is bit-identical under any permutation of the trials.
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


def _check_trial_logits(logits) -> np.ndarray:
    o = np.asarray(logits, dtype=np.float64)
    if o.ndim != 2 or o.shape[0] < 1:
        raise ContractError(f"trial logits must be (m, vocab) with m >= 1, got {o.shape}")
    if not np.isfinite(o).all():
        raise ContractError("trial logits must be finite")
    return o


def _ordered_sum(addends: np.ndarray) -> np.ndarray:
    # sort each column before reducing: permutation-invariant float result
    return np.add.reduce(np.sort(addends, axis=0), axis=0)


def mean_logits(logits) -> tuple[np.ndarray, int]:
    """Elementwise mean across trials; returns (fused vector, argmax token)."""
    o = _check_trial_logits(logits)
    fused = _ordered_sum(o) / o.shape[0]
    return fused, int(np.argmax(fused))


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


def confidence_weighted(logits) -> tuple[np.ndarray, int]:
    """Trials weighted by inverse predictive entropy, normalized to sum 1."""
    o = _check_trial_logits(logits)
    h = _row_entropies(softmax_rows(o))
    inv = 1.0 / np.maximum(h, _ENTROPY_FLOOR)
    weights = inv / np.add.reduce(np.sort(inv))
    fused = _ordered_sum(weights[:, None] * o)
    return fused, int(np.argmax(fused))


def cross_refine(first, second, top_k: int) -> int:
    """Trial 1 proposes its top-k token ids (ties: larger logit first, then
    lower id); trial 2 re-ranks and the best candidate wins (lowest id on ties)."""
    o1 = np.asarray(first, dtype=np.float64).ravel()
    o2 = np.asarray(second, dtype=np.float64).ravel()
    if o1.shape != o2.shape:
        raise ContractError(f"trial logits differ in size: {o1.shape} vs {o2.shape}")
    o1, o2 = _check_trial_logits(np.stack([o1, o2]))
    vocab = len(o1)
    if not (1 <= top_k <= vocab):
        raise ContractError(f"top_k must be in [1, {vocab}], got {top_k}")
    candidates = np.argsort(-o1, kind="stable")[:top_k]
    scores = o2[candidates]
    winners = candidates[scores == scores.max()]
    return int(winners.min())


def fuse_token(logits, strategy: AggregationStrategy) -> int:
    """One aggregated next-token decision from the m per-trial logit vectors."""
    o = _check_trial_logits(logits)
    if isinstance(strategy, MeanLogits):
        return mean_logits(o)[1]
    if isinstance(strategy, ConfidenceWeighted):
        return confidence_weighted(o)[1]
    if isinstance(strategy, CrossRefine):
        if o.shape[0] != 2:
            raise ConfigError(
                f"cross-refinement needs exactly 2 trials, got {o.shape[0]}"
            )
        return cross_refine(o[0], o[1], strategy.top_k)
    raise ConfigError(f"unknown strategy {strategy!r}")


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
    logits through `backend.last_logits`, which continues the packed
    sequence's one `SegmentCache`, fuse them to one token, and pack only
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
        token = fuse_token(backend.last_logits([packed], cache), strategy)
        out.append(token)
        if step + 1 < steps:
            packed = token_per_segment(token, packed)
    return out
