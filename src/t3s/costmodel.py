"""Attention-cost accounting: quadratic-model predictions, exact pair counts,
and first-token wall-clock measurement.

The theoretical model prices a length-L causal pass at L^2 and the m-trial
pass at L^2 * sum(alpha_i^2); the exact counterpart counts the causal
triangles the block-diagonal causal rule allows, which the forward
instrumentation reports as integers.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from .aggregator import AggregationStrategy, MeanLogits, fuse_token
from .errors import ContractError
from .packer import PackedSequence, last_positions, slice_segment
from .sampler import kept_tokens


@dataclass
class CostReport:
    L: int
    alpha: list[float]
    theoretical_base: float
    theoretical_multi: float
    theoretical_speedup: float
    measured_pairs_base: int
    measured_pairs_multi: int
    tau1: Optional[float] = None  # baseline first-token latency, seconds
    tau2: Optional[float] = None  # multi-trial first-token latency, seconds
    measured_speedup: Optional[float] = None
    fallback_serial: bool = False

    def to_json_dict(self) -> dict:
        return asdict(self)


def theoretical_costs(L: int, alphas: Sequence[float]) -> tuple[float, float, float]:
    """(base, multi, speedup) = (L^2, L^2 * sum(a^2), 1 / sum(a^2))."""
    if L < 1:
        raise ContractError(f"L must be >= 1, got {L}")
    if any(not (0.0 < a <= 1.0) for a in alphas):
        raise ContractError(f"ratios must lie in (0, 1], got {list(alphas)}")
    ssq = float(sum(a * a for a in alphas))
    base = float(L) ** 2
    return base, base * ssq, 1.0 / ssq


def exact_pair_ratio(L: int, alphas: Sequence[float]) -> float:
    """Causal-triangle analogue of sum(alpha^2): the multi/base pair-count
    ratio for text-free sequences of exactly floor(alpha_i * L) tokens."""
    kept = [kept_tokens(a, L) for a in alphas]
    num = sum(k * (k + 1) for k in kept)
    return num / (L * (L + 1))


def _first_token_seconds(
    backend, packed: PackedSequence, strategy: AggregationStrategy
) -> tuple[float, int]:
    start = time.perf_counter()
    logits, pairs = backend.forward(packed)
    fuse_token(logits[last_positions(packed)], strategy)
    return time.perf_counter() - start, pairs


def _first_token_serial_seconds(
    backend, packed: PackedSequence, strategy: AggregationStrategy
) -> tuple[float, int]:
    # out-of-budget path: one forward per trial, costs summed
    start = time.perf_counter()
    trial_logits = []
    pairs = 0
    for i in range(packed.num_segments):
        solo = slice_segment(packed, i)
        logits, p = backend.forward(solo)
        trial_logits.append(logits[-1])
        pairs += p
    fuse_token(np.stack(trial_logits), strategy)
    return time.perf_counter() - start, pairs


def dense_score_entries(packed: PackedSequence) -> int:
    """Score-matrix entries a dense per-segment pass materializes (sum of
    squared segment lengths); the quantity the memory budget limits."""
    return sum(s.length * s.length for s in packed.segments)


def measure(
    backend,
    baseline_packed: PackedSequence,
    multi_packed: PackedSequence,
    alphas: Sequence[float],
    repeats: int = 5,
    strategy: Optional[AggregationStrategy] = None,
    memory_budget_entries: Optional[int] = None,
) -> CostReport:
    """Median first-token latency and exact pair counts for both paths.

    tau1/tau2 run from forward start to the first aggregated token. When the
    multi pass would materialize more dense score entries than
    `memory_budget_entries`, it falls back to serial per-trial forwards and
    tau2 sums their times (fallback_serial=True).
    """
    if repeats < 3:
        raise ContractError(f"repeats must be >= 3, got {repeats}")
    if baseline_packed.num_segments != 1:
        raise ContractError("baseline must be a single-segment sequence")
    strategy = strategy or MeanLogits()
    # visual tokens per trial, as on the untimed path: the question is not L
    L = baseline_packed.total_length - baseline_packed.text_len
    base, multi, speedup = theoretical_costs(L, alphas)

    fallback = (
        memory_budget_entries is not None
        and dense_score_entries(multi_packed) > memory_budget_entries
    )
    multi_fn = _first_token_serial_seconds if fallback else _first_token_seconds

    # one untimed warmup per path so allocator effects stay out of medians
    _first_token_seconds(backend, baseline_packed, MeanLogits())
    multi_fn(backend, multi_packed, strategy)

    tau1_samples, tau2_samples = [], []
    pairs_base = pairs_multi = 0
    for _ in range(repeats):
        t1, pairs_base = _first_token_seconds(backend, baseline_packed, MeanLogits())
        tau1_samples.append(t1)
        t2, pairs_multi = multi_fn(backend, multi_packed, strategy)
        tau2_samples.append(t2)
    tau1 = statistics.median(tau1_samples)
    tau2 = statistics.median(tau2_samples)
    return CostReport(
        L=L,
        alpha=list(alphas),
        theoretical_base=base,
        theoretical_multi=multi,
        theoretical_speedup=speedup,
        measured_pairs_base=pairs_base,
        measured_pairs_multi=pairs_multi,
        tau1=tau1,
        tau2=tau2,
        measured_speedup=tau1 / tau2,
        fallback_serial=fallback,
    )


def count_pairs(backend, packed: PackedSequence) -> int:
    """Pair count of one forward, without timing."""
    return backend.forward(packed).pair_count
