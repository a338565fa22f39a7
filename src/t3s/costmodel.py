"""Attention-cost accounting: quadratic-model predictions, exact pair counts,
and first-token wall-clock measurement, gathered into one CostReport.

The theoretical model prices a length-L causal pass at L^2 and the m-trial
pass at L^2 * sum(alpha_i^2); the exact counterpart counts the causal
triangles the block-diagonal causal rule allows, as integers that each
backend's `pair_count` reads off the segment layout, without a forward.
"""

from __future__ import annotations

import resource
import statistics
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .aggregator import AggregationStrategy, MeanLogits, fuse_token
from .errors import ContractError
from .packer import PackedSequence
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


# Minor page faults per timed pass of the last `measure` call that timed; `t3s
# bench` prints it on stdout, and no report holds it.
last_faults_per_pass: Optional[float] = None


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
) -> float:
    start = time.perf_counter()
    fuse_token(backend.last_logits(packed), strategy)
    return time.perf_counter() - start


def measure(
    backend,
    baseline_packed: PackedSequence,
    multi_packed: PackedSequence,
    alphas: Sequence[float],
    repeats: Optional[int] = None,
    strategy: Optional[AggregationStrategy] = None,
) -> CostReport:
    """The cost report of a single-segment baseline and a multi-trial pass.

    L is the baseline's visual tokens (the question is not L); pair counts
    come from `backend.pair_count`, without a forward. With `repeats`, each
    path's sequence gets one untimed `last_logits` call, then tau1/tau2 are
    the medians of that many timed runs per path, each from the start of a
    `last_logits` call on it to the first aggregated token; without,
    they stay None and nothing runs.
    """
    if repeats is not None and repeats < 3:
        raise ContractError(f"repeats must be >= 3, got {repeats}")
    if baseline_packed.num_segments != 1:
        raise ContractError("baseline must be a single-segment sequence")
    strategy = strategy or MeanLogits()
    L = int((baseline_packed.token_ids < 0).sum())
    base, multi, speedup = theoretical_costs(L, alphas)
    pairs_base = backend.pair_count(baseline_packed)
    pairs_multi = backend.pair_count(multi_packed)
    tau1 = tau2 = None
    if repeats is not None:
        # warmups, keeping allocator effects out of the medians
        backend.last_logits(baseline_packed)
        backend.last_logits(multi_packed)
        # interleaved, so drift in machine speed hits both paths alike
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        samples = [
            (
                _first_token_seconds(backend, baseline_packed, MeanLogits()),
                _first_token_seconds(backend, multi_packed, strategy),
            )
            for _ in range(repeats)
        ]
        global last_faults_per_pass
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
        last_faults_per_pass = faults / (2 * repeats)
        tau1 = statistics.median(t1 for t1, _ in samples)
        tau2 = statistics.median(t2 for _, t2 in samples)
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
        measured_speedup=None if tau1 is None else tau1 / tau2,
    )
