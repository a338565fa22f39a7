"""Deterministic numeric substrate: dense float64 kernels and a splittable RNG.

All matrix values are 64-bit floats in row-major (C) order. Every operation is
pure; given identical inputs it returns identical results on a fixed platform
and numpy build. The random source is counter-based (Philox 4x64-10) keyed by
a (seed, stream) pair, so identical keys reproduce identical draws on every
platform, and distinct streams are independent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ShapeError

_MASK64 = (1 << 64) - 1

# splitmix64 finalizer constants
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(x):
    """splitmix64 finalizer: a pinned 64-bit bijective mixing function.

    Accepts a Python int or a uint64 ndarray; returns the same kind. Used for
    stream-id derivation and for hash-seeded noise, never for statistics that
    the Philox generator backs.
    """
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore"):
            z = x + np.uint64(_GOLDEN)
            z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX_A)
            z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX_B)
            return z ^ (z >> np.uint64(31))
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


@dataclass(frozen=True)
class Rng:
    """Splittable deterministic random source.

    The underlying generator is numpy's Philox 4x64-10 keyed by the 128-bit
    value (seed << 64) | stream. Children derive fresh stream ids through
    mix64, which is bijective, so the children of one parent never collide
    with each other.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        key = ((self.seed & _MASK64) << 64) | (self.stream & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "Rng":
        if index < 0:
            raise ContractError(f"child index must be >= 0, got {index}")
        derived = mix64((self.stream & _MASK64) ^ mix64(index + 1))
        return Rng(self.seed, derived)


def _require_matrix(m: np.ndarray, name: str) -> np.ndarray:
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got ndim={m.ndim}")
    return m


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction (overflow-safe)."""
    m = _require_matrix(m, "m")
    shifted = m - m.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def entropy(dist) -> float:
    """Shannon entropy in nats, with 0*ln(0) := 0.

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


def layer_norm(x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance (no affine)."""
    x = np.asarray(x, dtype=np.float64)
    centred = x - x.mean(axis=-1, keepdims=True)
    centred /= np.sqrt(np.mean(centred * centred, axis=-1, keepdims=True) + eps)
    return centred


def sample_without_replacement(population: int, take: int, rng: Rng) -> np.ndarray:
    """Uniform `take`-subset of [0, population), returned ascending.

    One `Generator.choice(..., replace=False, shuffle=False)` call on the
    stream's generator: numpy's partial Fisher-Yates (it shuffles the last
    `take` slots of the population in C), then sorted. Every subset of size
    `take` is equiprobable. The draw follows numpy's `choice`, so the
    pinned-output test in tests/test_numkernel.py fails if a numpy release
    changes it.
    """
    if population < 0 or take < 0 or take > population:
        raise ContractError(
            f"need 0 <= take <= population, got take={take}, population={population}"
        )
    out = rng.generator().choice(population, take, replace=False, shuffle=False)
    out.sort()
    return out
