"""Deterministic numeric substrate: dense float64 kernels and a splittable RNG.

All matrix values are 64-bit floats in row-major (C) order. Every operation is
pure; given identical inputs it returns identical results on a fixed platform
and numpy build. The random source is counter-based (Philox 4x64-10) keyed by
a (seed, stream) pair, so identical keys reproduce identical draws on every
platform, and distinct streams are independent by construction. The engine's
one-shot draws (`sample_without_replacement`, `uniform_integers`) re-key one
Philox per thread to the stream's initial state instead of building a
generator: a Philox stream is a pure function of its key and counter, so the
draws are those of a fresh `Rng.generator()`, without the build, which first
seeds a SeedSequence from OS entropy and costs many re-keys. Where values
must be drawn one by one in any order, `counter_normals` hashes a counter
instead of advancing a generator.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Optional

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
    stream-id derivation, hash-seeded noise and `counter_normals`.
    """
    if isinstance(x, np.ndarray):
        # in place after the first add: one fresh array, not nine
        z = x + np.uint64(_GOLDEN)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX_A)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
        return z
    z = (x + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


# mix64(index + 1), the part of a child's stream id that depends on its
# index alone, for the small indices every task's streams take again
_INDEX_HASH = tuple(mix64(index + 1) for index in range(64))


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
        """A fresh generator at the stream's start, independent of any other."""
        key = ((self.seed & _MASK64) << 64) | (self.stream & _MASK64)
        return np.random.Generator(np.random.Philox(key=key))

    def child(self, index: int) -> "Rng":
        if index < 0:
            raise ContractError(f"child index must be >= 0, got {index}")
        hashed = _INDEX_HASH[index] if index < len(_INDEX_HASH) else mix64(index + 1)
        derived = mix64((self.stream & _MASK64) ^ hashed)
        return Rng(self.seed, derived)

    @property
    def key(self) -> int:
        """(seed, stream) folded into one 64-bit key for `counter_normals`."""
        return mix64(mix64(self.seed & _MASK64) ^ (self.stream & _MASK64))


# One Philox and its Generator per thread, built by the thread's first draw
# rather than at import, which would load numpy.random before it is used.
_STREAM = threading.local()


def _stream_start(rng: Rng) -> np.random.Generator:
    """This thread's generator, set to the state `Philox(key=(seed << 64) |
    stream)` starts in: counter 0, key words (stream, seed), empty buffer.
    Its draws equal `rng.generator()`'s until the next call on this thread."""
    try:
        bits, generator = _STREAM.bits, _STREAM.generator
    except AttributeError:
        bits = _STREAM.bits = np.random.Philox()
        generator = _STREAM.generator = np.random.Generator(bits)
    bits.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (rng.stream & _MASK64, rng.seed & _MASK64)},
        "buffer": (0, 0, 0, 0),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return generator


# Box-Muller angles come from a grid of 2^12 per turn, read from tables: a
# table read costs a fraction of a cos and a sin, and on this grid every
# moment of (cos, sin) below order 4096 equals that of the continuous circle.
_ANGLE_BITS = 12
_TURN = 2.0 * math.pi * np.arange(1 << _ANGLE_BITS) / (1 << _ANGLE_BITS)
_COS, _SIN = np.cos(_TURN), np.sin(_TURN)


def counter_normals(key: int, counter: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two standard-normal arrays shaped like `counter`, each entry a pure
    function of (key, counter), so any subset of counters can be read in any
    order and reads the same values.

    Entry c is Box-Muller on the splitmix64 word w = mix64(key + c * golden),
    output c + 1 of the splitmix64 generator seeded by `key`: the high 32
    bits of w set the radius, the low 12 bits the angle, on the grid above.
    The pinned-digest test in tests/test_toymodel.py fails if the stream
    changes.
    """
    state = np.asarray(counter, dtype=np.uint64) * np.uint64(_GOLDEN)
    state += np.uint64(key & _MASK64)
    words = mix64(state)
    # (high + 1/2) / 2^32 lies in (0, 1), so the log is finite
    radius = (words >> np.uint64(32)).astype(np.float64)
    radius += 0.5
    radius *= 2.0**-32
    np.log(radius, out=radius)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = words & np.uint64((1 << _ANGLE_BITS) - 1)
    return radius * _COS[angle], radius * _SIN[angle]


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


def layer_norm(
    x: np.ndarray,
    eps: float = 1e-5,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Normalize the last axis to zero mean / unit variance (no affine).

    Means are `np.add.reduce` over the last axis divided by its width, as
    `np.mean` computes them, without `np.mean`'s Python wrapper. `out` and
    `work`, if given, are float64 arrays of x's shape that take the result
    and the squared deviations in place of new arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    width = x.shape[-1]
    centred = np.subtract(x, np.add.reduce(x, axis=-1, keepdims=True) / width, out=out)
    var = np.add.reduce(np.multiply(centred, centred, out=work), axis=-1, keepdims=True) / width
    centred /= np.sqrt(var + eps)
    return centred


def sample_without_replacement(population: int, take: int, rng: Rng) -> np.ndarray:
    """Uniform `take`-subset of [0, population), returned ascending.

    One `Generator.choice(..., replace=False, shuffle=False)` call at the
    stream's start: numpy's partial Fisher-Yates (it shuffles the last
    `take` slots of the population in C), or Floyd's algorithm for a small
    `take`, then sorted. Every subset of size `take` is equiprobable. The
    whole population is `arange`, with no draw: each draw starts its stream
    afresh, so skipping one moves no other. The draw follows numpy's
    `choice`, so the pinned-output test in tests/test_numkernel.py fails if
    a numpy release changes it.
    """
    if population < 0 or take < 0 or take > population:
        raise ContractError(
            f"need 0 <= take <= population, got take={take}, population={population}"
        )
    if take == population:
        return np.arange(population, dtype=np.int64)
    out = _stream_start(rng).choice(population, take, replace=False, shuffle=False)
    out.sort()
    return out


def uniform_integers(high: int, size: int, rng: Rng) -> np.ndarray:
    """`size` integers uniform on [0, high): `rng.generator().integers(0,
    high, size)`, drawn at the stream's start."""
    return _stream_start(rng).integers(0, high, size)
