"""Numeric substrate tests: oracle comparisons, contract errors, rng pinning."""

import hashlib
import math
import sys
import threading
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from t3s import numkernel
from t3s.aggregator import _row_entropies
from t3s.errors import ContractError, ShapeError
from t3s.numkernel import (
    Rng,
    layer_norm,
    mix64,
    sample_without_replacement,
    softmax_rows,
    uniform_integers,
)


class TestSoftmaxRows:
    def test_constant_row_is_uniform(self):
        out = softmax_rows(np.array([[0.0, 0.0, 0.0]]))
        assert np.abs(out - 1.0 / 3.0).max() < 1e-15

    def test_large_gap_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.isfinite(out).all()
        assert abs(out[0, 0] - 1.0) < 1e-12
        assert out[0, 1] < 1e-12

    def test_random_row_vs_extended_precision_oracle(self):
        g = Rng(5).generator()
        row = g.standard_normal(16) * 3.0
        out = softmax_rows(row[None, :])[0]
        mp.dps = 50
        exps = [mp.exp(mp.mpf(float(v))) for v in row]
        total = sum(exps)
        oracle = np.array([float(e / total) for e in exps])
        assert np.abs(out - oracle).max() < 1e-12

    @given(st.integers(0, 2**32), st.floats(-50.0, 50.0))
    @settings(max_examples=40, deadline=None)
    def test_rows_sum_to_one_and_shift_invariant(self, seed, shift):
        g = Rng(seed).generator()
        m = g.standard_normal((3, 7))
        out = softmax_rows(m)
        assert np.abs(out.sum(axis=1) - 1.0).max() < 1e-12
        assert (out >= 0.0).all()
        shifted = softmax_rows(m + shift)
        assert np.abs(out - shifted).max() < 1e-12


def entropy(dist):
    """`_row_entropies` of `dist` as a one-row matrix."""
    return _row_entropies(np.array([dist], dtype=np.float64))[0]


class TestEntropy:
    def test_uniform_is_log_d(self):
        assert abs(entropy(np.full(8, 0.125)) - math.log(8)) < 1e-12

    def test_one_hot_is_zero(self):
        assert entropy([0.0, 1.0, 0.0]) == 0.0

    def test_half_quarter_quarter(self):
        # -sum(p ln p) evaluated directly: 1.5 * ln 2
        p = [0.5, 0.25, 0.25]
        oracle = -math.fsum(v * math.log(v) for v in p)
        got = entropy(p)
        assert abs(got - oracle) < 1e-12
        assert abs(got - 1.0397207708399179) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ContractError):
            entropy([0.5, 0.6])

    def test_rejects_negative(self):
        with pytest.raises(ContractError):
            entropy([1.2, -0.2])

    @given(st.integers(0, 2**32), st.integers(2, 32))
    @settings(max_examples=40, deadline=None)
    def test_non_negative_and_bounded(self, seed, d):
        g = Rng(seed).generator()
        p = g.random(d)
        p /= p.sum()
        h = entropy(p)
        assert 0.0 <= h <= math.log(d) + 1e-12


class TestLayerNorm:
    def test_zero_mean_unit_scale(self):
        g = Rng(2).generator()
        x = g.standard_normal((5, 32)) * 4.0 + 2.0
        out = layer_norm(x)
        assert np.abs(out.mean(axis=-1)).max() < 1e-12
        assert np.abs(out.std(axis=-1) - 1.0).max() < 1e-3

    @pytest.mark.parametrize("shape", [(5, 32), (2052, 64)])
    def test_matches_two_pass_formula(self, shape):
        x = Rng(3).generator().standard_normal(shape) * 4.0 + 2.0
        before = x.copy()
        mean = x.mean(axis=-1, keepdims=True)
        var = ((x - mean) ** 2).mean(axis=-1, keepdims=True)
        expected = (x - mean) / np.sqrt(var + 1e-5)
        assert np.abs(layer_norm(x) - expected).max() <= 1e-12
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("shape", [(1, 64), (8, 64), (440, 64), (2052, 64), (3, 7), (5, 1)])
    def test_bit_equal_to_np_mean_formula(self, shape):
        # the formula before `np.mean` was replaced by `np.add.reduce`, with
        # new arrays and with `out` and `work` buffers
        g = Rng(4).generator()
        for _ in range(50):
            x = g.standard_normal(shape) * 4.0 + 2.0
            centred = x - x.mean(axis=-1, keepdims=True)
            centred /= np.sqrt(np.mean(centred * centred, axis=-1, keepdims=True) + 1e-5)
            assert np.array_equal(layer_norm(x), centred)
            out, work = np.empty_like(x), np.empty_like(x)
            assert layer_norm(x, out=out, work=work) is out
            assert np.array_equal(out, centred)


class TestSampleWithoutReplacement:
    def test_full_sample(self):
        out = sample_without_replacement(5, 5, Rng(1))
        assert np.array_equal(out, np.arange(5))

    @pytest.mark.parametrize("population", [1, 5, 1024])
    def test_full_sample_is_the_sorted_draw(self, population):
        # the whole population skips the draw; the subset it would have
        # drawn, sorted, is the same array
        for rng in (Rng(1), Rng(9, 2**63), Rng(3).child(population)):
            drawn = rng.generator().choice(population, population, replace=False, shuffle=False)
            drawn.sort()
            out = sample_without_replacement(population, population, rng)
            assert out.dtype == drawn.dtype and np.array_equal(out, drawn)

    def test_empty_sample(self):
        assert len(sample_without_replacement(9, 0, Rng(1))) == 0

    def test_take_exceeds_population(self):
        with pytest.raises(ContractError):
            sample_without_replacement(3, 4, Rng(1))

    def test_pair_frequencies_uniform(self):
        # population=4, take=2: each of the 6 pairs should appear 1/6 +- 3 sigma
        draws = 100_000
        root = Rng(2024)
        counts = {pair: 0 for pair in combinations(range(4), 2)}
        for i in range(draws):
            out = sample_without_replacement(4, 2, root.child(i))
            counts[(int(out[0]), int(out[1]))] += 1
        p = 1.0 / 6.0
        sigma = math.sqrt(p * (1 - p) / draws)
        for pair, c in counts.items():
            assert abs(c / draws - p) < 3 * sigma, (pair, c / draws)

    @given(st.integers(0, 2**32), st.integers(0, 40), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_sorted_distinct_in_range(self, seed, population, take):
        take = min(take, population)
        out = sample_without_replacement(population, take, Rng(seed))
        assert len(out) == take
        if take:
            assert out[0] >= 0 and out[-1] < population
            assert (np.diff(out) > 0).all()

    @pytest.mark.parametrize(
        "population, take, digest",
        [
            (10, 4, "6d697775d66e2891"),
            (40, 7, "5d40eefab85754af"),
            (256, 64, "fc6343dbcac45f35"),
            (1024, 512, "32e5445185f5aac5"),
            (20000, 16, "3d7b592671e12207"),
        ],
    )
    def test_pinned_draws(self, population, take, digest):
        # freezes the subsets drawn from key (seed=42, stream of child(population));
        # the draw is numpy's Generator.choice, so a numpy release that changes
        # it fails here instead of silently changing seeded run outputs
        out = sample_without_replacement(population, take, Rng(42).child(population))
        got = hashlib.sha256(out.astype("<i8").tobytes()).hexdigest()[:16]
        assert got == digest, out[:8]


KEY_WORDS = (0, 2**63, 2**64 - 1)


def fresh_choice(rng, population, take):
    return rng.generator().choice(population, take, replace=False, shuffle=False)


class TestReKeyedDraws:
    """The one-shot draws re-key one Philox per thread; each must equal the
    same draw from a fresh `Rng.generator()`."""

    @pytest.mark.parametrize("population, take", [(256, 64), (1024, 512), (20000, 16)])
    def test_choice_matches_fresh_generator(self, population, take):
        # (20000, 16) takes numpy's Floyd path, the others its Fisher-Yates
        for seed, stream in product(KEY_WORDS, KEY_WORDS):
            rng = Rng(seed, stream)
            fresh = fresh_choice(rng, population, take)
            got = numkernel._stream_start(rng).choice(population, take, replace=False, shuffle=False)
            assert np.array_equal(got, fresh)
            assert np.array_equal(sample_without_replacement(population, take, rng), np.sort(fresh))

    def test_integers_match_fresh_generator(self):
        for seed, stream in product(KEY_WORDS, KEY_WORDS):
            rng = Rng(seed, stream)
            for high, size in ((64, 4), (2**32, 5), (2**62, 3)):
                expected = rng.generator().integers(0, high, size)
                assert np.array_equal(uniform_integers(high, size, rng), expected)

    def test_interleaved_streams(self):
        a, b = Rng(5, 1), Rng(5, 2)
        draws = [uniform_integers(1000, 6, r) for r in (a, b, a)]
        assert np.array_equal(draws[0], a.generator().integers(0, 1000, 6))
        assert np.array_equal(draws[1], b.generator().integers(0, 1000, 6))
        assert np.array_equal(draws[2], draws[0])

    def test_buffered_word_does_not_leak(self):
        # an odd number of 32-bit draws leaves half a 64-bit word buffered;
        # the next re-key must drop it. Over [0, 2**32) each value is one
        # raw 32-bit word, which no rejection step can hide
        numkernel._stream_start(Rng(1)).integers(0, 2**32, 3)
        assert numkernel._STREAM.bits.state["has_uint32"] == 1
        rng = Rng(2, 7)
        expected = rng.generator().integers(0, 2**32, 4)
        assert np.array_equal(uniform_integers(2**32, 4, rng), expected)
        numkernel._stream_start(Rng(1)).integers(0, 2**32, 3)
        assert np.array_equal(
            sample_without_replacement(256, 64, rng), np.sort(fresh_choice(rng, 256, 64))
        )

    def test_concurrent_threads_match_serial(self):
        # more threads than cores, switching often: a shared generator
        # re-keyed by one thread between another's re-key and draw would
        # change that thread's draws
        rngs = [Rng(11).child(i) for i in range(200)]

        def draws():
            return [
                (sample_without_replacement(1024, 100, r), uniform_integers(64, 5, r))
                for r in rngs
            ]

        serial = draws()
        start = threading.Barrier(4)
        results = [None] * 4

        def worker(k):
            start.wait(timeout=60)
            results[k] = draws()

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert all(
                np.array_equal(f, g) and np.array_equal(q, r)
                for (f, q), (g, r) in zip(got, serial)
            )
        expected = [np.sort(fresh_choice(r, 1024, 100)) for r in rngs]
        assert all(np.array_equal(f, e) for (f, _), e in zip(serial, expected))


class TestRng:
    def test_same_key_bit_identical(self):
        a = sample_without_replacement(1000, 50, Rng(7, 3))
        b = sample_without_replacement(1000, 50, Rng(7, 3))
        assert np.array_equal(a, b)

    def test_child_streams_distinct(self):
        r = Rng(7)
        kids = [r.child(i) for i in range(8)]
        assert len({k.stream for k in kids}) == 8
        draws = {tuple(k.generator().integers(0, 2**62, 4)) for k in kids}
        assert len(draws) == 8

    def test_pinned_sequence(self):
        # freezes the Philox output for key (seed=42, stream derived by child(1));
        # guards cross-platform / cross-version drift
        g = Rng(42).child(1).generator()
        got = [int(v) for v in g.integers(0, 2**32, 4)]
        assert got == [1841365776, 720829166, 2750249479, 4119444810]

    def test_mix64_array_matches_int_and_keeps_input(self):
        # the array path works in place on its own copy, never on the input
        x = np.array([0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15], dtype=np.uint64)
        before = x.copy()
        got = mix64(x)
        assert np.array_equal(x, before)
        assert [int(v) for v in got] == [mix64(int(v)) for v in before]

    def test_negative_child_index_rejected(self):
        with pytest.raises(ContractError):
            Rng(1).child(-1)
