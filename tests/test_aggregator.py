"""Aggregation tests: brute-force references, tie-breaks, permutation behavior,
and the decode loop's reductions."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from t3s.aggregator import (
    ConfidenceWeighted,
    CrossRefine,
    MeanLogits,
    _fused,
    _row_entropies,
    confidence_weighted,
    cross_refine,
    decode,
    fuse_token,
    fuse_tokens,
    mean_logits,
)
from t3s.errors import ConfigError, ContractError
from t3s.harness import gen_task
from t3s.numkernel import Rng, softmax_rows
from t3s.packer import pack
from t3s.sampler import SamplerConfig, TrialPlan, build_trial_plans
from t3s.toymodel import ModelConfig, NeedleProbe, VideoTokenStream, build_model, needle_answer

from helpers import baseline_greedy_decode, entropy, fusion_oracle, recompute_decode

# ---------------------------------------------------------------------------
# Brute-force references (pure-Python, loop-based)


def brute_mean(o):
    m, d = len(o), len(o[0])
    fused = [sum(o[i][j] for i in range(m)) / m for j in range(d)]
    return fused, max(range(d), key=lambda j: fused[j])  # max() keeps lowest index


def brute_confidence(o, floor):
    m, d = len(o), len(o[0])
    hs = []
    for row in o:
        top = max(row)
        exps = [math.exp(v - top) for v in row]
        z = sum(exps)
        probs = [e / z for e in exps]
        hs.append(-sum(p * math.log(p) for p in probs if p > 0))
    inv = [1.0 / max(h, floor) for h in hs]
    total = sum(inv)
    weights = [v / total for v in inv]
    fused = [sum(weights[i] * o[i][j] for i in range(m)) for j in range(d)]
    return fused, max(range(d), key=lambda j: fused[j])


def brute_cross(o1, o2, k):
    d = len(o1)
    candidates = sorted(range(d), key=lambda j: (-o1[j], j))[:k]
    best_val, best_id = -math.inf, None
    for t in sorted(candidates):
        if o2[t] > best_val:
            best_val, best_id = o2[t], t
    return best_id


def lattice_logits(g, m, d):
    """Logits on a quarter-integer lattice: sums are exact, ties are common."""
    return g.integers(-8, 9, (m, d)).astype(np.float64) * 0.25


class TestMeanLogits:
    def test_single_trial_identity(self):
        o = np.array([[0.3, -1.0, 2.0]])
        fused, t = mean_logits(o)
        assert np.array_equal(fused, o[0])
        assert t == 2

    def test_opposite_pair_cancels_to_tie(self):
        o1 = np.array([1.5, -2.0, 0.25])
        fused, t = mean_logits(np.stack([o1, -o1]))
        assert np.array_equal(fused, np.zeros(3))
        assert t == 0  # lowest id wins the all-way tie

    def test_random_vs_elementwise_oracle(self):
        g = Rng(1).generator()
        o = g.standard_normal((3, 16))
        fused, t = mean_logits(o)
        bf, bt = brute_mean(o.tolist())
        assert np.abs(fused - np.array(bf)).max() < 1e-12
        assert t == bt

    def test_lattice_exact_with_tie_breaks(self):
        g = Rng(2).generator()
        for _ in range(300):
            o = lattice_logits(g, int(g.integers(1, 5)), 8)
            fused, t = mean_logits(o)
            bf, bt = brute_mean(o.tolist())
            assert np.array_equal(fused, np.array(bf))
            assert t == bt


class TestConfidenceWeighted:
    def test_identical_trials_equal_weights(self):
        row = np.array([0.5, 2.0, -1.0, 0.0])
        o = np.stack([row, row, row])
        fused, t = confidence_weighted(o)
        assert np.abs(fused - row).max() < 1e-12
        assert t == 1

    def test_single_trial_identity(self):
        row = np.array([0.1, 0.9])
        fused, t = confidence_weighted(row[None, :])
        assert np.abs(fused - row).max() < 1e-12
        assert t == 1

    def test_sharp_trial_dominates_uniform_trial(self):
        d = 8
        sharp = np.zeros(d)
        sharp[5] = 50.0  # near one-hot: entropy hits the floor
        flat = np.linspace(0.0, 0.001, d)  # near uniform, max entropy
        fused, t = confidence_weighted(np.stack([sharp, flat]))
        assert t == 5
        assert np.abs(fused - sharp).max() < 1e-3

    def test_random_vs_oracle(self):
        g = Rng(3).generator()
        for _ in range(100):
            m = int(g.integers(1, 5))
            o = g.standard_normal((m, 12)) * 2.0
            fused, t = confidence_weighted(o)
            bf, bt = brute_confidence(o.tolist(), 1e-8)
            assert np.abs(fused - np.array(bf)).max() < 1e-9
            assert t == bt

    def test_matches_per_row_entropy(self):
        # the rule with the reference `entropy` called row by row: bit-equal
        # while every probability is > 0; where some underflow to 0 the zero
        # terms move the others within numpy's pairwise sum, so entropies
        # agree to 1e-15
        def per_row(o):
            h = np.array([entropy(row) for row in softmax_rows(o)])
            inv = 1.0 / np.maximum(h, 1e-8)
            weights = inv / np.add.reduce(np.sort(inv))
            return np.add.reduce(np.sort(weights[:, None] * o, axis=0), axis=0)

        g = Rng(6).generator()
        for _ in range(200):
            o = g.standard_normal((8, 64)) * 3.0
            assert np.array_equal(confidence_weighted(o)[0], per_row(o))
        for _ in range(50):
            o = g.standard_normal((8, 64)) * 3.0
            o[:, ::3] -= 800.0
            probs = softmax_rows(o)
            assert (probs == 0.0).any()
            want = np.array([entropy(row) for row in probs])
            assert np.abs(_row_entropies(probs) - want).max() <= 1e-15

    def test_row_checks(self):
        # the reference `entropy`'s checks, row by row
        with pytest.raises(ContractError, match="negative probability"):
            _row_entropies(np.array([[0.5, 0.5], [1.2, -0.2]]))
        with pytest.raises(ContractError, match="sum to 1.1"):
            _row_entropies(np.array([[0.5, 0.5], [0.5, 0.6]]))


class TestCrossRefine:
    def test_worked_example(self):
        # top-2 of trial 1 is {0, 1}; trial 2 prefers 1 inside that set
        assert cross_refine([2.0, 1.0, 0.5], [0.1, 5.0, 9.9], 2) == 1

    def test_k_equals_vocab_reduces_to_second_argmax(self):
        g = Rng(4).generator()
        for _ in range(50):
            o1, o2 = g.standard_normal(10), g.standard_normal(10)
            assert cross_refine(o1, o2, 10) == int(np.argmax(o2))

    def test_k_one_reduces_to_first_argmax(self):
        g = Rng(5).generator()
        for _ in range(50):
            o1, o2 = g.standard_normal(10), g.standard_normal(10)
            assert cross_refine(o1, o2, 1) == int(np.argmax(o1))

    def test_exhaustive_vs_brute_force(self):
        g = Rng(6).generator()
        for _ in range(300):
            d = int(g.integers(2, 12))
            o1 = lattice_logits(g, 1, d)[0]
            o2 = lattice_logits(g, 1, d)[0]
            k = int(g.integers(1, d + 1))
            assert cross_refine(o1, o2, k) == brute_cross(o1.tolist(), o2.tolist(), k)

    def test_self_consistency(self):
        g = Rng(7).generator()
        for _ in range(50):
            o = g.standard_normal(9)
            for k in (1, 3, 9):
                assert cross_refine(o, o, k) == int(np.argmax(o))

    def test_k_out_of_range(self):
        with pytest.raises(ContractError):
            cross_refine([1.0, 2.0], [0.0, 0.0], 3)
        with pytest.raises(ContractError):
            cross_refine([1.0, 2.0], [0.0, 0.0], 0)

    def test_non_finite_rejected(self):
        nan = float("nan")
        for first, second in (
            ([0.0, 1.0, 2.0, 3.0], [nan] * 4),
            ([nan, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
            ([0.0, 1.0], [np.inf, 0.0]),
        ):
            with pytest.raises(ContractError):
                cross_refine(first, second, 2)

    def test_asymmetry_witness(self):
        # documented counterexample: swapping the trials changes the winner
        o1 = np.array([3.0, 0.0, 0.0])
        o2 = np.array([0.0, 0.0, 3.0])
        assert cross_refine(o1, o2, 1) == 0
        assert cross_refine(o2, o1, 1) == 2


class TestPermutationBehavior:
    def test_mean_and_confidence_bit_invariant(self):
        g = Rng(8).generator()
        for _ in range(60):
            m = int(g.integers(2, 5))
            o = g.standard_normal((m, 10)) * 3.0
            perm = g.permutation(m)
            for fn in (mean_logits, confidence_weighted):
                a, ta = fn(o)
                b, tb = fn(o[perm])
                assert np.array_equal(a, b)
                assert ta == tb

    def test_cross_refine_not_permutation_invariant(self):
        o1 = np.array([3.0, 0.0, 0.0])
        o2 = np.array([0.0, 0.0, 3.0])
        assert cross_refine(o1, o2, 1) != cross_refine(o2, o1, 1)


class TestShiftInvariance:
    def test_all_strategies_ignore_common_offset(self):
        g = Rng(9).generator()
        for _ in range(60):
            o = lattice_logits(g, 2, 8)
            c = float(g.integers(-6, 7)) * 0.5  # exactly representable shifts
            shifted = o + c
            for strategy in (MeanLogits(), ConfidenceWeighted(), CrossRefine(3)):
                assert fuse_token(o, strategy) == fuse_token(shifted, strategy)


class TestFuseToken:
    def test_dispatch(self):
        o = np.array([[1.0, 5.0], [2.0, 0.0]])
        assert fuse_token(o, MeanLogits()) == 1
        assert fuse_token(o, CrossRefine(1)) == 1

    def test_cross_refine_needs_two_trials(self):
        with pytest.raises(ConfigError):
            fuse_token(np.zeros((3, 4)), CrossRefine(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ContractError):
            fuse_token(np.array([[np.inf, 0.0]]), MeanLogits())

    def test_zero_width_rejected(self):
        # (m, 0) logits hold no token to pick; every rule refuses them
        for strategy in (MeanLogits(), ConfidenceWeighted(), CrossRefine(1)):
            with pytest.raises(ContractError):
                fuse_token(np.zeros((2, 0)), strategy)
        for rule in (mean_logits, confidence_weighted):
            with pytest.raises(ContractError):
                rule(np.zeros((2, 0)))
        with pytest.raises(ContractError):
            cross_refine([], [], 1)


# quarter-integer lattice values, where sums are exact and ties common,
# mixed with arbitrary finite floats
VALUES = st.one_of(
    st.integers(-8, 8).map(lambda v: v * 0.25),
    st.floats(-60.0, 60.0, allow_nan=False, allow_infinity=False),
)


def blocks(trials):
    """(R, m, vocab) logits: R in 1-4, m from `trials`, vocab in 1-8."""
    shapes = st.tuples(st.integers(1, 4), trials, st.integers(1, 8))
    return shapes.flatmap(lambda shape: hnp.arrays(np.float64, shape, elements=VALUES))


class TestFuseTokens:
    """`fuse_tokens` over an (R, m, vocab) block against the per-vector
    rules applied to each (m, vocab) slice."""

    @settings(max_examples=300, deadline=None)
    @given(
        o=blocks(st.integers(1, 9)),
        strategy=st.sampled_from([MeanLogits(), ConfidenceWeighted()]),
    )
    def test_fused_rules_match_oracle_bit_for_bit(self, o, strategy):
        fused, tokens = _fused(o, strategy), fuse_tokens(o, strategy)
        assert tokens.shape == (len(o),)
        one_task = mean_logits if isinstance(strategy, MeanLogits) else confidence_weighted
        for r, task in enumerate(o):
            want_fused, want_token = fusion_oracle(task, strategy)
            assert fused[r].tobytes() == want_fused.tobytes()
            assert one_task(task)[0].tobytes() == want_fused.tobytes()
            assert tokens[r] == want_token == fuse_token(task, strategy)

    @settings(max_examples=300, deadline=None)
    @given(o=blocks(st.just(2)), data=st.data())
    def test_cross_refine_matches_oracle(self, o, data):
        strategy = CrossRefine(data.draw(st.integers(1, o.shape[2])))
        tokens = fuse_tokens(o, strategy)
        for r, task in enumerate(o):
            want = fusion_oracle(task, strategy)[1]
            assert tokens[r] == want == fuse_token(task, strategy)
            assert cross_refine(task[0], task[1], strategy.top_k) == want

    def test_errors_match_one_task(self):
        # each bad block raises what `fuse_token` raises on its bad slice
        finite = np.zeros((3, 2, 4))
        non_finite = finite.copy()
        non_finite[1, 0, 2] = np.nan
        cases = [
            (non_finite, MeanLogits(), ContractError),
            (non_finite, ConfidenceWeighted(), ContractError),
            (non_finite, CrossRefine(2), ContractError),
            (np.zeros((3, 3, 4)), CrossRefine(2), ConfigError),
            (finite, CrossRefine(5), ContractError),
            (np.zeros((3, 2, 0)), MeanLogits(), ContractError),
            (np.zeros((3, 0, 4)), MeanLogits(), ContractError),
        ]
        for block, strategy, error in cases:
            with pytest.raises(error):
                fuse_tokens(block, strategy)
            with pytest.raises(error):
                fuse_token(block[1], strategy)
        for strategy in (MeanLogits(), ConfidenceWeighted(), CrossRefine(1)):
            # one rank short: (m, vocab) for the block, (vocab,) for a task
            with pytest.raises(ContractError):
                fuse_tokens(finite[0], strategy)
            with pytest.raises(ContractError):
                fuse_token(finite[0, 0], strategy)


CFG = ModelConfig(layers=2, model_dim=16, heads=2, vocab=16, max_positions=2048, init_seed=5)


def _full_video(total_frames, tokens_per_frame, needles=frozenset(), seed=0):
    return VideoTokenStream(
        total_frames, tokens_per_frame, CFG.model_dim, Rng(seed).key, needles
    )


class TestDecode:
    def test_single_full_trial_equals_plain_greedy(self):
        video = _full_video(5, 3)
        model = build_model(CFG)
        plan = TrialPlan(np.arange(5, dtype=np.int64), np.arange(15, dtype=np.int64), 1.0)
        text = [1, 2, 3]
        for strategy in (MeanLogits(), ConfidenceWeighted()):
            got = decode(model, [plan], video, text, 4, strategy)
            want = baseline_greedy_decode(model, video, text, 4)
            assert got == want

    def test_duplicate_trials_match_single_trial(self):
        video = _full_video(6, 2)
        model = build_model(CFG)
        cfg = SamplerConfig(
            total_frames=6, frames_per_trial=4, tokens_per_frame=2,
            trials=1, ratios=(0.5,),
        )
        plan = build_trial_plans(cfg, Rng(11))[0]
        single = decode(model, [plan], video, [3], 3, MeanLogits())
        doubled = decode(model, [plan, plan], video, [3], 3, MeanLogits())
        assert single == doubled

    def test_probe_hit_iff_needle_survives(self):
        video = _full_video(4, 2, needles=frozenset({0}))
        probe = NeedleProbe(CFG.vocab, noise_scale=0.05)
        answer = needle_answer(video.key, CFG.vocab)
        with_needle = TrialPlan(np.array([0, 1]), np.arange(4, dtype=np.int64), 1.0)
        without = TrialPlan(np.array([2, 3]), np.arange(4, dtype=np.int64), 1.0)
        hit = decode(probe, [with_needle, without], video, [1], 1, MeanLogits())
        assert hit == [answer]
        miss = decode(probe, [without, without], video, [1], 1, MeanLogits())
        assert miss != [answer]

    def test_determinism(self):
        video = _full_video(6, 2)
        model = build_model(CFG)
        cfg = SamplerConfig(
            total_frames=6, frames_per_trial=4, tokens_per_frame=2,
            trials=2, ratios=(0.8, 0.6),
        )
        plans = build_trial_plans(cfg, Rng(13))
        a = decode(model, plans, video, [2, 4], 5, CrossRefine(2))
        b = decode(model, plans, video, [2, 4], 5, CrossRefine(2))
        assert a == b

    def test_cross_refine_wrong_trial_count(self):
        video = _full_video(3, 2)
        plan = TrialPlan(np.arange(3, dtype=np.int64), np.arange(6, dtype=np.int64), 1.0)
        with pytest.raises(ConfigError):
            decode(build_model(CFG), [plan], video, [1], 1, CrossRefine(2))

    def test_steps_must_be_positive(self):
        video = _full_video(3, 2)
        plan = TrialPlan(np.arange(3, dtype=np.int64), np.arange(6, dtype=np.int64), 1.0)
        with pytest.raises(ContractError):
            decode(build_model(CFG), [plan], video, [1], 0, MeanLogits())

    @pytest.mark.parametrize("backend_kind", ["transformer", "probe"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cached_matches_recompute(self, backend_kind, seed):
        # unequal segment lengths, some past several query chunks
        video = _full_video(60, 4, needles=frozenset({seed, 30 + seed}), seed=seed)
        cfg = SamplerConfig(
            total_frames=60, frames_per_trial=40, tokens_per_frame=4,
            trials=3, ratios=(0.9, 0.4, 0.05),
        )
        plans = build_trial_plans(cfg, Rng(seed))
        backend = (
            build_model(CFG) if backend_kind == "transformer"
            else NeedleProbe(CFG.vocab)
        )
        text = [seed + 1, 2]
        for strategy in (MeanLogits(), ConfidenceWeighted()):
            want = recompute_decode(backend, plans, video, text, 6, strategy)
            assert decode(backend, plans, video, text, 6, strategy) == want

    @pytest.mark.parametrize("seed", range(8))
    def test_short_trials_match_recompute(self, seed):
        # perfbench's decode_short_trials shape on its model: 8 trials at
        # alpha=0.1 over 32 of 256 frames, whose last layer runs 8 of 440
        # prompt rows; the tokens must be those of full forwards
        cfg = ModelConfig(layers=4, model_dim=64, heads=4, vocab=64, max_positions=16384)
        task = gen_task(256, 16, 1, seed, cfg)
        sampler = SamplerConfig(
            total_frames=256, frames_per_trial=32, tokens_per_frame=16,
            trials=8, ratios=(0.1,) * 8,
        )
        plans = build_trial_plans(sampler, Rng(seed))
        model = build_model(cfg)
        args = (model, plans, task.video, task.question, 4, ConfidenceWeighted())
        assert decode(*args) == recompute_decode(*args)

    def test_cache_sized_once(self):
        # decode's prompt call reserves the later steps' tokens, so every
        # step writes into the buffers the prompt call allocated, and the
        # cache ends exactly full: prompt + steps - 1 tokens per segment
        cfg = ModelConfig(layers=4, model_dim=64, heads=4, vocab=64, max_positions=16384)
        task = gen_task(256, 16, 1, 3, cfg)
        sampler = SamplerConfig(
            total_frames=256, frames_per_trial=32, tokens_per_frame=16,
            trials=8, ratios=(0.1,) * 8,
        )
        plans = build_trial_plans(sampler, Rng(3))
        model = build_model(cfg)
        seen = []
        last_logits = model.last_logits

        def recording(packed, cache=None):
            rows = last_logits(packed, cache)
            seen.append((list(cache.lengths), cache.state))
            return rows

        model.last_logits = recording
        steps = 4
        decode(model, plans, task.video, task.question, steps, ConfidenceWeighted())
        prompt = [s.length for s in pack(plans, task.video, task.question).segments]
        assert len(set(prompt)) == 1 and len(seen) == steps
        lengths, layers = seen[-1]
        assert lengths == [n + steps - 1 for n in prompt]
        for _, step_layers in seen:
            for first, layer in zip(seen[0][1], step_layers):
                assert layer.keys is first.keys and layer.values is first.values
                assert layer.keys.shape[3] == layer.values.shape[2] == prompt[0] + steps - 1

    def test_max_positions_at_same_step_as_recompute(self):
        video = _full_video(6, 2)
        plans = [
            TrialPlan(np.arange(6, dtype=np.int64), np.arange(12, dtype=np.int64), 1.0),
            TrialPlan(np.arange(3, dtype=np.int64), np.arange(5, dtype=np.int64), 1.0),
        ]
        prompt = (12 + 2) + (5 + 2)
        # room for exactly two appended tokens per segment
        model = build_model(dataclasses.replace(CFG, max_positions=prompt + 2 * 2 + 1))
        fits = decode(model, plans, video, [1, 2], 3, MeanLogits())
        assert fits == recompute_decode(model, plans, video, [1, 2], 3, MeanLogits())
        for run in (decode, recompute_decode):
            with pytest.raises(ContractError, match="max_positions"):
                run(model, plans, video, [1, 2], 4, MeanLogits())

    def test_steps_past_max_positions_refused_before_any_pass(self):
        # the cache reserves steps - 1 tokens per segment, so a step count
        # that max_positions cannot hold is refused before the prompt pass,
        # not met by an allocation of that many tokens
        video = _full_video(6, 2)
        plans = [TrialPlan(np.arange(6, dtype=np.int64), np.arange(12, dtype=np.int64), 1.0)]
        prompt, limit = 12 + 2, 64
        model = build_model(dataclasses.replace(CFG, max_positions=limit))
        calls, last_logits = [], model.last_logits

        def recording(packed, cache=None):
            calls.append(cache.reserve)
            return last_logits(packed, cache)

        model.last_logits = recording
        for steps in (10**12, 10**6, limit - prompt + 2):
            with pytest.raises(ContractError, match="max_positions"):
                decode(model, plans, video, [1, 2], steps, MeanLogits())
        assert calls == []
        decode(model, plans, video, [1, 2], limit - prompt + 1, MeanLogits())
        assert calls[0] == limit - prompt

    def test_empty_segment_rejected(self):
        # a trial that keeps no token would fuse another trial's logits
        video = _full_video(2, 2)
        cfg = SamplerConfig(
            total_frames=2, frames_per_trial=2, tokens_per_frame=2,
            trials=2, ratios=(0.1, 1.0),
        )
        plans = build_trial_plans(cfg, Rng(0))
        with pytest.raises(ContractError, match="trial 0"):
            decode(build_model(CFG), plans, video, [], 1, MeanLogits())
