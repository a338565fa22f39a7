"""Sampling-plan tests: stride formulas, retention lengths, MC frequencies."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from t3s.errors import ConfigError, ContractError
from t3s.numkernel import Rng
from t3s.sampler import (
    FrameMethod,
    SamplerConfig,
    TokenStrategy,
    build_trial_plans,
    closed_form_coverage,
    kept_tokens,
    sample_frame_indices,
    subsample_tokens,
)

from helpers import check_plan


class TestFrameSampling:
    def test_uniform_stride(self):
        out = sample_frame_indices(10, 5, FrameMethod.UNIFORM, Rng(0))
        assert np.array_equal(out, [0, 2, 4, 6, 8])

    def test_uniform_ignores_rng(self):
        a = sample_frame_indices(17, 6, FrameMethod.UNIFORM, Rng(1))
        b = sample_frame_indices(17, 6, FrameMethod.UNIFORM, Rng(999, 5))
        assert np.array_equal(a, b)

    def test_random_full_population(self):
        out = sample_frame_indices(8, 8, FrameMethod.RANDOM, Rng(3))
        assert np.array_equal(out, np.arange(8))

    def test_take_exceeds_frames(self):
        with pytest.raises(ContractError):
            sample_frame_indices(4, 5, FrameMethod.RANDOM, Rng(0))

    def test_inclusion_frequency(self):
        # P(frame 7 sampled) = N/F = 0.25 within 3 sigma over 50k draws
        draws = 50_000
        root = Rng(77)
        hits = sum(
            7 in sample_frame_indices(100, 25, FrameMethod.RANDOM, root.child(i))
            for i in range(draws)
        )
        p = 0.25
        sigma = math.sqrt(p * (1 - p) / draws)
        assert abs(hits / draws - p) < 3 * sigma


class TestTokenSubsampling:
    def test_alpha_one_keeps_everything(self):
        out = subsample_tokens(12, 3, 1.0, TokenStrategy.RAND_TOK, Rng(0))
        assert np.array_equal(out, np.arange(12))

    def test_floor_length(self):
        out = subsample_tokens(7, 1, 0.5, TokenStrategy.RAND_TOK, Rng(0))
        assert len(out) == 3

    def test_floor_is_exact_for_decimal_ratios(self):
        # the float product 0.29 * 100 is 28.999999999999996
        assert kept_tokens(0.29, 100) == 29
        out = subsample_tokens(100, 10, 0.29, TokenStrategy.RAND_TOK, Rng(0))
        assert len(out) == 29
        cfg = SamplerConfig(
            total_frames=10, frames_per_trial=10, tokens_per_frame=10,
            trials=1, ratios=(0.29,),
        )
        (plan,) = build_trial_plans(cfg, Rng(0))  # validates the length
        assert len(plan.token_keep) == 29

    @given(st.integers(1, 100), st.integers(1, 4096))
    @settings(max_examples=300, deadline=None)
    def test_kept_tokens_matches_rational_floor(self, percent, length):
        alpha = percent / 100
        assert kept_tokens(alpha, length) == math.floor(Fraction(percent, 100) * length)

    def test_uni_tok_stride(self):
        out = subsample_tokens(12, 3, 0.5, TokenStrategy.UNI_TOK, Rng(0))
        assert np.array_equal(out, [0, 2, 4, 6, 8, 10])

    def test_rand_frm_whole_blocks(self):
        out = subsample_tokens(12, 3, 0.5, TokenStrategy.RAND_FRM, Rng(4))
        assert len(out) == 6
        # kept indices partition into whole blocks of 3
        blocks = out.reshape(2, 3)
        for block in blocks:
            assert block[0] % 3 == 0
            assert np.array_equal(block, block[0] + np.arange(3))

    def test_rand_frm_truncates_last_block(self):
        # N=3, M=4, alpha=0.5 -> keep 6 of 12: one whole block + 2 of another
        out = subsample_tokens(12, 4, 0.5, TokenStrategy.RAND_FRM, Rng(9))
        assert len(out) == 6
        assert (np.diff(out) > 0).all()
        owners = np.unique(out // 4)
        assert len(owners) == 2
        counts = [(out // 4 == f).sum() for f in owners]
        assert sorted(counts) == [2, 4]
        # the truncated block is the last one in ascending order
        assert (out // 4 == owners[-1]).sum() == 2

    def test_attn_top_matches_sort_oracle(self):
        g = Rng(12).generator()
        scores = g.standard_normal(24)
        out = subsample_tokens(24, 4, 0.25, TokenStrategy.ATTN_TOP, Rng(0), scores)
        oracle = sorted(
            sorted(range(24), key=lambda i: (-scores[i], i))[:6]
        )
        assert np.array_equal(out, oracle)

    def test_attn_top_tie_breaks_to_lower_index(self):
        scores = np.array([1.0, 5.0, 5.0, 5.0, 0.0, 0.0])
        out = subsample_tokens(6, 2, 0.5, TokenStrategy.ATTN_TOP, Rng(0), scores)
        assert np.array_equal(out, [1, 2, 3])

    def test_attn_top_needs_scores(self):
        with pytest.raises(ContractError):
            subsample_tokens(8, 2, 0.5, TokenStrategy.ATTN_TOP, Rng(0))

    def test_alpha_out_of_range(self):
        for alpha in (0.0, -0.1, 1.5):
            with pytest.raises(ContractError):
                subsample_tokens(8, 2, alpha, TokenStrategy.RAND_TOK, Rng(0))


class TestBuildTrialPlans:
    def test_single_trial_full_retention(self):
        cfg = SamplerConfig(
            total_frames=10,
            frames_per_trial=4,
            tokens_per_frame=3,
            trials=1,
            ratios=(1.0,),
        )
        rng = Rng(5)
        plans = build_trial_plans(cfg, rng)
        assert len(plans) == 1
        expected_frames = sample_frame_indices(10, 4, FrameMethod.RANDOM, rng.child(0))
        assert np.array_equal(plans[0].frame_indices, expected_frames)
        assert np.array_equal(plans[0].token_keep, np.arange(12))

    def test_reuse_frames_shares_frames_not_tokens(self):
        cfg = SamplerConfig(
            total_frames=32,
            frames_per_trial=8,
            tokens_per_frame=4,
            trials=2,
            ratios=(0.5, 0.5),
            reuse_frames=True,
        )
        plans = build_trial_plans(cfg, Rng(21))
        assert np.array_equal(plans[0].frame_indices, plans[1].frame_indices)
        assert not np.array_equal(plans[0].token_keep, plans[1].token_keep)

    def test_reference_ratios_lengths(self):
        # N=256, M=16, ratios (0.5, 0.3): kept lengths floor to 2048 and 1228
        cfg = SamplerConfig(
            total_frames=512,
            frames_per_trial=256,
            tokens_per_frame=16,
            trials=2,
            ratios=(0.5, 0.3),
        )
        plans = build_trial_plans(cfg, Rng(8))
        assert len(plans[0].token_keep) == int(0.5 * 4096)
        assert len(plans[1].token_keep) == int(0.3 * 4096)

    def test_schedule_independence(self):
        cfg = SamplerConfig(
            total_frames=16,
            frames_per_trial=4,
            tokens_per_frame=2,
            trials=3,
            ratios=(0.5, 0.5, 0.5),
        )
        a = build_trial_plans(cfg, Rng(3))
        b = build_trial_plans(cfg, Rng(3))
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.frame_indices, pb.frame_indices)
            assert np.array_equal(pa.token_keep, pb.token_keep)

    @pytest.mark.parametrize("reuse", [False, True])
    @pytest.mark.parametrize("strategy", [TokenStrategy.RAND_TOK, TokenStrategy.RAND_FRM])
    def test_trial_streams_nest_across_m(self, strategy, reuse):
        # criterion 4's m-sweep relies on this: with m + 1 trials and the same
        # ratio prefix, trials 0..m-1 are exactly the m-trial plans
        ratios = (0.5, 0.3, 0.7, 0.25, 0.6)

        def plans(m):
            cfg = SamplerConfig(
                total_frames=40,
                frames_per_trial=10,
                tokens_per_frame=4,
                trials=m,
                ratios=ratios[:m],
                token_strategy=strategy,
                reuse_frames=reuse,
            )
            return build_trial_plans(cfg, Rng(17))

        for m in range(1, len(ratios)):
            for a, b in zip(plans(m), plans(m + 1)[:m], strict=True):
                assert np.array_equal(a.frame_indices, b.frame_indices)
                assert np.array_equal(a.token_keep, b.token_keep)

    def test_attn_top_requires_provider(self):
        cfg = SamplerConfig(
            total_frames=8,
            frames_per_trial=2,
            tokens_per_frame=2,
            trials=1,
            ratios=(0.5,),
            token_strategy=TokenStrategy.ATTN_TOP,
        )
        with pytest.raises(ContractError):
            build_trial_plans(cfg, Rng(0))

    @given(
        st.integers(0, 2**32),
        st.integers(1, 64),
        st.integers(1, 8),
        st.integers(1, 4),
        st.sampled_from(list(FrameMethod)),
        st.sampled_from(list(TokenStrategy)),
        st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_plan_invariants_random_sweep(
        self, seed, total_frames, tokens_per_frame, trials, method, strategy, reuse
    ):
        g = Rng(seed).generator()
        frames_per_trial = int(g.integers(1, total_frames + 1))
        ratios = tuple(float(r) for r in g.uniform(0.05, 1.0, trials))
        cfg = SamplerConfig(
            total_frames=total_frames,
            frames_per_trial=frames_per_trial,
            tokens_per_frame=tokens_per_frame,
            trials=trials,
            ratios=ratios,
            frame_method=method,
            token_strategy=strategy,
            reuse_frames=reuse,
        )
        # ATTN_TOP reads these seeded scores; small integers make ties common
        score_gen = Rng(seed, 2).generator()
        plans = build_trial_plans(
            cfg,
            Rng(seed, 1),
            attn_scores_fn=lambda frames: score_gen.integers(
                0, 4, len(frames) * tokens_per_frame
            ).astype(np.float64),
        )
        for plan in plans:
            check_plan(plan, cfg)
        if reuse:
            for plan in plans[1:]:
                assert np.array_equal(plan.frame_indices, plans[0].frame_indices)


class TestClosedFormCoverage:
    def test_full_sampling_is_certain(self):
        assert closed_form_coverage(64, 64, 3) == 1.0

    def test_single_trial_inclusion(self):
        assert closed_form_coverage(100, 25, 1) == 0.25

    def test_reference_point(self):
        assert abs(closed_form_coverage(100, 25, 2) - 0.4375) < 1e-15

    def test_monotone_in_trials(self):
        vals = [closed_form_coverage(100, 25, m) for m in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestSamplerConfigValidation:
    def test_too_many_frames_per_trial(self):
        with pytest.raises(ConfigError):
            SamplerConfig(
                total_frames=4,
                frames_per_trial=5,
                tokens_per_frame=1,
                trials=1,
                ratios=(1.0,),
            )

    def test_ratio_count_mismatch(self):
        with pytest.raises(ConfigError):
            SamplerConfig(
                total_frames=4,
                frames_per_trial=2,
                tokens_per_frame=1,
                trials=2,
                ratios=(1.0,),
            )

    def test_ratio_out_of_range(self):
        with pytest.raises(ConfigError):
            SamplerConfig(
                total_frames=4,
                frames_per_trial=2,
                tokens_per_frame=1,
                trials=1,
                ratios=(0.0,),
            )
