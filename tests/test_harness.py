"""Harness tests: task generation, experiments, sweeps, coverage, config codec,
and the CLI surface."""

import csv
import json
import math
import os
import re
import threading
import tracemalloc
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import t3s
from t3s import numkernel
from t3s.aggregator import ConfidenceWeighted, CrossRefine, MeanLogits, decode
from t3s.errors import ConfigError, ContractError
from t3s.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    TaskParams,
    config_from_dict,
    _task_seed,
    config_hash,
    config_to_dict,
    coverage_report,
    default_experiment_config,
    gen_task,
    run_experiment,
    sweep,
)
from t3s.numkernel import Rng
from t3s.sampler import (
    FrameMethod,
    SamplerConfig,
    TokenStrategy,
    TrialPlan,
    build_trial_plans,
)
from t3s.toymodel import (
    ModelConfig,
    NeedleProbe,
    SeededTransformer,
    VideoTokenStream,
    build_model,
    needle_answer,
    worker_count,
)

from helpers import (
    baseline_greedy_decode,
    materialise,
    per_task_experiment,
    single_sequence,
    surviving_needle_tokens,
)

MODEL = ModelConfig(layers=2, model_dim=16, heads=2, vocab=64, max_positions=4096, init_seed=4)


def small_config(**overrides) -> ExperimentConfig:
    cfg = ExperimentConfig(
        sampler=SamplerConfig(
            total_frames=32,
            frames_per_trial=8,
            tokens_per_frame=4,
            trials=2,
            ratios=(1.0, 1.0),
        ),
        model=MODEL,
        strategy=MeanLogits(),
        task=TaskParams(needle_count=1, noise_scale=0.1, question_len=3),
        repeats=300,
        seed=7,
    )
    return replace(cfg, **overrides) if overrides else cfg


class TestGenTask:
    def test_same_seed_identical(self):
        a = gen_task(16, 2, 2, seed=42, model=MODEL)
        b = gen_task(16, 2, 2, seed=42, model=MODEL)
        assert a.needle_frames == b.needle_frames
        assert a.question == b.question
        assert a.answer == b.answer
        assert a.video == b.video
        assert np.array_equal(materialise(a.video), materialise(b.video))

    def test_answer_avoids_tie_break_winner(self):
        for seed in range(40):
            task = gen_task(8, 2, 1, seed=seed, model=MODEL)
            assert 1 <= task.answer < MODEL.vocab
            assert task.answer == needle_answer(task.video.key, MODEL.vocab)

    def test_needle_count_bounds(self):
        with pytest.raises(ContractError):
            gen_task(4, 2, 5, seed=0, model=MODEL)

    @pytest.mark.parametrize("question_len", [1, 3, 4])
    def test_question_is_the_child_streams_integers(self, question_len):
        # pins the question draw to a fresh generator on stream child(2)
        for seed in (0, 1, 7, 2**40 + 3, 2**64 - 1):
            task = gen_task(8, 2, 1, seed=seed, model=MODEL, question_len=question_len)
            expected = Rng(seed).child(2).generator().integers(0, MODEL.vocab, question_len)
            assert task.question == tuple(int(t) for t in expected)

    def test_all_needle_frames_gives_certain_accuracy(self):
        cfg = small_config(
            sampler=replace(small_config().sampler, total_frames=16),
            task=TaskParams(needle_count=16, noise_scale=0.1),
            repeats=50,
        )
        report = run_experiment(cfg)
        assert report.accuracy == 1.0
        assert report.any_trial_coverage == 1.0

    def test_no_needles_never_hits(self):
        # the answer logit stays exactly 0 while every other token draws
        # symmetric noise, so a hit needs all 63 fused draws negative
        cfg = small_config(task=TaskParams(needle_count=0, noise_scale=0.1), repeats=300)
        report = run_experiment(cfg)
        assert report.accuracy == 0.0
        assert report.any_trial_coverage == 0.0


class TestSurvivingNeedleTokens:
    def test_counts_intersection(self):
        task = gen_task(4, 3, 0, seed=1, model=MODEL)
        task = replace(task, video=replace(task.video, needle_frames=frozenset({1})))
        plan = TrialPlan(
            np.array([0, 1]), np.array([0, 3, 4]), 0.5
        )  # keeps tokens 3,4 of frame 1's block [3,6)
        assert surviving_needle_tokens(plan, task) == 2

    def test_zero_when_frame_not_sampled(self):
        task = gen_task(4, 3, 0, seed=1, model=MODEL)
        task = replace(task, video=replace(task.video, needle_frames=frozenset({3})))
        plan = TrialPlan(np.array([0, 1]), np.arange(6, dtype=np.int64), 1.0)
        assert surviving_needle_tokens(plan, task) == 0

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        frame_method=st.sampled_from([FrameMethod.RANDOM, FrameMethod.UNIFORM]),
        reuse_frames=st.booleans(),
        token_strategy=st.sampled_from([TokenStrategy.RAND_TOK, TokenStrategy.RAND_FRM]),
        tokens_per_frame=st.integers(1, 4),
        seed=st.integers(0, 2**32),
    )
    def test_matches_set_oracle(
        self, data, frame_method, reuse_frames, token_strategy, tokens_per_frame, seed
    ):
        # per trial, the (frame, patch) pairs a plan keeps against those the
        # task's needle frames fill: surviving_needle_tokens counts their
        # intersection, and a trial covers the needle when it samples one
        # of its frames
        total_frames = data.draw(st.integers(1, 8))
        trials = data.draw(st.integers(1, 3))
        ratios = data.draw(st.lists(st.floats(0.05, 1.0), min_size=trials, max_size=trials))
        sampler = SamplerConfig(
            total_frames=total_frames,
            frames_per_trial=data.draw(st.integers(1, total_frames)),
            tokens_per_frame=tokens_per_frame,
            trials=trials,
            ratios=tuple(ratios),
            frame_method=frame_method,
            token_strategy=token_strategy,
            reuse_frames=reuse_frames,
        )
        needle_count = data.draw(st.integers(0, min(3, total_frames)))
        cfg = small_config(
            sampler=sampler,
            task=TaskParams(needle_count=needle_count, question_len=3),
            repeats=2,
            seed=seed,
        )
        cover = np.zeros(trials)
        survive = np.zeros(trials)
        m = tokens_per_frame
        for rep in range(cfg.repeats):
            task = gen_task(
                total_frames, m, needle_count, _task_seed(seed, rep), MODEL, question_len=3
            )
            needle_tokens = {(f, p) for f in task.needle_frames for p in range(m)}
            for i, plan in enumerate(build_trial_plans(sampler, Rng(seed).child(rep))):
                frames = [int(f) for f in plan.frame_indices]
                kept = {(frames[k // m], k % m) for k in plan.token_keep.tolist()}
                survived = len(kept & needle_tokens)
                assert surviving_needle_tokens(plan, task) == survived
                cover[i] += bool(set(frames) & task.needle_frames)
                survive[i] += survived
        report = run_experiment(cfg)
        assert [t["coverage"] for t in report.per_trial] == list(cover / cfg.repeats)
        assert [t["mean_surviving_needle_tokens"] for t in report.per_trial] == list(
            survive / cfg.repeats
        )


class TestRunExperiment:
    def test_probe_experiment_builds_no_generator_per_draw(self, monkeypatch):
        # every draw re-keys the thread's one Philox; with a fresh
        # thread-local, the first draw builds the only one
        built = []
        real = np.random.Philox

        def counting(*args, **kwargs):
            built.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counting)
        monkeypatch.setattr(numkernel, "_STREAM", threading.local())
        report = run_experiment(replace(default_experiment_config(), repeats=64))
        assert report.repeats == 64
        assert len(built) <= 1

    def test_single_trial_accuracy_matches_inclusion_probability(self):
        cfg = small_config(
            sampler=SamplerConfig(
                total_frames=32,
                frames_per_trial=8,
                tokens_per_frame=4,
                trials=1,
                ratios=(1.0,),
            ),
            repeats=800,
        )
        report = run_experiment(cfg)
        p = 8 / 32
        sigma = math.sqrt(p * (1 - p) / cfg.repeats)
        assert abs(report.accuracy - p) < 3 * sigma

    def test_more_trials_never_hurt_at_full_retention(self):
        # same seed nests the trial streams, so hits grow pointwise with m
        accs = []
        for m in (1, 2, 4):
            cfg = small_config(
                sampler=SamplerConfig(
                    total_frames=32,
                    frames_per_trial=8,
                    tokens_per_frame=4,
                    trials=m,
                    ratios=(1.0,) * m,
                ),
                repeats=400,
            )
            accs.append(run_experiment(cfg).accuracy)
        assert accs[0] <= accs[1] <= accs[2]

    def test_equal_budget_two_trials_beat_one(self):
        # m=2 at alpha=0.5 vs m=1 at alpha=1.0: same token budget
        base = small_config(repeats=600)
        one = replace(
            base,
            sampler=replace(base.sampler, trials=1, ratios=(1.0,)),
        )
        two = replace(
            base,
            sampler=replace(base.sampler, trials=2, ratios=(0.5, 0.5)),
        )
        acc1 = run_experiment(one).accuracy
        acc2 = run_experiment(two).accuracy
        assert acc2 >= acc1

    def test_cost_block_without_timing(self):
        cfg = small_config(repeats=20)
        cfg = replace(cfg, sampler=replace(cfg.sampler, ratios=(0.5, 0.3)))
        cost = run_experiment(cfg).cost
        assert cost.tau1 is None and cost.tau2 is None
        assert cost.measured_pairs_base > cost.measured_pairs_multi > 0
        assert cost.measured_speedup is None

    def test_timing_enabled_fills_wall_clock(self):
        cfg = small_config(repeats=5)
        report = run_experiment(cfg, latency_repeats=3)
        assert report.cost.tau1 > 0
        assert report.cost.tau2 > 0
        assert report.cost.measured_speedup is not None

    def test_cost_L_is_visual_tokens_on_both_paths(self):
        # the question tokens are not part of L, timed or not
        cfg = small_config(repeats=2)
        untimed = run_experiment(cfg).cost
        timed = run_experiment(cfg, latency_repeats=3).cost
        assert untimed.L == timed.L == cfg.sampler.tokens_per_trial
        assert timed.theoretical_base == untimed.theoretical_base

    def test_transformer_backend_runs(self):
        cfg = small_config(backend="seeded_transformer", repeats=5)
        report = run_experiment(cfg)
        assert 0.0 <= report.accuracy <= 1.0

    def test_reports_reproducible(self):
        cfg = small_config(repeats=50)
        a = asdict(run_experiment(cfg))
        b = asdict(run_experiment(cfg))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_attn_top_strategy_end_to_end(self):
        from t3s.sampler import TokenStrategy

        cfg = small_config(
            sampler=SamplerConfig(
                total_frames=8,
                frames_per_trial=4,
                tokens_per_frame=2,
                trials=2,
                ratios=(0.5, 0.5),
                token_strategy=TokenStrategy.ATTN_TOP,
            ),
            model=replace(MODEL, max_positions=512),
            repeats=10,
        )
        report = run_experiment(cfg)
        assert 0.0 <= report.accuracy <= 1.0


class TestBaselineReduction:
    def test_decode_paths_agree(self):
        from t3s.aggregator import decode

        cfg = small_config()
        task = gen_task(12, 3, 1, seed=5, model=MODEL)
        model = build_model(MODEL)
        plan = TrialPlan(
            np.arange(12, dtype=np.int64), np.arange(36, dtype=np.int64), 1.0
        )
        multi_path = decode(
            model, [plan], task.video, list(task.question), 5, MeanLogits()
        )
        direct = baseline_greedy_decode(
            model, task.video, list(task.question), 5
        )
        assert multi_path == direct

    def test_single_sequence_layout(self):
        video = VideoTokenStream(3, 2, MODEL.model_dim, Rng(1).key)
        seq = single_sequence(video, [4, 5])
        assert seq.total_length == 8
        assert seq.num_segments == 1
        assert list(seq.token_ids[-2:]) == [4, 5]


TINY_MODEL = ModelConfig(layers=1, model_dim=8, heads=2, vocab=8, max_positions=256)


@st.composite
def tiny_experiments(draw) -> ExperimentConfig:
    """Small configs over both backends, every fusion rule (cross_refine at
    k = 1, 2 and vocab), 1-4 trials, both frame methods, frame reuse, every
    token strategy, 0-2 needles, probe noise 0 and 0.1, and 1-5 question
    tokens."""
    trials = draw(st.integers(1, 4))
    total_frames = draw(st.integers(1, 8))
    vocab = draw(st.sampled_from([4, 8]))
    strategies = [MeanLogits(), ConfidenceWeighted()]
    if trials == 2:
        strategies += [CrossRefine(1), CrossRefine(2), CrossRefine(vocab)]
    return ExperimentConfig(
        sampler=SamplerConfig(
            total_frames=total_frames,
            frames_per_trial=draw(st.integers(1, total_frames)),
            tokens_per_frame=draw(st.integers(1, 3)),
            trials=trials,
            ratios=tuple(draw(st.sampled_from([0.1, 0.3, 0.5, 1.0])) for _ in range(trials)),
            frame_method=draw(st.sampled_from(FrameMethod)),
            token_strategy=draw(st.sampled_from(TokenStrategy)),
            reuse_frames=draw(st.booleans()),
        ),
        model=replace(TINY_MODEL, vocab=vocab),
        strategy=draw(st.sampled_from(strategies)),
        task=TaskParams(
            needle_count=draw(st.integers(0, min(2, total_frames))),
            noise_scale=draw(st.sampled_from([0.0, 0.1])),
            question_len=draw(st.integers(1, 5)),
        ),
        backend=draw(st.sampled_from(["needle_probe", "seeded_transformer"])),
        repeats=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


class TestProbeBlocks:
    """Either backend runs a block of tasks per `block_logits` call; its
    reports equal those of one task at a time."""

    @settings(max_examples=80, deadline=None)
    @given(cfg=tiny_experiments())
    def test_matches_per_task_reference(self, cfg):
        assert run_experiment(cfg) == per_task_experiment(cfg)

    @pytest.mark.parametrize("block", [1, 3, 1000])
    @pytest.mark.parametrize(
        "cfg",
        [
            small_config(repeats=40, strategy=CrossRefine(2), sampler=replace(
                small_config().sampler, ratios=(0.5, 0.3))),
            small_config(repeats=25, seed=3, sampler=replace(
                small_config().sampler, trials=3, ratios=(0.3, 0.5, 1.0))),
            small_config(repeats=30, seed=11, strategy=ConfidenceWeighted(), sampler=replace(
                small_config().sampler, trials=4, ratios=(0.1, 0.3, 0.5, 1.0))),
            small_config(repeats=20, seed=5, task=TaskParams(needle_count=0, question_len=3),
                sampler=replace(small_config().sampler, ratios=(0.5, 0.3), reuse_frames=True)),
        ],
        ids=["cross_refine", "mean_3_trials", "confidence_4_trials", "reuse_frames_no_needle"],
    )
    def test_block_size_leaves_report_unchanged(self, monkeypatch, cfg, block):
        want = per_task_experiment(cfg)
        monkeypatch.setattr(t3s.harness, "_TASK_BLOCK", block)
        assert run_experiment(cfg) == want

    @pytest.mark.parametrize(
        "strategy", [MeanLogits(), ConfidenceWeighted(), CrossRefine(2)], ids=repr
    )
    def test_one_fusion_call_per_block(self, monkeypatch, strategy):
        # every fusion rule runs in `_fused` or `_refined`; each sees one
        # block of tasks at a time, never one task
        seen = []
        for name in ("_fused", "_refined"):
            def spy(o, *args, _real=getattr(t3s.aggregator, name)):
                seen.append(o.shape)
                return _real(o, *args)

            monkeypatch.setattr(t3s.aggregator, name, spy)
        monkeypatch.setattr(t3s.harness, "_TASK_BLOCK", 4)
        run_experiment(small_config(repeats=10, strategy=strategy))
        assert seen == [(4, 2, MODEL.vocab), (4, 2, MODEL.vocab), (2, 2, MODEL.vocab)]

    @pytest.mark.parametrize(
        "backend, token_strategy, probes, transformers",
        [
            ("needle_probe", TokenStrategy.RAND_TOK, 1, 0),
            ("needle_probe", TokenStrategy.ATTN_TOP, 1, 1),
            ("seeded_transformer", TokenStrategy.RAND_TOK, 0, 1),
            ("seeded_transformer", TokenStrategy.ATTN_TOP, 0, 1),
        ],
    )
    def test_one_backend_per_experiment(
        self, monkeypatch, backend, token_strategy, probes, transformers
    ):
        # several blocks, yet one backend built per call; only attn_top on
        # the probe needs a transformer besides it, for its scores
        built = []
        for cls in (NeedleProbe, SeededTransformer):
            def spy(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self))
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", spy)
        monkeypatch.setattr(t3s.harness, "_TASK_BLOCK", 2)
        cfg = small_config(
            backend=backend,
            repeats=5,
            sampler=replace(small_config().sampler, token_strategy=token_strategy),
        )
        run_experiment(cfg)
        assert built.count(NeedleProbe) == probes
        assert built.count(SeededTransformer) == transformers

    @pytest.mark.parametrize("repeats", [1, 5, 9])
    def test_probe_packs_only_the_first_task(self, monkeypatch, repeats):
        # either backend reads each block's stacked plans; the one pack of
        # task trials is the first task's, which the cost report packs
        # before its own baseline
        packed = []

        def spy(plans, *args, _pack=t3s.harness.pack):
            packed.append(len(plans))
            return _pack(plans, *args)

        monkeypatch.setattr(t3s.harness, "pack", spy)
        monkeypatch.setattr(t3s.harness, "_TASK_BLOCK", 2)
        cfg = small_config(repeats=repeats)
        want = per_task_experiment(cfg)
        packed.clear()
        assert run_experiment(cfg) == want
        assert packed == [2, 1]
        packed.clear()
        run_experiment(replace(cfg, backend="seeded_transformer"))
        assert packed == [2, 1]

    @pytest.mark.parametrize("backend", ["needle_probe", "seeded_transformer"])
    def test_rows_once_per_trial_per_block(self, monkeypatch, backend):
        # `kept_rows` runs once per trial per block, over the block's
        # stacked plans, and then in the cost report's packs: once per
        # trial of the first task and once for its baseline
        tasks = []

        def spy(frames, *args, _kept_rows=t3s.packer.kept_rows):
            tasks.append(len(frames))
            return _kept_rows(frames, *args)

        monkeypatch.setattr(t3s.packer, "kept_rows", spy)
        monkeypatch.setattr(t3s.harness, "kept_rows", spy)
        monkeypatch.setattr(t3s.harness, "_TASK_BLOCK", 2)
        run_experiment(small_config(backend=backend, repeats=5))
        assert tasks == [2, 2, 2, 2, 1, 1] + [1, 1] + [1]

    def test_peak_memory_does_not_grow_with_repeats(self):
        # each block is freed before the next is drawn; one pass over every
        # repeat at once would hold about 3 MB more per 1000 repeats here
        cfg = small_config(
            sampler=SamplerConfig(
                total_frames=8,
                frames_per_trial=2,
                tokens_per_frame=2,
                trials=1,
                ratios=(1.0,),
                frame_method=FrameMethod.UNIFORM,
                token_strategy=TokenStrategy.UNI_TOK,
            ),
            task=TaskParams(question_len=1),
        )

        def peak(repeats):
            tracemalloc.reset_peak()
            run_experiment(replace(cfg, repeats=repeats))
            return tracemalloc.get_traced_memory()[1]

        tracemalloc.start()
        try:
            peak(20)  # first-use allocations
            small, large = peak(200), peak(2000)
        finally:
            tracemalloc.stop()
        assert large - small < 256 * 1024, (small, large)


def _untimed(report) -> dict:
    """A report's fields, the first-token timings left out."""
    d = asdict(report)
    for field in ("tau1", "tau2", "measured_speedup"):
        d["cost"].pop(field)
    return d


class TestLastLogitsOnly:
    """Production reads logits through `last_logits` alone: with every
    `forward` raising, decode and experiments give what they gave before."""

    @pytest.fixture
    def no_forward(self, monkeypatch):
        def forward(self, *args, **kwargs):
            raise AssertionError("forward called")

        def patch():
            for cls in (NeedleProbe, SeededTransformer):
                monkeypatch.setattr(cls, "forward", forward)

        return patch

    @pytest.mark.parametrize("backend", ["needle_probe", "seeded_transformer"])
    def test_decode(self, no_forward, backend):
        task = gen_task(32, 4, 2, seed=3, model=MODEL)
        sampler = replace(small_config().sampler, trials=3, ratios=(0.5, 0.3, 1.0))
        model = NeedleProbe(MODEL.vocab) if backend == "needle_probe" else build_model(MODEL)
        args = (model, build_trial_plans(sampler, Rng(3)), task.video, task.question, 5,
                ConfidenceWeighted())
        want = decode(*args)
        no_forward()
        assert decode(*args) == want

    @pytest.mark.parametrize(
        "backend, token_strategy",
        [
            ("needle_probe", TokenStrategy.RAND_TOK),
            ("seeded_transformer", TokenStrategy.RAND_TOK),
            ("needle_probe", TokenStrategy.ATTN_TOP),
        ],
    )
    def test_experiment(self, no_forward, backend, token_strategy):
        cfg = small_config(
            backend=backend,
            repeats=10,
            sampler=replace(
                small_config().sampler, ratios=(0.5, 0.3), token_strategy=token_strategy
            ),
        )
        want = _untimed(run_experiment(cfg))
        no_forward()
        assert _untimed(run_experiment(cfg)) == want
        timed = run_experiment(cfg, latency_repeats=3)
        assert _untimed(timed) == want
        assert timed.cost.tau1 > 0 and timed.cost.tau2 > 0


class TestSweep:
    def test_alpha_grid_rows_and_reference_point(self):
        base = small_config(repeats=2)
        rows = sweep("alpha_grid", base)
        ratios = ["0.2", "0.3", "0.4", "0.5", "0.6", "0.7", "0.8", "0.9", "1"]
        assert [r["point"] for r in rows] == [f"{a},{b}" for a in ratios for b in ratios]
        diag = next(r for r in rows if r["point"] == "0.6,0.6")
        assert abs(float(diag["theoretical_speedup"]) - 1 / 0.72) < 1e-6
        assert all(r["error"] == "" for r in rows)

    def test_failed_point_recorded_not_raised(self):
        # one trial packs to 36 positions, so m=3 and m=4 exceed 80
        base = small_config(
            sampler=replace(small_config().sampler, trials=1, ratios=(1.0,)),
            model=replace(MODEL, max_positions=80),
            repeats=5,
        )
        rows = sweep("m_values", base)
        assert [r["point"] for r in rows] == ["m=1", "m=2", "m=3", "m=4"]
        assert [r["error"] for r in rows[:2]] == ["", ""]
        for row in rows[2:]:
            assert "max_positions" in row["error"]
            assert row["config_hash"] == config_hash(base)

    def test_m_values_rows(self):
        base = small_config(repeats=10)
        rows = sweep("m_values", base)
        assert [r["point"] for r in rows] == ["m=1", "m=2", "m=3", "m=4"]
        assert all(r["error"] == "" for r in rows)

    def test_k_values_clip_to_vocab(self):
        base = small_config(repeats=10, strategy=CrossRefine(2))
        rows = sweep("k_values", base)
        assert [r["point"] for r in rows] == [
            "k=1",
            "k=2",
            "k=5",
            "k=10",
            f"k={MODEL.vocab}",
        ]
        assert all(r["error"] == "" for r in rows)

    def test_k_values_clipped_duplicates_run_once(self):
        base = small_config(
            repeats=10, strategy=CrossRefine(2), model=replace(MODEL, vocab=4)
        )
        rows = sweep("k_values", base)
        assert [r["point"] for r in rows] == ["k=1", "k=2", "k=4"]
        assert all(r["error"] == "" for r in rows)

    def test_k_sweep_flat_when_needles_abundant(self):
        # with needles in half the frames every trial carries signal, so the
        # re-ranking depth barely matters and accuracy stays in a tight band
        base = small_config(
            task=TaskParams(needle_count=16, noise_scale=0.1),
            repeats=150,
            strategy=CrossRefine(2),
        )
        rows = sweep("k_values", base)
        assert all(r["error"] == "" for r in rows)
        accs = [float(r["accuracy"]) for r in rows]
        assert max(accs) - min(accs) < 0.02
        assert min(accs) > 0.95

    def test_strategy_matrix_covers_six_settings(self):
        base = small_config(
            sampler=SamplerConfig(
                total_frames=8,
                frames_per_trial=4,
                tokens_per_frame=2,
                trials=2,
                ratios=(0.5, 0.5),
            ),
            model=replace(MODEL, max_positions=512),
            repeats=5,
        )
        rows = sweep("strategy_matrix", base)
        assert [r["point"] for r in rows] == [
            "rand-tok-m2",
            "rand-tok-m1",
            "uni-tok-m2",
            "uni-tok-m1",
            "rand-frm-m2",
            "rand-attn-m2",
        ]
        assert all(r["error"] == "" for r in rows)

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep("bogus", small_config())

    def test_rows_deterministic(self):
        base = small_config(repeats=20)
        assert sweep("m_values", base) == sweep("m_values", base)


class TestCoverageReport:
    def test_reference_point(self):
        rep = coverage_report(100, 25, 2, draws=10_000, seed=3)
        assert abs(rep.closed_form - 0.4375) < 1e-15
        assert abs(rep.z_score) < 3.0

    def test_full_sampling_exact(self):
        rep = coverage_report(16, 16, 2, draws=10_000, seed=0)
        assert rep.empirical == 1.0
        assert rep.closed_form == 1.0
        assert rep.z_score == 0.0

    def test_single_trial(self):
        rep = coverage_report(64, 16, 1, draws=10_000, seed=1)
        assert abs(rep.closed_form - 0.25) < 1e-15
        assert abs(rep.z_score) < 3.0

    def test_draw_floor(self):
        with pytest.raises(ContractError):
            coverage_report(10, 5, 1, draws=500)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits(self, seed):
        # masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 alias 0
        with pytest.raises(ContractError, match="seed"):
            coverage_report(10, 5, 1, draws=10_000, seed=seed)


DEFAULT_CONFIG_DICT = config_to_dict(default_experiment_config())
# every field of the JSON config, nested ones as (section, field)
CONFIG_FIELD_PATHS = [
    path
    for key, value in DEFAULT_CONFIG_DICT.items()
    for path in [(key,)] + ([(key, k) for k in value] if isinstance(value, dict) else [])
]

JSON_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


def _json_kind(value) -> str:
    if value is None:
        return "null"
    return {bool: "bool", int: "int", float: "float", str: "str", list: "list",
            dict: "dict"}[type(value)]


def _accepted_kinds(default) -> set:
    kind = _json_kind(default)
    return {"int", "float"} if kind == "float" else {kind}


def _dig(d, path):
    for key in path:
        d = d[key]
    return d


def _with_field(path, value) -> dict:
    """A config dict that sets one field; the strategy is replaced whole."""
    if len(path) == 1:
        return {path[0]: value}
    section, key = path
    base = DEFAULT_CONFIG_DICT[section] if section == "strategy" else {}
    return {section: {**base, key: value}}


class TestConfigCodec:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"strategy": CrossRefine(3)},
            {"strategy": MeanLogits()},
            {"strategy": ConfidenceWeighted()},
            *({"sampler": {"frame_method": m}} for m in FrameMethod),
            *({"sampler": {"token_strategy": t}} for t in TokenStrategy),
            {"sampler": {"reuse_frames": True}},
        ],
        ids=[
            "cross_refine",
            "mean_logits",
            "confidence_weighted",
            *(m.value for m in FrameMethod),
            *(t.value for t in TokenStrategy),
            "reuse_frames",
        ],
    )
    def test_round_trip(self, overrides):
        cfg = small_config()
        cfg = replace(
            cfg,
            strategy=overrides.get("strategy", cfg.strategy),
            sampler=replace(cfg.sampler, **overrides.get("sampler", {})),
        )
        data = config_to_dict(cfg)
        again = config_from_dict(json.loads(json.dumps(data)))
        assert again == cfg
        assert config_to_dict(again) == data
        assert config_hash(again) == config_hash(cfg)

    def test_default_hash_pinned(self):
        # the canonical JSON form of the default config, key by key
        assert config_hash(default_experiment_config()) == "b613a391d0e7"
        cw = default_experiment_config(strategy=ConfidenceWeighted())
        assert config_hash(cw) == "dc04d1a7de41"

    def test_partial_dict_fills_defaults(self):
        cfg = config_from_dict({"seed": 123})
        assert cfg.seed == 123
        assert cfg.sampler.total_frames == 256  # reference default

    def test_cross_refine_requires_two_trials(self):
        cfg = small_config()
        with pytest.raises(ConfigError):
            replace(
                cfg,
                strategy=CrossRefine(2),
                sampler=replace(cfg.sampler, trials=3, ratios=(0.5,) * 3),
            )

    def test_packed_length_budget(self):
        with pytest.raises(ConfigError):
            small_config(model=replace(MODEL, max_positions=8))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (lambda c: {"backend": "quantum"}, "unknown backend"),
            (lambda c: {"repeats": 0}, "repeats must be >= 1"),
            (
                lambda c: {
                    "strategy": CrossRefine(2),
                    "sampler": replace(c.sampler, trials=3, ratios=(0.5,) * 3),
                },
                "exactly 2 trials",
            ),
            (lambda c: {"strategy": CrossRefine(c.model.vocab + 1)}, "top_k exceeds"),
            (
                lambda c: {
                    "task": replace(c.task, needle_count=c.sampler.total_frames + 1)
                },
                "needle_count exceeds",
            ),
            (lambda c: {"model": replace(c.model, max_positions=8)}, "max_positions"),
        ],
        ids=[
            "backend",
            "repeats",
            "cross_refine_trials",
            "top_k_over_vocab",
            "needles_over_frames",
            "packed_length",
        ],
    )
    def test_invalid_config_cannot_be_built(self, overrides, message):
        # every replace re-checks the whole config, so no caller need validate
        cfg = small_config()
        with pytest.raises(ConfigError, match=message):
            replace(cfg, **overrides(cfg))

    @pytest.mark.parametrize("seed", [-1, 2**64, -(2**64)])
    @pytest.mark.parametrize("field", ["seed", "init_seed"])
    def test_seed_outside_64_bits_rejected(self, field, seed):
        # the 64-bit seed streams would alias such a seed with another one
        data = {field: seed} if field == "seed" else {"model": {field: seed}}
        with pytest.raises(ConfigError, match=re.escape(f"{field} must lie in [0, 2**64)")):
            config_from_dict(data)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_bounds_accepted(self, seed):
        cfg = config_from_dict({"seed": seed, "model": {"init_seed": seed}})
        assert (cfg.seed, cfg.model.init_seed) == (seed, seed)

    def test_unknown_backend(self):
        with pytest.raises(ConfigError):
            small_config(backend="quantum").validate()

    def test_bad_dict_raises_config_error(self):
        with pytest.raises(ConfigError):
            config_from_dict({"strategy": {"kind": "majority_vote"}})

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"sampelr": {}})
        with pytest.raises(ConfigError):
            config_from_dict({"sampler": {"ratio": [0.5]}})
        # fields an earlier schema had
        for old in ("timing", "timing_repeats", "memory_budget_entries", "out_dir"):
            with pytest.raises(ConfigError, match="unknown config fields"):
                config_from_dict({old: 1})

    @pytest.mark.parametrize(
        "data",
        [
            [],
            None,
            {"sampler": 5},
            {"strategy": "x"},
            {"strategy": {"kind": "cross_refine", "top_k": 1.5}},
            {"repeats": "a"},
            {"repeats": None},
            {"model": None},
            {"model": {"heads": 0}},
            {"model": {"heads": 3}},
            {"sampler": {"frame_method": "every_other"}},
            {"timing": True, "timing_repeats": 1},
            {"strategy": {"kind": "confidence_weighted", "entropy_floor": math.nan}},
            {"strategy": {"kind": "confidence_weighted", "entropy_floor": math.inf}},
            {"model": {"model_dim": 0}},
            {"model": {"model_dim": -4}},
            # the entropy floor is a constant, not a field
            {"strategy": {"kind": "confidence_weighted", "entropy_floor": 1e-8}},
            # probe noise must stay under the 1 a needle token adds
            {"task": {"noise_scale": 1.5}},
            {"task": {"noise_scale": 1}},
        ],
    )
    def test_malformed_config_raises_config_error(self, data):
        with pytest.raises(ConfigError):
            config_from_dict(data)

    @pytest.mark.parametrize("path", CONFIG_FIELD_PATHS, ids="/".join)
    @given(value=JSON_VALUES)
    @settings(max_examples=30, deadline=None)
    def test_wrong_typed_field_raises_config_error(self, path, value):
        default = _dig(DEFAULT_CONFIG_DICT, path)
        assume(_json_kind(value) not in _accepted_kinds(default))
        with pytest.raises(ConfigError):
            config_from_dict(_with_field(path, value))


class TestCli:
    def test_child_imports_parent_t3s(self, tmp_path, run_cli):
        res = run_cli(
            cwd=tmp_path, entry=("-c", "import t3s; print(t3s.__file__)")
        )
        assert res.returncode == 0, res.stderr
        child = Path(res.stdout.strip()).resolve()
        assert child == Path(t3s.__file__).resolve()

    @pytest.fixture
    def tiny_config(self, tmp_path):
        cfg = small_config(repeats=20)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config_to_dict(cfg)))
        return path

    def test_run_writes_report(self, tmp_path, tiny_config, run_cli):
        out = tmp_path / "out"
        res = run_cli(
            "run", "--config", str(tiny_config), "--out-dir", str(out), cwd=tmp_path
        )
        assert res.returncode == 0, res.stderr
        report = json.loads((out / "report.json").read_text())
        assert set(report) >= {"accuracy", "cost", "config_hash"}

    @pytest.mark.parametrize("unbuffered", ["1", None], ids=["unbuffered", "buffered"])
    def test_closed_stdout_is_not_a_failure(self, tmp_path, tiny_config, run_cli, unbuffered):
        # stdout's reader exits first, as `head` does in `t3s run | head`:
        # unbuffered, the summary line's write fails inside the command;
        # buffered, the flush would fail at exit. Either way the run
        # succeeds silently and writes the same report as with a live stdout
        want, got = tmp_path / "want", tmp_path / "got"
        args = ("run", "--config", str(tiny_config), "--out-dir")
        assert run_cli(*args, str(want), cwd=tmp_path).returncode == 0
        res = run_cli(
            *args, str(got), cwd=tmp_path, env={"PYTHONUNBUFFERED": unbuffered}, closed_stdout=True
        )
        assert (res.returncode, res.stderr) == (0, "")
        assert (got / "report.json").read_bytes() == (want / "report.json").read_bytes()

    def test_invalid_config_exits_two(self, tmp_path, run_cli):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sampler": {"trials": 0}}))
        res = run_cli("run", "--config", str(bad), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr

    @pytest.mark.parametrize(
        "text",
        [
            "[1, 2]",
            '{"repeats": "a"}',
            "{not json",
            '{"model": {"model_dim": 0}}',
            '{"model": {"model_dim": -4}}',
            pytest.param(b'{"repeats": "\xff\xfe"}', id="not_utf8"),
            pytest.param("[" * 100_000 + "]" * 100_000, id="nested_100k_deep"),
        ],
    )
    def test_malformed_config_exits_two(self, tmp_path, run_cli, text):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text.encode() if isinstance(text, str) else text)
        res = run_cli("run", "--config", str(bad), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_exits_two(self, tmp_path, run_cli, seed):
        out = tmp_path / "out"
        res = run_cli("run", "--seed", seed, "--out-dir", str(out), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert f"seed must lie in [0, 2**64), got {seed}" in res.stderr
        assert not out.exists()

    def test_init_seed_outside_64_bits_exits_two(self, tmp_path, run_cli):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"model": {"init_seed": -1}}))
        res = run_cli("run", "--config", str(bad), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "init_seed must lie in [0, 2**64), got -1" in res.stderr

    def test_probe_noise_of_one_or_more_exits_two(self, tmp_path, run_cli):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"task": {"noise_scale": 1.5}}))
        out = tmp_path / "out"
        res = run_cli(
            "sweep", "--axis", "m_values", "--config", str(bad), "--out-dir", str(out),
            cwd=tmp_path,
        )
        assert res.returncode == 2, res.stderr
        assert "noise_scale" in res.stderr
        assert not out.exists()

    def test_missing_config_exits_two(self, tmp_path, run_cli):
        res = run_cli("run", "--config", str(tmp_path / "absent.json"), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "config error" in res.stderr

    @pytest.mark.parametrize("command", ["run", "coverage", "bench"])
    def test_plots_flag_only_on_sweep(self, tmp_path, run_cli, command):
        res = run_cli(command, "--plots", "on", cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "--plots" in res.stderr

    def test_sweep_writes_csv_with_contracted_columns(
        self, tmp_path, tiny_config, run_cli
    ):
        out = tmp_path / "out"
        res = run_cli(
            "sweep",
            "--axis",
            "m_values",
            "--config",
            str(tiny_config),
            "--out-dir",
            str(out),
            "--plots",
            "on",
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        lines = (out / "sweep_m_values.csv").read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + 4
        assert (out / "m_scaling.svg").exists()

    @pytest.mark.parametrize("axis", ["alpha_grid", "k_values"])
    def test_sweep_with_no_successful_point_writes_no_plot(
        self, tmp_path, run_cli, axis
    ):
        # one trial cannot host the two-trial points of either axis
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "sampler": {"trials": 1, "ratios": [0.5]},
            "strategy": {"kind": "mean_logits"},
            "model": {"max_positions": 1029},
        }))
        out = tmp_path / "out"
        res = run_cli(
            "sweep", "--axis", axis, "--config", str(cfg), "--out-dir", str(out),
            "--plots", "on", cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        with (out / f"sweep_{axis}.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["error"] for r in rows)
        assert list(out.glob("*.svg")) == []

    def test_coverage_subcommand(self, tmp_path, tiny_config, run_cli):
        out = tmp_path / "cov"
        res = run_cli(
            "coverage",
            "--config",
            str(tiny_config),
            "--out-dir",
            str(out),
            "--draws",
            "10000",
            cwd=tmp_path,
        )
        assert res.returncode == 0, res.stderr
        rep = json.loads((out / "coverage.json").read_text())
        assert abs(rep["z_score"]) < 3.0

    @pytest.mark.parametrize(
        "sampler",
        [{"frame_method": "uniform"}, {"reuse_frames": True}],
        ids=["frame_method", "reuse_frames"],
    )
    def test_coverage_needs_independent_random_frames(self, tmp_path, run_cli, sampler):
        # 1-(1-N/F)^m describes neither a frame stride nor one shared draw
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"sampler": sampler}))
        out = tmp_path / "cov"
        res = run_cli(
            "coverage", "--config", str(cfg), "--out-dir", str(out), cwd=tmp_path
        )
        assert res.returncode == 2, res.stderr
        assert "sampler.frame_method" in res.stderr
        assert "sampler.reuse_frames" in res.stderr
        assert not out.exists()

    def test_runtime_failure_exits_one(self, tmp_path, tiny_config, run_cli):
        # a report that cannot be written into a valid output directory is a
        # runtime error, not a config error
        out = tmp_path / "cov"
        (out / "coverage.json").mkdir(parents=True)
        res = run_cli(
            "coverage",
            "--config",
            str(tiny_config),
            "--out-dir",
            str(out),
            cwd=tmp_path,
        )
        assert res.returncode == 1, res.stderr
        assert "error: IsADirectoryError" in res.stderr

    @pytest.mark.parametrize("command", ["run", "sweep", "coverage", "bench"])
    def test_out_dir_naming_a_file_exits_two(self, tmp_path, run_cli, command):
        blocker = tmp_path / "out"
        blocker.write_text("a file, not a directory")
        args = ("--axis", "m_values") if command == "sweep" else ()
        res = run_cli(command, *args, "--out-dir", str(blocker), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "config error: cannot create --out-dir" in res.stderr
        assert blocker.read_text() == "a file, not a directory"

    def test_bench_subcommand(self, tmp_path, tiny_config, run_cli):
        out = tmp_path / "bench"
        # on one CPU of this process's set: the printed nproc is the count W
        # is computed from, not `os.cpu_count()`
        code = (
            "import os, sys\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from t3s.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        res = run_cli(
            "bench",
            "--config",
            str(tiny_config),
            "--out-dir",
            str(out),
            "--repeats",
            "3",
            cwd=tmp_path,
            entry=("-c", code),
        )
        assert res.returncode == 0, res.stderr
        rep = json.loads((out / "cost_report.json").read_text())
        assert rep["tau1"] > 0 and rep["tau2"] > 0
        assert rep["measured_speedup"] == rep["tau1"] / rep["tau2"]
        # the machine the timings came from, on stdout only
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        machine = res.stdout.splitlines()[-1].split()
        assert machine[:3] == ["nproc=1", f"blas={blas['name']}", blas["version"]]
        assert machine[3:6] == [
            f"{name}={os.environ.get(name, 'unset')}"
            for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
        ]
        assert machine[6] == f"attention_workers={worker_count(os.environ, 1)}"
        name, faults = machine[7].split("=")
        assert name == "minflt_per_pass" and int(faults) >= 0
        assert "minflt" not in json.dumps(rep) and "workers" not in json.dumps(rep)

    def test_run_report_same_across_worker_counts(self, tmp_path, run_cli):
        # criterion 7 across attention worker counts: the multi-trial passes
        # (segments of 924 and 515 rows) split their attention when BLAS is
        # pinned to one thread on two or more CPUs, and stay whole unpinned
        cfg = small_config(
            backend="seeded_transformer",
            model=replace(MODEL, model_dim=64, heads=4),
            sampler=SamplerConfig(
                total_frames=64,
                frames_per_trial=64,
                tokens_per_frame=16,
                trials=2,
                ratios=(0.9, 0.5),
                token_strategy=TokenStrategy.ATTN_TOP,
            ),
            repeats=2,
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps(config_to_dict(cfg)))
        # the CLI's main, then the number of live threads
        code = (
            "import sys, threading\n"
            "from t3s.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(threading.active_count())\n"
            "sys.exit(code)\n"
        )
        unset = {name: None for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
        reports, threads = [], []
        for name, env in (("pinned", {**unset, "OPENBLAS_NUM_THREADS": "1"}), ("unpinned", unset)):
            out = tmp_path / name
            res = run_cli(
                "run", "--config", str(config), "--out-dir", str(out),
                cwd=tmp_path, entry=("-c", code), env=env,
            )
            assert res.returncode == 0, res.stderr
            reports.append((out / "report.json").read_bytes())
            threads.append(int(res.stdout.split()[-1]))
        assert reports[0] == reports[1]
        # the pinned run started helper threads wherever W > 1; the pool
        # starts at most W - 1 of them
        workers = worker_count({"OPENBLAS_NUM_THREADS": "1"}, len(os.sched_getaffinity(0)))
        assert (threads[0] > 1) == (workers > 1) and threads[0] <= workers
        assert threads[1] == 1

    def test_bench_repeats_floor_exits_two(self, tmp_path, run_cli):
        res = run_cli("bench", "--repeats", "2", "--out-dir", str(tmp_path), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "--repeats" in res.stderr

    def test_coverage_draws_floor_exits_two(self, tmp_path, run_cli):
        out = tmp_path / "out"
        res = run_cli("coverage", "--draws", "0", "--out-dir", str(out), cwd=tmp_path)
        assert res.returncode == 2, res.stderr
        assert "--draws" in res.stderr
        assert not out.exists()  # checked before any output is written
