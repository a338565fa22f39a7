"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (visible with `pytest tests/test_acceptance.py -s`).

Tolerances are pinned here, not calibrated elsewhere:
  1. packed-vs-solo segment-final logits within 1e-9 absolute, 50 random
     configs, both backends, under 60 s
  2. cost arithmetic: sum of squared ratios for (0.6, 0.6) equals 0.72
     exactly, speedup 1/0.72 within 1e-12, surface strictly decreasing
  3. measured first-token speedup at L >= 2048, ratios (0.5, 0.3), inside
     (1.0, theoretical ~= 2.94]; pair ratio exact in integers
  4. coverage Monte Carlo |z| < 3 at the four reference points; m-sweep
     increments non-negative and diminishing
  5. aggregation rules match brute force on 1000 random trial-logit sets
     (vocab <= 32) including tie-breaks; permutation behavior as specified
  6. m=1, alpha=1 decode token-identical to direct greedy over 20 tasks
  7. byte-identical run/sweep/coverage outputs for identical config+seed
"""

import json
import math
import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from t3s.aggregator import (
    ConfidenceWeighted,
    MeanLogits,
    confidence_weighted,
    cross_refine,
    decode,
    mean_logits,
)
from t3s.costmodel import measure, theoretical_costs
from t3s.harness import (
    ExperimentConfig,
    TaskParams,
    config_to_dict,
    coverage_report,
    gen_task,
    run_experiment,
)
from t3s.numkernel import Rng
from t3s.packer import last_positions, pack, slice_segment
from t3s.sampler import SamplerConfig, TrialPlan, build_trial_plans, kept_tokens
from t3s.toymodel import ModelConfig, NeedleProbe, VideoTokenStream, build_model

from helpers import baseline_greedy_decode

# reference desk-scale model used by every acceptance run
DESK = ModelConfig(layers=4, model_dim=64, heads=4, vocab=64, max_positions=16384, init_seed=0)


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL  {description}")
        raise
    print(f"[criterion {num}] PASS  {description}")


# ---------------------------------------------------------------------------


def _random_equivalence_case(case_rng: Rng, index: int):
    g = case_rng.generator()
    trials = 1 + index % 4
    while True:
        tokens_per_frame = int(g.integers(1, 5))
        total_frames = int(g.integers(2, 17))
        per_trial = int(g.integers(1, total_frames + 1))
        text_len = int(g.integers(1, 6))
        ratios = tuple(float(r) for r in g.uniform(0.15, 1.0, trials))
        seg_lens = [
            int(a * per_trial * tokens_per_frame) + text_len for a in ratios
        ]
        if all(4 <= s <= 64 for s in seg_lens):
            break
    needles = frozenset(
        int(f) for f in g.choice(total_frames, size=min(2, total_frames), replace=False)
    )
    model_cfg = replace(DESK, init_seed=index)
    video = VideoTokenStream(
        total_frames, tokens_per_frame, model_cfg.model_dim, case_rng.child(1).key, needles
    )
    sampler = SamplerConfig(
        total_frames=total_frames,
        frames_per_trial=per_trial,
        tokens_per_frame=tokens_per_frame,
        trials=trials,
        ratios=ratios,
    )
    plans = build_trial_plans(sampler, case_rng.child(2))
    text = [int(t) for t in g.integers(0, model_cfg.vocab, text_len)]
    return model_cfg, pack(plans, video, text)


def test_criterion_1_packed_equivalence_suite():
    with criterion(1, "packed block-diagonal forward == independent per-segment forwards"):
        start = time.perf_counter()
        root = Rng(20250809)
        worst = 0.0
        for index in range(50):
            model_cfg, packed = _random_equivalence_case(root.child(index), index)
            backends = [
                build_model(model_cfg),
                NeedleProbe(vocab=model_cfg.vocab, noise_scale=0.1),
            ]
            finals = last_positions(packed)
            for backend in backends:
                full = backend.forward(packed).logits
                for i, p in enumerate(finals):
                    solo = backend.forward(slice_segment(packed, i)).logits
                    worst = max(worst, float(np.abs(full[p] - solo[-1]).max()))
        elapsed = time.perf_counter() - start
        assert worst < 1e-9, f"worst deviation {worst}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_2_cost_arithmetic():
    with criterion(2, "worked cost point (0.6, 0.6) and strictly decreasing surface"):
        base, multi, speedup = theoretical_costs(4096, [0.6, 0.6])
        assert multi / base == 0.72
        assert abs(speedup - 1.0 / 0.72) < 1e-12

        grid = [round(0.05 * i, 2) for i in range(2, 21)]  # 0.10 .. 1.00
        for a2 in grid:
            col = [theoretical_costs(64, [a1, a2])[2] for a1 in grid]
            assert all(b < a for a, b in zip(col, col[1:]))
        for a1 in grid:
            row = [theoretical_costs(64, [a1, a2])[2] for a2 in grid]
            assert all(b < a for a, b in zip(row, row[1:]))


def test_criterion_3_measured_speedup_bound():
    with criterion(3, "first-token speedup in (1.0, theoretical] at L=2048, exact pair ratio"):
        total_frames = per_trial = 128
        tokens_per_frame = 16  # L = 2048
        ratios = (0.5, 0.3)
        length = per_trial * tokens_per_frame
        model = build_model(DESK)
        video = VideoTokenStream(total_frames, tokens_per_frame, DESK.model_dim, Rng(31).key)
        full = TrialPlan(
            np.arange(total_frames, dtype=np.int64),
            np.arange(length, dtype=np.int64),
            1.0,
        )
        baseline = pack([full], video, [])
        sampler = SamplerConfig(
            total_frames=total_frames,
            frames_per_trial=per_trial,
            tokens_per_frame=tokens_per_frame,
            trials=2,
            ratios=ratios,
        )
        multi = pack(build_trial_plans(sampler, Rng(32)), video, [])

        report = measure(model, baseline, multi, list(ratios), repeats=5)
        assert report.L == 2048
        assert 1.0 < report.measured_speedup <= report.theoretical_speedup, (
            f"measured {report.measured_speedup:.3f}, "
            f"theoretical {report.theoretical_speedup:.3f}"
        )
        # exact integer identity: pairs_multi * L(L+1) == pairs_base * sum l_i(l_i+1)
        kept = [kept_tokens(a, length) for a in ratios]
        numer = sum(k * (k + 1) for k in kept)
        assert (
            report.measured_pairs_multi * length * (length + 1)
            == report.measured_pairs_base * numer
        )
        print(
            f"    measured {report.measured_speedup:.2f}x "
            f"(theoretical {report.theoretical_speedup:.2f}x, "
            f"tau1={report.tau1 * 1e3:.0f}ms tau2={report.tau2 * 1e3:.0f}ms)"
        )


def test_criterion_4_coverage_oracle_and_m_sweep():
    with criterion(4, "coverage MC |z|<3 at reference points; diminishing m-sweep gains"):
        for frames, per_trial, trials in [
            (100, 25, 1),
            (100, 25, 2),
            (256, 64, 2),
            (256, 64, 4),
        ]:
            rep = coverage_report(frames, per_trial, trials, draws=10_000, seed=5)
            assert abs(rep.z_score) < 3.0, (frames, per_trial, trials, rep.z_score)

        # probe-task m-sweep; one seed nests the trial streams across m, so
        # per-repeat hits are pointwise monotone and increments are exact >= 0
        accuracies = []
        for trials in (1, 2, 3, 4):
            cfg = ExperimentConfig(
                sampler=SamplerConfig(
                    total_frames=64,
                    frames_per_trial=16,
                    tokens_per_frame=8,
                    trials=trials,
                    ratios=(0.5,) * trials,
                ),
                model=DESK,
                strategy=MeanLogits(),
                task=TaskParams(needle_count=1, noise_scale=0.1, question_len=4),
                repeats=3000,
                seed=11,
            )
            accuracies.append(run_experiment(cfg).accuracy)
        increments = [accuracies[0]] + [
            b - a for a, b in zip(accuracies, accuracies[1:])
        ]
        assert all(inc >= 0.0 for inc in increments), increments
        assert all(b < a for a, b in zip(increments, increments[1:])), increments
        print(f"    m-sweep accuracies {['%.3f' % a for a in accuracies]}")


# --- criterion 5 brute-force references (independent, loop-based) ----------


def _brute_mean(o):
    m, d = len(o), len(o[0])
    fused = [sum(o[i][j] for i in range(m)) / m for j in range(d)]
    return fused, max(range(d), key=lambda j: fused[j])


def _brute_confidence(o, floor=1e-8):
    m, d = len(o), len(o[0])
    inv = []
    for row in o:
        top = max(row)
        exps = [math.exp(v - top) for v in row]
        z = sum(exps)
        h = -sum((e / z) * math.log(e / z) for e in exps if e > 0)
        inv.append(1.0 / max(h, floor))
    total = sum(inv)
    weights = [v / total for v in inv]
    fused = [sum(weights[i] * o[i][j] for i in range(m)) for j in range(d)]
    return fused, max(range(d), key=lambda j: fused[j])


def _brute_cross(o1, o2, k):
    d = len(o1)
    candidates = sorted(range(d), key=lambda j: (-o1[j], j))[:k]
    best_val, best_id = -math.inf, None
    for t in sorted(candidates):
        if o2[t] > best_val:
            best_val, best_id = o2[t], t
    return best_id


def test_criterion_5_aggregation_oracles():
    with criterion(5, "1000 brute-force aggregation checks, tie-breaks, permutations"):
        g = Rng(505).generator()
        for case in range(1000):
            m = 1 + case % 4
            d = int(g.integers(2, 33))
            if case % 2 == 0:
                o = g.standard_normal((m, d)) * 2.0
                tol = 1e-12
            else:
                # quarter-integer lattice: exact sums, frequent ties
                o = g.integers(-8, 9, (m, d)).astype(np.float64) * 0.25
                tol = 0.0
            rows = o.tolist()

            fused, token = mean_logits(o)
            bf, bt = _brute_mean(rows)
            assert token == bt
            assert np.abs(fused - np.array(bf)).max() <= tol

            fused_w, token_w = confidence_weighted(o)
            bfw, btw = _brute_confidence(rows)
            assert token_w == btw
            assert np.abs(fused_w - np.array(bfw)).max() <= 1e-9

            if m >= 2:
                k = int(g.integers(1, d + 1))
                assert cross_refine(o[0], o[1], k) == _brute_cross(rows[0], rows[1], k)

            if m >= 2:
                perm = g.permutation(m)
                pf, pt = mean_logits(o[perm])
                assert np.array_equal(pf, fused) and pt == token
                pfw, ptw = confidence_weighted(o[perm])
                assert np.array_equal(pfw, fused_w) and ptw == token_w

        # cross-refinement is deliberately order-sensitive: a concrete witness
        o1 = np.array([3.0, 0.0, 0.0])
        o2 = np.array([0.0, 0.0, 3.0])
        assert cross_refine(o1, o2, 1) == 0
        assert cross_refine(o2, o1, 1) == 2

        # k=1 and k=D reductions hold exactly
        for _ in range(200):
            a, b = g.standard_normal(16), g.standard_normal(16)
            assert cross_refine(a, b, 1) == int(np.argmax(a))
            assert cross_refine(a, b, 16) == int(np.argmax(b))


def test_criterion_6_baseline_reduction():
    with criterion(6, "m=1, alpha=1 decode token-identical to direct greedy, 20 tasks"):
        total_frames, tokens_per_frame = 12, 4
        model = build_model(DESK)
        for seed in range(20):
            task = gen_task(
                total_frames, tokens_per_frame, 1, seed=seed, model=DESK
            )
            sampler = SamplerConfig(
                total_frames=total_frames,
                frames_per_trial=total_frames,
                tokens_per_frame=tokens_per_frame,
                trials=1,
                ratios=(1.0,),
            )
            plans = build_trial_plans(sampler, Rng(seed, 77))
            for strategy in (MeanLogits(), ConfidenceWeighted()):
                via_trials = decode(
                    model, plans, task.video, list(task.question), 5, strategy
                )
                direct = baseline_greedy_decode(
                    model, task.video, list(task.question), 5
                )
                assert via_trials == direct, (seed, strategy)


def test_criterion_7_byte_identical_outputs(tmp_path, run_cli):
    with criterion(7, "repeated run/sweep/coverage invocations byte-identical"):
        cfg = ExperimentConfig(
            sampler=SamplerConfig(
                total_frames=32,
                frames_per_trial=8,
                tokens_per_frame=4,
                trials=2,
                ratios=(0.5, 0.5),
            ),
            model=replace(DESK, layers=2, max_positions=4096),
            strategy=MeanLogits(),
            task=TaskParams(needle_count=1, noise_scale=0.1, question_len=3),
            repeats=40,
            seed=123,
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config_to_dict(cfg)))

        def invoke(*args):
            res = run_cli(*args, cwd=tmp_path)
            assert res.returncode == 0, res.stderr

        outputs = {}
        for attempt in ("a", "b"):
            base = tmp_path / attempt
            invoke(
                "run", "--config", str(config_path),
                "--out-dir", str(base / "run"), "--format", "json",
            )
            invoke(
                "sweep", "--axis", "m_values", "--config", str(config_path),
                "--out-dir", str(base / "sweep"), "--plots", "on",
            )
            invoke(
                "coverage", "--config", str(config_path),
                "--out-dir", str(base / "cov"), "--draws", "10000",
            )
            outputs[attempt] = {
                "run": (base / "run" / "report.json").read_bytes(),
                "sweep": (base / "sweep" / "sweep_m_values.csv").read_bytes(),
                "plot": (base / "sweep" / "m_scaling.svg").read_bytes(),
                "coverage": (base / "cov" / "coverage.json").read_bytes(),
            }
        for name in outputs["a"]:
            assert outputs["a"][name] == outputs["b"][name], f"{name} differs"
