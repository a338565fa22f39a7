"""Cost-accounting tests: worked arithmetic points, surface shape, exact pair
ratios, and first-token measurement."""

import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np
import pytest

from t3s import costmodel, toymodel
from t3s.costmodel import (
    CostReport,
    exact_pair_ratio,
    measure,
    theoretical_costs,
)
from t3s.errors import ContractError
from t3s.numkernel import Rng
from t3s.packer import pack
from t3s.sampler import SamplerConfig, TrialPlan, build_trial_plans
from t3s.toymodel import ModelConfig, NeedleProbe, VideoTokenStream, build_model

CFG = ModelConfig(layers=2, model_dim=16, heads=2, vocab=16, max_positions=8192, init_seed=2)


def _setup(total_frames=16, tokens_per_frame=4, per_trial=16, ratios=(0.5, 0.3), seed=0):
    video = VideoTokenStream(total_frames, tokens_per_frame, CFG.model_dim, Rng(seed).key)
    L = per_trial * tokens_per_frame
    full = TrialPlan(
        np.arange(per_trial, dtype=np.int64), np.arange(L, dtype=np.int64), 1.0
    )
    baseline = pack([full], video, [])
    sampler = SamplerConfig(
        total_frames=total_frames,
        frames_per_trial=per_trial,
        tokens_per_frame=tokens_per_frame,
        trials=len(ratios),
        ratios=ratios,
    )
    plans = build_trial_plans(sampler, Rng(seed, 1))
    multi = pack(plans, video, [])
    return video, baseline, multi, plans, L


class TestTheoreticalCosts:
    def test_worked_point_point_six_squared(self):
        base, multi, speedup = theoretical_costs(1000, [0.6, 0.6])
        assert multi / base == 0.72  # exact in binary floating point
        assert abs(speedup - 1.0 / 0.72) < 1e-12

    def test_identity_ratio(self):
        base, multi, speedup = theoretical_costs(64, [1.0])
        assert multi == base
        assert speedup == 1.0

    def test_reference_ratios(self):
        _, _, speedup = theoretical_costs(4096, [0.5, 0.3])
        assert abs(speedup - 1.0 / (0.5**2 + 0.3**2)) < 1e-12
        assert abs(speedup - 2.9411764705882355) < 1e-12

    def test_savings_iff_sum_of_squares_below_one(self):
        for alphas in ([0.9, 0.5], [0.71, 0.71], [1.0], [0.4, 0.4, 0.4]):
            base, multi, _ = theoretical_costs(100, alphas)
            assert (multi < base) == (sum(a * a for a in alphas) < 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ContractError):
            theoretical_costs(0, [0.5])
        with pytest.raises(ContractError):
            theoretical_costs(10, [0.0])
        with pytest.raises(ContractError):
            theoretical_costs(10, [1.5])


class TestSpeedupSurface:
    def test_strictly_decreasing_in_each_ratio(self):
        grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        for a2 in grid:
            speedups = [theoretical_costs(64, [a1, a2])[2] for a1 in grid]
            assert all(b < a for a, b in zip(speedups, speedups[1:]))
        for a1 in grid:
            speedups = [theoretical_costs(64, [a1, a2])[2] for a2 in grid]
            assert all(b < a for a, b in zip(speedups, speedups[1:]))

    def test_equal_ratio_diagonal(self):
        for a in (0.3, 0.5, 0.9):
            _, _, speedup = theoretical_costs(128, [a, a])
            assert abs(speedup - 1.0 / (2 * a * a)) < 1e-12
        _, _, at_crossing = theoretical_costs(128, [1 / math.sqrt(2)] * 2)
        assert abs(at_crossing - 1.0) < 1e-12


class TestPairCounts:
    def test_single_segment_triangle(self):
        video, baseline, _, _, L = _setup()
        model = build_model(CFG)
        assert (
            model.forward(baseline).pair_count
            == CFG.layers * CFG.heads * L * (L + 1) // 2
        )

    def test_ratio_matches_floor_formula_exactly(self):
        # integer identity: pairs_multi * L(L+1) == pairs_base * sum(l_i(l_i+1))
        for ratios in [(0.5, 0.3), (0.6, 0.6), (0.9, 0.2, 0.4)]:
            _, baseline, multi, _, L = _setup(ratios=ratios)
            probe = NeedleProbe(CFG.vocab, noise_scale=0.0)
            pairs_base = probe.forward(baseline).pair_count
            pairs_multi = probe.forward(multi).pair_count
            num = sum(int(a * L) * (int(a * L) + 1) for a in ratios)
            assert pairs_multi * L * (L + 1) == pairs_base * num
            assert abs(
                pairs_multi / pairs_base - exact_pair_ratio(L, ratios)
            ) < 1e-15

    def test_ratio_uses_exact_floor(self):
        # int(0.29 * 100) is 28; the kept-token count is 29
        assert exact_pair_ratio(100, [0.29]) == 29 * 30 / (100 * 101)

    def test_invariant_under_segment_reordering(self):
        video, _, _, plans, _ = _setup(ratios=(0.7, 0.4, 0.2))
        probe = NeedleProbe(CFG.vocab, noise_scale=0.0)
        forward_order = probe.forward(pack(plans, video, [1])).pair_count
        reverse_order = probe.forward(pack(plans[::-1], video, [1])).pair_count
        assert forward_order == reverse_order


class TestMeasure:
    def test_report_fields_and_bounds(self):
        _, baseline, multi, _, L = _setup()
        probe = NeedleProbe(CFG.vocab, noise_scale=0.0)
        report = measure(probe, baseline, multi, [0.5, 0.3], repeats=3)
        assert report.L == L
        assert report.alpha == [0.5, 0.3]
        assert report.tau1 > 0 and report.tau2 > 0
        assert report.measured_speedup == report.tau1 / report.tau2
        assert report.measured_pairs_multi < report.measured_pairs_base

    def test_repeats_floor(self):
        _, baseline, multi, _, _ = _setup()
        probe = NeedleProbe(CFG.vocab, noise_scale=0.0)
        with pytest.raises(ContractError):
            measure(probe, baseline, multi, [0.5, 0.3], repeats=2)

    def test_baseline_must_be_single_segment(self):
        _, baseline, multi, _, _ = _setup()
        probe = NeedleProbe(CFG.vocab, noise_scale=0.0)
        with pytest.raises(ContractError):
            measure(probe, multi, multi, [0.5, 0.3], repeats=3)


def _backend(kind):
    return build_model(CFG) if kind == "transformer" else NeedleProbe(CFG.vocab, noise_scale=0.1)


def logged(backend, log, names):
    """`backend` with the sequence each `last_logits` call reads logged as
    its name in `names`."""
    last_logits = backend.last_logits

    def logged_last_logits(packed, cache=None):
        log.append(names[id(packed)])
        return last_logits(packed, cache)

    backend.last_logits = logged_last_logits
    return backend


@pytest.mark.parametrize("kind", ["transformer", "probe"])
class TestMeasureForwards:
    def test_no_forward_without_repeats(self, kind):
        _, baseline, multi, _, _ = _setup()
        log = []
        backend = logged(_backend(kind), log, {id(baseline): "base", id(multi): "multi"})
        report = measure(backend, baseline, multi, [0.5, 0.3])
        assert log == []
        assert report.measured_pairs_base == backend.forward(baseline).pair_count
        assert report.measured_pairs_multi == backend.forward(multi).pair_count

    def test_pair_count_equals_forward(self, kind):
        _, baseline, multi, _, _ = _setup()
        backend = _backend(kind)
        for packed in (baseline, multi):
            assert backend.pair_count(packed) == backend.forward(packed).pair_count

    def test_one_untimed_forward_per_path_first(self, kind, monkeypatch):
        _, baseline, multi, _, _ = _setup()
        log = []
        backend = logged(_backend(kind), log, {id(baseline): "base", id(multi): "multi"})
        clock = iter(range(1, 100))

        def perf_counter():
            log.append("clock")
            return float(next(clock))

        monkeypatch.setattr(costmodel, "time", SimpleNamespace(perf_counter=perf_counter))
        measure(backend, baseline, multi, [0.5, 0.3], repeats=3)
        timed = ["clock", "base", "clock", "clock", "multi", "clock"]
        assert log == ["base", "multi"] + timed * 3


def test_probe_timing_draws_noise_for_last_rows_only(monkeypatch):
    # tau1/tau2 time the path experiments run: the probe draws noise for
    # each segment's last row, never a (total, vocab) table
    _, baseline, multi, _, _ = _setup()
    rows = []
    noise_logits = toymodel._noise_logits

    def spy(acc, *args):
        rows.append(len(acc))
        return noise_logits(acc, *args)

    monkeypatch.setattr(toymodel, "_noise_logits", spy)
    measure(NeedleProbe(CFG.vocab), baseline, multi, [0.5, 0.3], repeats=3)
    assert rows == [1, 2] * 4


class TestCostReportJson:
    def test_exact_field_names(self):
        report = CostReport(
            L=10,
            alpha=[0.5],
            theoretical_base=100.0,
            theoretical_multi=25.0,
            theoretical_speedup=4.0,
            measured_pairs_base=55,
            measured_pairs_multi=15,
        )
        d = asdict(report)
        assert list(d) == [
            "L",
            "alpha",
            "theoretical_base",
            "theoretical_multi",
            "theoretical_speedup",
            "measured_pairs_base",
            "measured_pairs_multi",
            "tau1",
            "tau2",
            "measured_speedup",
        ]
        assert d["tau1"] is None
