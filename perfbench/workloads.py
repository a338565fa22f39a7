"""The benchmark's three workloads, driven through t3s's public functions.

Every workload is a closed loop with a single caller. A cycle prepares one
seeded input, then runs `ops` timed operations and `refs` timed reference
operations on it (see README.md for what each one is). Untraced, an
operation is the call a user of t3s would make. Traced, the same operation is
replayed call by call from the layers' public functions, with a span around
each call; on check cycles the replay and the direct call must agree exactly.

Inputs come only from the run's seed. The engine sees only those inputs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from t3s import (
    ConfidenceWeighted,
    CrossRefine,
    MeanLogits,
    ModelConfig,
    Rng,
    SamplerConfig,
    TrialPlan,
    append_token,
    build_model,
    build_trial_plans,
    coverage_report,
    decode,
    default_experiment_config,
    exact_pair_ratio,
    fuse_token,
    gen_task,
    last_positions,
    pack,
    run_experiment,
    sample_frame_indices,
    slice_segment,
    theoretical_costs,
)
from t3s import toymodel
from t3s.harness import _task_seed, probe_for_task  # run_experiment's per-repeat seed rule
from t3s.numkernel import layer_norm
from t3s.sampler import FrameMethod

from spans import NULL

# The seeded transformer of ROADMAP's measurements: 4 layers, d=64, 4 heads.
DESK = ModelConfig(layers=4, model_dim=64, heads=4, vocab=64, max_positions=16384)
DESK_SETUP = f"t3s.build_model(t3s.{DESK!r})"
SOLO_TOLERANCE = 1e-9
COVERAGE_Z_LIMIT = 3.0
COVERAGE_DRAWS = 10000  # coverage_report's minimum
# Traced span around run_experiment's cost report; its children are layer calls.
COST_REPORT_SPAN = "harness.cost_report"
DECODE_TRIALS = 8


class CheckFailed(Exception):
    """An output of t3s disagreed with what the benchmark expects."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def derive(seed: int, *path: int) -> int:
    """A 64-bit seed for one input, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)[0])


def check_pairs(pair_count: int, packed, per_segment_pair_factor: int) -> None:
    """pair_count == layers * heads * sum l(l+1)/2 over the packed segments."""
    want = per_segment_pair_factor * sum(s.length * (s.length + 1) // 2 for s in packed.segments)
    require(pair_count == want, f"pair_count {pair_count} != {want}")


def count_layer_norm_calls(model, packed) -> int:
    """layer_norm calls made by one untimed forward of `model` on `packed`."""
    original = toymodel.layer_norm
    calls = 0

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return original(*args, **kwargs)

    toymodel.layer_norm = counted
    try:
        model.forward(packed)
    finally:
        toymodel.layer_norm = original
    return calls


def check_solo(model, packed, logits) -> None:
    """Packed last-position logits equal each segment's solo forward."""
    for k, pos in enumerate(last_positions(packed)):
        solo = model.forward(slice_segment(packed, k)).logits[-1]
        diff = float(np.max(np.abs(solo - logits[pos])))
        require(
            diff <= SOLO_TOLERANCE,
            f"segment {k}: packed and solo last logits differ by {diff:.3g}",
        )


@dataclass(frozen=True)
class Pass:
    """Layout and computed cost of one forward pass."""

    visual: int
    text: int
    pairs: int
    linear_flops: int
    attn_flops: int

    @property
    def tokens(self) -> int:
        return self.visual + self.text


def describe_pass(packed, pairs: int, model: ModelConfig | None) -> Pass:
    """Token counts from the packed layout; FLOPs of the transformer's matmuls
    (zero for the needle probe, which has none)."""
    visual = int((packed.token_ids < 0).sum())
    tokens = packed.total_length
    if model is None:
        return Pass(visual, tokens - visual, pairs, 0, 0)
    d, head_dim = model.model_dim, model.model_dim // model.heads
    # per layer: Q, K, V, out (4 d*d) and the 4x MLP (8 d*d); then unembedding
    linear = 2 * tokens * (12 * d * d * model.layers + d * model.vocab)
    # per allowed (query, key, head): q.k and the weighted sum of v
    return Pass(visual, tokens - visual, pairs, linear, 4 * head_dim * pairs)


class Workload:
    """Shared bookkeeping; subclasses define prepare, op and ref."""

    name: str
    ops: int  # timed operations per cycle
    refs: int  # timed reference operations per cycle
    check_every: int  # cycles between full correctness checks
    setup_code: str  # run after `import t3s` to set the workload up
    aliases: dict[str, str]  # end-to-end metric -> its workload-specific name
    transformer_config: ModelConfig | None = DESK  # None: the needle probe
    sampler: SamplerConfig

    def __init__(self, seed: int):
        self.seed = seed
        self.op_pass: Pass | None = None
        self.base_pass: Pass | None = None
        self.frames_used: list[float] = []
        self.forward_tokens = 0
        self.new_tokens = 0
        self.layer_norm_calls: int | None = None  # counted once, in a traced run

    @property
    def pair_factor(self) -> int:
        """Attention pairs per causal (query, key) pair: layers * heads."""
        cfg = self.transformer_config
        return 1 if cfg is None else cfg.layers * cfg.heads

    def note_frames(self, plans) -> None:
        """Share of the video's frames (and so of its synthesized normals)
        that any trial samples."""
        used = set()
        for p in plans:
            used.update(int(f) for f in p.frame_indices)
        self.frames_used.append(len(used) / self.sampler.total_frames)

    def replay_frame_draws(self, rng: Rng, plans, tracer, req) -> None:
        """Time the frame draws build_trial_plans made, on the same streams."""
        s = self.sampler
        for i, plan in enumerate(plans):
            with tracer.span("sampler.sample_frame_indices", req):
                frames = sample_frame_indices(
                    s.total_frames, s.frames_per_trial, s.frame_method, rng.child(2 * i)
                )
            require(np.array_equal(frames, plan.frame_indices), f"trial {i} frames differ")

    def replay_layer_norm(self, model, packed, tracer, req) -> None:
        """Time one layer_norm on the (tokens, d) shape of this workload's
        pass; on the first call, also count the layer_norm calls of the
        pass's forward."""
        with tracer.span("numkernel.layer_norm", req):
            layer_norm(packed.embeddings)
        if self.layer_norm_calls is None:
            self.layer_norm_calls = count_layer_norm_calls(model, packed)

    def replay_append(self, packed, token: int, tracer, req) -> None:
        """Time extending this workload's packed pass by its fused token."""
        with tracer.span("packer.append_token", req):
            append_token(packed, token, max_positions=DESK.max_positions)

    def finish(self, tally, tracer) -> list[str]:
        """Checks over the whole run; returns lines to print."""
        return []

    def theory(self) -> tuple[float, float]:
        """(theoretical speedup, exact pair ratio) for the op's trials."""
        s = self.sampler
        return (
            theoretical_costs(s.tokens_per_trial, s.ratios)[2],
            exact_pair_ratio(s.tokens_per_trial, s.ratios),
        )


# ---------------------------------------------------------------------------
# probe_accuracy: the paper's accuracy and coverage loop, no transformer


@dataclass(frozen=True)
class ProbeSizes:
    total_frames: int = 256
    frames_per_trial: int = 64
    tokens_per_frame: int = 16
    repeats: int = 20  # tasks per run_experiment call


class ProbeAccuracy(Workload):
    name = "probe_accuracy"
    ops, refs, check_every = 1, 1, 16
    setup_code = "t3s.default_experiment_config().validate()"
    aliases = {
        "ops_per_s": "tasks_per_s",
        "ref_ms.p50": "ms per task of the single full-retention trial",
    }
    transformer_config = None

    def __init__(self, seed: int, sizes: ProbeSizes = ProbeSizes()):
        super().__init__(seed)
        base = default_experiment_config()
        self.cfg = replace(
            base,
            sampler=replace(
                base.sampler,
                total_frames=sizes.total_frames,
                frames_per_trial=sizes.frames_per_trial,
                tokens_per_frame=sizes.tokens_per_frame,
            ),
            repeats=sizes.repeats,
        )
        self.cfg.validate()
        # the paper's baseline: one trial keeping every token of its frames
        self.dense_cfg = replace(
            self.cfg,
            sampler=replace(self.cfg.sampler, trials=1, ratios=(1.0,)),
            strategy=MeanLogits(),
        )
        self.dense_cfg.validate()
        self.sampler = self.cfg.sampler
        self.op_units = self.ref_units = sizes.repeats

    def prepare(self, cycle: int, tracer):
        return cycle

    def op(self, cycle, j, tracer, check) -> float:
        return self._run(self.cfg, "", derive(self.seed, cycle, j), cycle, tracer, check)

    def ref(self, cycle, j, tracer, check) -> float:
        return self._run(self.dense_cfg, "_base", derive(self.seed, cycle, self.ops + j), cycle, tracer, check)

    def _run(self, cfg, suffix, seed, cycle, tracer, check) -> float:
        cfg = replace(cfg, seed=seed)
        if tracer.enabled:
            start = time.perf_counter()
            with tracer.span("ref" if suffix else "op", cycle):
                got, probe, packed, token = self._experiment(cfg, suffix, tracer, cycle)
            seconds = time.perf_counter() - start
            want = _summary(run_experiment(cfg)) if check else got
            if not suffix:
                self.replay_append(packed, token, tracer, cycle)
                self.replay_layer_norm(probe, packed, tracer, cycle)
        else:
            start = time.perf_counter()
            got = _summary(run_experiment(cfg))
            seconds = time.perf_counter() - start
            want = self._experiment(cfg, suffix, NULL, cycle)[0] if check else got
        require(got == want, f"run_experiment gave {got}, its replay {want}")
        return seconds

    def _experiment(self, cfg, suffix, tracer, req):
        """run_experiment(cfg) replayed call by call; returns its summary and
        the last task's probe, packed sequence and fused token."""
        s = cfg.sampler
        root = Rng(cfg.seed)
        hits = covered = 0
        first = None
        for rep in range(cfg.repeats):
            with tracer.span("harness.gen_task", req):
                task = gen_task(
                    s.total_frames, s.tokens_per_frame, cfg.task.needle_count,
                    _task_seed(cfg.seed, rep), cfg.model,
                    noise_scale=cfg.task.noise_scale, question_len=cfg.task.question_len,
                )
            probe = probe_for_task(task, cfg.model)
            with tracer.span("sampler.build_trial_plans" + suffix, req):
                plans = build_trial_plans(s, root.child(rep))
            with tracer.span("packer.pack" + suffix, req):
                packed = pack(plans, task.video, task.question)
            with tracer.span("toymodel.forward" + suffix, req):
                result = probe.forward(packed)
            with tracer.span("aggregator.fuse_token" + suffix, req):
                token = fuse_token(result.logits[last_positions(packed)], cfg.strategy)
            check_pairs(result.pair_count, packed, self.pair_factor)
            hits += int(token == task.answer)
            needles = list(task.needle_frames)
            covered += int(any(np.isin(p.frame_indices, needles).any() for p in plans))
            if rep == 0:
                first = (task, plans)
            last = (probe, packed, token)
            if not suffix:
                self.note_frames(plans)
                self.forward_tokens += packed.total_length
                self.new_tokens += 1
                self.op_pass = describe_pass(packed, result.pair_count, self.transformer_config)

        # run_experiment's cost report: a full-retention baseline trial on
        # frames drawn from a fixed child stream, and the first task's trials
        task, plans = first
        with tracer.span(COST_REPORT_SPAN, req):
            with tracer.span("sampler.sample_frame_indices", req):
                frames = sample_frame_indices(
                    s.total_frames, s.frames_per_trial, s.frame_method, Rng(cfg.seed).child(10**6)
                )
            with tracer.span("packer.pack_base", req):
                base = pack(
                    [TrialPlan(frames, np.arange(s.tokens_per_trial, dtype=np.int64), 1.0)],
                    task.video, task.question,
                )
            with tracer.span("packer.pack" + suffix, req):
                multi = pack(plans, task.video, task.question)
            probe = probe_for_task(task, cfg.model)
            with tracer.span("toymodel.forward_base", req):
                base_pairs = probe.forward(base).pair_count
            with tracer.span("toymodel.forward" + suffix, req):
                multi_pairs = probe.forward(multi).pair_count
        check_pairs(base_pairs, base, self.pair_factor)
        self.base_pass = describe_pass(base, base_pairs, self.transformer_config)
        summary = (hits / cfg.repeats, covered / cfg.repeats, base_pairs, multi_pairs)
        return (summary, *last)

    def finish(self, tally, tracer):
        """One coverage_report call, checked against its replay and by a
        z-test (which a correct sampler fails by chance in 0.27% of runs).
        Its speed is printed but not bounded: a call takes at least 10000
        draws (about 1.5 s), and so few long samples spread by 7-14% from run
        to run even after calibration. Traced, also the share of op time that
        run_experiment's once-per-call cost report takes."""
        lines = []
        if tracer.enabled:
            share = tracer.child_share("op", COST_REPORT_SPAN)
            lines.append(f"run_experiment's cost report: {100.0 * share:.1f}% of traced op time "
                         f"at {self.cfg.repeats} tasks per call")
        line = tally.run("coverage_report", self._coverage_check)
        return lines + ([line] if line else [])

    def _coverage_check(self) -> str:
        s = self.sampler
        seed = derive(self.seed, 1 << 32)
        start = time.perf_counter()
        report = coverage_report(s.total_frames, s.frames_per_trial, s.trials, COVERAGE_DRAWS, seed=seed)
        seconds = time.perf_counter() - start
        hits = round(report.empirical * report.draws)
        replayed = self._coverage_hits(seed)
        require(hits == replayed, f"coverage_report hit {hits}, its replay {replayed}")
        require(abs(report.z_score) < COVERAGE_Z_LIMIT, f"coverage |z| = {abs(report.z_score):.2f}")
        return (
            f"coverage_report: {report.draws} draws, empirical {report.empirical:.5f}, "
            f"closed form {report.closed_form:.5f}, z {report.z_score:+.2f}, "
            f"{report.draws / seconds:.0f} draws/s unscaled"
        )

    def _coverage_hits(self, seed) -> int:
        """coverage_report's draws replayed call by call; returns the hits."""
        s = self.sampler
        root = Rng(seed)
        hits = 0
        for d in range(COVERAGE_DRAWS):
            draw_rng = root.child(d)
            for t in range(s.trials):
                frames = sample_frame_indices(
                    s.total_frames, s.frames_per_trial, FrameMethod.RANDOM, draw_rng.child(t)
                )
                if (frames == 0).any():
                    hits += 1
                    break
        return hits


def _summary(report):
    c = report.cost
    return (report.accuracy, report.any_trial_coverage, c.measured_pairs_base, c.measured_pairs_multi)


# ---------------------------------------------------------------------------
# ttft_L2048: one long baseline segment against the packed (0.5, 0.3) pass


@dataclass(frozen=True)
class TtftSizes:
    frames: int = 128
    tokens_per_frame: int = 16  # L = 2048


class TtftL2048(Workload):
    name = "ttft_L2048"
    ops, refs, check_every = 2, 1, 4
    setup_code = DESK_SETUP
    aliases = {
        "op_ms.p50": "ttft_packed_ms.p50",
        "op_ms.tail": "ttft_packed_ms.tail",
        "ref_ms.p50": "ttft_base_ms.p50",
    }

    def __init__(self, seed: int, sizes: TtftSizes = TtftSizes()):
        super().__init__(seed)
        self.sizes = sizes
        self.transformer = build_model(DESK)
        self.sampler = SamplerConfig(
            total_frames=sizes.frames, frames_per_trial=sizes.frames,
            tokens_per_frame=sizes.tokens_per_frame, trials=2, ratios=(0.5, 0.3),
        )
        self.full = TrialPlan(
            np.arange(sizes.frames, dtype=np.int64),
            np.arange(self.sampler.tokens_per_trial, dtype=np.int64),
            1.0,
        )
        self.strategy = CrossRefine(2)
        self.op_units = self.ref_units = 1

    def prepare(self, cycle, tracer):
        seed = derive(self.seed, cycle)
        with tracer.span("harness.gen_task", cycle):
            task = gen_task(self.sizes.frames, self.sizes.tokens_per_frame, 1, seed, DESK)
        with tracer.span("sampler.build_trial_plans", cycle):
            plans = build_trial_plans(self.sampler, Rng(seed))
        with tracer.span("packer.pack", cycle):
            multi = pack(plans, task.video, task.question)
        with tracer.span("packer.pack_base", cycle):
            base = pack([self.full], task.video, task.question)
        if tracer.enabled:
            self.replay_frame_draws(Rng(seed), plans, tracer, cycle)
            self.replay_layer_norm(self.transformer, multi, tracer, cycle)
        self.note_frames(plans)
        return cycle, multi, base

    def _first_token(self, packed, strategy, suffix, tracer, req):
        """One τ sample as costmodel defines it: forward start to fused token."""
        start = time.perf_counter()
        with tracer.span("ref" if suffix else "op", req):
            with tracer.span("toymodel.forward" + suffix, req):
                result = self.transformer.forward(packed)
            with tracer.span("aggregator.fuse_token" + suffix, req):
                token = fuse_token(result.logits[last_positions(packed)], strategy)
        seconds = time.perf_counter() - start
        check_pairs(result.pair_count, packed, self.pair_factor)
        return seconds, result, token

    def op(self, inputs, j, tracer, check) -> float:
        cycle, multi, _ = inputs
        seconds, result, token = self._first_token(multi, self.strategy, "", tracer, cycle)
        if check:
            check_solo(self.transformer, multi, result.logits)
        if tracer.enabled:
            self.replay_append(multi, token, tracer, cycle)
        self.op_pass = describe_pass(multi, result.pair_count, self.transformer_config)
        self.forward_tokens += multi.total_length
        self.new_tokens += 1
        return seconds

    def ref(self, inputs, j, tracer, check) -> float:
        cycle, _, base = inputs
        seconds, result, _ = self._first_token(base, MeanLogits(), "_base", tracer, cycle)
        self.base_pass = describe_pass(base, result.pair_count, self.transformer_config)
        return seconds


# ---------------------------------------------------------------------------
# decode_short_trials: many short segments, recomputed every decode step


@dataclass(frozen=True)
class DecodeSizes:
    total_frames: int = 256
    frames_per_trial: int = 32
    tokens_per_frame: int = 16  # alpha=0.1 keeps 51 of 512 tokens per trial
    steps: int = 4


class DecodeShortTrials(Workload):
    name = "decode_short_trials"
    ops, refs, check_every = 2, 1, 4
    setup_code = DESK_SETUP
    aliases = {
        "op_ms.p50": "decode_ms_per_token.p50",
        "op_ms.tail": "decode_ms_per_token.tail",
        "ops_per_s": "decode_tokens_per_s",
        "ref_ms.p50": "dense single-trial ms per token",
    }

    def __init__(self, seed: int, sizes: DecodeSizes = DecodeSizes()):
        super().__init__(seed)
        self.sizes = sizes
        self.transformer = build_model(DESK)
        self.sampler = SamplerConfig(
            total_frames=sizes.total_frames, frames_per_trial=sizes.frames_per_trial,
            tokens_per_frame=sizes.tokens_per_frame, trials=DECODE_TRIALS,
            ratios=(0.1,) * DECODE_TRIALS,
        )
        self.strategy = ConfidenceWeighted()
        self.op_units = self.ref_units = sizes.steps

    def prepare(self, cycle, tracer):
        seed = derive(self.seed, cycle)
        with tracer.span("harness.gen_task", cycle):
            task = gen_task(self.sizes.total_frames, self.sizes.tokens_per_frame, 1, seed, DESK)
        with tracer.span("sampler.build_trial_plans", cycle):
            plans = build_trial_plans(self.sampler, Rng(seed))
        if tracer.enabled:
            self.replay_frame_draws(Rng(seed), plans, tracer, cycle)
        self.note_frames(plans)
        # the paper's baseline: one trial keeping every token of its frames
        dense = TrialPlan(
            plans[0].frame_indices,
            np.arange(self.sampler.tokens_per_trial, dtype=np.int64),
            1.0,
        )
        return cycle, task, plans, dense

    def op(self, inputs, j, tracer, check) -> float:
        cycle, task, plans, _ = inputs
        return self._request(task, plans, self.strategy, "", tracer, cycle, check)

    def ref(self, inputs, j, tracer, check) -> float:
        cycle, task, _, dense = inputs
        return self._request(task, [dense], MeanLogits(), "_base", tracer, cycle, check)

    def _request(self, task, plans, strategy, suffix, tracer, req, check) -> float:
        steps = self.sizes.steps
        args = (self.transformer, plans, task.video, task.question, steps, strategy)
        if tracer.enabled:
            start = time.perf_counter()
            with tracer.span("ref" if suffix else "op", req):
                got, passes = self._decode(plans, task, strategy, suffix, tracer, req)
            seconds = time.perf_counter() - start
            want = decode(*args) if check else got
        else:
            start = time.perf_counter()
            got = decode(*args)
            seconds = time.perf_counter() - start
            want, passes = self._decode(plans, task, strategy, suffix, NULL, req) if check else (got, [])
        require(got == want, f"decode gave {got}, its replay {want}")
        require(len(got) == steps, f"decode returned {len(got)} tokens, not {steps}")
        for packed, result in passes:
            check_pairs(result.pair_count, packed, self.pair_factor)
            if check and packed.num_segments > 1:
                check_solo(self.transformer, packed, result.logits)
        if passes:
            first_packed, first_result = passes[0]
            described = describe_pass(first_packed, first_result.pair_count, self.transformer_config)
            if suffix:
                self.base_pass = described
            else:
                self.op_pass = described
                self.forward_tokens += sum(p.total_length for p, _ in passes)
                self.new_tokens += len(passes)
                if tracer.enabled:
                    self.replay_layer_norm(self.transformer, first_packed, tracer, req)
        return seconds

    def _decode(self, plans, task, strategy, suffix, tracer, req):
        """aggregator.decode replayed call by call; returns the tokens and
        each step's (packed, forward result)."""
        with tracer.span("packer.pack" + suffix, req):
            packed = pack(plans, task.video, task.question)
        tokens, passes = [], []
        for step in range(self.sizes.steps):
            with tracer.span("toymodel.forward" + suffix, req):
                result = self.transformer.forward(packed)
            with tracer.span("aggregator.fuse_token" + suffix, req):
                token = fuse_token(result.logits[last_positions(packed)], strategy)
            tokens.append(token)
            passes.append((packed, result))
            if step + 1 < self.sizes.steps:
                with tracer.span("packer.append_token" + suffix, req):
                    packed = append_token(packed, token, max_positions=self.transformer.max_positions)
        return tokens, passes


WORKLOADS = {w.name: w for w in (ProbeAccuracy, TtftL2048, DecodeShortTrials)}

TINY_SIZES = {
    ProbeAccuracy.name: ProbeSizes(total_frames=16, frames_per_trial=4, tokens_per_frame=4, repeats=3),
    TtftL2048.name: TtftSizes(frames=8, tokens_per_frame=4),
    DecodeShortTrials.name: DecodeSizes(total_frames=16, frames_per_trial=4, tokens_per_frame=4, steps=2),
}
