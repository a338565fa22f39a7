#!/usr/bin/env python3
"""t3s benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 perfbench/run.py                    # every workload, each in its own process
    python3 perfbench/run.py --workload ttft_L2048 --seed 3 --seconds 20 --trace 1

Each workload prints its metrics by name with their units, then the last
line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. perfbench/README.md explains the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / "perfbench" / "out"

BLAS_THREADS = 1  # pinned before numpy loads; at most nproc
TAIL_PERCENTILE = 75
MIN_OP_SAMPLES = 40  # leaves at least ten samples beyond the tail percentile
MIN_REF_SAMPLES = 5
SETUP_REPEATS = 5
MAX_MEASURE_SECONDS = 70  # per phase, so a traced run ends within 180 s even if ops fail
# Time of calibrate() on the reference machine (2 vCPUs, Python 3.11, numpy
# 2.4 with OpenBLAS 0.3.31). Timings are scaled by CAL_REF_S / calibrate().
CAL_REF_S = 0.008


def bootstrap() -> None:
    """Pin BLAS threads and put this checkout's t3s sources on the path."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    if not (SRC / "t3s" / "__init__.py").is_file():
        sys.exit(f"perfbench: no t3s sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import t3s

    if Path(t3s.__file__).resolve().parent != SRC / "t3s":
        sys.exit(f"perfbench: imported t3s from {t3s.__file__}, not from {SRC}")


class Tally:
    """Counts attempted operations and those that raised or failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run(self, label, fn):
        self.attempted += 1
        try:
            return fn()
        except Exception:  # a failed operation is counted and reported, not fatal
            self.failed += 1
            print(f"FAILED {label}:\n{traceback.format_exc(limit=4)}", file=sys.stderr)
            return None


def calibrate() -> float:
    """Seconds for a fixed kernel that shares no code with t3s: a 512x512
    float64 matmul and small numpy ufuncs. On a VM shared with other tenants
    the CPU's speed drifts by +-25% over seconds; timing this kernel next to
    every sample and scaling by it cancels most of that drift."""
    import numpy as np

    a = np.linspace(-1.0, 1.0, 512 * 512).reshape(512, 512)
    b = np.linspace(-1.0, 1.0, 64 * 64).reshape(64, 64)
    start = time.perf_counter()
    a @ a
    x = b
    for _ in range(120):
        x = np.tanh(x * 0.5 + b)
    return time.perf_counter() - start


def percentile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))
    return ordered[rank - 1]


def timed(fn):
    """(seconds fn reports, mean calibrate() seconds before and after it)."""
    before = calibrate()
    seconds = fn()
    return seconds, (before + calibrate()) / 2


def measure(workload, seconds, tracer, tally, min_ops, min_refs):
    """Closed loop over cycles until `seconds` have passed and both sample
    counts are reached. Returns (op samples, ref samples), each sample
    (seconds, calibration seconds around it, units)."""
    ops, refs = [], []
    start = time.perf_counter()
    cycle = 0
    while True:
        check = cycle % workload.check_every == 0
        inputs = tally.run(f"prepare {cycle}", lambda: workload.prepare(cycle, tracer))
        if inputs is not None:
            for kind, count, call, units, samples in (
                ("op", workload.ops, workload.op, workload.op_units, ops),
                ("ref", workload.refs, workload.ref, workload.ref_units, refs),
            ):
                for j in range(count):
                    sample = tally.run(
                        f"{kind} {cycle}.{j}",
                        lambda: timed(lambda: call(inputs, j, tracer, check and j == 0)),
                    )
                    if sample is not None:
                        samples.append((*sample, units))
        cycle += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_SECONDS:
            break
        if elapsed >= seconds and len(ops) >= min_ops and len(refs) >= min_refs:
            break
    return ops, refs


def warm_up(workload, tally) -> None:
    """One untimed op and ref, so lazy set-up and caches are done before timing."""
    from spans import NULL

    inputs = tally.run("warmup prepare", lambda: workload.prepare(1 << 31, NULL))  # no measured cycle's index
    if inputs is not None:
        tally.run("warmup op", lambda: workload.op(inputs, 0, NULL, False))
        tally.run("warmup ref", lambda: workload.ref(inputs, 0, NULL, False))


def per_unit_ms(samples, normalized=True):
    """Milliseconds per unit, scaled to the reference machine's speed."""
    return [1000.0 * s / units * (CAL_REF_S / cal if normalized else 1.0)
            for s, cal, units in samples]


def measure_setup(workload, repeats) -> float:
    """Median wall time of a fresh interpreter that imports t3s and sets the
    workload up: the start-up a user of the engine pays."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import t3s; {workload.setup_code}"
    times = []
    for _ in range(repeats):
        seconds, cal = timed(lambda: _time_setup(code))
        times.append(seconds * CAL_REF_S / cal)
    return statistics.median(times)


def _time_setup(code: str) -> float:
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code], check=True, cwd=ROOT, timeout=60,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def provenance(seed: int) -> dict:
    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads_pinned": BLAS_THREADS,
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True, timeout=30,
    )
    return out.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "t3s").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident memory of this process's own address space. Linux
    carries a parent's RSS into a child's ru_maxrss across exec, so a run
    started by a large process would report that process's peak; VmHWM
    starts afresh at exec. ru_maxrss is the fallback where there is no
    /proc."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(ops, refs, setup_s) -> dict:
    op_ms, ref_ms = per_unit_ms(ops), per_unit_ms(refs)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "op_ms.p50": (statistics.median(op_ms), "ms"),
        "op_ms.tail": (percentile(op_ms, TAIL_PERCENTILE), "ms"),
        "ops_per_s": (1000.0 * len(op_ms) / sum(op_ms), "1/s"),
        "ref_ms.p50": (statistics.median(ref_ms), "ms"),
    }


# per-layer metric -> span name; each is the median self time of one call
LAYER_SPANS = {
    "harness.gen_task.ms": "harness.gen_task",
    "sampler.build_trial_plans.ms": "sampler.build_trial_plans",
    "sampler.sample_frame_indices.ms": "sampler.sample_frame_indices",
    "packer.pack.ms": "packer.pack",
    "packer.append_token.ms": "packer.append_token",
    "toymodel.forward.ms": "toymodel.forward",
    "toymodel.forward.base_ms": "toymodel.forward_base",
    "aggregator.fuse_token.ms": "aggregator.fuse_token",
    "numkernel.layer_norm.ms": "numkernel.layer_norm",
}


def per_layer_metrics(workload, tracer, untraced, traced) -> dict:
    self_ms = {name: [1000.0 * s for s in v] for name, v in tracer.self_by_name().items()}
    out = {}
    for metric, span in LAYER_SPANS.items():
        out[metric] = (statistics.median(self_ms[span]), "ms")

    op, base = workload.op_pass, workload.base_pass
    out["harness.gen_task.frames_used_ratio"] = (statistics.fmean(workload.frames_used), "ratio")
    out["packer.pack.tokens"] = (op.tokens, "count")
    for prefix, p in (("", op), ("base_", base)):
        out[f"toymodel.forward.{prefix}tokens"] = (p.tokens, "count")
        out[f"toymodel.forward.{prefix}pairs"] = (p.pairs, "count")
        out[f"toymodel.forward.{prefix}linear_flops"] = (p.linear_flops, "flop")
        out[f"toymodel.forward.{prefix}attn_flops"] = (p.attn_flops, "flop")
    out["toymodel.forward.tokens_per_new_token"] = (
        workload.forward_tokens / workload.new_tokens, "count")
    out["numkernel.layer_norm.calls_per_forward"] = (workload.layer_norm_calls, "count")

    theoretical, pair_ratio = workload.theory()
    measured = out["toymodel.forward.base_ms"][0] / out["toymodel.forward.ms"][0]
    out["costmodel.theoretical_speedup"] = (theoretical, "x")
    out["costmodel.exact_pair_ratio"] = (pair_ratio, "ratio")
    out["costmodel.speedup_measured"] = (measured, "x")
    out["costmodel.speedup_efficiency"] = (measured / theoretical, "ratio")

    for kind in ("op", "ref"):
        plain = statistics.median(per_unit_ms(untraced[kind]))
        with_spans = statistics.median(per_unit_ms(traced[kind]))
        share = statistics.median(tracer.layer_shares(kind))
        out[f"trace.{kind}_overhead_pct"] = (100.0 * (with_spans - plain) / plain, "%")
        # summed layer self times, as a share of the untraced op time
        out[f"trace.{kind}_accounted_pct"] = (100.0 * share * with_spans / plain, "%")
    return out


def run_workload(name, seed, seconds, trace, tiny) -> dict:
    """Run one workload and print its report; returns the result object."""
    import workloads as wl
    from spans import NULL, Tracer

    cls = wl.WORKLOADS[name]
    workload = cls(seed, wl.TINY_SIZES[name]) if tiny else cls(seed)
    min_ops, min_refs, setup_repeats = (2, 1, 1) if tiny else (MIN_OP_SAMPLES, MIN_REF_SAMPLES, SETUP_REPEATS)
    prov = provenance(seed)
    print(f"== {name} seed={seed} seconds={seconds} trace={trace}")
    print(f"provenance {json.dumps(prov, sort_keys=True)}")

    setup_s = None if trace else measure_setup(workload, setup_repeats)
    tally = Tally()
    warm_up(workload, tally)
    ops, refs = measure(workload, seconds, NULL, tally, min_ops, min_refs)
    if not ops or not refs:
        sys.exit(f"perfbench: {name} completed no timed operation")
    if trace:
        tracer = Tracer()
        t_ops, t_refs = measure(workload, seconds, tracer, tally, min_ops, min_refs)
        if not t_ops or not t_refs:
            sys.exit(f"perfbench: {name} completed no traced operation")
        trace_path = TRACE_DIR / f"{name}-seed{seed}.trace.jsonl"
        tracer.write_jsonl(trace_path)
    notes = workload.finish(tally, tracer if trace else NULL)

    if trace:
        metrics = per_layer_metrics(workload, tracer, {"op": ops, "ref": refs}, {"op": t_ops, "ref": t_refs})
        plain = statistics.median(per_unit_ms(ops))
        traced = statistics.median(per_unit_ms(t_ops))
        notes.append(f"tracing overhead per op: {traced - plain:+.3f} ms "
                     f"(untraced {plain:.3f} ms, traced {traced:.3f} ms); spans in {trace_path.name}")
    else:
        metrics = end_to_end_metrics(ops, refs, setup_s)
        for metric, alias in workload.aliases.items():
            notes.append(f"{metric} is {alias}")
        notes.append(f"op_ms.tail is p{TAIL_PERCENTILE} of {len(ops)} op samples; "
                     f"ref_ms.p50 is over {len(refs)} ref samples")
        raw_op = statistics.median(per_unit_ms(ops, normalized=False))
        raw_ref = statistics.median(per_unit_ms(refs, normalized=False))
        cal_ms = 1000.0 * statistics.median(cal for _, cal, _ in ops + refs)
        notes.append(f"unscaled wall clock: op {raw_op:.6g} ms, ref {raw_ref:.6g} ms per unit; "
                     f"calibrate() median {cal_ms:.4g} ms against {1000.0 * CAL_REF_S:g} ms")
    for label, p in (("op pass", workload.op_pass), ("base pass", workload.base_pass)):
        if p is not None:
            notes.append(f"{label}: {p.visual} visual + {p.text} text = {p.tokens} tokens")
    notes.append(f"error_rate {tally.failed / tally.attempted:.6g} ({tally.failed}/{tally.attempted})")

    width = max(len(m) for m in metrics)
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<{width}}  {value:>16.6g} {unit}")
    for line in notes:
        print(f"  {line}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_child(name, args) -> dict:
    """Run one workload in a fresh interpreter, so that its peak memory and
    its caches are its own; echo its report and return its result."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(proc.stdout, end="")
        sys.exit(f"perfbench: workload {name} exited with code {proc.returncode}")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="one workload; default runs each in its own process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes and sample counts, for the benchmark's own tests")
    args = parser.parse_args(argv)
    bootstrap()
    import workloads as wl

    if args.workload is not None and args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(wl.WORKLOADS)}")
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace, args.tiny)
    else:
        results = {n: run_child(n, args) for n in wl.WORKLOADS}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
