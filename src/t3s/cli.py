"""Command-line driver: run / sweep / coverage / bench.

Exit codes: 0 success, 2 config validation failure, 1 runtime failure. A
stdout whose reader has closed it is not a failure: the command's output
files are written and its status returned as before.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import costmodel
from .errors import ConfigError
from .harness import (
    CSV_COLUMNS,
    SWEEP_AXES,
    ExperimentConfig,
    config_from_dict,
    coverage_report,
    default_experiment_config,
    report_csv_row,
    run_experiment,
    sweep,
)
from .plots import render_heatmap, render_line_chart
from .sampler import FrameMethod
from .toymodel import BLAS_THREAD_VARS, attention_workers


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, rows: list[dict], columns: list[str]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _say(*parts) -> None:
    """Print `parts` to stdout. Once stdout's reader has closed it, stdout
    points at os.devnull instead, so the command still runs to its end and
    returns its own status, and the flush at exit prints nothing."""
    try:
        print(*parts, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load_config(args) -> ExperimentConfig:
    if args.config:
        try:
            data = json.loads(Path(args.config).read_text())
        except (OSError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        cfg = config_from_dict(data)
    else:
        cfg = default_experiment_config()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _out_dir(args) -> Path:
    """--out-dir, created with its parents if missing."""
    out = Path(args.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out-dir {args.out_dir}: {exc}") from exc
    return out


def _cmd_run(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    report = run_experiment(cfg)
    if args.format == "json":
        _write_json(out / "report.json", asdict(report))
    else:
        _write_csv(out / "report.csv", [report_csv_row("", "", report)], CSV_COLUMNS)
    _say(f"accuracy={report.accuracy:.4f} coverage={report.any_trial_coverage:.4f}")
    return 0


_PLOT_FILES = {
    "alpha_grid": "speedup_heatmap.svg",
    "m_values": "m_scaling.svg",
    "k_values": "topk_sweep.svg",
}


def _emit_sweep_plots(axis: str, rows: list[dict], out: Path) -> None:
    """The axis's SVG, drawn from the rows that succeeded; none if no row did."""
    name = _PLOT_FILES.get(axis)
    ok = [r for r in rows if not r["error"]]
    if name is None or not ok:
        return
    if axis == "alpha_grid":
        a1s = sorted({float(r["point"].split(",")[0]) for r in ok})
        a2s = sorted({float(r["point"].split(",")[1]) for r in ok})
        lookup = {
            (float(r["point"].split(",")[0]), float(r["point"].split(",")[1])): float(
                r["theoretical_speedup"]
            )
            for r in ok
        }
        grid = [[lookup.get((a1, a2)) for a2 in a2s] for a1 in a1s]
        render_heatmap(
            out / name,
            [f"{a:g}" for a in a2s],
            [f"{a:g}" for a in a1s],
            grid,
            title="theoretical speedup",
            x_label="ratio of trial 2",
            y_label="ratio of trial 1",
        )
    else:
        xs = [float(r["point"].split("=")[1]) for r in ok]
        acc = [float(r["accuracy"]) for r in ok]
        label = "trials" if axis == "m_values" else "top-k"
        render_line_chart(
            out / name,
            xs,
            acc,
            title=f"accuracy vs {label}",
            x_label=label,
            y_label="accuracy",
        )


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    out = _out_dir(args)
    rows = sweep(args.axis, cfg)
    _write_csv(out / f"sweep_{args.axis}.csv", rows, CSV_COLUMNS)
    if args.format == "json":
        _write_json(out / f"sweep_{args.axis}.json", rows)
    if args.plots == "on":
        _emit_sweep_plots(args.axis, rows, out)
    failed = sum(1 for r in rows if r["error"])
    _say(f"{len(rows)} points, {failed} failed -> {out / f'sweep_{args.axis}.csv'}")
    return 0


def _cmd_coverage(args) -> int:
    cfg = _load_config(args)
    s = cfg.sampler
    # the closed form and the Monte-Carlo draws assume independent random frames
    if s.frame_method is not FrameMethod.RANDOM or s.reuse_frames:
        raise ConfigError(
            "coverage needs sampler.frame_method 'random' and sampler.reuse_frames "
            f"false, got {s.frame_method.value!r} and {str(s.reuse_frames).lower()}"
        )
    if args.draws < 10000:
        raise ConfigError(f"--draws must be >= 10000, got {args.draws}")
    out = _out_dir(args)
    rep = coverage_report(
        s.total_frames, s.frames_per_trial, s.trials, args.draws, seed=cfg.seed
    )
    d = asdict(rep)
    if args.format == "json":
        _write_json(out / "coverage.json", d)
    else:
        _write_csv(out / "coverage.csv", [{k: str(v) for k, v in d.items()}], list(d))
    _say(
        f"empirical={rep.empirical:.4f} closed_form={rep.closed_form:.4f} "
        f"z={rep.z_score:+.2f}"
    )
    return 0


def _cmd_bench(args) -> int:
    cfg = replace(_load_config(args), backend="seeded_transformer", repeats=1)
    if args.repeats < 3:
        raise ConfigError(f"--repeats must be >= 3, got {args.repeats}")
    out = _out_dir(args)
    report = run_experiment(cfg, latency_repeats=args.repeats)
    cost = report.cost
    _write_json(out / "cost_report.json", asdict(cost))
    if args.format == "csv":
        _write_csv(out / "cost_report.csv", [report_csv_row("", "", report)], CSV_COLUMNS)
    _say(
        f"theoretical={cost.theoretical_speedup:.3f}x "
        f"measured={cost.measured_speedup:.3f}x "
        f"(tau1={cost.tau1 * 1e3:.1f}ms tau2={cost.tau2 * 1e3:.1f}ms)"
    )
    # the machine the timings came from (the CPUs this process may run on,
    # which `attention_workers` counts too), the attention workers its BLAS
    # threads leave, and the page faults of a timed pass; stdout only, so
    # no report changes
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = [f"{n}={os.environ.get(n, 'unset')}" for n in BLAS_THREAD_VARS]
    _say(
        f"nproc={len(os.sched_getaffinity(0))} blas={blas['name']} {blas['version']}",
        *threads,
        f"attention_workers={attention_workers()}",
        f"minflt_per_pass={costmodel.last_faults_per_pass:.0f}",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="t3s",
        description="Multi-trial temporal sampling experiments at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out-dir", default="out", help="output directory")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p_run = sub.add_parser("run", help="one experiment (accuracy + cost report)")
    common(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="grid of experiments along one axis")
    common(p_sweep)
    p_sweep.add_argument("--axis", choices=SWEEP_AXES, required=True)
    p_sweep.add_argument("--plots", choices=("on", "off"), default="off")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_cov = sub.add_parser("coverage", help="Monte-Carlo vs closed-form coverage")
    common(p_cov)
    p_cov.add_argument("--draws", type=int, default=10000)
    p_cov.set_defaults(fn=_cmd_coverage)

    p_bench = sub.add_parser("bench", help="first-token latency measurement")
    common(p_bench)
    p_bench.add_argument("--repeats", type=int, default=5, help="timing repeats")
    p_bench.set_defaults(fn=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
