"""Command-line entry point: runs, sweeps, validation and plot-data export.

Exit codes: 0 success, 1 validation/comparison failure, 2 configuration
error, 3 divergence, 4 internal error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path

import numpy as np

from .config import ConfigError, load_config, parse_overrides, schema_help
from .harness import (
    build_model,
    compute_metrics,
    run_experiment,
    sweep,
    write_log_csv,
    write_metrics_json,
    write_sweep_csv,
)
from .validation import run_all_suites

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_INTERNAL = 4


def _say(args, *msg):
    if not args.quiet:
        print(*msg)


def _load(args):
    overrides = parse_overrides(args.set)
    return load_config(args.config, overrides)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_run(args) -> int:
    cfg = _load(args)
    log = run_experiment(cfg)
    out = _outdir(args)
    write_log_csv(log, out / "log.csv")
    report = compute_metrics(log)
    write_metrics_json(report, out / "metrics.json")
    _say(args, f"wrote {out / 'log.csv'} and {out / 'metrics.json'}")
    _say(
        args,
        f"rms |dq| first/last 20%: {report.rms_dq_first:.6g} / {report.rms_dq_last:.6g}"
        f"  max |tau|: {report.max_torque:.6g}",
    )
    if log.diverged:
        _say(args, f"run diverged at t = {log.divergence_time:.6g} s (truncated log)")
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    try:
        values = [float(v) for v in args.values.split(",")] if args.values.strip() else []
    except ValueError:
        raise ConfigError(f"--values: expected comma-separated numbers, got '{args.values}'") from None
    results = sweep(cfg, args.axis, values)
    if not values:
        _say(args, "empty sweep axis: nothing to do")
    out = _outdir(args)
    write_sweep_csv(args.axis, results, out / "sweep.csv")
    _say(args, f"wrote {out / 'sweep.csv'}")
    for value, rep in results:
        flag = " (diverged)" if rep.diverged else ""
        _say(args, f"  {args.axis} = {value:g}: late-window rms |dq| = {rep.rms_dq_last:.6g}{flag}")
    return EXIT_OK


def cmd_validate(args) -> int:
    model = None
    if args.config is not None or args.set:
        cfg = _load(args)
        model = build_model(cfg)
    results = run_all_suites(model)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} suites passed")
    return EXIT_OK if not failed else EXIT_FAIL


def cmd_pid_compare(args) -> int:
    cfg = _load(args)
    cfg.set("controller", "variant", "pid")
    log_a = run_experiment(cfg)
    cfg_b = cfg.copy()
    cfg_b.set("controller", "variant", "pid_textbook")
    cfg_b.set("controller", "matched_init", "true")  # an option of the reformulated side only
    log_b = run_experiment(cfg_b)
    m = min(log_a.tau.shape[0], log_b.tau.shape[0])
    gap = float(np.max(np.abs(log_a.tau[:m] - log_b.tau[:m])))
    tol = args.tolerance
    print(f"max torque discrepancy over {log_a.t[-1]:.6g} s: {gap:.3e} (tolerance {tol:g})")
    if log_a.diverged or log_b.diverged:
        print("comparison run diverged")
        return EXIT_DIVERGED
    return EXIT_OK if gap <= tol else EXIT_FAIL


def cmd_plot_data(args) -> int:
    src = Path(args.log)
    if not src.is_file():
        raise ConfigError(f"log file not found: {src}")
    try:
        with open(src, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"log file {src} is not UTF-8 text: {exc}") from None
    if not rows:
        raise ConfigError("log file is empty")
    cols = rows[0].keys()

    def series(prefix):
        return sorted(
            (c for c in cols if c.startswith(prefix) and c[len(prefix):].isdigit()),
            key=lambda c: int(c[len(prefix):]),
        )

    # one tracking-error column per joint: dq1 up to the highest joint index
    joints = max([1] + [int(c[len(p):]) for p in ("q", "dq") for c in series(p)])
    dq_cols = [f"dq{i}" for i in range(1, joints + 1)]
    est_cols = series("thetahat") + series("freqhat")
    missing = [c for c in ["t", "V", "Vaux"] + dq_cols if c not in cols]
    if missing:
        raise ConfigError(f"log file {src} lacks the column(s) {', '.join(missing)}")
    # every cell is checked before any file is written
    for line, row in enumerate(rows, start=2):
        for c in ["t", "V", "Vaux"] + dq_cols + est_cols:
            try:
                float(row[c])
            except (TypeError, ValueError):
                raise ConfigError(f"{src}, line {line}: {c} = {row[c]!r} is not a number") from None
    out = _outdir(args)

    def write(name, header, extract):
        path = out / name
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(extract(row)) + "\n")
        _say(args, f"wrote {path}")

    write(
        "tracking_error.csv",
        ["t", "norm_dq"] + dq_cols,
        lambda r: [r["t"], repr(math.sqrt(sum(float(r[c]) ** 2 for c in dq_cols)))]
        + [r[c] for c in dq_cols],
    )
    write("lyapunov.csv", ["t", "V", "Vaux"], lambda r: [r["t"], r["V"], r["Vaux"]])
    if est_cols:
        write("estimates.csv", ["t"] + est_cols, lambda r: [r["t"]] + [r[c] for c in est_cols])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refcascade",
        description="Simulation experiments for order-raising reference-dynamics manipulator control.",
        epilog=schema_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, required=False,
                       help="experiment config file (INI sections)")
        p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--quiet", action="store_true", help="suppress progress chatter")

    p_run = sub.add_parser("run", help="run one experiment, write log.csv + metrics.json")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per axis value, write sweep.csv")
    common(p_sweep)
    p_sweep.add_argument("--axis", required=True,
                         help="sweep axis: ell, kappa, or gain:<name>")
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")
    p_sweep.set_defaults(func=cmd_sweep)

    p_val = sub.add_parser("validate", help="run all module property suites")
    common(p_val)
    p_val.set_defaults(func=cmd_validate)

    p_pid = sub.add_parser("pid-compare",
                           help="reformulated-vs-textbook PID torque comparison")
    common(p_pid)
    p_pid.add_argument("--tolerance", type=float, default=1e-9,
                       help="max allowed torque discrepancy")
    p_pid.set_defaults(func=cmd_pid_compare)

    p_plot = sub.add_parser("plot-data", help="re-sample a run log into per-figure CSV series")
    common(p_plot)
    p_plot.add_argument("--log", required=True, help="log.csv produced by the run command")
    p_plot.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error (2) or --help (0)
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
