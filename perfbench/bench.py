"""refcascade benchmark: microseconds per RK4 step on three workloads.

Run from the repository root, one workload per process:

    python3 perfbench/bench.py --workload tone_two --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics, measured with tracing off:
``step_us`` (run_experiment time per RK4 step, median over experiments),
``wall_s`` (what a user of ``refcascade run``/``sweep`` waits for, median),
``setup_s`` (load_config + build_experiment + initial_state, median per
experiment) and ``peak_rss_mb`` (this process's peak RSS).  ``--trace 1``
reports the per-layer split instead: a counting run under
``sys.setprofile``, then alternating untraced and traced repetitions for
``--seconds`` (see ``tracing.py``).  ``--workload all`` runs the three
workloads one after another, each in a fresh process, and prints a summary
table.  The smoke tests run with ``python3 -m pytest perfbench``.

Times are scaled to a reference machine speed, measured by a calibration
kernel before every repetition (see ``measure.py``); the unscaled medians
are printed as well.

Every experiment is checked (no exception, no divergence, residuals at
roundoff, energy monotone on ``ramp_full_log``, outputs identical across
repetitions and, at the default seed, to ``reference/``).  Failures are
printed as ``fail_frac`` and counted in the result's ``failed``.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.

BLAS is pinned to one thread before numpy is imported.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tone_two", "ramp_full_log", "gain_sweep")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0, help="workload seed; 0 reproduces the committed configs")
    p.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="0: end-to-end metrics; 1: per-layer split")
    return p.parse_args(argv)


def result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_one(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import measure

    wl = measure.make_workload(args.workload, args.seed)
    (HERE / "_out").mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=HERE / "_out"))
    try:
        if args.trace:
            session, metrics, tracer, steps = measure.profile(wl, args.seconds, out)
        else:
            session, metrics = measure.measure(wl, args.seconds, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    for problem in session.problems:
        print(f"{wl.name}: {problem}", file=sys.stderr)
    if not metrics:
        print(f"{wl.name}: no repetition completed; no result", file=sys.stderr)
        return 1

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{session.attempted} experiments, {session.failed} failed")
    if args.trace:
        print(f"  spans (layer <- parent): calls per step, self us per step; {steps} traced steps")
        for (layer, parent), (calls, _total, own) in sorted(
            tracer.spans.items(), key=lambda kv: -kv[1][2]
        ):
            print(f"  {layer:30s} <- {parent:30s} {calls / steps:10.3f} {1e6 * own / steps:12.3f}")
    for note in session.notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'fail_frac':40s} {session.failed / session.attempted:14.6g} ratio")
    print(result_line(session.correct, session.attempted, session.failed, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    rows, merged = [], {}
    correct, attempted, failed, code = True, 0, 0, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            code = proc.returncode or 1
            correct = False
            continue
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, m in res["metrics"].items():
            merged[f"{name}.{metric}"] = (m["value"], m["unit"])
        rows.append((name, res))
    if args.trace == 0 and rows:
        names = list(rows[0][1]["metrics"])
        print(f"{'workload':15s}" + "".join(f"{n:>16s}" for n in names + ["fail_frac"]))
        for name, res in rows:
            cells = [f"{res['metrics'][n]['value']:12.5g} {res['metrics'][n]['unit']:>3s}" for n in names]
            cells.append(f"{res['failed'] / res['attempted']:12.5g} rat")
            print(f"{name:15s}" + "".join(f"{c:>16s}" for c in cells))
    print(result_line(correct, max(attempted, 1), failed, merged))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "refcascade" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: {ROOT} holds no refcascade source tree (src/refcascade, configs/)",
              file=sys.stderr)
        return 2
    # before numpy is imported, here and in every child process
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
