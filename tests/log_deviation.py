"""Per-column deviation between the logs two source trees write.

Runs every case of ``tests/test_reference_logs.py`` (each config, the
variant runs and the diverging runs) at its config's full length in two
checkouts, and reports for each ``log.csv`` column the largest absolute
deviation between the two logs, that deviation relative to the column's
largest magnitude, and the first logged step at which they differ:

    python tests/log_deviation.py TREE_A TREE_B [CASE ...]

run from the repository root, where ``TREE_A`` and ``TREE_B`` are
checkouts (``git archive`` or ``git clone``) each holding ``src/`` and
``configs/``.  No cases means all of them.  Each case's controller is also
built in each tree, in a subprocess with that tree's package, and its
compiled maps compared byte for byte (:func:`compiled_maps`).  A case prints
one line, with whether ``log.csv`` and ``metrics.json`` are byte-identical
and whether the maps are, and one more per column or map that differs.  The
case ``SWEEP_CASE`` is a sweep, not a run: the ``gain:k`` sweep of
``configs/order_sweep.ini`` that the benchmark's ``gain_sweep`` workload
times, whose ``sweep.csv`` must be byte-identical.  The script exits 1 if any
log differs, by value or by byte, or any ``metrics.json``, ``sweep.csv`` or
compiled map does.  The column report alone would read a formatting change
as no deviation.
"""

import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

if __name__ == "__main__":  # as a script, this tree's package comes first
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from test_reference_logs import RUNS, _gaps, _read_csv  # noqa: E402


def run_log(tree, case, out):
    """Run ``case`` at full length with ``tree``'s package and config;
    return the exit code and the path of the log."""
    config, overrides, _ = RUNS[case]
    tree = Path(tree).resolve()
    sets = [arg for pair in overrides for arg in ("--set", pair)]
    cmd = [sys.executable, "-m", "refcascade.cli", "run", "--config",
           str(tree / "configs" / f"{config}.ini"), "--out", str(out), "--quiet", *sets]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    code = subprocess.run(cmd, env=env, cwd=tree).returncode
    return code, Path(out) / "log.csv"


# the benchmark's gain_sweep workload: config, axis, values and overrides
SWEEP_CASE = "order_sweep-gain_sweep"
SWEEP = ("order_sweep", "gain:k", ",".join(str(10 + 5 * i) for i in range(16)),
         ["run.duration=0.5"])


def run_sweep(tree, out):
    """Run ``SWEEP`` with ``tree``'s package and config; return the exit
    code and the path of its ``sweep.csv``."""
    config, axis, values, overrides = SWEEP
    tree = Path(tree).resolve()
    sets = [arg for pair in overrides for arg in ("--set", pair)]
    cmd = [sys.executable, "-m", "refcascade.cli", "sweep", "--config",
           str(tree / "configs" / f"{config}.ini"), "--axis", axis, f"--values={values}",
           "--out", str(out), "--quiet", *sets]
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    code = subprocess.run(cmd, env=env, cwd=tree).returncode
    return code, Path(out) / "sweep.csv"


FILES = ("log.csv", "metrics.json")
BLOCK_MAPS = ("C", "early_map", "late_map", "served")


def compiled_maps(ctrl):
    """A controller's compiled maps as ``name -> (dtype, shape, bytes)``:
    a ``LinearBlock``'s ``BLOCK_MAPS``, or a single-layer law's cascade
    map as ``cascade``, whatever attribute holds it (the law's one matrix);
    none for the PID laws.  Bytes, not ``.npz`` files, whose zip headers
    carry timestamps."""
    if hasattr(ctrl, "block"):
        found = {name: getattr(ctrl.block, name, None) for name in BLOCK_MAPS}
    else:
        matrices = [a for a in vars(ctrl).values() if isinstance(a, np.ndarray) and a.ndim == 2]
        if len(matrices) > 1:
            raise ValueError(f"{type(ctrl).__name__} holds {len(matrices)} matrices, not one")
        found = {"cascade": matrices[0]} if matrices else {}
    return {name: (a.dtype.str, a.shape, a.tobytes()) for name, a in found.items() if a is not None}


def _dump_maps(config, *sets):
    """The subprocess of :func:`run_maps`: build the controller, pickle its maps."""
    from refcascade.config import load_config, parse_overrides
    from refcascade.harness import build_experiment

    ctrl = build_experiment(load_config(config, parse_overrides(sets)))[1]
    pickle.dump(compiled_maps(ctrl), sys.stdout.buffer)


def run_maps(tree, case):
    """Build ``case``'s controller with ``tree``'s package and config, in a
    subprocess; return its :func:`compiled_maps`."""
    config, overrides, _ = RUNS[case]
    tree = Path(tree).resolve()
    path = os.pathsep.join((str(tree / "src"), str(Path(__file__).resolve().parent)))
    code = "import sys, log_deviation; log_deviation._dump_maps(*sys.argv[1:])"
    cmd = [sys.executable, "-c", code, str(tree / "configs" / f"{config}.ini"), *overrides]
    done = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": path}, cwd=tree,
                          stdout=subprocess.PIPE, check=True)  # its errors reach stderr
    return pickle.loads(done.stdout)


def identical(out_a, out_b):
    """Per file in ``FILES``: whether run directories ``out_a`` and
    ``out_b`` both hold it, byte for byte the same."""
    same = {}
    for name in FILES:
        a, b = Path(out_a) / name, Path(out_b) / name
        same[name] = a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()
    return same


def deviation(log_a, log_b):
    """Per column of two logs: ``(name, largest absolute deviation, that
    over the column's largest magnitude, first differing row)``, the row
    ``None`` where the column is equal.  Rows past the shorter log differ."""
    names, a = _read_csv(log_a)
    names_b, b = _read_csv(log_b)
    if names_b != names:
        raise ValueError(f"{log_a} and {log_b} log different columns")
    rows = min(len(a), len(b))
    gaps = _gaps(a[:rows], b[:rows])
    report = []
    for j, name in enumerate(names):
        largest = float(gaps[:, j].max(initial=0.0))
        differ = np.flatnonzero(gaps[:, j])
        first = int(differ[0]) if len(differ) else (rows if len(a) != len(b) else None)
        column = np.concatenate((a[:, j], b[:, j]))
        magnitude = np.max(np.abs(column[np.isfinite(column)]), initial=0.0)
        relative = largest / magnitude if magnitude else (np.inf if largest else 0.0)
        report.append((name, largest, relative, first))
    return report


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    tree_a, tree_b, *cases = argv
    differs = False
    if not cases or SWEEP_CASE in cases:
        with tempfile.TemporaryDirectory() as tmp:
            (code_a, csv_a), (code_b, csv_b) = (run_sweep(tree, Path(tmp) / side)
                                                for tree, side in ((tree_a, "a"), (tree_b, "b")))
            same = csv_a.is_file() and csv_b.is_file() and csv_a.read_bytes() == csv_b.read_bytes()
        differs |= code_a != code_b or not same
        print(f"{SWEEP_CASE}: exit {code_a}/{code_b},"
              f" sweep.csv {'identical' if same else 'DIFFERS'}")
    for case in cases or RUNS:
        if case == SWEEP_CASE:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            (code_a, log_a), (code_b, log_b) = (run_log(tree, case, Path(tmp) / side)
                                                for tree, side in ((tree_a, "a"), (tree_b, "b")))
            t = _read_csv(log_a)[1][:, 0]
            report = deviation(log_a, log_b)
            same = identical(log_a.parent, log_b.parent)
        maps_a, maps_b = run_maps(tree_a, case), run_maps(tree_b, case)
        moved = [entry for entry in report if entry[3] is not None]
        changed = sorted(name for name in maps_a.keys() | maps_b.keys()
                         if maps_a.get(name) != maps_b.get(name))
        differs |= bool(moved) or code_a != code_b or not all(same.values()) or bool(changed)
        worst = max(report, key=lambda entry: entry[1])
        print(f"{case}: exit {code_a}/{code_b}, {len(t)} rows, {len(moved)} of {len(report)}"
              f" columns differ, largest {worst[1]:.3e} ({worst[0]}); "
              + ", ".join(f"{name} {'identical' if ok else 'DIFFERS'}" for name, ok in same.items())
              + (", maps DIFFER" if changed else ", maps identical" if maps_a else ", no maps"))
        if changed:
            print(f"  maps: {', '.join(changed)}")
        for name, largest, relative, first in moved:
            at = f"t = {t[first]:.6g}" if first < len(t) else "past the end"
            print(f"  {name}: {largest:.3e} absolute, {relative:.3e} relative,"
                  f" first at row {first} ({at})")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
