"""Every ``configs/*.ini`` run, one simulated second long, against its
committed ``log.csv`` and ``metrics.json``, and likewise the runs in
``VARIANTS``: a config run as a variant no config names, and the runs in
``DIVERGING``: a config run with overrides that make it diverge.

``tests/reference/<case>/`` holds the output of ``refcascade run`` on the
case's config with ``--set run.duration=1`` and one ``--set`` per override
of ``RUNS[case]``.  Each case is rerun in-process, and every number of both
files must match within 1e-12 absolute, with NaN equal to NaN; a failure
names the worst column.  A run must exit 0, a diverging one 3 (its log ends
at the step that diverged).  A change that moves a log on purpose
regenerates its reference and says why:

    python tests/test_reference_logs.py --regenerate [CASE ...]

run from the repository root; the script imports the package from this
tree's ``src/``.  No cases means all of them.
"""

import csv
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":  # as a script, this tree's package comes first
    sys.path.insert(0, str(ROOT / "src"))

from refcascade.cli import main  # noqa: E402

REFERENCE = ROOT / "tests" / "reference"
CONFIGS = sorted(p.stem for p in (ROOT / "configs").glob("*.ini"))
# (config, variant) runs of the laws no config runs
VARIANTS = [
    ("order_sweep", "plain"), ("order_sweep", "nldamp"), ("order_sweep", "passive"),
    ("pid_equivalence", "pid"), ("pid_equivalence", "pid_textbook"),
    ("tone_single", "filtered_adaptive"),
]
# case -> (config, overrides) of runs that diverge, which gate the finiteness
# check end to end: a stage rate that blows up at t = 0.048, a singular
# inertia matrix, non-finite at t = 0, and a filtering law whose step is too
# coarse for its filter chains, which blows up at t = 0.06 (the chains'
# shift rates are copies, so a non-finite entry reaches only the rates that
# read it)
DIVERGING = {
    "order_sweep-stiff_gain": ("order_sweep", ["run.dt=0.012", "gains.k=200",
                                               "run.csv_decimate=1", "run.extras_stride=1"]),
    "order_sweep-singular_inertia": ("order_sweep", ["model.i2=0", "model.lc2=0"]),
    "tone_two-coarse_step": ("tone_two", ["run.dt=0.012", "run.csv_decimate=1",
                                          "run.extras_stride=1"]),
}
# case -> (config, overrides, exit code)
RUNS = {config: (config, [], 0) for config in CONFIGS}
RUNS.update({f"{config}-{variant}": (config, [f"controller.variant={variant}"], 0)
             for config, variant in VARIANTS})
RUNS.update({case: (config, sets, 3) for case, (config, sets) in DIVERGING.items()})
CASES = list(RUNS)
TOL = 1e-12


def _read_csv(path):
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def _read_metrics(path):
    # one flat entry per number; None (no divergence time) reads as NaN
    report = json.loads(path.read_text())
    names, values = [], []
    for key in sorted(report):
        entries = np.array(report[key], dtype=float).reshape(-1)
        names += [key] * entries.size
        values.append(entries)
    return names, np.concatenate(values)[None]


def _gaps(want, got):
    """Entrywise absolute gaps; equal infinities and NaN against NaN count
    as no gap, NaN against a number as an infinite one."""
    with np.errstate(invalid="ignore"):
        gap = np.where((want == got) | np.isnan(want) & np.isnan(got), 0.0, np.abs(want - got))
    return np.nan_to_num(gap, nan=np.inf)


def _worst(names, want, got):
    """Largest absolute gap and the column it is in (:func:`_gaps`)."""
    gap = _gaps(want, got).max(axis=0)
    j = int(np.argmax(gap))
    return float(gap[j]), names[j]


def test_every_config_has_a_reference():
    assert sorted(CASES) == sorted(p.name for p in REFERENCE.iterdir())


def run_case(case, out):
    """Run ``case`` for one simulated second into ``out``; return its exit code."""
    config, overrides, _ = RUNS[case]
    return main(["run", "--config", str(ROOT / "configs" / f"{config}.ini"),
                 "--set", "run.duration=1", "--out", str(out), "--quiet",
                 *[arg for pair in overrides for arg in ("--set", pair)]])


@pytest.mark.parametrize("case", CASES)
def test_log_matches_reference(tmp_path, case):
    out = tmp_path / case
    assert run_case(case, out) == RUNS[case][2]
    for name, read in (("log.csv", _read_csv), ("metrics.json", _read_metrics)):
        names, want = read(REFERENCE / case / name)
        got_names, got = read(out / name)
        assert got_names == names and got.shape == want.shape, f"{name}: layout changed"
        gap, column = _worst(names, want, got)
        assert gap <= TOL, f"{name}: column {column} moved by {gap:.3e}"


if __name__ == "__main__":
    flag, *cases = sys.argv[1:] or [None]
    if flag != "--regenerate" or not set(cases) <= set(CASES):
        sys.exit(__doc__)
    for case in cases or CASES:
        code = run_case(case, REFERENCE / case)
        if code != RUNS[case][2]:
            sys.exit(f"{case}: exit {code}, expected {RUNS[case][2]}")
        print(f"regenerated {REFERENCE / case}")
