"""Smoke tests for the benchmark: every workload at a tiny length.

Run with ``python -m pytest perfbench``.  They check that every metric named
in ``BENCHMARK.json`` is reported with its unit, that no experiment fails,
that the counting run repeats exactly, that tracing leaves the package as
it found it, and that the default-seed outputs match ``reference/``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import bench  # noqa: E402
import measure  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 0.1  # seconds of simulated time per experiment


def _units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("name", measure.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(name, tmp_path):
    wl = measure.make_workload(name, seed=3, duration=TINY)
    session, metrics = measure.measure(wl, 0.0, tmp_path)
    assert {k: u for k, (_, u) in metrics.items()} == _units(SPEC["end_to_end"])
    assert all(v > 0 for v, _ in metrics.values())
    assert session.attempted >= 2 * wl.experiments
    assert session.failed == 0 and session.correct


@pytest.mark.parametrize("name", measure.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    before = {(owner, attr): vars(owner)[attr] for _, owner, attr in tracing.targets()}
    wl = measure.make_workload(name, seed=3, duration=TINY)
    session, metrics, tracer, steps = measure.profile(wl, 0.0, tmp_path)
    assert {k: u for k, (_, u) in metrics.items()} == _units(SPEC["per_layer"])
    assert session.failed == 0 and session.correct
    # layer self times add up to the traced wall time
    assert sum(tracer.self_seconds().values()) == pytest.approx(tracer.top_level_seconds, rel=1e-9)
    assert metrics["trace.attributed"][0] == pytest.approx(1.0, abs=measure.ATTRIBUTION_TOL)
    assert metrics["numerics.rk4_step.p99_samples"][0] == steps
    after = {(owner, attr): vars(owner)[attr] for _, owner, attr in tracing.targets()}
    assert all(after[key] is raw for key, raw in before.items())


@pytest.mark.parametrize("name", measure.WORKLOADS)
def test_counting_run_repeats_exactly(name, tmp_path):
    wl = measure.make_workload(name, seed=5, duration=TINY)
    measure.run_rep(wl, tmp_path)  # warm-up
    runs = [tracing.count_calls(lambda: measure.run_rep(wl, tmp_path)) for _ in range(2)]
    (rep_a, counts_a), (rep_b, counts_b) = runs
    assert counts_a == counts_b
    assert rep_a.files == rep_b.files
    assert counts_a["numerics.rk4_step"] == rep_a.steps


@pytest.mark.parametrize("name", measure.WORKLOADS)
def test_default_seed_matches_reference(name, tmp_path):
    wl = measure.make_workload(name)
    rep = measure.run_rep(wl, tmp_path)
    assert measure.first_rep_problem(wl, rep) is None


def test_seed_generates_inputs():
    assert bench.WORKLOADS == measure.WORKLOADS
    sweep = measure.make_workload("gain_sweep")
    assert sweep.gains == tuple(range(10, 90, 5))
    assert [o[0:2] for o in sweep.overrides] == [("run", "duration")]
    seeded = measure.make_workload("gain_sweep", seed=7)
    assert seeded == measure.make_workload("gain_sweep", seed=7)
    assert seeded != measure.make_workload("gain_sweep", seed=8)
    assert all(10.0 <= g <= 85.0 for g in seeded.gains) and seeded.reference is None


def test_reference_comparison_allows_only_roundoff():
    ref = "t,V\n0,1.25\n0.002,1.2499999999999\n"
    assert measure.same_within(ref, ref.replace("1.2499999999999", "1.2499999999998"), 1e-12)
    assert not measure.same_within(ref, ref.replace("1.2499999999999", "1.2499999"), 1e-12)
    assert not measure.same_within(ref, ref.replace("t,V", "t,W"), 1e-12)
    assert not measure.same_within(ref, ref + "0.004,1.2\n", 1e-12)
    assert not measure.energy_problem(b"t,V\n0,2\n1,1\n")
    assert measure.energy_problem(b"t,V\n0,1\n1,1.000001\n")


def test_bench_refuses_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/bench.py", "--workload", "tone_two", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
