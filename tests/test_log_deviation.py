"""The log deviation report (``tests/log_deviation.py``) on a synthetic log
and perturbed or reformatted copies of it, its compiled-map comparison, and
the two log scripts run from a checkout."""

import os
import subprocess
import sys
from pathlib import Path

import log_deviation
import numpy as np
import pytest
from log_deviation import BLOCK_MAPS, compiled_maps, deviation, identical

from refcascade.config import load_config
from refcascade.harness import build_experiment

NAMES = ["t", "q1", "tau1", "V"]


def _write(path, table):
    with open(path, "w") as fh:
        fh.write(",".join(NAMES) + "\n")
        for row in table:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    return path


def _log():
    t = np.arange(8) * 0.04
    return np.column_stack((t, np.sin(t) - 0.5, 4.0 * np.cos(t), np.full(8, np.nan)))


def test_deviation_of_each_column(tmp_path):
    a = _log()
    b = a.copy()
    b[3, 1] += 1e-9  # q1 moves from row 3 on
    b[5:, 1] -= 2e-9
    b[6, 2] = np.inf  # tau1 blows up at row 6
    report = deviation(_write(tmp_path / "a.csv", a), _write(tmp_path / "b.csv", b))
    assert [entry[0] for entry in report] == NAMES
    _, gap, relative, first = report[1]
    want = np.max(np.abs(b[:, 1] - a[:, 1]))
    assert gap == want and first == 3
    assert relative == want / np.max(np.abs(a[:, 1]))
    assert report[2][1] > 1e300 and report[2][3] == 6
    # equal columns, NaN against NaN included, do not differ
    assert report[0] == ("t", 0.0, 0.0, None) and report[3] == ("V", 0.0, 0.0, None)


def test_a_shorter_log_differs_past_its_end(tmp_path):
    a = _log()
    report = deviation(_write(tmp_path / "a.csv", a), _write(tmp_path / "b.csv", a[:5]))
    assert [(gap, first) for _, gap, _, first in report] == [(0.0, 5)] * len(NAMES)


def _run_dir(path, table, metrics='{"final_V": 1.0}\n'):
    path.mkdir()
    _write(path / "log.csv", table)
    (path / "metrics.json").write_text(metrics)
    return path


def test_byte_identity_of_each_file(tmp_path):
    a = _run_dir(tmp_path / "a", _log())
    assert identical(a, _run_dir(tmp_path / "b", _log())) == {"log.csv": True, "metrics.json": True}
    c = _run_dir(tmp_path / "c", _log(), metrics='{"final_V": 1}\n')
    assert identical(a, c) == {"log.csv": True, "metrics.json": False}
    (c / "log.csv").write_text((a / "log.csv").read_text().replace("0.0,", "0.00,"))
    # the same values in another format: no column deviates, the bytes differ
    assert all(entry[3] is None for entry in deviation(a / "log.csv", c / "log.csv"))
    assert identical(a, c)["log.csv"] is False
    (c / "metrics.json").unlink()
    assert identical(a, c)["metrics.json"] is False


def _fake_runs(monkeypatch, edit, maps=lambda tree: {}):
    """``run_log`` writing the synthetic log, its second tree's run dir
    passed through ``edit``; ``run_maps`` giving ``maps(tree)``."""

    def run_log(tree, case, out):
        _run_dir(Path(out), _log())
        if tree == "B":
            edit(Path(out))
        return 0, Path(out) / "log.csv"

    monkeypatch.setattr(log_deviation, "run_log", run_log)
    monkeypatch.setattr(log_deviation, "run_maps", lambda tree, case: maps(tree))
    return log_deviation.main(["A", "B", next(iter(log_deviation.RUNS))])


def test_exit_code_reads_the_bytes(monkeypatch, capsys):
    assert _fake_runs(monkeypatch, lambda out: None) == 0
    assert "log.csv identical, metrics.json identical" in capsys.readouterr().out

    def reformat(out):
        log = out / "log.csv"
        log.write_text(log.read_text().replace("0.0,", "0.00,"))

    assert _fake_runs(monkeypatch, reformat) == 1
    out = capsys.readouterr().out
    assert "0 of 4 columns differ" in out and "log.csv DIFFERS, metrics.json identical" in out

    def renumber(out):
        (out / "metrics.json").write_text('{"final_V": 1}\n')

    assert _fake_runs(monkeypatch, renumber) == 1
    assert "log.csv identical, metrics.json DIFFERS" in capsys.readouterr().out


def test_exit_code_reads_the_maps(monkeypatch, capsys):
    same = {"C": ("<f8", (1, 2), bytes(16)), "served": ("<i8", (1,), bytes(8))}
    assert _fake_runs(monkeypatch, lambda out: None, lambda tree: same) == 0
    assert "metrics.json identical, maps identical" in capsys.readouterr().out

    # one byte of one map, or a shape alone, is a difference
    for moved in ({**same, "C": ("<f8", (1, 2), bytes(15) + b"\1")},
                  {**same, "C": ("<f8", (2, 1), bytes(16))}):
        maps = lambda tree, moved=moved: moved if tree == "B" else same  # noqa: E731
        assert _fake_runs(monkeypatch, lambda out: None, maps) == 1
        out = capsys.readouterr().out
        assert "metrics.json identical, maps DIFFER" in out and "  maps: C\n" in out

    # a map one tree compiles and the other does not
    assert _fake_runs(monkeypatch, lambda out: None, lambda tree: same if tree == "A" else {}) == 1
    assert "  maps: C, served\n" in capsys.readouterr().out


def test_maps_built_in_a_subprocess_are_the_controllers():
    root = Path(__file__).resolve().parent.parent
    maps = log_deviation.run_maps(root, "tone_single")
    assert sorted(maps) == sorted(BLOCK_MAPS)
    ctrl = build_experiment(load_config(root / "configs" / "tone_single.ini"))[1]
    assert maps == compiled_maps(ctrl)
    # a single-layer law's cascade map, under any attribute name; the PID
    # laws compile none
    order_sweep = load_config(root / "configs" / "order_sweep.ini")
    ctrl = build_experiment(order_sweep)[1]
    maps = compiled_maps(ctrl)
    assert list(maps) == ["cascade"] and maps["cascade"][2] == ctrl.M.tobytes()
    ctrl.renamed = vars(ctrl).pop("M")
    assert compiled_maps(ctrl) == maps
    ctrl.second = ctrl.renamed.copy()
    with pytest.raises(ValueError):
        compiled_maps(ctrl)
    pid = load_config(root / "configs" / "pid_equivalence.ini", [("controller", "variant", "pid")])
    assert compiled_maps(build_experiment(pid)[1]) == {}


def test_exit_code_reads_the_sweep_bytes(monkeypatch, capsys):
    def fake_sweep(edit):
        def run_sweep(tree, out):
            Path(out).mkdir()
            csv = Path(out) / "sweep.csv"
            csv.write_text("axis_value,rms_dq_last\n10,0.5\n")
            if tree == "B":
                edit(csv)
            return 0, csv
        monkeypatch.setattr(log_deviation, "run_sweep", run_sweep)
        return log_deviation.main(["A", "B", log_deviation.SWEEP_CASE])

    assert fake_sweep(lambda csv: None) == 0
    assert capsys.readouterr().out == f"{log_deviation.SWEEP_CASE}: exit 0/0, sweep.csv identical\n"
    # the same value in another format is a difference, as is a missing file
    for edit in (lambda csv: csv.write_text(csv.read_text().replace("0.5", "0.50")), Path.unlink):
        assert fake_sweep(edit) == 1
        assert "sweep.csv DIFFERS" in capsys.readouterr().out


@pytest.mark.parametrize("script", ["log_deviation.py", "test_reference_logs.py"])
def test_script_finds_its_own_package(script):
    # run as the docstrings say, from the repository root and without
    # PYTHONPATH, each script imports its tree's package and prints its usage
    tests = Path(__file__).resolve().parent
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    done = subprocess.run([sys.executable, f"tests/{script}"], cwd=tests.parent, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "Traceback" not in done.stderr
    assert f"python tests/{script}" in done.stderr
