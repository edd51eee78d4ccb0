"""The log deviation report (``tests/log_deviation.py``) on a synthetic log
and perturbed copies of it."""

import numpy as np
from log_deviation import deviation

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
