"""Two facts about this host's numpy that the per-RHS code relies on.

The plant takes its trigonometry from ``math`` and the control laws form
their 2-D products with ``ndarray.dot``; both are faster than the numpy
calls they replace, and both give the same bits here.  Another numpy build
or BLAS library may round differently.  If a test below fails, the program
is not wrong, but its logs will move by roundoff against the committed
references (``tests/test_reference_logs.py``).
"""

import math

import numpy as np
import pytest

from refcascade.refdyn import AVAILABILITIES, QD_ROWS

HOST = (
    "numpy or BLAS on this host rounds {what} differently: the control laws are"
    " not at fault, but every log moves by roundoff against tests/reference"
)


def _draws(rng, shape):
    # magnitudes over six decades, so rounding at every exponent is exercised
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)


def test_math_trigonometry_rounds_like_numpy():
    rng = np.random.default_rng(0)
    angles = np.concatenate((rng.uniform(-50.0, 50.0, 20000), _draws(rng, 2000) * 1e3)).tolist()
    for fn, ufunc in ((math.cos, np.cos), (math.sin, np.sin)):
        bad = [a for a in angles if fn(a) != float(ufunc(a))]
        assert not bad, HOST.format(what=f"{ufunc.__name__} (e.g. at {bad[0]!r})")


# (rows, cols) of every matrix-vector product the laws form with ``dot``:
# the regressor against a parameter vector and its transpose against a
# joint vector, the Coriolis matrix, the stacked_multi tone products for
# n_star = 1..3, and each single-layer law's compiled cascade
MATRIX_VECTOR = sorted(
    {(2, 5), (2, 2)}
    | {(2, n_star + 1) for n_star in (1, 2, 3)}
    | {(2, n_star) for n_star in (1, 2, 3)}
    | {((ell + 1) * 2, (ell + 2 + QD_ROWS[av]) * 2) for ell in range(1, 7) for av in AVAILABILITIES}
)


@pytest.mark.parametrize("rows, cols", MATRIX_VECTOR)
@pytest.mark.parametrize("layout", ["C", "transposed"])
def test_dot_rounds_like_matmul(rows, cols, layout):
    rng = np.random.default_rng(rows * 100 + cols)
    out = np.empty(cols if layout == "transposed" else rows)
    for _ in range(500):
        a = _draws(rng, (rows, cols))
        if layout == "transposed":  # Y.T and Wst.T: a view, not a copy
            a = a.T
        b = _draws(rng, a.shape[1])
        want = np.matmul(a, b)
        a.dot(b, out)
        ok = np.array_equal(a.dot(b), want) and np.array_equal(out, want)
        assert ok, HOST.format(what=f"ndarray.dot on {a.shape} @ {b.shape} ({layout})")


@pytest.mark.parametrize("n_star", [1, 2, 3])
def test_vector_matrix_dot_rounds_like_matmul(n_star):
    # stacked_multi's layer error against its tone regressors, (n,) @ (n, n_star)
    rng = np.random.default_rng(n_star)
    out = np.empty(n_star)
    for _ in range(500):
        a, b = _draws(rng, 2), _draws(rng, (2, n_star))
        want = np.matmul(a, b)
        a.dot(b, out)
        assert np.array_equal(out, want), HOST.format(what=f"ndarray.dot on (2,) @ {b.shape}")
