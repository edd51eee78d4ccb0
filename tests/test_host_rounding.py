"""Facts about this host's numpy that the per-RHS code and the logs rely on.

The plant takes its trigonometry from ``math`` and the control laws form
their 2-D products with ``ndarray.dot``, the compiled stage maps of the
filtering laws included; both are faster than the numpy calls they
replace, and both give the same bits here, wherever a map is placed.  The
energies of a whole log are one stacked ``np.matmul`` per product and one
array ``np.cos``; they give the bits of one sample at a time.  Another
numpy build or BLAS library may round differently.  If a test below fails,
the program is not wrong, but its logs will move by roundoff against the
committed references (``tests/test_reference_logs.py``).
"""

import math
import operator
import struct
from pathlib import Path

import numpy as np
import pytest

from refcascade.config import load_config
from refcascade.harness import build_experiment
from refcascade.refdyn import AVAILABILITIES, QD_ROWS

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

HOST = (
    "numpy or BLAS on this host rounds {what} differently: the control laws are"
    " not at fault, but every log moves by roundoff against tests/reference"
)


def _draws(rng, shape):
    # magnitudes over six decades, so rounding at every exponent is exercised
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)


def _angles():
    rng = np.random.default_rng(0)
    return np.concatenate((rng.uniform(-50.0, 50.0, 20000), _draws(rng, 2000) * 1e3))


def _operands():
    """Doubles of every kind, as ``(A, B)`` pairs: each special value against
    each, then drawn bit patterns (subnormals, infinities and NaNs with
    their payloads among them) and magnitudes over six decades."""
    rng = np.random.default_rng(70)
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.5,
                        1.7976931348623157e308, math.inf, -math.inf, math.nan, -math.nan])
    bits = np.frombuffer(rng.bytes(8 * 8000), dtype=float)
    normal = _draws(rng, 4000)
    a = np.concatenate((np.repeat(special, special.size), bits[:4000], normal, bits[4000:]))
    b = np.concatenate((np.tile(special, special.size), bits[4000:], bits[:4000], normal))
    return a, b


@pytest.mark.parametrize("op, ufunc", [(operator.add, np.add), (operator.sub, np.subtract),
                                       (operator.mul, np.multiply),
                                       (operator.truediv, np.true_divide)])
def test_python_float_arithmetic_rounds_like_numpy(op, ufunc):
    # the single-layer laws, their plant and RK4 run on Python floats, and
    # their logs stay those of numpy's elementwise loops only if each
    # operation gives the same bits: array by array, and a scalar by an array
    # as in RK4's ``half * k1``.  Two NaN operands may give either's NaN (a
    # loop may commute them); every NaN prints as ``nan``.  Where Python
    # raises, on a zero divisor, the program takes numpy's inf or NaN
    a, b = _operands()
    with np.errstate(all="ignore"):
        results = [(a, b, ufunc(a, b))] + [(np.full_like(b, c), b, ufunc(c, b))
                                          for c in (0.5, -0.0, 1e-3 / 6.0, math.inf, math.nan)]
    for xs, ys, want in results:
        for x, y, w in zip(xs.tolist(), ys.tolist(), want.tolist()):
            try:
                got = op(x, y)
            except ZeroDivisionError:
                assert y == 0.0 and not math.isfinite(w)
                continue
            same = struct.pack("<d", got) == struct.pack("<d", w)
            assert same or math.isnan(x) and math.isnan(y) and math.isnan(got) and math.isnan(w), \
                HOST.format(what=f"{ufunc.__name__}({x!r}, {y!r}): numpy {w!r}, Python {got!r}")


def test_math_trigonometry_rounds_like_numpy():
    angles = _angles().tolist()
    for fn, ufunc in ((math.cos, np.cos), (math.sin, np.sin)):
        bad = [a for a in angles if fn(a) != float(ufunc(a))]
        assert not bad, HOST.format(what=f"{ufunc.__name__} (e.g. at {bad[0]!r})")


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
def test_array_trigonometry_rounds_like_math(layout):
    # a stack of samples takes numpy's array loops, not its scalar path:
    # the inertia of a whole log reads cos(q[..., 1]), a strided column
    angles = _angles()
    if layout == "strided":
        pairs = np.zeros((len(angles), 2))
        pairs[:, 1] = angles
        angles = pairs[:, 1]
    for fn, ufunc in ((math.cos, np.cos), (math.sin, np.sin)):
        got = ufunc(angles).tolist()
        bad = [a for a, g in zip(angles.tolist(), got) if fn(a) != g]
        assert not bad, HOST.format(what=f"{ufunc.__name__} on an array (e.g. at {bad[0]!r})")


# (rows, cols) of every matrix-vector product the laws form with ``dot``:
# the regressor against a parameter vector and its transpose against a
# joint vector, the stacked_multi tone products for n_star = 1..3, and
# each single-layer law's compiled cascade
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


def test_one_entry_product_rounds_like_matmul():
    # stacked_single's W1 against its target error, in the law's own layout:
    # e a view of a stage product, so e[:, None] is (2, 1) with strides (8, 0),
    # and the one-entry result a slot of the work array
    rng = np.random.default_rng(41)
    work = np.empty(9)
    out = work[7:8]
    for _ in range(20000):
        w1 = _draws(rng, 2)
        work[2:4] = _draws(rng, 2)
        col = work[2:4][:, None]
        assert col.shape == (2, 1) and col.strides == (8, 0)
        want = np.matmul(w1, col)
        w1.dot(col, out)
        assert out.tobytes() == want.tobytes(), HOST.format(what="ndarray.dot on (2,) @ (2, 1)")


@pytest.mark.parametrize("p", [2, 5])
def test_energy_products_round_like_matmul(p):
    # one sample's energy products by ndarray.dot, ((0.5 s) M) s with s of
    # n = 2 entries and the (p,) . (p,) storage of an estimate or a filter
    # state, give @'s bits: tests/test_diagnostics.py states its reference
    # energies with @, and the stacked products below must give dot's bits
    rng = np.random.default_rng(50 + p)
    for _ in range(20000):
        s, v = _draws(rng, 2), _draws(rng, p)
        M = _draws(rng, (2, 2))
        M = M + M.T
        w = _draws(rng, p)
        assert (0.5 * s).dot(M).tobytes() == np.matmul(0.5 * s, M).tobytes(), HOST.format(
            what="ndarray.dot on (2,) @ (2, 2)")
        assert (0.5 * s).dot(M).dot(s).tobytes() == (0.5 * s @ M @ s).tobytes(), HOST.format(
            what="ndarray.dot on (2,) @ (2,)")
        assert v.dot(w).tobytes() == (v @ w).tobytes(), HOST.format(
            what=f"ndarray.dot on ({p},) @ ({p},)")


@pytest.mark.parametrize("layout", ["contiguous", "strided"])
@pytest.mark.parametrize("p", [2, 5])
@pytest.mark.parametrize("B", [None, 1, 2, 3, 16, 1001])
def test_stacked_energy_products_round_like_dot(B, p, layout):
    # the energies of a whole log (controllers.base.quadratic): ((0.5 s) M) s
    # as (B, 1, 2) @ (B, 2, 2) @ (B, 2, 1) and a (p,) . (p,) storage as
    # (B, 1, p) @ (B, p, 1), one sample (B None) as (1, 2) @ (2, 2) @ (2, 1);
    # each must give the bits of ndarray.dot on the sample alone.  A strided
    # operand is a view into a larger array, every other sample and every
    # row offset by one entry, its last axis contiguous: np.matmul takes BLAS
    # only then, and its own loop for other strides rounds differently
    rng = np.random.default_rng(60 + p + (B or 0))
    lead = () if B is None else (B,)

    def operand(shape):
        a = _draws(rng, lead + shape)
        if layout == "strided":
            wide = np.zeros((2 * B if B else 1,) + tuple(d + 1 for d in shape))
            view = wide[(slice(1, None, 2) if B else 0,) + (slice(1, None),) * len(shape)]
            view[...] = a
            a = view
        return a

    for _ in range(max(2, 2000 // (B or 1))):
        s, M, v, w = operand((2,)), operand((2, 2)), operand((p,)), operand((p,))
        hs = 0.5 * s
        kinetic = np.matmul(np.matmul(hs[..., None, :], M), s[..., :, None])[..., 0, 0]
        storage = np.matmul(v[..., None, :], w[..., :, None])[..., 0, 0]
        if B is None:
            hs, s, M, v, w = hs[None], s[None], M[None], v[None], w[None]
        want = np.array([hs[i].dot(M[i]).dot(s[i]) for i in range(len(s))])
        assert kinetic.tobytes() == want.reshape(kinetic.shape).tobytes(), HOST.format(
            what=f"np.matmul on {B} stacked (1, 2) @ (2, 2) @ (2, 1) ({layout})")
        want = np.array([v[i].dot(w[i]) for i in range(len(v))])
        assert storage.tobytes() == want.reshape(storage.shape).tobytes(), HOST.format(
            what=f"np.matmul on {B} stacked (1, {p}) @ ({p}, 1) ({layout})")


LAWS = [("tone_single", "filtered_adaptive"), ("tone_single", "stacked_single"),
        ("tone_two", "stacked_multi")]


def _block(config, variant):
    return build_experiment(load_config(CONFIGS / f"{config}.ini",
                                        [("controller", "variant", variant)]))[1].block


@pytest.mark.parametrize("config, variant", LAWS)
def test_stage_products_round_like_matmul_on_the_strided_map(config, variant):
    # a LinearBlock stores each stage's map contiguous at the stage's width
    # and forms the product with dot; np.matmul on the same rows as a
    # row-strided view of a full-width map must give the same bits
    block = _block(config, variant)
    rng = np.random.default_rng(len(variant))
    for M in (block.C, block.early_map, block.late_map):
        rows, width = M.shape
        assert M.flags.c_contiguous and width <= block.width
        full = np.zeros((rows, block.width))
        full[:, :width] = M
        strided = full[:, :width]
        out = np.empty(rows)
        for _ in range(200):
            v = _draws(rng, width)
            M.dot(v, out)
            assert out.tobytes() == np.matmul(strided, v).tobytes(), HOST.format(
                what=f"ndarray.dot on the {variant} stage map {M.shape}")


def _at_offset(M, offset):
    """A copy of ``M`` whose data starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(M.size + 8)
    start = (offset - buf.__array_interface__["data"][0]) % 64 // 8
    copy = buf[start : start + M.size].reshape(M.shape)
    copy[...] = M
    assert copy.__array_interface__["data"][0] % 64 == offset
    return copy


@pytest.mark.parametrize("config, variant", LAWS)
def test_stage_products_keep_their_bits_at_every_alignment(config, variant):
    # LinearBlock places each map at a 64-byte boundary for speed; where a
    # map sits must not change what dot computes
    block = _block(config, variant)
    rng = np.random.default_rng(len(variant) + 7)
    for M in (block.C, block.early_map, block.late_map):
        copies = [_at_offset(M, offset) for offset in (0, 16, 32, 48)]
        out = np.empty(len(M))
        for _ in range(200):
            v = _draws(rng, M.shape[1])
            want = M.dot(v)
            for copy in copies:
                copy.dot(v, out)
                assert out.tobytes() == want.tobytes(), HOST.format(
                    what=f"ndarray.dot on the {variant} stage map {M.shape} by its alignment")


def test_every_build_places_its_maps_at_64_bytes():
    blocks = [_block("tone_two", "stacked_multi") for _ in range(30)]  # all alive at once
    for block in blocks:
        for name in ("C", "early_map", "late_map", "work"):
            assert getattr(block, name).__array_interface__["data"][0] % 64 == 0, name
