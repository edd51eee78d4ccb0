import math
import warnings

import numpy as np
import pytest

from refcascade.numerics import (
    NonFiniteStateError,
    poly_from_roots,
    poly_mul,
    rk4_step,
    routh_hurwitz,
)


class TestRk4:
    def test_zero_derivative_identity(self):
        out = rk4_step(lambda t, x: np.zeros_like(x), np.array([1.0, 2.0]), 0.0, 0.1)
        assert np.array_equal(out, [1.0, 2.0])

    def test_exponential_single_step(self):
        out = rk4_step(lambda t, x: x, np.array([1.0]), 0.0, 0.1)
        assert abs(out[0] - math.exp(0.1)) < 1e-7

    def test_rotation_preserves_norm(self):
        def rot(t, x):
            return np.array([x[1], -x[0]])

        x = np.array([1.0, 0.0])
        t = 0.0
        for _ in range(628):
            x = rk4_step(rot, x, t, 0.01)
            t += 0.01
        assert abs(np.linalg.norm(x) - 1.0) < 1e-8

    @pytest.mark.parametrize("h", [0.2, 0.1])
    def test_local_truncation_order(self, h):
        # halving the step shrinks the one-step error by at least 28x
        def err(step):
            out = rk4_step(lambda t, x: x, np.array([1.0]), 0.0, step)
            return abs(out[0] - math.exp(step))

        assert err(h) / err(h / 2.0) >= 28.0

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            rk4_step(lambda t, x: x, np.array([1.0]), 0.0, 0.0)

    def test_nonfinite_derivative_names_index(self):
        def bad(t, x):
            out = np.zeros_like(x)
            out[2] = np.nan
            return out

        with pytest.raises(NonFiniteStateError) as exc:
            rk4_step(bad, np.zeros(4), 0.0, 0.1)
        assert 2 in exc.value.indices

    def test_overflowing_new_state_names_index(self):
        # every stage rate and the increment are finite; only x + h/6 incr
        # overflows, in entry 1
        c = np.array([0.0, 0.18e308])
        rates = iter([c, c, 0.0 * c, c])
        with np.errstate(over="ignore"), pytest.raises(NonFiniteStateError) as exc:
            rk4_step(lambda t, x: next(rates), np.array([1.0, 1.7e308]), 0.0, 1.0)
        assert exc.value.indices == [1]

    @pytest.mark.parametrize("shape", [(7,), (3, 4)])  # 2-D: the AC-2 oracle's stacked states
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    @pytest.mark.parametrize("source", ["state", "rate"])
    def test_one_non_finite_entry_names_its_flat_index(self, shape, value, where, source):
        index = {"first": 0, "middle": math.prod(shape) // 2, "last": math.prod(shape) - 1}[where]
        x = np.linspace(-1.0, 1.0, math.prod(shape)).reshape(shape)
        rate = np.zeros(shape)
        (x if source == "state" else rate).flat[index] = value
        before = x.tobytes()
        with pytest.raises(NonFiniteStateError) as exc:
            rk4_step(lambda t, xx: rate, x, 0.5, 0.1)
        assert exc.value.indices == [index]
        assert exc.value.t == 0.5
        assert x.tobytes() == before

    @pytest.mark.parametrize("shape", [(8,), (4, 2)])
    @pytest.mark.parametrize("context", ["default", "integrate", "raise"])
    def test_finite_state_with_overflowing_square_passes_silently(self, shape, context):
        # the squared norm of this state overflows to inf, so the exact pass
        # runs and finds every entry finite; nothing warns, under any errstate
        x = np.full(shape, 1e200)
        x.flat[1] = -1.5e200
        before = x.tobytes()
        errstate = {"default": {}, "integrate": {"over": "ignore", "invalid": "ignore"},
                    "raise": {"all": "raise"}}[context]
        with warnings.catch_warnings(), np.errstate(**errstate):
            warnings.simplefilter("error")
            out = rk4_step(lambda t, xx: np.full(shape, 1e190), x, 0.0, 0.1)
        want = x + (0.1 / 6.0) * (1e190 + 2.0 * 1e190 + 2.0 * 1e190 + 1e190)
        assert out.tobytes() == want.tobytes()
        assert x.tobytes() == before

    def test_deterministic(self):
        def f(t, x):
            return np.sin(x) + t * x

        x0 = np.linspace(-1.0, 1.0, 7)
        a = rk4_step(f, x0, 0.3, 0.05)
        b = rk4_step(f, x0, 0.3, 0.05)
        assert np.array_equal(a, b)


class TestRouthHurwitz:
    def test_double_root_stable(self):
        assert routh_hurwitz([1.0, 2.0, 1.0]) == "stable"

    def test_right_root_unstable(self):
        assert routh_hurwitz([-1.0, 0.0, 1.0]) == "unstable"

    def test_three_left_roots_stable(self):
        # (w+1)(w+2)(w+3) expanded by polynomial multiplication
        poly = poly_mul([1.0, 1.0], [2.0, 1.0], [3.0, 1.0])
        assert np.allclose(poly, [6.0, 11.0, 6.0, 1.0])
        assert routh_hurwitz(poly) == "stable"

    def test_imaginary_pair_marginal(self):
        assert routh_hurwitz([1.0, 0.0, 1.0]) == "marginal"
        assert routh_hurwitz(poly_mul([1.0, 0.0, 1.0], [1.0, 1.0])) == "marginal"

    def test_degree_one(self):
        assert routh_hurwitz([2.0, 1.0]) == "stable"
        assert routh_hurwitz([-2.0, 1.0]) == "unstable"

    def test_positive_coeffs_but_unstable(self):
        # all-positive coefficients with a right-half-plane complex pair
        poly = poly_mul([1.0, -0.1, 1.0], [1.0, 2.0, 1.0])
        assert np.all(poly > 0.0)
        assert routh_hurwitz(poly) == "unstable"

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
    def test_critically_damped_sets_stable_at_every_rate(self, ell):
        # (w + a)^(ell+1) from a = 2^-10 up to the largest a whose
        # coefficients are finite: the verdict must not depend on the scale
        a = 2.0**-10
        while True:
            try:
                coeffs = [math.comb(ell + 1, k) * a ** (ell + 1 - k) for k in range(ell + 2)]
            except OverflowError:
                break
            if not all(map(math.isfinite, coeffs)):
                break
            assert routh_hurwitz(coeffs) == "stable", a
            a *= 1.5
        assert (ell + 1) * math.log10(a) > 300  # the sweep went up to the overflow

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            routh_hurwitz([1.0])
        with pytest.raises(ValueError):
            routh_hurwitz([1.0, 0.0])

    def test_agrees_with_known_root_signs(self):
        rng = np.random.default_rng(77)
        for _ in range(1000):
            poly = np.array([1.0])
            unstable = False
            for _ in range(int(rng.integers(1, 5))):
                if rng.random() < 0.5:
                    a = rng.uniform(0.1, 5.0) * (1.0 if rng.random() < 0.7 else -1.0)
                    poly = poly_mul(poly, [a, 1.0])
                    unstable |= a < 0.0
                else:
                    re = rng.uniform(0.1, 3.0) * (1.0 if rng.random() < 0.7 else -1.0)
                    im = rng.uniform(0.1, 3.0)
                    poly = poly_mul(poly, [re * re + im * im, 2.0 * re, 1.0])
                    unstable |= re < 0.0
            assert routh_hurwitz(poly) == ("unstable" if unstable else "stable")


class TestPolynomialHelpers:
    def test_poly_from_roots(self):
        poly = poly_from_roots([-1.0, complex(-2.0, 1.0), complex(-2.0, -1.0)])
        # (w+1)(w^2+4w+5)
        assert np.allclose(poly, poly_mul([1.0, 1.0], [5.0, 4.0, 1.0]))
