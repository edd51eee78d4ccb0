import math

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
