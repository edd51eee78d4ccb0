import numpy as np
import pytest
from draws import SEEDS
from hypothesis import given, settings
from test_linear_block import derivative_maps, random_bank

from refcascade.config import load_config
from refcascade.controllers import hstar_denominator
from refcascade.filters import (
    FilterBank,
    cascade_poly,
    freq_regressor_channel,
    regressor_loop_channel,
)
from refcascade.numerics import rk4_step
from refcascade.refdyn import critically_damped_coeffs


def scalar_bank(num, den):
    """One-row bank of the filter num(p) / den(p)."""
    return FilterBank([(den, [num])])


def simulate_filter(bank, u_of_t, t_end, dt=1e-3):
    state = np.zeros(bank.order)
    t = 0.0
    while t < t_end - dt / 2:
        state = rk4_step(lambda tt, xx: bank.deriv(xx[None, :], np.array([u_of_t(tt)]))[0],
                         state, t, dt)
        t += dt
    return state, t


def scalar_output(bank, state, u=None):
    return float(bank.output(state[None, :], None if u is None else np.array([u]))[0])


class TestMakeFilter:
    def test_first_order_strictly_proper(self):
        bank = scalar_bank([1.0], [1.0, 1.0])
        assert bank.order == 1
        assert bank.D[0, 0] == 0.0

    def test_identity_operator(self):
        bank = scalar_bank([2.0, 1.0], [2.0, 1.0])
        assert bank.D[0, 0] == 1.0
        assert scalar_output(bank, np.zeros(1), 0.7) == pytest.approx(0.7)

    def test_improper_rejected(self):
        with pytest.raises(ValueError):
            scalar_bank([1.0, 0.0, 1.0], [1.0, 1.0])

    def test_improper_second_row_rejected(self):
        # each row's numerators are checked against the bank's order
        with pytest.raises(ValueError, match="improper"):
            FilterBank([([2.0, 3.0, 1.0], [[1.0]]), ([2.0, 3.0, 1.0], [[1.0, 0.0, 0.0, 1.0]])])

    def test_per_joint_rows_are_the_joints_filters(self):
        # rows of different numerator lengths, the shorter padded with zeros
        bank = FilterBank([([2.0, 3.0, 1.0], [[1.0], [0.5, 1.0]]),
                           ([6.0, 5.0, 1.0], [[4.0, 1.0], [2.0]])])
        for row, (num0, num1, den) in enumerate((([1.0], [0.5, 1.0], [2.0, 3.0, 1.0]),
                                                 ([4.0, 1.0], [2.0], [6.0, 5.0, 1.0]))):
            ref = FilterBank([(den, [num0, num1])])
            assert np.array_equal(bank.a[row], ref.a[0])
            assert np.array_equal(bank.C[:, row], ref.C[:, 0])
            assert np.array_equal(bank.D[:, row], ref.D[:, 0])

    def test_step_response(self):
        bank = scalar_bank([1.0], [1.0, 1.0])
        state, t = simulate_filter(bank, lambda tt: 1.0, 1.0)
        assert abs(scalar_output(bank, state, 1.0) - (1.0 - np.exp(-t))) < 1e-6

    def test_sine_steady_state_amplitude(self):
        bank = scalar_bank([1.0], [1.0, 1.0])
        omega = 2.0
        state = np.zeros(1)
        t = 0.0
        amps = []
        while t < 30.0:
            state = rk4_step(
                lambda tt, xx: bank.deriv(xx[None, :], np.array([np.sin(omega * tt)]))[0],
                state, t, 1e-3,
            )
            t += 1e-3
            if t > 20.0:
                amps.append(scalar_output(bank, state, np.sin(omega * t)))
        measured = (max(amps) - min(amps)) / 2.0
        assert abs(measured - 1.0 / np.sqrt(5.0)) / (1.0 / np.sqrt(5.0)) < 0.01

    def test_zero_in_zero_out(self):
        bank = scalar_bank([1.0, 0.5], [2.0, 1.0, 1.0])
        assert scalar_output(bank, np.zeros(2), 0.0) == 0.0


class TestOperators:
    def test_regressor_loop_shape(self):
        # cascade order 2 with scalar gains: denominator degree 4, numerator 3
        coeffs = critically_damped_coeffs(4.0, 2)
        num, den = regressor_loop_channel(coeffs.alphas, 4.0, 4.0, 2.0, 20.0)
        assert len(den) - 1 == 4
        assert len(num) - 1 == 3

    @pytest.mark.parametrize("ell", [1, 2, 3, 4, 5, 6])
    def test_regressor_loop_relative_degree_one(self, ell):
        coeffs = critically_damped_coeffs(3.0, ell)
        num, den = regressor_loop_channel(coeffs.alphas, 4.0, 4.0, 2.0, 20.0)
        assert (len(den) - 1) - (len(num) - 1) == 1

    def test_cascade_error_biproper_at_order_one(self):
        # p^2 + 2a p + a^2 over the degree-2 cascade polynomial feeds through
        coeffs = critically_damped_coeffs(2.0, 1)
        bank = scalar_bank([4.0, 4.0, 1.0], cascade_poly(coeffs.alphas))
        assert np.array_equal(bank.a[0], coeffs.alphas)
        assert bank.D[0, 0] == 1.0

    def test_tone_layer_structure(self):
        # one tone: the tone-layer denominator has degree 2
        assert hstar_denominator(load_config().values["gains"], 1).size == 2

    def test_tone_layer_rejects_odd_degree(self):
        with pytest.raises(ValueError):
            hstar_denominator({**load_config().values["gains"], "hstar_den": (1.0, 3.0, 3.0)}, 1)

    def test_stacked_operators_need_order_two(self):
        coeffs = critically_damped_coeffs(2.0, 1)
        with pytest.raises(ValueError):
            freq_regressor_channel(coeffs.alphas, 4.0, 4.0, 2.0)


class TestFrequencyResponse:
    def test_random_filters_match_rational_evaluation(self):
        from refcascade.validation import suite_filter_frequency_response

        result = suite_filter_frequency_response()
        assert result.passed, result.detail


class TestBankAlgebra:
    def _drive(self, bank, states, inputs_of_t, t_end=5.0, dt=1e-3):
        t = 0.0
        shape = states[0].shape
        while t < t_end - dt / 2:
            states = [
                rk4_step(lambda tt, xx, u=u: bank.deriv(xx.reshape(shape), u(tt)).ravel(),
                         x.ravel(), t, dt).reshape(shape)
                for x, u in zip(states, inputs_of_t)
            ]
            t += dt
        return states, t

    def test_linearity(self):
        bank = FilterBank([([2.0, 3.0, 1.0], [[1.0, 0.5]])])
        ua = lambda t: np.array([np.sin(1.3 * t)])
        ub = lambda t: np.array([np.cos(0.7 * t)])
        uc = lambda t: 2.0 * ua(t) - 0.5 * ub(t)
        x0 = np.zeros(bank.state_shape())
        (xa, xb, xc), t = self._drive(bank, [x0] * 3, [ua, ub, uc])
        ya = bank.output(xa, ua(t))
        yb = bank.output(xb, ub(t))
        yc = bank.output(xc, uc(t))
        assert np.allclose(yc, 2.0 * ya - 0.5 * yb, atol=1e-12)

    def test_swap_identity_constant_parameters(self):
        # filtering the matrix then multiplying equals multiplying then
        # filtering, exactly, when the parameter vector is constant
        coeffs = critically_damped_coeffs(4.0, 2)
        num, den = regressor_loop_channel(coeffs.alphas, 4.0, 4.0, 2.0, 20.0)
        theta = np.array([1.7, 0.5, 0.35, 14.7, 4.9])
        mat_bank = FilterBank([(den, [num])] * 2, cols=5)
        vec_bank = FilterBank([(den, [num])] * 2, cols=1)

        def Y(t):
            base = np.outer(np.array([1.0, -0.5]), np.arange(1.0, 6.0))
            return base * np.sin(0.9 * t) + 0.3 * np.cos(1.7 * t)

        xm = np.zeros(mat_bank.state_shape())
        xv = np.zeros(vec_bank.state_shape())
        t = 0.0
        dt = 1e-3
        worst = 0.0
        for k in range(4000):
            if k % 400 == 0:
                h = mat_bank.output(xm) @ theta - vec_bank.output(xv)
                worst = max(worst, np.max(np.abs(h)))
            xm = rk4_step(lambda tt, xx: mat_bank.deriv(xx.reshape(xm.shape), Y(tt)).ravel(),
                          xm.ravel(), t, dt).reshape(xm.shape)
            xv = rk4_step(lambda tt, xx: vec_bank.deriv(xx.reshape(xv.shape), Y(tt) @ theta).ravel(),
                          xv.ravel(), t, dt).reshape(xv.shape)
            t += dt
        assert worst <= 1e-12

    def test_swap_mismatch_decays_from_nonzero_state(self):
        # a deliberately mismatched initial state decays at the filter rate
        bank = FilterBank([([1.0, 1.0], [[1.0]])])
        x = np.array([[2.5]])
        t = 0.0
        dt = 1e-3
        for _ in range(20000):  # twenty time constants: e^-20 < 1e-8
            x = rk4_step(lambda tt, xx: bank.deriv(xx.reshape(1, 1), np.zeros(1)).ravel(),
                         x.ravel(), t, dt).reshape(1, 1)
            t += dt
        assert abs(bank.output(x)[0]) <= 1e-8 * 2.5

    def test_output_derivative_maps_match_finite_differences(self):
        # y' and y'' from the chain's rates agree with numerical differentiation
        bank = FilterBank([([6.0, 11.0, 6.0, 1.0], [[2.0, 1.0]])])  # relative degree 2

        def u(t):
            return np.array([np.sin(1.1 * t) + 0.4 * np.cos(2.3 * t)])

        def udot(t):
            return np.array([1.1 * np.cos(1.1 * t) - 0.92 * np.sin(2.3 * t)])

        x = np.zeros(bank.state_shape())
        t = 0.0
        dt = 5e-4
        ys, yds, ydds, ts = [], [], [], []
        for _ in range(8000):
            ys.append(bank.output(x)[0])
            yds.append(bank.output_dot(x, u(t))[0])
            ydds.append(bank.output_ddot(x, u(t), udot(t))[0])
            ts.append(t)
            x = rk4_step(lambda tt, xx: bank.deriv(xx.reshape(x.shape), u(tt)).ravel(),
                         x.ravel(), t, dt).reshape(x.shape)
            t += dt
        ys, yds, ydds = np.array(ys), np.array(yds), np.array(ydds)
        fd1 = np.gradient(ys, dt)
        fd2 = np.gradient(yds, dt)
        sl = slice(100, -100)
        assert np.max(np.abs(fd1[sl] - yds[sl])) < 1e-5
        assert np.max(np.abs(fd2[sl] - ydds[sl])) < 1e-5

    def test_biproper_requires_current_input(self):
        bank = FilterBank([([1.0, 1.0], [[0.5, 1.0]])])
        with pytest.raises(ValueError):
            bank.output(np.zeros(bank.state_shape()))

    def test_second_derivative_needs_udot_at_relative_degree_one(self):
        x, u = np.array([[0.3, -0.7]]), np.array([0.4])
        with pytest.raises(ValueError, match="requires udot"):
            FilterBank([([2.0, 3.0, 1.0], [[1.0, 1.0]])]).output_ddot(x, u)
        # at relative degree 2 the input's rate has no weight
        bank = FilterBank([([2.0, 3.0, 1.0], [[1.0]])])
        assert np.array_equal(bank.output_ddot(x, u), bank.output_ddot(x, u, np.array([5.0])))


class TestRationalFilterState:
    def test_owned_state_updates(self):
        bank = scalar_bank([1.0], [1.0, 1.0])
        d = bank.deriv(np.zeros((1, 1)), np.array([1.0]))[0]
        assert d.shape == (1,)
        assert d[0] == pytest.approx(1.0)


def _mix(M, x):
    return np.einsum("rm,r...m->r...", M, x)


def _feed(d, u):
    return d.reshape(d.shape + (1,) * (u.ndim - 1)) * u


@settings(max_examples=60)
@given(seed=SEEDS)
def test_output_derivatives_match_the_derivative_maps(seed):
    # y' = CA x + CB u + D u' and, strictly proper, y'' = CA^2 x + CAB u + CB u',
    # the maps formed test-side from C and a, at a random state and input
    rng = np.random.default_rng(seed)
    bank = random_bank(rng)
    CA, CA2 = derivative_maps(bank)
    shape = bank.state_shape()[:-1]
    x = rng.uniform(-1.0, 1.0, bank.state_shape())
    u, udot = rng.uniform(-1.0, 1.0, (2,) + shape)
    scale = max(1.0, *(np.max(np.abs(m)) for m in (bank.a, bank.C, bank.D, CA, CA2)))
    for k in range(len(bank.C)):
        CB = bank.C[k, :, -1]
        pairs = [(bank.output_dot(x, u, udot, k),
                  _mix(CA[k], x) + _feed(CB, u) + _feed(bank.D[k], udot))]
        if not bank.D[k].any():
            pairs.append((bank.output_ddot(x, u, udot, k),
                          _mix(CA2[k], x) + _feed(CA[k, :, -1], u) + _feed(CB, udot)))
        for got, want in pairs:
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * scale
