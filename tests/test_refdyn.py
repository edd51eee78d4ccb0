import math

import numpy as np
import pytest
from draws import SEEDS
from hypothesis import given, settings
from test_compiled_cascade import random_cascade

from refcascade.numerics import poly_from_roots
from refcascade.refdyn import (
    HurwitzCoeffs,
    ReferenceConfig,
    _half_grid,
    _realization_system,
    _rk4_grid,
    cascade_init,
    cascade_rates,
    critically_damped_coeffs,
    oracle_realization_gaps,
    scale_coeffs,
)
from refcascade.signals import JointSignal, Tone, TrajectorySpec


class TestCriticallyDamped:
    def test_order_one(self):
        c = critically_damped_coeffs(1.0, 1)
        assert np.allclose(c.alphas, [1.0, 2.0])

    def test_order_two_rate_two(self):
        c = critically_damped_coeffs(2.0, 2)
        assert np.allclose(c.alphas, [8.0, 12.0, 6.0])

    @pytest.mark.parametrize("alpha,ell", [(0.5, 1), (3.0, 2), (1.7, 4), (2.0, 6)])
    def test_endpoint_coefficients(self, alpha, ell):
        c = critically_damped_coeffs(alpha, ell)
        assert c.alphas[0] == pytest.approx(alpha ** (ell + 1))
        assert c.alphas[ell] == pytest.approx((ell + 1) * alpha)

    def test_binomial_exact_integers(self):
        c = critically_damped_coeffs(3.0, 3)
        want = [math.comb(4, k) * 3 ** (4 - k) for k in range(4)]
        assert np.array_equal(c.alphas, np.array(want, dtype=float))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            critically_damped_coeffs(0.0, 2)
        with pytest.raises(ValueError):
            critically_damped_coeffs(1.0, 0)


class TestScaleCoeffs:
    def test_identity(self):
        c = critically_damped_coeffs(2.0, 2)
        s = scale_coeffs(c, 1.0)
        assert np.array_equal(s.alphas, c.alphas)

    def test_rate_two_scaled_to_one(self):
        c = critically_damped_coeffs(2.0, 1)
        s = scale_coeffs(c, 2.0)
        assert np.allclose(s.alphas, critically_damped_coeffs(1.0, 1).alphas)

    def test_scaled_remains_stable(self):
        c = HurwitzCoeffs(2, np.array([6.0, 11.0, 6.0]))
        s = scale_coeffs(c, 4.0)
        assert isinstance(s, HurwitzCoeffs)  # construction re-checks stability

    def test_composition_exact_for_binary_scales(self):
        c = critically_damped_coeffs(4.0, 3)
        a = scale_coeffs(scale_coeffs(c, 2.0), 4.0)
        b = scale_coeffs(c, 8.0)
        assert np.array_equal(a.alphas, b.alphas)

    def test_pole_time_dilation(self):
        # scaling by kappa divides every root by kappa
        c = HurwitzCoeffs(2, np.array([6.0, 11.0, 6.0]))  # roots -1, -2, -3
        s = scale_coeffs(c, 2.0)
        roots = np.sort(np.roots(np.append(s.alphas, 1.0)[::-1]))
        assert np.allclose(roots, [-1.5, -1.0, -0.5], atol=1e-10)

    def test_autonomous_response_time_dilates(self):
        # the kappa-scaled autonomous cascade replays the original response
        # stretched in time: z_scaled(kappa t) == z(t)
        from refcascade.numerics import rk4_step

        kappa = 2.0
        base = critically_damped_coeffs(3.0, 2)
        slow = scale_coeffs(base, kappa)

        def companion(alphas):
            m = alphas.size
            A = np.zeros((m, m))
            A[:-1, 1:] = np.eye(m - 1)
            A[-1] = -alphas
            return A

        A_base = companion(base.alphas)
        A_slow = companion(slow.alphas)
        x_base = np.array([1.0, -0.4, 0.2])
        # matched initial condition in dilated time: derivatives scale by 1/kappa
        x_slow = x_base * kappa ** -np.arange(3)
        t = 0.0
        dt = 1e-3
        for _ in range(4000):  # base to t = 4
            x_base = rk4_step(lambda tt, xx: A_base @ xx, x_base, t, dt)
            t += dt
        t = 0.0
        for _ in range(8000):  # scaled to t = 8 = kappa * 4
            x_slow = rk4_step(lambda tt, xx: A_slow @ xx, x_slow, t, dt)
            t += dt
        assert abs(x_slow[0] - x_base[0]) < 1e-9


class TestHurwitzCoeffs:
    def test_rejects_unstable(self):
        with pytest.raises(ValueError):
            HurwitzCoeffs(1, np.array([-1.0, 2.0]))

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            HurwitzCoeffs(2, np.array([1.0, 2.0]))


class TestInitialization:
    def test_position_only_zero(self):
        cfg = ReferenceConfig(critically_damped_coeffs(4.0, 2), "position")
        phi = cascade_init(cfg, 2)
        assert np.array_equal(phi, np.zeros((2, 2)))

    def test_full_matches_desired_velocity(self):
        cfg = ReferenceConfig(critically_damped_coeffs(4.0, 2), "full")
        phi = cascade_init(cfg, 2, qd_dot0=np.array([1.0, 0.0]))
        assert np.array_equal(phi[0], [1.0, 0.0])
        assert np.array_equal(phi[1], [0.0, 0.0])

    @pytest.mark.parametrize("ell", [1, 2, 3, 4])
    def test_state_count(self, ell):
        cfg = ReferenceConfig(critically_damped_coeffs(4.0, ell), "position")
        assert cascade_init(cfg, 2).size == ell * 2


class TestCascadeRates:
    def test_full_error_free_tracks_acceleration(self):
        # order 1, exact tracking: the reference acceleration is qdd_d
        cfg = ReferenceConfig(critically_damped_coeffs(4.0, 1), "full")
        phi = np.array([[0.3, -0.1]])
        q = np.array([0.5, 0.2])
        qdd_d = np.array([0.7, -0.4])
        _, zdot = cascade_rates(cfg, phi, q, phi[0], q, phi[0], qdd_d)
        assert np.allclose(zdot, qdd_d)

    def test_position_equilibrium_is_invariant(self):
        # constant q_d, plant at rest on target: the equilibrium cascade state
        # has zero rates everywhere
        coeffs = critically_damped_coeffs(4.0, 2)
        cfg = ReferenceConfig(coeffs, "position")
        qd = np.array([0.4, -0.2])
        phi = np.zeros((2, 2))
        phi[1] = -coeffs.alphas[1] * qd  # equilibrium value of the shifted state
        phi_dot, zdot = cascade_rates(cfg, phi, qd, np.zeros(2), qd)
        assert np.max(np.abs(phi_dot)) < 1e-14
        assert np.max(np.abs(zdot)) < 1e-14

    def test_information_discipline(self):
        cfg = ReferenceConfig(critically_damped_coeffs(4.0, 2), "position")
        phi = np.zeros((2, 2))
        q = qd = np.zeros(2)
        with pytest.raises(ValueError):
            cascade_rates(cfg, phi, q, q, qd, qd_dot=np.zeros(2))
        with pytest.raises(ValueError):
            cascade_rates(cfg, phi, q, q, qd, qd_ddot=np.zeros(2))
        cfg_v = ReferenceConfig(critically_damped_coeffs(4.0, 2), "velocity")
        with pytest.raises(ValueError):
            cascade_rates(cfg_v, phi, q, q, qd)  # missing qd_dot
        with pytest.raises(ValueError):
            cascade_rates(cfg_v, phi, q, q, qd, np.zeros(2), np.zeros(2))
        cfg_f = ReferenceConfig(critically_damped_coeffs(4.0, 2), "full")
        with pytest.raises(ValueError):
            cascade_rates(cfg_f, phi, q, q, qd, np.zeros(2))  # missing qd_ddot

    def test_corrected_needs_gain(self):
        with pytest.raises(ValueError):
            ReferenceConfig(critically_damped_coeffs(4.0, 2), "full_corrected")
        with pytest.raises(ValueError):
            ReferenceConfig(
                critically_damped_coeffs(4.0, 2), "full_corrected", np.array([1.0, 0.0])
            )


@pytest.fixture(scope="module")
def driven_signals():
    qd = TrajectorySpec([
        JointSignal(poly=(0.3, 0.2, -0.05, 0.01)),
        JointSignal(poly=(-0.1, 0.15, 0.02, -0.004)),
    ])
    q = TrajectorySpec([
        JointSignal(poly=(0.25, 0.18, -0.04, 0.01), tones=(Tone(0.1, 1.3, 0.4),)),
        JointSignal(poly=(-0.05, 0.1, 0.03, -0.004), tones=(Tone(0.08, 0.9, -0.2),)),
    ])
    return q, qd


@pytest.fixture(scope="module")
def fixed_case_gaps(driven_signals):
    """Oracle/realization gaps of the 12 critically damped cases, from one
    stacked integration (each gap equals its separate integration's)."""
    q, qd = driven_signals
    configs = [
        ReferenceConfig(critically_damped_coeffs(4.0, ell), av,
                        np.array([2.0, 2.0]) if av == "full_corrected" else None)
        for av, ell in AVAILABILITIES_AND_ORDERS
    ]
    t = np.arange(0.0, 10.0 + 5e-4, 1e-3)
    return dict(zip(AVAILABILITIES_AND_ORDERS, oracle_realization_gaps(configs, q, qd, t)))


class TestRealizationEquivalence:
    @pytest.mark.parametrize("availability", ["position", "velocity", "full", "full_corrected"])
    @pytest.mark.parametrize("ell", [1, 2, 3])
    def test_matches_highorder_oracle(self, fixed_case_gaps, availability, ell):
        assert fixed_case_gaps[availability, ell] <= 1e-6

    @settings(max_examples=20)
    @given(seed=SEEDS)
    def test_matches_oracle_on_random_stable_sets(self, driven_signals, seed):
        # one to six stable root sets with conjugate pairs, ell 1-6, every availability
        rng = np.random.default_rng(seed)
        configs = [random_cascade(rng) for _ in range(rng.integers(1, 7))]
        q, qd = driven_signals
        t = np.arange(0.0, 1.0 + 5e-4, 1e-3)
        assert max(oracle_realization_gaps(configs, q, qd, t)) <= 1e-6

    def test_noncritical_coefficients_also_match(self, driven_signals):
        q, qd = driven_signals
        # distinct real poles at -1, -2, -3
        cfg = ReferenceConfig(HurwitzCoeffs(2, np.array([6.0, 11.0, 6.0])), "full")
        t = np.arange(0.0, 10.0 + 5e-4, 1e-3)
        assert oracle_realization_gaps([cfg], q, qd, t)[0] <= 1e-6

    def test_perfect_tracking_converges_to_desired_velocity(self, driven_signals):
        _, qd = driven_signals
        cfg = ReferenceConfig(critically_damped_coeffs(4.0, 2), "full")
        t = np.arange(0.0, 10.0 + 5e-4, 1e-3)
        ts, h = _half_grid(t)
        f, phi0 = _realization_system(cfg, qd, qd, ts)
        z = _rk4_grid(f, phi0, t.size - 1, h)[:, : qd.n]
        qd_dot_end = qd.eval(t[-1], 1)
        assert np.max(np.abs(z[-1] - qd_dot_end)) <= 1e-8


AVAILABILITIES_AND_ORDERS = [
    (availability, ell)
    for availability in ("position", "velocity", "full", "full_corrected")
    for ell in (1, 2, 3)
]


def _config(availability, ell):
    lam = np.array([2.0, 0.5]) if availability == "full_corrected" else None
    return ReferenceConfig(critically_damped_coeffs(3.0, ell), availability, lam)


class TestCascadeDrive:
    """The realization's drive: cascade_rates over a whole grid of samples."""

    @pytest.mark.parametrize("availability, ell", AVAILABILITIES_AND_ORDERS)
    def test_grid_drive_gives_per_sample_rates_bitwise(self, availability, ell):
        cfg = _config(availability, ell)
        rng = np.random.default_rng(ell)
        q, qdot, qd, qd_dot, qd_ddot = rng.standard_normal((5, 7, 2))
        if availability == "position":
            qd_dot = qd_ddot = None
        elif availability == "velocity":
            qd_ddot = None
        phi = rng.standard_normal((ell, 7, 2))
        grid, zdot = cascade_rates(cfg, phi, q, qdot, qd, qd_dot, qd_ddot)
        for j in range(7):
            want = cascade_rates(
                cfg, phi[:, j], q[j], qdot[j], qd[j],
                None if qd_dot is None else qd_dot[j],
                None if qd_ddot is None else qd_ddot[j],
            )
            assert np.array_equal(grid[:, j], want[0]) and np.array_equal(zdot[j], want[1])

    def test_stacked_gaps_equal_separate_integrations(self, driven_signals):
        q, qd = driven_signals
        t = np.arange(0.0, 0.5 + 5e-4, 1e-3)
        configs = [_config(*case) for case in AVAILABILITIES_AND_ORDERS]
        want = [oracle_realization_gaps([c], q, qd, t)[0] for c in configs]
        assert oracle_realization_gaps(configs, q, qd, t) == want


def _unit_basis_matrices(cfg, n):
    """``(A, B)`` of ``phi_dot = A phi + B w``, from cascade_rates on a unit basis.

    ``w`` stacks the inputs the variant reads: q, qdot, q_d and, as declared,
    q_d' and q_d''.  Every input carries the basis as a leading axis.
    """
    k = {"position": 3, "velocity": 4}.get(cfg.availability, 5)
    size = (cfg.ell + k) * n
    basis = np.eye(size).reshape(size, cfg.ell + k, n)
    inputs = [basis[:, cfg.ell + i] for i in range(k)] + [None] * (5 - k)
    phi_dot, zdot = cascade_rates(cfg, basis[:, : cfg.ell].swapaxes(0, 1), *inputs)
    assert np.array_equal(zdot, phi_dot[0])
    M = phi_dot.transpose(0, 2, 1).reshape(cfg.ell * n, size)
    return M[:, : cfg.ell * n], M[:, cfg.ell * n :], k


class TestCascadeMatrix:
    """The rates are linear with no constant term, so their values on a unit
    basis are their matrix; the filtering controllers compile them that way."""

    @pytest.mark.parametrize("availability", ["position", "velocity", "full", "full_corrected"])
    @pytest.mark.parametrize("ell", range(1, 7))
    def test_basis_matrix_reproduces_the_rates(self, availability, ell):
        rng = np.random.default_rng(10 * ell + len(availability))
        n = 2
        # a random stable set: distinct negative real roots
        alphas = poly_from_roots(-rng.uniform(0.5, 3.0, ell + 1))[:-1]
        lam = rng.uniform(0.5, 3.0, n) if availability == "full_corrected" else None
        cfg = ReferenceConfig(HurwitzCoeffs(ell, alphas), availability, lam)
        A, B, k = _unit_basis_matrices(cfg, n)
        for _ in range(20):
            phi = rng.standard_normal((ell, n))
            w = rng.standard_normal((k, n))
            want, zdot = cascade_rates(cfg, phi, *w, *[None] * (5 - k))
            got = (A @ phi.ravel() + B @ w.ravel()).reshape(ell, n)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
            assert np.array_equal(zdot, want[0])
