import numpy as np
import pytest

from refcascade.manipulator import ArmParams, TwoLinkArm
from refcascade.numerics import rk4_step


@pytest.fixture
def arm():
    return TwoLinkArm()


class TestInertia:
    def test_right_angle_offdiagonal(self, arm):
        M = arm.inertia(np.array([0.3, np.pi / 2]))
        a3 = arm.theta[2]
        assert abs(M[0, 1] - a3) < 1e-14
        assert abs(M[1, 0] - a3) < 1e-14
        assert abs(M[0, 1] - M[1, 0]) < 1e-14

    def test_decoupled_limit_constant(self):
        # lc2 = 0 kills the coupling term a2, making M configuration-independent
        arm = TwoLinkArm(ArmParams(lc2=0.0))
        rng = np.random.default_rng(5)
        ref = arm.inertia(np.zeros(2))
        for _ in range(20):
            assert np.allclose(arm.inertia(rng.uniform(-np.pi, np.pi, 2)), ref)

    def test_positive_definite_on_grid(self, arm):
        grid = np.linspace(-np.pi, np.pi, 50)
        min_eig = np.inf
        max_cond = 0.0
        for q1 in grid:
            for q2 in grid:
                w = np.linalg.eigvalsh(arm.inertia(np.array([q1, q2])))
                min_eig = min(min_eig, w[0])
                max_cond = max(max_cond, w[-1] / w[0])
        assert min_eig > 0.0
        assert max_cond <= 100.0


class TestCoriolis:
    def test_zero_velocity(self, arm):
        assert np.array_equal(arm.coriolis(np.array([0.4, -1.1]), np.zeros(2)), np.zeros((2, 2)))

    def test_skew_symmetry_random(self, arm):
        rng = np.random.default_rng(1234)
        worst = 0.0
        for _ in range(1000):
            q, qdot, x = (rng.uniform(-10, 10, 2) for _ in range(3))
            S = arm.inertia_rate(q, qdot) - 2.0 * arm.coriolis(q, qdot)
            worst = max(worst, abs(x @ S @ x))
        assert worst <= 1e-10

    def test_inertia_rate_matches_finite_difference(self, arm):
        rng = np.random.default_rng(2)
        h = 1e-5
        for _ in range(50):
            q = rng.uniform(-3, 3, 2)
            qdot = rng.uniform(-3, 3, 2)
            fd = (arm.inertia(q + h * qdot) - arm.inertia(q - h * qdot)) / (2 * h)
            assert np.max(np.abs(fd - arm.inertia_rate(q, qdot))) <= 1e-6


class TestGravity:
    def test_zero_gravity(self):
        arm = TwoLinkArm(ArmParams(g0=0.0))
        assert np.array_equal(arm.gravity(np.array([0.7, -0.2])), np.zeros(2))

    def test_upright_first_joint(self, arm):
        g = arm.gravity(np.array([np.pi / 2, 0.0]))
        assert abs(g[0]) < 1e-13

    def test_matches_potential_gradient(self, arm):
        rng = np.random.default_rng(7)
        h = 1e-6
        for _ in range(100):
            q = rng.uniform(-3, 3, 2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (arm.potential(q + e) - arm.potential(q - e)) / (2 * h)
                assert abs(fd - arm.gravity(q)[i]) <= 1e-6


class TestRegressor:
    def test_zero_case(self):
        arm = TwoLinkArm(ArmParams(g0=0.0))
        Y = arm.regressor(np.array([0.3, 0.5]), np.array([1.0, -1.0]), np.zeros(2), np.zeros(2))
        # gravity columns are cos terms, zeroed only through theta; with g0 = 0
        # the b-parameters vanish so Y @ theta is exactly zero
        assert np.array_equal(Y @ arm.theta, np.zeros(2))

    def test_identity_random(self, arm):
        rng = np.random.default_rng(4321)
        worst = 0.0
        for _ in range(1000):
            q, qdot, zeta, zetadot = (rng.uniform(-5, 5, 2) for _ in range(4))
            lhs = arm.inertia(q) @ zetadot + arm.coriolis(q, qdot) @ zeta + arm.gravity(q)
            rhs = arm.regressor(q, qdot, zeta, zetadot) @ arm.theta
            worst = max(worst, np.max(np.abs(lhs - rhs)))
        assert worst <= 1e-10

    def test_linearity_in_parameters(self, arm):
        rng = np.random.default_rng(99)
        q, qdot, zeta, zetadot = (rng.uniform(-2, 2, 2) for _ in range(4))
        Y = arm.regressor(q, qdot, zeta, zetadot)
        base = Y @ arm.theta
        for i in range(5):
            theta = arm.theta.copy()
            theta[i] += 0.37
            assert np.allclose(Y @ theta, base + 0.37 * Y[:, i], atol=1e-12)


class TestForwardDynamics:
    def test_gravity_compensation_rest(self, arm):
        q = np.array([0.4, -0.9])
        qdd = arm.forward_dynamics(q, np.zeros(2), arm.gravity(q), np.zeros(2))
        assert np.max(np.abs(qdd)) < 1e-12

    def test_same_numbers_as_the_matrix_form(self, arm):
        # the scalar code must round exactly like the M, C, g matrices
        rng = np.random.default_rng(12)
        for _ in range(500):
            q, qdot = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
            tau, tau_star = rng.uniform(-10, 10, 2), rng.uniform(-2, 2, 2)
            rhs = tau + tau_star - arm.coriolis(q, qdot) @ qdot - arm.gravity(q)
            M = arm.inertia(q)
            det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
            want = np.array([
                (M[1, 1] * rhs[0] - M[0, 1] * rhs[1]) / det,
                (M[0, 0] * rhs[1] - M[1, 0] * rhs[0]) / det,
            ])
            assert np.array_equal(arm.forward_dynamics(q, qdot, tau, tau_star), want)

    def test_residual_random(self, arm):
        rng = np.random.default_rng(11)
        for _ in range(200):
            q, qdot = rng.uniform(-3, 3, 2), rng.uniform(-3, 3, 2)
            tau, tau_star = rng.uniform(-10, 10, 2), rng.uniform(-2, 2, 2)
            qdd = arm.forward_dynamics(q, qdot, tau, tau_star)
            res = arm.inertia(q) @ qdd + arm.coriolis(q, qdot) @ qdot + arm.gravity(q) - tau - tau_star
            assert np.max(np.abs(res)) <= 1e-10

    def test_energy_rate_matches_power(self):
        # with no gravity, dE/dt = qdot' (tau + tau_star); integrate both sides
        arm = TwoLinkArm(ArmParams(g0=0.0))

        def torque(t):
            return np.array([0.5 * np.sin(t), -0.3 * np.cos(2 * t)])

        def deriv(t, x):
            q, qdot, _ = x[:2], x[2:4], x[4]
            qdd = arm.forward_dynamics(q, qdot, torque(t), np.zeros(2))
            return np.concatenate([qdot, qdd, [qdot @ torque(t)]])

        def energy(q, qdot):  # kinetic plus potential
            return 0.5 * qdot @ arm.inertia(q) @ qdot + arm.potential(q)

        x = np.array([0.2, -0.1, 0.3, 0.1, 0.0])
        e0 = energy(x[:2], x[2:4])
        t = 0.0
        for _ in range(2000):
            x = rk4_step(deriv, x, t, 1e-3)
            t += 1e-3
        e1 = energy(x[:2], x[2:4])
        assert abs((e1 - e0) - x[4]) < 1e-8
