import math
import warnings

import numpy as np
import pytest

from refcascade import manipulator
from refcascade.manipulator import ArmParams, TwoLinkArm, _cos_sin, _kinematics
from refcascade.numerics import rk4_step


@pytest.fixture
def arm():
    return TwoLinkArm()


def numpy_terms(theta, q, qdot, zeta, zetadot):
    """Every plant term in the array form, with numpy's trigonometry: the
    reference the scalar statements must match bitwise."""
    a1, a2, a3, b1, b2 = theta
    c1, c2, s2 = np.cos(q[0]), np.cos(q[1]), np.sin(q[1])
    c12 = np.cos(q[0] + q[1])
    h = a2 * s2
    d = -a2 * s2 * qdot[1]
    return {
        "inertia": np.array([[a1 + 2.0 * a2 * c2, a3 + a2 * c2], [a3 + a2 * c2, a3]]),
        "coriolis": np.array([[-h * qdot[1], -h * (qdot[0] + qdot[1])], [h * qdot[0], 0.0]]),
        "inertia_rate": np.array([[2.0 * d, d], [d, 0.0]]),
        "gravity": np.array([b1 * c1 + b2 * c12, b2 * c12]),
        "potential": np.array(b1 * np.sin(q[0]) + b2 * np.sin(q[0] + q[1])),
        "regressor": np.array([
            [zetadot[0], c2 * (2.0 * zetadot[0] + zetadot[1])
             - s2 * (qdot[1] * zeta[0] + (qdot[0] + qdot[1]) * zeta[1]),
             zetadot[1], c1, c12],
            [0.0, c2 * zetadot[0] + s2 * qdot[0] * zeta[0], zetadot[0] + zetadot[1], 0.0, c12],
        ]),
    }


def arm_terms(arm, q, qdot, zeta, zetadot):
    return {
        "inertia": arm.inertia(q),
        "coriolis": arm.coriolis(q, qdot),
        "inertia_rate": arm.inertia_rate(q, qdot),
        "gravity": arm.gravity(q),
        "potential": np.array(arm.potential(q)),
        "regressor": arm.regressor(q, qdot, zeta, zetadot),
    }


def coriolis_times(C, qdot):
    """``C qdot`` as the plant forms it: each row's elementwise products,
    summed left to right, without ``C[1, 1]``, which is 0."""
    return np.array([C[0, 0] * qdot[0] + C[0, 1] * qdot[1], C[1, 0] * qdot[0]])


def numpy_forward_dynamics(theta, q, qdot, tau, tau_star):
    terms = numpy_terms(theta, q, qdot, qdot, qdot)
    M = terms["inertia"]
    rhs = tau + tau_star - coriolis_times(terms["coriolis"], qdot) - terms["gravity"]
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    return np.array([M[1, 1] * rhs[0] - M[0, 1] * rhs[1], M[0, 0] * rhs[1] - M[1, 0] * rhs[0]]) / det


class TestScalarStatement:
    """Each term is stated once over Python floats, with ``math``'s
    trigonometry; it must round exactly like the numpy array form."""

    def test_terms_match_the_numpy_form(self, arm):
        rng = np.random.default_rng(16)
        for _ in range(500):
            q = rng.uniform(-50.0, 50.0, 2)
            qdot, zeta, zetadot = rng.uniform(-10.0, 10.0, (3, 2))
            want = numpy_terms(arm.theta, q, qdot, zeta, zetadot)
            for name, got in arm_terms(arm, q, qdot, zeta, zetadot).items():
                assert got.shape == want[name].shape, name
                assert np.array_equal(got, want[name]), name

    def test_forward_dynamics_matches_the_numpy_form(self, arm):
        rng = np.random.default_rng(17)
        for _ in range(500):
            q = rng.uniform(-50.0, 50.0, 2)
            qdot = rng.uniform(-10.0, 10.0, 2)
            tau, tau_star = rng.uniform(-10.0, 10.0, (2, 2))
            want = numpy_forward_dynamics(arm.theta, q, qdot, tau, tau_star)
            assert np.array_equal(arm.forward_dynamics(q, qdot, tau, tau_star), want)

    @pytest.mark.parametrize("angle", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("joint", [0, 1])
    def test_non_finite_angles_give_numpy_nans(self, arm, angle, joint):
        # as integrate runs them: numpy's invalid-value warning silenced,
        # every other warning an error
        q = np.array([0.3, -0.7])
        q[joint] = angle
        qdot, zeta, zetadot = np.array([[0.5, -1.0], [0.2, 0.4], [-0.3, 0.6]])
        tau, tau_star = np.array([[1.0, -2.0], [0.1, 0.2]])
        with np.errstate(invalid="ignore"), warnings.catch_warnings():
            warnings.simplefilter("error")
            want = numpy_terms(arm.theta, q, qdot, zeta, zetadot)
            want["forward_dynamics"] = numpy_forward_dynamics(arm.theta, q, qdot, tau, tau_star)
            got = arm_terms(arm, q, qdot, zeta, zetadot)
            got["forward_dynamics"] = arm.forward_dynamics(q, qdot, tau, tau_star)
        assert np.isnan(got["forward_dynamics"]).all()
        for name, value in got.items():
            assert np.array_equal(value, want[name], equal_nan=True), name

    def test_lumped_parameters_are_read_only(self, arm):
        # the terms read a tuple made at construction, which must not drift
        with pytest.raises(ValueError, match="read-only"):
            arm.theta[1] = 2.0

    def test_singular_inertia_gives_numpy_infinities(self):
        # no inertia on link 2 and its mass at the joint: det M = 0, which
        # must end a run as a divergence, not a ZeroDivisionError
        arm = TwoLinkArm(ArmParams(I2=0.0, lc2=0.0))
        q, qdot, tau, tau_star = np.array([[0.3, -0.7], [0.5, -1.0], [1.0, -2.0], [0.1, 0.2]])
        with np.errstate(divide="ignore", invalid="ignore"):
            got = arm.forward_dynamics(q, qdot, tau, tau_star)
            want = numpy_forward_dynamics(arm.theta, q, qdot, tau, tau_star)
        assert not np.isfinite(got).any()
        assert np.array_equal(got, want, equal_nan=True)
        with pytest.warns(RuntimeWarning):
            arm.forward_dynamics(q, qdot, tau, tau_star)


def cos_sin_kinematics(q0, q1):
    """``_kinematics`` angle by angle, the reference it must match bitwise."""
    return _cos_sin(q0)[0], *_cos_sin(q1), _cos_sin(q0 + q1)[0]


class TestKinematics:
    """The regressor and the plant read the trigonometry of ``q`` from
    ``_kinematics``.  Its values, and both terms built from them, must equal
    ``_cos_sin`` angle by angle bitwise, whatever pair came before."""

    QDOT, ZETA, ZETADOT = np.array([[0.5, -1.0], [0.2, 0.4], [-0.3, 0.6]])
    TAU, TAU_STAR = np.array([[1.0, -2.0], [0.1, 0.2]])

    def terms(self, arm, q):
        """The regressor, then the plant, as one RHS calls them."""
        return [arm.regressor(q, self.QDOT, self.ZETA, self.ZETADOT).tobytes(),
                arm.forward_dynamics(q, self.QDOT, self.TAU, self.TAU_STAR).tobytes()]

    def check(self, arm, q, monkeypatch):
        q = np.array(q, dtype=float)
        q0, q1 = q.tolist()
        want = np.array(cos_sin_kinematics(q0, q1)).tobytes()
        assert np.array(_kinematics(q0, q1)).tobytes() == want
        got = self.terms(arm, q)
        with monkeypatch.context() as patch:
            patch.setattr(manipulator, "_kinematics", cos_sin_kinematics)
            assert got == self.terms(arm, q)

    def test_alternating_pairs(self, arm, monkeypatch):
        a, b = [0.3, -0.7], [1.1, 0.2]
        for q in (a, b, a, a, b, b, a):
            self.check(arm, q, monkeypatch)

    def test_signed_zero_keeps_sins_sign(self, arm, monkeypatch):
        for q in ([0.3, 0.0], [0.3, -0.0], [0.3, 0.0], [0.0, -0.0], [-0.0, -0.0]):
            self.check(arm, q, monkeypatch)
        # sin keeps the sign of a zero angle, so the two pairs differ
        assert math.copysign(1.0, _kinematics(0.3, 0.0)[2]) == 1.0
        assert math.copysign(1.0, _kinematics(0.3, -0.0)[2]) == -1.0
        assert math.copysign(1.0, _kinematics(0.3, 0.0)[2]) == 1.0

    def test_nan_angles(self, arm, monkeypatch):
        nan = math.nan
        with np.errstate(invalid="ignore"):
            for q in ([nan, 0.3], [nan, 0.3], [0.3, nan], [nan, nan], [0.3, -0.7], [nan, 0.3]):
                self.check(arm, q, monkeypatch)
        assert math.isnan(_kinematics(0.3, nan)[1]) and _kinematics(0.3, 0.5)[1] == math.cos(0.5)

    @pytest.mark.parametrize("angle", [np.inf, -np.inf])
    @pytest.mark.parametrize("joint", [0, 1])
    def test_infinite_angles_take_numpys_path_on_every_call(self, arm, angle, joint, monkeypatch):
        q = np.array([0.3, -0.7])
        q[joint] = angle
        for _ in range(3):
            # numpy's invalid-value warning, again on every call
            with np.errstate(invalid="warn"):
                with pytest.warns(RuntimeWarning, match="invalid value"):
                    arm.regressor(q, self.QDOT, self.ZETA, self.ZETADOT)
                with pytest.warns(RuntimeWarning, match="invalid value"):
                    arm.forward_dynamics(q, self.QDOT, self.TAU, self.TAU_STAR)
            with np.errstate(invalid="ignore"):
                self.check(arm, q, monkeypatch)

    def test_arms_with_different_parameters(self, monkeypatch):
        light, heavy = TwoLinkArm(), TwoLinkArm(ArmParams(m2=2.5, lc2=0.3, I2=0.4))
        for arm in (light, heavy, light, heavy):
            self.check(arm, [0.4, -1.3], monkeypatch)
        assert self.terms(light, np.array([0.4, -1.3])) != self.terms(heavy, np.array([0.4, -1.3]))


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


class TestRhsInputContract:
    """``regressor`` and ``forward_dynamics`` take 1-D ndarrays and convert
    nothing: any view of a state gives the bits of a fresh array, and a
    list is refused, not coerced."""

    def test_strided_views_give_the_bits_of_fresh_arrays(self, arm):
        # the columns of plant records, as integrate returns q and qdot
        rng = np.random.default_rng(21)
        for _ in range(200):
            records = rng.uniform(-3.0, 3.0, (2, 4))
            views = tuple(records.T)
            assert not views[0].flags.c_contiguous
            copies = tuple(v.copy() for v in views)
            assert arm.regressor(*views).tobytes() == arm.regressor(*copies).tobytes()
            assert arm.forward_dynamics(*views).tobytes() == arm.forward_dynamics(*copies).tobytes()
            assert records.T.tobytes() == np.array(copies).tobytes()  # no input is written

    def test_lists_are_refused(self, arm):
        q, qdot, zeta, zetadot = np.array([[0.3, -0.7], [0.5, -1.0], [0.2, 0.4], [-0.3, 0.6]])
        with pytest.raises(AttributeError):
            arm.regressor(q.tolist(), qdot, zeta, zetadot)
        with pytest.raises(AttributeError):
            arm.forward_dynamics(q, qdot, [1.0, -2.0], np.zeros(2))


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
            rhs = tau + tau_star - coriolis_times(arm.coriolis(q, qdot), qdot) - arm.gravity(q)
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
