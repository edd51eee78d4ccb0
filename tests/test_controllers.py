import numpy as np
import pytest

from refcascade.config import load_config
from refcascade.controllers import (
    VARIANTS,
    ConfigError,
    TrajectoryView,
    build_controller,
    closed_loop_residual,
    lyapunov_diag,
)
from refcascade.controllers.base import Layout
from refcascade.filters import FilterBank
from refcascade.harness import integrate
from refcascade.manipulator import ArmParams, TwoLinkArm
from refcascade.numerics import poly_from_roots, poly_mul, rk4_step
from refcascade.refdyn import QD_ROWS, critically_damped_coeffs
from refcascade.signals import DisturbanceSpec, TrajectorySpec


COEFFS = critically_damped_coeffs(4.0, 2)
GAINS = load_config().values["gains"]


def make(variant, model, traj, gains=None, coeffs=COEFFS, **kw):
    return build_controller(variant, model.shape(), gains or GAINS, traj, coeffs, **kw)


class TestTrivialTorques:
    def test_adaptive_rest_zero(self):
        model = TwoLinkArm(ArmParams(g0=0.0))
        traj = TrajectorySpec.constant([0.0, 0.0])
        ctrl = make("adaptive", model, traj, theta_hat0=np.zeros(5))
        x = ctrl.initial_state(np.zeros(2), np.zeros(2))
        ev = ctrl.observe(0.0, np.zeros(2), np.zeros(2), x)
        assert np.array_equal(ev.tau, np.zeros(2))
        assert np.array_equal(ev.extras["ref_vel"], np.zeros(2))

    def test_plain_zero_error_zero_torque(self, model):
        traj = TrajectorySpec.constant([0.3, -0.2])
        ctrl = make("plain", model, traj)
        q = np.array([0.3, -0.2])
        x = ctrl.initial_state(q, np.zeros(2))
        ev = ctrl.observe(0.0, q, np.zeros(2), x)
        assert np.max(np.abs(ev.tau)) == 0.0
        assert np.max(np.abs(ev.xdot)) == 0.0  # equilibrium of the cascade

    def test_pid_zero_error(self, model):
        traj = TrajectorySpec.constant([0.1, 0.2])
        ctrl = make("pid", model, traj)
        q = np.array([0.1, 0.2])
        x = ctrl.initial_state(q, np.zeros(2))
        ev = ctrl.observe(0.0, q, np.zeros(2), x)
        assert np.max(np.abs(ev.tau)) == 0.0

    def test_known_pure_feedforward_at_zero_error(self, model):
        traj = TrajectorySpec.constant([0.4, -0.1])
        ctrl = make("known", model, traj, feedforward_theta=model.theta)
        q = np.array([0.4, -0.1])
        x = ctrl.initial_state(q, np.zeros(2))
        ev = ctrl.observe(0.0, q, np.zeros(2), x)
        # s = 0 so tau is exactly the regressor feedforward = gravity torque
        assert np.allclose(ev.tau, model.gravity(q), atol=1e-12)

    def test_nldamp_reduces_to_known_when_damping_off(self, model):
        traj = TrajectorySpec.constant([0.2, 0.1])
        th = 0.8 * model.theta
        gains = {**GAINS, "lambda_d": 0.0}
        a = make("nldamp", model, traj, gains=gains, theta_hat0=th)
        b = make("known", model, traj, feedforward_theta=th)
        q = np.array([0.5, -0.3])
        qdot = np.array([0.2, 0.4])
        xa = a.initial_state(q, qdot)
        xb = b.initial_state(q, qdot)
        ea = a.observe(0.7, q, qdot, xa)
        eb = b.observe(0.7, q, qdot, xb)
        assert np.allclose(ea.tau, eb.tau, atol=1e-14)

    def test_passive_zero_filter_state(self, model):
        traj = TrajectorySpec.constant([0.2, 0.1])
        th = 0.9 * model.theta
        ctrl = make("passive", model, traj, theta_hat0=th)
        q = np.array([0.2, 0.1])
        x = ctrl.initial_state(q, np.zeros(2))
        ev = ctrl.observe(0.0, q, np.zeros(2), x)
        assert np.allclose(ev.tau, model.regressor(q, np.zeros(2), np.zeros(2), np.zeros(2)) @ th)

    def test_filtered_adaptive_frozen_at_truth(self, model):
        traj = TrajectorySpec.constant([0.3, -0.2])
        ctrl = make("filtered_adaptive", model, traj, theta_hat0=model.theta)
        q = np.array([0.3, -0.2])
        x = ctrl.initial_state(q, np.zeros(2))
        ev = ctrl.observe(0.0, q, np.zeros(2), x)
        th_dot = ctrl.layout.view(ev.xdot, "theta_hat")
        assert np.array_equal(th_dot, np.zeros(5))
        assert np.array_equal(ev.extras["h"], np.zeros(2))

    def test_stacked_single_equilibrium(self):
        model = TwoLinkArm(ArmParams(g0=0.0))
        traj = TrajectorySpec.constant([0.3, -0.2])
        ctrl = make("stacked_single", model, traj, theta_hat0=model.theta, freq_hat0=0.7)
        q = np.array([0.3, -0.2])
        x = ctrl.initial_state(q, np.zeros(2))
        # regressor banks settle to their DC states for the constant regressor
        Y_eq = model.regressor(q, np.zeros(2), np.zeros(2), np.zeros(2))
        xy = ctrl.layout.view(x, "b_y")
        xy[:, :, 0] = Y_eq / ctrl.b_y.a[:, :1]
        xv = ctrl.layout.view(x, "b_v")
        xv[:, 0] = (Y_eq @ model.theta) / ctrl.b_v.a[:, 0]
        ev = ctrl.observe(0.0, q, np.zeros(2), x)
        assert np.max(np.abs(ev.tau)) < 1e-13
        assert np.max(np.abs(ev.xdot)) < 1e-13


class TestLayout:
    def test_views_and_spans_of_every_block_shape(self):
        layout = Layout()
        layout.add("z", 2)
        layout.add("freq_hat")
        layout.add("phi", 3, 2)
        assert layout.names() == ("z", "freq_hat", "phi")
        assert layout.size == 9
        x = np.zeros(layout.size)
        for name, start, shape in (("z", 0, (2,)), ("freq_hat", 2, (1,)), ("phi", 3, (3, 2))):
            assert layout.span(name) == (start, shape)
            view = layout.view(x, name)
            assert view.shape == shape
            # a view, not a copy: writes through it reach x
            view[...] = np.arange(1.0, view.size + 1.0).reshape(shape)
            assert np.array_equal(x[start : start + view.size], np.arange(1.0, view.size + 1.0))
        assert np.array_equal(layout.view(x, "phi")[1], x[5:7])


class TestPidEquivalence:
    def _run_pair(self, traj, q0, qdot0, bias, duration=10.0, dt=1e-3):
        model = TwoLinkArm()
        dist = DisturbanceSpec.tones([[], []], bias=bias)
        taus = {}
        for variant in ("pid", "pid_textbook"):
            ctrl = build_controller(variant, model.shape(), GAINS, traj)
            out = []
            integrate(model, ctrl, dist, q0, qdot0, dt, int(round(duration / dt)), 1,
                      lambda k, t, q, qdot, ev, ts: out.append(ev.tau))
            taus[variant] = np.array(out)
        return np.max(np.abs(taus["pid"] - taus["pid_textbook"]))

    def test_exact_on_ramp_trajectory(self):
        traj = TrajectorySpec.polynomial([(0.4, 0.25), (-0.2, 0.15)])
        gap = self._run_pair(traj, np.array([0.2, -0.1]), np.array([0.1, 0.0]), [0.5, -0.3])
        assert gap <= 1e-9

    def test_sinusoid_within_discretization_artifact(self):
        # the continuous-time equivalence is exact; comparing the two
        # discretized loops leaves an O(h^3) mismatch when the desired
        # acceleration varies
        traj = TrajectorySpec.multisine([[(0.5, 0.8, 0.0)], [(0.4, 0.8, 0.5)]])
        gap = self._run_pair(traj, np.zeros(2), np.array([0.4, 0.32]), [0.0, 0.0], duration=5.0)
        assert gap <= 5e-8

    def test_integral_action_removes_bias(self, model):
        # regulation under constant disturbance: tracking error dies out
        traj = TrajectorySpec.constant([0.3, -0.1])
        dist = DisturbanceSpec.tones([[], []], bias=[1.0, -0.5])
        ctrl = build_controller("pid", model.shape(), GAINS, traj)
        q0 = np.array([0.3, -0.1])
        _, q, _, _ = integrate(model, ctrl, dist, q0, np.zeros(2), 1e-3, 15000, 15000,
                               lambda *sample: None)
        assert np.linalg.norm(q[-1] - [0.3, -0.1]) < 1e-3


class TestClosedLoopResiduals:
    @pytest.mark.parametrize(
        "variant,kw",
        [
            ("adaptive", dict(theta_hat0="half")),
            ("known", dict(feedforward_theta="true")),
            ("nldamp", dict(theta_hat0="half")),
            ("passive", dict(theta_hat0="half")),
            ("filtered_adaptive", dict(theta_hat0="half")),
            ("stacked_single", dict(theta_hat0="half")),
            ("stacked_multi", dict(theta_hat0="half", n_star=1)),
            ("plain", dict()),
            ("pid", dict()),
        ],
    )
    def test_residual_at_roundoff(self, model, loop_runner, variant, kw):
        kw = dict(kw)
        for key in ("theta_hat0", "feedforward_theta"):
            if kw.get(key) == "half":
                kw[key] = 0.5 * model.theta
            elif kw.get(key) == "true":
                kw[key] = model.theta
        if variant == "adaptive":
            traj = TrajectorySpec.polynomial([(0.4, 0.1), (-0.3, 0.05)])
            dist = DisturbanceSpec.zero(2)
        else:
            traj = TrajectorySpec.multisine([[(0.4, 0.6, 0.0)], [(0.3, 0.6, 0.9)]])
            dist = DisturbanceSpec.tones([[(0.3, 0.8, 0.2)], [(0.2, 0.8, 0.0)]])
        ctrl = make(variant, model, traj, **kw)
        records = loop_runner(model, ctrl, dist, duration=3.0)
        worst = 0.0
        for t, q, qdot, ev in records:
            res = closed_loop_residual(ctrl, model, t, q, qdot, ev.tau, dist.eval(t), ev.extras)
            worst = max(worst, res)
        assert worst <= 1e-9

    def test_stacked_layer_identity(self, model, loop_runner):
        traj = TrajectorySpec.constant([0.3, -0.2])
        dist = DisturbanceSpec.tones([[(1.0, 1.2, 0.0)], [(1.0, 1.2, 0.4)]])
        ctrl = make("stacked_single", model, traj, theta_hat0=0.5 * model.theta)
        records = loop_runner(model, ctrl, dist, duration=3.0)
        # psi' = -alpha_star psi + s_aux
        worst = max(
            np.max(np.abs(ex["psidot"] - (-ctrl.alpha_star * ex["psi"] + ex["s"])))
            for ex in (ev.extras for _, _, _, ev in records)
        )
        assert worst <= 1e-12


class TestLyapunovDiagnostics:
    def test_rate_identity_adaptive(self, model, loop_runner, no_disturbance):
        # dV/dt computed from the model equals -s' K s along the run
        traj = TrajectorySpec.polynomial([(0.4, 0.1), (-0.3, 0.05)])
        ctrl = make("adaptive", model, traj, theta_hat0=0.5 * model.theta)
        records = loop_runner(model, ctrl, no_disturbance, duration=4.0)
        K = ctrl.K
        for t, q, qdot, ev in records[1:]:
            s = ev.extras["s"]
            qdd = model.forward_dynamics(q, qdot, ev.tau, np.zeros(2))
            sdot = qdd - ev.extras["ref_acc"]
            th_dot = ctrl.layout.view(ev.xdot, "theta_hat")
            dth = ev.extras["theta_hat"] - model.theta
            vdot = (
                s @ model.inertia(q) @ sdot
                + 0.5 * s @ model.inertia_rate(q, qdot) @ s
                + dth @ (th_dot / ctrl.gamma)
            )
            target = -s @ (K * s)
            assert abs(vdot - target) <= 1e-6 * max(1.0, abs(target))

    def test_nonnegative_and_zero_at_origin(self, model):
        traj = TrajectorySpec.constant([0.0, 0.0])
        ctrl = make("adaptive", model, traj, theta_hat0=model.theta)
        extras = {"s": np.zeros(2), "theta_hat": model.theta}
        V, _ = lyapunov_diag(ctrl, model, np.zeros(2), np.zeros(2), extras)
        assert V == 0.0
        extras = {"s": np.array([0.3, -0.2]), "theta_hat": 0.7 * model.theta}
        V, _ = lyapunov_diag(ctrl, model, np.zeros(2), np.zeros(2), extras)
        assert V > 0.0

    def test_unsupported_variant_marked(self, model):
        traj = TrajectorySpec.constant([0.0, 0.0])
        ctrl = make("plain", model, traj)
        V, V_aux = lyapunov_diag(
            ctrl, model, np.zeros(2), np.zeros(2), {"s": np.zeros(2)}
        )
        assert np.isnan(V) and np.isnan(V_aux)

    def test_passive_energy_bounded_under_disturbance(self, model, loop_runner):
        traj = TrajectorySpec.constant([0.3, -0.2])
        dist = DisturbanceSpec.tones([[(0.5, 0.9, 0.0)], [(0.5, 0.9, 0.3)]])
        ctrl = make("passive", model, traj, theta_hat0=0.8 * model.theta)
        records = loop_runner(model, ctrl, dist, duration=8.0)
        vs = []
        for _, q, qdot, ev in records:
            V, V_aux = lyapunov_diag(ctrl, model, q, qdot, ev.extras)
            vs.append((V, V_aux))
            assert V >= 0.0 and V_aux >= 0.0
        assert max(v for v, _ in vs) < 1e3


class TestAdaptationLaws:
    def test_gradient_sign_convention(self):
        rng = np.random.default_rng(42)
        W = rng.uniform(-1, 1, (2, 5))
        e = rng.uniform(-1, 1, 2)
        gamma = 0.7
        th_dot = -gamma * (W.T @ e)
        # the estimate moves against the W-projected error gradient
        assert th_dot @ (W.T @ e) <= 0.0

    def test_frozen_estimate_keeps_swap_term_zero(self, model, loop_runner):
        traj = TrajectorySpec.multisine([[(0.4, 0.7, 0.0)], [(0.3, 0.7, 1.0)]])
        dist = DisturbanceSpec.tones([[(0.4, 1.1, 0.0)], [(0.4, 1.1, 0.5)]])
        gains = {**GAINS, "gamma": 0.0}  # freezes the parameter estimate
        ctrl = make("filtered_adaptive", model, traj, gains=gains, theta_hat0=0.6 * model.theta)
        records = loop_runner(model, ctrl, dist, duration=6.0)
        worst = max(np.max(np.abs(ev.extras["h"])) for _, _, _, ev in records)
        assert worst <= 1e-8

    def test_adaptive_estimate_bounded(self, model, loop_runner, no_disturbance):
        traj = TrajectorySpec.polynomial([(0.4, 0.1), (-0.3, 0.05)])
        ctrl = make("adaptive", model, traj, theta_hat0=np.zeros(5))
        records = loop_runner(model, ctrl, no_disturbance, duration=10.0)
        worst = max(np.max(np.abs(ev.extras["theta_hat"])) for _, _, _, ev in records)
        assert worst < 100.0


class TestInformationDiscipline:
    def test_trajectory_view_blocks_undeclared_orders(self):
        traj = TrajectorySpec.constant([0.0, 0.0])
        view = TrajectoryView(traj, "position")
        with pytest.raises(ConfigError):
            view.eval(0.0, 1)
        view = TrajectoryView(traj, "velocity")
        view.eval(0.0, 1)
        with pytest.raises(ConfigError):
            view.eval(0.0, 2)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_view_order_is_the_availability_order(self, variant, model):
        # one availability per variant: it caps the trajectory view and is
        # the variant of the reference cascade the law runs
        traj = TrajectorySpec.constant([0.0, 0.0])
        ctrl = make(variant, model, traj, feedforward_theta=model.theta)
        assert ctrl.traj.max_order == QD_ROWS[ctrl.availability] - 1
        ctrl.traj.derivs(0.0, ctrl.traj.max_order)
        with pytest.raises(ConfigError):
            ctrl.traj.eval(0.0, ctrl.traj.max_order + 1)
        if hasattr(ctrl, "refcfg"):
            assert ctrl.refcfg.availability == ctrl.availability

    @pytest.mark.parametrize(
        "variant,kw",
        [
            ("adaptive", dict(theta_hat0=np.full(5, 0.3))),
            ("filtered_adaptive", dict(theta_hat0=np.full(5, 0.3))),
            ("stacked_single", dict(theta_hat0=np.full(5, 0.3))),
            ("stacked_multi", dict(theta_hat0=np.full(5, 0.3), n_star=2)),
        ],
    )
    def test_torque_independent_of_hidden_truths(self, variant, kw):
        # controllers built from models with different true parameters (same
        # shape) produce identical torques on identical measurements
        traj = TrajectorySpec.multisine([[(0.3, 0.9, 0.1)], [(0.2, 0.9, 0.6)]])
        model_a = TwoLinkArm()
        model_b = TwoLinkArm(ArmParams(m2=2.5, lc2=0.3, I2=0.4))
        rng = np.random.default_rng(3)
        q, qdot = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
        taus = []
        for mdl in (model_a, model_b):
            ctrl = make(variant, mdl, traj, **kw)
            x = ctrl.initial_state(q, qdot)
            x = x + 0.0
            taus.append(ctrl.evaluate(0.3, q, qdot, x)[0])
        assert np.array_equal(taus[0], taus[1])

    def test_position_only_variant_never_reads_velocity(self, model):
        # the adaptive variant declares position-only availability; its view
        # rejects any attempt to read derivative data
        traj = TrajectorySpec.multisine([[(0.3, 0.9, 0.1)], [(0.2, 0.9, 0.6)]])
        ctrl = make("adaptive", model, traj, theta_hat0=np.zeros(5))
        assert ctrl.traj.max_order == 0
        with pytest.raises(ConfigError):
            ctrl.traj.eval(0.0, 1)


class TestStackedStructure:
    def test_multi_tone_layer_sizes(self, model):
        traj = TrajectorySpec.constant([0.0, 0.0])
        ctrl = make("stacked_multi", model, traj, theta_hat0=np.zeros(5), n_star=2)
        # tone layer carries 2 n_star integrators per joint
        assert ctrl.f_e.order == 4
        assert ctrl.f_u.order == 6
        assert ctrl.layout.view(np.zeros(ctrl.state_size), "freq_hat").size == 2

    def test_multi_rejects_zero_tones(self, model):
        traj = TrajectorySpec.constant([0.0, 0.0])
        with pytest.raises(ConfigError):
            make("stacked_multi", model, traj, n_star=0)

    def test_stacked_rejects_order_one(self, model):
        traj = TrajectorySpec.constant([0.0, 0.0])
        with pytest.raises(ConfigError):
            make("stacked_single", model, traj, coeffs=critically_damped_coeffs(4.0, 1))

    @pytest.mark.parametrize("ell", [2, 3, 4])
    @pytest.mark.parametrize("n_star", [1, 2, 3])
    def test_multi_banks_are_the_products_of_their_factors(self, model, n_star, ell):
        # each bank's response against its factors, each evaluated on its
        # own: a slipped power in a numerator changes no bank's structure
        m, kappa = 2 * n_star, 1.5
        hden = poly_from_roots(-np.arange(1.0, m + 1.0))  # distinct roots
        gains = {**GAINS, "k": (20.0, 30.0), "lam_corr": (2.0, 3.5), "kappa_star": kappa,
                 "hstar_den": tuple(hden[:-1])}
        coeffs = critically_damped_coeffs(4.0, ell)
        ctrl = make("stacked_multi", model, TrajectorySpec.constant([0.0, 0.0]), gains=gains,
                    coeffs=coeffs, n_star=n_star)
        val = np.polynomial.polynomial.polyval
        for w in (0.3, 1.7, 6.0):
            p = 1j * w
            H, kpoly, P = val(p, hden), (p + kappa) ** 2, val(p, np.append(coeffs.alphas, 1.0))
            factors = [(ctrl.f_e, 0, (H - p**m) / p**m), (ctrl.f_u, 0, H / (p**m * kpoly)),
                       (ctrl.f_outer_w, 0, p**2 / kpoly), (ctrl.f_outer_h, 0, p**2 / kpoly)]
            factors += [(ctrl.f_w, i - 1, p ** (2 * i - 2) * kpoly / H)
                        for i in range(1, n_star + 1)]
            for row, (lam_r, k_r) in enumerate(zip((2.0, 3.5), (20.0, 30.0))):
                for bank, k, want in factors:
                    got = bank.response_at(w, k, row)
                    assert abs(got - want) <= 1e-12 * abs(want), (bank, k, row, w)
                for i in range(1, n_star + 2):
                    want = lam_r * p ** (2 * i + ell - 3) * kpoly / (H * P * (p + k_r))
                    got = ctrl.b_y.response_at(w, i - 1, row)
                    assert abs(got - want) <= 1e-12 * abs(want), ("b_y", i, row, w)

    def test_tone_regressor_matches_derivative_then_filter(self):
        # numerator-absorbed [p^(2i-2) H] u equals H applied to the exact
        # (2i-2)-th derivative after transients decay
        kappa = 2.0
        kpoly = np.array([kappa * kappa, 2.0 * kappa, 1.0])
        hden = poly_mul([2.0, 1.0], [2.0, 1.0], [3.0, 1.0], [3.0, 1.0])  # degree 4
        i = 2  # second tone: differentiate twice
        absorbed = FilterBank([(hden, [poly_mul([0.0, 0.0, 1.0], kpoly)])])
        plain = FilterBank([(hden, [kpoly])])

        def u(t, order=0):
            return 0.7 * 1.3**order * np.sin(1.3 * t + order * np.pi / 2)

        xa = np.zeros(absorbed.state_shape())
        xp = np.zeros(plain.state_shape())
        t, dt = 0.0, 1e-3
        gaps = []
        for k in range(12000):
            if k > 6000 and k % 200 == 0:
                ya = absorbed.output(xa, np.array([u(t)]))
                yp = plain.output(xp, np.array([u(t, 2)]))
                gaps.append(abs(float(ya[0] - yp[0])))
            xa = rk4_step(lambda tt, xx: absorbed.deriv(xx.reshape(1, -1), np.array([u(tt)])).ravel(),
                          xa.ravel(), t, dt).reshape(1, -1)
            xp = rk4_step(lambda tt, xx: plain.deriv(xx.reshape(1, -1), np.array([u(tt, 2)])).ravel(),
                          xp.ravel(), t, dt).reshape(1, -1)
            t += dt
        assert max(gaps) <= 1e-6


class TestGainValidation:
    def test_non_diagonal_rejected(self, model):
        # a gain is one entry or n; a matrix, even a diagonal one, is refused
        traj = TrajectorySpec.constant([0.0, 0.0])
        for bad in ([[20.0, 1.0], [0.0, 20.0]], [[20.0, 0.0], [0.0, 20.0]]):
            with pytest.raises(ConfigError):
                make("plain", model, traj, gains={**GAINS, "k": np.array(bad)})

    def test_negative_scalar_rejected(self, model):
        traj = TrajectorySpec.constant([0.0, 0.0])
        with pytest.raises(ConfigError):
            make("passive", model, traj, gains={**GAINS, "lambda": -1.0}, theta_hat0=np.zeros(5))

    def test_unknown_variant(self, model):
        traj = TrajectorySpec.constant([0.0, 0.0])
        with pytest.raises(ConfigError):
            build_controller("mystery", model.shape(), GAINS, traj, COEFFS)

    def test_option_no_variant_takes(self, model):
        traj = TrajectorySpec.constant([0.0, 0.0])
        with pytest.raises(ConfigError, match="bogus"):
            make("adaptive", model, traj, bogus=1.0)

    def test_known_needs_theta(self, model):
        traj = TrajectorySpec.constant([0.0, 0.0])
        with pytest.raises(ConfigError):
            make("known", model, traj)
