"""The compiled cascade of the single-layer laws, and the evaluate/observe split.

``basic.compile_cascade`` turns ``cascade_rates`` into one matrix over
``[phi; q; qdot; q_d rows]``; its rows must reproduce the function on any
stable coefficient set, order and availability, up to the roundoff of
summing the same terms in another order.  Every variant's per-stage
``evaluate`` and sampled ``observe`` run the same law, so they must agree
bitwise, and the single-layer laws must not call ``cascade_rates`` once
they are built.  Those laws run over Python floats; an RK4 step of the
list RHS ``integrate`` passes to ``rk4_step`` must give the bits of the
same step over each law's ndarray statements (:func:`_array_law`).
"""

import numpy as np
import pytest
from draws import SEEDS
from hypothesis import given, settings

from refcascade.config import load_config
from refcascade.controllers import VARIANTS, basic, build_controller
from refcascade import harness
from refcascade.harness import integrate
from refcascade.manipulator import TwoLinkArm
from refcascade.numerics import poly_from_roots, rk4_step
from refcascade.refdyn import (
    AVAILABILITIES,
    HurwitzCoeffs,
    ReferenceConfig,
    cascade_rates,
    critically_damped_coeffs,
)
from refcascade.signals import DisturbanceSpec, JointSignal, Tone, TrajectorySpec

N = 2


def random_cascade(rng):
    """A stable cascade: ell + 1 roots, some in conjugate pairs, left of -0.25."""
    ell = int(rng.integers(1, 7))
    roots = []
    for _ in range(rng.integers(0, (ell + 1) // 2 + 1)):
        re, im = rng.uniform(0.25, 4.0, 2)
        roots += [complex(-re, im), complex(-re, -im)]
    roots += list(-rng.uniform(0.25, 4.0, ell + 1 - len(roots)))
    availability = AVAILABILITIES[rng.integers(len(AVAILABILITIES))]
    lam = rng.uniform(0.25, 4.0, N) if availability == "full_corrected" else None
    coeffs = HurwitzCoeffs(ell, poly_from_roots(roots)[:-1])
    return ReferenceConfig(coeffs, availability, lam)


@settings(max_examples=150)
@given(seed=SEEDS)
def test_compiled_rows_match_cascade_rates(seed):
    rng = np.random.default_rng(seed)
    cfg = random_cascade(rng)
    ell = cfg.ell
    rows = {"position": 1, "velocity": 2}.get(cfg.availability, 3)
    phi = rng.uniform(-2.0, 2.0, (ell, N))
    q, qdot = rng.uniform(-2.0, 2.0, (2, N))
    qd = rng.uniform(-2.0, 2.0, (rows, N))
    v = np.concatenate((phi.ravel(), q, qdot, qd.ravel()))

    r = basic.compile_cascade(cfg, N) @ v
    phi_dot, _ = cascade_rates(cfg, phi, q, qdot, *qd)
    # relative to the largest term a rate sums
    lam = 0.0 if cfg.Lambda is None else np.max(cfg.Lambda)
    scale = max(1.0, np.max(cfg.coeffs.alphas), lam) * np.max(np.abs(v))
    assert np.max(np.abs(r[: ell * N] - phi_dot.ravel())) <= 1e-14 * scale
    assert np.array_equal(r[ell * N :], qdot - phi[0])


COEFFS = critically_damped_coeffs(4.0, 2)
CASCADE_VARIANTS = ("adaptive", "plain", "known", "nldamp", "passive")


def _build(variant, model):
    traj = TrajectorySpec.multisine([[(0.4, 0.6, 0.0)], [(0.3, 0.6, 0.9)]])
    return build_controller(
        variant, model.shape(), load_config().values["gains"], traj, COEFFS,
        theta_hat0=0.5 * model.theta, feedforward_theta=model.theta, n_star=2,
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluate_equals_observe_bitwise(variant):
    model = TwoLinkArm()
    ctrl = _build(variant, model)
    rng = np.random.default_rng(5)
    for _ in range(5):
        t = rng.uniform(0.0, 5.0)
        q, qdot = rng.uniform(-1.0, 1.0, (2, ctrl.n))
        x = rng.uniform(-1.0, 1.0, ctrl.state_size)
        # the rate comes as a tuple of 1-D parts in layout order; evaluate's
        # arrays may be views the next call overwrites, so join them now
        tau, parts = ctrl.evaluate(t, q, qdot, x)
        assert isinstance(parts, tuple) and all(part.ndim == 1 for part in parts)
        tau, xdot = tau.copy(), np.concatenate(parts)
        ev = ctrl.observe(t, q, qdot, x)
        assert tau.tobytes() == ev.tau.tobytes()
        assert xdot.tobytes() == ev.xdot.tobytes()
        assert ev.xdot.shape == (ctrl.state_size,)
        # observe's xdot is owned: no later evaluation writes into it
        assert not any(np.shares_memory(ev.xdot, part)
                       for part in ctrl.evaluate(t, q, qdot, x)[1])
        assert "s" in ev.extras


@pytest.mark.parametrize("variant", CASCADE_VARIANTS)
def test_cascade_rates_runs_only_at_construction(variant, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cascade_rates(*args, **kwargs)

    monkeypatch.setattr(basic, "cascade_rates", counted)
    model = TwoLinkArm()
    ctrl = _build(variant, model)
    assert len(calls) == 1
    q0, qdot0 = ctrl.traj.eval(0.0, 0), np.zeros(2)
    integrate(model, ctrl, DisturbanceSpec.zero(2), q0, qdot0, 1e-3, 20, 1, lambda *sample: None)
    assert len(calls) == 1


# the single-layer laws: the five cascade laws, whose availability a test
# may change, and the PID pair
FLOAT_LAWS = {cls.variant: cls for cls in (
    basic.AdaptiveCascadeController, basic.PlainCascadeController, basic.KnownParamsController,
    basic.NonlinearDampingController, basic.PassiveFilterController,
    basic.PidReformulatedController, basic.PidTextbookController)}


def _array_law(ctrl, t, q, qdot, x):
    """``(tau, xdot)`` of a single-layer law stated over ndarrays, as the
    laws ran before they ran over floats: the reference of the float path."""
    v = ctrl.variant
    if v.startswith("pid"):
        rows = ctrl.traj.derivs(t, 2 if v == "pid" else 1)
        dq, dqdot = q - rows[0], qdot - rows[1]
        if v == "pid_textbook":
            return -ctrl.kd * dqdot - ctrl.kp * dq - ctrl.ki * x, dq
        return -ctrl.kd * (qdot - x), rows[2] - (ctrl.kp * dqdot + ctrl.ki * dq) / ctrl.kd
    n, m = ctrl.n, ctrl.refcfg.ell * ctrl.n
    phi, rest = x[:m], x[m:]
    v_in = np.concatenate((phi, q, qdot, ctrl.traj.derivs(t, ctrl.traj.max_order).ravel()))
    r = basic.compile_cascade(ctrl.refcfg, n).dot(v_in)
    z, zdot, s, phi_dot = phi[:n], r[:n], r[m:], r[:m]
    tau = -ctrl.K * s
    if v == "plain":
        return tau, phi_dot
    Y = ctrl.shape.regressor(q, qdot, z, zdot)
    if v == "adaptive":
        return tau + Y.dot(rest), np.concatenate((phi_dot, -ctrl.gamma * Y.T.dot(s)))
    if v == "known":
        return tau + Y.dot(ctrl.theta_ff), phi_dot
    tau = tau + Y.dot(ctrl.theta_hat)
    if v == "nldamp":
        return tau - ctrl.lambda_D * Y.dot(Y.T.dot(s)), phi_dot
    return (tau - ctrl.lambda_D * Y.dot(rest),
            np.concatenate((phi_dot, -ctrl.lam * rest + ctrl.lam * Y.T.dot(s))))


def _drawn_law(rng, variant, model):
    """A law with drawn gains, cascade (every availability, ``ell`` 1-6, for
    the cascade laws), estimates and signals; and a drawn disturbance."""
    cls = FLOAT_LAWS[variant]
    cfg = random_cascade(rng)
    if variant.startswith("pid"):
        args = ()
    else:
        cls = type(cls.__name__, (cls,), {"availability": cfg.availability})
        args = (cfg.coeffs,)
    gains = {key: tuple(rng.uniform(0.1, 50.0, width)) for key, width in
             (("k", N), ("gamma", 5), ("kd", N), ("kp", N), ("ki", N))}
    gains.update(lambda_d=rng.uniform(0.0, 5.0), **{"lambda": rng.uniform(0.1, 20.0)},
                 lam_corr=tuple(rng.uniform(0.25, 4.0, N)))
    estimate = rng.uniform(-2.0, 2.0, 5)
    options = ({"feedforward_theta": estimate} if variant == "known" else
               {"theta_hat0": estimate} if variant in ("adaptive", "nldamp", "passive") else {})

    def joints():
        return [JointSignal(poly=tuple(rng.uniform(-1.0, 1.0, rng.integers(0, 5))),
                            tones=tuple(Tone(*rng.uniform(0.1, 2.0, 3))
                                        for _ in range(rng.integers(0, 3))),
                            offset=rng.uniform(-1.0, 1.0)) for _ in range(N)]

    ctrl = cls(model.shape(), gains, TrajectorySpec(joints()), *args, **options)
    return ctrl, DisturbanceSpec(joints())


class _Stepped(Exception):
    """Raised by a stand-in ``rk4_step``, with the arguments ``integrate`` passed."""


def _first_step(model, ctrl, dist, x, h):
    """``(deriv, x, k1)`` that ``integrate`` passes to ``rk4_step`` on its
    first, sampled step, from the joint state ``x``."""
    def stand_in(deriv, xx, t, dt, k1=None):
        raise _Stepped(deriv, xx, k1)

    p = 2 * N
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "rk4_step", stand_in)
        patch.setattr(ctrl, "initial_state", lambda q0, qdot0, t0: x[p:].copy())
        with pytest.raises(_Stepped) as stepped:
            integrate(model, ctrl, dist, x[:N], x[N:p], h, 1, 1, lambda *sample: None)
    return stepped.value.args


@pytest.mark.parametrize("variant", FLOAT_LAWS)
@settings(max_examples=25)
@given(seed=SEEDS)
def test_float_rhs_steps_like_the_array_law_bitwise(variant, seed):
    rng = np.random.default_rng(seed)
    model = TwoLinkArm()
    ctrl, dist = _drawn_law(rng, variant, model)
    p = 2 * N
    x = np.concatenate((rng.uniform(-3.0, 3.0, p),
                        rng.standard_normal(ctrl.state_size) * 10.0 ** rng.uniform(-1.0, 1.0)))
    t, h = rng.uniform(0.0, 10.0), 10.0 ** rng.uniform(-4.0, -1.5)
    deriv, x0, k1 = _first_step(model, ctrl, dist, x, h)
    # the law picks the list state; its sampled first stage is the array law's
    assert type(x0) is list and np.array(x0).tobytes() == x.tobytes()

    def array_deriv(tt, xx):
        q, qdot = xx[:N], xx[N:p]
        tau, xdot = _array_law(ctrl, tt, q, qdot, xx[p:])
        return np.concatenate((qdot, model.forward_dynamics(q, qdot, tau, dist.eval(tt)), xdot))

    assert type(k1) is list and np.array(k1).tobytes() == array_deriv(0.0, x).tobytes()
    want = rk4_step(array_deriv, x, t, h)
    assert np.array(rk4_step(deriv, x.tolist(), t, h)).tobytes() == want.tobytes()
    assert np.array(rk4_step(deriv, x0, 0.0, h, k1=k1)).tobytes() == \
        rk4_step(array_deriv, x, 0.0, h).tobytes()
    # the observation of a sampled step is the array law's too
    ev = ctrl.observe(t, x[:N], x[N:p], x[p:])
    tau, xdot = _array_law(ctrl, t, x[:N], x[N:p], x[p:])
    assert ev.tau.tobytes() == tau.tobytes() and ev.xdot.tobytes() == xdot.tobytes()
