"""Energy and closed-loop residual diagnostics of every controller variant.

On sampled closed-loop states, each variant defines exactly the diagnostics
listed in ``DEFINED``; the others are NaN.  Where they are defined they must
equal, bitwise, the formulas restated below: the energy of the adaptive law,
the filtered-damping energies, the torque-side identity of ``plain`` and
``pid``, and the input-side identity of the seven laws acting on
``s = qdot - z``.
"""

import numpy as np
import pytest

from refcascade.controllers import (
    VARIANTS,
    GainSet,
    build_controller,
    closed_loop_residual,
    lyapunov_diag,
)
from refcascade.refdyn import critically_damped_coeffs
from refcascade.signals import DisturbanceSpec, TrajectorySpec

NAN = float("nan")

# variant -> which of (V, V_aux, residual) are defined
DEFINED = {
    "adaptive": (True, False, True),
    "plain": (False, False, True),
    "pid": (False, False, True),
    "pid_textbook": (False, False, False),
    "known": (False, False, True),
    "nldamp": (False, False, True),
    "passive": (True, True, True),
    "filtered_adaptive": (True, True, True),
    "stacked_single": (True, True, True),
    "stacked_multi": (True, True, True),
}

TORQUE_SIDE = ("plain", "pid")
FILTERED_DAMPING = ("passive", "filtered_adaptive", "stacked_single", "stacked_multi")


def reference_energy(variant, ctrl, model, q, extras):
    s = extras["s"]
    quad = 0.5 * s @ model.inertia(q) @ s
    if variant == "adaptive":
        dth = extras["theta_hat"] - model.theta
        return quad + 0.5 * dth @ (dth / ctrl.gamma), NAN
    if variant in FILTERED_DAMPING:
        xi = extras["xi"]
        g = ctrl.gains
        return (quad + (g.lambda_D / (2.0 * g.lam)) * xi @ xi,
                quad + (g.lambda_D / (4.0 * g.lam)) * xi @ xi)
    return NAN, NAN


def reference_residual(variant, ctrl, model, q, qdot, tau, tau_star, extras):
    if variant == "pid_textbook":
        return NAN
    qdd = model.forward_dynamics(q, qdot, tau, tau_star)
    M = model.inertia(q)
    C = model.coriolis(q, qdot)
    if variant in TORQUE_SIDE:
        gain = ctrl.gains.pid_diags(ctrl.n)[0] if variant == "pid" else ctrl.gains.k_diag(ctrl.n)
        res = M @ qdd + C @ qdot + model.gravity(q) - tau_star + gain * extras["s"]
        return float(np.max(np.abs(res)))
    s = extras["s"]
    sdot = qdd - extras["ref_acc"]
    res = M @ sdot + C @ s + ctrl.gains.k_diag(ctrl.n) * s - tau_star
    Y = model.regressor(q, qdot, extras["ref_vel"], extras["ref_acc"])
    if variant != "known":
        res = res - Y @ (extras["theta_hat"] - model.theta)
    if variant == "nldamp":
        res = res + ctrl.gains.lambda_D * (Y @ (Y.T @ s))
    elif variant in FILTERED_DAMPING:
        res = res + ctrl.gains.lambda_D * (Y @ extras["xi"])
    return float(np.max(np.abs(res)))


def _same(got, want):
    return (np.isnan(got) and np.isnan(want)) or got == want


def test_every_variant_is_covered():
    assert set(DEFINED) == set(VARIANTS)


@pytest.mark.parametrize("variant", sorted(DEFINED))
def test_diagnostics_match_their_definitions(variant, model, loop_runner):
    traj = TrajectorySpec.multisine([[(0.4, 0.6, 0.0)], [(0.3, 0.6, 0.9)]])
    dist = DisturbanceSpec.tones([[(0.3, 0.8, 0.2)], [(0.2, 0.8, 0.0)]])
    ctrl = build_controller(
        variant, model.shape(), GainSet(), traj, critically_damped_coeffs(4.0, 2),
        theta_hat0=0.5 * model.theta, feedforward_theta=model.theta, n_star=2,
        freq_hat0=np.array([0.5, 1.5]) if variant == "stacked_multi" else 0.5,
    )
    records = loop_runner(model, ctrl, dist, duration=0.5, dt=2e-3, sample_stride=25)
    assert len(records) == 11
    for t, q, qdot, ev in records:
        ts = dist.eval(t)
        got = (*lyapunov_diag(ctrl, model, q, qdot, ev.extras),
               closed_loop_residual(ctrl, model, t, q, qdot, ev.tau, ts, ev.extras))
        want = (*reference_energy(variant, ctrl, model, q, ev.extras),
                reference_residual(variant, ctrl, model, q, qdot, ev.tau, ts, ev.extras))
        assert tuple(bool(np.isfinite(g)) for g in got) == DEFINED[variant]
        for g, w in zip(got, want):
            assert _same(g, w), (g, w)
