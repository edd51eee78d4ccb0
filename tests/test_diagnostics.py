"""Energy and closed-loop residual diagnostics of every controller variant.

On sampled closed-loop states, each variant defines exactly the diagnostics
listed in ``DEFINED``; the others are NaN.  Where they are defined they must
equal, bitwise, the formulas restated below: the energy of the adaptive law,
the filtered-damping energies, the torque-side identity of ``plain`` and
``pid``, and the input-side identity of the seven laws acting on
``s = qdot - z``.  The energies take a stack of samples along a leading
axis as ``run_experiment`` does, once per run, and give the bits of one
call per sample.
"""

import numpy as np
import pytest

from refcascade.config import load_config
from refcascade.controllers import (
    VARIANTS,
    build_controller,
    closed_loop_residual,
    lyapunov_diag,
)
from refcascade.refdyn import critically_damped_coeffs
from refcascade.signals import DisturbanceSpec, TrajectorySpec

NAN = float("nan")
GAINS = load_config().values["gains"]

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
        return (quad + (GAINS["lambda_d"] / (2.0 * GAINS["lambda"])) * xi @ xi,
                quad + (GAINS["lambda_d"] / (4.0 * GAINS["lambda"])) * xi @ xi)
    return NAN, NAN


def reference_residual(variant, ctrl, model, q, qdot, tau, tau_star, extras):
    if variant == "pid_textbook":
        return NAN
    qdd = model.forward_dynamics(q, qdot, tau, tau_star)
    M = model.inertia(q)
    C = model.coriolis(q, qdot)
    if variant in TORQUE_SIDE:
        gain = np.asarray(GAINS["kd" if variant == "pid" else "k"])
        res = M @ qdd + C @ qdot + model.gravity(q) - tau_star + gain * extras["s"]
        return float(np.max(np.abs(res)))
    s = extras["s"]
    sdot = qdd - extras["ref_acc"]
    res = M @ sdot + C @ s + np.asarray(GAINS["k"]) * s - tau_star
    Y = model.regressor(q, qdot, extras["ref_vel"], extras["ref_acc"])
    if variant != "known":
        res = res - Y @ (extras["theta_hat"] - model.theta)
    if variant == "nldamp":
        res = res + GAINS["lambda_d"] * (Y @ (Y.T @ s))
    elif variant in FILTERED_DAMPING:
        res = res + GAINS["lambda_d"] * (Y @ extras["xi"])
    return float(np.max(np.abs(res)))


def _same(got, want):
    return (np.isnan(got) and np.isnan(want)) or got == want


def test_every_variant_is_covered():
    assert set(DEFINED) == set(VARIANTS)


def _recorded(variant, model, loop_runner):
    """A short closed-loop run of ``variant``: its controller, disturbance
    and 11 sampled ``(t, q, qdot, ev)``."""
    traj = TrajectorySpec.multisine([[(0.4, 0.6, 0.0)], [(0.3, 0.6, 0.9)]])
    dist = DisturbanceSpec.tones([[(0.3, 0.8, 0.2)], [(0.2, 0.8, 0.0)]])
    ctrl = build_controller(
        variant, model.shape(), GAINS, traj, critically_damped_coeffs(4.0, 2),
        theta_hat0=0.5 * model.theta, feedforward_theta=model.theta, n_star=2,
        freq_hat0=np.array([0.5, 1.5]) if variant == "stacked_multi" else 0.5,
    )
    records = loop_runner(model, ctrl, dist, duration=0.5, dt=2e-3, sample_stride=25)
    assert len(records) == 11
    return ctrl, dist, records


@pytest.mark.parametrize("variant", sorted(DEFINED))
def test_diagnostics_match_their_definitions(variant, model, loop_runner):
    ctrl, dist, records = _recorded(variant, model, loop_runner)
    for t, q, qdot, ev in records:
        ts = dist.eval(t)
        got = (*lyapunov_diag(ctrl, model, q, qdot, ev.extras),
               closed_loop_residual(ctrl, model, t, q, qdot, ev.tau, ts, ev.extras))
        want = (*reference_energy(variant, ctrl, model, q, ev.extras),
                reference_residual(variant, ctrl, model, q, qdot, ev.tau, ts, ev.extras))
        assert tuple(bool(np.isfinite(g)) for g in got) == DEFINED[variant]
        for g, w in zip(got, want):
            assert _same(g, w), (g, w)


def _stack(ctrl, records):
    """The samples' ``q``, ``qdot`` and the extras the energy reads, each
    stacked along a leading axis, as ``run_experiment`` hands them over."""
    q, qdot = (np.array([rec[i] for rec in records]) for i in (1, 2))
    return q, qdot, {key: np.array([rec[3].extras[key] for rec in records])
                     for key in ctrl.energy_reads}


def _per_sample(ctrl, model, q, qdot, extras):
    """``lyapunov_diag`` called on each sample of a stack, as two arrays."""
    rows = [lyapunov_diag(ctrl, model, q[i], qdot[i], {key: col[i] for key, col in extras.items()})
            for i in range(len(q))]
    return tuple(np.array(col, dtype=float) for col in zip(*rows))


@pytest.mark.parametrize("variant", sorted(DEFINED))
def test_stacked_energies_equal_the_per_sample_ones(variant, model, loop_runner):
    ctrl, _, records = _recorded(variant, model, loop_runner)
    q, qdot, extras = _stack(ctrl, records)
    V, V_aux = lyapunov_diag(ctrl, model, q, qdot, extras)
    assert V.shape == V_aux.shape == (len(records),)
    for got, want in zip((V, V_aux), _per_sample(ctrl, model, q, qdot, extras)):
        assert got.tobytes() == want.tobytes()
    for i, (_, q_i, _, ev) in enumerate(records):
        want = reference_energy(variant, ctrl, model, q_i, ev.extras)
        assert _same(V[i], want[0]) and _same(V_aux[i], want[1])
    assert tuple(bool(np.isfinite(col).all()) for col in (V, V_aux)) == DEFINED[variant][:2]


@pytest.mark.parametrize("variant", sorted(DEFINED))
def test_stacked_energies_keep_non_finite_samples_apart(variant, model, loop_runner):
    # a NaN and an inf sample, under run_experiment's error state: they
    # spoil their own entries and no other, as one call per sample does
    ctrl, _, records = _recorded(variant, model, loop_runner)
    q, qdot, extras = _stack(ctrl, records)
    q[3, 1] = np.inf
    for col in extras.values():
        col[6, 0] = np.nan
        col[8, -1] = -np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        stacked = lyapunov_diag(ctrl, model, q, qdot, extras)
        per_sample = _per_sample(ctrl, model, q, qdot, extras)
    clean = np.ones(len(q), dtype=bool)
    clean[[3, 6, 8]] = False
    base = _per_sample(ctrl, model, *_stack(ctrl, records))
    for got, want, unspoiled in zip(stacked, per_sample, base):
        assert got.tobytes() == want.tobytes()
        assert got[clean].tobytes() == unspoiled[clean].tobytes()
        assert not np.isfinite(got[~clean]).any()
