"""Single-layer torque laws built directly on the reference cascade.

Variants here share the pattern: a reference cascade produces the reference
velocity z and its rate, the input-side error is s = qdot - z, and the torque
is a -K s feedback optionally augmented with regressor-based feedforward and
damping terms.  The PID pair shows that textbook PID control is the
order-one member of the same family: integrating its reference ODE in closed
form reproduces the classical derivative/proportional/integral torque
exactly under the matched initialization.
"""

from __future__ import annotations

import numpy as np

from ..refdyn import QD_ROWS, ReferenceConfig, cascade_init, cascade_rates
from .base import (ConfigError, ControllerBase, FilteredDamping, SIdentity, nonnegative, positive,
                   quadratic)

__all__ = [
    "compile_cascade",
    "AdaptiveCascadeController",
    "PlainCascadeController",
    "PidReformulatedController",
    "PidTextbookController",
    "KnownParamsController",
    "NonlinearDampingController",
    "PassiveFilterController",
]


def compile_cascade(refcfg: ReferenceConfig, n: int) -> np.ndarray:
    """The matrix whose product with ``v = [phi; q; qdot; q_d rows]``
    stacks ``phi'`` (first ``n`` rows: ``z'``) over ``s = qdot - z``.

    The q_d rows are those the availability declares.  Its columns are the
    rates, linear without a constant term, on the unit basis of ``v``;
    ``validation.oracle_realization_gaps`` integrates its rate rows against
    the literal high-order ODE.
    """
    ell = refcfg.ell
    blocks = ell + 2 + QD_ROWS[refcfg.availability]
    # unit[b, j] is block b of the j-th unit vector
    unit = np.eye(blocks * n).reshape(blocks * n, blocks, n).swapaxes(0, 1)
    phi, q, qdot = unit[:ell], unit[ell], unit[ell + 1]
    phi_dot, _ = cascade_rates(refcfg, phi, q, qdot, *unit[ell + 2 :])
    rows = np.concatenate((phi_dot, (qdot - phi[0])[None]))
    return rows.transpose(0, 2, 1).reshape((ell + 1) * n, blocks * n)


class _FloatLaw(ControllerBase):
    """A law stated once over lists of floats: ``law(t, q, qdot, x, extras=None)``
    gives ``(tau, xdot)`` as lists and fills ``extras`` as ``evaluate`` does,
    which wraps it for 1-D ndarrays, the whole rate its one part."""

    def evaluate(self, t, q, qdot, x, extras=None):
        tau, xdot = self.law(t, q.tolist(), qdot.tolist(), x.tolist(), extras)
        if extras is not None:
            extras.update({key: np.array(value) for key, value in extras.items()})
        return np.array(tau), (np.array(xdot),)


class _CascadeController(_FloatLaw):
    """Base for variants whose layout leads with one reference cascade block
    ``phi``, of the variant's availability."""

    def __init__(self, shape, gains, traj, coeffs):
        super().__init__(shape, traj)
        lam = positive(gains, "lam_corr", self.n) if self.availability == "full_corrected" else None
        self.refcfg = ReferenceConfig(coeffs, self.availability, lam)
        self.K = nonnegative(gains, "k", self.n)
        self._neg_K = (-self.K).tolist()  # the torque's -K s, negated once
        self.layout.add("phi", self.refcfg.ell, self.n)
        self.M = compile_cascade(self.refcfg, self.n)
        self._m = self.layout.size
        self._qd_rows = self.traj.reader(self.traj.max_order)  # the rows M reads

    def initial_state(self, q0, qdot0, t0=0.0):
        x = super().initial_state(q0, qdot0, t0)
        qd_dot0 = self.traj.eval(t0, 1) if self.traj.max_order else None  # position reads none
        self.layout.view(x, "phi")[:] = cascade_init(self.refcfg, self.n, qd_dot0)
        return x

    def _cascade(self, t, q, qdot, phi):
        """``(z, z', s, phi')`` as lists; ``phi`` is the state's cascade block."""
        r = self.M.dot(np.array(phi + q + qdot + self._qd_rows(t).ravel().tolist())).tolist()
        return phi[: self.n], r[: self.n], r[self._m :], r[: self._m]


def _torque_residual(model, q, qdot, tau, tau_star, gain, s):
    """Torque-side identity M qdd + C qdot + g = tau* - gain s."""
    qdd = model.forward_dynamics(q, qdot, tau, tau_star)
    res = (model.inertia(q) @ qdd + model.coriolis(q, qdot) @ qdot + model.gravity(q)
           - tau_star + gain * s)
    return float(np.max(np.abs(res)))


class AdaptiveCascadeController(SIdentity, _CascadeController):
    """Adaptive tracking from position-only desired-trajectory knowledge.

    tau = -K s + Y(q, qdot, z, zdot) theta_hat,   s = qdot - z,
    with gradient adaptation theta_hat' = -Gamma Y^T s and the position-only
    reference cascade supplying z.
    """

    variant = "adaptive"
    availability = "position"

    def __init__(self, shape, gains, traj, coeffs, theta_hat0=None):
        super().__init__(shape, gains, traj, coeffs)
        self.gamma = nonnegative(gains, "gamma", self.p_dim)
        self._neg_gamma = (-self.gamma).tolist()
        self.theta_hat0 = self._estimate0(theta_hat0)
        self.layout.add("theta_hat", self.p_dim)

    def initial_state(self, q0, qdot0, t0=0.0):
        x = super().initial_state(q0, qdot0, t0)
        self.layout.view(x, "theta_hat")[:] = self.theta_hat0
        return x

    def law(self, t, q, qdot, x, extras=None):
        z, zdot, s, phi_dot = self._cascade(t, q, qdot, x[: self._m])
        th = x[self._m :]
        Y = self.shape.regressor_at(q, qdot, z, zdot)
        tau = [k * e + y for k, e, y in zip(self._neg_K, s, Y.dot(np.array(th)).tolist())]
        if extras is not None:
            extras.update(ref_vel=z, ref_acc=zdot, s=s, theta_hat=th)
        th_dot = [g * w for g, w in zip(self._neg_gamma, Y.T.dot(np.array(s)).tolist())]
        return tau, phi_dot + th_dot

    energy_reads = ("s", "theta_hat")

    def energy(self, model, q, qdot, extras):
        s = extras["s"]
        dth = extras["theta_hat"] - model.theta
        V = quadratic(0.5 * s, s, model.inertia(q)) + quadratic(0.5 * dth, dth / self.gamma)
        return V, np.full_like(V, np.nan)


class PlainCascadeController(_CascadeController):
    """Pure error feedback tau = -K (qdot - z), no dynamics knowledge."""

    variant = "plain"
    availability = "full"

    def law(self, t, q, qdot, x, extras=None):
        z, zdot, s, phi_dot = self._cascade(t, q, qdot, x)  # phi is the whole state
        tau = [k * e for k, e in zip(self._neg_K, s)]
        if extras is not None:
            extras.update(ref_vel=z, ref_acc=zdot, s=s)
        return tau, phi_dot

    def residual(self, model, q, qdot, tau, tau_star, extras):
        return _torque_residual(model, q, qdot, tau, tau_star, self.K, extras["s"])


class PidReformulatedController(_FloatLaw):
    """PID control written as a first-order reference system.

    K_D z' = K_D qdd_d - K_P dqdot - K_I dq and tau = -K_D (qdot - z).
    With z(0) = qdot_d(0) - K_D^{-1} K_P dq(0) this reproduces the textbook
    PID torque exactly for all time.
    """

    variant = "pid"
    availability = "full"

    def __init__(self, shape, gains, traj, matched_init=True):
        super().__init__(shape, traj)
        self.kd, self.kp, self.ki = (positive(gains, key, self.n) for key in ("kd", "kp", "ki"))
        self._gains = self.kp.tolist(), self.ki.tolist(), self.kd.tolist(), (-self.kd).tolist()
        self.matched_init = bool(matched_init)
        self.layout.add("z", self.n)
        self._qd_rows = self.traj.reader(2)

    def initial_state(self, q0, qdot0, t0=0.0):
        x = super().initial_state(q0, qdot0, t0)
        z0 = self.traj.eval(t0, 1).astype(float)
        if self.matched_init:
            dq0 = np.asarray(q0, float) - self.traj.eval(t0, 0)
            z0 = z0 - (self.kp / self.kd) * dq0
        self.layout.view(x, "z")[:] = z0
        return x

    def law(self, t, q, qdot, x, extras=None):
        qd, qd_dot, qd_ddot = self._qd_rows(t).tolist()
        kp, ki, kd, neg_kd = self._gains
        dq = [a - b for a, b in zip(q, qd)]
        dqdot = [a - b for a, b in zip(qdot, qd_dot)]
        zdot = [a - (p * v + i * e) / d for a, p, v, i, e, d in zip(qd_ddot, kp, dqdot, ki, dq, kd)]
        s = [a - b for a, b in zip(qdot, x)]  # z is the whole controller state
        tau = [k * e for k, e in zip(neg_kd, s)]
        if extras is not None:
            extras.update(ref_vel=x, ref_acc=zdot, s=s)
        return tau, zdot

    def residual(self, model, q, qdot, tau, tau_star, extras):
        return _torque_residual(model, q, qdot, tau, tau_star, self.kd, extras["s"])


class PidTextbookController(_FloatLaw):
    """Classical PID: tau = -K_D dqdot - K_P dq - K_I integral(dq)."""

    variant = "pid_textbook"
    availability = "full"

    def __init__(self, shape, gains, traj):
        super().__init__(shape, traj)
        self.kd, self.kp, self.ki = (positive(gains, key, self.n) for key in ("kd", "kp", "ki"))
        self._gains = (-self.kd).tolist(), self.kp.tolist(), self.ki.tolist()
        self.layout.add("integral", self.n)
        self._qd_rows = self.traj.reader(1)

    def law(self, t, q, qdot, x, extras=None):  # x is the integral
        qd, qd_dot = self._qd_rows(t).tolist()
        dq = [a - b for a, b in zip(q, qd)]
        dqdot = [a - b for a, b in zip(qdot, qd_dot)]
        tau = [k * v - p * e - i * w for k, p, i, v, e, w in zip(*self._gains, dqdot, dq, x)]
        if extras is not None:
            extras["s"] = dqdot
        return tau, dq


class KnownParamsController(SIdentity, _CascadeController):
    """Feedback plus exact feedforward when the lumped parameters are known.

    tau = -K s + Y(q, qdot, z, zdot) theta with the correction-augmented
    reference cascade; theta is supplied by the experiment author, never read
    from the plant model.
    """

    variant = "known"
    availability = "full_corrected"

    def __init__(self, shape, gains, traj, coeffs, feedforward_theta=None):
        super().__init__(shape, gains, traj, coeffs)
        if feedforward_theta is None:
            raise ConfigError("known-parameter variant needs feedforward_theta")
        self.theta_ff = np.asarray(feedforward_theta, dtype=float)
        if self.theta_ff.shape != (self.p_dim,):
            raise ConfigError("feedforward_theta has the wrong dimension")

    def law(self, t, q, qdot, x, extras=None):
        z, zdot, s, phi_dot = self._cascade(t, q, qdot, x)  # phi is the whole state
        Y = self.shape.regressor_at(q, qdot, z, zdot)
        tau = [k * e + y for k, e, y in zip(self._neg_K, s, Y.dot(self.theta_ff).tolist())]
        if extras is not None:
            extras.update(ref_vel=z, ref_acc=zdot, s=s)
        return tau, phi_dot

    def _estimate_error(self, Y, model, extras):
        return 0.0  # exact feedforward


class NonlinearDampingController(SIdentity, _CascadeController):
    """A-priori estimate feedforward robustified by nonlinear damping.

    tau = -K s + Y theta_hat - lambda_D Y Y^T s with a fixed theta_hat.
    """

    variant = "nldamp"
    availability = "full_corrected"

    def __init__(self, shape, gains, traj, coeffs, theta_hat0=None):
        super().__init__(shape, gains, traj, coeffs)
        self.theta_hat = self._estimate0(theta_hat0)
        self.lambda_D = nonnegative(gains, "lambda_d")  # zero turns the damping off

    def law(self, t, q, qdot, x, extras=None):
        z, zdot, s, phi_dot = self._cascade(t, q, qdot, x)  # phi is the whole state
        Y = self.shape.regressor_at(q, qdot, z, zdot)
        lam_d = self.lambda_D
        tau = [k * e + y - lam_d * d for k, e, y, d in zip(
            self._neg_K, s, Y.dot(self.theta_hat).tolist(), Y.dot(Y.T.dot(np.array(s))).tolist())]
        if extras is not None:
            extras.update(ref_vel=z, ref_acc=zdot, s=s, theta_hat=self.theta_hat)
        return tau, phi_dot

    def _damping(self, Y, s, extras):
        return self.lambda_D * (Y @ (Y.T @ s))


class PassiveFilterController(FilteredDamping, _CascadeController):
    """Damping injected through a first-order filter of Y^T s.

    xi' = -lam xi + lam Y^T s and tau = -K s + Y theta_hat - lambda_D Y xi;
    softer than the raw Y Y^T s injection at comparable gains.
    """

    variant = "passive"
    availability = "full_corrected"

    def __init__(self, shape, gains, traj, coeffs, theta_hat0=None):
        super().__init__(shape, gains, traj, coeffs)
        self.theta_hat = self._estimate0(theta_hat0)
        self.lambda_D = positive(gains, "lambda_d")
        self.lam = positive(gains, "lambda")
        self.layout.add("xi", self.p_dim)

    def law(self, t, q, qdot, x, extras=None):
        z, zdot, s, phi_dot = self._cascade(t, q, qdot, x[: self._m])
        xi = x[self._m :]
        Y = self.shape.regressor_at(q, qdot, z, zdot)
        lam_d, lam = self.lambda_D, self.lam
        tau = [k * e + y - lam_d * d for k, e, y, d in zip(
            self._neg_K, s, Y.dot(self.theta_hat).tolist(), Y.dot(np.array(xi)).tolist())]
        if extras is not None:
            extras.update(ref_vel=z, ref_acc=zdot, s=s, xi=xi, theta_hat=self.theta_hat)
        xi_dot = [-lam * a + lam * b for a, b in zip(xi, Y.T.dot(np.array(s)).tolist())]
        return tau, phi_dot + xi_dot
