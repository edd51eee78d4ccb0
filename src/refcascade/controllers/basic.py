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

from ..refdyn import ReferenceConfig, cascade_init, cascade_rates
from .base import ConfigError, ControlEval, ControllerBase, GainSet

__all__ = [
    "AdaptiveCascadeController",
    "PlainCascadeController",
    "PidReformulatedController",
    "PidTextbookController",
    "KnownParamsController",
    "NonlinearDampingController",
    "PassiveFilterController",
]


class _CascadeController(ControllerBase):
    """Base for variants owning one reference cascade block ``phi``."""

    ref_availability = "full"

    def __init__(self, shape, gains: GainSet, traj, coeffs):
        super().__init__(shape, gains, traj)
        lam = gains.lambda_diag(self.n) if self.ref_availability == "full_corrected" else None
        self.refcfg = ReferenceConfig(coeffs, self.ref_availability, lam)
        self.K = gains.k_diag(self.n)
        self.layout.add("phi", self.refcfg.ell, self.n)

    def _init_phi(self, x, t0):
        qd_dot0 = None
        if self.ref_availability != "position":
            qd_dot0 = self.traj.eval(t0, 1)
        self.layout.view(x, "phi")[:] = cascade_init(self.refcfg, self.n, qd_dot0)

    def _reference(self, t, q, qdot, x):
        """Cascade rates against the true desired trajectory."""
        qd_dot = qd_ddot = None
        if self.ref_availability == "position":
            qd = self.traj.eval(t, 0)
        elif self.ref_availability == "velocity":
            qd, qd_dot = self.traj.derivs(t, 1)
        else:
            qd, qd_dot, qd_ddot = self.traj.derivs(t, 2)
        phi = self.layout.view(x, "phi")
        phi_dot, zdot = cascade_rates(self.refcfg, phi, q, qdot, qd, qd_dot, qd_ddot)
        return phi[0], zdot, phi_dot, qd


class AdaptiveCascadeController(_CascadeController):
    """Adaptive tracking from position-only desired-trajectory knowledge.

    tau = -K s + Y(q, qdot, z, zdot) theta_hat,   s = qdot - z,
    with gradient adaptation theta_hat' = -Gamma Y^T s and the position-only
    reference cascade supplying z.
    """

    variant = "adaptive"
    availability = "position"
    ref_availability = "position"

    def __init__(self, shape, gains, traj, coeffs, theta_hat0=None):
        super().__init__(shape, gains, traj, coeffs)
        self.gamma = gains.gamma_diag(self.p_dim)
        self.theta_hat0 = (
            np.zeros(self.p_dim) if theta_hat0 is None else np.asarray(theta_hat0, float)
        )
        self.layout.add("theta_hat", self.p_dim)

    def initial_state(self, q0, qdot0, t0=0.0):
        x = np.zeros(self.state_size)
        self._init_phi(x, t0)
        self.layout.view(x, "theta_hat")[:] = self.theta_hat0
        return x

    def evaluate(self, t, q, qdot, x):
        z, zdot, phi_dot, qd = self._reference(t, q, qdot, x)
        th = self.layout.view(x, "theta_hat")
        s = qdot - z
        Y = self.shape.regressor(q, qdot, z, zdot)
        tau = -self.K * s + Y @ th

        xdot = np.empty(self.state_size)
        self.layout.view(xdot, "phi")[:] = phi_dot
        self.layout.view(xdot, "theta_hat")[:] = -self.gamma * (Y.T @ s)
        extras = {
            "ref_vel": z, "ref_acc": zdot, "s": s,
            "theta_hat": th.copy(), "qd": qd,
        }
        return ControlEval(tau, xdot, extras)


class PlainCascadeController(_CascadeController):
    """Pure error feedback tau = -K (qdot - z), no dynamics knowledge."""

    variant = "plain"
    availability = "full"
    ref_availability = "full"

    def initial_state(self, q0, qdot0, t0=0.0):
        x = np.zeros(self.state_size)
        self._init_phi(x, t0)
        return x

    def evaluate(self, t, q, qdot, x):
        z, zdot, phi_dot, qd = self._reference(t, q, qdot, x)
        s = qdot - z
        tau = -self.K * s
        xdot = phi_dot.ravel()  # phi is the whole controller state
        extras = {"ref_vel": z, "ref_acc": zdot, "s": s, "qd": qd}
        return ControlEval(tau, xdot, extras)


class PidReformulatedController(ControllerBase):
    """PID control written as a first-order reference system.

    K_D z' = K_D qdd_d - K_P dqdot - K_I dq and tau = -K_D (qdot - z).
    With z(0) = qdot_d(0) - K_D^{-1} K_P dq(0) this reproduces the textbook
    PID torque exactly for all time.
    """

    variant = "pid"
    availability = "full"

    def __init__(self, shape, gains, traj, matched_init=True):
        super().__init__(shape, gains, traj)
        self.kd, self.kp, self.ki = gains.pid_diags(self.n)
        self.matched_init = bool(matched_init)
        self.layout.add("z", self.n)

    def initial_state(self, q0, qdot0, t0=0.0):
        x = np.zeros(self.state_size)
        z0 = self.traj.eval(t0, 1).astype(float)
        if self.matched_init:
            dq0 = np.asarray(q0, float) - self.traj.eval(t0, 0)
            z0 = z0 - (self.kp / self.kd) * dq0
        self.layout.view(x, "z")[:] = z0
        return x

    def evaluate(self, t, q, qdot, x):
        qd, qd_dot, qd_ddot = self.traj.derivs(t, 2)
        dq = q - qd
        dqdot = qdot - qd_dot
        z = self.layout.view(x, "z")
        zdot = qd_ddot - (self.kp * dqdot + self.ki * dq) / self.kd
        s = qdot - z
        tau = -self.kd * s
        xdot = zdot  # z is the whole controller state
        extras = {"ref_vel": z.copy(), "ref_acc": zdot, "s": s, "qd": qd}
        return ControlEval(tau, xdot, extras)


class PidTextbookController(ControllerBase):
    """Classical PID: tau = -K_D dqdot - K_P dq - K_I integral(dq)."""

    variant = "pid_textbook"
    availability = "full"

    def __init__(self, shape, gains, traj):
        super().__init__(shape, gains, traj)
        self.kd, self.kp, self.ki = gains.pid_diags(self.n)
        self.layout.add("integral", self.n)

    def initial_state(self, q0, qdot0, t0=0.0):
        return np.zeros(self.state_size)

    def evaluate(self, t, q, qdot, x):
        qd, qd_dot = self.traj.derivs(t, 1)
        dq = q - qd
        dqdot = qdot - qd_dot
        integ = self.layout.view(x, "integral")
        tau = -self.kd * dqdot - self.kp * dq - self.ki * integ
        xdot = dq  # the integral is the whole controller state
        extras = {"qd": qd, "s": dqdot}
        return ControlEval(tau, xdot, extras)


class KnownParamsController(_CascadeController):
    """Feedback plus exact feedforward when the lumped parameters are known.

    tau = -K s + Y(q, qdot, z, zdot) theta with the correction-augmented
    reference cascade; theta is supplied by the experiment author, never read
    from the plant model.
    """

    variant = "known"
    availability = "full"
    ref_availability = "full_corrected"

    def __init__(self, shape, gains, traj, coeffs, feedforward_theta):
        super().__init__(shape, gains, traj, coeffs)
        if feedforward_theta is None:
            raise ConfigError("known-parameter variant needs feedforward_theta")
        self.theta_ff = np.asarray(feedforward_theta, dtype=float)
        if self.theta_ff.shape != (self.p_dim,):
            raise ConfigError("feedforward_theta has the wrong dimension")

    def initial_state(self, q0, qdot0, t0=0.0):
        x = np.zeros(self.state_size)
        self._init_phi(x, t0)
        return x

    def evaluate(self, t, q, qdot, x):
        z, zdot, phi_dot, qd = self._reference(t, q, qdot, x)
        s = qdot - z
        Y = self.shape.regressor(q, qdot, z, zdot)
        tau = -self.K * s + Y @ self.theta_ff
        xdot = phi_dot.ravel()  # phi is the whole controller state
        extras = {"ref_vel": z, "ref_acc": zdot, "s": s, "qd": qd}
        return ControlEval(tau, xdot, extras)


class NonlinearDampingController(_CascadeController):
    """A-priori estimate feedforward robustified by nonlinear damping.

    tau = -K s + Y theta_hat - lambda_D Y Y^T s with a fixed theta_hat.
    """

    variant = "nldamp"
    availability = "full"
    ref_availability = "full_corrected"

    def __init__(self, shape, gains, traj, coeffs, theta_hat0=None):
        super().__init__(shape, gains, traj, coeffs)
        self.theta_hat = (
            np.zeros(self.p_dim) if theta_hat0 is None else np.asarray(theta_hat0, float)
        )
        self.lambda_D = gains.lambda_D

    def initial_state(self, q0, qdot0, t0=0.0):
        x = np.zeros(self.state_size)
        self._init_phi(x, t0)
        return x

    def evaluate(self, t, q, qdot, x):
        z, zdot, phi_dot, qd = self._reference(t, q, qdot, x)
        s = qdot - z
        Y = self.shape.regressor(q, qdot, z, zdot)
        tau = -self.K * s + Y @ self.theta_hat - self.lambda_D * (Y @ (Y.T @ s))
        xdot = phi_dot.ravel()  # phi is the whole controller state
        extras = {
            "ref_vel": z, "ref_acc": zdot, "s": s, "qd": qd,
            "theta_hat": self.theta_hat,
        }
        return ControlEval(tau, xdot, extras)


class PassiveFilterController(_CascadeController):
    """Damping injected through a first-order filter of Y^T s.

    xi' = -lam xi + lam Y^T s and tau = -K s + Y theta_hat - lambda_D Y xi;
    softer than the raw Y Y^T s injection at comparable gains.
    """

    variant = "passive"
    availability = "full"
    ref_availability = "full_corrected"

    def __init__(self, shape, gains, traj, coeffs, theta_hat0=None):
        super().__init__(shape, gains, traj, coeffs)
        self.theta_hat = (
            np.zeros(self.p_dim) if theta_hat0 is None else np.asarray(theta_hat0, float)
        )
        self.lambda_D = gains.lambda_D
        self.lam = gains.lam
        gains.validate_positive(("lambda_D", "lam"))
        self.layout.add("xi", self.p_dim)

    def initial_state(self, q0, qdot0, t0=0.0):
        x = np.zeros(self.state_size)
        self._init_phi(x, t0)
        return x

    def evaluate(self, t, q, qdot, x):
        z, zdot, phi_dot, qd = self._reference(t, q, qdot, x)
        xi = self.layout.view(x, "xi")
        s = qdot - z
        Y = self.shape.regressor(q, qdot, z, zdot)
        tau = -self.K * s + Y @ self.theta_hat - self.lambda_D * (Y @ xi)
        xdot = np.empty(self.state_size)
        self.layout.view(xdot, "phi")[:] = phi_dot
        self.layout.view(xdot, "xi")[:] = -self.lam * xi + self.lam * (Y.T @ s)
        extras = {
            "ref_vel": z, "ref_acc": zdot, "s": s, "qd": qd,
            "xi": xi.copy(), "theta_hat": self.theta_hat,
        }
        return ControlEval(tau, xdot, extras)
