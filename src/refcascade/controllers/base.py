"""Shared infrastructure for the torque-law implementations.

Every controller is an ODE component: it exposes the size of its internal
state block, an initializer, and a pure ``evaluate``, its one statement of
the law, mapping measurements and internal state to the commanded torque and
the state-block time derivative on every RK4 stage.  ``observe`` runs the
same law at a sampled step and also returns the derived views a log records,
which the stages never build.  Each reference cascade runs as precomputed
matrix rows: one product with ``[phi; q; qdot; q_d rows]`` in the
single-layer laws, the filtering laws' compiled block otherwise.  The
experiment loop concatenates plant and controller states and integrates them
jointly, so no controller ever integrates anything privately.

Information discipline is structural: controllers receive an
:class:`~refcascade.manipulator.ArmShape` (dimensions plus regressor map,
never the true parameters) and a :class:`TrajectoryView` capped at the
declared derivative order of the desired trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..manipulator import ArmShape
from ..refdyn import QD_ROWS

__all__ = [
    "ConfigError",
    "GainSet",
    "second_order_pair",
    "TrajectoryView",
    "Layout",
    "ControlEval",
    "ControllerBase",
    "SIdentity",
    "FilteredDamping",
    "diag_entries",
]


class ConfigError(ValueError):
    """Invalid experiment or controller configuration."""


def diag_entries(value, n, name) -> np.ndarray:
    """Coerce a gain to diagonal entries of length n.

    Scalars broadcast; vectors pass through; square matrices must be exactly
    diagonal (the control laws rely on channelwise decoupling).  Every entry
    must be finite.
    """
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name}: entries must be finite")
    if arr.ndim == 0:
        arr = np.full(n, float(arr))
    elif arr.ndim == 2:
        if arr.shape != (n, n):
            raise ConfigError(f"{name}: expected shape ({n},{n})")
        if np.any(arr != np.diag(np.diag(arr))):
            raise ConfigError(f"{name}: non-diagonal gain matrices are rejected")
        arr = np.diag(arr).copy()
    if arr.shape != (n,):
        raise ConfigError(f"{name}: expected {n} diagonal entries")
    return arr


def second_order_pair(rate):
    """``(a0, a1)`` of the critically damped ``p^2 + a1 p + a0 = (p + rate)^2``."""
    return rate * rate, 2.0 * rate


@dataclass(frozen=True)
class GainSet:
    """Gains for all controller variants; unused entries are ignored.

    All scalars must be positive and all matrix-valued gains diagonal
    positive definite (supplied as scalars or per-channel vectors).  The
    second-order target-error pairs are derived from their rates
    ``alpha_star``, ``alpha_star_star`` and ``kappa_star`` by
    :func:`second_order_pair`.
    """

    K: float | np.ndarray = 20.0
    Gamma: float | np.ndarray = 1.0
    lambda_D: float = 1.0
    lam: float = 10.0
    alpha_star: float = 2.0
    lambda_D_star: float = 1.0
    alpha_star_star: float = 2.0
    kappa_star: float = 2.0
    gamma_freq: float | tuple = 1.0
    K_D: float | np.ndarray = 20.0
    K_P: float | np.ndarray = 100.0
    K_I: float | np.ndarray = 50.0
    Lambda: float | np.ndarray = 2.0
    hstar_rate: float = 2.0
    hstar_den: tuple | None = None  # explicit tone-layer denominator tail

    def k_diag(self, n):
        k = diag_entries(self.K, n, "K")
        if np.any(k < 0.0):
            raise ConfigError("K entries must be nonnegative")
        return k

    def lambda_diag(self, n):
        lam = diag_entries(self.Lambda, n, "Lambda")
        if np.any(lam <= 0.0):
            raise ConfigError("Lambda entries must be positive")
        return lam

    def gamma_diag(self, p):
        g = diag_entries(self.Gamma, p, "Gamma")
        if np.any(g < 0.0):
            raise ConfigError("Gamma entries must be nonnegative")
        return g

    def pid_diags(self, n):
        kd = diag_entries(self.K_D, n, "K_D")
        kp = diag_entries(self.K_P, n, "K_P")
        ki = diag_entries(self.K_I, n, "K_I")
        if np.any(kd <= 0.0) or np.any(kp <= 0.0) or np.any(ki <= 0.0):
            raise ConfigError("PID gains must be positive")
        return kd, kp, ki

    def freq_gains(self, n_star):
        g = np.asarray(self.gamma_freq, dtype=float)
        if g.ndim == 0:
            g = np.full(n_star, float(g))
        if g.shape != (n_star,):
            raise ConfigError(f"expected {n_star} tone adaptation gain(s)")
        if not (np.isfinite(g) & (g > 0.0)).all():
            raise ConfigError("tone adaptation gains must be positive and finite")
        return g

    def validate_positive(self, names):
        for name in names:
            if not 0.0 < getattr(self, name) < np.inf:
                raise ConfigError(f"gain '{name}' must be positive and finite")


class TrajectoryView:
    """Desired-trajectory access capped at the derivative order a cascade
    availability declares: the rows ``q_d, q_d', ...`` it reads."""

    def __init__(self, traj, availability: str):
        if availability not in QD_ROWS:
            raise ConfigError(f"unknown availability '{availability}'")
        self._traj = traj
        self.availability = availability
        self.max_order = QD_ROWS[availability] - 1

    def _refuse(self, order):
        raise ConfigError(
            f"trajectory derivative of order {order} exceeds the declared "
            f"'{self.availability}' availability"
        )

    def eval(self, t, order=0):
        if order > self.max_order:
            self._refuse(order)
        return self._traj.eval(t, order)

    def derivs(self, t, upto):
        """Rows ``q_d, q_d', ..., q_d^(upto)`` at ``t``, in one evaluation."""
        if upto > self.max_order:
            self._refuse(upto)
        return self._traj.derivs(t, upto)


class Layout:
    """Named slices into a flat controller state vector."""

    def __init__(self):
        # name -> (slice, shape); shape is None for blocks the slice already
        # shapes (one axis or none), which then skip the reshape
        self._blocks: dict[str, tuple[slice, tuple | None]] = {}
        self.size = 0

    def add(self, name, *shape):
        count = 1
        for s in shape:
            count *= int(s)
        block = slice(self.size, self.size + count)
        self._blocks[name] = (block, shape if len(shape) > 1 else None)
        self.size += count

    def view(self, x, name):
        block, shape = self._blocks[name]
        return x[block] if shape is None else x[block].reshape(shape)

    def names(self):
        return tuple(self._blocks)

    def span(self, name):
        """First index and shape of a block."""
        block, shape = self._blocks[name]
        return block.start, shape or (block.stop - block.start,)


@dataclass
class ControlEval:
    """Torque command, controller-state derivative and derived views."""

    tau: np.ndarray
    xdot: np.ndarray
    extras: Mapping[str, np.ndarray]


class ControllerBase:
    """Common plumbing: shape, gains, trajectory view and state layout.

    A subclass defines one variant: its name, its availability (the
    reference-cascade variant, which also caps the desired-trajectory
    derivatives the law may read), its torque law and its diagnostics.  A
    variant runs on a cascade coefficient set when its constructor takes
    ``coeffs``.  The diagnostics may read the true plant model, which the
    law itself never sees; a variant without one returns NaN.
    """

    variant: str = ""
    availability: str

    def __init__(self, shape: ArmShape, gains: GainSet, traj):
        self.shape = shape
        self.n = shape.n
        self.p_dim = shape.p_dim
        self.gains = gains
        self.traj = TrajectoryView(traj, self.availability)
        self.layout = Layout()

    @property
    def state_size(self) -> int:
        return self.layout.size

    def initial_state(self, q0, qdot0, t0=0.0) -> np.ndarray:
        """Controller state at ``t0``; zero unless the variant sets blocks."""
        return np.zeros(self.state_size)

    def evaluate(self, t, q, qdot, x, extras=None):
        """The law's ``(tau, xdot)``; a dict ``extras``, if given, also
        receives the derived views a sampled step logs."""
        raise NotImplementedError

    def observe(self, t, q, qdot, x) -> ControlEval:
        """The law at a sampled state, with its derived views."""
        extras = {}
        tau, xdot = self.evaluate(t, q, qdot, x, extras)
        return ControlEval(tau, xdot, extras)

    def energy(self, model, q, qdot, extras):
        """Energy-like functions ``(V, V_aux)`` at a sampled state."""
        return np.nan, np.nan

    def residual(self, model, q, qdot, tau, tau_star, extras) -> float:
        """Largest entry of the variant's closed-loop identity residual."""
        return np.nan

    def _estimate0(self, theta_hat0):
        """The initial (or fixed) parameter estimate; zero by default."""
        return np.zeros(self.p_dim) if theta_hat0 is None else np.asarray(theta_hat0, float)

    def _positive_k(self):
        k = self.gains.k_diag(self.n)
        if np.any(k <= 0.0):
            raise ConfigError(f"{self.variant} needs strictly positive K entries")
        return k


class SIdentity:
    """Diagnostics of a law acting on the input-side error s = qdot - z.

    Along any trajectory the closed loop reads
    ``M s' + C s + K s = tau* + Y (theta_hat - theta) - damping``, with
    ``Y = Y(q, qdot, z, z')`` and ``K`` the variant's ``self.K``; a variant
    states only its estimate-error and damping terms, and ``s``, ``z`` and
    ``z'`` are the logged ``s``, ``ref_vel`` and ``ref_acc``.
    """

    def residual(self, model, q, qdot, tau, tau_star, extras):
        s = extras["s"]
        sdot = model.forward_dynamics(q, qdot, tau, tau_star) - extras["ref_acc"]
        res = model.inertia(q) @ sdot + model.coriolis(q, qdot) @ s + self.K * s - tau_star
        Y = model.regressor(q, qdot, extras["ref_vel"], extras["ref_acc"])
        res = res - self._estimate_error(Y, model, extras) + self._damping(Y, s, extras)
        return float(np.max(np.abs(res)))

    def _estimate_error(self, Y, model, extras):
        return Y @ (extras["theta_hat"] - model.theta)

    def _damping(self, Y, s, extras):
        return 0.0


class FilteredDamping(SIdentity):
    """Damping -lambda_D Y xi through the filter xi' = -lam xi + lam Y^T s.

    Its energies add the filter state's storage to the kinetic energy of s.
    """

    def _damping(self, Y, s, extras):
        return self.gains.lambda_D * (Y @ extras["xi"])

    def energy(self, model, q, qdot, extras):
        s, xi = extras["s"], extras["xi"]
        quad = 0.5 * s @ model.inertia(q) @ s
        g = self.gains
        return (quad + (g.lambda_D / (2.0 * g.lam)) * xi @ xi,
                quad + (g.lambda_D / (4.0 * g.lam)) * xi @ xi)
