"""Shared infrastructure for the torque-law implementations.

Every controller is an ODE component: it exposes the size of its internal
state block, an initializer, and a pure ``evaluate``, mapping measurements
and internal state to the commanded torque and the state-block time
derivative on every RK4 stage.  ``evaluate`` returns that rate as a tuple of
parts in layout order, which the experiment loop joins with the plant's
rates in its one concatenation per stage; ``observe`` runs the same law at
a sampled step, joins the parts into one ``xdot`` and also returns the
derived views a log records, which the stages never build.  ``evaluate``'s
arrays may be overwritten by the next call (the filtering laws return views
of their work arrays); ``observe``'s belong to the caller.  The experiment
loop integrates plant and controller states jointly, so no controller ever
integrates anything privately.

The seven single-layer laws (``basic.py``) state their law once, over lists
of Python floats (``law``); ``evaluate`` wraps it.  Their joint states hold
6-21 entries, where numpy's per-call overhead is the cost, so the
experiment loop runs them, their plant (``TwoLinkArm.accel``) and RK4 on
a list state.  The bits cannot move: each product is still ``ndarray.dot``
on an array of the same floats, and every other value is the same IEEE
operation in the same order, which Python and numpy round alike
(``tests/test_host_rounding.py``).  The three filtering laws, 56-232
entries, keep ndarray states: a trivial-rate RK4 step costs the same on a
list and an array at about 21 entries, and 48 against 8 us at 190.

What is fixed for the run is fixed at construction, never per evaluation.
Gains that enter a rate or torque negated are negated once.  A law that
reads the same desired-trajectory rows on every RHS binds a reader of them
(:meth:`TrajectoryView.reader`), its order checked against the
availability once, there.  Each reference cascade runs as precomputed
matrix rows: one product with ``[phi; q; qdot; q_d rows]`` in the
single-layer laws, the filtering laws' compiled block otherwise.

On every RHS a law forms its products with ``ndarray.dot``, as
``a.dot(b)`` or ``a.dot(b, out)`` into a work-array slot (the cascade
rows, the regressor's, ``stacked_single``'s ``W1.dot(e[:, None], out)``,
``stacked_multi``'s path weights, ``LinearBlock``'s stage products):
``dot`` dispatches in about half the time of ``np.matmul`` and on the 2-D
products gives its bits (``tests/test_host_rounding.py``).  The
diagnostics never run on a stage.  The energies run once per run, after
the integration, over every sampled step stacked along a leading axis:
their products are stacked ``np.matmul`` (:func:`quadratic`), and the same
lines serve one sample.  A class names the extras its ``energy`` reads in
``energy_reads`` (``s`` and ``theta_hat`` for ``adaptive``, ``s`` and
``xi`` for the filtered-damping laws); the log holds ``s`` and
``theta_hat`` itself, and the run keeps the others per sample.  The
residuals run per sample, on their own stride, and keep ``@``.

Information discipline is structural: controllers receive an
:class:`~refcascade.manipulator.ArmShape` (dimensions plus regressor map,
never the true parameters) and a :class:`TrajectoryView` capped at the
declared derivative order of the desired trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..manipulator import ArmShape
from ..refdyn import QD_ROWS

__all__ = [
    "ConfigError",
    "second_order_pair",
    "TrajectoryView",
    "Layout",
    "ControlEval",
    "ControllerBase",
    "SIdentity",
    "FilteredDamping",
    "per_channel",
    "quadratic",
    "positive",
    "nonnegative",
]


class ConfigError(ValueError):
    """Invalid experiment or controller configuration."""


def per_channel(value, n, name) -> np.ndarray:
    """The ``n`` channel entries of ``value``, a per-channel config value.

    A scalar or a single entry serves every channel; ``n`` entries pass
    through (the control laws are channelwise, so a gain is its diagonal).
    Every entry must be finite.  ``name`` is the config key an error names.
    """
    arr = np.asarray(value, dtype=float)
    if not np.isfinite(arr).all():
        raise ConfigError(f"{name}: entries must be finite")
    if arr.size == 1:
        return np.full(n, float(arr.flat[0]))
    if arr.shape != (n,):
        raise ConfigError(f"{name}: expected {'1 entry' if n == 1 else f'1 or {n} entries'},"
                          f" got {arr.size}")
    return arr


def second_order_pair(gains, key):
    """The rate ``gains[key]``, refused unless positive and finite, and the
    ``(a0, a1)`` of the critically damped ``p^2 + a1 p + a0 = (p + rate)^2``."""
    rate = positive(gains, key)
    if rate * rate == math.inf:
        raise ConfigError(f"gains.{key}: its square, a coefficient of the law, overflows")
    return rate, rate * rate, 2.0 * rate


def _gain(gains, key, n, zero_ok):
    value = gains[key] if n is None else per_channel(gains[key], n, f"gains.{key}")
    # plain float comparisons: a NaN fails both, and a few entries cost less
    # this way than as numpy operations
    for v in [value] if n is None else value.tolist():
        if not ((v >= 0.0 if zero_ok else v > 0.0) and v < math.inf):
            raise ConfigError(f"gains.{key} must be {'nonnegative' if zero_ok else 'positive'}"
                              " and finite")
    return value


def positive(gains, key, n=None):
    """Gain ``key`` of a ``[gains]`` mapping, refused unless positive and
    finite: a float, or with ``n`` its ``n`` channel entries."""
    return _gain(gains, key, n, zero_ok=False)


def nonnegative(gains, key, n=None):
    """Gain ``key`` of a ``[gains]`` mapping, refused unless nonnegative and
    finite: a float, or with ``n`` its ``n`` channel entries."""
    return _gain(gains, key, n, zero_ok=True)


class TrajectoryView:
    """Desired-trajectory access capped at the derivative order a cascade
    availability declares: the rows ``q_d, q_d', ...`` it reads."""

    def __init__(self, traj, availability: str):
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
        return self.reader(upto)(t)

    def reader(self, upto):
        """``t -> derivs(t, upto)``, for a law that reads the same rows on
        every evaluation: ``upto`` is checked once, here."""
        if upto > self.max_order:
            self._refuse(upto)
        return self._traj.reader(upto)

    def tabulate(self, times):
        self._traj.tabulate(times)


class Layout:
    """Named slices into a flat controller state vector."""

    def __init__(self):
        # name -> (slice, shape); a shapeless block is one entry, shape (1,)
        self._blocks: dict[str, tuple[slice, tuple]] = {}
        self.size = 0

    def add(self, name, *shape):
        shape = tuple(int(s) for s in shape) or (1,)
        count = math.prod(shape)
        self._blocks[name] = (slice(self.size, self.size + count), shape)
        self.size += count

    def view(self, x, name):
        block, shape = self._blocks[name]
        return x[block].reshape(shape)

    def names(self):
        return tuple(self._blocks)

    def span(self, name):
        """First index and shape of a block."""
        block, shape = self._blocks[name]
        return block.start, shape


@dataclass
class ControlEval:
    """Torque command, controller-state derivative and derived views."""

    tau: np.ndarray
    xdot: np.ndarray
    extras: Mapping[str, np.ndarray]


class ControllerBase:
    """Common plumbing: shape, trajectory view and state layout.

    A subclass defines one variant: its name, its availability (the
    reference-cascade variant, which also caps the desired-trajectory
    derivatives the law may read), its torque law and its diagnostics; its
    constructor reads the gains the law uses from the ``[gains]`` mapping.  A
    variant runs on a cascade coefficient set when its constructor takes
    ``coeffs``.  The diagnostics may read the true plant model, which the
    law itself never sees; a variant without one returns NaN.
    """

    variant: str = ""
    availability: str

    def __init__(self, shape: ArmShape, traj):
        self.shape = shape
        self.n = shape.n
        self.p_dim = shape.p_dim
        self.traj = TrajectoryView(traj, self.availability)
        self.layout = Layout()

    @property
    def state_size(self) -> int:
        return self.layout.size

    def initial_state(self, q0, qdot0, t0=0.0) -> np.ndarray:
        """Controller state at ``t0``; zero unless the variant sets blocks."""
        return np.zeros(self.state_size)

    def evaluate(self, t, q, qdot, x, extras=None):
        """The law's ``(tau, parts)``, ``parts`` the state rate as a tuple of
        arrays in layout order; a dict ``extras``, if given, also receives
        the derived views a sampled step logs."""
        raise NotImplementedError

    def observe(self, t, q, qdot, x) -> ControlEval:
        """The law at a sampled state, with its rate joined into one owned
        ``xdot`` and its derived views."""
        extras = {}
        tau, parts = self.evaluate(t, q, qdot, x, extras)
        return ControlEval(tau, np.concatenate(parts), extras)

    energy_reads: tuple = ()  # the extras ``energy`` reads

    def energy(self, model, q, qdot, extras):
        """Energy-like functions ``(V, V_aux)`` at sampled states, one entry
        per leading index of ``q`` (``(..., n)``) and of the extras it reads,
        ``energy_reads``; NaN where the variant defines none."""
        nan = np.full(np.shape(q)[:-1], np.nan)
        return nan, nan.copy()

    def residual(self, model, q, qdot, tau, tau_star, extras) -> float:
        """Largest entry of the variant's closed-loop identity residual."""
        return np.nan

    def _estimate0(self, theta_hat0):
        """The initial (or fixed) parameter estimate; zero by default."""
        return np.zeros(self.p_dim) if theta_hat0 is None else np.asarray(theta_hat0, float)


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


def quadratic(u, w, M=None):
    """``u M w``, or ``u w`` without ``M``, per leading index of the vectors
    ``u`` and ``w`` (and of ``M``), in ``@``'s association order, by stacked
    ``np.matmul``: a scalar for one sample, an array for a stack.  On
    operands whose last axis is contiguous, numpy takes BLAS and each entry
    has ``ndarray.dot``'s bits on its sample alone
    (``tests/test_host_rounding.py``); other strides round differently."""
    u = u[..., None, :]
    if M is not None:
        u = np.matmul(u, M)
    return np.matmul(u, w[..., :, None])[..., 0, 0]


class FilteredDamping(SIdentity):
    """Damping -lambda_D Y xi through the filter xi' = -lam xi + lam Y^T s.

    Its energies add the filter state's storage to the kinetic energy of s.
    """

    energy_reads = ("s", "xi")

    def _damping(self, Y, s, extras):
        return self.lambda_D * (Y @ extras["xi"])

    def energy(self, model, q, qdot, extras):
        s, xi = extras["s"], extras["xi"]
        quad = quadratic(0.5 * s, s, model.inertia(q))
        return (quad + quadratic((self.lambda_D / (2.0 * self.lam)) * xi, xi),
                quad + quadratic((self.lambda_D / (4.0 * self.lam)) * xi, xi))
