"""High-order reference dynamics and their first-order cascade realizations.

The reference velocity z is generated by an ODE of order ell+1 in the joint
coordinates whose characteristic polynomial

    w^(ell+1) + alpha_ell w^ell + ... + alpha_0

is Hurwitz.  Four availability variants differ in which desired-trajectory
derivatives the right side may read:

``position``        only q_d (the top derivative term uses q, not dq)
``velocity``        q_d and its first derivative
``full``            q_d through its second derivative
``full_corrected``  full, plus a correction term L * d^(ell-1)(qdot - z)/dt^(ell-1)

Written literally, these ODEs involve derivatives of q and q_d far beyond
what is measured.  Each variant therefore ships as a degree-reduced cascade
of ell first-order states whose right sides read only q, qdot, q_d (plus the
declared q_d derivatives): every unmeasurable term is folded into a shifted
cascade state, and the per-level shifts telescope so that the chain is
exactly equivalent to the high-order ODE.  ``oracle_realization_gaps`` below
integrates the literal high-order ODE using exact analytic derivatives and is
the ground truth for that equivalence.

Scaling the coefficients by alpha_k -> alpha_k / kappa^(ell+1-k) dilates the
autonomous dynamics in time by kappa; critically damped sets (binomial
expansions of (w + a)^(ell+1)) map onto critically damped sets with rate
a / kappa, so the family is closed under time scaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import routh_hurwitz

__all__ = [
    "AVAILABILITIES",
    "QD_ROWS",
    "HurwitzCoeffs",
    "ReferenceConfig",
    "critically_damped_coeffs",
    "scale_coeffs",
    "cascade_init",
    "cascade_rates",
    "oracle_realization_gaps",
]

# desired-trajectory rows q_d, q_d', ... that each variant reads: the one
# statement of what a cascade may read
QD_ROWS = {"position": 1, "velocity": 2, "full": 3, "full_corrected": 3}
AVAILABILITIES = tuple(QD_ROWS)


@dataclass(frozen=True)
class HurwitzCoeffs:
    """Coefficients alpha_0..alpha_ell of a stable cascade polynomial,
    verified by the Routh test at construction."""

    ell: int
    alphas: np.ndarray

    def __init__(self, ell, alphas):
        alphas = np.asarray(alphas, dtype=float)
        ell = int(ell)
        if ell < 1:
            raise ValueError("cascade order parameter must be at least 1")
        if alphas.size != ell + 1:
            raise ValueError(f"expected {ell + 1} coefficients, got {alphas.size}")
        if routh_hurwitz(np.append(alphas, 1.0)) != "stable":
            raise ValueError("cascade polynomial is not Hurwitz-stable")
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "alphas", alphas)


def critically_damped_coeffs(alpha: float, ell: int) -> HurwitzCoeffs:
    """Binomial expansion of (w + alpha)^(ell+1): repeated real poles at -alpha.

    In particular alpha_0 = alpha^(ell+1) and alpha_ell = (ell+1) alpha.
    """
    if alpha <= 0.0:
        raise ValueError("rate must be positive")
    try:
        alphas = np.array([math.comb(ell + 1, k) * alpha ** (ell + 1 - k) for k in range(ell + 1)])
    except OverflowError:  # a finite power out of range; an infinite rate gives inf
        alphas = np.array([math.inf])
    if not np.isfinite(alphas).all():
        raise ValueError(f"rate {alpha:g} overflows the order-{ell} coefficients")
    return HurwitzCoeffs(ell, alphas)


def scale_coeffs(coeffs: HurwitzCoeffs, kappa: float) -> HurwitzCoeffs:
    """Time-dilate a coefficient set: alpha_k -> alpha_k / kappa^(ell+1-k).

    Critically damped inputs with rate a come back critically damped with
    rate a / kappa.
    """
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    ell = coeffs.ell
    powers = np.array([kappa ** (ell + 1 - k) for k in range(ell + 1)])
    return HurwitzCoeffs(ell, coeffs.alphas / powers)


@dataclass(frozen=True)
class ReferenceConfig:
    """Coefficient set, availability variant and correction gain."""

    coeffs: HurwitzCoeffs
    availability: str = "full"
    Lambda: np.ndarray | None = None  # diagonal entries, length n

    def __post_init__(self):
        if self.availability not in AVAILABILITIES:
            raise ValueError(f"unknown availability '{self.availability}'")
        if self.availability == "full_corrected":
            if self.Lambda is None:
                raise ValueError("full_corrected variant needs the correction gain")
            lam = np.asarray(self.Lambda, dtype=float)
            if np.any(lam <= 0.0):
                raise ValueError("correction gain entries must be positive")
            object.__setattr__(self, "Lambda", lam)

    @property
    def ell(self) -> int:
        return self.coeffs.ell


def cascade_init(config: ReferenceConfig, n: int, qd_dot0=None) -> np.ndarray:
    """Initial cascade states: all zero except z(0) = qdot_d(0) when available."""
    phi = np.zeros((config.ell, n))
    if config.availability != "position":
        if qd_dot0 is None:
            raise ValueError("initialization needs the desired velocity for this variant")
        phi[0] = np.asarray(qd_dot0, dtype=float)
    return phi


def cascade_rates(config, phi, q, qdot, qd, qd_dot=None, qd_ddot=None):
    """Time derivatives of the cascade states, and the reference acceleration.

    ``phi`` has shape (ell, n) with phi[0] = z.  Returns ``(phi_dot, zdot)``
    where ``phi_dot[0] == zdot``.  Only q, qdot and the ``QD_ROWS[av]`` rows
    of q_d are read, and exactly those q_d rows must be passed.

    The rates are linear in ``phi`` and the inputs, with no constant term,
    and every argument may carry leading axes (``phi`` after its level
    axis, as (ell, ..., n)).  Evaluated on a unit basis, the function
    therefore yields its own matrix; every controller, and the realization
    checked against the oracle below, compiles its cascade that way.
    """
    av = config.availability
    if (qd_dot is not None, qd_ddot is not None) != (QD_ROWS[av] > 1, QD_ROWS[av] > 2):
        raise ValueError(f"the {av} cascade reads exactly {QD_ROWS[av]} desired-trajectory rows")
    alphas = config.coeffs.alphas
    ell = config.ell
    dq = q - qd
    phi_dot = np.empty_like(phi)
    z = phi[0]

    if av == "position":
        if ell == 1:
            phi_dot[0] = -alphas[1] * qdot - alphas[0] * dq
        else:
            for j in range(1, ell):  # levels 1..ell-1
                phi_dot[j - 1] = phi[j] - alphas[ell - j + 1] * qdot + alphas[ell - j] * qd
            phi_dot[ell - 1] = -alphas[1] * qdot - alphas[0] * dq
        return phi_dot, phi_dot[0]

    dqd = qdot - qd_dot
    if av == "velocity":
        top_extra = -alphas[ell] * dqd
    else:
        top_extra = qd_ddot - alphas[ell] * dqd
        if av == "full_corrected":
            top_extra = top_extra + config.Lambda * (qdot - z)

    if ell == 1:
        phi_dot[0] = top_extra - alphas[0] * dq
        return phi_dot, phi_dot[0]

    phi_dot[0] = phi[1] + top_extra
    for j in range(2, ell):  # middle levels
        phi_dot[j - 1] = phi[j] - alphas[ell - j + 1] * dqd
    phi_dot[ell - 1] = -alphas[1] * dqd - alphas[0] * dq
    return phi_dot, phi_dot[0]


# -- high-order oracle, the ground truth of the realization -------------------


def oracle_initial_state(config, q_traj, qd_traj, t0=0.0) -> np.ndarray:
    """Literal-ODE initial state matching the zero-initialized cascade.

    The cascade states above initialize to zero (except z(0)); inverting the
    per-level shift definitions at t0 gives the equivalent initial values of
    z and its derivatives.
    """
    alphas = config.coeffs.alphas
    ell = config.ell
    av = config.availability
    n = q_traj.n

    def q_k(k):
        return q_traj.eval(t0, k)

    def qd_k(k):
        return qd_traj.eval(t0, k)

    def dq_k(k):
        return q_k(k) - qd_k(k)

    Z = np.zeros((ell, n))
    Z[0] = 0.0 if av == "position" else qd_k(1)
    for j in range(2, ell + 1):
        if av == "position":
            val = -alphas[ell] * q_k(j - 1) + alphas[ell - j + 1] * qd_k(0)
            for i in range(2, j):
                val = val - alphas[ell - i + 1] * dq_k(j - i)
        else:
            val = np.zeros(n)
            if av in ("full", "full_corrected"):
                val = qd_k(j).astype(float)
            for i in range(1, j):
                val = val - alphas[ell - i + 1] * dq_k(j - i)
            if av == "full_corrected":
                val = val + config.Lambda * q_k(j - 1) - config.Lambda * Z[j - 2]
        Z[j - 1] = val
    return Z


def _half_grid(t_grid):
    """Stage times of classical RK4 over a uniform grid: half-step spacing."""
    t_grid = np.asarray(t_grid, dtype=float)
    steps = t_grid.size - 1
    h = t_grid[1] - t_grid[0]
    if steps > 1 and not np.allclose(np.diff(t_grid), h):
        raise ValueError("time grid must be uniform")
    return t_grid[0] + 0.5 * h * np.arange(2 * steps + 1), h


def _rk4_grid(f, x0, n_steps, h):
    """Fixed-grid RK4 where f(j, x) reads precomputed stage-time data."""
    out = np.empty((n_steps + 1, x0.size))
    x = x0.copy()
    out[0] = x
    for i in range(n_steps):
        j = 2 * i
        k1 = f(j, x)
        k2 = f(j + 1, x + 0.5 * h * k1)
        k3 = f(j + 1, x + 0.5 * h * k2)
        k4 = f(j + 2, x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = x
    return out


def _oracle_system(config, q_traj, qd_traj, ts, t0):
    """RHS on the stage grid ``ts`` and initial state of the literal ODE."""
    n = q_traj.n
    alphas = config.coeffs.alphas
    ell = config.ell
    av = config.availability

    if av == "position":
        # drive = -a_ell q^(ell) - sum_k a_k dq^(k)
        drive = -alphas[ell] * q_traj.eval_grid(ts, ell)
        for k in range(ell):
            drive -= alphas[k] * (q_traj.eval_grid(ts, k) - qd_traj.eval_grid(ts, k))
    else:
        drive = np.zeros((ts.size, n))
        if av in ("full", "full_corrected"):
            drive += qd_traj.eval_grid(ts, ell + 1)
        for k in range(ell + 1):
            drive -= alphas[k] * (q_traj.eval_grid(ts, k) - qd_traj.eval_grid(ts, k))
    q_top = q_traj.eval_grid(ts, ell) if av == "full_corrected" else None

    Z0 = oracle_initial_state(config, q_traj, qd_traj, t0).ravel()

    def f(j, x):
        # x holds Z row by row: each row's rate is the next row, the last
        # row's rate is the drive
        top = drive[j]
        if q_top is not None:
            top = top + config.Lambda * (q_top[j] - x[-n:])
        return np.concatenate((x[n:], top))

    return f, Z0


def _realization_system(config, q_traj, qd_traj, ts):
    """RHS ``phi' = A phi + d[j]`` on the stage grid ``ts`` and initial state
    of the cascade: ``A`` holds the rates on the unit basis of ``phi`` at zero
    input, ``d`` the rates at zero state over the whole grid."""
    n = q_traj.n
    m = config.ell * n
    av = config.availability
    inputs = [q_traj.eval_grid(ts, 0), q_traj.eval_grid(ts, 1)]
    inputs += [qd_traj.eval_grid(ts, k) for k in range(QD_ROWS[av])]

    unit = np.eye(m).reshape(m, config.ell, n).swapaxes(0, 1)
    A, _ = cascade_rates(config, unit, *[np.zeros(n)] * len(inputs))
    A = A.transpose(0, 2, 1).reshape(m, m)
    d, _ = cascade_rates(config, np.zeros((config.ell, ts.size, n)), *inputs)
    d = d.swapaxes(0, 1).reshape(ts.size, m)

    qd_dot0 = None if av == "position" else inputs[3][0]  # q_d'(t0)
    phi0 = cascade_init(config, n, qd_dot0).ravel()

    def f(j, x):
        return A @ x + d[j]

    return f, phi0


def oracle_realization_gaps(configs, q_traj, qd_traj, t_grid) -> list[float]:
    """``max |z_oracle - z_realized|`` over ``t_grid``, for each config.

    The oracle integrates the literal high-order ODE on trajectory derivatives
    evaluated analytically up front; the realization integrates the
    degree-reduced cascade on the same signals.  Each is one slice of a
    single stacked state: RK4 acts elementwise, so each slice follows exactly
    the numbers of its separate integration, while the integrator's per-step
    cost is paid once instead of twice per config.
    """
    n = q_traj.n
    ts, h = _half_grid(t_grid)
    systems = []
    for config in configs:
        systems.append(_oracle_system(config, q_traj, qd_traj, ts, t_grid[0]))
        systems.append(_realization_system(config, q_traj, qd_traj, ts))
    starts = np.cumsum([0] + [x0.size for _, x0 in systems]).tolist()
    parts = [(f, slice(a, b)) for (f, _), a, b in zip(systems, starts, starts[1:])]

    def f(j, x):
        return np.concatenate([fi(j, x[sl]) for fi, sl in parts])

    x0 = np.concatenate([x0 for _, x0 in systems])
    out = _rk4_grid(f, x0, len(t_grid) - 1, h)
    z = [out[:, a : a + n] for a in starts[:-1]]
    return [float(np.max(np.abs(z_o - z_r))) for z_o, z_r in zip(z[0::2], z[1::2])]
