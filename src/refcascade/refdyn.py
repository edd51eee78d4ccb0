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
exactly equivalent to the high-order ODE.  The ground truth for that
equivalence is ``validation.oracle_realization_gaps``: it integrates the
literal high-order ODE on exact analytic derivatives beside the cascade
matrix the single-layer laws run, ``controllers.basic.compile_cascade``.

Scaling the coefficients by alpha_k -> alpha_k / kappa^(ell+1-k) dilates the
autonomous dynamics in time by kappa; critically damped sets (binomial
expansions of (w + a)^(ell+1)) map onto critically damped sets with rate
a / kappa, so the family is closed under time scaling.  The configuration's
time scale ``gains.kappa`` uses that: its cascade, the critically damped set
at rate alpha * kappa, is the rate-alpha set scaled by 1 / kappa.
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
    "cascade_init",
    "cascade_rates",
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
    therefore yields its own matrix; ``controllers.basic.compile_cascade``
    compiles it that way, once, for the single-layer laws and the oracle.
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
