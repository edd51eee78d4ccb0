"""Rigid-body dynamics of an n-joint manipulator.

The shipped instance is a planar two-link arm with revolute joints, the
standard testbed for torque-level control studies.  The equations of motion
are

    M(q) qdd + C(q, qd) qd + g(q) = tau + tau_star

with a symmetric positive definite inertia matrix M, a Coriolis/centrifugal
matrix C built from Christoffel symbols (so that dM/dt - 2C is exactly
skew-symmetric), and a gravity torque g that is the gradient of the
potential energy.  The dynamics are linear in a constant lumped parameter
vector: for any differentiable vector ``zeta``,

    M(q) zetad + C(q, qd) zeta + g(q) = Y(q, qd, zeta, zetad) @ theta.

Controllers are handed an :class:`ArmShape` (dimensions plus the regressor
map) rather than the model itself, so they can never read the true
parameters; only diagnostics receive the full model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "ArmParams",
    "ArmShape",
    "TwoLinkArm",
    "DEFAULT_PARAMS",
]


@dataclass(frozen=True)
class ArmParams:
    """Physical parameters of the planar two-link arm.

    Masses in kg, lengths in m, rotational inertias in kg m^2, gravity in
    m/s^2.  ``lc1``/``lc2`` are the centroid offsets along each link.
    """

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    lc1: float = 0.5
    lc2: float = 0.5
    I1: float = 0.1
    I2: float = 0.1
    g0: float = 9.81

    def lumped(self) -> np.ndarray:
        """Minimal lumped parameter vector [a1, a2, a3, b1, b2].

        a1 = I1 + m1 lc1^2 + I2 + m2 (l1^2 + lc2^2)
        a2 = m2 l1 lc2
        a3 = I2 + m2 lc2^2
        b1 = (m1 lc1 + m2 l1) g0
        b2 = m2 lc2 g0
        """
        a1 = self.I1 + self.m1 * self.lc1**2 + self.I2 + self.m2 * (self.l1**2 + self.lc2**2)
        a2 = self.m2 * self.l1 * self.lc2
        a3 = self.I2 + self.m2 * self.lc2**2
        b1 = (self.m1 * self.lc1 + self.m2 * self.l1) * self.g0
        b2 = self.m2 * self.lc2 * self.g0
        return np.array([a1, a2, a3, b1, b2])


DEFAULT_PARAMS = ArmParams()


@dataclass(frozen=True)
class ArmShape:
    """Dimension and regressor information a controller is allowed to see."""

    n: int
    p_dim: int
    regressor: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    regressor_at: Callable[[list, list, list, list], np.ndarray]  # the same, on float lists


def _cos_sin(angle: float) -> tuple[float, float]:
    """``(cos, sin)`` of a Python float angle.

    ``math`` rounds like numpy's ufuncs and skips their dispatch; where it
    raises, on an infinite angle, numpy gives the NaN (and the invalid-value
    warning, subject to ``np.errstate``) that a diverging run expects.
    """
    try:
        return math.cos(angle), math.sin(angle)
    except ValueError:
        return float(np.cos(angle)), float(np.sin(angle))


def _kinematics(q0: float, q1: float) -> tuple[float, float, float, float]:
    """``(c1, c2, s2, c12)``: ``cos(q0)``, ``cos(q1)``, ``sin(q1)``, ``cos(q0 + q1)``,
    the trigonometry the regressor and the plant read at ``q``; an infinite
    angle takes ``_cos_sin``'s numpy path, with its warning."""
    try:
        return math.cos(q0), math.cos(q1), math.sin(q1), math.cos(q0 + q1)
    except ValueError:
        (c1, _), (c2, s2), (c12, _) = _cos_sin(q0), _cos_sin(q1), _cos_sin(q0 + q1)
        return c1, c2, s2, c12


class TwoLinkArm:
    """Planar two-link arm dynamics, generic-interface instance for n = 2.

    Each term is stated once, over unpacked Python floats: scalar arithmetic
    does the same IEEE operations as the elementwise array form, without its
    per-element overhead.  ``accel`` and ``regressor_at`` take lists of
    floats, ``forward_dynamics`` and ``regressor`` 1-D ndarrays; the other
    public methods wrap the entries in arrays.  ``inertia`` gives them
    numpy's array trigonometry, so it also takes a stack of angles.  The
    lumped parameters are read from a tuple made at construction, so
    ``theta`` is read-only.
    """

    n = 2
    p_dim = 5

    def __init__(self, params: ArmParams = DEFAULT_PARAMS):
        self.params = params
        self.theta = params.lumped()
        self.theta.flags.writeable = False
        self._theta = tuple(self.theta.tolist())

    # -- dynamics terms, as entries ----------------------------------------

    def _inertia(self, c2):
        """``(m00, m01, m11)`` of M at ``c2 = cos(q1)``."""
        a1, a2, a3, _, _ = self._theta
        return a1 + 2.0 * a2 * c2, a3 + a2 * c2, a3

    def _coriolis(self, s2, v0, v1):
        """``(c00, c01, c10)`` of the Christoffel-symbol C at ``s2 = sin(q1)``;
        ``c11`` is 0."""
        h = self._theta[1] * s2
        return -h * v1, -h * (v0 + v1), h * v0

    def _gravity(self, c1, c12):
        """``(g0, g1)`` at ``c1 = cos(q0)``, ``c12 = cos(q0 + q1)``."""
        _, _, _, b1, b2 = self._theta
        return b1 * c1 + b2 * c12, b2 * c12

    # -- dynamics terms ----------------------------------------------------

    def inertia(self, q) -> np.ndarray:
        """M at angles ``q`` of shape ``(..., 2)``, one ``(2, 2)`` matrix per
        leading index: one sample and a stack of them run the same lines."""
        c2 = np.cos(np.asarray(q)[..., 1])
        m00, m01, m11 = self._inertia(c2)
        M = np.empty(np.shape(c2) + (2, 2))
        M[..., 0, 0] = m00
        M[..., 0, 1] = M[..., 1, 0] = m01
        M[..., 1, 1] = m11
        return M

    def coriolis(self, q, qdot) -> np.ndarray:
        """Christoffel-symbol Coriolis/centrifugal matrix."""
        _, q1 = np.asarray(q).tolist()
        v0, v1 = np.asarray(qdot).tolist()
        c00, c01, c10 = self._coriolis(_cos_sin(q1)[1], v0, v1)
        return np.array([[c00, c01], [c10, 0.0]])

    def inertia_rate(self, q, qdot) -> np.ndarray:
        """Analytic dM/dt along (q, qdot)."""
        _, q1 = np.asarray(q).tolist()
        _, v1 = np.asarray(qdot).tolist()
        d = -self._theta[1] * _cos_sin(q1)[1] * v1
        return np.array([[2.0 * d, d], [d, 0.0]])

    def gravity(self, q) -> np.ndarray:
        q0, q1 = np.asarray(q).tolist()
        return np.array(self._gravity(_cos_sin(q0)[0], _cos_sin(q0 + q1)[0]))

    def potential(self, q) -> float:
        _, _, _, b1, b2 = self._theta
        q0, q1 = np.asarray(q).tolist()
        return b1 * _cos_sin(q0)[1] + b2 * _cos_sin(q0 + q1)[1]

    # -- regressor ---------------------------------------------------------

    @staticmethod
    def regressor_at(q, qdot, zeta, zetadot) -> np.ndarray:
        """Y such that Y @ theta = M(q) zetadot + C(q, qdot) zeta + g(q), at
        lists of floats."""
        q0, q1 = q
        v0, v1 = qdot
        z0, z1 = zeta
        zd0, zd1 = zetadot
        c1, c2, s2, c12 = _kinematics(q0, q1)
        # a flat list converts faster than nested rows
        return np.array([
            zd0, c2 * (2.0 * zd0 + zd1) - s2 * (v1 * z0 + (v0 + v1) * z1), zd1, c1, c12,
            0.0, c2 * zd0 + s2 * v0 * z0, zd0 + zd1, 0.0, c12,
        ]).reshape(2, 5)

    @staticmethod
    def regressor(q, qdot, zeta, zetadot) -> np.ndarray:
        """:meth:`regressor_at` on 1-D ndarrays, as the filtering laws run it."""
        return TwoLinkArm.regressor_at(q.tolist(), qdot.tolist(), zeta.tolist(), zetadot.tolist())

    def shape(self) -> ArmShape:
        return ArmShape(n=self.n, p_dim=self.p_dim, regressor=self.regressor,
                        regressor_at=self.regressor_at)

    # -- simulation --------------------------------------------------------

    def accel(self, q, qdot, tau, tau_star) -> list:
        """Joint accelerations from M qdd = tau + tau_star - C qd - g, from
        and to lists of floats."""
        q0, q1 = q
        v0, v1 = qdot
        c1, c2, s2, c12 = _kinematics(q0, q1)
        m00, m01, m11 = self._inertia(c2)
        c00, c01, c10 = self._coriolis(s2, v0, v1)
        g0, g1 = self._gravity(c1, c12)
        tau0, tau1 = tau
        ts0, ts1 = tau_star
        r0 = tau0 + ts0 - (c00 * v0 + c01 * v1) - g0
        r1 = tau1 + ts1 - c10 * v0 - g1
        # closed-form 2x2 solve; M is positive definite for valid parameters
        det = m00 * m11 - m01 * m01
        try:
            return [(m11 * r0 - m01 * r1) / det, (m00 * r1 - m01 * r0) / det]
        except ZeroDivisionError:  # a singular M: numpy's inf/NaN, so the run diverges
            return (np.array([m11 * r0 - m01 * r1, m00 * r1 - m01 * r0]) / det).tolist()

    def forward_dynamics(self, q, qdot, tau, tau_star) -> np.ndarray:
        """:meth:`accel` on 1-D ndarrays, as the filtering laws' RHS runs it."""
        return np.array(self.accel(q.tolist(), qdot.tolist(), tau.tolist(), tau_star.tolist()))
