"""Fixed-step integration and polynomial stability checking.

Everything here is pure and deterministic: identical inputs produce
bit-identical outputs, which is what makes experiment logs reproducible.
Polynomials are stored as coefficient arrays in increasing-power order,
``coeffs[k]`` multiplying ``w**k``.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NonFiniteStateError",
    "poly_mul",
    "poly_from_roots",
    "rk4_step",
    "routh_hurwitz",
]


class NonFiniteStateError(RuntimeError):
    """Raised when an integration step produces NaN or Inf entries.

    Divergence is a meaningful experimental outcome, so callers are expected
    to catch this and record it rather than clamp the state.
    """

    def __init__(self, indices, t):
        self.indices = list(indices)
        self.t = t
        super().__init__(
            f"non-finite state entries at t={t:.6g} (state indices {self.indices})"
        )


def poly_mul(*polys):
    """Multiply polynomials given as increasing-power coefficient arrays."""
    if not polys:
        return np.array([1.0])
    # the first factor as a product with 1 would return it, with -0.0 as 0.0
    out = np.array(polys[0], dtype=float, ndmin=1) + 0.0
    for p in polys[1:]:
        out = np.convolve(out, np.asarray(p, dtype=float))
    return out


def poly_from_roots(roots):
    """Monic polynomial with the given (possibly complex) roots.

    Complex roots must come in conjugate pairs; the tiny imaginary residue
    from the product is dropped.
    """
    out = np.array([1.0 + 0.0j])
    for r in roots:
        out = np.convolve(out, np.array([-r, 1.0]))
    return out.real.copy()


def rk4_step(deriv, x, t, h, k1=None):
    """One classical 4th-order Runge-Kutta step of ``dx/dt = deriv(t, x)``.

    Parameters
    ----------
    deriv : callable mapping ``(t, x)`` to an array like ``x``
    x : state vector at time ``t``
    t : current time [s]
    h : step size [s], must be positive
    k1 : optional precomputed ``deriv(t, x)``, for callers that already
        evaluated the derivative at the step start (e.g. for logging)

    Returns a new state vector; ``x`` is not modified.  Raises
    :class:`NonFiniteStateError` if the combined increment contains NaN/Inf,
    naming the offending state indices.
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    if k1 is None:
        k1 = deriv(t, x)
    k2 = deriv(t + 0.5 * h, x + 0.5 * h * k1)
    k3 = deriv(t + 0.5 * h, x + 0.5 * h * k2)
    k4 = deriv(t + h, x + h * k3)
    incr = k1 + 2.0 * k2 + 2.0 * k3 + k4
    if not np.isfinite(incr).all():
        bad = np.flatnonzero(~np.isfinite(incr))
        raise NonFiniteStateError(bad, t)
    return x + (h / 6.0) * incr


def routh_hurwitz(poly) -> str:
    """Classify a polynomial as ``'stable'``, ``'unstable'`` or ``'marginal'``.

    Stability means every root has strictly negative real part, decided by
    the Routh array without extracting roots.  A (numerically) zero entry in
    the first column makes the verdict ``'marginal'``; zero pivots are
    reported, never repaired with epsilon rows, so callers must reject
    marginal coefficient sets themselves.

    Accepts an increasing-power coefficient sequence.  Raises
    ``ValueError`` for degree < 1 or a zero leading coefficient.
    """
    c = np.asarray(poly, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("polynomial must be a non-empty 1-D coefficient sequence")
    if c[-1] == 0.0:
        raise ValueError("zero leading coefficient")
    degree = c.size - 1
    if degree < 1:
        raise ValueError("degree must be at least 1")

    # high-to-low order, normalized to a positive leading coefficient
    a = c[::-1].copy()
    if a[0] < 0.0:
        a = -a
    scale = np.max(np.abs(a))
    tol = 1e-12 * scale

    # Hurwitz polynomials have strictly positive coefficients; a strictly
    # negative one certifies a root with positive real part.
    if np.any(a < -tol):
        return "unstable"

    width = (degree // 2) + 1
    row0 = np.zeros(width)
    row1 = np.zeros(width)
    row0[: a[0::2].size] = a[0::2]
    row1[: a[1::2].size] = a[1::2]

    first_column = [row0[0]]
    for _ in range(degree):
        pivot = row1[0]
        if abs(pivot) <= tol:
            return "marginal"
        first_column.append(pivot)
        nxt = np.zeros(width)
        nxt[:-1] = (pivot * row0[1:] - row0[0] * row1[1:]) / pivot
        row0, row1 = row1, nxt

    fc = np.array(first_column)
    if np.any(np.abs(fc) <= tol):
        return "marginal"
    return "stable" if np.all(fc > 0.0) else "unstable"
