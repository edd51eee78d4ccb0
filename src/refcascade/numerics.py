"""Fixed-step integration and polynomial stability checking.

Everything here is pure and deterministic: identical inputs produce
bit-identical outputs, which is what makes experiment logs reproducible.
Polynomials are stored as coefficient arrays in increasing-power order,
``coeffs[k]`` multiplying ``w**k``.
"""

from __future__ import annotations

import math

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
    x : state array at time ``t``, of any shape
    t : current time [s]
    h : step size [s], must be positive
    k1 : optional precomputed ``deriv(t, x)``, for callers that already
        evaluated the derivative at the step start (e.g. for logging)

    Returns a new state array; ``x`` is not modified.  Raises
    :class:`NonFiniteStateError` if the new state contains NaN/Inf, naming
    the offending indices of the flattened state.  The check is one
    ``np.vdot`` of the state with itself, finite only if every entry is;
    the entrywise pass runs only when it is not (a non-finite entry, or a
    finite state whose squared norm overflows, which ``vdot`` lets pass
    without a floating-point warning, also outside ``np.errstate``).
    """
    if h <= 0.0:
        raise ValueError(f"step size must be positive, got {h}")
    x = np.asarray(x, dtype=float)
    if k1 is None:
        k1 = deriv(t, x)
    half = 0.5 * h
    k2 = deriv(t + half, x + half * k1)
    k3 = deriv(t + half, x + half * k2)
    k4 = deriv(t + h, x + h * k3)
    x_new = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not math.isfinite(np.vdot(x_new, x_new)):
        bad = ~np.isfinite(x_new)
        if bad.any():
            raise NonFiniteStateError(np.flatnonzero(bad), t)
    return x_new


def routh_hurwitz(poly) -> str:
    """Classify a polynomial as ``'stable'``, ``'unstable'`` or ``'marginal'``.

    Stability means every root has strictly negative real part, decided by
    the Routh array without extracting roots.  A (numerically) zero entry in
    the first column makes the verdict ``'marginal'``; zero pivots are
    reported, never repaired with epsilon rows, so callers must reject
    marginal coefficient sets themselves.

    The array is formed in the variable ``s = w / 2**e``, the power of two
    that brings the constant and leading coefficients to one magnitude, so
    the verdict does not depend on the frequency scale of the roots; a
    power of two rescales exactly, and the first column keeps its signs.

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

    # high-to-low order, normalized to a positive leading coefficient near 1
    a = (-c if c[-1] < 0.0 else c)[::-1].tolist()
    lead = math.frexp(a[0])[1]
    e = 0 if a[-1] == 0.0 else round((math.frexp(a[-1])[1] - lead) / degree)
    try:
        a = [math.ldexp(x, -i * e - lead) for i, x in enumerate(a)]
    except OverflowError:  # roots too far apart to share one scale
        pass
    tol = 1e-12 * max(map(abs, a))

    # Hurwitz polynomials have strictly positive coefficients; a strictly
    # negative one certifies a root with positive real part.
    if any(x < -tol for x in a):
        return "unstable"

    width = (degree // 2) + 1
    row0 = a[0::2] + [0.0] * (width - len(a[0::2]))
    row1 = a[1::2] + [0.0] * (width - len(a[1::2]))

    first_column = [row0[0]]
    for _ in range(degree):
        pivot = row1[0]
        if abs(pivot) <= tol:
            return "marginal"
        first_column.append(pivot)
        nxt = [(pivot * x0 - row0[0] * x1) / pivot for x0, x1 in zip(row0[1:], row1[1:])]
        row0, row1 = row1, nxt + [0.0]

    if any(abs(x) <= tol for x in first_column):
        return "marginal"
    return "stable" if all(x > 0.0 for x in first_column) else "unstable"
