"""Online realization of proper rational operators in the differential
variable p, applied to scalar, vector and matrix signals.

Filters are realized in controllable canonical form directly from numerator
and denominator coefficients (increasing powers of p).  Several operators in
the torque laws share a denominator and differ only in the numerator, so a
realization may expose multiple outputs over one state chain.  Matrix
signals (e.g. the dynamics regressor) are filtered entrywise by a
:class:`FilterBank`, whose coefficients may vary per row: the diagonal-gain
convention makes every operator in the control laws decompose into per-joint
scalar channels.

For strictly proper channels the output is a pure state map, and the first
and second time derivatives of the output are also available as state maps
plus current-input terms, which is how second derivatives of filtered
quantities are obtained without ever differentiating a measured signal.

Controllers do not call the banks while integrating.  Everything a
filtering controller computes is linear in its state ``x`` and the
trajectory data ``w = (q, qdot, q_d, q_d', q_d'')`` (the filter chains, the
reference cascade, the proxy and layer states, the estimate rates), except
for a few products: the regressor ``Y`` and its products with estimates and
errors (``Y theta_hat``, ``Y^T s``, ``Y xi``), the swap term, the damping
term ``W W^T e`` and ``W^T e``, and the products with the tone estimates.
A :class:`LinearBlock` compiles the rest, once, into one affine map:
``y = C [x; w]`` for every linear signal the law reads, and the state rate
``xdot = A x + B [w; u]``, where ``u`` holds only those products.  The
banks remain the source of every filter coefficient.
"""

from __future__ import annotations

import copy
import functools
import math

import numpy as np

from .numerics import poly_mul

__all__ = [
    "FilterBank",
    "LinearBlock",
    "cascade_poly",
]


def _monomial(k: int) -> np.ndarray:
    m = np.zeros(k + 1)
    m[k] = 1.0
    return m


def cascade_poly(alphas) -> np.ndarray:
    """Characteristic polynomial p^(l+1) + a_l p^l + ... + a_0 of a cascade."""
    return np.append(np.asarray(alphas, dtype=float), 1.0)


class FilterBank:
    """Entrywise bank of single-input filters sharing one state chain per cell.

    Parameters
    ----------
    dens : (rows, order+1) array-like
        Denominator coefficients per row, increasing powers.
    nums : sequence of (rows, <=order+1) array-likes
        One numerator set per output; each must be proper w.r.t. its row's
        denominator.
    cols : int
        Number of signal columns filtered per row (1 for vector signals).

    State has shape ``(rows, cols, order)`` (``cols`` axis dropped when 1).
    All cells in a row share coefficients; rows may differ.
    """

    def __init__(self, dens, nums, cols=1):
        dens = np.atleast_2d(np.asarray(dens, dtype=float))
        self.rows = dens.shape[0]
        self.order = dens.shape[1] - 1
        self.cols = int(cols)
        if self.order < 1:
            raise ValueError("denominator degree must be at least 1")
        lead = dens[:, -1]
        if (lead == 0.0).any():
            raise ValueError("zero leading denominator coefficient")
        dens = dens / lead[:, None]
        self.a = dens[:, :-1].copy()  # monic tail, increasing powers

        full = np.zeros((len(nums), self.rows, self.order + 1))
        for k, num in enumerate(nums):
            num = np.atleast_2d(np.asarray(num, dtype=float))
            if num.shape[1] > self.order + 1:
                raise ValueError("improper transfer function (num degree > den degree)")
            full[k, :, : num.shape[1]] = num  # a single row serves every row
        full /= lead[:, None]
        self.D = full[:, :, -1].copy()
        self.C = full[:, :, :-1] - self.D[:, :, None] * self.a
        self._has_D = (self.D != 0.0).any(axis=1).tolist()

    # output-derivative maps, ydot = CA x + CB u (+ D udot) and likewise for
    # the second derivative; computed when first read, since most banks
    # serve only their outputs

    @functools.cached_property
    def CA(self):
        CA = np.zeros_like(self.C)
        CA[:, :, 1:] = self.C[:, :, :-1]
        CA -= self.C[:, :, -1:] * self.a[None, :, :]
        return CA

    @functools.cached_property
    def CB(self):
        return self.C[:, :, -1].copy()

    @functools.cached_property
    def CA2(self):
        CA2 = np.zeros_like(self.C)
        CA2[:, :, 1:] = self.CA[:, :, :-1]
        CA2 -= self.CA[:, :, -1:] * self.a[None, :, :]
        return CA2

    @functools.cached_property
    def CAB(self):
        return self.CA[:, :, -1].copy()

    # -- state management ----------------------------------------------------

    @property
    def state_size(self) -> int:
        return self.rows * self.cols * self.order

    def state_shape(self):
        if self.cols == 1:
            return (self.rows, self.order)
        return (self.rows, self.cols, self.order)

    def with_cols(self, cols) -> FilterBank:
        """The same filters for a signal with ``cols`` columns; shares the coefficients."""
        bank = copy.copy(self)
        bank.cols = int(cols)
        return bank

    # -- dynamics ------------------------------------------------------------

    def deriv(self, x, u) -> np.ndarray:
        """State derivative for current input ``u`` (shape (rows,[cols]))."""
        xd = np.empty_like(x)
        xd[..., :-1] = x[..., 1:]
        xd[..., -1] = u - np.einsum("rm,r...m->r...", self.a, x)
        return xd

    def _mix(self, M, x):
        return np.einsum("rm,r...m->r...", M, x)

    def _feed(self, dvec, u):
        if u is None:
            return 0.0
        if np.ndim(u) == 2:
            return dvec[:, None] * u
        return dvec * u

    def output(self, x, u=None, k=0):
        y = self._mix(self.C[k], x)
        if self._has_D[k]:
            if u is None:
                raise ValueError("biproper output requires the current input")
            y = y + self._feed(self.D[k], u)
        return y

    def output_dot(self, x, u, udot=None, k=0):
        y = self._mix(self.CA[k], x) + self._feed(self.CB[k], u)
        if self._has_D[k]:
            if udot is None:
                raise ValueError("biproper output derivative requires udot")
            y = y + self._feed(self.D[k], udot)
        return y

    def output_ddot(self, x, u, udot, k=0):
        if self._has_D[k]:
            raise ValueError("second output derivative implemented for strictly proper channels")
        return (
            self._mix(self.CA2[k], x)
            + self._feed(self.CAB[k], u)
            + self._feed(self.CB[k], udot)
        )

    def response_at(self, omega, k=0, row=0):
        """Frequency response of output ``k``, row ``row``, at p = i omega."""
        p = 1j * omega
        den = p**self.order + np.polynomial.polynomial.polyval(p, np.append(self.a[row], 0.0))
        num = np.polynomial.polynomial.polyval(
            p, np.append(self.C[k, row] + self.D[k, row] * self.a[row], self.D[k, row])
        )
        return num / den


class LinearBlock:
    """The linear part of one controller's law, compiled into one affine map.

    The map acts on the column vector ``v = [x; w; u]``: the controller state
    ``x`` in ``layout`` order, ``w = (q, qdot, q_d, q_d', q_d'')`` with
    ``n`` entries each, then the nonlinear inputs ``u`` named in ``early``
    and ``late`` (sequences of ``(name, shape)``), in that order.  An
    evaluation has three stages, each one matrix-vector product:

    * :meth:`outputs` reads ``[x; w]`` and returns every linear signal the
      law reads (filter outputs, errors, estimates);
    * :meth:`early` also reads the ``early`` inputs, the products formed
      from those outputs, and returns the rates of the leading state blocks
      (the cascade and the layers before the regressor) with the signals
      the regressor needs;
    * :meth:`late` reads all of ``v``, the ``late`` inputs being the
      products with the regressor, and returns the full ``xdot`` with the
      remaining signals (the torque).

    The maps are built by linear algebra on *signals*: arrays whose last
    axis runs over the columns of ``v``, so a signal ``S`` takes the value
    ``S @ v``.  :meth:`signal` gives the unit signal of a state block, of
    ``q``, ``qdot``, ``qd`` (the three trajectory rows) or of a nonlinear
    input, and :meth:`tap` a filter bank's output from the bank's own
    coefficients; any other linear function that accepts leading axes (the
    reference cascade) is evaluated on signals with that axis moved to the
    front.  :meth:`compile` places the signals and the filter chains into
    the matrices ``C``, ``early_map`` and ``late_map``, whose first
    ``n_early`` and ``n_late`` rows are the state rates, and checks that
    each stage reads only the columns it is given.
    """

    def __init__(self, layout, n, early, late):
        self._names = layout.names()
        self._x = layout.size
        # name -> (first column, shape)
        self._cols = {name: layout.span(name) for name in self._names}
        # columns each stage reads: [x; w], then the early inputs, then all
        widths = []
        off = layout.size
        for group in ((("q", n), ("qdot", n), ("qd", (3, n))), early, late):
            for name, shape in group:
                shape = (shape,) if isinstance(shape, int) else tuple(shape)
                self._cols[name] = (off, shape)
                off += math.prod(shape)
            widths.append(off)
        self._widths = tuple(widths)
        self.width = off

    # -- construction ---------------------------------------------------------

    def signal(self, name):
        """Unit signal of a state block, ``q``, ``qdot``, ``qd`` or an input."""
        start, shape = self._cols[name]
        size = math.prod(shape)
        out = np.zeros((size, self.width))
        # entry k reads column start + k: flat positions start + k (width + 1)
        out.reshape(-1)[start : start + size * (self.width + 1) : self.width + 1] = 1.0
        return out if len(shape) == 1 else out.reshape(shape + (self.width,))

    def tap(self, name, bank, kind="C", k=0):
        """State part of output ``k`` of the chains in block ``name``.

        ``kind`` is ``"C"``, ``"CA"`` or ``"CA2"``: the output or its first
        or second time derivative, without the current-input terms (``D u``,
        ``CB u``, ``CAB u``), which the caller adds; a tuple of kinds stacks
        them on a leading axis.  ``k`` may be a slice, which stacks those
        outputs on a leading axis.
        """
        start, shape = self._chain(name, bank)
        if isinstance(kind, str):
            maps = getattr(bank, kind)[k]
        else:
            maps = np.array([getattr(bank, kd)[k] for kd in kind])
        # output (..., r, [c]) reads maps[..., r, :] on chain (r, [c]),
        # whose states are the columns start + m (r [* cols + c]) + (0..m-1)
        lead = maps.shape[:-2]
        m, g = bank.order, bank.state_size // bank.order
        out = np.zeros(lead + (g, self.width))
        diag = np.einsum("...ggj->...gj", out[..., start : start + g * m].reshape(lead + (g, g, m)))
        diag[...] = maps.repeat(bank.cols, axis=-2)
        return out.reshape(lead + shape[:-1] + (self.width,))

    def _chain(self, name, bank):
        """First column and shape of block ``name``, checked against ``bank``."""
        start, shape = self._cols[name]
        if shape != bank.state_shape():
            raise ValueError(f"block '{name}' does not match its bank's state shape")
        return start, shape

    def compile(self, outputs, early, late):
        """Place the signals of the three stages into their matrices.

        ``outputs`` is a sequence of signals; ``early`` and ``late`` are
        each ``(rates, signals)``, ``rates`` mapping state-block names to
        rate signals, or, for a filter block, to ``(bank, drive)``: the
        bank's chains driven by the signal ``drive``.  The early rates'
        blocks followed by the late ones' must be the layout's blocks, in
        order.
        """
        (early_rates, early_out), (late_rates, late_out) = early, late
        if tuple(early_rates) + tuple(late_rates) != self._names:
            raise ValueError("early and late rates must cover the state blocks in layout order")
        self.n_early = sum(math.prod(self._cols[name][1]) for name in early_rates)
        self.n_late = self._x - self.n_early
        self.C, self._out = self._stage(0, {}, outputs)
        self.early_map, self._early = self._stage(1, early_rates, early_out)
        self.late_map, self._late = self._stage(2, late_rates, late_out)
        # construction-time state; a compiled block holds only its maps
        del self._names, self._cols

    def _stage(self, stage, rates, signals):
        """One stage's matrix, the rates of the blocks in ``rates`` followed
        by ``signals``, and the signals' places in its product."""
        W = self.width
        flat = [s.reshape(-1, W) for s in signals]
        if not any(isinstance(rate, tuple) for rate in rates.values()):
            M = np.concatenate([rate.reshape(-1, W) for rate in rates.values()] + flat)
        else:
            # every block is a run of states, so its rows are a slice
            first = self._cols[next(iter(rates))][0]
            n_rates = sum(math.prod(self._cols[name][1]) for name in rates)
            M = np.zeros((n_rates + sum(map(len, flat)), W))
            for name, rate in rates.items():
                start, shape = self._cols[name]
                r0 = start - first
                if isinstance(rate, tuple):
                    bank, drive = rate
                    self._chain(name, bank)
                    m, size = bank.order, bank.state_size
                    # the chains' own block is block diagonal: each state's
                    # rate is the next state (the superdiagonal, cut at each
                    # chain's end), the last one's is the drive minus the
                    # denominator tail
                    base = r0 * W + start
                    M.reshape(-1)[base + 1 : base + 1 + (size - 1) * (W + 1) : W + 1] = 1.0
                    own = M[r0 : r0 + size, start : start + size]
                    own[m - 1 :: m] = 0.0
                    diag = np.einsum("gigj->gij", own.reshape(size // m, m, size // m, m))
                    diag[:, -1] = -bank.a.repeat(bank.cols, axis=0)
                    M[r0 + m - 1 : r0 + size : m] += drive.reshape(-1, W)
                else:
                    M[r0 : r0 + math.prod(shape)] = rate.reshape(-1, W)
            if flat:
                M[n_rates:] = np.concatenate(flat)
        width = self._widths[stage]
        if M[:, width:].any():
            raise ValueError("a signal reads columns its stage is not given")
        spec = []
        off = len(M) - sum(map(len, flat))
        for s, f in zip(signals, flat):
            spec.append((slice(off, off + len(f)), s.shape[:-1] if s.ndim > 2 else None))
            off += len(f)
        # a row-strided matrix multiplies as fast as a contiguous one
        return M[:, :width], spec

    # -- evaluation -----------------------------------------------------------

    def outputs(self, v):
        """The output signals at ``v = [x; w]``, in compile order."""
        return _unpack(self.C @ v, self._out)

    def early(self, v):
        """Early rates (opaque, for :meth:`late`) and the early signals."""
        r = self.early_map @ v
        return r, _unpack(r, self._early)

    def late(self, v, early_rates):
        """``xdot`` and the late signals, at the full ``v``."""
        r = self.late_map @ v
        xdot = np.concatenate((early_rates[: self.n_early], r[: self.n_late]))
        return xdot, _unpack(r, self._late)


def _unpack(y, spec):
    return [y[s] if shape is None else y[s].reshape(shape) for s, shape in spec]


# -- named operators of the torque laws --------------------------------------
#
# Channelwise builders; `alphas` are the cascade coefficients a_0..a_l and
# (a0s, a1s) the second-order target-error pair.


def regressor_loop_channel(alphas, a0s, a1s, lam_r, k_r):
    """Filter from the regressor to the adaptation regressor, one joint.

    num = lam_r p^(l-1) (p^2 + a1s p + a0s), den = P(p) (p + k_r); strictly
    proper with relative degree one for every cascade order.
    """
    ell = len(alphas) - 1
    num = lam_r * poly_mul([a0s, a1s, 1.0], _monomial(ell - 1))
    den = poly_mul(cascade_poly(alphas), [k_r, 1.0])
    return num, den


def freq_regressor_channel(alphas, a0s, a1s, lam_r):
    """Filter producing the tone-adaptation regressor from the layer error."""
    ell = len(alphas) - 1
    if ell < 2:
        raise ValueError("stacked operators need cascade order >= 2")
    num = poly_mul([a0s, a1s, 1.0], np.append(np.zeros(ell - 2), [lam_r, 1.0]))
    den = cascade_poly(alphas)
    return num, den


def tone_path_channel(alphas, a0s, a1s, alpha_st, lam_r, k_r):
    """Low-derivative path from the regressor into the target error."""
    ell = len(alphas) - 1
    if ell < 2:
        raise ValueError("stacked operators need cascade order >= 2")
    num = lam_r * poly_mul([a0s, a1s, 1.0], _monomial(ell - 2))
    den = poly_mul(cascade_poly(alphas), [alpha_st, 1.0], [k_r, 1.0])
    return num, den


def direct_path_channel(alphas, a0s, a1s, alpha_st, lam_r, k_r):
    """High-derivative path from the regressor into the target error."""
    ell = len(alphas) - 1
    if ell < 2:
        raise ValueError("stacked operators need cascade order >= 2")
    num = lam_r * poly_mul([a0s, a1s, 1.0], _monomial(ell))
    den = poly_mul(cascade_poly(alphas), [alpha_st, 1.0], [k_r, 1.0])
    return num, den
