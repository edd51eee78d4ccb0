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

For strictly proper channels the output is a pure state map.  Its first
and second time derivatives are the output map on the chain's first and
second rates (``deriv``), which read the current input and its rate only:
that is how second derivatives of filtered quantities are obtained without
ever differentiating a measured signal.

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
banks state every filter once: a block's filter outputs are the bank's own
``output``, ``output_dot`` and ``output_ddot`` on its unit signal, and each
chain entry's rate is the next entry but the last's, ``FilterBank.last_rate``.
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
    channels : sequence of (den, nums)
        Each row's denominator and one numerator per output, all in
        increasing powers.  The rows' denominators share one order; their
        numerators may differ in length, each proper w.r.t. its row's
        denominator.  A one-row bank is a scalar filter.
    cols : int
        Number of signal columns filtered per row (1 for vector signals).

    State has shape ``(rows, cols, order)`` (``cols`` axis dropped when 1).
    All cells in a row share coefficients; rows may differ.
    """

    def __init__(self, channels, cols=1):
        dens = np.array([den for den, _ in channels], dtype=float)
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

        full = np.zeros((len(channels[0][1]), self.rows, self.order + 1))
        for r, (_, nums) in enumerate(channels):
            for k, num in enumerate(nums):
                if len(num) > self.order + 1:
                    raise ValueError("improper transfer function (num degree > den degree)")
                full[k, r, : len(num)] = num
        full /= lead[:, None]
        self.D = full[:, :, -1].copy()
        self.C = full[:, :, :-1] - self.D[:, :, None] * self.a
        self._has_D = (self.D != 0.0).any(axis=1).tolist()

    # -- state management ----------------------------------------------------

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
        xd[..., -1] = self.last_rate(x, u)
        return xd

    def last_rate(self, x, u):
        """The rate ``u - a x`` of each chain's last entry."""
        return u - self._mix(self.a, x)

    def _mix(self, M, x):
        return np.einsum("rm,r...m->r...", M, x)

    def _feed(self, dvec, u):
        return dvec.reshape((-1,) + (1,) * (np.ndim(u) - 1)) * u

    def state_output(self, x, k=0):
        """The state part ``C x`` of output ``k``, without ``D u``."""
        return self._mix(self.C[k], x)

    def output(self, x, u=None, k=0):
        y = self.state_output(x, k)
        if self._has_D[k]:
            if u is None:
                raise ValueError("biproper output requires the current input")
            y = y + self._feed(self.D[k], u)
        return y

    def output_dot(self, x, u, udot=None, k=0):
        """The output's rate: the output map on the chain's rate."""
        return self.output(self.deriv(x, u), udot, k)

    def output_ddot(self, x, u, udot=None, k=0):
        """The state map on the chain's second rate; ``udot`` may be omitted
        where ``C[k, :, -1]`` is zero (relative degree >= 2)."""
        if self._has_D[k]:
            raise ValueError("second output derivative implemented for strictly proper channels")
        if udot is None:
            if self.C[k, :, -1].any():
                raise ValueError("second output derivative requires udot")
            udot = 0.0
        return self.state_output(self.deriv(self.deriv(x, u), udot), k)

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
      from those outputs, and returns the signals the regressor needs;
    * :meth:`late` reads all of ``v``, the ``late`` inputs being the
      products with the regressor, and returns the state rate ``xdot`` with
      the remaining signals (the torque).

    The maps are built by linear algebra on *signals*: arrays whose last
    axis runs over the columns of ``v``, so a signal ``S`` takes the value
    ``S @ v``.  :meth:`signal` gives the unit signal of a state block, of
    ``q``, ``qdot``, ``qd`` (the three trajectory rows) or of a nonlinear
    input.  Any linear function that accepts leading axes is evaluated on
    signals with that axis moved to the front: the reference cascade, and a
    filter bank's output maps on :meth:`chains`, the unit signal of its
    block with the column axis before the chain axis; a chain block's rate
    is given as the bank's drive.  :meth:`compile` places the signals into
    the matrices ``C``, ``early_map`` and ``late_map``, and checks that
    each stage's map is finite (else ``OverflowError``) and reads only the
    columns it is given; each map is stored contiguous at its stage's
    width from a 64-byte boundary, and a stage is one ``ndarray.dot`` into
    its product.  Most of the rate is the chains' shifts
    ``x_i' = x_(i+1)``, which need no product: the late map leaves them out
    (:meth:`_rate_rows`, which records them as ``served``), and
    :meth:`late` fills the rate with one copy of ``v`` one entry on, then
    one scatter of the rows the map computes.

    An evaluation allocates nothing: the block owns one work array,
    ``work`` (``v``, each stage's product and the rate, also from a
    64-byte boundary), and fixed views into it.
    ``slots`` names the views of ``v`` a law writes: ``x``, ``q``,
    ``qdot``, ``qd`` and each nonlinear input.  A stage returns the same
    views of its product on every call, so what an evaluation returns is
    valid only until the next one.  Nothing writable is shared between
    blocks; the unit signals they share are read-only.
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
        self._banks = {}  # chain block name -> its bank

    # -- construction ---------------------------------------------------------

    def signal(self, name):
        """Unit signal of a state block, ``q``, ``qdot``, ``qd`` or an input:
        a read-only view of the identity's rows."""
        start, shape = self._cols[name]
        rows = _identity(self.width)[start : start + math.prod(shape)]
        return rows.reshape(shape + (self.width,))

    def chains(self, name, bank):
        """Unit signal of block ``name`` as ``bank``'s state argument, the
        column axis before the chain axis, so the bank's outputs are signals.

        The block's rate is then the bank's drive, the ``u`` of
        ``bank.deriv(x, u)``, and :meth:`compile` places the chains' rates.
        """
        if self._cols[name][1] != bank.state_shape():
            raise ValueError(f"block '{name}' does not match its bank's state shape")
        self._banks[name] = bank
        return self.signal(name).swapaxes(-1, -2)

    def compile(self, outputs, early, late, rates):
        """Place the signals of the three stages into their matrices.

        ``outputs``, ``early`` and ``late`` are sequences of signals;
        ``rates`` maps every state block's name, in any order, to its rate
        signal (a chain block's to its drive), which the late stage places.
        """
        if rates.keys() != set(self._names):
            raise ValueError("the rates must cover the state blocks, each once")
        maps, self._specs = zip(self._stage(0, outputs), self._stage(1, early),
                                self._stage(2, late, [self._rate_rows(rates)]))
        self.C, self.early_map, self.late_map = self._maps = maps
        # the places in v a law writes: x, q, qdot, qd and the inputs
        self._inputs = {"x": (0, (self._x,))}
        self._inputs.update((name, place) for name, place in self._cols.items()
                            if name not in self._names)
        # construction-time state; a compiled block holds its maps and places
        del self._names, self._cols, self._banks

    def _stage(self, stage, signals, rates=()):
        """One stage's matrix, contiguous at the stage's width: ``rates``'
        rows followed by ``signals``, and the signals' places in its product."""
        W, width = self.width, self._widths[stage]
        flat = [s.reshape(-1, W) for s in signals]
        blocks = [*rates, *flat]
        rows = sum(map(len, blocks))
        if not rows:
            raise ValueError(f"the {('output', 'early', 'late')[stage]} stage is empty")
        # the columns past the stage's width are dropped before the one copy
        # that assembles the map, and checked where they are
        M = np.concatenate([r[:, :width] for r in blocks], out=_aligned((rows, width)))
        if not np.isfinite(M).all():  # an overflowing gain product, not a structural error
            raise OverflowError("the compiled law's coefficients overflow")
        if width < W and any(r[:, width:].any() for r in blocks):
            raise ValueError("a signal reads columns its stage is not given")
        spec = []
        off = len(M) - sum(map(len, flat))
        for s, f in zip(signals, flat):
            spec.append((slice(off, off + len(f)), s.shape[:-1] if s.ndim > 2 else None))
            off += len(f)
        return M, spec

    def _rate_rows(self, rates):
        """The rate rows the map computes, in layout order: every row but
        the chains' shifts, which :meth:`late` serves by copy.  ``served``
        records the shifts, as indices into the rate; ``_dense`` the rest."""
        shift = np.zeros(self._x, dtype=bool)
        for name, bank in self._banks.items():
            start = self._cols[name][0]
            chains = shift[start : start + math.prod(bank.state_shape())]
            chains.reshape(-1, bank.order)[:, :-1] = True
        self.served, self._dense = np.flatnonzero(shift), np.flatnonzero(~shift)
        place = np.cumsum(~shift) - 1  # a computed row's row in the map
        R = np.zeros((len(self._dense), self.width))
        for name, rate in rates.items():
            start, shape = self._cols[name]
            rows = place[start : start + math.prod(shape)]
            if name in self._banks:  # the chains' last entries
                rows = rows[shape[-1] - 1 :: shape[-1]]
                rate = self._banks[name].last_rate(self.signal(name).swapaxes(-1, -2), rate)
            R[rows] = rate.reshape(-1, self.width)
        return R

    # -- evaluation -----------------------------------------------------------
    #
    # The work array and its views are made on first use, so that set-up
    # does not pay for them.

    @functools.cached_property
    def work(self):
        """``v``, then each stage's product, then the rate, in one array."""
        return _aligned((self.width + sum(map(len, self._maps)) + self._x,))

    @functools.cached_property
    def v(self):
        return self.work[: self.width]

    @functools.cached_property
    def slots(self):
        """Name -> view of ``v`` for ``x``, ``q``, ``qdot``, ``qd`` and each input."""
        return {name: self.v[start : start + math.prod(shape)].reshape(shape)
                for name, (start, shape) in self._inputs.items()}

    @functools.cached_property
    def _stages(self):
        """Per stage: its map, the part of ``v`` it reads, its product and
        the views of its signals."""
        stages, off = [], self.width
        for M, spec, width in zip(self._maps, self._specs, self._widths):
            r = self.work[off : off + len(M)]
            off += len(M)
            views = [r[s] if shape is None else r[s].reshape(shape) for s, shape in spec]
            stages.append((M, self.v[:width], r, views))
        return stages

    @functools.cached_property
    def _late_rate(self):
        """The rate; ``v`` one entry on from its first state, every shift's
        value; and the places and values of the rows the map computes."""
        return (self.work[self.work.size - self._x :], self.v[1 : 1 + self._x], self._dense,
                self._stages[2][2][: len(self._dense)])

    def outputs(self):
        """The output signals at ``v``'s ``[x; w]``, in compile order."""
        M, v, r, signals = self._stages[0]
        M.dot(v, r)
        return signals

    def early(self):
        """The early signals, once ``v`` holds the early inputs."""
        M, v, r, signals = self._stages[1]
        M.dot(v, r)
        return signals

    def late(self):
        """The state rate ``xdot`` and the late signals, at the full ``v``."""
        M, v, r, signals = self._stages[2]
        M.dot(v, r)
        rate, shifted, dense, computed = self._late_rate
        rate[:] = shifted  # every shift row, then the rows the map computes
        rate[dense] = computed
        return rate, signals


def _aligned(shape):
    """An uninitialized float array of ``shape`` starting at a 64-byte
    boundary, a slice of a slightly larger buffer: where the heap puts a
    stage map would otherwise decide how fast ``dot`` reads it."""
    count = math.prod(shape)
    buf = np.empty(count + 7)
    start = -buf.__array_interface__["data"][0] % 64 // 8
    return buf[start : start + count].reshape(shape)


@functools.lru_cache(maxsize=4)
def _identity(width):
    """The unit signals of all ``width`` columns.

    Shared by every block of that width, so never written to: a fresh
    identity per block would pay its page faults on every build.
    """
    eye = np.eye(width)
    eye.flags.writeable = False
    return eye


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


def target_path_channels(alphas, a0s, a1s, alpha_st, lam_r, k_r):
    """Paths from the regressor into the target error: ``(den, [low, high])``.

    Both share den = P(p) (p + alpha_st) (p + k_r); the low-derivative
    numerator is lam_r p^(l-2) (p^2 + a1s p + a0s), the high one p^2 times it.
    """
    ell = len(alphas) - 1
    if ell < 2:
        raise ValueError("stacked operators need cascade order >= 2")
    nums = [lam_r * poly_mul([a0s, a1s, 1.0], _monomial(power)) for power in (ell - 2, ell)]
    return poly_mul(cascade_poly(alphas), [alpha_st, 1.0], [k_r, 1.0]), nums
