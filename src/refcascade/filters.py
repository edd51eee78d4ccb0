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

Controllers do not call the banks while integrating.  A :class:`LinearBlock`
compiles all banks of one controller, once, into a block-diagonal companion
matrix ``A`` and one stacked output matrix ``C`` over the controller's flat
state, so each evaluation costs one ``C @ x`` and one ``A @ x``.  The banks
remain the source of every coefficient.
"""

from __future__ import annotations

import copy
import math
import warnings

import numpy as np

from .numerics import poly_mul, routh_hurwitz

__all__ = [
    "FilterBank",
    "LinearBlock",
    "RationalFilter",
    "make_filter",
    "build_operator",
    "cascade_poly",
    "OPERATOR_KINDS",
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
        if np.any(lead == 0.0):
            raise ValueError("zero leading denominator coefficient")
        dens = dens / lead[:, None]
        self.a = dens[:, :-1].copy()  # monic tail, increasing powers

        n_out = len(nums)
        self.C = np.zeros((n_out, self.rows, self.order))
        self.D = np.zeros((n_out, self.rows))
        for k, num in enumerate(nums):
            num = np.atleast_2d(np.asarray(num, dtype=float))
            if num.shape[0] == 1 and self.rows > 1:
                num = np.repeat(num, self.rows, axis=0)
            if num.shape[1] > self.order + 1:
                raise ValueError("improper transfer function (num degree > den degree)")
            num = num / lead[:, None]
            full = np.zeros((self.rows, self.order + 1))
            full[:, : num.shape[1]] = num
            self.D[k] = full[:, -1]
            self.C[k] = full[:, :-1] - self.D[k][:, None] * self.a

        # output-derivative maps: ydot = CA x + CB u (+ D udot), etc.
        self.CA = np.zeros_like(self.C)
        self.CA[:, :, 1:] = self.C[:, :, :-1]
        self.CA -= self.C[:, :, -1:] * self.a[None, :, :]
        self.CB = self.C[:, :, -1].copy()
        self.CA2 = np.zeros_like(self.C)
        self.CA2[:, :, 1:] = self.CA[:, :, :-1]
        self.CA2 -= self.CA[:, :, -1:] * self.a[None, :, :]
        self.CAB = self.CA[:, :, -1].copy()
        self._has_D = [bool(np.any(self.D[k] != 0.0)) for k in range(n_out)]

    # -- state management ----------------------------------------------------

    @property
    def state_size(self) -> int:
        return self.rows * self.cols * self.order

    def state_shape(self):
        if self.cols == 1:
            return (self.rows, self.order)
        return (self.rows, self.cols, self.order)

    def initial_state(self) -> np.ndarray:
        return np.zeros(self.state_shape())

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
    """The filter banks of one controller compiled into one state-space block.

    Parameters
    ----------
    layout : Layout
        The controller's state layout (``size`` and ``view(x, name)``).
    banks : mapping of block name -> FilterBank
        The bank realizing each named state block; one bank may realize
        several blocks.
    taps : sequence of (block name, map, k)
        The outputs the control law reads, ``map`` being ``"C"``, ``"CA"``
        or ``"CA2"``: output ``k`` of the block's bank or its first or second
        time derivative, without the current-input terms.  ``k`` may also be
        a slice, which taps those outputs together.

    ``A`` is the block-diagonal companion matrix over the whole controller
    state, zero outside the filter blocks' rows; ``C`` stacks one row per
    tapped output entry; ``last`` indexes every chain's last state, in bank
    order and, within a bank, in the (rows, cols) order of its input.  The
    current-input terms (``D u``, ``CB u``, ``CAB u``) stay with the caller,
    because the inputs are computed from the outputs.
    """

    def __init__(self, layout, banks, taps):
        self.banks = dict(banks)
        self.taps = tuple(taps)
        index = np.arange(layout.size)
        chains = {name: layout.view(index, name) for name in self.banks}
        self.A = np.zeros((layout.size, layout.size))
        for name, bank in self.banks.items():
            idx = chains[name]
            if idx.shape != bank.state_shape():
                raise ValueError(f"block '{name}' does not match its bank's state shape")
            self.A[idx[..., :-1], idx[..., 1:]] = 1.0
            self.A[idx[..., -1:], idx] = -bank.a.reshape(_per_row(bank, idx))
        self.last = np.concatenate([idx[..., -1].ravel() for idx in chains.values()])

        maps = [getattr(self.banks[name], kind)[k] for name, kind, k in self.taps]
        shapes = [M.shape[:-2] + chains[name].shape[:-1] for M, (name, _, _) in zip(maps, self.taps)]
        sizes = [math.prod(shape) for shape in shapes]
        self.C = np.zeros((sum(sizes), layout.size))
        self._slices = []
        off = 0
        for (name, _, _), M, shape, size in zip(self.taps, maps, shapes, sizes):
            idx = chains[name]
            rows = np.arange(off, off + size).reshape(shape)
            self.C[rows[..., None], idx] = M.reshape(M.shape[:-2] + _per_row(self.banks[name], idx))
            self._slices.append((slice(off, off + size), shape))
            off += size

    def outputs(self, x):
        """State part of every tap, in tap order, each shaped ([outputs,] rows[, cols])."""
        y = self.C @ x
        return [y[s].reshape(shape) for s, shape in self._slices]

    def deriv(self, x, inputs):
        """``A x`` plus each bank's input on its chains' last states.

        ``inputs`` holds one flattened input per bank, in bank order.
        """
        xd = self.A @ x
        xd[self.last] += np.concatenate(inputs)
        return xd


def _per_row(bank, idx):
    # shape that broadcasts a bank's per-row coefficients over its chains
    return (bank.rows,) + (1,) * (idx.ndim - 2) + (bank.order,)


class RationalFilter:
    """Single-channel proper rational operator with owned state.

    Thin convenience wrapper over a one-row :class:`FilterBank`; the state is
    owned by whoever integrates it, exposed as the mutable ``state`` array.
    """

    def __init__(self, num, den, stable_required=False, name=""):
        num = np.asarray(num, dtype=float)
        den = np.asarray(den, dtype=float)
        if num.size > den.size:
            raise ValueError("improper transfer function rejected")
        verdict = routh_hurwitz(den) if den.size > 1 else "stable"
        if verdict != "stable":
            if stable_required:
                raise ValueError(f"operator {name or 'filter'} has a non-stable denominator ({verdict})")
            warnings.warn(
                f"filter denominator is {verdict}; outputs may not settle",
                stacklevel=3,
            )
        self.num = num
        self.den = den
        self._bank = FilterBank(den[None, :], [num[None, :]])
        self.state = np.zeros(self._bank.order)
        self.order = self._bank.order

    @property
    def feedthrough(self) -> float:
        return float(self._bank.D[0, 0])

    @property
    def strictly_proper(self) -> bool:
        return self.feedthrough == 0.0

    def derivative(self, u, state=None) -> np.ndarray:
        x = self.state if state is None else state
        return self._bank.deriv(x[None, :], np.array([u]))[0]

    def output(self, u=None, state=None) -> float:
        x = self.state if state is None else state
        uu = None if u is None else np.array([u])
        return float(self._bank.output(x[None, :], uu)[0])

    def response_at(self, omega) -> complex:
        return self._bank.response_at(omega)


def make_filter(num, den) -> RationalFilter:
    """Generic constructor: proper rationals only, zero initial state.

    Unstable denominators are allowed with a warning (handy for test
    constructions); the named operator builders below insist on stability.
    """
    return RationalFilter(num, den)


# -- named operators of the torque laws --------------------------------------
#
# Channelwise builders; `alphas` are the cascade coefficients a_0..a_l,
# (a0s, a1s) the second-order target-error pair, `hden` the tone-layer
# denominator coefficients (increasing powers, without the leading 1).


def _check_stable(den, name):
    if routh_hurwitz(den) != "stable":
        raise ValueError(f"{name}: denominator is not Hurwitz-stable")


def regressor_loop_channel(alphas, a0s, a1s, lam_r, k_r):
    """Filter from the regressor to the adaptation regressor, one joint.

    num = lam_r p^(l-1) (p^2 + a1s p + a0s), den = P(p) (p + k_r); strictly
    proper with relative degree one for every cascade order.
    """
    ell = len(alphas) - 1
    num = lam_r * poly_mul([a0s, a1s, 1.0], _monomial(ell - 1))
    den = poly_mul(cascade_poly(alphas), [k_r, 1.0])
    return num, den


def cascade_error_channel(alphas, a0s, a1s):
    """Map from the cascade input to the second-order target error."""
    num = np.array([a0s, a1s, 1.0])
    den = cascade_poly(alphas)
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


def tone_layer_channel(hden, k0s, k1s):
    """Second-order-numerator filter wrapping the tone-adaptation layer.

    ``hden`` holds the 2 n_star denominator coefficients (leading 1 implied).
    """
    num = np.array([k0s, k1s, 1.0])
    den = cascade_poly(hden)
    if den.size % 2 == 0:
        raise ValueError("tone-layer denominator degree must be even (2 n_star)")
    return num, den


def inner_error_channel(hden):
    """p^2 over the tone-layer denominator."""
    return _monomial(2), cascade_poly(hden)


def cascade_tap_channel(alphas):
    """p^(l-1) over the cascade polynomial."""
    ell = len(alphas) - 1
    return _monomial(ell - 1), cascade_poly(alphas)


def cascade_tap0_channel(alphas):
    """1 over the cascade polynomial."""
    return _monomial(0), cascade_poly(alphas)


OPERATOR_KINDS = {
    "regressor_loop": regressor_loop_channel,
    "cascade_error": cascade_error_channel,
    "freq_regressor": freq_regressor_channel,
    "tone_path": tone_path_channel,
    "direct_path": direct_path_channel,
    "tone_layer": tone_layer_channel,
    "inner_error": inner_error_channel,
    "cascade_tap": cascade_tap_channel,
    "cascade_tap0": cascade_tap0_channel,
}


def build_operator(kind: str, **params) -> RationalFilter:
    """Construct a named operator as a stability-checked scalar filter."""
    try:
        builder = OPERATOR_KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown operator kind '{kind}'") from None
    num, den = builder(**params)
    return RationalFilter(num, den, stable_required=True, name=kind)
