"""Desired-trajectory and disturbance generators.

Signals are sums of a per-joint polynomial in time and a per-joint bank of
sinusoidal tones, so every derivative of every order is available in closed
form.  That exactness matters twice: the reference-dynamics oracle needs
high-order derivatives, and the tone-annihilator identities are checked
pointwise.

A multi-tone signal with distinct frequencies ``w_1..w_m`` is annihilated by
the even-order differential operator ``prod_i (d^2/dt^2 + w_i^2)``.  Expanding
that product gives coefficients ``theta_1..theta_m`` (elementary symmetric
functions of the squared frequencies) which are exactly the unknowns the
tone-adaptive controllers estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Tone",
    "JointSignal",
    "TrajectorySpec",
    "DisturbanceSpec",
    "vieta_theta",
    "annihilator_residual",
]


@dataclass(frozen=True)
class Tone:
    """One sinusoidal component ``amp * sin(omega t + phase)``."""

    amp: float
    omega: float
    phase: float = 0.0


@dataclass(frozen=True)
class JointSignal:
    """Polynomial-plus-multisine scalar signal with exact derivatives."""

    poly: tuple = ()
    tones: tuple = ()
    offset: float = 0.0


class _SignalVector:
    """Common base for per-joint signal collections."""

    def __init__(self, joints):
        self.joints = tuple(joints)
        # flattened tone tables for vectorized evaluation
        amps, omegas, phases, owner = [], [], [], []
        for j, joint in enumerate(self.joints):
            for tone in joint.tones:
                amps.append(tone.amp)
                omegas.append(tone.omega)
                phases.append(tone.phase)
                owner.append(j)
        self._tone_amp = np.array(amps)
        self._tone_w = np.array(omegas)
        self._tone_ph = np.array(phases)
        # one tone per joint, in joint order: the per-joint sum is the tone
        # itself, so evaluation can skip the scatter
        one_each = owner == list(range(len(self.joints)))
        self._tone_owner = None if one_each else np.array(owner, dtype=int)
        self._range_cache: dict = {}
        self.tabulate(None)

    @property
    def n(self) -> int:
        return len(self.joints)

    def _tables(self, key):
        """Coefficient tables for the orders ``key = (lo, hi)``, one row each.

        ``base`` is the offset plus the polynomial's constant column (its
        ``t**0`` term needs no time), ``cols`` the remaining columns.
        """
        lo, hi = key
        orders = range(lo, hi + 1)
        base = np.array(
            [[j.offset if order == 0 else 0.0 for j in self.joints] for order in orders]
        )
        cols = []
        width = max((len(j.poly) for j in self.joints), default=0) - lo
        if width > 0:
            # cols[c][r, j]: coefficient of t**c in joint j's derivative of order lo + r
            cols = np.zeros((width, len(orders), self.n))
            for r, order in enumerate(orders):
                for j, joint in enumerate(self.joints):
                    for k in range(order, len(joint.poly)):
                        cols[k - order, r, j] = joint.poly[k] * math.perm(k, order)
            base = base + cols[0] * 1.0
            cols = list(cols[1:])
        tone_gain = np.array([self._tone_amp * self._tone_w**order for order in orders])
        tone_shift = np.array([self._tone_ph + order * (math.pi / 2.0) for order in orders])
        tables = self._range_cache[key] = (base, cols, tone_gain, tone_shift)
        return tables

    def _rows(self, t, lo: int, hi: int) -> np.ndarray:
        key = (lo, hi)
        if self._grid_times is not None:
            if key not in self._table:
                grid = self._grid(self._grid_times, lo, hi)
                self._table[key] = dict(zip(self._grid_times.tolist(), grid))
            row = self._table[key].get(t)
            if row is not None:
                return row.copy()
        base, cols, tone_gain, tone_shift = self._range_cache.get(key) or self._tables(key)
        out = base
        tp = t
        for col in cols:
            out = out + col * tp
            tp *= t
        if tone_gain.size:
            vals = tone_gain * np.sin(self._tone_w * t + tone_shift)
            if self._tone_owner is not None:
                vals = np.array(
                    [np.bincount(self._tone_owner, weights=v, minlength=self.n) for v in vals]
                )
            out = out + vals
        return out.copy()

    def _grid(self, times, lo: int, hi: int) -> np.ndarray:
        """``_rows(t, lo, hi)`` at every ``t`` of ``times``: ``(T, hi - lo + 1, n)``.

        The operations of :meth:`_rows` in the same order, so each row equals
        it bitwise; times run along the last axis until the final transpose.
        """
        t = np.asarray(times, dtype=float).reshape(-1)
        key = (lo, hi)
        base, cols, tone_gain, tone_shift = self._range_cache.get(key) or self._tables(key)
        out = np.repeat(base[..., None], t.size, axis=-1)
        tp = t
        for col in cols:
            out += col[..., None] * tp
            tp = tp * t
        if tone_gain.size:
            vals = tone_gain[..., None] * np.sin(self._tone_w[:, None] * t + tone_shift[..., None])
            if self._tone_owner is not None:
                # bincount's order: each joint sums its tones from zero
                summed = np.zeros_like(out)
                np.add.at(summed, (slice(None), self._tone_owner), vals)
                vals = summed
            out += vals
        return np.ascontiguousarray(out.transpose(2, 0, 1))

    def tabulate(self, times):
        """Serve evaluations at ``times`` from tables, each order range's filled
        by one :meth:`_grid` call on its first use; ``None`` drops them."""
        self._grid_times = None if times is None else np.asarray(times, dtype=float)
        self._table = {}

    def eval(self, t, order: int = 0) -> np.ndarray:
        return self._rows(t, order, order)[0]

    def derivs(self, t, upto: int) -> np.ndarray:
        """The signal and its derivatives through ``upto`` at time ``t``.

        Row ``k`` of the ``(upto + 1, n)`` result equals ``eval(t, k)``; one
        call shares the tone phases across orders.
        """
        return self._rows(t, 0, upto)

    def eval_grid(self, t, order: int = 0) -> np.ndarray:
        """``(len(t), n)``: row ``i`` equals ``eval(t[i], order)`` bitwise."""
        return self._grid(t, order, order)[:, 0]


class TrajectorySpec(_SignalVector):
    """Desired position q_d(t), one :class:`JointSignal` per joint.

    Polynomial degree is capped at 6; tone frequencies must be positive.
    """

    MAX_POLY_DEGREE = 6

    def __init__(self, joints):
        super().__init__(joints)
        for j in self.joints:
            if len(j.poly) > self.MAX_POLY_DEGREE + 1:
                raise ValueError("polynomial degree above 6 is not supported")
            for tone in j.tones:
                if tone.omega <= 0.0:
                    raise ValueError("tone frequencies must be positive")

    @classmethod
    def polynomial(cls, coeffs_per_joint, offsets=None):
        offsets = offsets if offsets is not None else [0.0] * len(coeffs_per_joint)
        return cls(
            [JointSignal(poly=tuple(c), offset=off) for c, off in zip(coeffs_per_joint, offsets)]
        )

    @classmethod
    def multisine(cls, tones_per_joint, offsets=None):
        offsets = offsets if offsets is not None else [0.0] * len(tones_per_joint)
        return cls(
            [
                JointSignal(tones=tuple(Tone(*t) for t in tones), offset=off)
                for tones, off in zip(tones_per_joint, offsets)
            ]
        )

    @classmethod
    def constant(cls, values):
        return cls([JointSignal(offset=float(v)) for v in values])


class DisturbanceSpec(_SignalVector):
    """Reference torque input tau_star(t): per-joint bias plus tones.

    Tone frequencies must be positive and, across the whole spec, the set of
    distinct frequencies defines ``n_star``.
    """

    def __init__(self, joints):
        super().__init__(joints)
        for j in self.joints:
            for tone in j.tones:
                if tone.omega <= 0.0:
                    raise ValueError("tone frequencies must be positive")

    @classmethod
    def zero(cls, n):
        return cls([JointSignal() for _ in range(n)])

    @classmethod
    def tones(cls, tones_per_joint, bias=None):
        bias = bias if bias is not None else [0.0] * len(tones_per_joint)
        return cls(
            [
                JointSignal(tones=tuple(Tone(*t) for t in tones), offset=float(b))
                for tones, b in zip(tones_per_joint, bias)
            ]
        )

    def frequencies(self) -> np.ndarray:
        """Sorted distinct tone frequencies across all joints."""
        freqs = sorted({tone.omega for j in self.joints for tone in j.tones})
        return np.array(freqs)

    @property
    def n_star(self) -> int:
        return self.frequencies().size


def vieta_theta(frequencies) -> np.ndarray:
    """Expansion coefficients of ``prod_i (x + w_i^2)``, leading 1 excluded.

    Returns ``theta`` ordered so that ``theta[0]`` (theta_1) is the constant
    term, i.e. the product of all squared frequencies, and ``theta[-1]``
    (theta_m) is the sum of the squared frequencies.  All entries are
    positive for real distinct positive frequencies.
    """
    freqs = np.asarray(frequencies, dtype=float)
    if freqs.size < 1:
        raise ValueError("at least one frequency is required")
    poly = np.array([1.0])
    for w in freqs:
        poly = np.convolve(poly, np.array([w * w, 1.0]))
    return poly[:-1]


def annihilator_residual(spec: DisturbanceSpec, thetas, t) -> np.ndarray:
    """Evaluate ``theta_1 u + theta_2 u'' + ... + theta_m u^(2m-2) + u^(2m)``.

    ``u`` is the disturbance signal; the residual is zero for every t exactly
    when ``thetas`` are the expansion coefficients of the signal's tone
    frequencies.  The signal must be bias-free and contain at most
    ``len(thetas)`` distinct tones.
    """
    thetas = np.asarray(thetas, dtype=float)
    m = thetas.size
    if any(j.offset != 0.0 for j in spec.joints):
        raise ValueError("annihilator residual is defined for bias-free signals")
    if spec.n_star > m:
        raise ValueError("signal has more distinct tones than parameters")
    out = spec.eval(t, 2 * m)
    for i in range(m):
        out = out + thetas[i] * spec.eval(t, 2 * i)
    return out
