"""Stacked reference structures that adapt to unknown disturbance tones.

A sinusoid of frequency w satisfies u'' + w^2 u = 0, so its square frequency
(and, for several tones, the elementary symmetric functions of the squared
frequencies) can be estimated online and used to build an internal layer that
absorbs the periodic disturbance.  Two structures are implemented:

``stacked_single``
    One layer chi with chi'' = zdot + th_f (q - chi) sits between the cascade
    and the torque; th_f estimates the square of the single dominant
    frequency.  The torque acts on s_aux = qdot - (chi' - alpha_star psi)
    with psi = q - chi, and both the frequency estimate and the dynamics
    estimate descend errors projected through filtered regressors.

``stacked_multi``
    The tone layer is separated from the dynamics layer: chi_1 carries the
    second-order target error, chi_2 carries a 2 n_star-order tone layer
    whose defining ODE contains inverse-filter compositions.  chi_2 is
    realized exactly as chi_1 minus a marginal filter of psi_1 = q - chi_1
    plus a chain driven by the tone regressors, so no measured signal is ever
    differentiated; the only inverse-filter composition that appears in the
    dynamics regressor path collapses to the proper biproper factor
    p^2 / (p^2 + k1s p + k0s).

Both require cascade order >= 2 (the stacked operators tap the cascade at
order ell-2).
"""

from __future__ import annotations

import numpy as np

from ..filters import (
    FilterBank,
    LinearBlock,
    cascade_poly,
    direct_path_channel,
    freq_regressor_channel,
    tone_path_channel,
)
from ..numerics import poly_mul, routh_hurwitz
from ..refdyn import HurwitzCoeffs, cascade_rates
from .augmented import ProxyController
from .base import ConfigError, ControlEval, GainSet

__all__ = ["StackedSingleController", "StackedMultiController", "hstar_denominator"]


def _initial_tones(freq_hat0, n_star):
    """Initial tone-parameter estimates: one value for every tone (zero by
    default) or one per tone."""
    fh = np.array(0.0 if freq_hat0 is None else freq_hat0, dtype=float, ndmin=1)
    if fh.size == 1:
        fh = np.repeat(fh, n_star)
    if fh.shape != (n_star,):
        raise ConfigError(f"freq_hat0 must have one entry or one per tone ({n_star})")
    return fh


def hstar_denominator(gains: GainSet, n_star: int) -> np.ndarray:
    """Tone-layer denominator tail (2 n_star coefficients, leading 1 implied).

    Defaults to the binomial expansion of (p + hstar_rate)^(2 n_star);
    an explicit ``hstar_den`` in the gain set overrides it.
    """
    if gains.hstar_den is not None:
        den = np.asarray(gains.hstar_den, dtype=float)
        if den.size != 2 * n_star:
            raise ConfigError("tone-layer denominator needs 2 n_star coefficients")
        full = np.append(den, 1.0)
        if routh_hurwitz(full) != "stable":
            raise ConfigError("tone-layer denominator is not Hurwitz-stable")
        return full[:-1]
    # every root is -hstar_rate, so the default is Hurwitz once the rate is positive
    if gains.hstar_rate <= 0.0:
        raise ConfigError("hstar_rate must be positive")
    return poly_mul(*([[gains.hstar_rate, 1.0]] * (2 * n_star)))[:-1]


class StackedSingleController(ProxyController):
    variant = "stacked_single"
    availability = "full"

    def __init__(self, shape, gains: GainSet, traj, coeffs: HurwitzCoeffs,
                 theta_hat0=None, freq_hat0=None, freeze_freq=False):
        if coeffs.ell < 2:
            raise ConfigError("stacked structures need cascade order >= 2")
        gains.validate_positive(("lambda_D", "lam", "alpha_star", "lambda_D_star"))
        super().__init__(shape, gains, traj, coeffs, theta_hat0)
        self.gamma_f = gains.freq_gains(1)[0]
        self.alpha_star = gains.alpha_star
        self.a0s, self.a1s = gains.star_pair()
        self.freq_hat0 = _initial_tones(freq_hat0, 1)
        self.freeze_freq = bool(freeze_freq)

        alphas = coeffs.alphas
        # layer-error regressor filter (biproper) and the dual regressor paths
        psi_nums, psi_dens = [], []
        y_nums2, y_nums3, y_dens = [], [], []
        for lam_r, k_r in zip(self.Lam, self.K):
            num, den = freq_regressor_channel(alphas, self.a0s, self.a1s, lam_r)
            psi_nums.append(num)
            psi_dens.append(den)
            num2, den2 = tone_path_channel(alphas, self.a0s, self.a1s, self.alpha_star, lam_r, k_r)
            num3, _ = direct_path_channel(alphas, self.a0s, self.a1s, self.alpha_star, lam_r, k_r)
            y_nums2.append(num2)
            y_nums3.append(num3)
            y_dens.append(den2)
        self.b_psi = FilterBank(np.vstack(psi_dens), [np.vstack(psi_nums)], cols=1)
        self.b_y = FilterBank(np.vstack(y_dens), [np.vstack(y_nums2), np.vstack(y_nums3)],
                              cols=self.p_dim)
        self.b_v = self.b_y.with_cols(1)

        n, p = self.n, self.p_dim
        self.layout.add("phi", coeffs.ell, n)
        self.layout.add("qd_aux", 2, n)
        self.layout.add("chi", 2, n)
        self.layout.add("xi", p)
        self.layout.add("theta_hat", p)
        self.layout.add("freq_hat")
        self.layout.add("b_psi", *self.b_psi.state_shape())
        self.layout.add("b_psith", *self.b_psi.state_shape())
        self.layout.add("b_y", *self.b_y.state_shape())
        self.layout.add("b_v", *self.b_v.state_shape())
        self.block = LinearBlock(
            self.layout, n,
            early=(("h", n), ("damping", n), ("psith", n)),
            late=(("Y", (n, p)), ("Y_th", n), ("Yt_s", p), ("Wt_e", p), ("W1_e", 1),
                  ("Y_xi", n)),
        )
        self._compile(self.block)

    def _compile(self, block):
        sig = block.signal
        phi, aux, chi, xi = sig("phi"), sig("qd_aux"), sig("chi"), sig("xi")
        q, qdot = sig("q"), sig("qdot")
        psi = q - chi[0]
        psidot = qdot - chi[1]
        e, qdd_aux = self._proxy(sig, self.alpha_star, self.a0s, self.a1s)
        # the cascade takes the signals' column axis as a leading axis
        phi_dot, zdot = cascade_rates(
            self.refcfg, phi.swapaxes(1, 2), q.T, qdot.T, aux[0].T, aux[1].T, qdd_aux.T
        )
        chidd = zdot.T + sig("psith")
        chidot_aux = chi[1] - self.alpha_star * psi
        s_aux = qdot - chidot_aux
        chidd_aux = chidd - self.alpha_star * psidot
        D = self.b_psi.D[0][:, None]
        every = slice(None)
        block.compile(
            outputs=(
                block.tap("b_psi", self.b_psi) + D * psi,   # biproper
                block.tap("b_psith", self.b_psi),           # D psith is added per evaluation
                block.tap("b_y", self.b_y, "C", every), block.tap("b_v", self.b_v, "C", every),
                e, sig("theta_hat"), sig("freq_hat"), xi, psi, psidot, chidot_aux, s_aux, phi[0],
            ),
            early=({"phi": phi_dot.swapaxes(1, 2), "qd_aux": np.array((aux[1], qdd_aux)),
                    "chi": np.array((chi[1], chidd))},
                   (zdot.T, chidd_aux)),
            late=({"xi": -self.lam * xi + self.lam * sig("Yt_s"),
                   "theta_hat": -self.gamma[:, None] * sig("Wt_e"),
                   "freq_hat": (0.0 if self.freeze_freq else -self.gamma_f) * sig("W1_e"),
                   "b_psi": (self.b_psi, psi),
                   "b_psith": (self.b_psi, sig("psith")),
                   "b_y": (self.b_y, sig("Y")),
                   "b_v": (self.b_v, sig("Y_th"))},
                  (-self.K[:, None] * s_aux + sig("Y_th") - self.lambda_D * sig("Y_xi"),)),
        )

    def initial_state(self, q0, qdot0, t0=0.0):
        x = super().initial_state(q0, qdot0, t0)
        self.layout.view(x, "chi")[:] = (q0, qdot0)
        self.layout.view(x, "freq_hat")[:] = self.freq_hat0
        return x

    def evaluate(self, t, q, qdot, x):
        qd = self.traj.derivs(t, 2)
        v = np.concatenate((x, q, qdot, qd.ravel()))
        W1, g1_psith, (WG2, WG3), (vG2, vG3), e, th, thf, xi, psi, psidot, chidot_aux, s_aux, z = (
            self.block.outputs(v)
        )
        psith = psi * thf
        g1_psith = g1_psith + self.b_psi.D[0] * psith

        Wst = thf * WG2 + WG3                          # (n, p)
        h = W1 * thf - g1_psith + thf * (WG2 @ th - vG2) + WG3 @ th - vG3
        Wt_e = Wst.T @ e
        v = np.concatenate((v, h, Wst @ Wt_e, psith))
        rates, (zdot, chidd_aux) = self.block.early(v)

        Y = self.shape.regressor(q, qdot, chidot_aux, chidd_aux)
        v = np.concatenate((v, Y.ravel(), Y @ th, Y.T @ s_aux, Wt_e, W1 @ e[:, None], Y @ xi))
        xdot, (tau,) = self.block.late(v, rates)

        extras = {
            "ref_vel": chidot_aux, "ref_acc": chidd_aux, "s": s_aux, "qd": qd[0],
            "z": z, "zdot": zdot,
            "theta_hat": th, "xi": xi,
            "freq_hat": thf,
            "psi": psi, "psidot": psidot, "h": h, "W1": W1,
        }
        return ControlEval(tau, xdot, extras)


class StackedMultiController(ProxyController):
    variant = "stacked_multi"
    availability = "full"

    def __init__(self, shape, gains: GainSet, traj, coeffs: HurwitzCoeffs,
                 n_star: int, theta_hat0=None, freq_hat0=None, freeze_freq=False):
        n_star = int(n_star)
        if n_star < 1:
            raise ConfigError("stacked_multi needs at least one tone (n_star >= 1)")
        if coeffs.ell < 2:
            raise ConfigError("stacked structures need cascade order >= 2")
        gains.validate_positive(
            ("lambda_D", "lam", "alpha_star_star", "kappa_star", "lambda_D_star")
        )
        super().__init__(shape, gains, traj, coeffs, theta_hat0)
        self.n_star = n_star
        self.gamma_f = gains.freq_gains(n_star)
        self.ass = gains.alpha_star_star
        self.a0ss, self.a1ss = gains.star_star_pair()
        self.k0s, self.k1s = gains.kappa_pair()
        self.kappa_s = gains.kappa_star
        self.freq_hat0 = _initial_tones(freq_hat0, n_star)
        self.freeze_freq = bool(freeze_freq)

        hden_tail = hstar_denominator(gains, n_star)  # length 2 n_star
        hden = np.append(hden_tail, 1.0)
        kpoly = np.array([self.k0s, self.k1s, 1.0])
        m = 2 * n_star

        def tile(row):
            return np.repeat(np.asarray(row, float)[None, :], self.n, axis=0)

        # marginal chain absorbing the chi_1 / psi_1 terms of the tone layer:
        # (hden - p^m) / p^m  driven by psi_1
        e_den = np.append(np.zeros(m), 1.0)
        self.f_e = FilterBank(tile(e_den), [hden_tail], cols=1)

        # chain carrying the tone-regressor drive: hden / (p^m kpoly)
        u_den = poly_mul(e_den, kpoly)
        self.f_u = FilterBank(tile(u_den), [hden], cols=1)

        # tone regressors W_i = [p^(2i-2) kpoly / hden] psi_2, shared chain
        wi_nums = [poly_mul(np.append(np.zeros(2 * (i - 1)), 1.0), kpoly) for i in range(1, n_star + 1)]
        self.f_w = FilterBank(tile(hden), wi_nums, cols=1)

        # regressor paths: per-joint chains with n_star + 1 outputs
        den = poly_mul(hden, cascade_poly(coeffs.alphas))
        nums = [poly_mul(np.append(np.zeros(2 * (i - 1) + coeffs.ell - 1), 1.0), kpoly)
                for i in range(1, n_star + 2)]  # p^(2i+ell-3) kpoly; the last is the direct path
        self.b_y = FilterBank(
            np.vstack([np.convolve(den, [k_r, 1.0]) for k_r in self.K]),
            [np.vstack([lam_r * num for lam_r in self.Lam]) for num in nums],
            cols=self.p_dim,
        )
        self.b_v = self.b_y.with_cols(1)

        # collapsed inverse-filter composition: p^2 / kpoly (biproper)
        p2 = np.array([0.0, 0.0, 1.0])
        self.f_outer_w = FilterBank(tile(kpoly), [p2], cols=self.p_dim)
        self.f_outer_h = self.f_outer_w.with_cols(1)

        n, p = self.n, self.p_dim
        self.layout.add("phi", coeffs.ell, n)
        self.layout.add("qd_aux", 2, n)
        self.layout.add("chi1", 2, n)
        self.layout.add("f_e", n, m)
        self.layout.add("f_u", n, m + 2)
        self.layout.add("f_w", n, m)
        self.layout.add("xi", p)
        self.layout.add("theta_hat", p)
        self.layout.add("freq_hat", n_star)
        self.layout.add("b_y", *self.b_y.state_shape())
        self.layout.add("b_v", *self.b_v.state_shape())
        self.layout.add("outer_w", n, p, 2)
        self.layout.add("outer_h", n, 2)
        self.block = LinearBlock(
            self.layout, n,
            early=(("h", n), ("damping", n), ("m_drive", n)),
            late=(("Y", (n, p)), ("Y_th", n), ("mW", (n, p)), ("mh", n), ("Yt_s", p),
                  ("Wt_e", p), ("W_err", n_star), ("Y_xi", n)),
        )
        self._compile(self.block)

    def _compile(self, block):
        sig = block.signal
        phi, aux, chi1, xi = sig("phi"), sig("qd_aux"), sig("chi1"), sig("xi")
        q, qdot = sig("q"), sig("qdot")
        every = slice(None)

        e, qdd_aux = self._proxy(sig, self.ass, self.a0ss, self.a1ss)
        r1 = qdd_aux - self.a1ss * (qdot - aux[1]) - self.a0ss * (q - aux[0])

        psi1 = q - chi1[0]
        psi1dot = qdot - chi1[1]
        f_e, f_u = self.f_e, self.f_u
        CB, CAB = f_e.CB[0][:, None], f_e.CAB[0][:, None]
        ev, evd, evdd = block.tap("f_e", f_e, ("C", "CA", "CA2"))
        evd = evd + CB * psi1
        evdd = evdd + CAB * psi1 + CB * psi1dot

        # f_u has relative degree 2 (CB = 0): chi2u' is a pure state map
        chi2u, chi2ud, chi2udd = block.tap("f_u", f_u, ("C", "CA", "CA2"))
        chi2 = chi1[0] - ev + chi2u
        chi2d = chi1[1] - evd + chi2ud
        chi2dd = r1 - evdd + chi2udd + f_u.CAB[0][:, None] * sig("m_drive")
        psi2 = q - chi2

        # only the last tone regressor is biproper
        W_i = block.tap("f_w", self.f_w, "C", every)
        W_i[-1] += self.f_w.D[-1][:, None] * psi2

        # the cascade takes the signals' column axis as a leading axis
        phi_dot, zdot = cascade_rates(
            self.refcfg, phi.swapaxes(1, 2), q.T, qdot.T, chi2.T, chi2d.T, chi2dd.T
        )
        s = qdot - phi[0]
        block.compile(
            # the path outputs and tone regressors carry their tone index
            # last, so one product with the estimates combines them
            outputs=(
                block.tap("b_y", self.b_y, "C", every).transpose(1, 2, 0, 3),
                block.tap("b_v", self.b_v, "C", every).transpose(1, 0, 2),
                block.tap("outer_w", self.f_outer_w), block.tap("outer_h", self.f_outer_h),
                W_i.transpose(1, 0, 2),
                e, sig("theta_hat"), sig("freq_hat"), xi, phi[0], s,
                psi1dot + self.kappa_s * psi1, psi1, psi2, chi2,
            ),
            early=({"phi": phi_dot.swapaxes(1, 2), "qd_aux": np.array((aux[1], qdd_aux)),
                    "chi1": np.array((chi1[1], r1))},
                   (zdot.T,)),
            late=({"f_e": (f_e, psi1),
                   "f_u": (f_u, sig("m_drive")),
                   "f_w": (self.f_w, psi2),
                   "xi": -self.lam * xi + self.lam * sig("Yt_s"),
                   "theta_hat": -self.gamma[:, None] * sig("Wt_e"),
                   "freq_hat": (0.0 if self.freeze_freq else -self.gamma_f[:, None]) * sig("W_err"),
                   "b_y": (self.b_y, sig("Y")),
                   "b_v": (self.b_v, sig("Y_th")),
                   "outer_w": (self.f_outer_w, sig("mW")),
                   "outer_h": (self.f_outer_h, sig("mh"))},
                  (-self.K[:, None] * s + sig("Y_th") - self.lambda_D * sig("Y_xi"),)),
        )

    def initial_state(self, q0, qdot0, t0=0.0):
        x = super().initial_state(q0, qdot0, t0)
        self.layout.view(x, "chi1")[:] = (q0, qdot0)
        self.layout.view(x, "phi")[0] = qdot0
        self.layout.view(x, "freq_hat")[:] = self.freq_hat0
        return x

    def evaluate(self, t, q, qdot, x):
        qd = self.traj.derivs(t, 2)
        v = np.concatenate((x, q, qdot, qd.ravel()))
        by, bv, Wst, oh, W_i, e, th, thf, xi, z, s, layer_err, psi1, psi2, chi2 = (
            self.block.outputs(v)
        )

        # dynamics-regressor machinery: the path outputs weighted by (thf, 1)
        weights = np.append(thf, 1.0)
        mW = by @ weights
        mh = bv @ weights
        Wst = Wst + self.f_outer_w.D[0][:, None] * mW   # biproper p^2/kpoly
        oh = oh + self.f_outer_h.D[0] * mh
        h = Wst @ th - oh
        Wt_e = Wst.T @ e
        v = np.concatenate((v, h, Wst @ Wt_e, W_i @ thf))
        rates, (zdot,) = self.block.early(v)

        Y = self.shape.regressor(q, qdot, z, zdot)
        v = np.concatenate(
            (v, Y.ravel(), Y @ th, mW.ravel(), mh, Y.T @ s, Wt_e, layer_err @ W_i, Y @ xi)
        )
        xdot, (tau,) = self.block.late(v, rates)

        extras = {
            "ref_vel": z, "ref_acc": zdot, "s": s, "qd": qd[0],
            "theta_hat": th, "xi": xi, "freq_hat": thf,
            "psi1": psi1, "psi2": psi2, "chi2": chi2, "h": h,
        }
        return ControlEval(tau, xdot, extras)
