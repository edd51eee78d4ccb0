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
    cascade_poly,
    freq_regressor_channel,
    target_path_channels,
)
from ..numerics import poly_mul, routh_hurwitz
from ..refdyn import HurwitzCoeffs, cascade_rates
from .augmented import ProxyController
from .base import ConfigError, per_channel, positive, second_order_pair

__all__ = ["StackedSingleController", "StackedMultiController", "hstar_denominator"]


def hstar_denominator(gains, n_star: int) -> np.ndarray:
    """Tone-layer denominator tail (2 n_star coefficients, leading 1 implied).

    Defaults to the binomial expansion of (p + hstar_rate)^(2 n_star); an
    explicit ``hstar_den`` in the ``[gains]`` mapping (empty when unset)
    overrides it.
    """
    if len(gains["hstar_den"]):
        full = np.append(np.asarray(gains["hstar_den"], dtype=float), 1.0)
        if full.size != 2 * n_star + 1:
            raise ConfigError("gains.hstar_den needs 2 n_star coefficients")
        if routh_hurwitz(full) != "stable":
            raise ConfigError("gains.hstar_den is not Hurwitz-stable")
        return full[:-1]
    # every root is -hstar_rate, so the default is Hurwitz once the rate is positive
    tail = poly_mul(*([[positive(gains, "hstar_rate"), 1.0]] * (2 * n_star)))[:-1]
    if not np.isfinite(tail).all():
        raise ConfigError(f"gains.hstar_rate: (p + hstar_rate)^{2 * n_star} overflows")
    return tail


class StackedSingleController(ProxyController):
    variant = "stacked_single"

    def __init__(self, shape, gains, traj, coeffs: HurwitzCoeffs,
                 theta_hat0=None, freq_hat0=0.0, freeze_freq=False):
        if coeffs.ell < 2:
            raise ConfigError("stacked structures need cascade order >= 2")
        super().__init__(shape, gains, traj, coeffs, theta_hat0)
        self.gamma_f = positive(gains, "gamma_freq", 1)[0]
        self.alpha_star, self.a0s, self.a1s = second_order_pair(gains, "alpha_star")
        self.freq_hat0 = per_channel(freq_hat0, 1, "controller.freq_hat0")
        self.freeze_freq = bool(freeze_freq)

        alphas = coeffs.alphas
        # layer-error regressor filter (biproper) and the dual regressor paths
        psi, paths = [], []
        for lam_r, k_r in zip(self.Lam, self.K):
            num, den = freq_regressor_channel(alphas, self.a0s, self.a1s, lam_r)
            psi.append((den, [num]))
            paths.append(
                target_path_channels(alphas, self.a0s, self.a1s, self.alpha_star, lam_r, k_r)
            )
        self.b_psi = FilterBank(psi)
        self.b_y = FilterBank(paths, cols=self.p_dim)
        self.b_v = self.b_y.with_cols(1)

        n = self.n
        self._lay_out((("chi", 2, n),),
                      (("freq_hat",), ("b_psi", *self.b_psi.state_shape()),
                       ("b_psith", *self.b_psi.state_shape()),
                       ("b_y", *self.b_y.state_shape()), ("b_v", *self.b_v.state_shape())),
                      early=(("psith", n),), late=(("W1_e", 1),))
        self._compile(self.block)
        self._psi_D = self.b_psi.D[0]  # the psi filter's direct feedthrough

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
        b_psi, b_y, b_v = self.b_psi, self.b_y, self.b_v
        x_psi, x_psith, x_y, x_v = (block.chains(name, bank) for name, bank in (
            ("b_psi", b_psi), ("b_psith", b_psi), ("b_y", b_y), ("b_v", b_v)))
        self._compile_block(
            phi_dot, qdd_aux, s_aux,
            outputs=(
                b_psi.output(x_psi, psi),                   # biproper
                b_psi.state_output(x_psith),                # D psith is added per evaluation
                np.array([b_y.output(x_y, k=k) for k in (0, 1)]),
                np.array([b_v.output(x_v, k=k) for k in (0, 1)]),
                e, sig("theta_hat"), sig("freq_hat"), xi, psi, psidot, chidot_aux, s_aux, phi[0],
            ),
            early=(zdot.T, chidd_aux),
            rates={"chi": np.array((chi[1], chidd)),
                   "freq_hat": (0.0 if self.freeze_freq else -self.gamma_f) * sig("W1_e"),
                   "b_psi": psi, "b_psith": sig("psith"),  # the chains' drives
                   "b_y": sig("Y"), "b_v": sig("Y_th")},
        )

    def initial_state(self, q0, qdot0, t0=0.0):
        x = super().initial_state(q0, qdot0, t0)
        self.layout.view(x, "chi")[:] = (q0, qdot0)
        self.layout.view(x, "freq_hat")[:] = self.freq_hat0
        return x

    def evaluate(self, t, q, qdot, x, extras=None):
        u = self._load(t, q, qdot, x)
        W1, g1_psith, (WG2, WG3), (vG2, vG3), e, th, thf, xi, psi, psidot, chidot_aux, s_aux, z = (
            self.block.outputs()
        )
        psith, h = u["psith"], u["h"]
        np.multiply(psi, thf, out=psith)
        g1_psith += self._psi_D * psith

        Wst = thf * WG2 + WG3                          # (n, p)
        np.subtract(W1 * thf - g1_psith + thf * (WG2.dot(th) - vG2) + WG3.dot(th), vG3, out=h)
        W1.dot(e[:, None], u["W1_e"])
        zdot, chidd_aux = self._early(Wst, e)
        tau, parts = self._late(q, qdot, chidot_aux, chidd_aux, th, s_aux, xi)

        if extras is not None:
            extras.update(ref_vel=chidot_aux, ref_acc=chidd_aux, s=s_aux, z=z, zdot=zdot,
                          theta_hat=th, xi=xi, freq_hat=thf, psi=psi, psidot=psidot, h=h, W1=W1)
        return tau, parts


class StackedMultiController(ProxyController):
    variant = "stacked_multi"

    def __init__(self, shape, gains, traj, coeffs: HurwitzCoeffs,
                 n_star=1, theta_hat0=None, freq_hat0=0.0, freeze_freq=False):
        n_star = int(n_star)
        if n_star < 1:
            raise ConfigError("stacked_multi needs at least one tone (n_star >= 1)")
        if coeffs.ell < 2:
            raise ConfigError("stacked structures need cascade order >= 2")
        super().__init__(shape, gains, traj, coeffs, theta_hat0)
        self.n_star = n_star
        self.gamma_f = positive(gains, "gamma_freq", n_star)
        self.ass, self.a0ss, self.a1ss = second_order_pair(gains, "alpha_star_star")
        self.kappa_s, self.k0s, self.k1s = second_order_pair(gains, "kappa_star")
        self.freq_hat0 = per_channel(freq_hat0, n_star, "controller.freq_hat0")
        self.freeze_freq = bool(freeze_freq)

        hden_tail = hstar_denominator(gains, n_star)  # length 2 n_star
        hden = np.append(hden_tail, 1.0)
        kpoly = np.array([self.k0s, self.k1s, 1.0])
        m = 2 * n_star
        joints = range(self.n)

        # marginal chain absorbing the chi_1 / psi_1 terms of the tone layer:
        # (hden - p^m) / p^m  driven by psi_1
        e_den = np.append(np.zeros(m), 1.0)
        self.f_e = FilterBank([(e_den, [hden_tail]) for _ in joints])

        # chain carrying the tone-regressor drive: hden / (p^m kpoly)
        u_den = poly_mul(e_den, kpoly)
        self.f_u = FilterBank([(u_den, [hden]) for _ in joints])

        # tone regressors W_i = [p^(2i-2) kpoly / hden] psi_2, shared chain
        wi_nums = [poly_mul(np.append(np.zeros(2 * (i - 1)), 1.0), kpoly) for i in range(1, n_star + 1)]
        self.f_w = FilterBank([(hden, wi_nums) for _ in joints])

        # regressor paths: per-joint chains with n_star + 1 outputs
        den = poly_mul(hden, cascade_poly(coeffs.alphas))
        nums = [poly_mul(np.append(np.zeros(2 * (i - 1) + coeffs.ell - 1), 1.0), kpoly)
                for i in range(1, n_star + 2)]  # p^(2i+ell-3) kpoly; the last is the direct path
        self.b_y = FilterBank([(np.convolve(den, [k_r, 1.0]), [lam_r * num for num in nums])
                               for k_r, lam_r in zip(self.K, self.Lam)], cols=self.p_dim)
        self.b_v = self.b_y.with_cols(1)

        # collapsed inverse-filter composition: p^2 / kpoly (biproper)
        p2 = np.array([0.0, 0.0, 1.0])
        self.f_outer_w = FilterBank([(kpoly, [p2]) for _ in joints], cols=self.p_dim)
        self.f_outer_h = self.f_outer_w.with_cols(1)

        n, p = self.n, self.p_dim
        self._lay_out((("chi1", 2, n), ("f_e", n, m), ("f_u", n, m + 2), ("f_w", n, m)),
                      (("freq_hat", n_star), ("b_y", *self.b_y.state_shape()),
                       ("b_v", *self.b_v.state_shape()), ("outer_w", n, p, 2), ("outer_h", n, 2)),
                      early=(("m_drive", n),), late=(("mW", (n, p)), ("mh", n), ("W_err", n_star)))
        self._compile(self.block)
        self._weights = np.ones(n_star + 1)  # (thf, 1), refilled per evaluation
        # the biproper p^2 / kpoly filters' direct feedthrough; the regressor
        # side's is stored at (n, p), the shape of the product it scales
        self._outer_w_D = np.repeat(self.f_outer_w.D[0][:, None], self.p_dim, axis=1)
        self._outer_h_D = self.f_outer_h.D[0]

    def _compile(self, block):
        sig = block.signal
        phi, aux, chi1, xi = sig("phi"), sig("qd_aux"), sig("chi1"), sig("xi")
        q, qdot = sig("q"), sig("qdot")

        e, qdd_aux = self._proxy(sig, self.ass, self.a0ss, self.a1ss)
        r1 = qdd_aux - self.a1ss * (qdot - aux[1]) - self.a0ss * (q - aux[0])

        psi1 = q - chi1[0]
        psi1dot = qdot - chi1[1]
        f_e, f_u, f_w = self.f_e, self.f_u, self.f_w
        x_e, x_u, x_w, x_y, x_v, x_ow, x_oh = (block.chains(name, bank) for name, bank in (
            ("f_e", f_e), ("f_u", f_u), ("f_w", f_w), ("b_y", self.b_y), ("b_v", self.b_v),
            ("outer_w", self.f_outer_w), ("outer_h", self.f_outer_h)))
        # f_u has relative degree 2 (C[:, :, -1] = 0), so it never reads its drive's rate
        m_drive = sig("m_drive")
        chi2 = chi1[0] - f_e.output(x_e) + f_u.output(x_u)
        chi2d = chi1[1] - f_e.output_dot(x_e, psi1) + f_u.output_dot(x_u, m_drive)
        chi2dd = r1 - f_e.output_ddot(x_e, psi1, psi1dot) + f_u.output_ddot(x_u, m_drive)
        psi2 = q - chi2
        # only the last tone regressor is biproper
        W_i = np.array([f_w.output(x_w, psi2, k) for k in range(self.n_star)])

        # the cascade takes the signals' column axis as a leading axis
        phi_dot, zdot = cascade_rates(
            self.refcfg, phi.swapaxes(1, 2), q.T, qdot.T, chi2.T, chi2d.T, chi2dd.T
        )
        s = qdot - phi[0]
        paths = range(self.n_star + 1)
        self._compile_block(
            phi_dot, qdd_aux, s,
            # the path outputs and tone regressors carry their tone index
            # last, so one product with the estimates combines them
            outputs=(
                np.array([self.b_y.output(x_y, k=k) for k in paths]).transpose(1, 2, 0, 3),
                np.array([self.b_v.output(x_v, k=k) for k in paths]).transpose(1, 0, 2),
                # D mW and D mh are added per evaluation
                self.f_outer_w.state_output(x_ow), self.f_outer_h.state_output(x_oh),
                W_i.transpose(1, 0, 2),
                e, sig("theta_hat"), sig("freq_hat"), xi, phi[0], s,
                psi1dot + self.kappa_s * psi1, psi1, psi2, chi2,
            ),
            early=(zdot.T,),
            rates={"chi1": np.array((chi1[1], r1)),
                   "freq_hat": (0.0 if self.freeze_freq else -self.gamma_f[:, None]) * sig("W_err"),
                   # the chains' drives
                   "f_e": psi1, "f_u": m_drive, "f_w": psi2, "b_y": sig("Y"), "b_v": sig("Y_th"),
                   "outer_w": sig("mW"), "outer_h": sig("mh")},
        )

    def initial_state(self, q0, qdot0, t0=0.0):
        x = super().initial_state(q0, qdot0, t0)
        self.layout.view(x, "chi1")[:] = (q0, qdot0)
        self.layout.view(x, "phi")[0] = qdot0
        self.layout.view(x, "freq_hat")[:] = self.freq_hat0
        return x

    def evaluate(self, t, q, qdot, x, extras=None):
        u = self._load(t, q, qdot, x)
        by, bv, Wst, oh, W_i, e, th, thf, xi, z, s, layer_err, psi1, psi2, chi2 = (
            self.block.outputs()
        )

        # dynamics-regressor machinery: the path outputs weighted by (thf, 1)
        weights, mW, mh, h = self._weights, u["mW"], u["mh"], u["h"]
        weights[:-1] = thf
        by.dot(weights, mW)
        bv.dot(weights, mh)
        Wst += self._outer_w_D * mW  # biproper p^2/kpoly
        oh += self._outer_h_D * mh
        Wst.dot(th, h)
        h -= oh
        W_i.dot(thf, u["m_drive"])
        layer_err.dot(W_i, u["W_err"])
        (zdot,) = self._early(Wst, e)
        tau, parts = self._late(q, qdot, z, zdot, th, s, xi)

        if extras is not None:
            extras.update(ref_vel=z, ref_acc=zdot, s=s, theta_hat=th, xi=xi, freq_hat=thf,
                          psi1=psi1, psi2=psi2, chi2=chi2, h=h)
        return tau, parts
