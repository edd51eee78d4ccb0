"""Adaptive torque law with a filtered regressor and error augmentation.

The adaptation here does not use Y^T s.  Instead the regressor is passed
through the strictly proper loop operator that maps parameter error into the
second-order target error, giving the filtered regressor

    W = [loop filter] Y(q, qdot, z, zdot)   (entrywise, per-joint channels),

and the non-commutation of that time-varying filtering with the estimate is
compensated by the swap term

    h = W theta_hat - [loop filter](Y theta_hat),

which vanishes identically while the estimate is frozen.  A proxy desired
position q_d^aux absorbs h and a damping term into the reference cascade:

    qdd_aux + a1s qd_aux' + a0s q_d^aux - h
        = qdd_d + a1s qdot_d + a0s q_d - lambda_D_star W W^T e,

with e = dqdot + alpha_star dq and (a0s, a1s) = (alpha_star^2, 2 alpha_star).
The cascade then runs against q_d^aux while the adaptation descends the
W-projected error:  theta_hat' = -Gamma W^T e.  The torque itself is the
passive-filter law evaluated with the cascade's z.
"""

from __future__ import annotations

import numpy as np

from ..filters import FilterBank, LinearBlock, regressor_loop_channel
from ..refdyn import ReferenceConfig, cascade_rates
from .base import ControlEval, ControllerBase, FilteredDamping, GainSet

__all__ = ["FilteredAdaptiveController"]


def make_loop_bank(coeffs, a0s, a1s, lam_vec, k_vec, cols):
    """Per-joint loop-operator bank (strictly proper, relative degree one)."""
    nums, dens = zip(*(regressor_loop_channel(coeffs.alphas, a0s, a1s, lam_r, k_r)
                       for lam_r, k_r in zip(lam_vec, k_vec)))
    return FilterBank(np.vstack(dens), [np.vstack(nums)], cols=cols)


class ProxyController(FilteredDamping, ControllerBase):
    """Shared structure of the filtering laws.

    The reference cascade runs, on the full-corrected availability, against
    the proxy desired position ``qd_aux`` (or a layer built on it), whose
    acceleration absorbs the swap term ``h`` and the damping term; the
    torque is the filtered-damping law.  The layout starts with ``phi`` and
    ``qd_aux`` and holds ``theta_hat``; a compiled block reads the
    nonlinear inputs ``h`` and ``damping``.
    """

    def __init__(self, shape, gains: GainSet, traj, coeffs, theta_hat0):
        super().__init__(shape, gains, traj)
        self.K = self._positive_k()
        self.Lam = gains.lambda_diag(self.n)
        self.gamma = gains.gamma_diag(self.p_dim)
        self.lambda_D = gains.lambda_D
        self.lam = gains.lam
        self.lambda_D_star = gains.lambda_D_star
        self.refcfg = ReferenceConfig(coeffs, "full_corrected", self.Lam)
        self.theta_hat0 = self._estimate0(theta_hat0)

    def _proxy(self, sig, alpha, a0, a1):
        """Signals of the target error e = dqdot + alpha dq, with
        (a0, a1) = (alpha^2, 2 alpha), and of the proxy's acceleration."""
        aux, q, qdot, qd = sig("qd_aux"), sig("q"), sig("qdot"), sig("qd")
        e = (qdot - qd[1]) + alpha * (q - qd[0])
        qdd_aux = (
            -a1 * aux[1] - a0 * aux[0] + sig("h")
            + qd[2] + a1 * qd[1] + a0 * qd[0]
            - self.lambda_D_star * sig("damping")
        )
        return e, qdd_aux

    def initial_state(self, q0, qdot0, t0=0.0):
        x = super().initial_state(q0, qdot0, t0)
        qd0, qd_dot0 = self.traj.derivs(t0, 1)
        self.layout.view(x, "qd_aux")[:] = (qd0, qd_dot0)
        self.layout.view(x, "phi")[0] = qd_dot0
        self.layout.view(x, "theta_hat")[:] = self.theta_hat0
        return x


class FilteredAdaptiveController(ProxyController):
    variant = "filtered_adaptive"
    availability = "full"

    def __init__(self, shape, gains: GainSet, traj, coeffs, theta_hat0=None):
        gains.validate_positive(("lambda_D", "lam", "alpha_star", "lambda_D_star"))
        super().__init__(shape, gains, traj, coeffs, theta_hat0)
        self.alpha_star = gains.alpha_star
        self.a0s, self.a1s = gains.star_pair()

        self.wbank = make_loop_bank(coeffs, self.a0s, self.a1s, self.Lam, self.K, self.p_dim)
        self.hbank = self.wbank.with_cols(1)

        n, p = self.n, self.p_dim
        self.layout.add("phi", coeffs.ell, n)
        self.layout.add("qd_aux", 2, n)
        self.layout.add("xi", p)
        self.layout.add("theta_hat", p)
        self.layout.add("wbank", *self.wbank.state_shape())
        self.layout.add("hbank", *self.hbank.state_shape())
        self.block = LinearBlock(
            self.layout, n,
            early=(("h", n), ("damping", n)),
            late=(("Y", (n, p)), ("Y_th", n), ("Yt_s", p), ("Wt_e", p), ("Y_xi", n)),
        )
        self._compile(self.block)

    def _compile(self, block):
        sig = block.signal
        phi, aux, xi = sig("phi"), sig("qd_aux"), sig("xi")
        q, qdot = sig("q"), sig("qdot")
        e, qdd_aux = self._proxy(sig, self.alpha_star, self.a0s, self.a1s)
        # the cascade takes the signals' column axis as a leading axis
        phi_dot, zdot = cascade_rates(
            self.refcfg, phi.swapaxes(1, 2), q.T, qdot.T, aux[0].T, aux[1].T, qdd_aux.T
        )
        z = phi[0]
        s = qdot - z
        block.compile(
            # filtered regressor (n, p), filtered Y th, then the plain signals
            outputs=(block.tap("wbank", self.wbank), block.tap("hbank", self.hbank),
                     e, sig("theta_hat"), xi, z, s, aux[0]),
            early=({"phi": phi_dot.swapaxes(1, 2), "qd_aux": np.array((aux[1], qdd_aux))},
                   (zdot.T,)),
            late=({"xi": -self.lam * xi + self.lam * sig("Yt_s"),
                   "theta_hat": -self.gamma[:, None] * sig("Wt_e"),
                   "wbank": (self.wbank, sig("Y")),
                   "hbank": (self.hbank, sig("Y_th"))},
                  (-self.K[:, None] * s + sig("Y_th") - self.lambda_D * sig("Y_xi"),)),
        )

    def evaluate(self, t, q, qdot, x):
        qd = self.traj.derivs(t, 2)
        v = np.concatenate((x, q, qdot, qd.ravel()))
        W, hv, e, th, xi, z, s, aux0 = self.block.outputs(v)
        h = W @ th - hv                      # swap term, (n,)
        Wt_e = W.T @ e
        v = np.concatenate((v, h, W @ Wt_e))
        rates, (zdot,) = self.block.early(v)
        Y = self.shape.regressor(q, qdot, z, zdot)
        v = np.concatenate((v, Y.ravel(), Y @ th, Y.T @ s, Wt_e, Y @ xi))
        xdot, (tau,) = self.block.late(v, rates)

        extras = {
            "ref_vel": z, "ref_acc": zdot, "s": s, "qd": qd[0],
            "theta_hat": th, "xi": xi,
            "W": W, "h": h, "qd_aux": aux0,
        }
        return ControlEval(tau, xdot, extras)
