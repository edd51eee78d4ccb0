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
from .base import (ControlEval, ControllerBase, FilteredDamping, nonnegative, positive,
                   second_order_pair)

__all__ = ["FilteredAdaptiveController"]


class ProxyController(FilteredDamping, ControllerBase):
    """Shared structure of the filtering laws.

    The reference cascade runs, on the full-corrected availability, against
    the proxy desired position ``qd_aux`` (or a layer built on it), whose
    acceleration absorbs the swap term ``h`` and the damping term; the
    torque is the filtered-damping law.  The layout starts with ``phi`` and
    ``qd_aux`` and holds ``theta_hat``; a compiled block reads the
    nonlinear inputs ``h`` and ``damping``.

    ``evaluate`` writes into the block's work array and returns views of
    it, valid until the next call; ``observe`` returns copies.
    """

    availability = "full_corrected"

    def __init__(self, shape, gains, traj, coeffs, theta_hat0):
        super().__init__(shape, traj)
        self.K = positive(gains, "k", self.n)
        self.Lam = positive(gains, "lam_corr", self.n)
        self.gamma = nonnegative(gains, "gamma", self.p_dim)
        self.lambda_D = positive(gains, "lambda_d")
        self.lam = positive(gains, "lambda")
        self.lambda_D_star = positive(gains, "lambda_d_star")
        self.refcfg = ReferenceConfig(coeffs, self.availability, self.Lam)
        self.theta_hat0 = self._estimate0(theta_hat0)
        self._qd_rows = self.traj.reader(2)

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

    def observe(self, t, q, qdot, x):
        ev = super().observe(t, q, qdot, x)
        return ControlEval(ev.tau.copy(), ev.xdot,
                           {name: a.copy() for name, a in ev.extras.items()})

    def _load(self, t, q, qdot, x):
        """Write ``[x; w]`` into the block's ``v``; returns its input slots."""
        slots = self.block.slots
        slots["x"][:] = x
        slots["q"][:] = q
        slots["qdot"][:] = qdot
        slots["qd"][:] = self._qd_rows(t)
        return slots

    def initial_state(self, q0, qdot0, t0=0.0):
        x = super().initial_state(q0, qdot0, t0)
        qd0, qd_dot0 = self.traj.derivs(t0, 1)
        self.layout.view(x, "qd_aux")[:] = (qd0, qd_dot0)
        self.layout.view(x, "phi")[0] = qd_dot0
        self.layout.view(x, "theta_hat")[:] = self.theta_hat0
        return x


class FilteredAdaptiveController(ProxyController):
    variant = "filtered_adaptive"

    def __init__(self, shape, gains, traj, coeffs, theta_hat0=None):
        super().__init__(shape, gains, traj, coeffs, theta_hat0)
        self.alpha_star, self.a0s, self.a1s = second_order_pair(gains, "alpha_star")

        # the loop operator per joint: strictly proper, relative degree one
        loops = [regressor_loop_channel(coeffs.alphas, self.a0s, self.a1s, lam_r, k_r)
                 for lam_r, k_r in zip(self.Lam, self.K)]
        self.wbank = FilterBank.per_joint([(den, [num]) for num, den in loops], cols=self.p_dim)
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
        xw, xh = block.chains("wbank", self.wbank), block.chains("hbank", self.hbank)
        block.compile(
            # filtered regressor (n, p), filtered Y th, then the plain signals
            outputs=(self.wbank.output(xw), self.hbank.output(xh),
                     e, sig("theta_hat"), xi, z, s, aux[0]),
            early=({"phi": phi_dot.swapaxes(1, 2), "qd_aux": np.array((aux[1], qdd_aux))},
                   (zdot.T,)),
            late=({"xi": -self.lam * xi + self.lam * sig("Yt_s"),
                   "theta_hat": -self.gamma[:, None] * sig("Wt_e"),
                   "wbank": sig("Y"), "hbank": sig("Y_th")},  # the chains' drives
                  (-self.K[:, None] * s + sig("Y_th") - self.lambda_D * sig("Y_xi"),)),
        )

    def evaluate(self, t, q, qdot, x, extras=None):
        u = self._load(t, q, qdot, x)
        W, hv, e, th, xi, z, s, aux0 = self.block.outputs()
        h, Wt_e = u["h"], u["Wt_e"]
        W.dot(th, h)
        h -= hv                              # swap term, (n,)
        W.T.dot(e, Wt_e)
        W.dot(Wt_e, u["damping"])
        (zdot,) = self.block.early()
        Y = self.shape.regressor(q, qdot, z, zdot)
        u["Y"][:] = Y
        Y.dot(th, u["Y_th"])
        Y.T.dot(s, u["Yt_s"])
        Y.dot(xi, u["Y_xi"])
        parts, (tau,) = self.block.late()

        if extras is not None:
            extras.update(ref_vel=z, ref_acc=zdot, s=s, theta_hat=th, xi=xi, W=W, h=h, qd_aux=aux0)
        return tau, parts
