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
    torque is the filtered-damping law ``-K s + Y theta_hat - lambda_D Y
    xi``, and ``theta_hat`` descends the filtered-regressor error, ``-Gamma
    W^T e``.  This class states them once: the layout (:meth:`_lay_out`),
    the rates of ``phi``, ``qd_aux``, ``xi`` and ``theta_hat`` and the
    torque (:meth:`_compile_block`), and in ``evaluate`` the damping
    products (:meth:`_early`) and the regressor's (:meth:`_late`).  A law
    states its banks, its layer, its swap term, its cascade call and its
    own inputs and rates.

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

    def _lay_out(self, layers, filters, early=(), late=()):
        """The layout, ``phi``, ``qd_aux``, the law's ``layers``, ``xi``,
        ``theta_hat``, then its ``filters`` (each ``(name, *shape)``), and
        the block over it, reading ``h``, ``damping`` and the law's
        ``early`` inputs, then the regressor's products and its ``late`` ones."""
        n, p = self.n, self.p_dim
        for name, *shape in (("phi", self.refcfg.ell, n), ("qd_aux", 2, n), *layers,
                             ("xi", p), ("theta_hat", p), *filters):
            self.layout.add(name, *shape)
        self.block = LinearBlock(
            self.layout, n, early=(("h", n), ("damping", n), *early),
            late=(("Y", (n, p)), ("Y_th", n), ("Yt_s", p), ("Wt_e", p), *late, ("Y_xi", n)),
        )

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

    def _compile_block(self, phi_dot, qdd_aux, s, outputs, early, rates):
        """Compile the law's ``outputs``, ``early`` signals and ``rates``
        with the shared rates, ``phi``'s the cascade's ``phi_dot`` (its
        column axis leading), and the torque on the law's error ``s``."""
        sig = self.block.signal
        aux, xi = sig("qd_aux"), sig("xi")
        self.block.compile(
            outputs, early,
            late=(-self.K[:, None] * s + sig("Y_th") - self.lambda_D * sig("Y_xi"),),
            rates={**rates, "phi": phi_dot.swapaxes(1, 2), "qd_aux": np.array((aux[1], qdd_aux)),
                   "xi": -self.lam * xi + self.lam * sig("Yt_s"),
                   "theta_hat": -self.gamma[:, None] * sig("Wt_e")},
        )

    def _load(self, t, q, qdot, x):
        """Write ``[x; w]`` into the block's ``v``; returns its input slots."""
        slots = self.block.slots
        slots["x"][:] = x
        slots["q"][:] = q
        slots["qdot"][:] = qdot
        slots["qd"][:] = self._qd_rows(t)
        return slots

    def _early(self, W, e):
        """The damping products ``W^T e`` and ``W W^T e``, then the early stage."""
        u = self.block.slots
        W.T.dot(e, u["Wt_e"])
        W.dot(u["Wt_e"], u["damping"])
        return self.block.early()

    def _late(self, q, qdot, vel, acc, th, s, xi):
        """The regressor at the reference ``(vel, acc)`` and its products
        with ``th``, ``s`` and ``xi``, then the late stage: ``(tau, (xdot,))``."""
        u = self.block.slots
        Y = self.shape.regressor(q, qdot, vel, acc)
        u["Y"][:] = Y
        Y.dot(th, u["Y_th"])
        Y.T.dot(s, u["Yt_s"])
        Y.dot(xi, u["Y_xi"])
        xdot, (tau,) = self.block.late()
        return tau, (xdot,)

    def observe(self, t, q, qdot, x):
        ev = super().observe(t, q, qdot, x)
        return ControlEval(ev.tau.copy(), ev.xdot,
                           {name: a.copy() for name, a in ev.extras.items()})

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
        self.wbank = FilterBank([(den, [num]) for num, den in loops], cols=self.p_dim)
        self.hbank = self.wbank.with_cols(1)
        self._lay_out((), (("wbank", *self.wbank.state_shape()),
                           ("hbank", *self.hbank.state_shape())))
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
        self._compile_block(
            phi_dot, qdd_aux, s,
            # filtered regressor (n, p), filtered Y th, then the plain signals
            outputs=(self.wbank.output(xw), self.hbank.output(xh),
                     e, sig("theta_hat"), xi, z, s, aux[0]),
            early=(zdot.T,),
            rates={"wbank": sig("Y"), "hbank": sig("Y_th")},  # the chains' drives
        )

    def evaluate(self, t, q, qdot, x, extras=None):
        u = self._load(t, q, qdot, x)
        W, hv, e, th, xi, z, s, aux0 = self.block.outputs()
        h = u["h"]
        W.dot(th, h)
        h -= hv                              # swap term, (n,)
        (zdot,) = self._early(W, e)
        tau, parts = self._late(q, qdot, z, zdot, th, s, xi)

        if extras is not None:
            extras.update(ref_vel=z, ref_acc=zdot, s=s, theta_hat=th, xi=xi, W=W, h=h, qd_aux=aux0)
        return tau, parts
