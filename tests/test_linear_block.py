"""The compiled affine map of each filtering controller against its definition.

``filtered_adaptive``, ``stacked_single`` and ``stacked_multi`` evaluate
their whole linear state map through one LinearBlock.  The reference laws
below restate each torque law block by block with the filter banks' own
``output``/``output_dot``/``output_ddot``/``deriv`` and with
``cascade_rates``.  On random states, inputs and times every block of
``xdot``, the torque and the logged signals must agree with them to
roundoff: the compiled map sums the same terms in another order.  The
comparisons draw their settings (cascade order, tone count, gains) from a
seed; the structural tests run at the fixed settings of ``_controller``.
"""

import gc

import numpy as np
import pytest
from conftest import late_map_before_drops
from draws import SEEDS
from hypothesis import given, settings

from refcascade.config import load_config
from refcascade.controllers import build_controller
from refcascade.controllers.base import Layout
from refcascade.filters import FilterBank, LinearBlock
from refcascade.manipulator import TwoLinkArm
from refcascade.numerics import poly_from_roots
from refcascade.refdyn import cascade_rates, critically_damped_coeffs
from refcascade.signals import TrajectorySpec

RTOL = 1e-14
# the estimate rates are products of separately rounded outputs whose terms
# can cancel (largest seen: 2.9e-14 on the one-entry freq_hat block); a
# wrong coefficient still shows as an O(1) error
RTOL_RATES = 1e-13

# each variant with the options it fixes; the comparisons draw the rest
CASES = [
    ("filtered_adaptive", {}),
    ("stacked_single", {}),
    ("stacked_multi", {}),
    ("stacked_multi", {"n_star": 2}),
]
EXAMPLES = 25  # drawn settings per comparison

# filter block -> the controller attribute holding its bank
FILTER_BLOCKS = {
    "filtered_adaptive": {"wbank": "wbank", "hbank": "hbank"},
    "stacked_single": {"b_psi": "b_psi", "b_psith": "b_psi", "b_y": "b_y", "b_v": "b_v"},
    "stacked_multi": {"f_e": "f_e", "f_u": "f_u", "f_w": "f_w", "b_y": "b_y", "b_v": "b_v",
                      "outer_w": "f_outer_w", "outer_h": "f_outer_h"},
}


def _controller(variant, kw, traj=None):
    model = TwoLinkArm()
    gains = {**load_config().values["gains"], "k": (20.0, 30.0), "lam_corr": (2.0, 3.5),
             "gamma_freq": 3.0}
    traj = traj or TrajectorySpec.constant([0.3, -0.2])
    return build_controller(variant, model.shape(), gains, traj,
                            critically_damped_coeffs(4.0, 3), theta_hat0=np.zeros(5), **kw)


# a trajectory with nonzero derivatives, so every q_d column counts
MOVING = TrajectorySpec.multisine([[(0.3, 1.1, 0.2)], [(0.2, 0.7, -0.4), (0.1, 2.0, 0.0)]],
                                  offsets=[0.3, -0.2])


def _moving(variant, kw):
    return _controller(variant, kw, MOVING)


def _drawn(variant, kw, rng):
    """``variant`` on ``MOVING`` at drawn settings, ``kw`` fixing its options:
    the cascade order, the tone count, the per-joint ``k`` and ``lam_corr``
    and the layers' rates."""
    ell = int(rng.integers(1 if variant == "filtered_adaptive" else 2, 6))
    gains = {**load_config().values["gains"], "gamma_freq": 3.0,
             "k": tuple(rng.uniform(5.0, 40.0, 2)), "lam_corr": tuple(rng.uniform(0.5, 5.0, 2))}
    gains.update((key, rng.uniform(0.5, 5.0))
                 for key in ("alpha_star", "alpha_star_star", "kappa_star"))
    if variant == "stacked_multi":
        kw = {"n_star": int(rng.integers(1, 4)), **kw}
    return build_controller(variant, TwoLinkArm().shape(), gains, MOVING,
                            critically_damped_coeffs(4.0, ell), theta_hat0=np.zeros(5), **kw)


def _filtered_adaptive(c, t, q, qdot, x):
    v = lambda name: c.layout.view(x, name)  # noqa: E731
    qd, qd_dot, qd_ddot = c.traj.derivs(t, 2)
    phi, aux, xi, th = v("phi"), v("qd_aux"), v("xi"), v("theta_hat")
    W = c.wbank.output(v("wbank"))
    h = W @ th - c.hbank.output(v("hbank"))
    e = (qdot - qd_dot) + c.alpha_star * (q - qd)
    qdd_aux = (-c.a1s * aux[1] - c.a0s * aux[0] + h + qd_ddot + c.a1s * qd_dot + c.a0s * qd
               - c.lambda_D_star * (W @ (W.T @ e)))
    phi_dot, zdot = cascade_rates(c.refcfg, phi, q, qdot, aux[0], aux[1], qdd_aux)
    s = qdot - phi[0]
    Y = c.shape.regressor(q, qdot, phi[0], zdot)
    tau = -c.K * s + Y @ th - c.lambda_D * (Y @ xi)
    rates = {
        "phi": phi_dot, "qd_aux": np.array([aux[1], qdd_aux]),
        "xi": -c.lam * xi + c.lam * (Y.T @ s), "theta_hat": -c.gamma * (W.T @ e),
        "wbank": c.wbank.deriv(v("wbank"), Y), "hbank": c.hbank.deriv(v("hbank"), Y @ th),
    }
    return tau, rates, {"W": W, "h": h, "ref_vel": phi[0], "ref_acc": zdot, "s": s}


def _stacked_single(c, t, q, qdot, x):
    v = lambda name: c.layout.view(x, name)  # noqa: E731
    qd, qd_dot, qd_ddot = c.traj.derivs(t, 2)
    phi, aux, chi, xi, th = v("phi"), v("qd_aux"), v("chi"), v("xi"), v("theta_hat")
    thf = v("freq_hat")[0]
    psi = q - chi[0]
    psidot = qdot - chi[1]
    psith = psi * thf
    W1 = c.b_psi.output(v("b_psi"), psi)
    g1_psith = c.b_psi.output(v("b_psith"), psith)
    WG2, WG3 = (c.b_y.output(v("b_y"), k=k) for k in (0, 1))
    vG2, vG3 = (c.b_v.output(v("b_v"), k=k) for k in (0, 1))
    Wst = thf * WG2 + WG3
    h = W1 * thf - g1_psith + thf * (WG2 @ th - vG2) + WG3 @ th - vG3
    e = (qdot - qd_dot) + c.alpha_star * (q - qd)
    qdd_aux = (-c.a1s * aux[1] - c.a0s * aux[0] + h + qd_ddot + c.a1s * qd_dot + c.a0s * qd
               - c.lambda_D_star * (Wst @ (Wst.T @ e)))
    phi_dot, zdot = cascade_rates(c.refcfg, phi, q, qdot, aux[0], aux[1], qdd_aux)
    chidd = zdot + thf * psi
    chidot_aux = chi[1] - c.alpha_star * psi
    s_aux = qdot - chidot_aux
    chidd_aux = chidd - c.alpha_star * psidot
    Y = c.shape.regressor(q, qdot, chidot_aux, chidd_aux)
    tau = -c.K * s_aux + Y @ th - c.lambda_D * (Y @ xi)
    rates = {
        "phi": phi_dot, "qd_aux": np.array([aux[1], qdd_aux]), "chi": np.array([chi[1], chidd]),
        "xi": -c.lam * xi + c.lam * (Y.T @ s_aux), "theta_hat": -c.gamma * (Wst.T @ e),
        "freq_hat": np.array([0.0 if c.freeze_freq else -c.gamma_f * (W1 @ e)]),
        "b_psi": c.b_psi.deriv(v("b_psi"), psi), "b_psith": c.b_psi.deriv(v("b_psith"), psith),
        "b_y": c.b_y.deriv(v("b_y"), Y), "b_v": c.b_v.deriv(v("b_v"), Y @ th),
    }
    outs = {"W1": W1, "h": h, "psi": psi, "psidot": psidot, "ref_vel": chidot_aux,
            "ref_acc": chidd_aux, "s": s_aux, "zdot": zdot}
    return tau, rates, outs


def _stacked_multi(c, t, q, qdot, x):
    v = lambda name: c.layout.view(x, name)  # noqa: E731
    ns = c.n_star
    qd, qd_dot, qd_ddot = c.traj.derivs(t, 2)
    phi, aux, chi1, xi, th, thf = (v(k) for k in ("phi", "qd_aux", "chi1", "xi", "theta_hat",
                                                  "freq_hat"))
    by = [c.b_y.output(v("b_y"), k=k) for k in range(ns + 1)]
    bv = [c.b_v.output(v("b_v"), k=k) for k in range(ns + 1)]
    mW = by[ns] + sum(thf[i] * by[i] for i in range(ns))
    mh = bv[ns] + sum(thf[i] * bv[i] for i in range(ns))
    Wst = c.f_outer_w.output(v("outer_w"), mW)
    h = Wst @ th - c.f_outer_h.output(v("outer_h"), mh)
    e = (qdot - qd_dot) + c.ass * (q - qd)
    qdd_aux = (-c.a1ss * aux[1] - c.a0ss * aux[0] + h + qd_ddot + c.a1ss * qd_dot + c.a0ss * qd
               - c.lambda_D_star * (Wst @ (Wst.T @ e)))
    r1 = qdd_aux - c.a1ss * (qdot - aux[1]) - c.a0ss * (q - aux[0])
    psi1 = q - chi1[0]
    psi1dot = qdot - chi1[1]
    chi2 = chi1[0] - c.f_e.output(v("f_e")) + c.f_u.output(v("f_u"))
    chi2d = chi1[1] - c.f_e.output_dot(v("f_e"), psi1) + c.f_u.output_dot(v("f_u"), 0.0)
    psi2 = q - chi2
    W_i = [c.f_w.output(v("f_w"), psi2, k=i) for i in range(ns)]
    mdrive = sum(thf[i] * W_i[i] for i in range(ns))
    chi2dd = (r1 - c.f_e.output_ddot(v("f_e"), psi1, psi1dot)
              + c.f_u.output_ddot(v("f_u"), mdrive, 0.0))
    phi_dot, zdot = cascade_rates(c.refcfg, phi, q, qdot, chi2, chi2d, chi2dd)
    s = qdot - phi[0]
    Y = c.shape.regressor(q, qdot, phi[0], zdot)
    tau = -c.K * s + Y @ th - c.lambda_D * (Y @ xi)
    layer_err = psi1dot + c.kappa_s * psi1
    freq_rate = [0.0 if c.freeze_freq else -c.gamma_f[i] * (W_i[i] @ layer_err) for i in range(ns)]
    rates = {
        "phi": phi_dot, "qd_aux": np.array([aux[1], qdd_aux]), "chi1": np.array([chi1[1], r1]),
        "f_e": c.f_e.deriv(v("f_e"), psi1), "f_u": c.f_u.deriv(v("f_u"), mdrive),
        "f_w": c.f_w.deriv(v("f_w"), psi2),
        "xi": -c.lam * xi + c.lam * (Y.T @ s), "theta_hat": -c.gamma * (Wst.T @ e),
        "freq_hat": np.array(freq_rate),
        "b_y": c.b_y.deriv(v("b_y"), Y), "b_v": c.b_v.deriv(v("b_v"), Y @ th),
        "outer_w": c.f_outer_w.deriv(v("outer_w"), mW),
        "outer_h": c.f_outer_h.deriv(v("outer_h"), mh),
    }
    outs = {"h": h, "chi2": chi2, "psi1": psi1, "psi2": psi2, "ref_vel": phi[0],
            "ref_acc": zdot, "s": s}
    return tau, rates, outs


REFERENCE = {
    "filtered_adaptive": _filtered_adaptive,
    "stacked_single": _stacked_single,
    "stacked_multi": _stacked_multi,
}


def _close(got, want, rtol=RTOL):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= rtol * np.max(np.abs(want))


def _samples(ctrl, seed, count=5):
    rng = np.random.default_rng(seed)  # a Generator passes through
    for _ in range(count):
        t = rng.uniform(0.0, 5.0)
        q, qdot = rng.uniform(-1.0, 1.0, (2, ctrl.n))
        yield t, q, qdot, rng.uniform(-1.0, 1.0, ctrl.state_size)


def _evaluations(variant, kw, seed):
    """The law at drawn settings, observed and by its reference, on samples
    drawn from the same seed."""
    rng = np.random.default_rng(seed)
    ctrl = _drawn(variant, kw, rng)
    for t, q, qdot, x in _samples(ctrl, rng, count=3):
        yield ctrl, ctrl.observe(t, q, qdot, x), REFERENCE[variant](ctrl, t, q, qdot, x)


@pytest.mark.parametrize("variant,kw", CASES)
@settings(max_examples=EXAMPLES)
@given(seed=SEEDS)
def test_outputs_match_the_banks(variant, kw, seed):
    # the filter outputs the law reads, through the torque and logged signals
    for _, ev, (tau, _, outs) in _evaluations(variant, kw, seed):
        _close(ev.tau, tau)
        for name, want in outs.items():
            _close(ev.extras[name], want)


@pytest.mark.parametrize("variant,kw", CASES)
@settings(max_examples=EXAMPLES)
@given(seed=SEEDS)
def test_derivative_matches_the_banks(variant, kw, seed):
    for ctrl, ev, (_, rates, _) in _evaluations(variant, kw, seed):
        for name in FILTER_BLOCKS[variant]:
            _close(ctrl.layout.view(ev.xdot, name), rates[name])
    # the chains keep their exact structure in the compiled rates: a state's
    # rate is the next state and nothing else, and the last one's reads the
    # denominator tail on its own chain (its drive adds the rest).  The late
    # stage serves the shifts by copy; its record of them, put back as the
    # rows they stand for, and its computed rows give the whole rate map
    block = ctrl.block
    rates = late_map_before_drops(block)[: ctrl.state_size]
    index = np.arange(ctrl.state_size)
    served = set(block.served.tolist())
    shifts = set()
    for name, attr in FILTER_BLOCKS[variant].items():
        bank = getattr(ctrl, attr)
        idx = ctrl.layout.view(index, name)
        shift = np.zeros(idx[..., :-1].shape + (rates.shape[1],))
        np.put_along_axis(shift, idx[..., 1:, None], 1.0, axis=-1)
        assert np.array_equal(rates[idx[..., :-1]], shift)
        shifts.update(idx[..., :-1].ravel().tolist())
        per_row = (bank.rows,) + (1,) * (idx.ndim - 2) + (bank.order,)
        last = rates[idx[..., -1:], idx]
        assert np.array_equal(last, np.broadcast_to(-bank.a.reshape(per_row), last.shape))
    # every chain shift is served, and nothing else is
    assert served == shifts
    # the outputs read only [x; w], never a nonlinear input
    assert block.C.shape[1] == ctrl.state_size + 5 * ctrl.n


def _late_rate(block, v):
    """The late stage at ``v``: its rate, then its signals, as one copy."""
    block.v[:] = v
    xdot, signals = block.late()
    return np.concatenate((xdot, *signals))


@pytest.mark.parametrize("variant,kw", CASES)
def test_late_stage_equals_the_map_before_drops(variant, kw, dense_late_map):
    # read on each unit vector, the late stage gives the map before drops:
    # the late map's rows where it computes, a unit row at each shift (by
    # value: a product with a unit vector turns a -0.0 entry into 0.0)
    block = _controller(variant, kw).block
    full = dense_late_map(block)
    probed = np.column_stack([_late_rate(block, e) for e in np.eye(block.width)])
    assert np.array_equal(probed, full)
    # on random states every served rate is the next state and every other
    # row the late map's product, bit for bit
    computed = np.ones(len(full), dtype=bool)
    computed[block.served] = False
    start = block.served + 1
    rng = np.random.default_rng(16)
    for _ in range(300):
        v = rng.standard_normal(block.width) * 10.0 ** rng.uniform(-3.0, 3.0, block.width)
        got = _late_rate(block, v)
        assert got[block.served].tobytes() == v[start].tobytes()
        assert got[computed].tobytes() == block.late_map.dot(v).tobytes()


def test_every_chain_shift_is_served_and_nothing_else(dense_late_map):
    # 15 rate rows: an 8-entry chain (shifts at 0-6, its last entry at 7),
    # four rows of a plain block, of which the last, 11, equals the shift
    # to the next state, and a 3-entry chain (shifts at 12 and 13).  The
    # chains' shifts are served, the plain block's row 11 is not
    layout = Layout()
    layout.add("z", 1, 8)
    layout.add("m", 4)
    layout.add("y", 1, 3)
    block = LinearBlock(layout, 1, early=(), late=())
    bz = FilterBank([(poly_from_roots(-np.arange(1.0, 9.0)), [[1.0]])])
    by = FilterBank([(poly_from_roots([-1.0, -2.0, -3.0]), [[1.0]])])
    xz, xy = block.chains("z", bz), block.chains("y", by)
    m, y, q = block.signal("m"), block.signal("y"), block.signal("q")
    m_rate = np.vstack((-2.0 * m[:3] + 0.5 * q, y[0, :1]))  # m_3' = y_0
    rate = np.vstack([bz.deriv(xz, q).swapaxes(-1, -2).reshape(-1, block.width), m_rate,
                      by.deriv(xy, 0.5 * q).swapaxes(-1, -2).reshape(-1, block.width)])
    block.compile((q,), (q,), (), {"z": q, "m": m_rate, "y": 0.5 * q})
    assert block.served.tolist() == [0, 1, 2, 3, 4, 5, 6, 12, 13]
    assert np.array_equal(dense_late_map(block), rate[:, : block.late_map.shape[1]])
    rng = np.random.default_rng(17)
    for _ in range(50):
        v = rng.uniform(-1.0, 1.0, block.width)
        _close(_late_rate(block, v), rate.dot(v))


@pytest.mark.parametrize("variant,kw", CASES + [("stacked_single", {"freeze_freq": True}),
                                                ("stacked_multi", {"freeze_freq": True})])
@settings(max_examples=EXAMPLES)
@given(seed=SEEDS)
def test_state_rates_match_their_definitions(variant, kw, seed):
    # phi against cascade_rates on the controller's own drive, xi against
    # -lam xi + lam Y^T s, and likewise the proxy, layer and estimate blocks
    for ctrl, ev, (_, rates, _) in _evaluations(variant, kw, seed):
        for name in ctrl.layout.names():
            if name not in FILTER_BLOCKS[variant]:
                _close(ctrl.layout.view(ev.xdot, name), rates[name], RTOL_RATES)


def test_every_output_the_laws_read_is_tapped():
    # stacked_multi reads every regressor-path output (tone index last), the
    # outer filters, the tone regressors and its plain signals from one
    # product with [x; w]
    ctrl = _controller("stacked_multi", {"n_star": 2})
    shapes = [y.shape for y in ctrl.block.outputs()]
    assert shapes == [(2, 5, 3), (2, 3), (2, 5), (2,), (2, 2), (2,), (5,), (2,), (5,)] + [(2,)] * 6
    assert ctrl.block.C.shape == (30 + 6 + 10 + 2 + 4 + 2 + 5 + 2 + 5 + 12,
                                  ctrl.state_size + 5 * ctrl.n)


def test_block_rejects_a_layout_that_does_not_match_its_bank():
    ctrl = _controller("filtered_adaptive", {})
    bank = FilterBank([([2.0, 3.0, 1.0], [[1.0]])] * 2)
    block = LinearBlock(ctrl.layout, ctrl.n, (), ())
    with pytest.raises(ValueError, match="state shape"):
        block.chains("hbank", bank)


def random_bank(rng):
    """A stable bank: rows of one order, strictly proper or biproper outputs."""
    rows, order = int(rng.integers(1, 4)), int(rng.integers(1, 6))
    dens = [rng.uniform(0.5, 2.0) * poly_from_roots(-rng.uniform(0.25, 4.0, order))
            for _ in range(rows)]
    nums = []
    for _ in range(rng.integers(1, 4)):
        length = order + int(rng.integers(0, 2))  # order + 1 coefficients: biproper
        nums.append(rng.uniform(-3.0, 3.0, (rows, length)))
    return FilterBank([(den, [num[r] for num in nums]) for r, den in enumerate(dens)],
                      cols=(1, 3)[rng.integers(2)])


def derivative_maps(bank):
    """The maps ``CA`` and ``CA^2`` of the bank's output derivatives on its
    state: a map on the chain's rate is the map shifted one entry on, less
    its last column times ``a``."""
    maps = [bank.C]
    for _ in range(2):
        M = maps[-1]
        shifted = np.zeros_like(M)
        shifted[:, :, 1:] = M[:, :, :-1]
        maps.append(shifted - M[:, :, -1:] * bank.a)
    return maps[1:]


@settings(max_examples=60)
@given(seed=SEEDS)
def test_block_from_the_bank_maps_matches_the_bank(seed):
    # a block compiled from the bank's own maps on its unit signal, against
    # the same maps at a random state and input
    rng = np.random.default_rng(seed)
    bank = random_bank(rng)
    layout = Layout()
    layout.add("f", *bank.state_shape())
    shape = bank.state_shape()[:-1]
    block = LinearBlock(layout, 1, early=(("u", shape), ("udot", shape)), late=())
    x, u, udot = block.chains("f", bank), block.signal("u"), block.signal("udot")
    ks = range(len(bank.C))

    def laws(x, u, udot):
        outputs = [bank.output(x, u, k) for k in ks]
        outputs += [bank.output_dot(x, u, udot, k) for k in ks]
        outputs += [bank.output_ddot(x, u, udot, k) for k in ks if not bank.D[k].any()]
        return [bank.state_output(x, k) for k in ks], outputs, bank.deriv(x, u)

    states, outputs, rate = laws(x, u, udot)
    block.compile(states, outputs, (), {"f": u})
    # the chains the block states give the bits of the bank's own rate
    dense = np.ascontiguousarray(rate.swapaxes(-1, -2)).reshape(-1, block.width)
    assert late_map_before_drops(block).tobytes() == dense.tobytes()

    xv = rng.uniform(-1.0, 1.0, bank.state_shape())
    uv, udotv = rng.uniform(-1.0, 1.0, (2,) + shape)
    block.v[:] = np.concatenate((xv.ravel(), np.zeros(5), uv.ravel(), udotv.ravel()))
    got_states, got = block.outputs(), block.early()
    xdot, _ = block.late()
    want_states, want, want_rate = laws(xv, uv, udotv)
    # the product sums the maps' terms in another order
    scale = max(1.0, *(np.max(np.abs(m)) for m in (bank.a, bank.C, bank.D, *derivative_maps(bank))))
    for g, w in zip([*got_states, *got, xdot], [*want_states, *want, want_rate.ravel()]):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w)) <= 1e-13 * scale


def test_compile_rejects_a_signal_read_too_early():
    layout = Layout()
    layout.add("z", 2)
    block = LinearBlock(layout, 2, (("h", 2),), ())
    z = block.signal("z")
    # the outputs are formed before any nonlinear input exists
    with pytest.raises(ValueError, match="not given"):
        block.compile([block.signal("h")], (z,), (), {"z": z})


@pytest.mark.parametrize("stage", ["output", "early", "late"])
def test_compile_rejects_an_empty_stage(stage):
    # the late stage holds every rate the map computes, so only a block
    # without state can leave it empty
    layout = Layout()
    if stage != "late":
        layout.add("z", 2)
    block = LinearBlock(layout, 2, (), ())
    q = block.signal("q")
    rates = {} if stage == "late" else {"z": -block.signal("z")}
    outputs, early = {"output": ([], (q,)), "early": ([q], ()), "late": ([q], (q,))}[stage]
    with pytest.raises(ValueError, match=f"the {stage} stage is empty"):
        block.compile(outputs, early, (), rates)


@pytest.mark.parametrize("blocks", [("f",), ("f", "z", "y")], ids=["missing", "extra"])
def test_compile_rejects_rates_that_miss_or_add_a_block(blocks):
    layout = Layout()
    layout.add("f", 1, 2)
    layout.add("z", 2)
    block = LinearBlock(layout, 1, (), ())
    block.chains("f", FilterBank([([2.0, 3.0, 1.0], [[1.0]])]))
    q = block.signal("q")
    with pytest.raises(ValueError, match="cover the state blocks"):
        block.compile([q], (q,), (), {name: q for name in blocks})


def test_a_rate_map_in_another_order_compiles_to_the_same_maps(monkeypatch):
    want = _controller("stacked_multi", {"n_star": 2}).block
    compile = LinearBlock.compile

    def reversed_rates(block, outputs, early, late, rates):
        assert list(rates) != list(reversed(rates))
        compile(block, outputs, early, late, dict(reversed(rates.items())))

    monkeypatch.setattr(LinearBlock, "compile", reversed_rates)
    got = _controller("stacked_multi", {"n_star": 2}).block
    for name in ("C", "early_map", "late_map", "served"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name


def _bits(ev):
    return [ev.tau.tobytes(), ev.xdot.tobytes()] + [(k, a.tobytes()) for k, a in ev.extras.items()]


def _evaluated_bits(ctrl, *state):
    tau, parts = ctrl.evaluate(*state)
    return [tau.tobytes(), np.concatenate(parts).tobytes()]


@pytest.mark.parametrize("variant,kw", CASES)
def test_an_observation_outlives_the_next_evaluation(variant, kw):
    # evaluate returns views of the block's work array, observe copies them
    ctrl = _moving(variant, kw)
    (t1, q1, qdot1, x1), (t2, q2, qdot2, x2) = _samples(ctrl, 14, count=2)
    ev = ctrl.observe(t1, q1, qdot1, x1)
    kept = _bits(ev)
    ctrl.evaluate(t2, q2, qdot2, x2)
    assert _bits(ev) == kept
    # and no evaluation reads what the one before it left in the buffers
    first = _evaluated_bits(ctrl, t1, q1, qdot1, x1)
    assert _evaluated_bits(ctrl, t1, q1, qdot1, x1) == first
    assert first == kept[:2]


@pytest.mark.parametrize("variant,kw", CASES)
def test_every_slot_a_map_reads_is_rewritten(variant, kw):
    # a NaN left anywhere in v or a stage's product would reach the result
    ctrl = _moving(variant, kw)
    t, q, qdot, x = next(_samples(ctrl, 15))
    clean = _bits(ctrl.observe(t, q, qdot, x))
    ctrl.block.work.fill(np.nan)
    assert _bits(ctrl.observe(t, q, qdot, x)) == clean


@pytest.mark.parametrize("variant,kw", CASES)
def test_building_and_dropping_leaves_no_garbage_cycle(variant, kw):
    gc.collect()
    ctrl = _controller(variant, kw)
    ctrl.evaluate(0.0, np.zeros(2), np.zeros(2), ctrl.initial_state(np.zeros(2), np.zeros(2)))
    del ctrl
    assert gc.collect() == 0
