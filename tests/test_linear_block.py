"""The compiled filter block of each controller against its FilterBanks.

Every controller that filters runs its banks through one LinearBlock: one
``C @ x`` for the outputs and one ``A @ x`` plus the inputs for the chain
derivatives.  Here each tapped output (with the current-input terms the
controllers add) and each block derivative is checked against the bank's own
``output``/``output_dot``/``output_ddot``/``deriv`` on random states and
inputs.
"""

import numpy as np
import pytest

from refcascade.controllers import GainSet, build_controller
from refcascade.filters import FilterBank, LinearBlock
from refcascade.manipulator import TwoLinkArm
from refcascade.refdyn import critically_damped_coeffs
from refcascade.signals import TrajectorySpec

RTOL = 1e-14

CASES = [
    ("filtered_adaptive", {}),
    ("stacked_single", {}),
    ("stacked_multi", {"n_star": 1}),
    ("stacked_multi", {"n_star": 2}),
]


def _controller(variant, kw):
    model = TwoLinkArm()
    gains = GainSet(K=np.array([20.0, 30.0]), Lambda=np.array([2.0, 3.5]))
    traj = TrajectorySpec.constant([0.3, -0.2])
    return build_controller(variant, model.shape(), gains, traj,
                            critically_damped_coeffs(4.0, 3), theta_hat0=np.zeros(5), **kw)


def _feed(d, u):
    return d[:, None] * u if u.ndim == 2 else d * u


def _close(got, want):
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= RTOL * np.max(np.abs(want))


def _draw(ctrl, rng):
    x = rng.uniform(-1.0, 1.0, ctrl.state_size)
    inputs = {name: rng.uniform(-1.0, 1.0, bank.state_shape()[:-1])
              for name, bank in ctrl.block.banks.items()}
    return x, inputs


@pytest.mark.parametrize("variant,kw", CASES)
def test_outputs_match_the_banks(variant, kw):
    ctrl = _controller(variant, kw)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x, inputs = _draw(ctrl, rng)
        _, rates = _draw(ctrl, rng)
        for (name, kind, ks), ys in zip(ctrl.block.taps, ctrl.block.outputs(x)):
            bank = ctrl.block.banks[name]
            if isinstance(ks, slice):
                ks = range(len(bank.C))[ks]
            else:
                ks, ys = [ks], [ys]
            assert len(ys) == len(ks)
            for k, y in zip(ks, ys):
                _check_tap(bank, kind, k, y, ctrl.layout.view(x, name), inputs[name], rates[name])


def _check_tap(bank, kind, k, y, xb, u, udot):
    biproper = np.any(bank.D[k] != 0.0)
    if kind == "C":
        _close(y + _feed(bank.D[k], u), bank.output(xb, u, k=k))
    elif kind == "CA":
        got = y + _feed(bank.CB[k], u)
        if biproper:
            got = got + _feed(bank.D[k], udot)
        _close(got, bank.output_dot(xb, u, udot, k=k))
    else:
        assert kind == "CA2" and not biproper
        got = y + _feed(bank.CAB[k], u) + _feed(bank.CB[k], udot)
        _close(got, bank.output_ddot(xb, u, udot, k=k))


@pytest.mark.parametrize("variant,kw", CASES)
def test_derivative_matches_the_banks(variant, kw):
    ctrl = _controller(variant, kw)
    block = ctrl.block
    rng = np.random.default_rng(12)
    filtered = np.zeros(ctrl.state_size, dtype=bool)
    for name in block.banks:
        ctrl.layout.view(filtered, name)[...] = True
    for _ in range(5):
        x, inputs = _draw(ctrl, rng)
        xd = block.deriv(x, [inputs[name].ravel() for name in block.banks])
        for name, bank in block.banks.items():
            want = bank.deriv(ctrl.layout.view(x, name), inputs[name])
            _close(ctrl.layout.view(xd, name), want)
        assert np.all(xd[~filtered] == 0.0)
    assert np.all(block.A[~filtered] == 0.0)
    assert np.all(block.C[:, ~filtered] == 0.0)


def test_every_output_the_laws_read_is_tapped():
    # stacked_multi reads every regressor-path output, the outer filters, the
    # tone-layer chains up to their second derivative and every tone regressor
    ctrl = _controller("stacked_multi", {"n_star": 2})
    shapes = [y.shape for y in ctrl.block.outputs(np.zeros(ctrl.state_size))]
    assert shapes == [(3, 2, 5), (3, 2), (2, 5), (2,)] + [(2,)] * 6 + [(2, 2)]
    assert ctrl.block.C.shape == (30 + 6 + 10 + 2 + 12 + 4, ctrl.state_size)


def test_block_rejects_a_layout_that_does_not_match_its_bank():
    ctrl = _controller("filtered_adaptive", {})
    bank = FilterBank([[2.0, 3.0, 1.0]] * 2, [[[1.0], [1.0]]])
    with pytest.raises(ValueError, match="state shape"):
        LinearBlock(ctrl.layout, {"hbank": bank}, [])
