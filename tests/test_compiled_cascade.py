"""The compiled cascade of the single-layer laws, and the evaluate/observe split.

``basic.compile_cascade`` turns ``cascade_rates`` into one matrix over
``[phi; q; qdot; q_d rows]``; its rows must reproduce the function on any
stable coefficient set, order and availability, up to the roundoff of
summing the same terms in another order.  Every variant's per-stage
``evaluate`` and sampled ``observe`` run the same law, so they must agree
bitwise, and the single-layer laws must not call ``cascade_rates`` once
they are built.
"""

import numpy as np
import pytest
from draws import SEEDS
from hypothesis import given, settings

from refcascade.config import load_config
from refcascade.controllers import VARIANTS, basic, build_controller
from refcascade.harness import integrate
from refcascade.manipulator import TwoLinkArm
from refcascade.numerics import poly_from_roots
from refcascade.refdyn import (
    AVAILABILITIES,
    HurwitzCoeffs,
    ReferenceConfig,
    cascade_rates,
    critically_damped_coeffs,
)
from refcascade.signals import DisturbanceSpec, TrajectorySpec

N = 2


def random_cascade(rng):
    """A stable cascade: ell + 1 roots, some in conjugate pairs, left of -0.25."""
    ell = int(rng.integers(1, 7))
    roots = []
    for _ in range(rng.integers(0, (ell + 1) // 2 + 1)):
        re, im = rng.uniform(0.25, 4.0, 2)
        roots += [complex(-re, im), complex(-re, -im)]
    roots += list(-rng.uniform(0.25, 4.0, ell + 1 - len(roots)))
    availability = AVAILABILITIES[rng.integers(len(AVAILABILITIES))]
    lam = rng.uniform(0.25, 4.0, N) if availability == "full_corrected" else None
    coeffs = HurwitzCoeffs(ell, poly_from_roots(roots)[:-1])
    return ReferenceConfig(coeffs, availability, lam)


@settings(max_examples=150)
@given(seed=SEEDS)
def test_compiled_rows_match_cascade_rates(seed):
    rng = np.random.default_rng(seed)
    cfg = random_cascade(rng)
    ell = cfg.ell
    rows = {"position": 1, "velocity": 2}.get(cfg.availability, 3)
    phi = rng.uniform(-2.0, 2.0, (ell, N))
    q, qdot = rng.uniform(-2.0, 2.0, (2, N))
    qd = rng.uniform(-2.0, 2.0, (rows, N))
    v = np.concatenate((phi.ravel(), q, qdot, qd.ravel()))

    r = basic.compile_cascade(cfg, N) @ v
    phi_dot, _ = cascade_rates(cfg, phi, q, qdot, *qd)
    # relative to the largest term a rate sums
    lam = 0.0 if cfg.Lambda is None else np.max(cfg.Lambda)
    scale = max(1.0, np.max(cfg.coeffs.alphas), lam) * np.max(np.abs(v))
    assert np.max(np.abs(r[: ell * N] - phi_dot.ravel())) <= 1e-14 * scale
    assert np.array_equal(r[ell * N :], qdot - phi[0])


COEFFS = critically_damped_coeffs(4.0, 2)
CASCADE_VARIANTS = ("adaptive", "plain", "known", "nldamp", "passive")


def _build(variant, model):
    traj = TrajectorySpec.multisine([[(0.4, 0.6, 0.0)], [(0.3, 0.6, 0.9)]])
    return build_controller(
        variant, model.shape(), load_config().values["gains"], traj, COEFFS,
        theta_hat0=0.5 * model.theta, feedforward_theta=model.theta, n_star=2,
    )


@pytest.mark.parametrize("variant", VARIANTS)
def test_evaluate_equals_observe_bitwise(variant):
    model = TwoLinkArm()
    ctrl = _build(variant, model)
    rng = np.random.default_rng(5)
    for _ in range(5):
        t = rng.uniform(0.0, 5.0)
        q, qdot = rng.uniform(-1.0, 1.0, (2, ctrl.n))
        x = rng.uniform(-1.0, 1.0, ctrl.state_size)
        # the rate comes as a tuple of 1-D parts in layout order; evaluate's
        # arrays may be views the next call overwrites, so join them now
        tau, parts = ctrl.evaluate(t, q, qdot, x)
        assert isinstance(parts, tuple) and all(part.ndim == 1 for part in parts)
        tau, xdot = tau.copy(), np.concatenate(parts)
        ev = ctrl.observe(t, q, qdot, x)
        assert tau.tobytes() == ev.tau.tobytes()
        assert xdot.tobytes() == ev.xdot.tobytes()
        assert ev.xdot.shape == (ctrl.state_size,)
        # observe's xdot is owned: no later evaluation writes into it
        assert not any(np.shares_memory(ev.xdot, part)
                       for part in ctrl.evaluate(t, q, qdot, x)[1])
        assert "s" in ev.extras


@pytest.mark.parametrize("variant", CASCADE_VARIANTS)
def test_cascade_rates_runs_only_at_construction(variant, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return cascade_rates(*args, **kwargs)

    monkeypatch.setattr(basic, "cascade_rates", counted)
    model = TwoLinkArm()
    ctrl = _build(variant, model)
    assert len(calls) == 1
    q0, qdot0 = ctrl.traj.eval(0.0, 0), np.zeros(2)
    integrate(model, ctrl, DisturbanceSpec.zero(2), q0, qdot0, 1e-3, 20, 1, lambda *sample: None)
    assert len(calls) == 1
