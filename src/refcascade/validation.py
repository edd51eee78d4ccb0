"""Property suites over all modules, runnable from the CLI and from tests.

Each suite returns a :class:`SuiteResult`; the CLI prints one line per suite
and exits nonzero when any fails.  Suites accept an injectable model so that
deliberately broken fixtures (e.g. a flipped Coriolis sign) are caught.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterBank
from .manipulator import TwoLinkArm
from .numerics import poly_from_roots, poly_mul, rk4_step, routh_hurwitz
from .refdyn import (
    ReferenceConfig,
    critically_damped_coeffs,
    oracle_realization_gaps,
)
from .signals import DisturbanceSpec, JointSignal, Tone, TrajectorySpec, annihilator_residual, vieta_theta

__all__ = ["SuiteResult", "run_all_suites", "SUITES"]


@dataclass
class SuiteResult:
    name: str
    passed: bool
    detail: str


def _result(name, passed, detail):
    return SuiteResult(name, bool(passed), detail)


def suite_inertia(model=None):
    model = model or TwoLinkArm()
    grid = np.linspace(-np.pi, np.pi, 50)
    min_eig = np.inf
    max_cond = 0.0
    for q1 in grid:
        for q2 in grid:
            M = model.inertia(np.array([q1, q2]))
            w = np.linalg.eigvalsh(M)
            min_eig = min(min_eig, w[0])
            max_cond = max(max_cond, w[-1] / w[0])
    ok = min_eig > 0.0 and max_cond <= 100.0
    return _result(
        "inertia-positive-definite",
        ok,
        f"min eigenvalue {min_eig:.4g}, max condition number {max_cond:.4g}",
    )


def suite_skew_symmetry(model=None, samples=1000, seed=1234):
    model = model or TwoLinkArm()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        q = rng.uniform(-10.0, 10.0, 2)
        qdot = rng.uniform(-10.0, 10.0, 2)
        xv = rng.uniform(-10.0, 10.0, 2)
        S = model.inertia_rate(q, qdot) - 2.0 * model.coriolis(q, qdot)
        worst = max(worst, abs(xv @ S @ xv))
    ok = worst <= 1e-10
    return _result("coriolis-skew-symmetry", ok, f"max |x'(dM/dt - 2C)x| = {worst:.3e}")


def suite_inertia_rate(model=None, seed=99):
    model = model or TwoLinkArm()
    rng = np.random.default_rng(seed)
    worst = 0.0
    h = 1e-5
    for _ in range(50):
        q = rng.uniform(-3.0, 3.0, 2)
        qdot = rng.uniform(-3.0, 3.0, 2)
        fd = (model.inertia(q + h * qdot) - model.inertia(q - h * qdot)) / (2.0 * h)
        worst = max(worst, np.max(np.abs(fd - model.inertia_rate(q, qdot))))
    ok = worst <= 1e-6
    return _result("inertia-rate-consistency", ok, f"max |analytic - FD| = {worst:.3e}")


def suite_regressor(model=None, samples=1000, seed=4321):
    model = model or TwoLinkArm()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        q, qdot, zeta, zetadot = (rng.uniform(-5.0, 5.0, 2) for _ in range(4))
        lhs = model.inertia(q) @ zetadot + model.coriolis(q, qdot) @ zeta + model.gravity(q)
        rhs = model.regressor(q, qdot, zeta, zetadot) @ model.theta
        worst = max(worst, np.max(np.abs(lhs - rhs)))
    ok = worst <= 1e-10
    return _result("regressor-identity", ok, f"max residual = {worst:.3e}")


def suite_gravity_gradient(model=None, seed=7):
    model = model or TwoLinkArm()
    rng = np.random.default_rng(seed)
    worst = 0.0
    h = 1e-6
    for _ in range(100):
        q = rng.uniform(-3.0, 3.0, 2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (model.potential(q + e) - model.potential(q - e)) / (2.0 * h)
            worst = max(worst, abs(fd - model.gravity(q)[i]))
    ok = worst <= 1e-6
    return _result("gravity-gradient", ok, f"max |FD - analytic| = {worst:.3e}")


def suite_cascade_equivalence(tol=1e-6, t_end=10.0, dt=1e-3):
    qd = TrajectorySpec([
        JointSignal(poly=(0.3, 0.2, -0.05, 0.01)),
        JointSignal(poly=(-0.1, 0.15, 0.02, -0.004)),
    ])
    q = TrajectorySpec([
        JointSignal(poly=(0.25, 0.18, -0.04, 0.01), tones=(Tone(0.1, 1.3, 0.4),)),
        JointSignal(poly=(-0.05, 0.1, 0.03, -0.004), tones=(Tone(0.08, 0.9, -0.2),)),
    ])
    t = np.arange(0.0, t_end + dt / 2, dt)
    cases, configs = [], []
    for availability in ("position", "velocity", "full", "full_corrected"):
        for ell in (1, 2, 3):
            coeffs = critically_damped_coeffs(4.0, ell)
            lam = np.array([2.0, 2.0]) if availability == "full_corrected" else None
            cases.append(f"{availability}/ell={ell}")
            configs.append(ReferenceConfig(coeffs, availability, lam))
    worst = 0.0
    worst_case = ""
    for case, err in zip(cases, oracle_realization_gaps(configs, q, qd, t)):
        if err > worst:
            worst = err
            worst_case = case
    ok = worst <= tol
    return _result(
        "cascade-equivalence",
        ok,
        f"max sup|z_realized - z_highorder| = {worst:.3e} ({worst_case})",
    )


def _random_stable_filter(rng):
    # real parts bounded away from the axis so steady state is reached quickly
    order = int(rng.integers(2, 5))
    roots = []
    while len(roots) < order:
        if order - len(roots) >= 2 and rng.random() < 0.5:
            re = -rng.uniform(0.8, 2.5)
            im = rng.uniform(0.2, 2.5)
            roots += [complex(re, im), complex(re, -im)]
        else:
            roots.append(complex(-rng.uniform(0.8, 2.5), 0.0))
    den = poly_from_roots(roots)
    num_deg = int(rng.integers(0, len(den) - 1))
    num = rng.uniform(-2.0, 2.0, num_deg + 1)
    if abs(num[-1]) < 0.1:
        num[-1] = 1.0
    return num, den


def _simulate_tone_response(bank, omega):
    """Steady-state complex gain of a one-row bank under sin(omega t)."""
    a = bank.a[0]
    m = a.size
    period = 2.0 * np.pi / omega
    t_settle = 16.0 / 0.8
    dt = min(1e-2, period / 100.0)
    n_fit = int(round(2.0 * period / dt))
    steps = int(round(t_settle / dt)) + n_fit

    def deriv(t, x):
        xd = np.empty(m)
        xd[:-1] = x[1:]
        xd[-1] = np.sin(omega * t) - a @ x
        return xd

    x = np.zeros(m)
    t = 0.0
    ts, ys = [], []
    for k in range(steps):
        if k >= steps - n_fit:
            ts.append(t)
            ys.append(float(bank.output(x[None, :], np.array([np.sin(omega * t)]))[0]))
        x = rk4_step(deriv, x, t, dt)
        t += dt
    ts = np.array(ts)
    ys = np.array(ys)
    basis = np.column_stack([np.sin(omega * ts), np.cos(omega * ts)])
    coef, *_ = np.linalg.lstsq(basis, ys, rcond=None)
    return complex(coef[0], coef[1])


def suite_filter_frequency_response(n_filters=20, seed=2024):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_filters):
        num, den = _random_stable_filter(rng)
        bank = FilterBank(den[None, :], [num[None, :]])
        for omega in rng.uniform(0.5, 3.0, 5):
            target = bank.response_at(omega)
            measured = _simulate_tone_response(bank, omega)
            rel = abs(measured - target) / max(abs(target), 1e-12)
            worst = max(worst, rel)
    ok = worst <= 0.01
    return _result(
        "filter-frequency-response", ok, f"max relative gain/phase error = {worst:.3e}"
    )


def suite_tone_parameters(seed=3001):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        freqs = rng.uniform(0.2, 5.0, m)
        theta = vieta_theta(freqs)
        brute = np.array([1.0])
        for w in freqs:
            brute = poly_mul(brute, [w * w, 1.0])
        rel = np.max(np.abs(theta - brute[:-1]) / np.maximum(np.abs(brute[:-1]), 1e-300))
        worst = max(worst, rel)
    freqs = np.array([1.3, 2.1])
    spec = DisturbanceSpec.tones([
        [(0.5, 1.3, 0.2), (0.3, 2.1, 0.0)],
        [(0.4, 2.1, 1.0)],
    ])
    theta = vieta_theta(freqs)
    res = max(
        float(np.max(np.abs(annihilator_residual(spec, theta, t))))
        for t in np.linspace(0.0, 10.0, 40)
    )
    ok = worst <= 1e-12 and res <= 1e-10
    return _result(
        "tone-parameter-expansion",
        ok,
        f"max coefficient mismatch {worst:.3e}, annihilator residual {res:.3e}",
    )


def suite_stability_criterion(samples=1000, seed=5150):
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(samples):
        n_factors = int(rng.integers(1, 5))
        poly = np.array([1.0])
        any_unstable = False
        for _ in range(n_factors):
            if rng.random() < 0.5:
                a = rng.uniform(0.1, 5.0) * (1.0 if rng.random() < 0.7 else -1.0)
                poly = poly_mul(poly, [a, 1.0])  # root at -a
                if a < 0.0:
                    any_unstable = True
            else:
                re = rng.uniform(0.1, 3.0) * (1.0 if rng.random() < 0.7 else -1.0)
                im = rng.uniform(0.1, 3.0)
                # conjugate pair with real part -re
                poly = poly_mul(poly, [re * re + im * im, 2.0 * re, 1.0])
                if re < 0.0:
                    any_unstable = True
        expected = "unstable" if any_unstable else "stable"
        if routh_hurwitz(poly) != expected:
            failures += 1
    ok = failures == 0
    return _result(
        "stability-criterion", ok, f"{failures} disagreements out of {samples} polynomials"
    )


SUITES = (
    suite_inertia,
    suite_skew_symmetry,
    suite_inertia_rate,
    suite_regressor,
    suite_gravity_gradient,
    suite_cascade_equivalence,
    suite_filter_frequency_response,
    suite_tone_parameters,
    suite_stability_criterion,
)

_MODEL_SUITES = {
    suite_inertia,
    suite_skew_symmetry,
    suite_inertia_rate,
    suite_regressor,
    suite_gravity_gradient,
}


def run_all_suites(model=None):
    results = []
    for suite in SUITES:
        if suite in _MODEL_SUITES:
            results.append(suite(model))
        else:
            results.append(suite())
    return results
