"""Property suites over all modules, runnable from the CLI and from tests.

Each suite returns a :class:`SuiteResult`; the CLI prints one line per suite
and exits nonzero when any fails.  Suites accept an injectable model so that
deliberately broken fixtures (e.g. a flipped Coriolis sign) are caught.
Worst cases are taken with ``np.maximum``/``np.minimum``, which keep a NaN,
so a suite whose measurement is not finite fails its tolerance test.  The
high-order oracle of the cascade-equivalence suite is stated here too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .controllers import basic
from .filters import FilterBank
from .manipulator import TwoLinkArm
from .numerics import poly_from_roots, poly_mul, rk4_step, routh_hurwitz
from .refdyn import QD_ROWS, ReferenceConfig, cascade_init, critically_damped_coeffs
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
            min_eig = np.minimum(min_eig, w[0])
            # w[-1] / w[0] with w[0] <= 0 would read as a small or negative ratio
            max_cond = np.maximum(max_cond, w[-1] / w[0] if w[0] > 0.0 else np.inf)
    ok = min_eig > 0.0 and max_cond <= 100.0
    return _result(
        "inertia-positive-definite",
        ok,
        f"min eigenvalue {min_eig:.4g}, max condition number {max_cond:.4g}",
    )


def suite_skew_symmetry(model=None):
    model = model or TwoLinkArm()
    rng = np.random.default_rng(1234)
    worst = 0.0
    for _ in range(1000):
        q = rng.uniform(-10.0, 10.0, 2)
        qdot = rng.uniform(-10.0, 10.0, 2)
        xv = rng.uniform(-10.0, 10.0, 2)
        S = model.inertia_rate(q, qdot) - 2.0 * model.coriolis(q, qdot)
        worst = np.maximum(worst, abs(xv @ S @ xv))
    ok = worst <= 1e-10
    return _result("coriolis-skew-symmetry", ok, f"max |x'(dM/dt - 2C)x| = {worst:.3e}")


def suite_inertia_rate(model=None):
    model = model or TwoLinkArm()
    rng = np.random.default_rng(99)
    worst = 0.0
    h = 1e-5
    for _ in range(50):
        q = rng.uniform(-3.0, 3.0, 2)
        qdot = rng.uniform(-3.0, 3.0, 2)
        fd = (model.inertia(q + h * qdot) - model.inertia(q - h * qdot)) / (2.0 * h)
        worst = np.maximum(worst, np.max(np.abs(fd - model.inertia_rate(q, qdot))))
    ok = worst <= 1e-6
    return _result("inertia-rate-consistency", ok, f"max |analytic - FD| = {worst:.3e}")


def suite_regressor(model=None):
    model = model or TwoLinkArm()
    rng = np.random.default_rng(4321)
    worst = 0.0
    for _ in range(1000):
        q, qdot, zeta, zetadot = (rng.uniform(-5.0, 5.0, 2) for _ in range(4))
        lhs = model.inertia(q) @ zetadot + model.coriolis(q, qdot) @ zeta + model.gravity(q)
        rhs = model.regressor(q, qdot, zeta, zetadot) @ model.theta
        worst = np.maximum(worst, np.max(np.abs(lhs - rhs)))
    ok = worst <= 1e-10
    return _result("regressor-identity", ok, f"max residual = {worst:.3e}")


def suite_gravity_gradient(model=None):
    model = model or TwoLinkArm()
    rng = np.random.default_rng(7)
    worst = 0.0
    h = 1e-6
    for _ in range(100):
        q = rng.uniform(-3.0, 3.0, 2)
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (model.potential(q + e) - model.potential(q - e)) / (2.0 * h)
            worst = np.maximum(worst, abs(fd - model.gravity(q)[i]))
    ok = worst <= 1e-6
    return _result("gravity-gradient", ok, f"max |FD - analytic| = {worst:.3e}")


# -- high-order oracle, the ground truth of the cascade realization -----------


def oracle_initial_state(config, q_traj, qd_traj) -> np.ndarray:
    """Literal-ODE initial state matching the zero-initialized cascade.

    The cascade states initialize to zero (except z(0)); inverting the
    per-level shift definitions at t = 0 gives the equivalent initial values
    of z and its derivatives.
    """
    alphas = config.coeffs.alphas
    ell = config.ell
    av = config.availability
    q = [q_traj.eval(0.0, k) for k in range(ell + 1)]
    qd = [qd_traj.eval(0.0, k) for k in range(ell + 1)]
    dq = [a - b for a, b in zip(q, qd)]
    Z = np.zeros((ell, q_traj.n))
    Z[0] = 0.0 if av == "position" else qd[1]
    for j in range(2, ell + 1):
        if av == "position":
            val = -alphas[ell] * q[j - 1] + alphas[ell - j + 1] * qd[0]
            for i in range(2, j):
                val = val - alphas[ell - i + 1] * dq[j - i]
        else:
            val = np.zeros(q_traj.n) if av == "velocity" else qd[j]
            for i in range(1, j):
                val = val - alphas[ell - i + 1] * dq[j - i]
            if av == "full_corrected":
                val = val + config.Lambda * q[j - 1] - config.Lambda * Z[j - 2]
        Z[j - 1] = val
    return Z


def _oracle_drive(config, q_traj, qd_traj, ts):
    """The literal ODE's forcing of z^(ell) on the times ``ts``, from exact
    analytic derivatives of the signals; the ``full_corrected`` correction,
    which reads the state, is added by ``_oracle_rate``."""
    alphas = config.coeffs.alphas
    ell = config.ell
    if config.availability == "position":
        # drive = -a_ell q^(ell) - sum_k a_k dq^(k)
        drive = -alphas[ell] * q_traj.eval_grid(ts, ell)
        orders = range(ell)
    else:
        drive = np.zeros((ts.size, q_traj.n))
        if config.availability != "velocity":
            drive += qd_traj.eval_grid(ts, ell + 1)
        orders = range(ell + 1)
    for k in orders:
        drive -= alphas[k] * (q_traj.eval_grid(ts, k) - qd_traj.eval_grid(ts, k))
    return drive


def _oracle_rate(configs, q_traj, qd_traj, ts):
    """``f(j, Z)`` of the literal ODEs of ``configs`` at the ``j``-th time of
    ``ts``, ``Z`` their states row by row, one config after another.  Each
    row's rate is the next row, the last row's the drive plus the
    ``full_corrected`` correction: entrywise, so one gather and one
    correction serve all configs, each with the bits of its own ODE."""
    n = q_traj.n
    size = n * sum(config.ell for config in configs)
    # rows of [Z; tops]: each rate's source; the corrected tops and their last rows
    src, corrected, last, lams, q_tops = [], [], [], [], []
    end = 0
    for i, config in enumerate(configs):
        end += config.ell * n
        tops = range(size + i * n, size + (i + 1) * n)
        src += [*range(end - config.ell * n + n, end), *tops]
        if config.availability == "full_corrected":
            corrected += tops
            last += range(end - n, end)
            lams.append(config.Lambda)
            q_tops.append(q_traj.eval_grid(ts, config.ell))
    drive = np.concatenate([_oracle_drive(c, q_traj, qd_traj, ts) for c in configs], axis=1)
    src, corrected, last = map(np.array, (src, corrected, last))
    if lams:
        lam, q_top = np.concatenate(lams), np.concatenate(q_tops, axis=1)

    def f(j, x):
        y = np.concatenate((x, drive[j]))
        if lams:
            y[corrected] += lam * (q_top[j] - x[last])
        return y[src]

    return f


def _realization_rate(config, q_traj, qd_traj, ts):
    """``f(j, phi) = A phi + d[j]``: ``A`` is the phi columns of the rate rows
    of ``basic.compile_cascade``, ``d`` its input columns applied to the
    inputs the variant reads at the times ``ts``."""
    m = config.ell * q_traj.n
    M = basic.compile_cascade(config, q_traj.n)[:m]
    inputs = [q_traj.eval_grid(ts, 0), q_traj.eval_grid(ts, 1)]
    inputs += [qd_traj.eval_grid(ts, k) for k in range(QD_ROWS[config.availability])]
    # A contiguous: the suite runs about 10% slower on the strided slice
    A, d = M[:, :m].copy(), np.concatenate(inputs, axis=1).dot(M[:, m:].T)
    return lambda j, x: A.dot(x) + d[j]


def oracle_realization_gaps(configs, q_traj, qd_traj, dt, steps) -> list[float]:
    """``max |z_oracle - z_realized|`` over ``steps`` RK4 steps of ``dt`` from
    t = 0, for each config.

    The oracle integrates the literal high-order ODE on trajectory derivatives
    evaluated analytically up front; the realization integrates, on the same
    signals, the matrix the single-layer laws run (``basic.compile_cascade``).
    Both read their signals from tables over the RK4 stage times.  Each is
    one slice of a single stacked state: RK4 acts elementwise, so each slice
    follows exactly the numbers of its separate integration, while the
    integrator's per-step cost is paid once instead of twice per config.  A
    state that turns non-finite raises ``rk4_step``'s error.
    """
    n = q_traj.n
    ts = 0.5 * dt * np.arange(2 * steps + 1)  # stage j of the grid at t = j dt / 2
    oracle = _oracle_rate(configs, q_traj, qd_traj, ts)
    x0 = [oracle_initial_state(config, q_traj, qd_traj).ravel() for config in configs]
    for config in configs:
        qd_dot0 = None if config.availability == "position" else qd_traj.eval(0.0, 1)
        x0.append(cascade_init(config, n, qd_dot0).ravel())
    starts = np.cumsum([0] + [x.size for x in x0]).tolist()
    m = starts[len(configs)]  # the oracle states' share, then each realization
    parts = [(_realization_rate(config, q_traj, qd_traj, ts), slice(a, b))
             for config, a, b in zip(configs, starts[len(configs):], starts[len(configs) + 1:])]

    def deriv(t, x):
        j = round(2.0 * t / dt)
        return np.concatenate([oracle(j, x[:m])] + [f(j, x[sl]) for f, sl in parts])

    out = np.empty((steps + 1, starts[-1]))
    out[0] = np.concatenate(x0)
    for i in range(steps):
        out[i + 1] = rk4_step(deriv, out[i], i * dt, dt)
    z = [out[:, a : a + n] for a in starts[:-1]]
    return [float(np.max(np.abs(z_o - z_r))) for z_o, z_r in zip(z[: len(configs)], z[len(configs) :])]


def suite_cascade_equivalence():
    qd = TrajectorySpec([
        JointSignal(poly=(0.3, 0.2, -0.05, 0.01)),
        JointSignal(poly=(-0.1, 0.15, 0.02, -0.004)),
    ])
    q = TrajectorySpec([
        JointSignal(poly=(0.25, 0.18, -0.04, 0.01), tones=(Tone(0.1, 1.3, 0.4),)),
        JointSignal(poly=(-0.05, 0.1, 0.03, -0.004), tones=(Tone(0.08, 0.9, -0.2),)),
    ])
    cases, configs = [], []
    for availability in ("position", "velocity", "full", "full_corrected"):
        for ell in (1, 2, 3):
            coeffs = critically_damped_coeffs(4.0, ell)
            lam = np.array([2.0, 2.0]) if availability == "full_corrected" else None
            cases.append(f"{availability}/ell={ell}")
            configs.append(ReferenceConfig(coeffs, availability, lam))
    gaps = oracle_realization_gaps(configs, q, qd, 1e-3, 10_000)
    i = int(np.argmax(gaps))  # the first NaN, if any
    worst = gaps[i]
    ok = worst <= 1e-6
    return _result(
        "cascade-equivalence",
        ok,
        f"max sup|z_realized - z_highorder| = {worst:.3e} ({cases[i]})",
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


def _tone_responses(pairs):
    """Steady-state complex gains of ``(num, den, omega)`` filters under
    ``sin(omega t)``.

    The denominators share one order, so the pairs run as the rows of one
    bank, through one RK4 loop; each row settles for the same time and is
    fitted over the last two periods of its own run.
    """
    bank = FilterBank([(den, [num]) for num, den, _ in pairs])
    omegas = np.array([omega for _, _, omega in pairs])
    periods = 2.0 * np.pi / omegas
    t_settle = 16.0 / 0.8
    dt = min(1e-2, float(periods.min()) / 100.0)
    n_fit = np.rint(2.0 * periods / dt).astype(int)
    steps = int(round(t_settle / dt)) + n_fit

    def deriv(t, x):
        return bank.deriv(x, np.sin(omegas * t))

    x = np.zeros((len(pairs), bank.order))
    t = 0.0
    ts = np.empty(steps.max())
    ys = np.empty((ts.size, len(pairs)))
    for k in range(ts.size):
        ts[k] = t
        ys[k] = bank.output(x, np.sin(omegas * t))
        x = rk4_step(deriv, x, t, dt)
        t += dt
    gains = []
    for row, omega in enumerate(omegas):
        fit = slice(steps[row] - n_fit[row], steps[row])
        basis = np.column_stack([np.sin(omega * ts[fit]), np.cos(omega * ts[fit])])
        coef, *_ = np.linalg.lstsq(basis, ys[fit, row], rcond=None)
        gains.append(complex(coef[0], coef[1]))
    return bank, gains


def suite_filter_frequency_response():
    rng = np.random.default_rng(2024)
    by_order = {}
    for _ in range(20):
        num, den = _random_stable_filter(rng)
        by_order.setdefault(den.size - 1, []).extend(
            (num, den, omega) for omega in rng.uniform(0.5, 3.0, 5)
        )
    worst = 0.0
    for pairs in by_order.values():
        bank, measured = _tone_responses(pairs)
        for row, (_, _, omega) in enumerate(pairs):
            target = bank.response_at(omega, row=row)
            rel = abs(measured[row] - target) / max(abs(target), 1e-12)
            worst = np.maximum(worst, rel)
    ok = worst <= 0.01
    return _result(
        "filter-frequency-response", ok, f"max relative gain/phase error = {worst:.3e}"
    )


def suite_tone_parameters():
    rng = np.random.default_rng(3001)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 5))
        freqs = rng.uniform(0.2, 5.0, m)
        theta = vieta_theta(freqs)
        brute = np.array([1.0])
        for w in freqs:
            brute = poly_mul(brute, [w * w, 1.0])
        rel = np.max(np.abs(theta - brute[:-1]) / np.maximum(np.abs(brute[:-1]), 1e-300))
        worst = np.maximum(worst, rel)
    freqs = np.array([1.3, 2.1])
    spec = DisturbanceSpec.tones([
        [(0.5, 1.3, 0.2), (0.3, 2.1, 0.0)],
        [(0.4, 2.1, 1.0)],
    ])
    theta = vieta_theta(freqs)
    res = np.max([np.abs(annihilator_residual(spec, theta, t)) for t in np.linspace(0.0, 10.0, 40)])
    ok = worst <= 1e-12 and res <= 1e-10
    return _result(
        "tone-parameter-expansion",
        ok,
        f"max coefficient mismatch {worst:.3e}, annihilator residual {res:.3e}",
    )


def suite_stability_criterion():
    rng = np.random.default_rng(5150)
    failures = 0
    for _ in range(1000):
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
        "stability-criterion", ok, f"{failures} disagreements out of 1000 polynomials"
    )


# the suites that take the model, then the rest, in report order
_MODEL_SUITES = (
    suite_inertia,
    suite_skew_symmetry,
    suite_inertia_rate,
    suite_regressor,
    suite_gravity_gradient,
)
SUITES = _MODEL_SUITES + (
    suite_cascade_equivalence,
    suite_filter_frequency_response,
    suite_tone_parameters,
    suite_stability_criterion,
)


def run_all_suites(model=None):
    return [suite(model) if suite in _MODEL_SUITES else suite() for suite in SUITES]
