"""Acceptance criteria for the package, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live) and enforces both the quantitative gate and its runtime budget.
Experiment configurations are fixed here; nothing is calibrated at test time.
"""

import time

import numpy as np
from refcascade.config import load_config
from refcascade.harness import compute_metrics, run_experiment, write_log_csv
from refcascade.validation import (
    suite_cascade_equivalence,
    suite_regressor,
    suite_skew_symmetry,
    suite_tone_parameters,
)


def criterion(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name}: {detail}"


class Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_ac1_model_properties():
    with Timer() as tm:
        skew = suite_skew_symmetry()
        regr = suite_regressor()
    ok = skew.passed and regr.passed and tm.elapsed < 1.0
    criterion(
        "AC-1", ok,
        f"{skew.detail}; {regr.detail}; runtime {tm.elapsed:.2f}s (< 1s)",
    )


def test_ac2_degree_reduction_equivalence():
    with Timer() as tm:
        result = suite_cascade_equivalence()
    ok = result.passed and tm.elapsed < 10.0
    criterion("AC-2", ok, f"{result.detail}; runtime {tm.elapsed:.2f}s (< 10s)")


def test_ac3_pid_structural_equivalence():
    ov = [
        ("trajectory", "kind", "polynomial"),
        ("trajectory", "coeffs", "0.4 0.25 ; -0.2 0.15"),
        ("disturbance", "bias", "0.5 -0.3"),
        ("run", "duration", "10"),
        ("run", "dt", "0.002"),
        ("run", "q0", "0.2 -0.1"),
        ("run", "qdot0", "0.1 0"),
    ]
    with Timer() as tm:
        log_a = run_experiment(load_config(None, ov + [("controller", "variant", "pid")]))
        log_b = run_experiment(load_config(None, ov + [("controller", "variant", "pid_textbook")]))
        gap = float(np.max(np.abs(log_a.tau - log_b.tau)))
    ok = gap <= 1e-9 and tm.elapsed < 2.0
    criterion(
        "AC-3", ok,
        f"max torque gap = {gap:.3e} (<= 1e-9); runtime {tm.elapsed:.2f}s (< 2s)",
    )


def test_ac4_order_sweep_convergence():
    base = [
        ("controller", "variant", "known"),
        ("trajectory", "kind", "multisine"),
        ("trajectory", "tones", "0.5@0.5:0 ; 0.5@0.5:0"),
        ("disturbance", "tones", "0.2@0.5:0 ; 0.2@0.5:0"),
        ("run", "dt", "0.002"),
        ("run", "duration", "25"),
        ("run", "qdot0", "0.25 0.25"),
        ("run", "extras_stride", "5"),
        ("run", "csv_decimate", "10"),
    ]
    with Timer() as tm:
        rms = []
        for ell in (1, 2, 3, 4):
            cfg = load_config(None, base + [("controller", "ell", str(ell))])
            rms.append(compute_metrics(run_experiment(cfg)).rms_dq_last)
    decreasing = all(b < a for a, b in zip(rms, rms[1:]))
    ok = decreasing and tm.elapsed < 30.0
    criterion(
        "AC-4", ok,
        "steady-state rms |dq| for ell=1..4: "
        + ", ".join(f"{v:.3e}" for v in rms)
        + f" (strictly decreasing: {decreasing}); runtime {tm.elapsed:.1f}s (< 30s)",
    )


def test_ac5_energy_monotonicity_and_convergence():
    ov = [
        ("controller", "variant", "adaptive"),
        ("controller", "ell", "2"),
        ("controller", "theta_hat0", "auto:0.5"),
        ("trajectory", "kind", "polynomial"),
        ("trajectory", "coeffs", "0.4 0.1 ; -0.3 0.05"),
        ("run", "dt", "0.002"),
        ("run", "duration", "20"),
        ("run", "extras_stride", "1"),
        ("run", "csv_decimate", "10"),
    ]
    with Timer() as tm:
        log = run_experiment(load_config(None, ov))
    max_rise = float(np.max(np.diff(log.V)))
    final_dq = float(np.linalg.norm(log.dq[-1]))
    ok = max_rise <= 1e-8 and final_dq <= 1e-3 and tm.elapsed < 5.0
    criterion(
        "AC-5", ok,
        f"max per-step V increase = {max_rise:.3e} (<= 1e-8), final |dq| = "
        f"{final_dq:.3e} (<= 1e-3); runtime {tm.elapsed:.2f}s (< 5s)",
    )


def test_ac6_time_scaling():
    base = [
        ("controller", "variant", "known"),
        ("controller", "ell", "2"),
        ("gains", "alpha", "1.0"),
        ("trajectory", "kind", "multisine"),
        ("trajectory", "tones", "0.3@0.5:0 ; 0.3@0.5:0"),
        ("disturbance", "tones", "0.5@2.0:0 ; 0.5@2.0:0.7"),
        ("run", "dt", "0.002"),
        ("run", "duration", "60"),
        ("run", "qdot0", "0.15 0.15"),
        ("run", "extras_stride", "5"),
        ("run", "csv_decimate", "10"),
    ]
    with Timer() as tm:
        reports = {}
        for kappa in ("1.0", "4.0"):
            cfg = load_config(None, base + [("gains", "kappa", kappa)])
            reports[kappa] = compute_metrics(run_experiment(cfg))
    slow, fast = reports["1.0"], reports["4.0"]
    ok = (
        not fast.diverged
        and fast.rms_dq_last < slow.rms_dq_last
        and tm.elapsed < 20.0
    )
    criterion(
        "AC-6", ok,
        f"late rms |dq|: kappa=1 -> {slow.rms_dq_last:.3e}, kappa=4 -> "
        f"{fast.rms_dq_last:.3e} (fast non-divergent: {not fast.diverged}); "
        f"runtime {tm.elapsed:.1f}s (< 20s)",
    )


def test_ac7_frequency_machinery():
    with Timer() as tm:
        result = suite_tone_parameters()
    ok = result.passed and tm.elapsed < 1.0
    criterion("AC-7", ok, f"{result.detail}; runtime {tm.elapsed:.2f}s (< 1s)")


def _stacked_single_pair():
    base = [
        ("controller", "variant", "stacked_single"),
        ("controller", "ell", "3"),
        ("controller", "theta_hat0", "auto:0.5"),
        ("gains", "alpha", "1.0"),
        ("gains", "gamma_freq", "100"),
        ("trajectory", "kind", "constant"),
        ("trajectory", "offset", "0.3 -0.2"),
        ("disturbance", "tones", "3.0@2.0:0.4 ; 3.0@2.0:1.2"),
        ("run", "dt", "0.004"),
        ("run", "duration", "60"),
        ("run", "q0", "0.3 -0.2"),
        ("run", "extras_stride", "10"),
        ("run", "csv_decimate", "10"),
    ]
    out = {}
    for tag, freeze in (("adapt", "false"), ("frozen", "true")):
        cfg = load_config(None, base + [("controller", "freeze_freq", freeze)])
        log = run_experiment(cfg)
        out[tag] = (compute_metrics(log), log)
    return out


def test_ac8_stacked_single_tone():
    with Timer() as tm:
        out = _stacked_single_pair()
    adapt, log = out["adapt"]
    frozen, _ = out["frozen"]
    ratio = frozen.rms_dq_last / max(adapt.rms_dq_last, 1e-300)
    freq_bounded = float(np.max(np.abs(log.freq_hat))) < 100.0
    ok = (
        ratio >= 2.0
        and freq_bounded
        and not adapt.diverged
        and tm.elapsed < 60.0
    )
    criterion(
        "AC-8a", ok,
        f"late rms |dq|: adapted {adapt.rms_dq_last:.3e} vs frozen "
        f"{frozen.rms_dq_last:.3e} ({ratio:.1f}x, >= 2x); tone estimate "
        f"{adapt.freq_hat_final} bounded: {freq_bounded}; "
        f"runtime {tm.elapsed:.1f}s (< 60s)",
    )


def test_ac8_stacked_two_tones_separated():
    ov = [
        ("controller", "variant", "stacked_multi"),
        ("controller", "ell", "3"),
        ("controller", "n_star", "2"),
        ("controller", "theta_hat0", "auto:0.5"),
        ("gains", "alpha", "1.0"),
        ("gains", "gamma_freq", "200"),
        ("trajectory", "kind", "constant"),
        ("trajectory", "offset", "0.3 -0.2"),
        ("disturbance", "tones", "2.0@1.3:0.4, 2.0@2.1:0 ; 2.0@1.3:1.2, 2.0@2.1:0.5"),
        ("run", "dt", "0.004"),
        ("run", "duration", "60"),
        ("run", "q0", "0.3 -0.2"),
        ("run", "extras_stride", "10"),
        ("run", "csv_decimate", "10"),
    ]
    with Timer() as tm:
        log = run_experiment(load_config(None, ov))
        rep = compute_metrics(log)
    freq_bounded = float(np.max(np.abs(log.freq_hat))) < 100.0
    ok = (
        rep.rms_dq_last < rep.rms_dq_first
        and freq_bounded
        and not rep.diverged
        and tm.elapsed < 60.0
    )
    criterion(
        "AC-8b", ok,
        f"rms |dq| early/late: {rep.rms_dq_first:.3e} -> {rep.rms_dq_last:.3e}; "
        f"tone estimates {np.round(rep.freq_hat_final, 3)} bounded: {freq_bounded}; "
        f"runtime {tm.elapsed:.1f}s (< 60s)",
    )


def _residual_run(overrides, duration="3"):
    ov = overrides + [
        ("run", "dt", "0.001"),
        ("run", "duration", duration),
        ("run", "extras_stride", "10"),
        ("run", "csv_decimate", "10"),
        ("run", "residual_stride", "100"),
    ]
    cfg = load_config(None, ov)
    log = run_experiment(cfg)
    return float(np.max(log.residual))


def test_ac9_closed_loop_residuals():
    cases = {
        "input-error cascade (adaptive)": [
            ("controller", "variant", "adaptive"),
            ("controller", "theta_hat0", "auto:0.5"),
            ("trajectory", "kind", "polynomial"),
            ("trajectory", "coeffs", "0.4 0.1 ; -0.3 0.05"),
        ],
        "corrected cascade (known parameters)": [
            ("controller", "variant", "known"),
            ("trajectory", "kind", "multisine"),
            ("trajectory", "tones", "0.4@0.6:0 ; 0.3@0.6:0.9"),
            ("disturbance", "tones", "0.3@0.8:0.2 ; 0.2@0.8:0"),
            ("run", "qdot0", "0.24 0.18"),
        ],
        "damped filtered loop (passive)": [
            ("controller", "variant", "passive"),
            ("controller", "theta_hat0", "auto:0.8"),
            ("trajectory", "kind", "multisine"),
            ("trajectory", "tones", "0.4@0.6:0 ; 0.3@0.6:0.9"),
            ("disturbance", "tones", "0.3@0.8:0.2 ; 0.2@0.8:0"),
            ("run", "qdot0", "0.24 0.18"),
        ],
        "stacked layer (single tone)": [
            ("controller", "variant", "stacked_single"),
            ("controller", "theta_hat0", "auto:0.5"),
            ("trajectory", "kind", "constant"),
            ("trajectory", "offset", "0.3 -0.2"),
            ("disturbance", "tones", "1.0@1.2:0 ; 1.0@1.2:0.4"),
            ("run", "q0", "0.3 -0.2"),
        ],
    }
    details = []
    ok = True
    for name, ov in cases.items():
        with Timer() as tm:
            worst = _residual_run(ov)
        passed = worst <= 1e-9 and tm.elapsed < 5.0
        ok = ok and passed
        details.append(f"{name}: {worst:.2e} in {tm.elapsed:.1f}s")
    # the stacked layer identity psi' = -a psi + s_aux is checked pointwise
    from refcascade.harness import build_experiment

    cfg = load_config(None, cases["stacked layer (single tone)"] + [
        ("run", "dt", "0.001"), ("run", "duration", "2"),
    ])
    model, ctrl, traj, dist = build_experiment(cfg)
    q0 = np.array([0.3, -0.2])
    x = ctrl.initial_state(q0, np.zeros(2))
    ex = ctrl.observe(0.5, q0 + 0.01, np.array([0.1, -0.05]), x).extras
    layer = float(np.max(np.abs(ex["psidot"] - (-ctrl.alpha_star * ex["psi"] + ex["s"]))))
    ok = ok and layer <= 1e-9
    details.append(f"layer identity: {layer:.2e}")
    criterion("AC-9", ok, "max residuals (<= 1e-9, < 5s each): " + "; ".join(details))


def test_ac10_byte_identical_reruns(tmp_path):
    ov = [
        ("controller", "variant", "adaptive"),
        ("controller", "theta_hat0", "auto:0.5"),
        ("trajectory", "kind", "polynomial"),
        ("trajectory", "coeffs", "0.4 0.1 ; -0.3 0.05"),
        ("run", "dt", "0.002"),
        ("run", "duration", "4"),
    ]
    paths = []
    for tag in ("a", "b"):
        log = run_experiment(load_config(None, ov))
        path = tmp_path / f"{tag}.csv"
        write_log_csv(log, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    criterion("AC-10", identical, f"repeated run CSVs byte-identical: {identical}")
