"""Desk-scale closed-loop studies tied to individual torque-law claims.

These are simulation-outcome gates, slower than the algebraic unit tests but
much shorter than the acceptance criteria.
"""

import numpy as np
from refcascade.config import load_config
from refcascade.harness import compute_metrics, run_experiment, sweep


def run_cfg(overrides):
    return run_experiment(load_config(None, overrides))


class TestPlainCascade:
    def test_higher_gain_smaller_steady_error(self):
        # slow tracking: bounded error, monotone improvement with gain
        base = [
            ("controller", "variant", "plain"),
            ("trajectory", "kind", "multisine"),
            ("trajectory", "tones", "0.5@0.3:0 ; 0.4@0.3:0.8"),
            ("run", "dt", "0.002"),
            ("run", "duration", "30"),
            ("run", "qdot0", "0.15 0.0836"),
            ("run", "extras_stride", "10"),
            ("run", "csv_decimate", "10"),
        ]
        results = dict(
            (k, rep.rms_dq_last)
            for k, rep in sweep(load_config(None, base), "gain:k", [20.0, 50.0])
        )
        assert results[50.0] < results[20.0]
        assert results[20.0] < 1.0  # bounded, not diverging


class TestNonlinearDamping:
    def test_bounded_under_tone_disturbance(self):
        ov = [
            ("controller", "variant", "nldamp"),
            ("controller", "theta_hat0", "auto:0.8"),
            ("trajectory", "kind", "constant"),
            ("trajectory", "offset", "0.3 -0.2"),
            ("disturbance", "tones", "0.8@0.9:0 ; 0.8@0.9:0.5"),
            ("run", "dt", "0.002"),
            ("run", "duration", "60"),
            ("run", "q0", "0.3 -0.2"),
            ("run", "extras_stride", "10"),
            ("run", "csv_decimate", "10"),
        ]
        log = run_cfg(ov)
        assert not log.diverged
        assert np.max(np.abs(log.s)) < 10.0


class TestPassiveFilter:
    def test_energy_diagnostic_bounded_60s(self):
        ov = [
            ("controller", "variant", "passive"),
            ("controller", "theta_hat0", "auto:0.8"),
            ("trajectory", "kind", "constant"),
            ("trajectory", "offset", "0.3 -0.2"),
            ("disturbance", "tones", "0.8@0.9:0 ; 0.8@0.9:0.5"),
            ("run", "dt", "0.002"),
            ("run", "duration", "60"),
            ("run", "q0", "0.3 -0.2"),
            ("run", "extras_stride", "10"),
            ("run", "csv_decimate", "10"),
        ]
        log = run_cfg(ov)
        assert not log.diverged
        assert np.all(np.isfinite(log.V_aux))
        assert np.max(log.V_aux) < 1e3

    def test_fast_filter_recovers_raw_damping(self, model, loop_runner):
        # large filter rate: xi tracks Y' s, recovering the unfiltered
        # damping injection in steady state
        from refcascade.config import load_config
        from refcascade.controllers import build_controller
        from refcascade.refdyn import critically_damped_coeffs
        from refcascade.signals import DisturbanceSpec, TrajectorySpec

        traj = TrajectorySpec.constant([0.3, -0.2])
        dist = DisturbanceSpec.tones([[(0.5, 0.7, 0.0)], [(0.5, 0.7, 0.4)]])
        ctrl = build_controller(
            "passive", model.shape(), {**load_config().values["gains"], "lambda": 200.0}, traj,
            coeffs=critically_damped_coeffs(4.0, 2),
            theta_hat0=0.8 * model.theta,
        )
        records = loop_runner(model, ctrl, dist, duration=12.0, dt=5e-4)
        rel = []
        for t, q, qdot, ev in records:
            if t < 8.0:
                continue
            Y = model.regressor(q, qdot, ev.extras["ref_vel"], ev.extras["ref_acc"])
            target = Y.T @ ev.extras["s"]
            scale = max(np.max(np.abs(target)), 1e-3)
            rel.append(np.max(np.abs(ev.extras["xi"] - target)) / scale)
        assert np.median(rel) < 0.2


class TestFilteredAdaptive:
    def test_desk_run_improves_and_stays_bounded(self):
        # tone disturbance with unknown dynamics parameters: tracking improves
        # from the first window to the last and the estimate stays bounded
        ov = [
            ("controller", "variant", "filtered_adaptive"),
            ("controller", "ell", "2"),
            ("controller", "theta_hat0", "auto:0.5"),
            ("trajectory", "kind", "multisine"),
            ("trajectory", "tones", "0.5@0.5:0 ; 0.5@0.5:1.0"),
            ("disturbance", "tones", "0.5@0.5:0.3 ; 0.5@0.5:0"),
            ("run", "dt", "0.002"),
            ("run", "duration", "40"),
            ("run", "qdot0", "0.25 0.1351"),
            ("run", "extras_stride", "10"),
            ("run", "csv_decimate", "10"),
        ]
        log = run_cfg(ov)
        rep = compute_metrics(log)
        assert not rep.diverged
        assert rep.rms_dq_last < rep.rms_dq_first
        assert np.max(np.abs(log.theta_hat)) < 100.0
