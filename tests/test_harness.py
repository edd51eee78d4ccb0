from pathlib import Path

import numpy as np
import pytest

from refcascade.config import ExperimentConfig, load_config, parse_overrides
from refcascade.controllers import ConfigError
from refcascade.harness import (
    _TABLE_STEPS,
    MetricsReport,
    TimeSeriesLog,
    build_experiment,
    compute_metrics,
    integrate,
    run_experiment,
    sweep,
    write_log_csv,
    write_sweep_csv,
)
from refcascade.numerics import rk4_step
from refcascade.signals import _SignalVector


def cfg_with(overrides):
    return load_config(None, overrides)


BASE = [
    ("controller", "variant", "adaptive"),
    ("controller", "ell", "2"),
    ("controller", "theta_hat0", "auto:0.5"),
    ("trajectory", "kind", "polynomial"),
    ("trajectory", "coeffs", "0.4 0.1 ; -0.3 0.05"),
    ("run", "dt", "0.002"),
    ("run", "duration", "2"),
]


class TestRunExperiment:
    def test_deterministic_logs(self, tmp_path):
        a = run_experiment(cfg_with(BASE))
        b = run_experiment(cfg_with(BASE))
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_log_csv(a, pa)
        write_log_csv(b, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_log_is_the_integration_core_record(self):
        # run_experiment logs exactly what the shared core integrates
        cfg = cfg_with(BASE + [("run", "duration", "0.5"), ("run", "extras_stride", "5"),
                               ("run", "csv_decimate", "10"), ("run", "residual_stride", "0")])
        log = run_experiment(cfg)
        model, controller, _, dist = build_experiment(cfg)
        taus = []
        t, q, qdot, div_time = integrate(
            model, controller, dist, np.zeros(2), np.zeros(2), 0.002, 250, 5,
            lambda k, t, q, qdot, ev, ts: taus.append(ev.tau),
        )
        assert div_time is None and not log.diverged
        for got, want in ((log.t, t), (log.q, q), (log.qdot, qdot), (log.tau, np.array(taus))):
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_zero_gain_rest_constant_log(self):
        ov = [
            ("controller", "variant", "plain"),
            ("gains", "k", "0"),
            ("model", "g0", "0"),
            ("trajectory", "kind", "constant"),
            ("trajectory", "offset", "0 0"),
            ("run", "dt", "0.002"),
            ("run", "duration", "1"),
        ]
        log = run_experiment(cfg_with(ov))
        assert np.max(np.abs(log.q)) == 0.0
        assert np.max(np.abs(log.tau)) == 0.0

    def test_divergence_flagged_and_truncated(self):
        # a grossly oversized step destabilizes the integration; the run is
        # truncated and flagged, not repaired
        ov = [
            ("controller", "variant", "pid"),
            ("gains", "kp", "4000"),
            ("gains", "kd", "2"),
            ("run", "dt", "0.5"),
            ("run", "duration", "100"),
        ]
        log = run_experiment(cfg_with(ov))
        assert log.diverged
        assert log.divergence_time is not None
        assert log.t.size < int(100 / 0.5) + 1
        rep = compute_metrics(log) if log.t.size >= 10 else None
        if rep is not None:
            assert rep.diverged

    def test_theta_resolution(self):
        ov = BASE + [("controller", "theta_hat0", "auto:0.25")]
        log = run_experiment(cfg_with(ov))
        from refcascade.harness import build_model

        model = build_model(cfg_with(ov))
        assert np.allclose(log.theta_hat[0], 0.25 * model.theta)

    def test_theta_resolution_rejects_non_numbers(self):
        for spec in ("auto:abc", "auto:", "autofoo", "1 2 x 4 5"):
            with pytest.raises(ConfigError, match="theta_hat0"):
                run_experiment(cfg_with(BASE + [("controller", "theta_hat0", spec)]))

    def test_residual_stride_must_be_a_multiple_of_extras_stride(self):
        # residuals are checked on sampled steps only; 15 over 10 would
        # silently check every 30 steps
        with pytest.raises(ConfigError, match="residual_stride"):
            run_experiment(cfg_with(BASE + [("run", "extras_stride", "10"),
                                            ("run", "residual_stride", "15")]))
        log = run_experiment(cfg_with(BASE + [("run", "duration", "0.1"),
                                              ("run", "extras_stride", "5"),
                                              ("run", "csv_decimate", "10"),
                                              ("run", "residual_stride", "0")]))
        assert log.t.size == 51

    def test_run_validation(self):
        with pytest.raises(ConfigError):
            run_experiment(cfg_with(BASE + [("run", "dt", "-0.1")]))
        with pytest.raises(ConfigError):
            run_experiment(cfg_with(BASE + [("run", "duration", "0.002")]))
        with pytest.raises(ConfigError):
            run_experiment(cfg_with(BASE + [("run", "extras_stride", "3"),
                                            ("run", "csv_decimate", "10")]))
        with pytest.raises(ConfigError):
            run_experiment(cfg_with(BASE + [("gains", "kappa", "0.5")]))
        with pytest.raises(ConfigError):
            run_experiment(cfg_with(BASE + [("gains", "alpha", "-1")]))
        with pytest.raises(ConfigError):
            run_experiment(cfg_with(BASE + [("controller", "ell", "9")]))


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def reference_records(model, controller, dist, dt, steps, stride):
    """integrate's RK4 loop, written out on signals that are never tabulated."""
    n = model.n
    x = np.concatenate([np.zeros(2 * n), controller.initial_state(np.zeros(n), np.zeros(n), 0.0)])

    def deriv(t, xx):
        tau, xdot = controller.evaluate(t, xx[:n], xx[n : 2 * n], xx[2 * n :])
        qdd = model.forward_dynamics(xx[:n], xx[n : 2 * n], tau, dist.eval(t))
        return np.concatenate([xx[n : 2 * n], qdd, xdot])

    plant, samples = [], []
    for k in range(steps + 1):
        t = k * dt
        q, qdot = x[:n], x[n : 2 * n]
        plant.append((t, q, qdot))
        k1 = None
        if k % stride == 0:
            ev = controller.observe(t, q, qdot, x[2 * n :])
            ts = dist.eval(t)
            k1 = np.concatenate([qdot, model.forward_dynamics(q, qdot, ev.tau, ts), ev.xdot])
            samples.append((k, t, q, qdot, ev.tau, ev.xdot, ts))
        if k < steps:
            x = rk4_step(deriv, x, t, dt, k1=k1)
    return plant, samples


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for row_got, row_want in zip(got, want):
        for a, b in zip(row_got, row_want):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestIntegrateTables:
    @pytest.mark.parametrize("name", ["order_sweep", "tone_two"])
    def test_records_equal_untabulated_loop_bitwise(self, name, monkeypatch):
        # known (multisine trajectory, one tone per joint) and stacked_multi
        # (two tones per joint), over more than two signal-table blocks
        cfg = load_config(CONFIGS / f"{name}.ini", [])
        dt, stride = cfg.get("run", "dt"), cfg.get("run", "extras_stride")
        steps = 2 * _TABLE_STEPS + 7
        model, controller, traj, dist = build_experiment(cfg)
        rows, misses = _SignalVector._rows, []

        def spy(self, t, lo, hi):
            out = rows(self, t, lo, hi)
            if self._grid_times is not None and t not in self._table[(lo, hi)]:
                misses.append(t)
            return out

        monkeypatch.setattr(_SignalVector, "_rows", spy)
        samples = []
        t, q, qdot, div_time = integrate(
            model, controller, dist, np.zeros(2), np.zeros(2), dt, steps, stride,
            lambda k, t, q, qdot, ev, ts: samples.append(
                (k, t, q.copy(), qdot.copy(), ev.tau, ev.xdot, ts)
            ),
        )
        assert div_time is None and misses == []  # every stage time is tabulated
        monkeypatch.undo()
        twin_model, twin_controller, twin_traj, twin_dist = build_experiment(cfg)
        plant, want = reference_records(twin_model, twin_controller, twin_dist, dt, steps, stride)
        assert twin_traj._grid_times is None and twin_dist._grid_times is None
        assert_same_bits(list(zip(t, q, qdot)), plant)
        assert_same_bits(samples, want)

    def test_no_table_outlives_a_run(self):
        for overrides in ([("run", "duration", "1.2")],  # returns after two blocks
                          [("run", "dt", "1")]):  # diverges
            cfg = load_config(CONFIGS / "order_sweep.ini", overrides)
            model, controller, traj, dist = build_experiment(cfg)
            dt = cfg.get("run", "dt")
            steps = int(round(cfg.get("run", "duration") / dt))
            *_, div_time = integrate(model, controller, dist, np.zeros(2), np.zeros(2),
                                     dt, steps, 5, lambda *sample: None)
            assert (div_time is not None) == (dt == 1)
            for signal in (traj, dist):
                assert signal._grid_times is None and signal._table == {}
            twin_traj, twin_dist = build_experiment(cfg)[2:]
            assert traj.derivs(0.1234, 2).tobytes() == twin_traj.derivs(0.1234, 2).tobytes()
            assert dist.eval(0.1234).tobytes() == twin_dist.eval(0.1234).tobytes()

    def test_no_table_outlives_a_raising_run(self):
        model, controller, traj, dist = build_experiment(load_config(CONFIGS / "order_sweep.ini", []))

        def sample(k, *rest):
            if k == 300:
                raise KeyError("stop")

        with pytest.raises(KeyError):
            integrate(model, controller, dist, np.zeros(2), np.zeros(2), 0.002, 600, 5, sample)
        assert traj._grid_times is None and dist._grid_times is None


class TestConfig:
    def test_unknown_keys_rejected(self):
        cfg = ExperimentConfig.defaults()
        with pytest.raises(ConfigError):
            cfg.set("run", "not_a_key", "1")
        with pytest.raises(ConfigError):
            cfg.set("nonsense", "dt", "1")

    def test_override_parsing(self):
        out = parse_overrides(["run.dt=0.01", "gains.k = 15"])
        assert out[0] == ("run", "dt", "0.01")
        assert out[1] == ("gains", "k", "15")
        with pytest.raises(ConfigError):
            parse_overrides(["run=0.01"])

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/path.ini")

    def test_file_roundtrip(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text(
            "[controller]\nvariant = plain\nell = 3\n"
            "[trajectory]\nkind = multisine\ntones = 0.5@0.8:0 ; 0.4@0.8:0.5\n"
            "[run]\nduration = 1\n"
        )
        cfg = load_config(p)
        assert cfg.get("controller", "variant") == "plain"
        assert cfg.get("controller", "ell") == 3
        tones = cfg.get("trajectory", "tones")
        assert tones[0] == ((0.5, 0.8, 0.0),)
        assert tones[1] == ((0.4, 0.8, 0.5),)


def synthetic_log(dq, tau=None, V=None):
    n_samples, n = dq.shape
    t = np.arange(n_samples, dtype=float)
    tau = np.zeros((n_samples, n)) if tau is None else tau
    V = np.zeros(n_samples) if V is None else V
    return TimeSeriesLog(
        t=t, q=dq.copy(), qdot=np.zeros_like(dq), qd=np.zeros_like(dq), dq=dq,
        et=np.arange(n_samples), tau=tau,
        tau_star=np.zeros_like(tau), ref_vel=np.zeros_like(tau), s=np.zeros_like(tau),
        V=V, V_aux=V.copy(), theta_hat=None, freq_hat=None,
        residual_t=np.array([]), residual=np.array([]),
        meta={"csv_decimate": 1},
    )


class TestMetrics:
    def test_constant_error_equal_windows(self):
        c = np.array([0.3, -0.4])
        log = synthetic_log(np.tile(c, (100, 1)))
        rep = compute_metrics(log)
        assert rep.rms_dq_first == pytest.approx(np.linalg.norm(c))
        assert rep.rms_dq_last == pytest.approx(np.linalg.norm(c))

    def test_decaying_error_improves(self):
        t = np.linspace(0.0, 10.0, 200)
        dq = np.exp(-t)[:, None] * np.array([1.0, 0.5])
        rep = compute_metrics(synthetic_log(dq))
        assert rep.rms_dq_last < rep.rms_dq_first

    def test_short_log_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics(synthetic_log(np.zeros((5, 2))))

    def test_divergence_carried(self):
        log = synthetic_log(np.zeros((50, 2)))
        log.diverged = True
        log.divergence_time = 3.3
        rep = compute_metrics(log)
        assert rep.diverged and rep.divergence_time == 3.3


NAN, INF = float("nan"), float("inf")


def column(*values):
    return np.array(values)[:, None]


class TestCsvText:
    # every value is written as "%.17g": 17 significant digits, so "-0",
    # "nan", "inf", subnormals and integer-valued floats are pinned too
    def test_log_csv_text(self, tmp_path):
        # steps 0..4, derived samples every 2 steps, a row every 4: plant
        # columns read steps 0 and 4, derived ones samples 0 and 2
        log = TimeSeriesLog(
            t=np.array([0.0, 0.1, 0.2, 0.30000000000000004, 0.4]),
            q=column(NAN, 9.0, 9.0, 9.0, -0.0), qdot=column(5e-324, 9.0, 9.0, 9.0, 1e300),
            qd=column(1e-05, 9.0, 9.0, 9.0, 0.1), dq=column(-3.0, 9.0, 9.0, 9.0, -INF),
            et=np.array([0, 2, 4]), tau=column(0.1, 8.0, 1e300),
            tau_star=column(-0.0, 8.0, 5e-324), ref_vel=column(NAN, 8.0, NAN),
            s=column(2.0, 8.0, -1e-05), V=np.array([0.5, 8.0, 12.0]),
            V_aux=np.array([NAN, 8.0, 0.0]),
            theta_hat=np.array([[1.0, -0.0], [8.0, 8.0], [0.1, 1e300]]),
            freq_hat=column(2.0, 8.0, 5e-324),
            residual_t=np.array([]), residual=np.array([]), meta={"csv_decimate": 4},
        )
        path = tmp_path / "log.csv"
        write_log_csv(log, path)
        assert path.read_text() == (
            "t,q1,qdot1,qd1,dq1,z1,s1,tau1,taustar1,V,Vaux,thetahat1,thetahat2,freqhat1\n"
            "0,nan,4.9406564584124654e-324,1.0000000000000001e-05,-3,nan,2,"
            "0.10000000000000001,-0,0.5,nan,1,-0,2\n"
            "0.40000000000000002,-0,1.0000000000000001e+300,0.10000000000000001,-inf,nan,"
            "-1.0000000000000001e-05,1.0000000000000001e+300,4.9406564584124654e-324,12,0,"
            "0.10000000000000001,1.0000000000000001e+300,4.9406564584124654e-324\n"
        )

    def test_sweep_csv_text(self, tmp_path):
        def report(**changes):
            fields = dict(
                rms_dq_first=0.1, rms_dq_last=1e-05, max_torque=40.0, final_V=-0.0,
                theta_hat_final=[], freq_hat_final=[], residual_max=NAN, diverged=False,
                divergence_time=None,
            )
            return MetricsReport(**{**fields, **changes})

        path = tmp_path / "sweep.csv"
        write_sweep_csv("ell", [
            (2.0, report()),
            (3.0, report(rms_dq_last=INF, residual_max=5e-324, diverged=True,
                         divergence_time=1.5)),
        ], path)
        assert path.read_text() == (
            "axis_value,rms_dq_first,rms_dq_last,max_torque,final_V,residual_max,diverged\n"
            "2,0.10000000000000001,1.0000000000000001e-05,40,-0,nan,0\n"
            "3,0.10000000000000001,inf,40,-0,4.9406564584124654e-324,1\n"
        )


class TestSweep:
    def test_empty_axis(self):
        assert sweep(cfg_with(BASE), "ell", []) == []

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(cfg_with(BASE), "mystery", [1.0])

    @pytest.mark.parametrize("axis", ["mystery", "gain:nosuch", "gain:", "gains:k"])
    def test_axis_checked_before_any_value(self, axis):
        with pytest.raises(ConfigError, match="axis"):
            sweep(cfg_with(BASE), axis, [])

    def test_gain_axis_runs(self):
        ov = BASE + [("run", "duration", "1")]
        results = sweep(cfg_with(ov), "gain:k", [10.0, 30.0])
        assert len(results) == 2
        assert all(isinstance(rep, MetricsReport) for _, rep in results)

    def test_ell_axis_rejects_non_integers(self):
        with pytest.raises(ConfigError, match="ell"):
            sweep(cfg_with(BASE), "ell", [2.7])
        with pytest.raises(ConfigError, match="ell"):
            sweep(cfg_with(BASE), "ell", [float("nan")])

    def test_ell_axis_changes_controller(self):
        ov = BASE + [("run", "duration", "1")]
        results = sweep(cfg_with(ov), "ell", [1, 2])
        assert [v for v, _ in results] == [1, 2]
