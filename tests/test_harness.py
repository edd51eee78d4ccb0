import numpy as np
import pytest

from refcascade.config import ExperimentConfig, load_config, parse_overrides
from refcascade.controllers import ConfigError
from refcascade.harness import (
    MetricsReport,
    TimeSeriesLog,
    build_experiment,
    compute_metrics,
    integrate,
    run_experiment,
    sweep,
    write_log_csv,
)


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
        extras_stride=1, et=np.arange(n_samples), tau=tau,
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


class TestSweep:
    def test_empty_axis(self):
        assert sweep(cfg_with(BASE), "ell", []) == []

    def test_unknown_axis(self):
        with pytest.raises(ConfigError):
            sweep(cfg_with(BASE), "mystery", [1.0])

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
