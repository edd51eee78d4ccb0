"""Experiment assembly: joint plant/controller integration, logs, metrics.

One experiment is a single augmented ODE: the plant state (q, qdot) is
concatenated with the controller's internal block and everything is advanced
together by fixed-step RK4.  Derived quantities (torque, reference signals,
energy diagnostics, closed-loop residuals) are recomputed from the state at
sample times and never integrated twice.

Divergence (any non-finite state entry) is a first-class outcome: the run is
truncated, flagged and reported, never repaired.  Identical configurations
produce byte-identical logs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .controllers import (
    ConfigError,
    build_controller,
    closed_loop_residual,
    lyapunov_diag,
)
from .manipulator import ArmParams, TwoLinkArm
from .numerics import NonFiniteStateError, rk4_step
from .refdyn import critically_damped_coeffs

__all__ = [
    "TimeSeriesLog",
    "MetricsReport",
    "build_model",
    "build_experiment",
    "integrate",
    "run_experiment",
    "compute_metrics",
    "sweep",
    "write_log_csv",
    "write_metrics_json",
    "write_sweep_csv",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


@dataclass
class TimeSeriesLog:
    """Per-run record: full-rate plant samples plus strided derived samples."""

    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    qd: np.ndarray
    dq: np.ndarray
    extras_stride: int
    et: np.ndarray
    tau: np.ndarray
    tau_star: np.ndarray
    ref_vel: np.ndarray
    s: np.ndarray
    V: np.ndarray
    V_aux: np.ndarray
    theta_hat: np.ndarray | None
    freq_hat: np.ndarray | None
    residual_t: np.ndarray
    residual: np.ndarray
    diverged: bool = False
    divergence_time: float | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.q.shape[1]


@dataclass
class MetricsReport:
    """Windowed statistics of one run (first/last 20%, non-overlapping)."""

    rms_dq_first: float
    rms_dq_last: float
    max_torque: float
    final_V: float
    theta_hat_final: list
    freq_hat_final: list
    residual_max: float
    diverged: bool
    divergence_time: float | None

    def to_dict(self) -> dict:
        return {
            "rms_dq_first": self.rms_dq_first,
            "rms_dq_last": self.rms_dq_last,
            "max_torque": self.max_torque,
            "final_V": self.final_V,
            "theta_hat_final": self.theta_hat_final,
            "freq_hat_final": self.freq_hat_final,
            "residual_max": self.residual_max,
            "diverged": self.diverged,
            "divergence_time": self.divergence_time,
        }


def build_model(cfg: ExperimentConfig) -> TwoLinkArm:
    m = cfg.values["model"]
    params = ArmParams(
        m1=m["m1"], m2=m["m2"], l1=m["l1"], l2=m["l2"],
        lc1=m["lc1"], lc2=m["lc2"], I1=m["i1"], I2=m["i2"], g0=m["g0"],
    )
    return TwoLinkArm(params, coriolis_sign=m["coriolis_sign"])


def _resolve_theta(spec: str, model, name):
    spec = spec.strip()
    if not spec:
        return None
    try:
        if spec == "auto" or spec.startswith("auto:"):
            factor = 1.0 if spec == "auto" else float(spec[5:])
            return factor * model.theta
        vals = np.array([float(x) for x in spec.replace(",", " ").split()])
    except ValueError:
        raise ConfigError(f"{name}: expected 'auto', 'auto:<factor>' or numbers, got '{spec}'") from None
    if vals.shape != model.theta.shape:
        raise ConfigError(f"{name}: expected {model.theta.size} entries")
    return vals


def build_experiment(cfg: ExperimentConfig):
    """Instantiate (model, controller, trajectory, disturbance) from a config."""
    model = build_model(cfg)
    n = model.n
    traj = cfg.build_trajectory(n)
    dist = cfg.build_disturbance(n)
    gains = cfg.build_gains()

    c = cfg.values["controller"]
    ell = c["ell"]
    if not (1 <= ell <= 6):
        raise ConfigError("ell must be between 1 and 6")
    alpha = cfg.get("gains", "alpha")
    kappa = cfg.get("gains", "kappa")
    if alpha <= 0.0:
        raise ConfigError("cascade rate alpha must be positive")
    # the realized cascade runs at rate alpha * kappa; scaling the realized
    # set back down by kappa recovers the rate-alpha design, which the
    # coefficient container verifies at construction
    try:
        coeffs = critically_damped_coeffs(alpha * kappa, ell, kappa=kappa)
    except ValueError as exc:
        raise ConfigError(f"cascade coefficients rejected: {exc}") from exc

    controller = build_controller(
        c["variant"], model.shape(), gains, traj, coeffs,
        theta_hat0=_resolve_theta(c["theta_hat0"], model, "theta_hat0"),
        feedforward_theta=_resolve_theta(c["feedforward_theta"], model, "feedforward_theta"),
        n_star=c["n_star"],
        freq_hat0=c["freq_hat0"],
        freeze_freq=c["freeze_freq"],
        matched_init=c["matched_init"],
    )
    return model, controller, traj, dist


def _validate_run(cfg):
    r = cfg.values["run"]
    if r["dt"] <= 0.0:
        raise ConfigError("dt must be positive")
    if r["duration"] < 10.0 * r["dt"]:
        raise ConfigError("duration must be at least 10 dt")
    if r["extras_stride"] < 1:
        raise ConfigError("extras_stride must be >= 1")
    if r["csv_decimate"] < 1 or r["csv_decimate"] % r["extras_stride"] != 0:
        raise ConfigError("csv_decimate must be a positive multiple of extras_stride")
    if r["residual_stride"] < 0 or r["residual_stride"] % r["extras_stride"] != 0:
        raise ConfigError("residual_stride must be 0 or a positive multiple of extras_stride")


def integrate(model, controller, dist, q0, qdot0, dt, steps, stride, sample):
    """Advance plant and controller jointly by ``steps`` RK4 steps of ``dt``.

    The state starts at ``(q0, qdot0)`` and the controller's initial state.
    On every ``stride``-th step the controller is evaluated at the step
    start, ``sample(k, t, q, qdot, ev, tau_star)`` is called with that
    evaluation, and it doubles as the step's first RK4 stage.  A non-finite
    state ends the run at the time of the step that produced it.

    Returns ``(t, q, qdot, divergence_time)``: the plant samples of every
    step reached, and ``None`` unless the run diverged.
    """
    n = model.n
    x = np.concatenate([q0, qdot0, controller.initial_state(q0, qdot0, 0.0)])

    def deriv(t, xx):
        q = xx[:n]
        qdot = xx[n : 2 * n]
        ev = controller.evaluate(t, q, qdot, xx[2 * n :])
        qdd = model.forward_dynamics(q, qdot, ev.tau, dist.eval(t))
        return np.concatenate([qdot, qdd, ev.xdot])

    t_arr = np.empty(steps + 1)
    q_arr = np.empty((steps + 1, n))
    qdot_arr = np.empty((steps + 1, n))
    div_time = None
    k = 0
    t = 0.0
    while True:
        t_arr[k] = t
        q = x[:n]
        qdot = x[n : 2 * n]
        q_arr[k] = q
        qdot_arr[k] = qdot

        k1 = None
        if k % stride == 0:
            ev = controller.evaluate(t, q, qdot, x[2 * n :])
            ts = dist.eval(t)
            k1 = np.concatenate(
                [qdot, model.forward_dynamics(q, qdot, ev.tau, ts), ev.xdot]
            )
            sample(k, t, q, qdot, ev, ts)

        if k >= steps:
            break
        try:
            x = rk4_step(deriv, x, t, dt, k1=k1)
        except NonFiniteStateError:
            div_time = t
            break
        if not np.isfinite(x).all():
            div_time = t
            break
        k += 1
        t = k * dt
    return t_arr[: k + 1], q_arr[: k + 1], qdot_arr[: k + 1], div_time


def run_experiment(cfg: ExperimentConfig) -> TimeSeriesLog:
    """Integrate one experiment; deterministic for identical configurations."""
    _validate_run(cfg)
    model, controller, traj, dist = build_experiment(cfg)
    n = model.n
    r = cfg.values["run"]
    dt = r["dt"]
    res_stride = r["residual_stride"]

    q0 = np.asarray(cfg.get("run", "q0"), dtype=float)
    qdot0 = np.asarray(cfg.get("run", "qdot0"), dtype=float)
    if q0.shape != (n,) or qdot0.shape != (n,):
        raise ConfigError(f"q0/qdot0 must have {n} entries")

    e_idx, tau_l, taus_l, refv_l, s_l, V_l, Vaux_l, th_l, fh_l = [], [], [], [], [], [], [], [], []
    res_t, res_l = [], []
    nan_row = np.full(n, np.nan)  # shared filler; np.vstack copies it

    def sample(k, t, q, qdot, ev, ts):
        e_idx.append(k)
        tau_l.append(ev.tau)
        taus_l.append(ts)
        refv_l.append(ev.extras.get("ref_vel", nan_row))
        s_l.append(ev.extras.get("s", nan_row))
        V, V_aux = lyapunov_diag(controller, model, q, qdot, ev.extras)
        V_l.append(V)
        Vaux_l.append(V_aux)
        th = ev.extras.get("theta_hat")
        th_l.append(None if th is None else np.array(th))
        fh = ev.extras.get("freq_hat")
        fh_l.append(None if fh is None else np.array(fh))
        if res_stride and k % res_stride == 0:
            res_t.append(t)
            res_l.append(
                closed_loop_residual(controller, model, t, q, qdot, ev.tau, ts, ev.extras)
            )

    t_arr, q_arr, qdot_arr, div_time = integrate(
        model, controller, dist, q0, qdot0, dt, int(round(r["duration"] / dt)),
        r["extras_stride"], sample,
    )
    qd_arr = traj.eval_grid(t_arr, 0)
    theta_arr = None
    if th_l and th_l[0] is not None:
        theta_arr = np.vstack(th_l)
    freq_arr = None
    if fh_l and fh_l[0] is not None:
        freq_arr = np.vstack(fh_l)

    return TimeSeriesLog(
        t=t_arr,
        q=q_arr,
        qdot=qdot_arr,
        qd=qd_arr,
        dq=q_arr - qd_arr,
        extras_stride=r["extras_stride"],
        et=np.array(e_idx, dtype=int),
        tau=np.vstack(tau_l),
        tau_star=np.vstack(taus_l),
        ref_vel=np.vstack(refv_l),
        s=np.vstack(s_l),
        V=np.array(V_l),
        V_aux=np.array(Vaux_l),
        theta_hat=theta_arr,
        freq_hat=freq_arr,
        residual_t=np.array(res_t),
        residual=np.array(res_l),
        diverged=div_time is not None,
        divergence_time=div_time,
        meta={
            "variant": controller.variant,
            "dt": dt,
            "duration": r["duration"],
            "csv_decimate": r["csv_decimate"],
        },
    )


def compute_metrics(log: TimeSeriesLog) -> MetricsReport:
    """Windowed RMS tracking statistics and terminal values."""
    n_samples = log.t.size
    if n_samples < 10:
        raise ValueError("log too short for windowed metrics (need >= 10 samples)")
    w = max(1, n_samples // 5)
    norms2 = np.sum(log.dq**2, axis=1)

    def rms(seg):
        return math.sqrt(float(np.mean(seg)))

    tau_norm = np.sqrt(np.sum(log.tau**2, axis=1))
    return MetricsReport(
        rms_dq_first=rms(norms2[:w]),
        rms_dq_last=rms(norms2[-w:]),
        max_torque=float(np.max(tau_norm)) if tau_norm.size else float("nan"),
        final_V=float(log.V[-1]) if log.V.size else float("nan"),
        theta_hat_final=[] if log.theta_hat is None else [float(v) for v in log.theta_hat[-1]],
        freq_hat_final=[] if log.freq_hat is None else [float(v) for v in log.freq_hat[-1]],
        residual_max=float(np.max(log.residual)) if log.residual.size else float("nan"),
        diverged=log.diverged,
        divergence_time=log.divergence_time,
    )


_SWEEP_AXES = ("ell", "kappa")


def sweep(cfg: ExperimentConfig, axis: str, values):
    """One run per axis value; returns [(value, report)].

    ``axis`` is ``ell``, ``kappa`` or ``gain:<name>`` for any key in the
    gains section.
    """
    results = []
    for value in values:
        sub = cfg.copy()
        if axis == "ell":
            if not float(value).is_integer():
                raise ConfigError(f"ell sweep values must be integers, got {value!r}")
            sub.set("controller", "ell", str(int(value)))
        elif axis == "kappa":
            sub.set("gains", "kappa", str(float(value)))
        elif axis.startswith("gain:"):
            sub.set("gains", axis.split(":", 1)[1], str(value))
        else:
            raise ConfigError(f"unknown sweep axis '{axis}'")
        log = run_experiment(sub)
        results.append((value, compute_metrics(log)))
    return results


# -- persistence ---------------------------------------------------------------


def write_log_csv(log: TimeSeriesLog, path):
    """Write the decimated run log as CSV (header row documents the order)."""
    n = log.n
    decim = int(log.meta.get("csv_decimate", 1))
    cols = ["t"]
    cols += [f"q{i+1}" for i in range(n)]
    cols += [f"qdot{i+1}" for i in range(n)]
    cols += [f"qd{i+1}" for i in range(n)]
    cols += [f"dq{i+1}" for i in range(n)]
    cols += [f"z{i+1}" for i in range(n)]
    cols += [f"s{i+1}" for i in range(n)]
    cols += [f"tau{i+1}" for i in range(n)]
    cols += [f"taustar{i+1}" for i in range(n)]
    cols += ["V", "Vaux"]
    p_dim = 0 if log.theta_hat is None else log.theta_hat.shape[1]
    cols += [f"thetahat{i+1}" for i in range(p_dim)]
    f_dim = 0 if log.freq_hat is None else log.freq_hat.shape[1]
    cols += [f"freqhat{i+1}" for i in range(f_dim)]

    lines = [",".join(cols)]
    for j, k in enumerate(log.et):
        if k % decim != 0:
            continue
        row = [_fmt(log.t[k])]
        for arr in (log.q, log.qdot, log.qd, log.dq):
            row += [_fmt(v) for v in arr[k]]
        for arr in (log.ref_vel, log.s, log.tau, log.tau_star):
            row += [_fmt(v) for v in arr[j]]
        row += [_fmt(log.V[j]), _fmt(log.V_aux[j])]
        if log.theta_hat is not None:
            row += [_fmt(v) for v in log.theta_hat[j]]
        if log.freq_hat is not None:
            row += [_fmt(v) for v in log.freq_hat[j]]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(text)


def write_metrics_json(report: MetricsReport, path):
    with open(path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_csv(axis, results, path):
    cols = [
        "axis_value", "rms_dq_first", "rms_dq_last", "max_torque",
        "final_V", "residual_max", "diverged",
    ]
    lines = [",".join(cols)]
    for value, rep in results:
        lines.append(
            ",".join(
                [
                    _fmt(value),
                    _fmt(rep.rms_dq_first),
                    _fmt(rep.rms_dq_last),
                    _fmt(rep.max_torque),
                    _fmt(rep.final_V),
                    _fmt(rep.residual_max) if not math.isnan(rep.residual_max) else "nan",
                    "1" if rep.diverged else "0",
                ]
            )
        )
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
