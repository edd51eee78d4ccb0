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
from dataclasses import asdict, dataclass

import numpy as np

from .config import ExperimentConfig, _parse_float, _parse_vector
from .controllers import (
    ConfigError,
    build_controller,
    closed_loop_residual,
    lyapunov_diag,
    variant_options,
)
from .controllers.base import positive
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


@dataclass
class TimeSeriesLog:
    """Per-run record: full-rate plant samples plus strided derived samples."""

    t: np.ndarray
    q: np.ndarray
    qdot: np.ndarray
    qd: np.ndarray
    dq: np.ndarray
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
    csv_decimate: int = 1  # steps between the rows write_log_csv keeps


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


def build_model(cfg: ExperimentConfig) -> TwoLinkArm:
    m = cfg.values["model"]
    params = ArmParams(
        m1=m["m1"], m2=m["m2"], l1=m["l1"], l2=m["l2"],
        lc1=m["lc1"], lc2=m["lc2"], I1=m["i1"], I2=m["i2"], g0=m["g0"],
    )
    try:
        finite = np.isfinite(params.lumped()).all()
    except OverflowError:  # a power out of float range
        finite = False
    if not finite:
        raise ConfigError("model: the lumped parameters overflow or are not finite")
    return TwoLinkArm(params)


def _resolve_theta(spec: str, model, name):
    spec = spec.strip()
    if not spec:
        return None
    try:
        if spec == "auto" or spec.startswith("auto:"):
            factor = 1.0 if spec == "auto" else _parse_float(spec[5:])
            return factor * model.theta
        vals = np.array(_parse_vector(spec))
    except ValueError:
        raise ConfigError(
            f"{name}: expected 'auto', 'auto:<factor>' or finite numbers, got '{spec}'"
        ) from None
    if vals.shape != model.theta.shape:
        raise ConfigError(f"{name}: expected {model.theta.size} entries")
    return vals


@np.errstate(over="ignore", invalid="ignore")  # an overflow is refused, not warned about
def build_experiment(cfg: ExperimentConfig):
    """Instantiate (model, controller, trajectory, disturbance) from a config."""
    model = build_model(cfg)
    n = model.n
    traj = cfg.build_trajectory(n)
    dist = cfg.build_disturbance(n)
    gains = cfg.values["gains"]

    c = cfg.values["controller"]
    ell = c["ell"]
    if not (1 <= ell <= 6):
        raise ConfigError("ell must be between 1 and 6")
    if not gains["kappa"] >= 1.0:
        raise ConfigError("gains.kappa: the time scale must be >= 1")
    rate = positive(gains, "alpha") * gains["kappa"]  # the realized cascade's rate
    try:
        coeffs = critically_damped_coeffs(rate, ell)
    except ValueError as exc:
        raise ConfigError(f"gains.alpha, gains.kappa: cascade coefficients rejected: {exc}") from exc

    # every other key of the section is a constructor option; an option the
    # variant does not take may only keep its default
    taken = variant_options(c["variant"])
    options = {}
    for key, value in c.items():
        if key in ("variant", "ell"):
            continue
        if key not in taken and not cfg.is_default("controller", key):
            raise ConfigError(f"controller.{key} does not apply to variant '{c['variant']}'")
        if key in ("theta_hat0", "feedforward_theta"):
            value = _resolve_theta(value, model, key)
        options[key] = value
    try:
        controller = build_controller(c["variant"], model.shape(), gains, traj, coeffs, **options)
    except OverflowError as exc:  # a product of finite gains, refused by the compiled maps
        raise ConfigError(f"gains: {exc}") from None
    return model, controller, traj, dist


def _validate_run(cfg):
    r = cfg.values["run"]
    if r["dt"] <= 0.0:
        raise ConfigError("dt must be positive")
    if r["duration"] < 10.0 * r["dt"]:
        raise ConfigError("duration must be at least 10 dt")
    if not math.isfinite(r["duration"] / r["dt"]):
        raise ConfigError("run.duration / run.dt overflows")
    if r["extras_stride"] < 1:
        raise ConfigError("extras_stride must be >= 1")
    if r["csv_decimate"] < 1 or r["csv_decimate"] % r["extras_stride"] != 0:
        raise ConfigError("csv_decimate must be a positive multiple of extras_stride")
    if r["residual_stride"] < 0 or r["residual_stride"] % r["extras_stride"] != 0:
        raise ConfigError("residual_stride must be 0 or a positive multiple of extras_stride")


_TABLE_STEPS = 256  # RK4 steps whose stage times one signal table covers


@np.errstate(over="ignore", invalid="ignore")
def integrate(model, controller, dist, q0, qdot0, dt, steps, stride, sample):
    """Advance plant and controller jointly by ``steps`` RK4 steps of ``dt``.

    The state starts at ``(q0, qdot0)`` and the controller's initial state.
    On every ``stride``-th step the controller is observed at the step
    start, ``sample(k, t, q, qdot, ev, tau_star)`` is called with that
    observation, and it doubles as the step's first RK4 stage.  A non-finite
    state ends the run at the time of the step that produced it, without
    numpy's overflow and invalid-value warnings.  The trajectory and the
    disturbance are tabulated over ``_TABLE_STEPS`` steps' stage times at a
    time; no table outlives the call.

    Returns ``(t, q, qdot, divergence_time)``: the plant samples of every
    step reached, and ``None`` unless the run diverged.  Each step stores
    one plant row ``(q, qdot)``; ``q`` and ``qdot`` are column views of
    those rows.
    """
    n = model.n
    p = 2 * n  # the plant's share of the joint state
    x = np.concatenate([q0, qdot0, controller.initial_state(q0, qdot0, 0.0)])
    signals = (controller.traj, dist)
    evaluate, forward_dynamics, disturbance = controller.evaluate, model.forward_dynamics, dist.eval

    def deriv(t, xx):
        q = xx[:n]
        qdot = xx[n:p]
        tau, parts = evaluate(t, q, qdot, xx[p:])
        return np.concatenate((qdot, forward_dynamics(q, qdot, tau, disturbance(t)), *parts))

    try:
        t_arr = np.empty(steps + 1)
        plant_arr = np.empty((steps + 1, p))
    except (ValueError, MemoryError):
        raise ConfigError(f"run.duration / run.dt: {steps:.3g} steps cannot be allocated") from None
    div_time = None
    k = 0
    t = 0.0
    try:
        while True:
            if k % _TABLE_STEPS == 0:
                # the times this loop and rk4_step form, as they form them
                starts = np.arange(k, min(k + _TABLE_STEPS, steps + 1)) * dt
                times = np.concatenate([starts, starts + 0.5 * dt, starts + dt])
                for signal in signals:
                    signal.tabulate(times)
            t_arr[k] = t
            plant_arr[k] = x[:p]

            k1 = None
            if k % stride == 0:
                q = x[:n]
                qdot = x[n:p]
                ev = controller.observe(t, q, qdot, x[p:])
                ts = disturbance(t)
                k1 = np.concatenate([qdot, forward_dynamics(q, qdot, ev.tau, ts), ev.xdot])
                sample(k, t, q, qdot, ev, ts)

            if k >= steps:
                break
            try:
                x = rk4_step(deriv, x, t, dt, k1=k1)
            except NonFiniteStateError:
                div_time = t
                break
            k += 1
            t = k * dt
    finally:
        for signal in signals:
            signal.tabulate(None)
    plant_arr = plant_arr[: k + 1]
    return t_arr[: k + 1], plant_arr[:, :n], plant_arr[:, n:], div_time


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

    # one tuple per sampled step, in TimeSeriesLog's field order from ``et``,
    # less the energies; and the inputs of the energies the log does not hold
    samples, residuals = [], []
    held = {key: [] for key in controller.energy_reads
            if key not in TimeSeriesLog.__dataclass_fields__}
    nan_row = np.full(n, np.nan)  # shared filler; stacking copies it

    def sample(k, t, q, qdot, ev, ts):
        extras = ev.extras
        samples.append((
            k, ev.tau, ts, extras.get("ref_vel", nan_row), extras.get("s", nan_row),
            extras.get("theta_hat"), extras.get("freq_hat"),
        ))
        for key, col in held.items():
            col.append(extras[key])
        if res_stride and k % res_stride == 0:
            residuals.append(
                (t, closed_loop_residual(controller, model, t, q, qdot, ev.tau, ts, extras))
            )

    t_arr, q_arr, qdot_arr, div_time = integrate(
        model, controller, dist, q0, qdot0, dt, int(round(r["duration"] / dt)),
        r["extras_stride"], sample,
    )
    et, tau, tau_star, ref_vel, s, theta_hat, freq_hat = (
        None if col[0] is None else np.array(col) for col in zip(*samples))
    qd_arr = traj.eval_grid(t_arr, 0)
    log = TimeSeriesLog(
        t_arr, q_arr, qdot_arr, qd_arr, q_arr - qd_arr,
        et, tau, tau_star, ref_vel, s, None, None, theta_hat, freq_hat,
        *np.array(residuals, dtype=float).reshape(-1, 2).T,
        diverged=div_time is not None,
        divergence_time=div_time,
        csv_decimate=r["csv_decimate"],
    )
    # the energies once, over the samples stacked along a leading axis
    stacked = {key: np.array(held[key]) if key in held else getattr(log, key)
               for key in controller.energy_reads}
    with np.errstate(over="ignore", invalid="ignore"):  # as in integrate
        log.V, log.V_aux = lyapunov_diag(controller, model, q_arr[et], qdot_arr[et], stacked)
    return log


def compute_metrics(log: TimeSeriesLog) -> MetricsReport:
    """Windowed RMS tracking statistics and terminal values; a log of any
    length has both windows, of at least one sample each."""
    w = max(1, log.t.size // 5)
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


def sweep(cfg: ExperimentConfig, axis: str, values):
    """One run per axis value; returns [(value, report)].

    ``axis`` is ``ell``, ``kappa`` or ``gain:<name>`` for any key in the
    gains section.  Every value is set and built before the first run, so
    a bad value fails before any run time is spent.
    """
    if not (axis in ("ell", "kappa") or axis.startswith("gain:") and axis[5:] in cfg.values["gains"]):
        raise ConfigError(f"unknown sweep axis '{axis}': expected ell, kappa or gain:<gains key>")
    subs = []
    for value in values:
        sub = cfg.copy()
        if axis == "ell":
            if not float(value).is_integer():
                raise ConfigError(f"ell sweep values must be integers, got {value!r}")
            sub.set("controller", "ell", str(int(value)))
        elif axis == "kappa":
            sub.set("gains", "kappa", str(float(value)))
        else:
            sub.set("gains", axis[5:], str(value))
        build_experiment(sub)
        subs.append((value, sub))
    return [(value, compute_metrics(run_experiment(sub))) for value, sub in subs]


# -- persistence ---------------------------------------------------------------


_CSV_BLOCK = 256  # rows formatted and written at a time


def _write_csv(path, header, rows):
    """Write ``rows`` of numbers under ``header``, each value as ``%.17g``:
    a 2-D array or a list of tuples, formatted ``_CSV_BLOCK`` rows at a
    time, so no whole-file text is ever held."""
    fmt = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_BLOCK):
            block = rows[start : start + _CSV_BLOCK]
            if isinstance(block, np.ndarray):
                block = block.tolist()
            fh.write("".join([fmt % tuple(row) for row in block]))


def write_log_csv(log: TimeSeriesLog, path):
    """Write the decimated run log as CSV, one row per kept sample.

    The column table below is the one statement of the file's layout: a
    1-D array is one column, a 2-D array one column per entry, numbered
    from 1.  Plant columns are indexed by step, derived ones by sample.
    """
    j = np.flatnonzero(log.et % log.csv_decimate == 0)
    k = log.et[j]
    table = [
        ("t", log.t[k]), ("q", log.q[k]), ("qdot", log.qdot[k]), ("qd", log.qd[k]),
        ("dq", log.dq[k]), ("z", log.ref_vel[j]), ("s", log.s[j]), ("tau", log.tau[j]),
        ("taustar", log.tau_star[j]), ("V", log.V[j]), ("Vaux", log.V_aux[j]),
    ] + [(name, est[j]) for name, est in (("thetahat", log.theta_hat), ("freqhat", log.freq_hat))
         if est is not None]
    header = []
    for name, arr in table:
        header += [name] if arr.ndim == 1 else [f"{name}{i + 1}" for i in range(arr.shape[1])]
    _write_csv(path, header, np.column_stack([arr for _, arr in table]))


def write_metrics_json(report: MetricsReport, path):
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_sweep_csv(axis, results, path):
    header = [
        "axis_value", "rms_dq_first", "rms_dq_last", "max_torque",
        "final_V", "residual_max", "diverged",
    ]
    _write_csv(path, header, [
        (value, rep.rms_dq_first, rep.rms_dq_last, rep.max_torque, rep.final_V,
         rep.residual_max, rep.diverged)
        for value, rep in results
    ])
