"""Experiment configuration: flat INI-style sections with a typed schema.

Sections are ``model``, ``controller``, ``gains``, ``trajectory``,
``disturbance`` and ``run``.  Every key is declared in :data:`SCHEMA` with a
type, default and help line; unknown sections or keys are rejected, and the
same schema drives ``--set section.key=value`` overrides and the generated
CLI help text.

Vector values are whitespace- or comma-separated floats.  Per-joint signal
lists separate joints with ``;`` and tones within a joint with ``,``; a tone
is written ``amp@omega`` or ``amp@omega:phase``.  Every number must be
finite: ``nan`` and ``inf`` are configuration errors.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field

from .controllers import VARIANTS, ConfigError, per_channel
from .signals import DisturbanceSpec, TrajectorySpec

__all__ = ["SCHEMA", "ExperimentConfig", "load_config", "parse_overrides", "schema_help"]


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float(s):
    v = float(s)
    if not math.isfinite(v):
        raise ValueError(f"not a finite number: {s!r}")
    return v


def _parse_vector(s):
    parts = s.replace(",", " ").split()
    return tuple(_parse_float(p) for p in parts)


def _parse_tones(s):
    """Per-joint tone lists: 'a@w:ph, a@w ; a@w' -> tuple per joint."""
    joints = []
    for joint_part in s.split(";"):
        tones = []
        joint_part = joint_part.strip()
        if joint_part:
            for item in joint_part.split(","):
                item = item.strip()
                if not item:
                    continue
                amp, rest = item.split("@")
                if ":" in rest:
                    omega, phase = rest.split(":")
                else:
                    omega, phase = rest, "0"
                tones.append((_parse_float(amp), _parse_float(omega), _parse_float(phase)))
        joints.append(tuple(tones))
    return tuple(joints)


def _parse_joint_coeffs(s):
    return tuple(_parse_vector(joint_part) for joint_part in s.split(";"))


_PARSERS = {
    "float": _parse_float,
    "int": int,
    "str": str,
    "bool": _parse_bool,
    "vector": _parse_vector,
    "tones": _parse_tones,
    "coeffs": _parse_joint_coeffs,
}

# section -> key -> (type name, default string, help)
SCHEMA = {
    "model": {
        "m1": ("float", "1.0", "link-1 mass [kg]"),
        "m2": ("float", "1.0", "link-2 mass [kg]"),
        "l1": ("float", "1.0", "link-1 length [m]"),
        "l2": ("float", "1.0", "link-2 length [m]"),
        "lc1": ("float", "0.5", "link-1 centroid offset [m]"),
        "lc2": ("float", "0.5", "link-2 centroid offset [m]"),
        "i1": ("float", "0.1", "link-1 rotational inertia [kg m^2]"),
        "i2": ("float", "0.1", "link-2 rotational inertia [kg m^2]"),
        "g0": ("float", "9.81", "gravity constant [m/s^2] (0 disables gravity)"),
    },
    "controller": {
        "variant": ("str", "adaptive", f"one of {', '.join(VARIANTS)}"),
        "ell": ("int", "2", "cascade order parameter (1..6; stacked variants need >= 2)"),
        "n_star": ("int", "1", "number of disturbance tones adapted by stacked_multi"),
        "theta_hat0": ("str", "auto:0.5", "initial/fixed parameter estimate: 'auto:<factor>' of the true vector, or explicit floats"),
        "feedforward_theta": ("str", "auto", "known-variant feedforward parameters: 'auto' (true vector) or explicit floats"),
        "freq_hat0": ("vector", "0", "initial tone-parameter estimates"),
        "freeze_freq": ("bool", "false", "freeze tone adaptation (ablation runs)"),
        "matched_init": ("bool", "true", "pid variant: use the torque-matching initialization"),
    },
    "gains": {
        "k": ("vector", "20", "input-error feedback gain diagonal"),
        "gamma": ("vector", "1", "parameter-adaptation gain diagonal"),
        "lambda_d": ("float", "1.0", "damping injection gain"),
        "lambda": ("float", "10.0", "damping filter rate"),
        "alpha_star": ("float", "2.0", "target-error rate (second-order pair derived as (a^2, 2a))"),
        "lambda_d_star": ("float", "1.0", "filtered-regressor damping gain"),
        "alpha_star_star": ("float", "2.0", "separated-structure target-error rate"),
        "kappa_star": ("float", "2.0", "tone-layer error rate"),
        "gamma_freq": ("vector", "1", "tone-parameter adaptation gain(s)"),
        "kd": ("vector", "20", "PID derivative gain diagonal"),
        "kp": ("vector", "100", "PID proportional gain diagonal"),
        "ki": ("vector", "50", "PID integral gain diagonal"),
        "lam_corr": ("vector", "2", "reference-correction gain diagonal"),
        "alpha": ("float", "4.0", "critically damped cascade rate (before time scaling)"),
        "kappa": ("float", "1.0", "time scale >= 1; the realized cascade rate is alpha * kappa"),
        "hstar_rate": ("float", "2.0", "critically damped tone-layer denominator rate"),
        "hstar_den": ("vector", "", "explicit tone-layer denominator tail (2 n_star floats), overrides hstar_rate"),
    },
    "trajectory": {
        "kind": ("str", "constant", "constant | polynomial | multisine"),
        "coeffs": ("coeffs", "0 ; 0", "polynomial coefficients per joint (low order first)"),
        "tones": ("tones", ";", "tones per joint: amp@omega:phase, ... ; ..."),
        "offset": ("vector", "0 0", "per-joint constant offset"),
    },
    "disturbance": {
        "bias": ("vector", "0 0", "per-joint constant torque bias"),
        "tones": ("tones", ";", "disturbance tones per joint"),
    },
    "run": {
        "dt": ("float", "0.001", "integration step [s]"),
        "duration": ("float", "20.0", "simulated time [s]"),
        "q0": ("vector", "0 0", "initial joint positions [rad]"),
        "qdot0": ("vector", "0 0", "initial joint velocities [rad/s]"),
        "extras_stride": ("int", "1", "steps between derived-quantity samples (torque, estimates, diagnostics)"),
        "csv_decimate": ("int", "10", "steps between persisted CSV rows (multiple of extras_stride)"),
        "residual_stride": ("int", "100", "steps between closed-loop residual checks (multiple of extras_stride; 0 disables)"),
    },
}


# section -> key -> parsed default, parsed once; every parsed value is
# immutable (a number, string, bool or tuple), so loads share them
_DEFAULTS = {
    section: {key: _PARSERS[typ](default) for key, (typ, default, _help) in keys.items()}
    for section, keys in SCHEMA.items()
}


@dataclass
class ExperimentConfig:
    """Typed view of one experiment; ``values[section][key]`` holds parsed data."""

    values: dict = field(default_factory=dict)

    @classmethod
    def defaults(cls):
        return cls({section: dict(keys) for section, keys in _DEFAULTS.items()})

    def get(self, section, key):
        return self.values[section][key]

    def set(self, section, key, raw: str):
        if section not in SCHEMA:
            raise ConfigError(f"unknown config section '{section}'")
        if key not in SCHEMA[section]:
            raise ConfigError(f"unknown config key '{section}.{key}'")
        typ = SCHEMA[section][key][0]
        try:
            self.values[section][key] = _PARSERS[typ](raw)
        except (ValueError, IndexError) as exc:
            raise ConfigError(f"bad value for {section}.{key}: {exc}") from exc

    def is_default(self, section, key) -> bool:
        return self.values[section][key] == _DEFAULTS[section][key]

    def copy(self):
        return ExperimentConfig({s: dict(kv) for s, kv in self.values.items()})

    # -- domain-object builders -------------------------------------------

    def build_trajectory(self, n) -> TrajectorySpec:
        kind = self.get("trajectory", "kind")
        offset = per_channel(self.get("trajectory", "offset"), n, "trajectory.offset")
        if kind == "constant":
            return TrajectorySpec.constant(offset)
        if kind == "polynomial":
            coeffs = _pad_joints(self.get("trajectory", "coeffs"), n, (0.0,))
            return _signal("trajectory", TrajectorySpec.polynomial, coeffs, offset)
        if kind == "multisine":
            tones = _pad_joints(self.get("trajectory", "tones"), n, ())
            return _signal("trajectory", TrajectorySpec.multisine, tones, offset)
        raise ConfigError(f"unknown trajectory kind '{kind}'")

    def build_disturbance(self, n) -> DisturbanceSpec:
        bias = per_channel(self.get("disturbance", "bias"), n, "disturbance.bias")
        tones = _pad_joints(self.get("disturbance", "tones"), n, ())
        return _signal("disturbance", DisturbanceSpec.tones, tones, bias)


def _pad_joints(joints, n, empty):
    joints = tuple(joints)
    if len(joints) == 1:
        return joints * n
    if len(joints) < n:
        joints = joints + (empty,) * (n - len(joints))
    if len(joints) != n:
        raise ConfigError(f"expected signal data for {n} joints, got {len(joints)}")
    return joints


def _signal(section, build, *args):
    """``build(*args)``, with the signal classes' value checks as config errors."""
    try:
        return build(*args)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """Load defaults, then a config file (if given), then overrides."""
    cfg = ExperimentConfig.defaults()
    if path is not None:
        # ';' separates per-joint lists, so only '#' marks inline comments
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
        parser.optionxform = str.lower
        try:
            read = parser.read(path, encoding="utf-8")
        except (configparser.Error, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file {path} is malformed: {exc}") from None
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            if section not in SCHEMA:
                raise ConfigError(f"unknown config section '{section}'")
            for key, raw in parser.items(section):
                cfg.set(section, key, raw)
    for section, key, raw in overrides:
        cfg.set(section, key, raw)
    return cfg


def parse_overrides(pairs):
    """Parse repeated --set section.key=value flags."""
    out = []
    for pair in pairs or ():
        if "=" not in pair or "." not in pair.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {pair!r}")
        target, raw = pair.split("=", 1)
        section, key = target.split(".", 1)
        out.append((section.strip(), key.strip(), raw.strip()))
    return out


def schema_help() -> str:
    lines = ["configuration keys (override with --set section.key=value):"]
    for section, keys in SCHEMA.items():
        lines.append(f"  [{section}]")
        for key, (typ, default, help_) in keys.items():
            lines.append(f"    {key} ({typ}, default {default!r}): {help_}")
    return "\n".join(lines)
