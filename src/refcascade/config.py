"""Experiment configuration: flat INI-style sections with a typed schema.

Sections are ``model``, ``controller``, ``gains``, ``trajectory``,
``disturbance`` and ``run``.  Every key is declared in :data:`SCHEMA` with a
type, default and help line; unknown sections or keys are rejected, and the
same schema drives ``--set section.key=value`` overrides and the generated
CLI help text.

Vector values are whitespace- or comma-separated floats.  Per-joint signal
lists separate joints with ``;`` and tones within a joint with ``,``; a tone
is written ``amp@omega`` or ``amp@omega:phase``.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

import numpy as np

from .controllers import VARIANTS, ConfigError, GainSet
from .signals import DisturbanceSpec, JointSignal, Tone, TrajectorySpec

__all__ = ["SCHEMA", "ExperimentConfig", "load_config", "parse_overrides", "schema_help"]


def _parse_bool(s):
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_vector(s):
    parts = s.replace(",", " ").split()
    return tuple(float(p) for p in parts)


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
                tones.append((float(amp), float(omega), float(phase)))
        joints.append(tuple(tones))
    return tuple(joints)


def _parse_joint_coeffs(s):
    joints = []
    for joint_part in s.split(";"):
        joints.append(tuple(float(x) for x in joint_part.replace(",", " ").split()))
    return tuple(joints)


_PARSERS = {
    "float": float,
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
        "coriolis_sign": ("float", "1.0", "fault-injection knob for the validation self-test; keep at 1"),
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
        "hstar_den": ("str", "", "explicit tone-layer denominator tail (2 n_star floats), overrides hstar_rate"),
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


@dataclass
class ExperimentConfig:
    """Typed view of one experiment; ``values[section][key]`` holds parsed data."""

    values: dict = field(default_factory=dict)

    @classmethod
    def defaults(cls):
        vals = {}
        for section, keys in SCHEMA.items():
            vals[section] = {}
            for key, (typ, default, _help) in keys.items():
                vals[section][key] = _PARSERS[typ](default)
        return cls(vals)

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

    def copy(self):
        return ExperimentConfig({s: dict(kv) for s, kv in self.values.items()})

    # -- domain-object builders -------------------------------------------

    def build_trajectory(self, n) -> TrajectorySpec:
        kind = self.get("trajectory", "kind")
        offset = _pad_vector(self.get("trajectory", "offset"), n)
        if kind == "constant":
            return TrajectorySpec.constant(offset)
        if kind == "polynomial":
            coeffs = _pad_joints(self.get("trajectory", "coeffs"), n, (0.0,))
            return TrajectorySpec(
                [JointSignal(poly=c, offset=o) for c, o in zip(coeffs, offset)]
            )
        if kind == "multisine":
            tones = _pad_joints(self.get("trajectory", "tones"), n, ())
            return TrajectorySpec(
                [
                    JointSignal(tones=tuple(Tone(*t) for t in tl), offset=o)
                    for tl, o in zip(tones, offset)
                ]
            )
        raise ConfigError(f"unknown trajectory kind '{kind}'")

    def build_disturbance(self, n) -> DisturbanceSpec:
        bias = _pad_vector(self.get("disturbance", "bias"), n)
        tones = _pad_joints(self.get("disturbance", "tones"), n, ())
        return DisturbanceSpec(
            [
                JointSignal(tones=tuple(Tone(*t) for t in tl), offset=b)
                for tl, b in zip(tones, bias)
            ]
        )

    def build_gains(self) -> GainSet:
        g = self.values["gains"]

        def squeeze(v):
            return v[0] if isinstance(v, tuple) and len(v) == 1 else v

        hstar_den = None
        if g["hstar_den"].strip():
            hstar_den = _parse_vector(g["hstar_den"])
        return GainSet(
            K=np.asarray(squeeze(g["k"])),
            Gamma=np.asarray(squeeze(g["gamma"])),
            lambda_D=g["lambda_d"],
            lam=g["lambda"],
            alpha_star=g["alpha_star"],
            lambda_D_star=g["lambda_d_star"],
            alpha_star_star=g["alpha_star_star"],
            kappa_star=g["kappa_star"],
            gamma_freq=squeeze(g["gamma_freq"]),
            K_D=np.asarray(squeeze(g["kd"])),
            K_P=np.asarray(squeeze(g["kp"])),
            K_I=np.asarray(squeeze(g["ki"])),
            Lambda=np.asarray(squeeze(g["lam_corr"])),
            hstar_rate=g["hstar_rate"],
            hstar_den=hstar_den,
        )


def _pad_vector(vec, n):
    vec = tuple(vec)
    if len(vec) == 1:
        return vec * n
    if len(vec) != n:
        raise ConfigError(f"expected {n} entries, got {len(vec)}")
    return vec


def _pad_joints(joints, n, empty):
    joints = tuple(joints)
    if len(joints) == 1:
        return joints * n
    if len(joints) < n:
        joints = joints + (empty,) * (n - len(joints))
    if len(joints) != n:
        raise ConfigError(f"expected signal data for {n} joints, got {len(joints)}")
    return joints


def load_config(path=None, overrides=()) -> ExperimentConfig:
    """Load defaults, then a config file (if given), then overrides."""
    cfg = ExperimentConfig.defaults()
    if path is not None:
        # ';' separates per-joint lists, so only '#' marks inline comments
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.optionxform = str.lower
        read = parser.read(path)
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
