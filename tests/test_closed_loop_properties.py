"""The closed-loop identities of AC-9 and the PID equivalence of AC-3 as
properties over drawn settings.

``tests/test_acceptance.py`` checks each at a handful of fixed settings.
Here each example draws only a seed (``draws.py``) and builds from it a
short run through the same config path as ``refcascade run``: gains,
cascade order, tone trajectories and disturbances or ramps and biases, and
initial offsets.  The bounds are the acceptance criteria's own, 1e-9.
"""

import numpy as np
import pytest
from draws import SEEDS
from hypothesis import given, settings

from refcascade.config import load_config
from refcascade.harness import run_experiment

# the laws that define a closed-loop residual (every one but pid_textbook)
RESIDUAL_LAWS = ["adaptive", "plain", "pid", "known", "nldamp", "passive",
                 "filtered_adaptive", "stacked_single", "stacked_multi"]


def _vector(values):
    return " ".join(repr(float(v)) for v in values)


def _tones(rng, amplitude):
    """One or two tones per joint, ``amp@omega:phase``."""
    return " ; ".join(
        ", ".join(f"{rng.uniform(0.0, amplitude)!r}@{rng.uniform(0.2, 2.0)!r}"
                  f":{rng.uniform(-np.pi, np.pi)!r}" for _ in range(rng.integers(1, 3)))
        for _ in range(2))


def _residual_settings(variant, rng):
    """``variant`` at drawn gains, cascade order (and tone count), on a
    drawn tone trajectory and disturbance from drawn initial offsets."""
    ov = [("controller", "variant", variant), ("controller", "ell", str(rng.integers(2, 5))),
          ("gains", "k", _vector(rng.uniform(5.0, 40.0, 2))),
          ("gains", "lam_corr", _vector(rng.uniform(0.5, 5.0, 2))),
          ("gains", "gamma", _vector(rng.uniform(0.2, 5.0, 5))),
          ("gains", "alpha", repr(rng.uniform(1.0, 6.0)))]
    ov += [("gains", key, repr(rng.uniform(0.5, 5.0)))
           for key in ("alpha_star", "alpha_star_star", "kappa_star")]
    if variant == "stacked_multi":
        ov.append(("controller", "n_star", str(rng.integers(1, 3))))
    ov += [("trajectory", "kind", "multisine"), ("trajectory", "tones", _tones(rng, 0.5)),
           ("disturbance", "tones", _tones(rng, 1.0)),
           ("run", "q0", _vector(rng.uniform(-0.3, 0.3, 2))),
           ("run", "qdot0", _vector(rng.uniform(-0.3, 0.3, 2)))]
    return ov


@pytest.mark.parametrize("variant", RESIDUAL_LAWS)
@settings(max_examples=8)
@given(seed=SEEDS)
def test_closed_loop_residual_at_roundoff(variant, seed):
    # AC-9: each law's closed-loop identity holds along any trajectory
    ov = _residual_settings(variant, np.random.default_rng(seed))
    ov += [("run", "dt", "0.001"), ("run", "duration", "0.5"), ("run", "extras_stride", "10"),
           ("run", "csv_decimate", "10"), ("run", "residual_stride", "10")]
    log = run_experiment(load_config(None, ov))
    assert log.residual.size == 51  # t = 0 and every tenth step
    assert np.max(log.residual) <= 1e-9, ov


@settings(max_examples=30)
@given(seed=SEEDS)
def test_pid_forms_give_one_torque(seed):
    # AC-3: the reformulated and the textbook PID law give one torque, on a
    # drawn ramp and bias from a drawn initial state
    rng = np.random.default_rng(seed)
    ov = [("gains", key, _vector(rng.uniform(low, high, 2)))
          for key, low, high in (("kd", 5.0, 40.0), ("kp", 20.0, 200.0), ("ki", 5.0, 100.0))]
    ov += [("trajectory", "kind", "polynomial"),
           ("trajectory", "coeffs", " ; ".join(_vector(rng.uniform(-0.5, 0.5, 2)) for _ in range(2))),
           ("disturbance", "bias", _vector(rng.uniform(-1.0, 1.0, 2))),
           ("run", "q0", _vector(rng.uniform(-0.3, 0.3, 2))),
           ("run", "qdot0", _vector(rng.uniform(-0.3, 0.3, 2))),
           ("run", "dt", "0.002"), ("run", "duration", "1")]
    pid, textbook = (run_experiment(load_config(None, ov + [("controller", "variant", variant)]))
                     for variant in ("pid", "pid_textbook"))
    assert pid.tau.shape == textbook.tau.shape == (501, 2)
    assert np.max(np.abs(pid.tau - textbook.tau)) <= 1e-9, ov
