"""Torque-law variants as ODE components, plus trajectory-level diagnostics.

Each variant is one class, which also owns its diagnostics (energy and
closed-loop residual).  ``build_controller`` is the single construction
point used by the experiment harness; ``lyapunov_diag`` and
``closed_loop_residual`` call the diagnostics, which (unlike the torque
laws) may read the true plant model.
"""

from __future__ import annotations

import inspect

import numpy as np

from ..manipulator import ArmShape
from .base import ConfigError, ControlEval, ControllerBase, GainSet, TrajectoryView
from .basic import (
    AdaptiveCascadeController,
    KnownParamsController,
    NonlinearDampingController,
    PassiveFilterController,
    PidReformulatedController,
    PidTextbookController,
    PlainCascadeController,
)
from .augmented import FilteredAdaptiveController
from .stacked import StackedMultiController, StackedSingleController, hstar_denominator

__all__ = [
    "VARIANTS",
    "ConfigError",
    "ControlEval",
    "ControllerBase",
    "GainSet",
    "TrajectoryView",
    "AdaptiveCascadeController",
    "PlainCascadeController",
    "PidReformulatedController",
    "PidTextbookController",
    "KnownParamsController",
    "NonlinearDampingController",
    "PassiveFilterController",
    "FilteredAdaptiveController",
    "StackedSingleController",
    "StackedMultiController",
    "hstar_denominator",
    "build_controller",
    "lyapunov_diag",
    "closed_loop_residual",
]

# one class per variant, in the order the CLI help lists them
_CLASSES = (
    AdaptiveCascadeController,
    PlainCascadeController,
    PidReformulatedController,
    PidTextbookController,
    KnownParamsController,
    NonlinearDampingController,
    PassiveFilterController,
    FilteredAdaptiveController,
    StackedSingleController,
    StackedMultiController,
)
# variant -> (class, the options its constructor takes)
_BY_VARIANT = {cls.variant: (cls, frozenset(inspect.signature(cls).parameters))
               for cls in _CLASSES}
VARIANTS = tuple(_BY_VARIANT)


def build_controller(
    variant: str,
    shape: ArmShape,
    gains: GainSet,
    traj,
    coeffs=None,
    *,
    theta_hat0=None,
    feedforward_theta=None,
    n_star=1,
    freq_hat0=None,
    freeze_freq=False,
    matched_init=True,
) -> ControllerBase:
    """Construct a controller variant; raises :class:`ConfigError` on misuse.

    Each variant's constructor takes the options it names; the others are
    not passed to it.
    """
    if variant not in _BY_VARIANT:
        raise ConfigError(f"unknown controller variant '{variant}'")
    cls, taken = _BY_VARIANT[variant]
    if cls.needs_coeffs and coeffs is None:
        raise ConfigError(f"variant '{variant}' needs a cascade coefficient set")
    options = dict(
        coeffs=coeffs, theta_hat0=theta_hat0, feedforward_theta=feedforward_theta,
        n_star=n_star, freq_hat0=freq_hat0, freeze_freq=freeze_freq, matched_init=matched_init,
    )
    return cls(shape, gains, traj, **{k: v for k, v in options.items() if k in taken})


def lyapunov_diag(controller, model, q, qdot, extras):
    """Energy-like diagnostics ``(V, V_aux)`` along a trajectory; may read
    the true model.  NaN entries mark a diagnostic the variant does not
    define.  Controllers themselves never call this."""
    return controller.energy(model, q, qdot, extras)


def closed_loop_residual(controller, model, t, q, qdot, tau, tau_star, extras):
    """Residual of the variant's closed-loop identity, or NaN if it has none.

    Evaluated purely from logged signals (the joint acceleration is
    reconstructed through the plant model); the displayed identities hold
    along any trajectory, so these should sit at numerical roundoff.
    """
    return controller.residual(model, q, qdot, tau, tau_star, extras)


def layer_error_residual(extras, alpha_star):
    """Residual of the stacked layer identity psi' = -alpha_star psi + s_aux."""
    psidot = extras["psidot"]
    res = psidot - (-alpha_star * extras["psi"] + extras["s"])
    return float(np.max(np.abs(res)))
