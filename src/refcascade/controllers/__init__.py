"""Torque-law variants as ODE components, plus trajectory-level diagnostics.

Each variant is one class, which also owns its diagnostics (energy and
closed-loop residual).  ``build_controller`` is the single construction
point used by the experiment harness; ``lyapunov_diag`` and
``closed_loop_residual`` call the diagnostics, which (unlike the torque
laws) may read the true plant model.
"""

from __future__ import annotations

import inspect
from typing import Mapping

from ..manipulator import ArmShape
from .base import ConfigError, ControlEval, ControllerBase, TrajectoryView, per_channel
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
    "TrajectoryView",
    "per_channel",
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
    "variant_options",
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
# every name some variant's constructor takes
_OPTIONS = frozenset().union(*(taken for _, taken in _BY_VARIANT.values()))


def variant_options(variant: str) -> frozenset:
    """The :func:`build_controller` options the variant's constructor takes."""
    if variant not in _BY_VARIANT:
        raise ConfigError(f"unknown controller variant '{variant}'")
    return _BY_VARIANT[variant][1]


def build_controller(variant: str, shape: ArmShape, gains: Mapping, traj, coeffs=None,
                     **options) -> ControllerBase:
    """Construct a controller variant; raises :class:`ConfigError` on misuse.

    ``gains`` is the parsed ``[gains]`` config section, keyed by its config
    keys; a variant reads the gains its law uses and names the key of any
    it refuses.  Each variant's constructor takes the options it names,
    with its own defaults; the others are not passed to it.  An option that
    no variant takes is an error.
    """
    taken = variant_options(variant)
    unknown = sorted(set(options) - _OPTIONS)
    if unknown:
        raise ConfigError(f"unknown controller option(s): {', '.join(unknown)}")
    if "coeffs" in taken:
        if coeffs is None:
            raise ConfigError(f"variant '{variant}' needs a cascade coefficient set")
        options["coeffs"] = coeffs
    cls = _BY_VARIANT[variant][0]
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

