"""refcascade: order-raising reference-dynamics control of robot manipulators.

A simulation library and CLI for torque-level manipulator control built
around high-order reference dynamics realized as first-order cascades,
including robust and adaptive torque laws and stacked structures that adapt
to unknown disturbance tone frequencies.
"""

from .manipulator import ArmParams, ArmShape, TwoLinkArm
from .numerics import NonFiniteStateError, rk4_step, routh_hurwitz
from .refdyn import HurwitzCoeffs, ReferenceConfig, critically_damped_coeffs
from .signals import DisturbanceSpec, JointSignal, Tone, TrajectorySpec, vieta_theta

__version__ = "0.1.0"

__all__ = [
    "ArmParams",
    "ArmShape",
    "TwoLinkArm",
    "NonFiniteStateError",
    "rk4_step",
    "routh_hurwitz",
    "HurwitzCoeffs",
    "ReferenceConfig",
    "critically_damped_coeffs",
    "DisturbanceSpec",
    "JointSignal",
    "Tone",
    "TrajectorySpec",
    "vieta_theta",
    "__version__",
]
