import numpy as np
import pytest

from refcascade.harness import integrate
from refcascade.manipulator import TwoLinkArm
from refcascade.signals import DisturbanceSpec


@pytest.fixture
def model():
    return TwoLinkArm()


def run_closed_loop(model, controller, dist, duration, dt=1e-3, sample_stride=50):
    """Integrate plant + controller jointly, returning per-sample records.

    Each record is (t, q, qdot, eval) with the controller evaluation taken at
    a sampled state, every ``sample_stride`` steps.  The run starts on the
    desired trajectory, at rest where the controller may not read the
    desired velocity.
    """
    q0 = controller.traj.eval(0.0, 0)
    qdot0 = controller.traj.eval(0.0, 1) if controller.traj.max_order >= 1 else np.zeros(model.n)
    records = []
    integrate(
        model, controller, dist, q0, qdot0, dt, int(round(duration / dt)), sample_stride,
        lambda k, t, q, qdot, ev, ts: records.append((t, q.copy(), qdot.copy(), ev)),
    )
    return records


@pytest.fixture
def loop_runner():
    return run_closed_loop


@pytest.fixture
def no_disturbance():
    return DisturbanceSpec.zero(2)
