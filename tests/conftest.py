import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from refcascade.harness import integrate
from refcascade.manipulator import TwoLinkArm
from refcascade.signals import DisturbanceSpec

# property tests draw the same examples on every run and keep no example
# database; the constants hypothesis caches from the source go to a directory
# removed at exit, so no run writes .hypothesis/
settings.register_profile("refcascade", derandomize=True, deadline=None, database=None)
settings.load_profile("refcascade")
_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="refcascade-hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)


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


def late_map_before_drops(block):
    """A compiled ``LinearBlock``'s late map with the rows it serves by copy
    put back where they were: each a chain shift, a 1.0 in the column after
    its own state."""
    served = block.served
    full = np.zeros((len(block.late_map) + len(served), block.late_map.shape[1]))
    dense = np.ones(len(full), dtype=bool)
    dense[served] = False
    full[dense] = block.late_map
    full[served, served + 1] = 1.0
    return full


@pytest.fixture
def dense_late_map():
    return late_map_before_drops
