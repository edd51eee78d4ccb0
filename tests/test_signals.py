import math

import numpy as np
import pytest

from refcascade.harness import _TABLE_STEPS
from refcascade.numerics import poly_mul
from refcascade.signals import (
    DisturbanceSpec,
    JointSignal,
    Tone,
    TrajectorySpec,
    annihilator_residual,
    vieta_theta,
)


class TestTrajectory:
    def test_polynomial_derivative_annihilation(self):
        traj = TrajectorySpec.polynomial([(1.0, 2.0, 3.0), (0.5, -1.0, 0.25)])
        assert np.array_equal(traj.eval(1.7, 3), np.zeros(2))

    def test_multisine_second_derivative(self):
        traj = TrajectorySpec.multisine([[(2.0, 3.0, 0.0)], [(1.0, 0.5, 0.7)]])
        t = 0.83
        want0 = -2.0 * 9.0 * np.sin(3.0 * t)
        want1 = -1.0 * 0.25 * np.sin(0.5 * t + 0.7)
        assert np.allclose(traj.eval(t, 2), [want0, want1], atol=1e-12)

    def test_phase_at_zero(self):
        traj = TrajectorySpec.multisine([[(2.0, 1.0, 0.6)]])
        assert abs(traj.eval(0.0, 0)[0] - 2.0 * np.sin(0.6)) < 1e-15

    def test_finite_difference_consistency(self):
        traj = TrajectorySpec(
            [JointSignal(poly=(0.3, -0.1, 0.02, 0.005), tones=(Tone(0.5, 1.3, 0.2),))]
        )
        h = 1e-4
        for k in range(1, 5):
            worst = 0.0
            for t in np.linspace(0.5, 5.0, 23):
                fd = (traj.eval(t + h, k - 1)[0] - traj.eval(t - h, k - 1)[0]) / (2 * h)
                worst = max(worst, abs(fd - traj.eval(t, k)[0]))
            assert worst <= 1e-6

    def test_grid_matches_scalar(self):
        traj = TrajectorySpec(
            [JointSignal(poly=(0.1, 0.2), tones=(Tone(1.0, 2.0, 0.3),), offset=0.5)]
        )
        ts = np.linspace(0.0, 3.0, 11)
        for k in range(4):
            grid = traj.eval_grid(ts, k)
            scalar = np.array([traj.eval(t, k) for t in ts])
            assert np.allclose(grid, scalar, atol=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrajectorySpec([JointSignal(poly=tuple(range(8)))])
        with pytest.raises(ValueError):
            TrajectorySpec([JointSignal(tones=(Tone(1.0, -2.0),))])


class TestDerivs:
    @staticmethod
    def _specs():
        # one tone per joint, several tones on one joint, a toneless joint,
        # offsets and polynomials of different degrees
        yield TrajectorySpec.multisine([[(0.3, 0.5, 0.0)], [(0.2, 1.5, 0.7)]], offsets=[0.1, -0.2])
        yield TrajectorySpec([
            JointSignal(poly=(0.4, 0.25, -0.1), tones=(Tone(0.2, 1.1, 0.3), Tone(0.1, 2.3, -1.0))),
            JointSignal(poly=(-0.2, 0.15), offset=0.05),
            JointSignal(tones=(Tone(0.5, 0.7, 2.0),)),
        ])
        yield DisturbanceSpec.tones([[], [(0.5, 2.0, 0.0), (0.3, 3.0, 1.0)]], bias=[0.4, -0.3])

    def test_rows_equal_eval_bitwise(self):
        for spec in self._specs():
            for t in (0.0, 0.37, 12.5, 59.998):
                rows = spec.derivs(t, 4)
                assert rows.shape == (5, spec.n)
                for k in range(5):
                    assert np.array_equal(rows[k], spec.eval(t, k))

    def test_grid_rows_equal_eval_bitwise(self):
        # the run log's q_d column is one grid evaluation over the sample times
        ts = 0.004 * np.arange(2501)
        extra = [TrajectorySpec.polynomial([[0.3, 0.2, -0.05, 0.01], [-0.1, 0.0, 0.02]]),
                 TrajectorySpec.constant([0.3, -0.2])]
        for spec in list(self._specs()) + extra:
            for k in (0, 1, 3):
                grid = spec.eval_grid(ts, k)
                assert grid.shape == (ts.size, spec.n)
                for t, row in zip(ts, grid):
                    assert np.array_equal(row, spec.eval(t, k))

    def test_repeated_time_returns_independent_arrays(self):
        for spec in self._specs():
            want = spec.derivs(0.7, 2).copy()
            first = spec.derivs(0.7, 2)
            first[:] = 99.0
            assert np.array_equal(spec.derivs(0.7, 2), want)
            v = spec.eval(0.7)
            v[:] = 99.0
            assert np.array_equal(spec.eval(0.7), want[0])

def _reference(spec, t, order):
    """One joint at a time, as plain float arithmetic: the polynomial part
    (the offset plus the constant column, then each further column times its
    power of ``t``, padded to the signal's widest polynomial), plus the
    joint's tones summed in tone order from ``+0.0``."""
    width = max((len(j.poly) for j in spec.joints), default=0) - order
    out = []
    for joint in spec.joints:
        coefs = [joint.poly[k] * math.perm(k, order) if k < len(joint.poly) else 0.0
                 for k in range(order, order + width)]
        value = joint.offset if order == 0 else 0.0
        if coefs:
            value = value + coefs[0]
        tp = t
        for coef in coefs[1:]:
            value += coef * tp
            tp = tp * t
        tones = 0.0
        for tone in joint.tones:
            shift = tone.phase + order * (math.pi / 2.0)
            tones += tone.amp * tone.omega**order * math.sin(tone.omega * t + shift)
        out.append(value + tones)
    return np.array(out)


class TestGrid:
    SPECS = {
        "one_tone_each": lambda: TrajectorySpec.multisine(
            [[(0.3, 0.5, 0.0)], [(-0.2, 1.5, 0.7)]], offsets=[0.1, -0.2]),
        "several_tones": lambda: TrajectorySpec([
            JointSignal(poly=(0.4, 0.25, -0.1), tones=(Tone(0.2, 1.1, 0.3), Tone(0.1, 2.3, -1.0))),
            JointSignal(poly=(-0.2, 0.15), offset=0.05),
            JointSignal(tones=(Tone(0.5, 0.7, 2.0),), offset=-0.3),
        ]),
        "several_tones_bias": lambda: DisturbanceSpec.tones(
            [[], [(0.5, 2.0, 0.0), (-0.3, 3.0, 1.0)]], bias=[0.4, -0.3]),
        "tone_free": lambda: TrajectorySpec.polynomial(
            [[0.3, 0.2, -0.05, 0.01], [-0.1, 0.0, 0.02]], offsets=[0.1, 0.0]),
        "constant": lambda: TrajectorySpec.constant([0.3, -0.2]),
    }
    TIMES = (0.0, 0.37, 1.5, 12.5, 59.998) + tuple(0.004 * np.arange(1, 300))

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_grid_matches_a_per_joint_reference_bitwise(self, name):
        spec = self.SPECS[name]()
        for lo, hi in ((0, 0), (1, 1), (2, 2), (0, 2)):
            grid = spec._grid(self.TIMES, lo, hi)
            assert grid.shape == (len(self.TIMES), hi - lo + 1, spec.n)
            for t, rows in zip(self.TIMES, grid):
                for r, row in enumerate(rows):
                    # tobytes() also tells -0.0 from 0.0
                    assert row.tobytes() == _reference(spec, t, lo + r).tobytes(), (t, lo + r)

    def test_a_negative_zero_offset_under_one_tone_reads_plus_zero(self):
        # the tone sum starts from +0.0, so the -0.0 offset and the tone's
        # -0.0 at t = 0 add to +0.0, with one tone per joint as with several
        spec = TrajectorySpec.multisine([[(-0.3, 1.0, 0.0)], [(0.2, 1.0, 0.0)]], offsets=[-0.0, 0.0])
        assert spec.eval(0.0).tobytes() == np.array([0.0, 0.0]).tobytes()
        several = TrajectorySpec.multisine([[(-0.3, 1.0, 0.0), (-0.1, 2.0, 0.0)], [(0.2, 1.0, 0.0)]],
                                           offsets=[-0.0, 0.0])
        assert several.eval(0.0).tobytes() == np.array([0.0, 0.0]).tobytes()


def _table_specs():
    """One factory per signal kind, so a test can build untabulated twins."""
    return [
        lambda: TrajectorySpec.constant([0.3, -0.2]),
        lambda: TrajectorySpec.polynomial(
            [[0.3, 0.2, -0.05, 0.01, 0.002, -3e-4, 1e-5], [-0.1, 0.0, 0.02]], offsets=[0.1, 0.0]
        ),
        lambda: TrajectorySpec.multisine([[(0.5, 0.5, 0.0)], [(0.5, 0.5, 0.3)]]),
        lambda: TrajectorySpec.multisine(
            [[(0.3, 0.5, 0.0), (0.2, 1.7, -0.4)], [(0.1, 2.3, 1.0), (0.4, 0.9, 0.0), (0.2, 3.1, 0.2)]],
            offsets=[0.1, -0.2],
        ),
        lambda: TrajectorySpec([
            JointSignal(poly=(0.4, 0.25, -0.1), tones=(Tone(0.2, 1.1, 0.3), Tone(0.1, 2.3, -1.0))),
            JointSignal(tones=(Tone(0.5, 0.7, 2.0),)),
        ]),
        lambda: DisturbanceSpec.tones([[(2.0, 1.3, 0.4), (2.0, 2.1, 0.0)], [(0.5, 2.0, 1.2)]],
                                      bias=[0.5, -0.3]),
        lambda: DisturbanceSpec.zero(2),
    ]


class TestTables:
    # the order ranges the controllers and the harness read: eval(t, 0),
    # eval(t, 1) and derivs(t, 0..2), plus single higher orders
    RANGES = ((0, 0), (1, 1), (0, 1), (0, 2), (2, 2), (3, 3))

    @pytest.mark.parametrize("dt", [0.002, 0.004])
    @pytest.mark.parametrize("make", _table_specs())
    def test_table_rows_equal_rows_bitwise(self, make, dt):
        # integrate's blocks and stage-time expressions, over two blocks and
        # part of a third; tobytes() also tells -0.0 from 0.0
        steps = 2 * _TABLE_STEPS + 10
        spec, twin = make(), make()
        for k in range(steps):
            if k % _TABLE_STEPS == 0:
                starts = np.arange(k, min(k + _TABLE_STEPS, steps + 1)) * dt
                spec.tabulate(np.concatenate([starts, starts + 0.5 * dt, starts + dt]))
            t = k * dt
            for tt in (t, t + 0.5 * dt, t + dt):
                for lo, hi in self.RANGES:
                    got = spec._rows(tt, lo, hi)
                    assert tt in spec._table[(lo, hi)]
                    assert got.tobytes() == twin._rows(tt, lo, hi).tobytes()

    def test_table_rows_are_read_only(self):
        # rows are served as views of the table, not copies, so no caller
        # can change what a later evaluation at the same time reads
        for make in _table_specs():
            spec, twin = make(), make()
            spec.tabulate([0.5, 1.0])
            for row in (spec.derivs(0.5, 2), spec.eval(0.5, 1), spec.derivs(1.0, 0)[0]):
                with pytest.raises(ValueError, match="read-only"):
                    row[...] = 99.0
                with pytest.raises(ValueError, match="read-only"):
                    row += 1.0
            assert spec.derivs(0.5, 2).tobytes() == twin.derivs(0.5, 2).tobytes()
            assert spec.eval(0.5, 1).tobytes() == twin.eval(0.5, 1).tobytes()
            assert spec.derivs(1.0, 0).tobytes() == twin.derivs(1.0, 0).tobytes()

    def test_off_grid_and_dropped_tables_compute(self):
        # for every signal kind, an off-table time is the matching row of a
        # many-time grid
        for make in _table_specs():
            spec, twin = make(), make()
            spec.tabulate([0.0, 0.25, 0.5])
            for lo, hi in self.RANGES:
                grid = twin._grid([0.1, 0.3, 41.7], lo, hi)
                for t, row in zip((0.1, 0.3, 41.7), grid):
                    assert spec._rows(t, lo, hi).tobytes() == row.tobytes()
            assert spec.eval(0.3).tobytes() == twin.eval(0.3).tobytes()
            spec.tabulate(None)
            assert spec._table == {}
            assert spec.derivs(0.25, 2).tobytes() == twin.derivs(0.25, 2).tobytes()


class TestDisturbance:
    def test_empty_is_zero(self):
        dist = DisturbanceSpec.zero(2)
        assert np.array_equal(dist.eval(3.2), np.zeros(2))

    def test_bias_only_constant(self):
        dist = DisturbanceSpec.tones([[], []], bias=[0.4, -0.2])
        for t in (0.0, 1.0, 7.7):
            assert np.array_equal(dist.eval(t), [0.4, -0.2])

    def test_single_tone_annihilator_identity(self):
        dist = DisturbanceSpec.tones([[(1.5, 2.0, 0.3)], []])
        for t in np.linspace(0, 5, 17):
            val = dist.eval(t, 2) + 4.0 * dist.eval(t, 0)
            assert np.max(np.abs(val)) < 1e-10

    def test_n_star_counts_distinct(self):
        dist = DisturbanceSpec.tones([[(1.0, 2.0, 0.0), (0.5, 1.0, 0.1)], [(0.7, 2.0, 0.4)]])
        assert dist.n_star == 2
        assert np.allclose(dist.frequencies(), [1.0, 2.0])


class TestVieta:
    def test_single_frequency(self):
        assert np.allclose(vieta_theta([3.0]), [9.0])

    def test_two_frequencies(self):
        theta = vieta_theta([1.0, 2.0])
        assert np.allclose(theta, [4.0, 5.0])

    def test_three_frequencies(self):
        theta = vieta_theta([1.0, 2.0, 3.0])
        assert np.allclose(theta, [36.0, 49.0, 14.0])

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3001)
        for _ in range(100):
            freqs = rng.uniform(0.2, 5.0, int(rng.integers(1, 5)))
            brute = np.array([1.0])
            for w in freqs:
                brute = poly_mul(brute, [w * w, 1.0])
            theta = vieta_theta(freqs)
            rel = np.abs(theta - brute[:-1]) / np.abs(brute[:-1])
            assert np.max(rel) <= 1e-12

    def test_positive_for_positive_frequencies(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            theta = vieta_theta(rng.uniform(0.1, 4.0, 3))
            assert np.all(theta > 0.0)


class TestAnnihilator:
    def _spec(self):
        return DisturbanceSpec.tones(
            [[(0.5, 1.3, 0.2), (0.3, 2.1, 0.0)], [(0.4, 2.1, 1.0)]]
        )

    def test_matched_parameters_zero_residual(self):
        theta = vieta_theta([1.3, 2.1])
        for t in np.linspace(0, 10, 40):
            assert np.max(np.abs(annihilator_residual(self._spec(), theta, t))) <= 1e-10

    def test_perturbed_parameters_nonzero(self):
        theta = vieta_theta([1.3, 2.1]) * 1.1
        worst = max(
            np.max(np.abs(annihilator_residual(self._spec(), theta, t)))
            for t in np.linspace(0, 10, 40)
        )
        assert worst > 1e-3

    def test_zero_signal_zero_residual(self):
        spec = DisturbanceSpec.zero(2)
        assert np.array_equal(annihilator_residual(spec, [4.0, 5.0], 1.1), np.zeros(2))

    def test_rejects_bias(self):
        spec = DisturbanceSpec.tones([[], []], bias=[1.0, 0.0])
        with pytest.raises(ValueError):
            annihilator_residual(spec, [1.0], 0.0)

    def test_subset_of_tones_annihilated(self):
        # parameters built from two frequencies kill any mix drawn from them
        theta = vieta_theta([0.9, 1.7])
        for tones in ([[(1.0, 0.9, 0.0)], []], [[(1.0, 1.7, 0.3)], [(0.2, 0.9, 0.1)]]):
            spec = DisturbanceSpec.tones(tones)
            worst = max(
                np.max(np.abs(annihilator_residual(spec, theta, t)))
                for t in np.linspace(0, 8, 20)
            )
            assert worst <= 1e-10
