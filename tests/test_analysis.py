import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renormdiff.analysis import compare, envelope, growth_slope, running_max, zero_crossing_period
from renormdiff.oracle import Trajectory


def sampled(f, dt, t_max):
    t = np.arange(0.0, t_max, dt)
    return Trajectory(dt, f(t))


class TestCompare:
    def test_identical_trajectories(self):
        traj = sampled(np.cos, 0.01, 30.0)
        profile = compare(traj, traj)
        assert profile.max_abs == 0.0
        assert profile.slope == 0.0

    def test_constant_offset(self):
        a = sampled(np.cos, 0.01, 30.0)
        b = Trajectory(a.dt, a.values + 0.25)
        profile = compare(a, b)
        assert profile.max_abs == pytest.approx(0.25)
        assert abs(profile.slope) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        a = Trajectory(0.1, rng.normal(size=100))
        b = Trajectory(0.1, rng.normal(size=100))
        assert compare(a, b).max_abs == compare(b, a).max_abs

    def test_growing_gap_has_positive_slope(self):
        t = np.arange(0.0, 50.0, 0.01)
        a = Trajectory(0.01, np.cos(t))
        b = Trajectory(0.01, np.cos(t) + 0.01 * t)
        assert compare(a, b).slope == pytest.approx(0.01, rel=0.05)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare(Trajectory(0.1, np.zeros(5)), Trajectory(0.1, np.zeros(6)))

    def test_dt_mismatch(self):
        with pytest.raises(ValueError):
            compare(Trajectory(0.1, np.zeros(5)), Trajectory(0.2, np.zeros(5)))


class TestSlope:
    @settings(max_examples=200, deadline=None)
    @given(
        y=st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=400).map(np.array),
        dt=st.floats(1e-4, 1.5),
        swap=st.booleans(),
    )
    # A subnormal series, and a normal one whose products in the fit are subnormal.
    @example(y=np.array([0.0, 2.2250738585e-313]), dt=1.0, swap=False)
    @example(y=np.array([0.0, 1e-307]), dt=1e-4, swap=False)
    def test_slope_is_polyfit_to_rounding(self, y, dt, swap):
        traj, zero = Trajectory(dt, y), Trajectory(dt, np.zeros(y.size))
        got = (compare(zero, traj) if swap else compare(traj, zero)).slope
        fitted = np.maximum.accumulate(np.abs(y))  # what compare fits
        t = np.arange(y.size) * dt
        want = float(np.polyfit(t, fitted, 1)[0])
        tc = t - t.mean()
        floor = 2 * math.ulp(0.0) * (1 + y.size / (tc * tc).sum())
        assert abs(got - want) <= 1e-13 * fitted.max() / (t[-1] - t[0]) + floor


class TestRunningMax:
    @pytest.mark.parametrize("block", [1, 7, 64, 1000])
    def test_blockwise_from_the_last_entry_is_the_whole(self, block):
        rng = np.random.default_rng(6)
        diffs = np.abs(rng.normal(size=1000)) * np.linspace(1.0, 3.0, 1000)
        # Each block copied into place, then run in place from the entry before it.
        out = np.empty_like(diffs)
        for lo in range(0, diffs.size, block):
            out[lo : lo + block] = diffs[lo : lo + block]
            carried = out[max(lo - 1, 0) : lo + block]
            assert running_max(carried, out=carried) is carried
        assert out.tobytes() == np.maximum.accumulate(diffs).tobytes()

    def test_growth_slope_is_compares_and_overwrites_its_input(self):
        rng = np.random.default_rng(7)
        a = Trajectory(0.01, rng.normal(size=500))
        b = Trajectory(0.01, rng.normal(size=500))
        running = running_max(np.abs(a.values - b.values))
        slope = growth_slope(0.01, running)
        assert repr(slope) == repr(compare(a, b).slope)
        assert abs(running.sum()) > 0.0 and not np.all(np.diff(running) >= 0.0)


class TestZeroCrossingPeriod:
    def test_cosine_period(self):
        traj = sampled(np.cos, 0.01, 60.0)
        est = zero_crossing_period(traj)
        assert est.mean_period == pytest.approx(2 * np.pi, rel=1e-4)
        assert est.crossings >= 8

    def test_constant_trajectory_rejected(self):
        with pytest.raises(ValueError):
            zero_crossing_period(Trajectory(0.01, np.ones(1000)))

    def test_scaling_invariance(self):
        traj = sampled(np.cos, 0.01, 60.0)
        scaled = Trajectory(traj.dt, 7.3 * traj.values)
        assert zero_crossing_period(scaled).mean_period == pytest.approx(
            zero_crossing_period(traj).mean_period, rel=1e-14
        )

    def test_frequency_shifted_signal(self):
        omega = 1.01875
        traj = sampled(lambda t: np.cos(omega * t), 0.005, 80.0)
        est = zero_crossing_period(traj)
        assert est.mean_period == pytest.approx(2 * np.pi / omega, rel=1e-5)
        assert est.std_period <= 1e-4


class TestEnvelope:
    def test_cosine_peaks_at_one(self):
        traj = sampled(np.cos, 0.01, 60.0)
        peaks = envelope(traj)
        assert np.all(np.abs(peaks[:, 1] - 1.0) <= 1e-6)
        assert np.all(np.diff(peaks[:, 0]) > 0)  # time ordered

    def test_exponential_envelope_slope(self):
        traj = sampled(lambda t: np.exp(0.01 * t) * np.cos(t), 0.01, 200.0)
        peaks = envelope(traj)
        slope = np.polyfit(peaks[:, 0], np.log(peaks[:, 1]), 1)[0]
        assert slope == pytest.approx(0.01, rel=0.02)

    def test_scaling_property(self):
        traj = sampled(np.cos, 0.01, 60.0)
        scaled = Trajectory(traj.dt, 3.0 * traj.values)
        assert np.allclose(envelope(scaled)[:, 1], 3.0 * envelope(traj)[:, 1])

    def test_too_few_peaks(self):
        with pytest.raises(ValueError):
            envelope(Trajectory(0.01, np.linspace(0.0, 1.0, 50)))
