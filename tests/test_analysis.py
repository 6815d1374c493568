import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from renormdiff.analysis import (GrowthFit, Oscillation, compare, envelope, growth_slope,
                                 running_max, zero_crossing_period)
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


def _reference_period(z, dt):
    """zero_crossing_period's elementwise arithmetic on the whole array, as
    one pass: the mean gap, or the refusal's message."""
    idx = np.nonzero((z[:-1] < 0.0) & (z[1:] >= 0.0))[0]
    if idx.size < 4:
        return f"too few upward zero crossings ({idx.size}) for a period estimate"
    gaps = np.diff((idx + z[idx] / (z[idx] - z[idx + 1])) * dt)
    return float((gaps[1:-1] if gaps.size >= 3 else gaps).mean())


def _reference_envelope(z, dt):
    """envelope's parabolic refinement of every peak on the whole array, as
    one pass, or the refusal's message."""
    mag = np.abs(z)
    peaks = np.flatnonzero((mag[1:-1] > mag[:-2]) & (mag[1:-1] >= mag[2:])) + 1
    if peaks.size < 2:
        return f"too few peaks ({peaks.size}) for an envelope"
    y_minus, y_center, y_plus = mag[peaks - 1], mag[peaks], mag[peaks + 1]
    curvature = y_minus - 2.0 * y_center + y_plus
    safe = np.where(curvature != 0.0, curvature, 1.0)
    offset = np.where(curvature != 0.0, 0.5 * (y_minus - y_plus) / safe, 0.0)
    refined = y_center - 0.25 * (y_minus - y_plus) * offset
    return np.column_stack([(peaks + offset) * dt, refined])


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return str(exc)


# Samples with ties and signed zeros, so that >= and < meet equal neighbours.
_SAMPLE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5]) | st.floats(-1e3, 1e3)


@st.composite
def blocked_trajectories(draw):
    """A trajectory and the sizes of the blocks it is fed in, with a crossing
    or a peak placed at, or one step either side of, each block boundary."""
    z = np.array(draw(st.lists(_SAMPLE, min_size=1, max_size=300)), dtype=float)
    cuts = sorted(draw(st.sets(st.integers(1, max(z.size - 1, 1)), max_size=12)))
    cuts = [c for c in cuts if c < z.size]
    for cut in cuts:
        at = cut + draw(st.sampled_from([-1, 0, 1]))
        size = draw(st.floats(0.1, 10.0))
        if draw(st.booleans()):  # an upward crossing between at - 1 and at
            if 1 <= at < z.size:
                z[at - 1], z[at] = -size, draw(st.sampled_from([0.0, size]))
        elif 1 <= at < z.size - 1:  # a peak of |z| at at
            z[at - 1 : at + 2] = [size / 2, -size, draw(st.sampled_from([size, size / 3]))]
    sizes = np.diff([0, *cuts, z.size])
    return z, [int(s) for s in sizes if s]


class TestStreamedShape:
    """Oscillation fed a trajectory in blocks of any sizes gives the period,
    the limit amplitude and their refusals of the whole, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(case=blocked_trajectories(), dt=st.floats(1e-3, 1.5))
    @example(case=(np.array([-1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0]),
                   [1, 1, 2, 1, 5]), dt=0.5)
    def test_blockwise_is_the_whole(self, case, dt):
        z, sizes = case
        fed = Oscillation(dt, keep=5)
        kept_all = Oscillation(dt)
        lo = 0
        for size in sizes:
            fed.add(z[lo : lo + size])
            kept_all.add(z[lo : lo + size])
            lo += size
        assert lo == z.size
        whole = Trajectory(dt, z)
        period = _outcome(lambda: zero_crossing_period(whole).mean_period)
        assert repr(_outcome(lambda: fed.period().mean_period)) == repr(period)
        assert repr(period) == repr(_reference_period(z, dt))
        limit = _outcome(lambda: float(envelope(whole)[-5:, 1].mean()))
        assert repr(_outcome(lambda: float(fed.envelope()[-5:, 1].mean()))) == repr(limit)
        peaks = _outcome(lambda: envelope(whole))
        reference = _reference_envelope(z, dt)
        if isinstance(reference, str):
            assert peaks == reference == _outcome(kept_all.envelope)
        else:
            assert peaks.tobytes() == reference.tobytes() == kept_all.envelope().tobytes()


class TestStreamedSlope:
    """GrowthFit fed in blocks of any sizes is np.polyfit's slope within
    growth_slope's stated bound, for each of the sequences it fits at once."""

    @settings(max_examples=300, deadline=None)
    @given(y=st.lists(st.floats(0.0, 1e6), min_size=2, max_size=400).map(np.array),
           dt=st.floats(1e-4, 1.5), data=st.data())
    @example(y=np.array([0.0, 2.2250738585e-313]), dt=1.0, data=None)
    def test_blockwise_slope_is_polyfit_to_rounding(self, y, dt, data):
        cuts = sorted(data.draw(st.sets(st.integers(1, y.size - 1), max_size=10))) if data else []
        fitted = [np.maximum.accumulate(y), np.maximum.accumulate(y[::-1]).copy()]
        work = [f.copy() for f in fitted]
        fit = GrowthFit(dt, y.size, 2)
        for lo, hi in zip([0, *cuts], [*cuts, y.size]):
            fit.add(lo, work[0][lo:hi], work[1][lo:hi])
        t = np.arange(y.size) * dt
        tc = t - t.mean()
        floor = 2 * math.ulp(0.0) * (1 + y.size / (tc * tc).sum())
        for got, series in zip(fit.slopes(), fitted, strict=True):
            want = float(np.polyfit(t, series, 1)[0])
            assert abs(got - want) <= 1e-13 * series.max() / (t[-1] - t[0]) + floor
