import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from renormdiff import oracle
from renormdiff.analysis import envelope
from renormdiff.lineardiff import (
    RootConvention,
    Scheme,
    SchemeParams,
    characteristic_roots,
    scheme_residual,
)
from renormdiff.oracle import (
    _GUARD_BLOCK,
    DivergenceError,
    OracleState,
    SingularStepError,
    Trajectory,
    iterate,
)
from renormdiff.perturbation import CUBIC, VAN_DER_POL, Variant, nonlinearity_value, vdp_scale

FIRST = RootConvention.FIRST_ORDER
EXACT = RootConvention.EXACT_UNIT_MODULUS


def params(dt, eps=0.0, convention=EXACT):
    return SchemeParams(dt=dt, eps=eps, root_convention=convention)


def large_eps(dt, eps):
    """params(dt, eps) without the warning that eps > 0.5 is large."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return params(dt, eps=eps)


def zeroth_order_data(a0, params):
    """The zeroth-order initial data z(0) = 2 Re(a0), z(1) = 2 Re(a0 lam_p).

    The oracle's own tests start from the homogeneous solution under either
    root convention, so the steps and values they pin do not depend on the
    package's first-order bridge (asymptotic.init_from_amplitude).
    """
    a0 = complex(a0)
    return 2.0 * a0.real, 2.0 * (a0 * characteristic_roots(params)[0]).real


def closed_form(a0, params, n_max):
    lam, _ = characteristic_roots(params)
    n = np.arange(n_max + 1)
    return 2.0 * np.real(a0 * np.exp(n * np.log(lam)))


class TestTrajectory:
    def test_times(self):
        traj = Trajectory(0.5, np.array([1.0, 2.0, 3.0]))
        assert np.allclose(traj.times, [0.0, 0.5, 1.0])

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Trajectory(0.1, np.array([1.0, np.inf]))

    @pytest.mark.parametrize("values", [[], [[1.0, 2.0], [3.0, 4.0]]], ids=["empty", "2-d"])
    def test_rejects_empty_or_not_one_dimensional(self, values):
        with pytest.raises(ValueError, match="non-empty one-dimensional"):
            Trajectory(0.1, values)

    def test_values_read_only(self):
        traj = Trajectory(0.1, np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            traj.values[0] = 0.0


class TestIterate:
    def test_linear_scheme_reproduces_exact_closed_form(self):
        p = params(0.1)
        z0, z1 = zeroth_order_data(0.5, p)
        traj = iterate(CUBIC, p, z0, z1, 10_000)
        expected = closed_form(0.5, p, 10_000)
        scale = np.abs(expected).max()
        assert np.max(np.abs(traj.values - expected)) <= 1e-8 * scale

    def test_first_order_root_closed_form_drifts(self):
        # the first-order roots miss the characteristic polynomial by
        # O(dt^3) per step; that defect is resonant, so the gap to the exact
        # iteration grows roughly linearly in n (slope ~ dt^2 |a| / 2) and
        # shrinks when dt does
        drifts = {}
        for dt in (0.02, 0.01):
            p = params(dt, convention=FIRST)
            z0, z1 = zeroth_order_data(0.5, p)
            traj = iterate(CUBIC, p, z0, z1, 800)
            err = np.abs(traj.values - closed_form(0.5, p, 800))
            drifts[dt] = np.maximum.accumulate(err)
        for dt, run in drifts.items():
            assert run[800] >= 5.0 * run[100]  # sustained growth across n
        assert drifts[0.02][-1] > 2.0 * drifts[0.01][-1]

    def test_cubic_oscillation_stays_bounded(self):
        p = params(0.01, eps=0.05)
        traj = iterate(CUBIC, p, 1.0, math.cos(0.01), 100_000)
        assert np.abs(traj.values).max() < 2.0

    def test_linear_regime_no_energy_growth(self):
        p = params(0.1)
        z0, z1 = zeroth_order_data(0.5, p)
        traj = iterate(CUBIC, p, z0, z1, 100_000)
        early_max = np.abs(traj.values[:1001]).max()
        assert np.abs(traj.values).max() <= 1.001 * early_max

    def test_determinism(self):
        p = params(0.01, eps=0.05)
        t1 = iterate(VAN_DER_POL, p, 0.2, 0.2, 5000)
        t2 = iterate(VAN_DER_POL, p, 0.2, 0.2, 5000)
        assert np.array_equal(t1.values, t2.values)

    def test_too_few_steps_rejected(self):
        with pytest.raises(ValueError):
            iterate(CUBIC, params(0.1), 1.0, 1.0, 1)

    def test_divergence_detected(self):
        p = params(0.1, eps=0.4)
        with pytest.raises(DivergenceError):
            iterate(CUBIC, p, 1e4, 1e4, 100)

    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    def test_nan_stops_at_the_guard(self, kind):
        with pytest.raises(DivergenceError, match=r"z\(1\)"):
            iterate(kind, params(0.1, eps=0.1), 1.0, math.nan, 10)

    def test_singular_step_detected(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = SchemeParams(dt=1.6, eps=0.625)
        # 1 - eps*dt*(1 - z^2) vanishes at z = 0
        with pytest.raises(SingularStepError):
            iterate(VAN_DER_POL, p, 1.0, 0.0, 10)

    def test_vdp_envelope_monotone_toward_two(self):
        p = params(0.005, eps=0.05)
        n_steps = int(150 / p.dt)
        for a0 in (0.1, 1.5):  # start below and above the limit cycle
            z0, z1 = zeroth_order_data(a0, p)
            traj = iterate(VAN_DER_POL, p, z0, z1, n_steps)
            peaks = envelope(traj)[:, 1]
            coarse = peaks[:: max(1, peaks.size // 30)]
            gaps = np.abs(coarse - 2.0)
            # approach is monotone up to envelope-estimation noise
            assert np.all(np.diff(gaps) <= 0.02)
            assert gaps[-1] < 0.1


class TestMickens:
    def test_eps_zero_reproduces_cosine(self):
        h = 0.1
        mick = SchemeParams(dt=h, eps=0.0, scheme=Scheme.MICKENS)
        traj = iterate(CUBIC, mick, 1.0, math.cos(h), 10_000)
        expected = np.cos(np.arange(10_001) * h)
        assert np.max(np.abs(traj.values - expected)) <= 1e-9

    def test_zero_data_stays_zero(self):
        traj = iterate(CUBIC, SchemeParams(dt=0.3, eps=0.0, scheme=Scheme.MICKENS), 0.0, 0.0, 100)
        assert np.all(traj.values == 0.0)

    def test_gap_to_plain_scheme_is_second_order(self):
        gaps = []
        for h in (0.1, 0.05, 0.025):
            n = int(20 / h)
            mick = iterate(
                CUBIC, SchemeParams(dt=h, eps=0.0, scheme=Scheme.MICKENS), 1.0, math.cos(h), n
            )
            plain = iterate(CUBIC, params(h), 1.0, math.cos(h), n)
            gaps.append(np.max(np.abs(mick.values - plain.values)))
        assert gaps[0] / gaps[1] == pytest.approx(4.0, rel=0.15)
        assert gaps[1] / gaps[2] == pytest.approx(4.0, rel=0.15)

    def test_step_bounds(self):
        with pytest.raises(ValueError):
            iterate(CUBIC, SchemeParams(dt=math.pi, eps=0.0, scheme=Scheme.MICKENS), 1.0, 1.0, 10)
        with pytest.raises(ValueError):
            iterate(CUBIC, SchemeParams(dt=-0.1, eps=0.0, scheme=Scheme.MICKENS), 1.0, 1.0, 10)

    def test_vdp_variant_runs_and_saturates(self):
        h = 0.01
        mick = SchemeParams(dt=h, eps=0.05, scheme=Scheme.MICKENS)
        traj = iterate(VAN_DER_POL, mick, 0.2, 0.2, int(250 / h))
        peaks = envelope(traj)[:, 1]
        assert peaks[-1] == pytest.approx(2.0, rel=0.05)


def _step_cubic(z, zm, lin, gain):
    return lin * z - zm - gain * z * z * z


def _step_vdp(z, zm, lin, gain):
    w = gain * (1.0 - z * z)
    lead = 1.0 - w
    if abs(lead) < 1e-12:
        raise SingularStepError("implicit coefficient vanished")
    return (lin * z - zm - w * zm) / lead


def _reference_iterate(kind, p, z0, z1, n_steps, guard=True):
    """The oracle as one loop over a step function, the form the inline loops
    replace; without the guard it runs to the end and returns every value."""
    omega, eps = p.omega, p.eps
    lin = 2.0 - p.mu
    if kind is Variant.CUBIC:
        step, gain = _step_cubic, eps * omega * omega
    else:
        step, gain = _step_vdp, eps * vdp_scale(p)
    values = np.empty(n_steps + 1, dtype=float)
    values[0] = zm = float(z0)
    values[1] = z = float(z1)
    for n in (0, 1) if guard else ():
        if not abs(values[n]) <= 1e8:
            raise DivergenceError(f"|z({n})| = {abs(float(values[n]))} exceeded {1e8}")
    try:
        for n in range(1, n_steps):
            zp = step(z, zm, lin, gain)
            if guard and not abs(zp) <= 1e8:
                raise DivergenceError(f"|z({n + 1})| = {abs(zp)} exceeded {1e8}")
            values[n + 1] = zp
            zm, z = z, zp
    except SingularStepError:
        raise SingularStepError(f"implicit coefficient vanished at n={n}") from None
    return values


def _raised(fn, *args):
    try:
        fn(*args)
    except (DivergenceError, SingularStepError) as exc:
        return type(exc), str(exc)
    raise AssertionError("no numerical failure raised")


class TestReferenceLoop:
    """The inline loops write the bytes of the step-function loop."""

    @pytest.mark.parametrize(
        "kind, p",
        [
            (CUBIC, params(0.01, eps=0.05)),
            (VAN_DER_POL, params(0.01, eps=0.05)),
            (VAN_DER_POL, params(0.01, eps=0.025)),
            (CUBIC, SchemeParams(dt=0.1, eps=0.05, scheme=Scheme.MICKENS)),
            (VAN_DER_POL, SchemeParams(dt=0.1, eps=0.05, scheme=Scheme.MICKENS)),
            (CUBIC, params(0.02, eps=0.05, convention=FIRST)),
            (VAN_DER_POL, params(0.02, eps=0.05, convention=FIRST)),
            # the Van der Pol guard tests the leading coefficient at gains
            # eps dt outside [0, 1/2] alone
            (VAN_DER_POL, large_eps(0.25, 2.0)),  # gain 0.5
            (VAN_DER_POL, large_eps(0.25, math.nextafter(2.0, 3.0))),
            (VAN_DER_POL, large_eps(0.1, 5.5)),  # gain 0.55
        ],
    )
    def test_bytes_equal_step_function_loop(self, kind, p):
        z0, z1 = zeroth_order_data(0.4 + 0.15j, p)
        expected = _reference_iterate(kind, p, z0, z1, 5000)
        assert iterate(kind, p, z0, z1, 5000).values.tobytes() == expected.tobytes()

    def test_cubic_divergence_same_failure(self):
        p = params(1.5, eps=0.4)
        z0, z1 = zeroth_order_data(50.0, p)
        failure = _raised(iterate, CUBIC, p, z0, z1, 20)
        assert failure == _raised(_reference_iterate, CUBIC, p, z0, z1, 20)
        assert failure[1].startswith("|z(3)| = 4123845855.233769")

    def test_vdp_divergence_at_the_bound_same_failure(self):
        p = large_eps(1.0, 0.5)  # gain 0.5: the guard without the singular test
        z0, z1 = zeroth_order_data(0.4 + 0.15j, p)
        failure = _raised(iterate, VAN_DER_POL, p, z0, z1, 100)
        assert failure == _raised(_reference_iterate, VAN_DER_POL, p, z0, z1, 100)
        assert failure[1].startswith("|z(38)| = ")

    @pytest.mark.parametrize(
        "kind, p, a0, first",
        [
            (CUBIC, params(1.5, eps=0.4), 50.0, 3),
            (CUBIC, params(1.0, eps=0.4), 0.638, 582),
            (VAN_DER_POL, large_eps(1.0, 0.5), 0.4 + 0.15j, 38),  # gain 0.5
            (VAN_DER_POL, params(1.5, eps=0.1), 0.3, 133),  # gain 0.15
        ],
    )
    def test_run_on_through_inf_and_nan_same_failure(self, kind, p, a0, first):
        # The unchecked loops store every step of a run that has passed the
        # bound: cubic values overflow to inf and then turn nan (inf - inf);
        # Van der Pol values pass sqrt(max float), where z*z overflows and
        # the step turns nan.  The guard after each block names the first
        # step past the bound, with its value, as a guard per step does.
        n_steps = 10_000
        z0, z1 = zeroth_order_data(a0, p)
        stored = _reference_iterate(kind, p, z0, z1, n_steps, guard=False)
        past = np.flatnonzero(~(np.abs(stored[2:]) <= 1e8)) + 2
        assert past[0] == first and np.isnan(stored[-1])
        if kind is CUBIC:
            assert np.isinf(stored).any()
        else:
            assert np.nanmax(np.abs(stored)) > math.sqrt(np.finfo(float).max)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            failure = _raised(iterate, kind, p, z0, z1, n_steps)
        assert failure == _raised(_reference_iterate, kind, p, z0, z1, n_steps)
        assert failure[1].startswith(f"|z({first})| = ")

    def test_vdp_singular_step_at_a_negative_gain_same_failure(self):
        # SchemeParams refuses eps < 0; set on a built one, it gives the gain
        # -1 and lead = 2 - z^2, which vanishes to rounding at z = sqrt(2)
        p = params(0.1)
        object.__setattr__(p, "eps", -10.0)
        failure = _raised(iterate, VAN_DER_POL, p, 0.0, math.sqrt(2.0), 20)
        assert failure == _raised(_reference_iterate, VAN_DER_POL, p, 0.0, math.sqrt(2.0), 20)
        assert failure == (SingularStepError, "implicit coefficient vanished at n=1")

    @pytest.mark.parametrize(
        "data, block, n",
        [
            (1e-7, None, 1),  # zeroth-order data from a0: the lead z(1)^2 is below 1e-12
            ((0.0, 0.0), None, 1),  # a lead of exactly 0, which Python cannot divide by
            # data run back from z(7) = 0: the step to z(8) is singular, and
            # diverges, at the start of the third block of 3 steps and inside
            # the second block of 5
            ((0.3047720314829509, 0.3064637683294363), 3, 7),
            ((0.3047720314829509, 0.3064637683294363), 5, 7),
        ],
    )
    def test_vdp_singular_step_same_failure(self, monkeypatch, data, block, n):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = params(0.1, eps=10.0)  # gain 1: the lead 1 - (1 - z^2) is z^2
        z0, z1 = data if isinstance(data, tuple) else zeroth_order_data(data, p)
        if block is not None:
            monkeypatch.setattr(oracle, "_GUARD_BLOCK", block)
        failure = _raised(iterate, VAN_DER_POL, p, z0, z1, 20)
        assert failure == _raised(_reference_iterate, VAN_DER_POL, p, z0, z1, 20)
        assert failure == (SingularStepError, f"implicit coefficient vanished at n={n}")


class TestGuardBlocks:
    """An unchecked loop tests its guard once per block of steps."""

    @pytest.mark.parametrize(
        "kind, p, a0, first",
        [
            (CUBIC, params(1.5, eps=0.4), 50.0, 3),
            (CUBIC, params(1.0, eps=0.4), 0.638, 582),
            (VAN_DER_POL, params(1.5, eps=0.1), 0.3, 133),  # gain 0.15
        ],
    )
    def test_diverging_run_stops_at_the_end_of_its_guard_block(self, monkeypatch, filled_empty,
                                                               kind, p, a0, first):
        # The steps after the failing block are never computed.
        n_steps = 100_000
        z0, z1 = zeroth_order_data(a0, p)
        with pytest.raises(DivergenceError, match=rf"^\|z\({first}\)\| = "):
            iterate(kind, p, z0, z1, n_steps)
        monkeypatch.undo()
        (values,) = filled_empty(n_steps + 1)
        assert np.all(values[2 + _GUARD_BLOCK :] == 7.0)

    @pytest.mark.parametrize(
        "kind, p, a0, n_steps, block, first",
        [
            # the fourth block of 4096 steps
            (CUBIC, params(1.0, eps=0.4), 0.635, 20_000, None, 12506),
            # Van der Pol gains above 1/2, where the guard also tests the
            # leading coefficient, in blocks of 97 steps
            (VAN_DER_POL, large_eps(0.1, 6.0), 0.4 + 0.15j, 5000, 97, 2412),  # gain 0.6
            (VAN_DER_POL, large_eps(0.25, 2.5), 0.5, 1000, 97, 125),  # gain 0.625
            (VAN_DER_POL, large_eps(0.1, 10.0), 1.0, 1000, 97, 185),  # gain 1
        ],
    )
    def test_failure_in_a_later_block_names_the_step_of_a_guard_per_step(
        self, monkeypatch, kind, p, a0, n_steps, block, first
    ):
        if block is not None:
            monkeypatch.setattr(oracle, "_GUARD_BLOCK", block)
        z0, z1 = zeroth_order_data(a0, p)
        failure = _raised(iterate, kind, p, z0, z1, n_steps)
        assert failure == _raised(_reference_iterate, kind, p, z0, z1, n_steps)
        assert failure[1].startswith(f"|z({first})| = ")


def _resumed(kind, p, z0, z1, pieces):
    """The run from (z0, z1) resumed in pieces of the given step counts: the
    values without the entry each piece repeats from the one before, each
    piece's start and its state afterwards."""
    state = OracleState(0, z0, z1)
    values, starts = [], []
    for steps in pieces:
        piece = iterate(kind, p, state, None, n_steps=steps)
        starts.append(piece.start)
        assert state.step == piece.start + steps and piece.values.size == steps + 1
        values.append(piece.values[1:] if values else piece.values)
    return np.concatenate(values), starts, state


class TestResumed:
    """A run resumed from its OracleState in pieces has the bits and the
    failures of one uninterrupted run."""

    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    @pytest.mark.parametrize("pieces", [[5000], [2, 0, 1, 4096, 1901], [4096, 4096, 0, 8],
                                        [3, 1, 1, 1, 4994]])
    def test_pieces_are_the_whole_run(self, kind, pieces):
        p = params(0.01, eps=0.05)
        z0, z1 = zeroth_order_data(0.4 + 0.1j, p)
        whole = iterate(kind, p, z0, z1, sum(pieces))
        values, starts, state = _resumed(kind, p, z0, z1, pieces)
        assert values.tobytes() == whole.values.tobytes()
        assert starts == list(np.cumsum([0, *pieces[:-1]]))
        assert (state.zm, state.z) == tuple(whole.values[-2:])
        resumed = iterate(kind, p, OracleState(len(whole) - 1, *whole.values[-2:]), None, 0)
        assert resumed.times.tolist() == [(len(whole) - 1) * p.dt]

    @pytest.mark.parametrize(
        "kind, p, a0, n_steps",
        [
            (CUBIC, params(1.0, eps=0.4), 0.635, 20_000),  # |z(12506)|, in the fourth block
            (VAN_DER_POL, large_eps(0.1, 6.0), 0.4 + 0.15j, 5000),  # gain 0.6: z(2412)
            (VAN_DER_POL, large_eps(0.1, 10.0), 1.0, 1000),  # gain 1: z(185)
            (VAN_DER_POL, large_eps(0.1, 10.0), 1e-7, 30),  # vanishes at n=1
        ],
    )
    @pytest.mark.parametrize("piece", [97, 4096])
    def test_pieces_fail_as_the_whole_run(self, kind, p, a0, n_steps, piece):
        z0, z1 = zeroth_order_data(a0, p)
        failure = _raised(iterate, kind, p, z0, z1, n_steps)
        pieces = [piece] * (n_steps // piece) + [n_steps % piece]
        assert _raised(_resumed, kind, p, z0, z1, pieces) == failure

    def test_a_fresh_run_needs_two_steps_a_resumed_one_none(self):
        p = params(0.1)
        with pytest.raises(ValueError, match="need at least 2 steps"):
            iterate(CUBIC, p, OracleState(0, 1.0, 1.0), None, 1)
        assert len(iterate(CUBIC, p, OracleState(5, 1.0, 1.0), None, 0)) == 1
        with pytest.raises(ValueError, match="n_steps must be nonnegative"):
            iterate(CUBIC, p, OracleState(5, 1.0, 1.0), None, -1)


class TestPeakMemory:
    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    def test_peak_bytes_per_step(self, kind):
        # The values (8 bytes a step), handed to the Trajectory without a
        # copy, and one guard block's masks.
        p, steps = params(0.01, eps=0.05), 100_000
        iterate(kind, p, 0.8, 0.8, 10)
        tracemalloc.start()
        try:
            traj = iterate(kind, p, 0.8, 0.8, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == steps + 1
        assert peak / steps <= 8.1


class TestSchemeResidual:
    """The oracle solves the scheme it names: each triple of its values
    leaves a residual of rounding size against the scheme's own forcing."""

    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    @pytest.mark.parametrize("scheme", list(Scheme))
    # Van der Pol gains eps mu/dt of about 0.0005 and 0.55: the guard
    # without and with the singular test
    @pytest.mark.parametrize("dt, eps", [(0.01, 0.05), (0.1, 5.5)])
    def test_oracle_residual_at_rounding(self, kind, scheme, dt, eps):
        # measured 1.2-1.4e-16 (cubic) and 2.0-6.5e-16 (vdp) of max|z|
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # eps = 5.5 is large
            p = SchemeParams(dt=dt, eps=eps, root_convention=EXACT, scheme=scheme)
        z0, z1 = zeroth_order_data(0.4 + 0.15j, p)
        z = iterate(kind, p, z0, z1, 5000).values
        forcing = nonlinearity_value(kind, z[2:], z[1:-1], z[:-2], p)
        residual = scheme_residual(z[:-2], z[1:-1], z[2:], p, forcing)
        assert np.abs(residual).max() <= 1e-14 * np.abs(z).max()


def _mp_iterate(kind, p, z0, z1, n_steps):
    """The oracle's recurrence in 40-digit arithmetic from the same parameters."""
    with mpmath.workdps(40):
        dt, eps = mpmath.mpf(p.dt), mpmath.mpf(p.eps)
        mu = dt * dt
        lin = 2 - mu
        values = [mpmath.mpf(z0), mpmath.mpf(z1)]
        zm, z = values
        for _ in range(1, n_steps):
            if kind is Variant.CUBIC:
                zp = lin * z - zm - eps * mu * z**3
            else:
                w = eps * dt * (1 - z * z)
                zp = (lin * z - zm - w * zm) / (1 - w)
            values.append(zp)
            zm, z = z, zp
        return values


class TestHighPrecisionBound:
    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    def test_double_error_far_below_eps_squared_scale(self, kind):
        # the oracle judges errors of size eps^2 * t; its own rounding error
        # must sit far below that scale (measured 4.9e-12 cubic, 9.9e-12 vdp)
        p = params(0.01, eps=0.01)
        n_steps = 10_000
        z0, z1 = zeroth_order_data(0.5 + 0.2j, p)
        double = iterate(kind, p, z0, z1, n_steps).values
        exact = _mp_iterate(kind, p, z0, z1, n_steps)
        err = max(abs(mpmath.mpf(x) - y) for x, y in zip(double.tolist(), exact))
        assert float(err) <= 1e-6 * p.eps**2 * (n_steps * p.dt)
