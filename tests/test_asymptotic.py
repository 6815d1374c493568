import math

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from renormdiff.analysis import envelope
from renormdiff.asymptotic import (
    GlobalSolution,
    assemble_modes,
    discrete_fundamental,
    init_from_amplitude,
    third_harmonic_coefficient,
)
from renormdiff.lineardiff import (
    RootConvention,
    Scheme,
    SchemeParams,
    characteristic_roots,
)
from renormdiff.oracle import _GUARD_BLOCK, iterate
from renormdiff.perturbation import (
    CUBIC,
    VAN_DER_POL,
    first_order,
    vdp_scale,
    zeroth_order,
)
from renormdiff.renormalization import build_flow

FIRST = RootConvention.FIRST_ORDER
EXACT = RootConvention.EXACT_UNIT_MODULUS


def params(dt, eps=0.0, convention=EXACT):
    return SchemeParams(dt=dt, eps=eps, root_convention=convention)


class TestThirdHarmonicCoefficient:
    @pytest.mark.parametrize("convention", [FIRST, EXACT])
    def test_cubic_matches_denominator_formula(self, convention):
        dt = 0.1
        p = params(dt, eps=0.05, convention=convention)
        lam, _ = characteristic_roots(p)
        expected = -(dt**2) / (lam**3 + lam**-3 - 2 + dt * dt)
        assert third_harmonic_coefficient(CUBIC, p) == pytest.approx(expected, rel=1e-12)

    def test_vdp_matches_denominator_formula(self):
        dt = 0.1
        p = params(dt, eps=0.05, convention=FIRST)
        lam, _ = characteristic_roots(p)
        s = lam - 1 / lam
        expected = -dt * s / (lam**3 + lam**-3 - 2 + dt * dt)
        assert third_harmonic_coefficient(VAN_DER_POL, p) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize(
        "convention, scheme, dt",
        [
            (EXACT, Scheme.STANDARD, 1.0),
            (EXACT, Scheme.MICKENS, math.pi / 3),
            (FIRST, Scheme.STANDARD, math.sqrt(3.0)),
        ],
    )
    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    def test_real_third_power_of_root(self, kind, convention, scheme, dt):
        """lam_p^3 = lam_m^3 here: the lam_m^3 forcing term shares the base but not kappa3."""
        p = SchemeParams(dt=dt, eps=0.05, root_convention=convention, scheme=scheme)
        lam, _ = characteristic_roots(p)
        assert abs(lam**3 - lam.conjugate() ** 3) <= 1e-12 * abs(lam**3)
        weight = -p.mu if kind is CUBIC else -vdp_scale(p) * (lam - 1 / lam)
        expected = weight / (lam**3 + lam**-3 - 2 + p.mu)
        assert third_harmonic_coefficient(kind, p) == pytest.approx(expected, rel=1e-12)

    def test_small_dt_limits(self):
        p = params(0.001, eps=0.01, convention=FIRST)
        assert third_harmonic_coefficient(CUBIC, p) == pytest.approx(0.125, rel=2e-3)
        assert third_harmonic_coefficient(VAN_DER_POL, p) == pytest.approx(
            0.25j, rel=2e-3
        )

    @pytest.mark.parametrize("convention", [FIRST, EXACT])
    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    def test_unresolved_below_the_resonance_tolerance(self, kind, convention):
        # the polynomial at lam_p^3 is about -8 dt^2, inside the tolerance of
        # about 2e-9 below dt = 1.58e-5: secular at 1e-5, degenerate at 1e-10
        limit = 0.125 if kind is CUBIC else 0.25j
        resolved = third_harmonic_coefficient(kind, params(1.6e-5, convention=convention))
        assert resolved == pytest.approx(limit, rel=1e-4)
        for dt in (1.5e-5, 1e-5, 1e-10):
            p = params(dt, eps=0.01, convention=convention)
            message = f"dt = {dt} is too small to resolve the third harmonic"
            with pytest.raises(ValueError, match=message):
                third_harmonic_coefficient(kind, p)
            with pytest.raises(ValueError, match=message):
                GlobalSolution(kind, p, 0.5)


class TestCubicSolution:
    def test_value_at_origin(self):
        dt, eps, a0 = 0.1, 0.05, 0.5
        p = params(dt, eps=eps)
        sol = GlobalSolution(CUBIC, p, a0)
        k3 = third_harmonic_coefficient(CUBIC, p)
        expected = 1.0 + eps * 2.0 * (k3 * a0**3).real
        assert sol.eval_discrete(0) == pytest.approx(expected, rel=1e-12)

    def test_eps_zero_reduces_to_homogeneous(self):
        p = params(0.1, eps=0.0)
        sol = GlobalSolution(CUBIC, p, 0.3 + 0.2j)
        z0 = zeroth_order(0.3 + 0.2j, p)
        n = np.arange(200)
        assert np.allclose(sol.eval_discrete(n), z0.evaluate(n).real, atol=1e-12)

    def test_waveform_exactly_periodic(self):
        p = params(0.1, eps=0.05)
        sol = GlobalSolution(CUBIC, p, 0.5)
        period = 2 * np.pi / sol.frequency_shift()
        for t in (0.0, 1.7, 300.0):
            assert sol.eval_continuum_waveform(t + period) == pytest.approx(
                sol.eval_continuum_waveform(t), abs=1e-10
            )

    def test_waveform_eps_zero_is_cosine(self):
        p = params(0.1, eps=0.0)
        sol = GlobalSolution(CUBIC, p, 0.5)
        t = np.linspace(0.0, 20.0, 500)
        assert np.allclose(sol.eval_continuum_waveform(t), np.cos(t), atol=1e-12)

    def test_discrete_converges_to_waveform(self):
        # lam_p^n = e^{i theta n} with theta = dt + O(dt^3): the phase gap to
        # e^{i t} over a fixed horizon shrinks like dt^2
        eps, a0 = 0.05, 0.5
        gaps = []
        for dt in (0.02, 0.01):
            p = params(dt, eps=eps)
            sol = GlobalSolution(CUBIC, p, a0)
            n = np.arange(int(20 / dt) + 1)
            gap = np.abs(sol.eval_discrete(n) - sol.eval_continuum_waveform(n * dt))
            gaps.append(gap.max())
        assert gaps[0] / gaps[1] >= 1.7

    def test_evaluations_real(self):
        # the assembled value is twice the real part of a half-sum by
        # construction; check against an explicitly conjugated assembly
        dt, eps, a0 = 0.05, 0.03, 0.4 - 0.3j
        p = params(dt, eps=eps)
        sol = GlobalSolution(CUBIC, p, a0)
        lam, lam_m = characteristic_roots(p)
        k3 = third_harmonic_coefficient(CUBIC, p)
        n = np.arange(0, 3000, 113)
        amp = sol.amplitude_at(n * dt)
        two_sided = (
            amp * lam**n
            + np.conj(amp) * lam_m**n
            + eps * (k3 * amp**3 * lam ** (3 * n) + np.conj(k3 * amp**3) * lam_m ** (3 * n))
        )
        assert np.max(np.abs(two_sided.imag)) <= 1e-10 * max(1.0, np.max(np.abs(two_sided.real)))
        assert np.allclose(sol.eval_discrete(n), two_sided.real, rtol=1e-9, atol=1e-9)


class TestFrequencyShift:
    def test_zero_eps(self):
        assert GlobalSolution(CUBIC, params(0.1, eps=0.0), 0.5).frequency_shift() == 1.0

    def test_reference_value(self):
        # 1 + (3/2) eps |a0|^2 at dt -> 0, times the exact-dt factor
        # 1/sqrt(1 - mu/4) of the standard scheme's rate
        sol = GlobalSolution(CUBIC, params(0.1, eps=0.05), 0.5)
        assert sol.frequency_shift() == pytest.approx(1 + 0.01875 / math.sqrt(1 - 0.0025))

    def test_first_order_roots_refused(self):
        with pytest.raises(ValueError, match="'first-order' root convention"):
            GlobalSolution(CUBIC, params(0.1, eps=0.05, convention=FIRST), 0.5)

    def test_zero_amplitude(self):
        sol = GlobalSolution(CUBIC, params(0.1, eps=0.05), 0.0)
        assert sol.frequency_shift() == 1.0

    def test_wrong_kind_rejected(self):
        sol = GlobalSolution(VAN_DER_POL, params(0.1, eps=0.05), 0.2)
        with pytest.raises(ValueError):
            sol.frequency_shift()

    def test_imaginary_vdp_amplitude_meets_only_the_kind_refusal(self):
        # Re(a0) = 0 is accepted, though the Van der Pol invariant Im/Re is
        # undefined there; frequency_shift reads only the cubic |a0|^2, so
        # it refuses the kind and nothing else
        sol = GlobalSolution(VAN_DER_POL, params(0.1, eps=0.05), 0.3j)
        with pytest.raises(ValueError, match="cubic kind only") as info:
            sol.frequency_shift()
        assert "ratio" not in str(info.value)


class TestVdpSolution:
    def test_imaginary_amplitude_runs(self):
        # Re(a0) = 0 is one more ray: the envelope scales 0.3j up to the
        # limit cycle and keeps Re(A) = 0
        sol = GlobalSolution(VAN_DER_POL, params(0.1, eps=0.05), 0.3j)
        amps = sol.amplitude_at(np.array([0.0, 10.0, 1e3]))
        assert np.all(amps.real == 0.0)
        assert amps[0] == 0.3j and 0.3 < amps[1].imag < 1.0
        assert amps[2].imag == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("a0", [1e-200, -1e-161])
    def test_underflowed_settled_value_rejected(self, a0):
        # |a0|^2 underflows to 0 at 1e-200, and to a subnormal at 1e-161,
        # where the envelope's limit would be off by 0.6%
        with pytest.raises(ValueError, match="underflows"):
            GlobalSolution(VAN_DER_POL, params(0.5, eps=0.01), a0)

    def test_smallest_normal_settled_value_reaches_the_limit(self):
        sol = GlobalSolution(VAN_DER_POL, params(0.5, eps=0.01), 1.5e-154)
        assert sol.amplitude_at(1e6) == pytest.approx(1.0, rel=1e-15)

    def test_settled_value_just_below_2_53_starts_at_a0(self):
        # |a0|^2 = 2^53 - 1: 1 minus it is still exact
        a0 = 0.75 + 94906265.62425154j
        got = GlobalSolution(VAN_DER_POL, params(0.5, eps=0.01), a0).amplitude_at(0.0)
        assert abs(got.real - a0.real) <= np.spacing(a0.real)
        assert abs(got.imag - a0.imag) <= np.spacing(a0.imag)

    def test_settled_value_from_2_53_rejected(self):
        # |a0|^2 = 2^53 + 2, the next value: 1 minus it rounds, and the
        # envelope no longer starts at a0
        with pytest.raises(ValueError, match=r"reaches 2\^53 at a0 = \(0.75\+"):
            GlobalSolution(VAN_DER_POL, params(0.5, eps=0.01), 0.75 + 94906265.62425156j)

    @given(
        log_modulus=st.floats(-160.0, 9.0),
        phase=st.floats(-math.pi, math.pi),
        eps=st.floats(0.0, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_accepted_amplitude_evaluates_on_any_grid(self, log_modulus, phase, eps):
        # why the CLI checks no envelope: at eps >= 0 and t >= 0 the
        # denominator of an accepted a0 is at least min(|a0|^2, 1)
        a0 = 10.0**log_modulus * complex(math.cos(phase), math.sin(phase))
        try:
            sol = GlobalSolution(VAN_DER_POL, params(0.01, eps=eps), a0)
        except ValueError:  # |a0|^2 out of range
            reject()
        t = np.concatenate(([0.0], np.logspace(-3.0, 6.0, 64)))
        amp = sol.amplitude_at(t)
        assert np.all(np.isfinite(amp))
        assert abs(amp[0].real - a0.real) <= np.spacing(abs(a0.real))
        assert abs(amp[0].imag - a0.imag) <= np.spacing(abs(a0.imag))

    @pytest.mark.parametrize("a0", [1.5, 1.2 + 0.6j])
    def test_envelope_from_above_tracks_the_oracle(self, a0):
        # the start lies above the limit cycle; the oracle's envelope decays
        # to 2 and the renormalized one follows it at every peak
        eps = 0.05
        p = params(0.005, eps=eps, convention=EXACT)
        z0, z1 = init_from_amplitude(VAN_DER_POL, a0, p)
        peaks = envelope(iterate(VAN_DER_POL, p, z0, z1, int(round(10.0 / eps / p.dt))))
        sol = GlobalSolution(VAN_DER_POL, p, a0)
        dev = np.abs(sol.fundamental_amplitude(peaks[:, 0]) - peaks[:, 1]) / peaks[:, 1]
        assert peaks[0, 1] > 2.4
        assert dev.max() <= 0.01

    def test_amplitude_matches_at_time_zero(self):
        a0 = 0.1 * (1 + 2j) / np.sqrt(5)
        sol = GlobalSolution(VAN_DER_POL, params(0.01, eps=0.05), a0)
        assert sol.amplitude_at(0.0) == pytest.approx(a0, rel=1e-12)
        assert sol.fundamental_amplitude(0.0) == pytest.approx(2 * abs(a0), rel=1e-12)

    def test_limit_amplitude_two_under_squared_convention(self):
        a0 = 0.1 * (1 + 2j) / np.sqrt(5)
        sol = GlobalSolution(VAN_DER_POL, params(0.01, eps=0.05), a0)
        assert sol.fundamental_amplitude(400.0) == pytest.approx(2.0, rel=1e-6)

    def test_waveform_third_harmonic_demodulates(self):
        # once the envelope has saturated, projecting the waveform onto
        # e^{3it} over whole periods recovers eps * kappa3 * A^3
        p = params(0.01, eps=0.05)
        sol = GlobalSolution(VAN_DER_POL, p, 0.9)
        t0 = 300.0
        t = np.linspace(t0, t0 + 8 * np.pi, 16001)
        wave = sol.eval_continuum_waveform(t)
        projected = np.trapezoid(wave * np.exp(-3j * t), t) / (8 * np.pi)
        amp = sol.amplitude_at(t0)
        expected = p.eps * third_harmonic_coefficient(VAN_DER_POL, p) * amp**3
        assert projected == pytest.approx(expected, rel=5e-3)

    def test_waveform_amplitude_saturates_at_two(self):
        # max of the waveform over one period at t = 10/eps; the third
        # harmonic sits in quadrature at the fundamental's peak, so it barely
        # moves the maximum
        eps = 0.05
        p = params(0.01, eps=eps)
        sol = GlobalSolution(VAN_DER_POL, p, 0.1)
        t0 = 10.0 / eps
        t = np.linspace(t0, t0 + 2 * np.pi, 4001)
        peak = np.abs(sol.eval_continuum_waveform(t)).max()
        assert peak == pytest.approx(2.0, rel=0.01)

    def test_half_eps_slows_envelope_growth(self):
        a0 = 0.1
        fast = GlobalSolution(VAN_DER_POL, params(0.01, eps=0.05), a0)
        slow = GlobalSolution(VAN_DER_POL, params(0.01, eps=0.025), a0)
        t = 30.0
        assert slow.fundamental_amplitude(t) < fast.fundamental_amplitude(t)
        # the envelope depends on eps t alone: half the eps takes twice the time
        assert slow.fundamental_amplitude(2 * t) == pytest.approx(
            fast.fundamental_amplitude(t), rel=1e-12
        )


class TestInitFromAmplitude:
    """The first-order bridge: z(0), z(1) of the discrete renormalized form."""

    def test_real_amplitude(self):
        p = params(0.1)
        z0, z1 = init_from_amplitude(CUBIC, 0.5, p)
        assert z0 == 1.0
        assert z1 == 2 * (0.5 * characteristic_roots(p)[0]).real

    def test_exact_convention_uses_cosine(self):
        _, z1 = init_from_amplitude(CUBIC, 0.5, params(0.1))
        assert z1 == pytest.approx(2 * 0.5 * (1 - 0.005))

    def test_imaginary_amplitude_starts_at_zero(self):
        for kind in (CUBIC, VAN_DER_POL):
            z0, _ = init_from_amplitude(kind, 0.5j, params(0.1))
            assert z0 == 0.0

    def test_round_trip_against_closed_form(self):
        p = params(0.2)
        a0 = 0.3 - 0.4j
        z0, z1 = init_from_amplitude(CUBIC, a0, p)
        lam, _ = characteristic_roots(p)
        expected = 2.0 * np.real(a0 * np.exp(np.arange(2) * np.log(lam)))
        assert z0 == pytest.approx(expected[0], rel=1e-14)
        assert z1 == pytest.approx(expected[1], rel=1e-14)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("dt", [0.01, 0.1, 1.3])
    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    def test_zeroth_order_data_to_the_bit_at_eps_zero(self, kind, dt, scheme):
        p = SchemeParams(dt=dt, eps=0.0, scheme=scheme)
        lam, _ = characteristic_roots(p)
        for a0 in (0.5, 0.3 + 0.2j, -0.7 + 0.11j, 1e-7 + 3e-9j, 123.4 - 0.3j):
            want = (2.0 * complex(a0).real, 2.0 * (complex(a0) * lam).real)
            assert init_from_amplitude(kind, a0, p) == want

    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    def test_first_order_data(self, kind):
        # z(0) = 2 Re[a0 + eps k3 a0^3]; z(1) the same form at A(1) = a0 +
        # flow(a0) on lam_p, both from the one record
        p = params(0.05, eps=0.03)
        a0 = 0.4 + 0.2j
        first = first_order(kind, p)
        lam, _ = characteristic_roots(p)
        a1 = a0 + build_flow(kind, p)(a0)
        want = [2.0 * (u + p.eps * first.k3 * u**3).real for u in (a0, a1 * lam)]
        got = init_from_amplitude(kind, a0, p)
        assert got == pytest.approx(want, rel=1e-14)
        assert got == init_from_amplitude(kind, a0, p, first)
        assert got[0] != 2.0 * a0.real

    def test_first_order_roots_refused(self):
        with pytest.raises(ValueError, match="needs the exact roots"):
            init_from_amplitude(CUBIC, 0.5, params(0.1, convention=FIRST))


class TestAssembleModes:
    def test_matches_global_solution_with_constant_amplitude(self):
        p = params(0.1, eps=0.0)
        a0 = 0.3 + 0.1j
        sol = GlobalSolution(CUBIC, p, a0)
        n = np.arange(50)
        assembled = assemble_modes(CUBIC, p, np.full(n.size, a0), discrete_fundamental(p, n))
        assert np.allclose(assembled, sol.eval_discrete(n), atol=1e-12)

    def test_scalar_input(self):
        p = params(0.1, eps=0.02)
        out = assemble_modes(CUBIC, p, 0.5 + 0j, discrete_fundamental(p, 0))
        assert isinstance(out, float)



class TestDiscreteFundamentalSpans:
    """lam_p^n formed over a span of indices has the bits of that span of the
    whole table, so a pipeline may form it a block at a time."""

    STEPS = 3 * _GUARD_BLOCK + 4

    @pytest.mark.parametrize("scheme", [Scheme.STANDARD, Scheme.MICKENS])
    @pytest.mark.parametrize("dt", [0.002, 0.01, 0.1, 0.5, 1.0, 1.5, 1.9])
    def test_spans_and_strided_rows_match_the_whole_table(self, scheme, dt):
        p = SchemeParams(dt=dt, eps=0.01, root_convention=EXACT, scheme=scheme)
        size = self.STEPS + 1
        whole = discrete_fundamental(p, np.arange(size))
        rng = np.random.default_rng(7)
        spans = [(lo, min(lo + block, size))
                 for block in (97, 1000, _GUARD_BLOCK - 1, _GUARD_BLOCK)
                 for lo in range(0, size, block)]
        spans += [tuple(sorted(pair)) for pair in rng.integers(0, size + 1, (50, 2))]
        for lo, hi in spans:
            span = discrete_fundamental(p, np.arange(lo, hi))
            assert span.tobytes() == whole[lo:hi].tobytes(), (lo, hi)
        for stride in (3, 7, 10, _GUARD_BLOCK + 1):
            for start in (0, int(rng.integers(1, stride))):
                rows = np.arange(start, size, stride)
                at_rows = discrete_fundamental(p, rows)
                assert at_rows.tobytes() == whole[rows].tobytes(), (stride, start)
