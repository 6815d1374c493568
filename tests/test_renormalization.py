import cmath
import math
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from renormdiff.asymptotic import GlobalSolution, third_harmonic_coefficient
from renormdiff import perturbation
from renormdiff.lineardiff import RootConvention, Scheme, SchemeParams, characteristic_roots
from renormdiff.oracle import _GUARD_BLOCK
from renormdiff.perturbation import (
    CUBIC,
    VAN_DER_POL,
    Variant,
    extract_secular,
    first_order,
    first_order_forcing,
    first_order_solution,
    monomial,
    zeroth_order,
)
from renormdiff.renormalization import (
    AmplitudeFlow,
    EnvelopeDomainError,
    build_flow,
    conserved_constant,
    continuum_amplitude,
    continuum_limit_check,
    flow_path,
    solve_cubic_continuum,
    solve_vdp_continuum,
)


def params(dt, eps):
    return SchemeParams(dt=dt, eps=eps)


def _family_constant_form(a0, rate, t):
    """Re(A) of the envelope written through the family constant K.

    A1(t) = K e^{rate t} / sqrt(1 + kappa K^2 e^{2 rate t}) with a1 = Re(a0),
    K = a1 / sqrt(1 - kappa a1^2) and kappa a1^2 = |a0|^2, the product
    solve_vdp_continuum forms, so both forms read the same data and A1(0) = a1;
    defined for |a0| < 1 and while e^{2 rate t} stays finite.
    """
    settled = (a0 * a0.conjugate()).real
    constant = a0.real / math.sqrt(1.0 - settled)
    growth = np.exp(rate * np.asarray(t, dtype=float))
    return constant * growth / np.sqrt(1.0 + settled / (1.0 - settled) * growth * growth)


def _ulps(got, want):
    return np.abs(got - want) / np.spacing(np.abs(want))


class TestBuildFlow:
    def test_cubic_step(self):
        # the standard scheme's exact-dt rate: (3/2) i eps dt / sqrt(1 - mu/4)
        p = params(0.01, 0.05)
        flow = build_flow(first_order(CUBIC, p))
        a = 0.4 + 0.1j
        b = a.conjugate()
        da = flow(a)
        db = da.conjugate()
        rate = 1.5j * 0.05 * 0.01 / math.sqrt(1.0 - 0.01**2 / 4)
        assert da == pytest.approx(rate * a * a * b, rel=1e-14)
        assert db == pytest.approx(-rate * b * b * a, rel=1e-14)

    def test_vdp_step(self):
        p = params(0.01, 0.05)
        flow = build_flow(first_order(VAN_DER_POL, p))
        a = 0.4 + 0.1j
        b = a.conjugate()
        da = flow(a)
        db = da.conjugate()
        assert da == pytest.approx(0.05 * 0.01 * (a - a * a * b))
        assert db == pytest.approx(0.05 * 0.01 * (b - b * b * a))

    def test_vdp_half_eps_halves_rate(self):
        a = 0.4 + 0.1j
        da_full = build_flow(first_order(VAN_DER_POL, params(0.01, 0.05)))(a)
        da_half = build_flow(first_order(VAN_DER_POL, params(0.01, 0.025)))(a)
        assert da_half == 0.5 * da_full

    def test_zero_eps_constant_flow(self):
        flow = build_flow(first_order(CUBIC, params(0.01, 0.0)))
        a = flow_path(flow, 0.3 + 0.2j, 500)[-1]
        assert (a, a.conjugate()) == (0.3 + 0.2j, 0.3 - 0.2j)


class TestIterateFlow:
    def test_zero_steps_identity(self):
        flow = build_flow(first_order(CUBIC, params(0.01, 0.05)))
        a = flow_path(flow, 0.5, 0)[-1]
        assert (a, a.conjugate()) == (0.5 + 0j, 0.5 + 0j)

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            flow_path(build_flow(first_order(CUBIC, params(0.01, 0.05))), 0.5, steps=-1)

    def test_cubic_per_step_drift_formula(self):
        # the product AB drifts by exactly |r|^2 (AB)^3 per step, with
        # |r|^2 = (9/4) eps^2 dt^2 / (1 - mu/4)
        p = params(0.01, 0.02)
        flow = build_flow(first_order(CUBIC, p))
        a0, b0 = 0.6 + 0.1j, 0.6 - 0.1j
        a1 = flow_path(flow, a0, 1)[-1]
        b1 = a1.conjugate()
        drift = a1 * b1 - a0 * b0
        expected = 2.25 * p.eps**2 * p.dt**2 / (1.0 - p.mu / 4) * (a0 * b0) ** 3
        assert abs(drift - expected) <= 1e-12

    def test_cubic_drift_quarters_with_eps(self):
        a0, b0 = 0.5, 0.5
        drifts = []
        for eps in (0.04, 0.02):
            flow = build_flow(first_order(CUBIC, params(0.01, eps)))
            a1 = flow_path(flow, a0, 1)[-1]
            # |A1|^2 - |A0|^2 by component: the products' difference, about
            # 1e-9 of 0.25, would cancel to a relative 2e-8
            drifts.append((a1.real**2 - a0.real**2) + (a1.imag**2 - b0.imag**2))
        assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=1e-9)

    def test_vdp_ratio_invariant_over_long_iteration(self):
        flow = build_flow(first_order(VAN_DER_POL, params(0.01, 0.05)))
        a0 = 0.3 + 0.21j
        path = flow_path(flow, a0, 10_000)
        assert np.all(_ulps(path.imag / path.real, a0.imag / a0.real) <= 4.0)

    def test_overflow_guard(self):
        flow = build_flow(first_order(CUBIC, params(1.0, 0.4)))
        with pytest.raises(OverflowError):
            flow_path(flow, 1e5, 10)

    def test_nan_amplitude_stops_at_the_guard(self):
        flow = build_flow(first_order(CUBIC, params(0.01, 0.01)))
        with pytest.raises(OverflowError, match="at step 1$"):
            flow_path(flow, complex("nan"), 3)

    def test_path_is_deterministic(self):
        flow = build_flow(first_order(VAN_DER_POL, params(0.01, 0.05)))
        a1 = flow_path(flow, 0.2 + 0.1j, 200)
        a2 = flow_path(flow, 0.2 + 0.1j, 200)
        assert np.array_equal(a1, a2)


def _assert_same_path(got, want):
    """Each flow folds one real recurrence (the cubic turn, the Van der Pol
    scale), within rounding of the complex step."""
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def _two_amplitude_path(variant, rate, a0, steps):
    """The paper's map on (A, B) from (a0, conj(a0)), with B iterated on its own."""
    a, b = complex(a0), complex(a0).conjugate()
    a_path, b_path = [a], [b]
    for _ in range(steps):
        if variant == "cubic":
            da, db = rate * a * a * b, -rate * b * b * a
        else:
            da, db = rate * (a - a * a * b), rate * (b - b * b * a)
        a, b = a + da, b + db
        a_path.append(a)
        b_path.append(b)
    return np.array(a_path, dtype=complex), np.array(b_path, dtype=complex)


class TestConjugateReduction:
    @pytest.mark.parametrize(
        "kind, variant, eps",
        [(CUBIC, "cubic", 0.05), (VAN_DER_POL, "vdp", 0.05), (VAN_DER_POL, "vdp", 0.025)],
    )
    def test_flow_path_equals_two_amplitude_map(self, kind, variant, eps):
        a0 = 0.3 + 0.21j
        flow = build_flow(first_order(kind, params(0.02, eps)))
        rate = flow.rate if kind is CUBIC else flow.rate.real
        a_ref, b_ref = _two_amplitude_path(variant, rate, a0, 2000)
        assert b_ref.tobytes() == np.conj(a_ref).tobytes()
        _assert_same_path(flow_path(flow, a0, 2000), a_ref)


def _fold_path(flow, a0, steps):
    """The fold a = a + flow(a) through the step map, one call and one test of
    the 1e12 guard per step."""
    a = complex(a0)
    path = [a]
    for m in range(1, steps + 1):
        a = a + flow(a)
        if not abs(a) <= 1e12:
            raise OverflowError(f"amplitude flow exceeded {1e12} at step {m}")
        path.append(a)
    return np.array(path, dtype=complex)


class TestInlineFold:
    @pytest.mark.parametrize(
        "kind, eps", [(CUBIC, 0.05), (VAN_DER_POL, 0.05), (VAN_DER_POL, 0.025)]
    )
    def test_flow_path_equals_step_map_fold(self, kind, eps):
        flow = build_flow(first_order(kind, params(0.02, eps)))
        a0 = 0.3 + 0.21j
        _assert_same_path(flow_path(flow, a0, 2000), _fold_path(flow, a0, 2000))

    @pytest.mark.parametrize(
        "kind, eps, a0",
        [
            (CUBIC, 0.4, 0.5),  # past the guard at step 30
            (CUBIC, 0.4, 3.0 - 1j),
            (CUBIC, 0.4, 1e5j),  # at step 1
            (VAN_DER_POL, 0.4, 2.5),  # at step 6
            (VAN_DER_POL, 0.4, 3.0 - 1j),
            (VAN_DER_POL, 0.4, 9e11),
            (VAN_DER_POL, 0.2, 3.35 + 0.1j),  # at step 6
            (VAN_DER_POL, 0.2, 12.0),
            (VAN_DER_POL, 0.2, 9e11),
        ],
    )
    def test_guard_after_the_loop_names_the_step_of_a_guard_per_step(self, kind, eps, a0):
        flow = build_flow(first_order(kind, params(1.0, eps)))
        with pytest.raises(OverflowError) as per_step:
            _fold_path(flow, a0, 2000)
        with pytest.raises(OverflowError) as after_loop:
            flow_path(flow, a0, 2000)
        assert str(after_loop.value) == str(per_step.value)

    @pytest.mark.parametrize(
        "flow, a0, first",
        [
            (AmplitudeFlow(CUBIC, 0.6j), 0.13, 4874),
            (AmplitudeFlow(VAN_DER_POL, -0.0004), 1.005, 5778),  # a negative rate
        ],
    )
    def test_guard_in_a_later_block_names_the_step_of_a_guard_per_step(self, flow, a0, first):
        # past the first guard block of 4096 steps
        with pytest.raises(OverflowError) as per_step:
            _fold_path(flow, a0, 8000)
        with pytest.raises(OverflowError) as blocked:
            flow_path(flow, a0, 8000)
        assert str(blocked.value) == str(per_step.value)
        assert str(blocked.value).endswith(f"at step {first}")

    @pytest.mark.parametrize(
        "flow, a0", [(AmplitudeFlow(CUBIC, 0.6j), 10.0), (AmplitudeFlow(VAN_DER_POL, 0.4), 10.0)]
    )
    def test_diverging_flow_stops_at_the_end_of_its_guard_block(self, monkeypatch, filled_empty,
                                                                flow, a0):
        # Both fail within their first block; the steps after it are never
        # computed.
        steps = 100_000
        with pytest.raises(OverflowError, match="at step [1-9]$"):
            flow_path(flow, a0, steps)
        monkeypatch.undo()
        (stored,) = filled_empty(steps + 1)  # the path (cubic) or the scales (Van der Pol)
        assert np.all(stored[1 + _GUARD_BLOCK :] == 7.0)

    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    def test_peak_memory_is_the_array_and_its_guard(self, kind):
        # the path (16 bytes a step) and, for Van der Pol, the real scales
        # it is formed from (8); the guard's |A| and mask hold one block of
        # steps.  A list of boxed complex values adds about 40 bytes per step.
        flow, steps = build_flow(first_order(kind, params(0.004, 0.01))), 100_000
        flow_path(flow, 0.5 + 0.1j, 10)
        tracemalloc.start()
        try:
            out = flow_path(flow, 0.5 + 0.1j, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * out.nbytes
        assert peak / steps <= {CUBIC: 16.5, VAN_DER_POL: 24.1}[kind]

    @given(
        a0=st.builds(cmath.rect, st.floats(1e-6, 3.0), st.floats(-math.pi, math.pi)),
        rate=st.floats(1e-6, 1e-2) | st.floats(-1e-2, -1e-6),
        steps=st.integers(0, 20_000) | st.just(20_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_cubic_turn_fold_stays_on_the_complex_fold(self, a0, rate, steps):
        # x = rate |A|^2 follows x <- x + x^3, which blows up near step
        # 1 / (2 x0^2); capped, x grows by at most sqrt(2) and the phase
        # reaches tens of radians
        x0 = rate * abs(a0) ** 2
        steps = min(steps, int(0.25 / (x0 * x0)))
        flow = AmplitudeFlow(CUBIC, 1j * rate)
        path = flow_path(flow, a0, steps)
        fold = _fold_path(flow, a0, steps)
        assert np.max(np.abs(path - fold)) <= steps * 2.0**-52 * np.max(np.abs(fold))
        # |A|^2 gains the factor 1 + |r|^2 |A|^4 per step.  With u = 2^-53:
        # the product's |A|^2 is within 2 sqrt(5) u, each |A|^2 rounds within
        # 2u and the right side's two operations within u each, so at most
        # about 10.5u; 12u leaves room for x drifting from rate |A|^2
        sq = path.real**2 + path.imag**2
        grown = sq[:-1] * (1.0 + rate * rate * sq[:-1] ** 2)
        assert np.all(np.abs(sq[1:] - grown) <= 12 * 2.0**-53 * sq[1:])

    @given(
        a0=st.one_of(
            st.builds(cmath.rect, st.floats(1e-6, 3.0), st.floats(-math.pi, math.pi)),
            st.builds(complex, st.just(0.0), st.floats(1e-6, 3.0) | st.floats(-3.0, -1e-6)),
        ),
        rate=st.floats(1e-5, 0.05),
        steps=st.integers(0, 20_000) | st.just(20_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_vdp_scale_fold_stays_on_the_complex_fold(self, a0, rate, steps):
        flow = AmplitudeFlow(VAN_DER_POL, rate)
        path = flow_path(flow, a0, steps)
        _assert_same_path(path, _fold_path(flow, a0, steps))
        # A2/A1 to a few ulp while both components are normal; a subnormal
        # one carries fewer bits than the ratio's ulp
        if a0.real != 0.0 and not 0.0 < min(abs(a0.real), abs(a0.imag)) < 1e-300:
            assert np.all(_ulps(path.imag / path.real, a0.imag / a0.real) <= 4.0)

    @pytest.mark.parametrize("a0", [1e-160 + 3e-161j, 1e-300j, -1e-310, 0.0, -0.0j])
    def test_vdp_from_a_tiny_amplitude_reaches_the_limit_cycle(self, a0):
        # the scales start at a power of two near |a0|, so k = |u|^2 cannot
        # underflow and the scales cannot overflow on the way to |A| ~ 1
        flow = AmplitudeFlow(VAN_DER_POL, 0.05)
        want = _fold_path(flow, a0, 20_000)
        path = flow_path(flow, a0, 20_000)
        assert path[0] == a0
        _assert_same_path(path, want)
        assert abs(path[-1]) == pytest.approx(1.0 if a0 else 0.0)

    def test_vdp_flow_refuses_a_complex_rate(self):
        with pytest.raises(ValueError, match="real rate"):
            flow_path(AmplitudeFlow(VAN_DER_POL, 0.001 + 1e-9j), 0.3 + 0.2j, 10)

    def test_cubic_flow_refuses_a_real_rate_part(self):
        # a real part scales |A| each step, so A no longer turns by 1 + i x
        with pytest.raises(ValueError, match="imaginary rate"):
            flow_path(AmplitudeFlow(CUBIC, 1e-9 + 0.0015j), 0.3 + 0.2j, 10)

    def test_flow_is_a_frozen_value(self):
        flow = build_flow(first_order(VAN_DER_POL, params(0.02, 0.025)))
        assert flow == AmplitudeFlow(VAN_DER_POL, 0.025 * 0.02)
        with pytest.raises(AttributeError):
            flow.rate = 0.0


class TestCubicClosedForms:
    def test_continuum_initial_value(self):
        a = solve_cubic_continuum(0.5 + 0.2j, 1.5j * 0.05, 0.0)
        b = a.conjugate()
        assert a == 0.5 + 0.2j and b == 0.5 - 0.2j

    def test_continuum_product_conserved_exactly(self):
        a0, b0 = 0.4 + 0.3j, 0.4 - 0.3j
        for t in (0.0, 3.7, 120.0):
            a = solve_cubic_continuum(a0, 1.5j * 0.05, t)
            b = a.conjugate()
            assert a * b == pytest.approx(a0 * b0, rel=1e-14)

    def test_continuum_satisfies_ode(self):
        # centered finite difference of A(t) against (3/2) i eps A^2 B
        eps = 0.05
        a0 = 0.5 + 0.1j
        h = 1e-5
        for t in (0.0, 2.0, 40.0):
            a_prev = solve_cubic_continuum(a0, 1.5j * eps, t - h)
            a_next = solve_cubic_continuum(a0, 1.5j * eps, t + h)
            a_mid = solve_cubic_continuum(a0, 1.5j * eps, t)
            b_mid = a_mid.conjugate()
            derivative = (a_next - a_prev) / (2 * h)
            rhs = 1.5j * eps * a_mid * a_mid * b_mid
            assert abs(derivative - rhs) <= 1e-8 * max(abs(rhs), 1e-12)


class TestVdpContinuum:
    def test_saturates_at_inverse_sqrt_kappa(self):
        c = 0.5
        amps = solve_vdp_continuum(0.2 * (1.0 + 1j * c), 0.05, 400.0)
        assert amps.real == pytest.approx(1.0 / np.sqrt(1.0 + c * c), rel=1e-6)
        # the waveform amplitude saturates at 2
        assert 2.0 * np.hypot(amps.real, amps.imag) == pytest.approx(2.0, rel=1e-6)

    @pytest.mark.parametrize("a0", [0.3 + 0.15j, -0.3 + 0.15j])
    def test_long_horizon_stays_saturated(self, a0):
        # e^{-2 eps t} is 1e-261 at eps t = 300 and underflows to 0 at 400 and
        # 1000; the amplitude stays at its limit throughout
        c = a0.imag / a0.real
        limit = np.sign(a0.real) / np.sqrt(1.0 + c * c) * (1.0 + 1j * c)
        t = np.array([3e5, 4e5, 1e6])
        on_array = continuum_amplitude(VAN_DER_POL, a0, 0.001, t)
        on_scalars = [continuum_amplitude(VAN_DER_POL, a0, 0.001, s) for s in t]
        for amp in (on_array, np.array(on_scalars)):
            assert np.all(np.abs(amp - limit) <= 1e-14 * abs(limit))

    def test_component_ratio_fixed(self):
        amps = solve_vdp_continuum(0.15 * (1.0 + 0.7j), 0.05, 12.0)
        assert amps.imag == pytest.approx(0.7 * amps.real, rel=1e-14)

    def test_satisfies_ode(self):
        eps, c = 0.05, 0.5
        kappa = 1.0 + c * c
        h = 1e-5
        for t in (0.0, 1.0, 10.0):
            a0 = 0.2 * (1.0 + 1j * c)
            prev = solve_vdp_continuum(a0, eps, t - h).real
            nxt = solve_vdp_continuum(a0, eps, t + h).real
            mid = solve_vdp_continuum(a0, eps, t).real
            derivative = (nxt - prev) / (2 * h)
            rhs = eps * mid * (1 - kappa * mid * mid)
            assert abs(derivative - rhs) <= 1e-8 * max(abs(eps * mid), 1e-12)

    def test_sign_preserved_and_monotone(self):
        t = np.linspace(0.0, 100.0, 400)
        amps = solve_vdp_continuum(-0.2 * (1.0 + 0.3j), 0.05, t)
        assert np.all(amps.real < 0)
        assert np.all(np.diff(np.abs(amps.real)) >= -1e-15)

    @given(
        a1=st.floats(-0.999, 0.999).filter(lambda x: abs(x) >= 1e-3),
        c=st.floats(-3.0, 3.0),
        rate=st.floats(1e-4, 0.3),
        rate_t=st.floats(0.0, 300.0),
    )
    @settings(max_examples=200)
    def test_matches_family_constant_form(self, a1, c, rate, rate_t):
        # below the limit cycle the initial-value form and the family-constant
        # form are the same function of |a0|^2 and of the same rounded rate t;
        # they differ only in rounding.  With each +, -, *, / and sqrt within
        # u = 2^-53 and exp within 2u (under 1 ulp), to first order the
        # initial-value form is within 4.5u of that function and the
        # family-constant form within 10u: 8u from its own operations and
        # 2u from e^{rate t}, which enters with a weight of at most 1
        a0 = a1 * (1.0 + 1j * c)
        assume((a0 * a0.conjugate()).real < 1.0)
        t = rate_t / rate
        want = _family_constant_form(a0, rate, t)
        got = solve_vdp_continuum(a0, rate, t)
        assert abs(got.real - want) <= 14.5 * 2.0**-53 * abs(want)

    def test_underflowed_settled_value_raises(self):
        # |a0|^2 underflows to 0, where the denominator would underflow with
        # e^{-2 rate t}; the closed form refuses a0 before evaluating it
        with pytest.raises(ValueError, match=r"underflows at a0 = \(1e-200\+0j\)"):
            solve_vdp_continuum(1e-200, 0.01, 1e5)

    @pytest.mark.parametrize("a0", [1.0, -1.0, 0.6 + 0.8j])
    def test_starts_on_the_limit_cycle_and_stays(self, a0):
        t = np.array([0.0, 1.0, 1e3, 1e6])
        amps = continuum_amplitude(VAN_DER_POL, a0, 0.05, t)
        if a0.imag == 0.0:
            assert np.all(amps == a0)
        else:
            assert np.all(np.abs(amps - a0) <= 1e-15)

    def test_decays_to_the_limit_from_above(self):
        t = np.linspace(0.0, 400.0, 200)
        amps = solve_vdp_continuum(1.5, 0.05, t).real
        assert amps[0] == 1.5
        assert np.all(np.diff(amps) <= 0.0)
        assert amps[-1] == pytest.approx(1.0, abs=1e-15)

    def test_domain_error(self):
        # a negative rate from above the limit (|a0|^2 = 2) drives the
        # denominator 2 - e^{0.1 t} through zero
        with pytest.raises(ValueError):
            solve_vdp_continuum(1.0 + 1.0j, -0.05, 40.0)

    def test_domain_error_names_the_first_time(self):
        # |a0|^2 = 3 and a negative rate: the denominator 3 - 2 e^{0.1 t}
        # reaches 0 at t = 4.05
        t = np.arange(10) * 1.0
        with pytest.raises(EnvelopeDomainError, match="vanishes at t=5;") as info:
            solve_vdp_continuum(complex(1.0, math.sqrt(2.0)), -0.05, t)
        assert info.value.index == 5

    def test_negative_time_from_above_names_the_first_time(self):
        # |a0|^2 = 4 run backwards: the denominator 4 - 3 e^{0.1 |t|}
        # reaches 0 at t = -2.88
        t = -np.arange(6.0)
        with pytest.raises(EnvelopeDomainError, match="vanishes at t=-3;") as info:
            solve_vdp_continuum(2.0, 0.05, t)
        assert info.value.index == 3

    def test_negative_time_from_below_stays_in_the_domain(self):
        # |a0|^2 = 1/2 run backwards: the denominator only grows, and the
        # amplitude shrinks toward 0 with its component ratio kept
        t = -np.array([0.0, 10.0, 100.0, 1000.0])
        amps = solve_vdp_continuum(0.5 + 0.5j, 0.05, t)
        assert amps[0] == 0.5 + 0.5j
        assert np.all(amps.imag == amps.real)
        assert np.all(np.diff(amps.real) < 0.0) and amps.real[-1] > 0.0

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            solve_vdp_continuum(0.0, 0.05, 1.0)


class TestConservedConstant:
    def test_cubic_product(self):
        assert conserved_constant(CUBIC, 0.5 + 0.1j) == pytest.approx(
            0.26 + 0j
        )

    def test_vdp_ratio(self):
        assert conserved_constant(VAN_DER_POL, 0.2 + 0.1j) == pytest.approx(
            0.5 + 0j
        )

    def test_vdp_zero_real_part_rejected(self):
        with pytest.raises(ValueError):
            conserved_constant(VAN_DER_POL, 1.0j)


class TestContinuumLimit:
    def test_zero_eps_no_deviation(self):
        dev = continuum_limit_check(first_order(CUBIC, params(0.01, 0.0)), 0.5, 10.0)
        assert dev == 0.0

    def test_cubic_first_order_in_dt(self):
        devs = [
            continuum_limit_check(first_order(CUBIC, params(dt, 0.05)), 0.5, 20.0)
            for dt in (0.02, 0.01)
        ]
        assert devs[1] > 0
        assert 1.7 <= devs[0] / devs[1] <= 2.3

    def test_vdp_first_order_in_dt(self):
        devs = [
            continuum_limit_check(first_order(VAN_DER_POL, params(dt, 0.05)), 0.3 + 0.15j, 20.0)
            for dt in (0.02, 0.01)
        ]
        assert devs[1] > 0
        assert 1.7 <= devs[0] / devs[1] <= 2.3


_DT, _N = sp.symbols("dt n", positive=True)
_A, _B, _L, _X = sp.symbols("a b L X")  # X stands for L^n
_MU = _DT**2
_MICKENS_MU = 4 * sp.sin(_DT / 2) ** 2
_ROOT = (2 - _MU) / 2 + sp.I * _DT * sp.sqrt(4 - _MU) / 2  # exact root of unit modulus
_MICKENS_ROOT = sp.cos(_DT) + sp.I * sp.sin(_DT)  # the mickens scheme's, e^{i dt}
_RATE_KINDS = [CUBIC, VAN_DER_POL]
_LIMITS = {CUBIC: 1.5j, VAN_DER_POL: 1.0}  # the dt -> 0 rate over eps dt


def _forcing(kind, mu=_MU):
    """First-order right-hand side of the scheme of weight mu, in powers of X.

    z0 = a L^n + b L^-n is put into mu (-z^3) for the cubic scheme and into
    (mu/dt) (1 - z^2)(z(n+1) - z(n-1)) for the Van der Pol one; expanding
    collects L L^-1 = 1.  The default weight is the
    standard scheme's.  Also returns the secular mode, a^2 b (cubic) or
    a - a^2 b (Van der Pol).
    """

    def z0(shift):
        return _A * _L**shift * _X + _B * _L**-shift / _X

    if kind is Variant.CUBIC:
        return sp.expand(mu * -z0(0) ** 3), _A**2 * _B
    rhs = (mu / _DT) * (1 - z0(0) ** 2) * (z0(1) - z0(-1))
    return sp.expand(rhs), _A - _A**2 * _B


@lru_cache(maxsize=None)
def _forcing_powers(kind, scheme):
    """The X^k coefficients of _forcing for k in {3, 1, -1, -3}, for one scheme."""
    rhs, _ = _forcing(kind, _MU if scheme is Scheme.STANDARD else _MICKENS_MU)
    return {k: rhs.coeff(_X, k) for k in (3, 1, -1, -3)}


def _complex30(z):
    return sp.Float(z.real, 30) + sp.I * sp.Float(z.imag, 30)


@lru_cache(maxsize=None)
def _symbolic_rate(kind, scheme=Scheme.STANDARD):
    """Per-step amplitude rate over eps of a scheme at its exact roots.

    Derived from the scheme alone: the L^n coefficient F of the first-order
    right-hand side (see _forcing) is resonant.  The scheme's operator maps
    n L^n to (L - 1/L) L^n at a root, so F drives n L^n with coefficient
    F / (L - 1/L); the rate is that coefficient per unit of the secular mode.
    """
    mu, root = (_MU, _ROOT) if scheme is Scheme.STANDARD else (_MICKENS_MU, _MICKENS_ROOT)
    rhs, mode = _forcing(kind, mu)
    operator = sp.expand((_N + 1) * _L - (2 - mu) * _N + (_N - 1) / _L)
    assert sp.simplify(operator.coeff(_N, 1).subs(_L, root)) == 0
    coefficient = rhs.coeff(_X, 1) / operator.coeff(_N, 0)
    rate = sp.factor(sp.cancel(coefficient / mode))
    assert not rate.free_symbols & {_A, _B, _X}
    return sp.simplify(rate.subs(_L, root))


@lru_cache(maxsize=None)
def _symbolic_third_harmonic(kind):
    """Coefficient of a^3 L^3n in z1 for the standard scheme at exact roots.

    The L^3n coefficient F3 of the first-order right-hand side is not
    resonant: the scheme's operator maps L^3n to (L^3 - (2 - mu) + L^-3) L^3n,
    so z1 carries F3 / (L^3 - (2 - mu) + L^-3), taken per unit of a^3.
    """
    rhs, _ = _forcing(kind)
    coefficient = rhs.coeff(_X, 3) / (_L**3 - (2 - _MU) + _L**-3)
    k3 = sp.cancel(coefficient / _A**3)
    assert not k3.free_symbols & {_A, _B, _X}
    return sp.simplify(k3.subs(_L, _ROOT))


class TestSecularRate:
    """The first-order record's rate against the rate derived with sympy from
    the two schemes."""

    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_continuum_limit(self, kind):
        # (3/2) i eps (cubic) and eps (Van der Pol) as dt -> 0
        limit = sp.limit(_symbolic_rate(kind) / _DT, _DT, 0)
        assert complex(limit) == _LIMITS[kind]
        for scheme in Scheme:
            p = SchemeParams(dt=1e-4, eps=0.5, scheme=scheme)
            rate = first_order(kind, p).rate / (p.eps * p.dt)
            assert rate == pytest.approx(_LIMITS[kind], rel=1e-8)

    @pytest.mark.parametrize("dt", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_extract_secular_at_exact_roots(self, kind, dt):
        p = SchemeParams(dt=dt, eps=0.01, root_convention=RootConvention.EXACT_UNIT_MODULUS)
        a = 0.4 + 0.3j
        z1 = first_order_solution(kind, a, p)
        sigma = extract_secular(z1, p)
        mode = a * a * a.conjugate() if kind is Variant.CUBIC else a - a * a * a.conjugate()
        expected = complex(_symbolic_rate(kind).subs(_DT, sp.Float(dt, 30)).evalf(30))
        assert abs(sigma / mode - expected) <= 1e-12 * abs(expected)

    def test_cubic_rate_series(self):
        # the exact-dt rate exceeds its dt -> 0 limit at second order in dt
        series = sp.series(_symbolic_rate(CUBIC) / _DT, _DT, 0, 4).removeO()
        assert sp.simplify(series - (3 * sp.I / 2 + 3 * sp.I * _DT**2 / 16)) == 0

    def test_vdp_rate_is_exact_at_every_dt(self):
        assert sp.simplify(_symbolic_rate(VAN_DER_POL) / _DT) == 1

    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_build_flow_rate(self, kind):
        for dt, eps in ((0.01, 0.01), (0.1, 0.03), (0.02, 0.05), (0.3, 0.007)):
            p = params(dt, eps)
            first = first_order(kind, p)
            assert build_flow(first_order(kind, p)).rate == first.rate
            assert build_flow(first) == build_flow(first_order(kind, p))
            assert first.rate / (eps * dt) == pytest.approx(_LIMITS[kind], rel=0.02)

    def test_frequency_shift(self):
        for eps, a0 in ((0.01, 0.5), (0.03, 0.4 + 0.3j), (0.05, -0.2 + 0.7j)):
            p = params(0.01, eps)
            shift = GlobalSolution(first_order(CUBIC, p), a0).frequency_shift()
            c = (a0 * complex(a0).conjugate()).real
            assert shift == 1 + (first_order(CUBIC, p).rate / p.dt).imag * c


class TestFirstOrderRecord:
    """The one first-order record per (kind, params), pinned independently of
    the code that builds it."""

    # eps sigma / (mono(a) limit dt), derived at finite dt (ROADMAP item 3)
    CLOSED_FORMS = {
        (CUBIC, Scheme.STANDARD): 1 / sp.sqrt(1 - _MU / 4),
        (CUBIC, Scheme.MICKENS): 2 * sp.tan(_DT / 2) / _DT,
        (VAN_DER_POL, Scheme.STANDARD): sp.Integer(1),
        (VAN_DER_POL, Scheme.MICKENS): _MICKENS_MU / _DT**2,
    }

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_rate_factor_at_finite_dt(self, kind, scheme):
        closed = self.CLOSED_FORMS[kind, scheme]
        limit = 3 * sp.I / 2 if kind is CUBIC else 1
        factor = sp.simplify(_symbolic_rate(kind, scheme) / (limit * _DT))
        assert sp.simplify(factor - closed) == 0
        for dt in (0.01, 0.1, 0.5, 1.0):
            p = SchemeParams(dt=dt, eps=0.01, scheme=scheme)
            got = first_order(kind, p).rate / (_LIMITS[kind] * p.eps * dt)
            want = complex(closed.subs(_DT, sp.Float(dt, 30)).evalf(30))
            assert abs(got - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("dt", [0.01, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_rate_times_monomial_is_the_extracted_secular(self, kind, scheme, dt):
        p = SchemeParams(dt=dt, eps=0.02, scheme=scheme)
        first = first_order(kind, p)
        for a in (0.4 + 0.3j, -0.7 + 0.05j, 1.3j):
            sigma = extract_secular(first_order_solution(kind, a, p), p)
            assert abs(p.eps * sigma - first.rate * monomial(kind, a)) <= 1e-13 * abs(p.eps * sigma)

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_projection_drops_rounding_alone(self, kind, scheme):
        # the cubic rate kept on the imaginary axis, the Van der Pol one on
        # the real axis; the part dropped is rounding (at most 1.4e-14 of it
        # when measured)
        for dt in (1.6e-5, 1e-3, 0.01, 0.1, 0.5, 1.0, 1.5, 1.9):
            p = SchemeParams(dt=dt, eps=0.01, scheme=scheme)
            z1, _ = perturbation._unit_response(kind, p)
            full = p.eps * z1.coefficient(characteristic_roots(p)[0], 1)
            kept = first_order(kind, p).rate
            assert kept == (1j * full.imag if kind is CUBIC else full.real)
            assert abs(full - kept) <= 1e-13 * abs(full)

    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_one_particular_solution_per_record(self, monkeypatch, kind):
        calls = []
        original = perturbation.particular_solution
        monkeypatch.setattr(perturbation, "particular_solution",
                            lambda *args: calls.append(args) or original(*args))
        first = first_order(kind, params(0.1, 0.02))
        assert len(calls) == 1
        assert first.k3 == third_harmonic_coefficient(kind, params(0.1, 0.02))

    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_first_order_roots_refused(self, kind):
        p = SchemeParams(dt=0.1, eps=0.02, root_convention=RootConvention.FIRST_ORDER)
        with pytest.raises(ValueError, match="needs the exact roots, not the 'first-order'"):
            first_order(kind, p)
        with pytest.raises(ValueError, match="needs the exact roots"):
            GlobalSolution(first_order(kind, p), 0.5)


class TestForcingAlgebra:
    """first_order_forcing against the forcing expanded with sympy, b = conj(a)."""

    @pytest.mark.parametrize("convention", list(RootConvention))
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("dt", [0.01, 0.1, 0.5])
    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_mode_coefficients(self, kind, dt, scheme, convention):
        # the lam_p modes match the expansion at L = lam_p under both
        # conventions; the lam_m modes are their conjugates, exactly in the
        # forcing and in the zeroth order, and match the expansion's L^-1
        # modes only where 1/lam_p = lam_m, at exact roots
        p = SchemeParams(dt=dt, root_convention=convention, scheme=scheme)
        lp, lm = characteristic_roots(p)
        a = 0.4 + 0.3j
        f = first_order_forcing(kind, a, p)
        point = {_DT: sp.Float(dt, 30), _L: _complex30(lp), _A: _complex30(a),
                 _B: _complex30(a.conjugate())}
        powers = _forcing_powers(kind, scheme)
        want = {k: complex(c.subs(point).evalf(30)) for k, c in powers.items()}
        for k in (1, 3):
            plus, minus = f.coefficient(lp**k), f.coefficient(lm**k)
            assert abs(plus - want[k]) <= 1e-12 * abs(want[k])
            if convention is RootConvention.EXACT_UNIT_MODULUS:
                assert abs(minus - want[-k]) <= 1e-12 * abs(want[-k])
        for full, k in ((f, 1), (f, 3), (zeroth_order(a, p), 1)):
            assert full.coefficient(lm**k) == full.coefficient(lp**k).conjugate()


class TestThirdHarmonic:
    """third_harmonic_coefficient against the coefficient derived with sympy."""

    @pytest.mark.parametrize(
        "kind, limit",
        [(CUBIC, sp.Rational(1, 8)), (VAN_DER_POL, sp.I / 4)],
    )
    def test_continuum_limit(self, kind, limit):
        assert sp.simplify(sp.limit(_symbolic_third_harmonic(kind), _DT, 0) - limit) == 0

    @pytest.mark.parametrize("dt", [0.01, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("kind", _RATE_KINDS)
    def test_coefficient_at_exact_roots(self, kind, dt):
        p = SchemeParams(dt=dt, eps=0.01, root_convention=RootConvention.EXACT_UNIT_MODULUS)
        expected = complex(_symbolic_third_harmonic(kind).subs(_DT, sp.Float(dt, 30)).evalf(30))
        assert abs(third_harmonic_coefficient(kind, p) - expected) <= 1e-12 * abs(expected)
