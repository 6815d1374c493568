import numpy as np
import pytest

from renormdiff.lineardiff import SchemeParams
from renormdiff.perturbation import CUBIC, VAN_DER_POL, van_der_pol
from renormdiff.renormalization import (
    KappaConvention,
    build_flow,
    conserved_constant,
    continuum_limit_check,
    fit_envelope_constant,
    flow_path,
    kappa_value,
    solve_cubic_continuum,
    solve_cubic_discrete_closed,
    solve_vdp_continuum,
)

C_SQ = KappaConvention.ONE_PLUS_C_SQUARED
C_LIN = KappaConvention.ONE_PLUS_C


def params(dt, eps):
    return SchemeParams(dt=dt, eps=eps)


class TestBuildFlow:
    def test_cubic_step(self):
        p = params(0.01, 0.05)
        flow = build_flow(CUBIC, p)
        a = 0.4 + 0.1j
        b = a.conjugate()
        da = flow(a)
        db = da.conjugate()
        assert da == pytest.approx(1.5j * 0.05 * 0.01 * a * a * b)
        assert db == pytest.approx(-1.5j * 0.05 * 0.01 * b * b * a)

    def test_vdp_step(self):
        p = params(0.01, 0.05)
        flow = build_flow(VAN_DER_POL, p)
        a = 0.4 + 0.1j
        b = a.conjugate()
        da = flow(a)
        db = da.conjugate()
        assert da == pytest.approx(0.05 * 0.01 * (a - a * a * b))
        assert db == pytest.approx(0.05 * 0.01 * (b - b * b * a))

    def test_vdp_halving_halves_rate(self):
        p = params(0.01, 0.05)
        a = 0.4 + 0.1j
        da_full = build_flow(VAN_DER_POL, p)(a)
        da_half = build_flow(van_der_pol(halving=True), p)(a)
        assert da_half == pytest.approx(0.5 * da_full)

    def test_zero_eps_constant_flow(self):
        flow = build_flow(CUBIC, params(0.01, 0.0))
        a = flow_path(flow, 0.3 + 0.2j, 500)[-1]
        assert (a, a.conjugate()) == (0.3 + 0.2j, 0.3 - 0.2j)


class TestIterateFlow:
    def test_zero_steps_identity(self):
        flow = build_flow(CUBIC, params(0.01, 0.05))
        a = flow_path(flow, 0.5, 0)[-1]
        assert (a, a.conjugate()) == (0.5 + 0j, 0.5 + 0j)

    def test_cubic_per_step_drift_formula(self):
        # the product AB drifts by exactly (9/4) eps^2 dt^2 (AB)^3 per step
        p = params(0.01, 0.02)
        flow = build_flow(CUBIC, p)
        a0, b0 = 0.6 + 0.1j, 0.6 - 0.1j
        a1 = flow_path(flow, a0, 1)[-1]
        b1 = a1.conjugate()
        drift = a1 * b1 - a0 * b0
        expected = 2.25 * p.eps**2 * p.dt**2 * (a0 * b0) ** 3
        assert abs(drift - expected) <= 1e-12

    def test_cubic_drift_quarters_with_eps(self):
        a0, b0 = 0.5, 0.5
        drifts = []
        for eps in (0.04, 0.02):
            flow = build_flow(CUBIC, params(0.01, eps))
            a1 = flow_path(flow, a0, 1)[-1]
            b1 = a1.conjugate()
            drifts.append(abs(a1 * b1 - a0 * b0))
        assert drifts[0] / drifts[1] == pytest.approx(4.0, rel=1e-9)

    def test_vdp_ratio_invariant_over_long_iteration(self):
        flow = build_flow(VAN_DER_POL, params(0.01, 0.05))
        a0 = 0.3 + 0.21j
        a = flow_path(flow, a0, 10_000)[-1]
        ratio0 = a0.imag / a0.real
        ratio = a.imag / a.real
        assert abs(ratio - ratio0) <= 1e-10 * abs(ratio0)

    def test_overflow_guard(self):
        flow = build_flow(CUBIC, params(1.0, 0.4))
        with pytest.raises(OverflowError):
            flow_path(flow, 1e5, 10)

    def test_path_is_deterministic(self):
        flow = build_flow(VAN_DER_POL, params(0.01, 0.05))
        a1 = flow_path(flow, 0.2 + 0.1j, 200)
        a2 = flow_path(flow, 0.2 + 0.1j, 200)
        assert np.array_equal(a1, a2)


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
        "kind, variant, rate",
        [
            (CUBIC, "cubic", 1.5j * 0.05 * 0.02),
            (VAN_DER_POL, "vdp", 0.05 * 0.02),
            (van_der_pol(halving=True), "vdp", 0.05 * 0.02 * 0.5),
        ],
    )
    def test_flow_path_equals_two_amplitude_map(self, kind, variant, rate):
        a0 = 0.3 + 0.21j
        a_ref, b_ref = _two_amplitude_path(variant, rate, a0, 2000)
        assert b_ref.tobytes() == np.conj(a_ref).tobytes()
        a_path = flow_path(build_flow(kind, params(0.02, 0.05)), a0, 2000)
        assert a_path.tobytes() == a_ref.tobytes()


class TestCubicClosedForms:
    def test_discrete_closed_zero_steps(self):
        a = solve_cubic_discrete_closed(0.5, params(0.01, 0.01), 0)
        b = a.conjugate()
        assert a == 0.5 and b == 0.5

    def test_discrete_closed_tracks_iterated_map(self):
        p = params(0.01, 0.01)
        a0 = 0.5
        a_closed = solve_cubic_discrete_closed(a0, p, 100)
        b_closed = a_closed.conjugate()
        flow = build_flow(CUBIC, p)
        a_iter = flow_path(flow, a0, 100)[-1]
        b_iter = a_iter.conjugate()
        assert abs(a_closed - a_iter) <= 1e-5 * abs(a_iter)
        assert abs(b_closed - b_iter) <= 1e-5 * abs(b_iter)

    def test_discrete_modulus_growth(self):
        p = params(0.01, 0.05)
        a0, b0 = 0.5, 0.5
        m = 200
        a = solve_cubic_discrete_closed(a0, p, m)
        c = a0 * b0
        expected = abs(a0) * abs(1 + 1.5j * p.eps * c * p.dt) ** m
        assert abs(a) == pytest.approx(expected, rel=1e-12)
        # for real c the growth factor is 1 + O(eps^2 dt^2) per step
        per_step = abs(1 + 1.5j * p.eps * c * p.dt)
        assert per_step - 1.0 == pytest.approx(
            0.5 * (1.5 * p.eps * c * p.dt) ** 2, rel=1e-4
        )

    def test_continuum_initial_value(self):
        a = solve_cubic_continuum(0.5 + 0.2j, 0.05, 0.0)
        b = a.conjugate()
        assert a == 0.5 + 0.2j and b == 0.5 - 0.2j

    def test_continuum_product_conserved_exactly(self):
        a0, b0 = 0.4 + 0.3j, 0.4 - 0.3j
        for t in (0.0, 3.7, 120.0):
            a = solve_cubic_continuum(a0, 0.05, t)
            b = a.conjugate()
            assert a * b == pytest.approx(a0 * b0, rel=1e-14)

    def test_continuum_satisfies_ode(self):
        # centered finite difference of A(t) against (3/2) i eps A^2 B
        eps = 0.05
        a0 = 0.5 + 0.1j
        h = 1e-5
        for t in (0.0, 2.0, 40.0):
            a_prev = solve_cubic_continuum(a0, eps, t - h)
            a_next = solve_cubic_continuum(a0, eps, t + h)
            a_mid = solve_cubic_continuum(a0, eps, t)
            b_mid = a_mid.conjugate()
            derivative = (a_next - a_prev) / (2 * h)
            rhs = 1.5j * eps * a_mid * a_mid * b_mid
            assert abs(derivative - rhs) <= 1e-8 * max(abs(rhs), 1e-12)


class TestVdpContinuum:
    def test_conventions_coincide_at_zero_ratio(self):
        for t in (0.0, 5.0):
            lin = solve_vdp_continuum(0.2, 0.0, 0.05, t, C_LIN)
            sq = solve_vdp_continuum(0.2, 0.0, 0.05, t, C_SQ)
            assert lin.a1 == sq.a1
            assert lin.a2 == 0.0

    def test_saturates_at_inverse_sqrt_kappa(self):
        c = 0.5
        for convention in (C_SQ, C_LIN):
            kappa = kappa_value(c, convention)
            amps = solve_vdp_continuum(0.2, c, 0.05, 400.0, convention)
            assert amps.a1 == pytest.approx(1.0 / np.sqrt(kappa), rel=1e-6)
        # under the squared convention the waveform amplitude saturates at 2
        amps = solve_vdp_continuum(0.2, c, 0.05, 400.0, C_SQ)
        assert 2.0 * np.hypot(amps.a1, amps.a2) == pytest.approx(2.0, rel=1e-6)

    def test_component_ratio_fixed(self):
        amps = solve_vdp_continuum(0.15, 0.7, 0.05, 12.0, C_SQ)
        assert amps.a2 == pytest.approx(0.7 * amps.a1, rel=1e-14)

    def test_satisfies_ode(self):
        eps, c = 0.05, 0.5
        kappa = kappa_value(c, C_SQ)
        h = 1e-5
        for t in (0.0, 1.0, 10.0):
            prev = solve_vdp_continuum(0.2, c, eps, t - h, C_SQ).a1
            nxt = solve_vdp_continuum(0.2, c, eps, t + h, C_SQ).a1
            mid = solve_vdp_continuum(0.2, c, eps, t, C_SQ).a1
            derivative = (nxt - prev) / (2 * h)
            rhs = eps * mid * (1 - kappa * mid * mid)
            assert abs(derivative - rhs) <= 1e-8 * max(abs(eps * mid), 1e-12)

    def test_sign_preserved_and_monotone(self):
        t = np.linspace(0.0, 100.0, 400)
        amps = solve_vdp_continuum(-0.2, 0.3, 0.05, t, C_SQ)
        assert np.all(amps.a1 < 0)
        assert np.all(np.diff(np.abs(amps.a1)) >= -1e-15)

    def test_domain_error(self):
        # kappa < 0 with a large constant drives the denominator through zero
        with pytest.raises(ValueError):
            solve_vdp_continuum(1.0, -3.0, 0.05, 40.0, C_LIN)

    def test_zero_constant_rejected(self):
        with pytest.raises(ValueError):
            solve_vdp_continuum(0.0, 0.5, 0.05, 1.0)

    def test_fit_envelope_constant_roundtrip(self):
        kappa = kappa_value(0.5, C_SQ)
        const = fit_envelope_constant(0.21, kappa)
        assert solve_vdp_continuum(const, 0.5, 0.05, 0.0, C_SQ).a1 == pytest.approx(
            0.21, rel=1e-12
        )

    def test_fit_envelope_constant_out_of_reach(self):
        with pytest.raises(ValueError):
            fit_envelope_constant(2.0, 1.0)


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
        dev = continuum_limit_check(CUBIC, 0.5, params(0.01, 0.0), 10.0)
        assert dev == 0.0

    def test_cubic_first_order_in_dt(self):
        devs = [
            continuum_limit_check(CUBIC, 0.5, params(dt, 0.05), 20.0)
            for dt in (0.02, 0.01)
        ]
        assert devs[1] > 0
        assert 1.7 <= devs[0] / devs[1] <= 2.3

    def test_vdp_first_order_in_dt(self):
        devs = [
            continuum_limit_check(VAN_DER_POL, 0.3 + 0.15j, params(dt, 0.05), 20.0)
            for dt in (0.02, 0.01)
        ]
        assert devs[1] > 0
        assert 1.7 <= devs[0] / devs[1] <= 2.3
