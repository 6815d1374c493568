import numpy as np
import pytest

from renormdiff.lineardiff import (
    HarmonicSum,
    HarmonicTerm,
    RootConvention,
    SchemeParams,
    characteristic_roots,
    power_table,
    scheme_residual,
)
from renormdiff.oracle import init_from_amplitude, iterate
from renormdiff.perturbation import (
    CUBIC,
    VAN_DER_POL,
    extract_secular,
    first_order_forcing,
    first_order_solution,
    naive_solution,
    nonlinearity_value,
    van_der_pol,
    zeroth_order,
)

FIRST = RootConvention.FIRST_ORDER
EXACT = RootConvention.EXACT_UNIT_MODULUS


def params(dt, eps=0.0, convention=FIRST):
    return SchemeParams(dt=dt, eps=eps, root_convention=convention)


class TestZerothOrder:
    def test_conjugate_pair_real_and_unit_at_zero(self):
        p = params(0.1)
        lp, lm = characteristic_roots(p)
        z0 = zeroth_order(0.5 + 0.2j, p)
        assert z0.evaluate(0) == pytest.approx(1.0)
        assert z0.coefficient(lp) == 0.5 + 0.2j
        assert z0.coefficient(lm) == 0.5 - 0.2j
        vals = z0.evaluate(np.arange(0, 2000, 37))
        assert np.max(np.abs(vals.imag)) <= 1e-12 * np.max(np.abs(vals.real))

    def test_exact_roots_give_trig_combination(self):
        dt = 0.1
        p = params(dt, convention=EXACT)
        a = (1.0 - 1.0j) / 2.0
        z0 = zeroth_order(a, p)
        theta = np.arccos(1.0 - dt * dt / 2.0)
        for n in (0, 1, 7, 40):
            expected = np.cos(n * theta) + np.sin(n * theta)
            assert z0.evaluate(n).real == pytest.approx(expected, abs=1e-12)


class TestFirstOrderForcing:
    def test_cubic_single_mode(self):
        # the lam_p^3 mode carries -dt^2 a^3 alone
        dt = 0.1
        a = 0.6 + 0.3j
        f = first_order_forcing(CUBIC, a, params(dt))
        assert len(f.terms) == 4
        assert f.coefficient((1 + 0.1j) ** 3) == pytest.approx(-(dt**2) * a**3)

    def test_zero_amplitudes_empty(self):
        f = first_order_forcing(CUBIC, 0.0, params(0.1))
        assert f.terms == ()

    def test_cubic_matches_pointwise_cube_exact_roots(self):
        # with unit-modulus roots the cross-term collection is exact, so the
        # collected forcing equals -dt^2 z0(n)^3 pointwise
        dt = 0.05
        p = params(dt, convention=EXACT)
        a0 = 0.4 + 0.3j
        z0 = zeroth_order(a0, p)
        f = first_order_forcing(CUBIC, a0, p)
        for n in (0, 3, 11, 100):
            expected = -(dt**2) * z0.evaluate(n) ** 3
            assert f.evaluate(n) == pytest.approx(expected, rel=1e-10, abs=1e-13)

    def test_vdp_matches_pointwise_exact_roots(self):
        dt = 0.05
        p = params(dt, convention=EXACT)
        a0 = 0.3 + 0.2j
        z0 = zeroth_order(a0, p)
        f = first_order_forcing(VAN_DER_POL, a0, p)
        rng = np.random.default_rng(3)
        for n in rng.integers(1, 200, size=10):
            n = int(n)
            expected = (
                dt
                * (1.0 - z0.evaluate(n) ** 2)
                * (z0.evaluate(n + 1) - z0.evaluate(n - 1))
            )
            assert f.evaluate(n) == pytest.approx(expected, rel=1e-10, abs=1e-13)

    def test_vdp_single_mode_first_order_roots_pointwise(self):
        # the single mode u(n) = a lam_p^n has no cross terms, so its product
        # dt (1 - u^2)(u(n+1) - u(n-1)) is the forcing's lam_p half exactly
        # under the first-order convention, once the lam_p coefficient's
        # cross-term part -dt a^2 b s (b = conj(a), s = lam_p - 1/lam_p) is
        # taken out
        dt = 0.1
        p = params(dt)
        lp, _ = characteristic_roots(p)
        a = 0.4 + 0.3j
        f = first_order_forcing(VAN_DER_POL, a, p)
        half = HarmonicSum(tuple(t for t in f.terms if t.base in (lp, lp**3)))
        cross = -dt * a * a * a.conjugate() * (lp - 1 / lp)
        for n in (1, 5, 23):
            u = [a * lp ** (n + k) for k in (-1, 0, 1)]
            expected = dt * (1.0 - u[1] ** 2) * (u[2] - u[0])
            assert half.evaluate(n) - cross * lp**n == pytest.approx(expected, rel=1e-10)

    def test_halving_halves_the_forcing(self):
        p = params(0.1)
        a0 = 0.4 + 0.1j
        full = first_order_forcing(VAN_DER_POL, a0, p)
        half = first_order_forcing(van_der_pol(halving=True), a0, p)
        for t_full, t_half in zip(full.terms, half.terms):
            assert t_half.coeff == pytest.approx(0.5 * t_full.coeff)


class TestFirstOrderSolution:
    def test_cubic_secular_coefficient_formula(self):
        dt = 0.1
        p = params(dt)
        lp, _ = characteristic_roots(p)
        a = b = 0.5
        z1 = first_order_solution(CUBIC, a, p)
        sigma = extract_secular(z1, p)
        expected = -3 * dt * dt * a * a * b / (lp - 1 / lp)
        assert sigma == pytest.approx(expected, rel=1e-12)

    def test_two_secular_terms_when_both_amplitudes_nonzero(self):
        z1 = first_order_solution(CUBIC, 0.5, params(0.1))
        assert sum(1 for t in z1.terms if t.n_power == 1) == 2

    def test_vdp_secular_coefficient_is_exactly_scaled(self):
        # the resonant response divides out the same mode-difference factor
        # that the forcing carries, so sigma = dt (a - a^2 b) to rounding
        for convention in (FIRST, EXACT):
            for dt in (0.1, 0.01):
                p = params(dt, convention=convention)
                a = 0.5 + 0.0j
                b = a.conjugate()
                z1 = first_order_solution(VAN_DER_POL, a, p)
                sigma = extract_secular(z1, p)
                assert sigma == pytest.approx(dt * (a - a * a * b), rel=1e-12)

    def test_cubic_secular_limit_exact_roots(self):
        # sigma approaches (3/2) i dt a^2 b at second order in dt under the
        # unit-modulus convention
        a = b = 0.5
        rel_errs = []
        for dt in (1e-1, 1e-2):
            p = params(dt, convention=EXACT)
            sigma = extract_secular(first_order_solution(CUBIC, a, p), p)
            limit = 1.5j * dt * a * a * b
            rel_errs.append(abs(sigma - limit) / abs(limit))
        assert rel_errs[0] == pytest.approx(rel_errs[1] * 100.0, rel=0.2)

    def test_conjugate_symmetry(self):
        p = params(0.1)
        _, lm = characteristic_roots(p)
        z1 = first_order_solution(CUBIC, 0.3 + 0.4j, p)
        sigma = extract_secular(z1, p)
        assert z1.coefficient(lm, 1) == pytest.approx(sigma.conjugate())


class TestExtractSecular:
    def test_no_secular_terms(self):
        assert extract_secular(HarmonicSum((HarmonicTerm(1.0, 2.0),)), params(0.1)) == 0

    def test_hand_built_secular(self):
        p = params(0.1)
        lp, lm = characteristic_roots(p)
        assert extract_secular(HarmonicSum((HarmonicTerm(2.0, lp, 1),)), p) == 2.0
        # a secular term on lam_m is expected, and left out of the lam_p sum
        both = HarmonicSum((HarmonicTerm(2.0, lp, 1), HarmonicTerm(5.0, lm, 1)))
        assert extract_secular(both, p) == 2.0

    def test_unexpected_base_raises(self):
        p = params(0.1)
        with pytest.raises(ValueError):
            extract_secular(HarmonicSum((HarmonicTerm(1.0, 2.0 + 0j, 1),)), p)


class TestNaiveSolution:
    def test_eps_zero_reduces_to_homogeneous(self):
        p = params(0.1, eps=0.0)
        a0 = 0.4 + 0.2j
        z0 = zeroth_order(a0, p)
        n = np.arange(50)
        assert np.allclose(naive_solution(CUBIC, a0, p, n), z0.evaluate(n).real)

    def test_array_owns_its_data_and_scalar_is_a_float(self):
        p = params(0.01, eps=0.02, convention=EXACT)
        z = naive_solution(CUBIC, 0.4 + 0.1j, p, np.arange(1000))
        assert z.dtype == float and z.base is None
        assert type(naive_solution(CUBIC, 0.4 + 0.1j, p, 7)) is float

    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    def test_supplied_powers_change_no_byte(self, kind):
        p = params(0.01, eps=0.02, convention=EXACT)
        n = np.arange(5000)
        lam_p = characteristic_roots(p)[0]
        powers = ((lam_p, power_table(lam_p, n)), (lam_p**3, power_table(lam_p**3, n)))
        got = naive_solution(kind, 0.4 + 0.1j, p, n, powers)
        assert got.tobytes() == naive_solution(kind, 0.4 + 0.1j, p, n).tobytes()

    def test_value_at_origin(self):
        p = params(0.1, eps=0.02)
        a0 = 0.5
        z1 = first_order_solution(CUBIC, a0, p)
        expected = 1.0 + 0.02 * z1.evaluate(0).real
        assert naive_solution(CUBIC, a0, p, 0) == pytest.approx(expected)

    def test_realness_of_expansion(self):
        p = params(0.05, eps=0.03)
        a0 = 0.3 - 0.2j
        full = zeroth_order(a0, p) + first_order_solution(CUBIC, a0, p).scaled(
            p.eps
        )
        vals = full.evaluate(np.arange(0, 2000, 37))
        assert np.max(np.abs(vals.imag)) <= 1e-10 * max(1.0, np.max(np.abs(vals.real)))

    def test_secular_error_grows_against_oracle(self):
        # the uncorrected expansion drifts away from the exact iteration;
        # the error near t = 200 dwarfs the error near t = 20
        dt, eps = 0.01, 0.01
        p = params(dt, eps=eps, convention=EXACT)
        a0 = 0.5
        z0, z1 = init_from_amplitude(0.5, p)
        n_steps = int(200 / dt)
        traj = iterate(CUBIC, p, z0, z1, n_steps)
        n = np.arange(n_steps + 1)
        err = np.abs(traj.values - naive_solution(CUBIC, a0, p, n))
        early = err[(traj.times >= 10) & (traj.times <= 20)].max()
        late = err[(traj.times >= 190) & (traj.times <= 200)].max()
        assert late >= 5.0 * early


class TestFirstOrderResidual:
    def test_residual_scales_as_eps_squared(self):
        # halving eps quarters the max residual of z0 + eps z1 against the
        # full nonlinear scheme (unit-modulus roots keep the construction
        # exact at first order); the amplitude is kept moderate so that the
        # eps^3 content of the far-end secular term stays subdominant
        dt = 0.01
        horizon = int(50 / dt)
        maxima = []
        for eps in (0.02, 0.01, 0.005):
            p = params(dt, eps=eps, convention=EXACT)
            a0 = 0.3
            full = zeroth_order(a0, p) + first_order_solution(
                CUBIC, a0, p
            ).scaled(eps)
            z = full.evaluate(np.arange(horizon + 1)).real
            res = np.abs(
                scheme_residual(
                    z[:-2],
                    z[1:-1],
                    z[2:],
                    p,
                    nonlinearity_value(CUBIC, z[2:], z[1:-1], z[:-2], p),
                )
            )
            maxima.append(res.max())
        assert 3.5 <= maxima[0] / maxima[1] <= 4.5
        assert 3.5 <= maxima[1] / maxima[2] <= 4.5

