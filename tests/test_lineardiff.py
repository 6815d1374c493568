import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from renormdiff.lineardiff import (
    HarmonicSum,
    HarmonicTerm,
    RootConvention,
    Scheme,
    SchemeParams,
    characteristic_roots,
    is_resonant,
    particular_solution,
    power_table,
    scheme_residual,
)
from renormdiff.perturbation import (
    CUBIC,
    VAN_DER_POL,
    first_order_solution,
    zeroth_order,
)

FIRST = RootConvention.FIRST_ORDER
EXACT = RootConvention.EXACT_UNIT_MODULUS


def params(dt, eps=0.0, convention=FIRST):
    return SchemeParams(dt=dt, eps=eps, root_convention=convention)


class TestSchemeParams:
    @pytest.mark.parametrize("dt", [0.0, -0.1, 2.0, 2.5])
    def test_dt_bounds(self, dt):
        with pytest.raises(ValueError):
            SchemeParams(dt=dt)

    def test_negative_eps_rejected(self):
        with pytest.raises(ValueError):
            SchemeParams(dt=0.1, eps=-0.01)

    def test_large_eps_warns(self):
        with pytest.warns(UserWarning) as record:
            SchemeParams(dt=0.1, eps=0.6)
        # the warning names the caller's line, not the generated __init__
        assert record[0].filename == __file__


class TestCharacteristicRoots:
    def test_first_order_roots(self):
        lp, lm = characteristic_roots(params(0.1))
        assert lp == 1.0 + 0.1j
        assert lm == 1.0 - 0.1j

    def test_first_order_root_product(self):
        dt = 0.3
        lp, lm = characteristic_roots(params(dt))
        assert lp * lm == pytest.approx(1.0 + dt * dt, rel=0, abs=0)

    def test_exact_roots_unit_modulus(self):
        dt = 0.1
        lp, lm = characteristic_roots(params(dt, convention=EXACT))
        assert abs(abs(lp) - 1.0) <= 1e-14
        assert abs(abs(lm) - 1.0) <= 1e-14
        assert abs(lp * lm - 1.0) <= 1e-14
        assert cmath.phase(lp) == pytest.approx(np.arccos(0.995), rel=1e-12)

    def test_exact_roots_solve_characteristic_polynomial(self):
        dt = 0.37
        lp, lm = characteristic_roots(params(dt, convention=EXACT))
        for lam in (lp, lm):
            assert abs(lam**2 - (2 - dt * dt) * lam + 1) <= 1e-14

    def test_conventions_converge_quadratically(self):
        gaps = []
        for dt in (0.1, 0.05, 0.025):
            lp_first, _ = characteristic_roots(params(dt))
            lp_exact, _ = characteristic_roots(params(dt, convention=EXACT))
            gaps.append(abs(lp_first - lp_exact))
        for big, small in zip(gaps, gaps[1:]):
            assert big / small == pytest.approx(4.0, rel=0.15)


class TestSchemeResidual:
    def test_exact_root_triple(self):
        dt = 0.1
        p = params(dt, convention=EXACT)
        lam, _ = characteristic_roots(p)
        assert abs(scheme_residual(1.0, lam, lam**2, p)) <= 1e-12

    def test_first_order_root_triple_off_by_dt_cubed(self):
        dt = 0.1
        p = params(dt)
        lam, _ = characteristic_roots(p)
        res = scheme_residual(1.0, lam, lam**2, p)
        assert res == pytest.approx(1j * dt**3, rel=1e-9)

    def test_zero_triple(self):
        assert scheme_residual(0.0, 0.0, 0.0, params(0.1)) == 0.0

    def test_forcing_term_subtracts(self):
        p = params(0.2, eps=0.1)
        base = scheme_residual(1.0, 2.0, 3.0, p)
        forced = scheme_residual(1.0, 2.0, 3.0, p, forcing_value=5.0)
        assert base - forced == pytest.approx(0.2**2 * 0.1 * 5.0)


class TestIsResonant:
    @pytest.mark.parametrize("convention", [FIRST, EXACT])
    def test_active_roots_are_resonant(self, convention):
        p = params(0.1, convention=convention)
        lp, lm = characteristic_roots(p)
        assert is_resonant(lp, p)
        assert is_resonant(lm, p)

    def test_third_harmonic_not_resonant(self):
        p = params(0.1)
        lp, _ = characteristic_roots(p)
        assert not is_resonant(lp**3, p)

    def test_unity_not_resonant(self):
        # 1 + 1 - 2 + dt^2 = dt^2, well away from zero
        assert not is_resonant(1.0 + 0j, params(0.1))

    def test_numerical_root_detected_without_convention_match(self):
        # a root of the true polynomial is resonant even under the
        # first-order convention
        p = params(0.1)
        exact_root, _ = characteristic_roots(params(0.1, convention=EXACT))
        assert is_resonant(exact_root, p)


class TestHarmonicSum:
    def test_empty_sum_evaluates_to_zero(self):
        assert HarmonicSum().evaluate(17) == 0j

    def test_single_unit_term_at_zero(self):
        hs = HarmonicSum((HarmonicTerm(1.0, 1.3 + 0.2j),))
        assert hs.evaluate(0) == 1.0 + 0j

    def test_merge_on_insert(self):
        lam = 1.0 + 0.1j
        hs = HarmonicSum((HarmonicTerm(2.0, lam), HarmonicTerm(3.0, lam)))
        assert len(hs.terms) == 1
        assert hs.terms[0].coeff == 5.0 + 0j

    def test_different_powers_kept_separate(self):
        lam = 1.0 + 0.1j
        hs = HarmonicSum((HarmonicTerm(2.0, lam, 0), HarmonicTerm(3.0, lam, 1)))
        assert len(hs.terms) == 2

    def test_cancellation_drops_term(self):
        lam = 1.0 + 0.1j
        hs = HarmonicSum((HarmonicTerm(2.0, lam), HarmonicTerm(-2.0, lam)))
        assert hs.terms == ()

    def test_conjugate_pair_evaluates_real(self):
        a = 0.4 - 0.7j
        lam = 1.0 + 0.05j
        hs = HarmonicSum(
            (HarmonicTerm(a, lam), HarmonicTerm(a.conjugate(), lam.conjugate()))
        )
        for n in (0, 5, 111, 2004):
            val = hs.evaluate(n)
            assert abs(val.imag) <= 1e-12 * max(1.0, abs(val))

    def test_evaluate_accepts_arrays(self):
        hs = HarmonicSum((HarmonicTerm(1.0, 2.0),))
        out = hs.evaluate(np.arange(5))
        assert np.allclose(out, 2.0 ** np.arange(5))

    def test_secular_term_evaluation(self):
        hs = HarmonicSum((HarmonicTerm(2.0, 1.0 + 0j, 1),))
        assert hs.evaluate(7) == 14.0 + 0j

    def test_scaled(self):
        hs = HarmonicSum((HarmonicTerm(2.0, 3.0),)).scaled(0.5j)
        assert hs.terms[0].coeff == 1.0j

    def test_zero_base_rejected(self):
        with pytest.raises(ValueError):
            HarmonicTerm(1.0, 0.0)

    def test_bad_power_rejected(self):
        with pytest.raises(ValueError):
            HarmonicTerm(1.0, 1.0, 2)

    def test_large_index_no_overflow(self):
        # |base| > 1 at n = 5000 would overflow repeated multiplication of
        # the squared modulus route; the polar form must stay finite
        hs = HarmonicSum((HarmonicTerm(1.0, 1.0 + 0.1j),))
        val = hs.evaluate(5000)
        assert np.isfinite(val.real) and np.isfinite(val.imag)


def _evaluate_per_term(harmonic_sum, n):
    """HarmonicSum.evaluate with one exponential per term and no reuse."""
    arr = np.asarray(n, dtype=float)
    out = np.zeros(arr.shape, dtype=complex)
    for term in harmonic_sum.terms:
        grow = np.exp(arr * cmath.log(term.base))
        if term.n_power == 1:
            grow = grow * arr
        out = out + term.coeff * grow
    if arr.ndim == 0:
        return complex(out)
    return out


def _naive_sum(kind, convention):
    p = params(0.01, eps=0.02, convention=convention)
    a0 = 0.4 + 0.15j
    return zeroth_order(a0, p) + first_order_solution(kind, a0, p).scaled(p.eps)


class TestSharedPowers:
    """Terms on one base evaluate to the bytes of one exponential per term."""

    @pytest.mark.parametrize("kind", [CUBIC, VAN_DER_POL])
    @pytest.mark.parametrize("convention", [FIRST, EXACT])
    def test_naive_sum_array(self, kind, convention):
        hs = _naive_sum(kind, convention)
        assert len(hs.terms) == 6
        assert len({t.base for t in hs.terms}) == 4
        n = np.arange(50_001)
        assert hs.evaluate(n).tobytes() == _evaluate_per_term(hs, n).tobytes()

    @pytest.mark.parametrize("n", [0, 7, 12_345])
    def test_naive_sum_scalar(self, n):
        hs = _naive_sum(CUBIC, EXACT)
        value = hs.evaluate(n)
        assert type(value) is complex
        assert value == _evaluate_per_term(hs, n)

    def test_secular_term_first_leaves_shared_powers_intact(self):
        base = cmath.exp(0.01j)
        hs = HarmonicSum((HarmonicTerm(0.5j, base, 1), HarmonicTerm(0.25, base)))
        n = np.arange(1000)
        assert hs.evaluate(n).tobytes() == _evaluate_per_term(hs, n).tobytes()

    def test_signed_zero_bases_kept_apart(self):
        # equal under ==, but their logarithms sit on either side of the cut
        hs = HarmonicSum(
            (HarmonicTerm(1.0, complex(-1.0, 0.0)), HarmonicTerm(1.0, complex(-1.0, -0.0), 1))
        )
        n = np.arange(1000)
        assert math.copysign(1.0, hs.terms[1].base.imag) == -1.0
        assert hs.evaluate(n).tobytes() == _evaluate_per_term(hs, n).tobytes()


_BASES = st.one_of(
    st.builds(
        cmath.rect,
        st.floats(0.25, 4.0),
        st.floats(-math.pi, math.pi),
    ),
    # real bases, with either sign of zero in the imaginary part
    st.builds(
        complex,
        st.floats(-4.0, 4.0).filter(lambda x: abs(x) >= 0.25),
        st.sampled_from([0.0, -0.0]),
    ),
)
_TERMS = st.tuples(
    st.complex_numbers(max_magnitude=10.0, allow_nan=False, allow_infinity=False),
    _BASES,
    st.sampled_from([0, 1]),
    st.sampled_from(["alone", "conjugate after", "conjugate before"]),
)
_INDICES = st.one_of(
    st.integers(-300, 3000),
    st.lists(st.integers(-300, 3000), min_size=1, max_size=40).map(np.array),
    st.integers(-300, 3000).map(lambda start: np.arange(start, start + 500)),
)


class TestConjugatePowers:
    """Conjugate bases evaluate to the bytes of one exponential per term."""

    @settings(max_examples=300, deadline=None)
    @given(spec=st.lists(_TERMS, min_size=1, max_size=6), n=_INDICES)
    def test_evaluate_matches_one_exponential_per_term(self, spec, n):
        terms = []
        for coeff, base, n_power, order in spec:
            term = HarmonicTerm(coeff, base, n_power)
            mirror = HarmonicTerm(coeff.conjugate(), base.conjugate(), n_power)
            if order == "alone":
                terms.append(term)
            elif order == "conjugate after":
                terms += [term, mirror]
            else:
                terms += [mirror, term]
        hs = HarmonicSum(tuple(terms))
        with np.errstate(all="ignore"):
            got, want = hs.evaluate(n), _evaluate_per_term(hs, n)
        if np.ndim(n) == 0:
            assert type(got) is complex
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestSuppliedPowers:
    """A power table built by a caller on integer indices, as the compare
    pipeline builds lam_p^n, has the bytes of one built on float indices."""

    def test_integer_and_float_indices_give_one_table(self):
        base = characteristic_roots(params(0.01, convention=EXACT))[0]
        n = np.arange(50_001)
        assert power_table(base, n).tobytes() == power_table(base, n.astype(float)).tobytes()


class TestParticularSolution:
    def test_nonresonant_coefficient(self):
        dt = 0.1
        p = params(dt)
        lp, _ = characteristic_roots(p)
        a_cubed = 0.125
        forcing = HarmonicSum((HarmonicTerm(-(dt**2) * a_cubed, lp**3),))
        sol = particular_solution(forcing, p)
        denom = lp**3 + lp**-3 - 2 + dt * dt
        assert sol.terms[0].coeff == pytest.approx(-(dt**2) * a_cubed / denom)
        assert sol.terms[0].n_power == 0

    def test_third_harmonic_coefficient_limit(self):
        # the particular-solution coefficient for the cubed-mode forcing
        # -dt^2 A^3 lam^3n tends to A^3 / 8 as dt -> 0
        errors = []
        for dt in (1e-2, 1e-3, 1e-4):
            p = params(dt)
            lp, _ = characteristic_roots(p)
            forcing = HarmonicSum((HarmonicTerm(-(dt**2), lp**3),))
            coeff = particular_solution(forcing, p).terms[0].coeff
            errors.append(abs(coeff - 0.125))
        assert errors[0] < 0.02
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 2e-4

    def test_resonant_forcing_gives_secular_term(self):
        dt = 0.1
        p = params(dt)
        lp, _ = characteristic_roots(p)
        c = -3 * dt * dt * 0.0625
        sol = particular_solution(HarmonicSum((HarmonicTerm(c, lp),)), p)
        term = sol.terms[0]
        assert term.n_power == 1
        assert term.coeff == pytest.approx(c / (lp - 1 / lp))

    def test_secular_forcing_rejected(self):
        p = params(0.1)
        with pytest.raises(ValueError):
            particular_solution(HarmonicSum((HarmonicTerm(1.0, 1.1, 1),)), p)

    def test_output_satisfies_scheme_exact_convention(self):
        # residual check at random indices, relative to the local term size
        dt = 0.05
        p = params(dt, eps=0.0, convention=EXACT)
        lp, lm = characteristic_roots(p)
        forcing = HarmonicSum(
            (
                HarmonicTerm(0.3 - 0.1j, lp**3),
                HarmonicTerm(0.3 + 0.1j, lm**3),
                HarmonicTerm(0.125j, lp),
                HarmonicTerm(-0.125j, lm),
            )
        )
        sol = particular_solution(forcing, p)
        rng = np.random.default_rng(11)
        for n in rng.integers(1, 1000, size=20):
            res = scheme_residual(
                sol.evaluate(int(n) - 1),
                sol.evaluate(int(n)),
                sol.evaluate(int(n) + 1),
                p,
            ) - forcing.evaluate(int(n))
            scale = max(abs(sol.evaluate(int(n))), abs(forcing.evaluate(int(n))), 1e-6)
            assert abs(res) <= 1e-9 * scale

    def test_output_satisfies_scheme_first_order_nonresonant(self):
        # the geometric (non-secular) response is exact under any convention
        dt = 0.1
        p = params(dt)
        lp, _ = characteristic_roots(p)
        forcing = HarmonicSum((HarmonicTerm(0.7, lp**3),))
        sol = particular_solution(forcing, p)
        for n in (1, 10, 500):
            res = scheme_residual(
                sol.evaluate(n - 1), sol.evaluate(n), sol.evaluate(n + 1), p
            ) - forcing.evaluate(n)
            assert abs(res) <= 1e-9 * max(1.0, abs(forcing.evaluate(n)))

    @given(
        c=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        modulus=st.floats(0.8, 1.25),
        angle=st.floats(-math.pi, math.pi),
        dt=st.floats(0.01, 1.9),
        scheme=st.sampled_from(Scheme),
        convention=st.sampled_from(RootConvention),
        n=st.integers(1, 60),
    )
    @settings(max_examples=200)
    def test_output_satisfies_scheme_random_nonresonant(
        self, c, modulus, angle, dt, scheme, convention, n
    ):
        # a geometric forcing away from both roots and from a vanishing
        # response denominator, under either scheme and convention
        p = SchemeParams(dt=dt, root_convention=convention, scheme=scheme)
        base = cmath.rect(modulus, angle)
        assume(min(abs(base - root) for root in characteristic_roots(p)) >= 0.05)
        assume(abs(base + 1.0 / base - 2.0 + p.mu) >= 0.05)
        forcing = HarmonicSum((HarmonicTerm(c, base),))
        sol = particular_solution(forcing, p)
        assert all(t.n_power == 0 for t in sol.terms)
        res = scheme_residual(
            sol.evaluate(n - 1), sol.evaluate(n), sol.evaluate(n + 1), p
        ) - forcing.evaluate(n)
        assert abs(res) <= 1e-9 * max(1.0, abs(forcing.evaluate(n)))

    @given(
        c1=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
        c2=st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=40)
    def test_linearity(self, c1, c2):
        p = params(0.1)
        lp, lm = characteristic_roots(p)
        f1 = HarmonicSum((HarmonicTerm(c1, lp**3),))
        f2 = HarmonicSum((HarmonicTerm(c2, lm**3),))
        joint = particular_solution(f1 + f2, p)
        separate = particular_solution(f1, p) + particular_solution(f2, p)
        for got, want in zip(joint.terms, separate.terms):
            assert got.coeff == pytest.approx(want.coeff, rel=1e-12, abs=1e-15)
