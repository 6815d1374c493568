import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from renormdiff.newton import (
    SampledSequence,
    binomial_coefficient,
    check_envelope_constancy,
    forward_difference,
    newton_partial_sum,
)


class TestBinomialCoefficient:
    def test_order_zero_is_one(self):
        assert binomial_coefficient(5, 0) == 1
        assert binomial_coefficient(-3, 0) == 1

    def test_five_choose_two(self):
        assert binomial_coefficient(5, 2) == 10

    def test_falling_factorial_hits_zero(self):
        assert binomial_coefficient(2, 3) == 0

    def test_negative_upper_argument(self):
        # (-2)(-3)(-4)/3! = -4
        assert binomial_coefficient(-2, 3) == -4

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            binomial_coefficient(4, -1)

    @given(x=st.integers(-30, 30), k=st.integers(0, 12))
    def test_matches_falling_factorial(self, x, k):
        num = 1
        for i in range(k):
            num *= x - i
        import math

        assert binomial_coefficient(x, k) * math.factorial(k) == num


class TestForwardDifference:
    def test_constant_sequence(self):
        seq = SampledSequence(np.full(10, 7.0))
        for n in range(9):
            assert forward_difference(seq, 1, n) == 0

    def test_squares_first_difference(self):
        seq = SampledSequence.from_function(lambda n: n * n, 10)
        assert forward_difference(seq, 1, 3) == 7  # 2n + 1 at n = 3

    def test_squares_third_difference_vanishes(self):
        seq = SampledSequence.from_function(lambda n: n * n, 10)
        for n in range(8):
            assert forward_difference(seq, 3, n) == 0

    def test_zeroth_difference_is_identity(self):
        seq = SampledSequence(np.array([2.0, 5.0, 11.0]))
        assert forward_difference(seq, 0, 2) == 11.0

    def test_out_of_range(self):
        seq = SampledSequence(np.arange(5.0))
        with pytest.raises(IndexError):
            forward_difference(seq, 3, 2)

    @given(
        a=st.floats(-10, 10),
        b=st.floats(-10, 10),
        k=st.integers(0, 5),
        n=st.integers(0, 4),
    )
    @settings(max_examples=50)
    def test_linearity(self, a, b, k, n):
        rng = np.random.default_rng(7)
        s = rng.normal(size=12)
        t = rng.normal(size=12)
        seq_s = SampledSequence(s)
        seq_t = SampledSequence(t)
        seq_combo = SampledSequence(a * s + b * t)
        lhs = forward_difference(seq_combo, k, n)
        rhs = a * forward_difference(seq_s, k, n) + b * forward_difference(seq_t, k, n)
        assert lhs == pytest.approx(rhs, abs=1e-9)

    @given(k=st.integers(1, 6))
    def test_annihilates_lower_degree_polynomials(self, k):
        # integer-valued input, exact arithmetic
        degree = k - 1
        seq = SampledSequence.from_function(
            lambda n: sum((n + 1) ** d for d in range(degree + 1)), 14
        )
        for n in range(14 - k):
            assert forward_difference(seq, k, n) == 0

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_geometric_sequence_closed_form(self, sign):
        dt = 0.1
        lam = complex(1.0, sign * dt)
        seq = SampledSequence.from_function(lambda n: lam**n, 16)
        for k in (1, 2, 5):
            for n in (0, 3, 9):
                expected = (lam - 1) ** k * lam**n
                assert forward_difference(seq, k, n) == pytest.approx(expected, rel=1e-11)


class TestNewtonPartialSum:
    def test_order_zero_returns_base_value(self):
        seq = SampledSequence(np.array([3.0, 1.0, 4.0, 1.0, 5.0]))
        assert newton_partial_sum(seq, 2, 4, 0) == 4.0

    def test_polynomial_reconstruction(self):
        coeffs = [2.0, -1.0, 0.5, 0.25]
        seq = SampledSequence.from_function(
            lambda n: sum(c * n**d for d, c in enumerate(coeffs)), 12
        )
        for m in (0, 2, 5):
            for n in range(13):
                got = newton_partial_sum(seq, m, n, 3)
                assert got.real == pytest.approx(seq.values[n].real, rel=1e-12, abs=1e-9)

    def test_powers_of_two(self):
        seq = SampledSequence.from_function(lambda n: 2.0**n, 10)
        # differences of 2^n are again 2^n, so the order-6 sum at n=6 is
        # sum_k binom(6, k) = 2^6
        assert newton_partial_sum(seq, 0, 6, 6) == pytest.approx(64.0, abs=1e-9)

    def test_out_of_range(self):
        seq = SampledSequence(np.arange(4.0))
        with pytest.raises(IndexError):
            newton_partial_sum(seq, 1, 2, 3)


def _linear_mode_sequence(dt, a, length):
    lam = complex(1.0 - 0.5 * dt * dt, dt * np.sqrt(1.0 - 0.25 * dt * dt))
    return SampledSequence.from_function(
        lambda n: a * lam**n + a.conjugate() * lam.conjugate() ** n, length
    )


class TestEnvelopeConstancy:
    def test_exact_expansion_is_base_point_free(self):
        # full-order series of an exact homogeneous solution: shifting the
        # base point cannot change the reconstructed value
        seq = _linear_mode_sequence(0.1, 0.4 + 0.3j, 24)
        for m in (0, 3, 6):
            for n in (m + 1, m + 4, m + 9):
                assert check_envelope_constancy(seq, n, m, order=12) <= 1e-10

    def test_constant_coefficients_self_consistent(self):
        # y constant in m forces delta^k y = 0 for k >= 1, hence exact constancy
        seq = SampledSequence(np.full(20, 2.5 + 0j))
        assert check_envelope_constancy(seq, 9, 3, order=4) == 0.0

    def test_truncation_leaves_residual(self):
        # a genuinely curved sequence truncated at low order is base-point
        # dependent once n - m exceeds the kept order; the residual is small
        # but nonzero
        seq = _linear_mode_sequence(0.1, 0.5 + 0j, 40)
        res = check_envelope_constancy(seq, 12, 4, order=2)
        assert 0.0 < res < 5e-2

    def test_short_span_stays_exact_despite_truncation(self):
        # for n - m within the kept order the partial sum terminates, so both
        # base points reconstruct y(n) exactly
        seq = _linear_mode_sequence(0.1, 0.5 + 0j, 40)
        assert check_envelope_constancy(seq, 6, 4, order=2) <= 1e-14

    def test_partial_sum_at_base_returns_y0(self):
        seq = SampledSequence(np.arange(10.0) ** 2)
        assert newton_partial_sum(seq, 4, 4, 3) == 16.0

    def test_base_range_enforced(self):
        # the shifted base m + 1 = 4 needs samples up to 4 + 2 = 6
        seq = SampledSequence(np.arange(6.0))
        with pytest.raises(IndexError):
            check_envelope_constancy(seq, 5, 3, order=2)

    def test_orders_combine_with_eps_weights(self):
        # y0 + eps y1 is one sequence; by linearity its differences are
        # Y_k = delta^k y0 + eps delta^k y1
        s0 = np.arange(8.0)
        s1 = np.arange(8.0) ** 2
        seq = SampledSequence(s0 + 0.5 * s1)
        # Y_0(2) = 2 + 0.5*4, Y_1(2) = 1 + 0.5*(9 - 4)
        assert forward_difference(seq, 0, 2) == pytest.approx(4.0)
        assert forward_difference(seq, 1, 2) == pytest.approx(3.5)
        assert newton_partial_sum(seq, 2, 5, 1) == pytest.approx(4.0 + 3 * 3.5)


class TestSampledSequence:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SampledSequence(np.array([]))

    def test_values_read_only(self):
        seq = SampledSequence(np.arange(3.0))
        with pytest.raises(ValueError):
            seq.values[0] = 99.0
