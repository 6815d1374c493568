"""Cross-module checks: whole-pipeline consistency beyond single operations."""

import numpy as np
import pytest

from renormdiff.analysis import envelope, zero_crossing_period
from renormdiff.asymptotic import GlobalSolution
from renormdiff.cli import main
from renormdiff.lineardiff import (
    HarmonicSum,
    HarmonicTerm,
    RootConvention,
    SchemeParams,
    particular_solution,
)
from renormdiff.oracle import init_from_amplitude, iterate
from renormdiff.perturbation import (
    CUBIC,
    VAN_DER_POL,
    extract_secular,
    first_order_solution,
    naive_solution,
    van_der_pol,
)
from renormdiff.renormalization import build_flow

EXACT = RootConvention.EXACT_UNIT_MODULUS


class TestHalvingConvention:
    """The halved centered difference must behave as eps -> eps/2 end to end."""

    def test_oracle_halved_equals_half_eps(self):
        p_full = SchemeParams(dt=0.01, eps=0.025, root_convention=EXACT)
        p_double = SchemeParams(dt=0.01, eps=0.05, root_convention=EXACT)
        z0, z1 = init_from_amplitude(0.1, p_full)
        halved = iterate(van_der_pol(halving=True), p_double, z0, z1, 5000)
        plain = iterate(VAN_DER_POL, p_full, z0, z1, 5000)
        assert np.array_equal(halved.values, plain.values)

    def test_renormalized_envelope_tracks_halved_oracle(self):
        eps, dt = 0.05, 0.005
        kind = van_der_pol(halving=True)
        params = SchemeParams(dt=dt, eps=eps, root_convention=EXACT)
        z0, z1 = init_from_amplitude(0.1, params)
        # halved rate: the limit cycle needs ~2x the time
        traj = iterate(kind, params, z0, z1, int(400 / dt))
        peaks = envelope(traj)
        sol = GlobalSolution(kind, params, 0.1)
        band = peaks[peaks[:, 0] >= 80.0]
        predicted = sol.fundamental_amplitude(band[:, 0])
        rel = np.abs(predicted - band[:, 1]) / band[:, 1]
        assert rel.max() <= 0.05

    def test_secular_report_scales_with_halving(self):
        p = SchemeParams(dt=0.01, eps=0.05)
        a0 = 0.3 + 0.1j
        full = extract_secular(first_order_solution(VAN_DER_POL, a0, p), p)
        half = extract_secular(
            first_order_solution(van_der_pol(halving=True), a0, p), p
        )
        assert half == pytest.approx(0.5 * full, rel=1e-12)

    def test_flow_matches_secular_functions(self):
        # the closed-form flow rates agree with the extracted secular
        # coefficients as dt -> 0 (unit-modulus roots)
        dt = 1e-3
        p = SchemeParams(dt=dt, eps=0.05, root_convention=EXACT)
        a = 0.4 + 0.2j
        for kind in (CUBIC, VAN_DER_POL):
            sigma = extract_secular(first_order_solution(kind, a, p), p)
            da = build_flow(kind, p)(a)
            assert da == pytest.approx(p.eps * sigma, rel=1e-5)


class TestVdpNaive:
    def test_real_and_secular_growth(self):
        eps, dt = 0.05, 0.01
        params = SchemeParams(dt=dt, eps=eps, root_convention=EXACT)
        a0 = 0.1
        n = np.arange(int(100 / dt) + 1)
        z_naive = naive_solution(VAN_DER_POL, a0, params, n)
        assert np.all(np.isfinite(z_naive))
        z0, z1 = init_from_amplitude(0.1, params)
        traj = iterate(VAN_DER_POL, params, z0, z1, n.size - 1)
        err = np.abs(traj.values - z_naive)
        # the linearized growth overshoots once eps * t is order one
        assert err[n * dt <= 10].max() < 0.1
        assert err.max() > 0.3

    def test_early_gap_scales_with_initial_bridging_mismatch(self):
        # the oracle is seeded with zeroth-order data while the expansion
        # carries eps * z1 from the start, so on short horizons the gap is
        # dominated by that O(eps) offset: halving eps halves it
        dt = 0.01
        horizon = int(5 / dt)
        gaps = []
        for eps in (0.04, 0.02):
            params = SchemeParams(dt=dt, eps=eps, root_convention=EXACT)
            a0 = 0.3
            z0, z1 = init_from_amplitude(0.3, params)
            traj = iterate(VAN_DER_POL, params, z0, z1, horizon)
            gap = np.abs(
                traj.values - naive_solution(VAN_DER_POL, a0, params, np.arange(horizon + 1))
            ).max()
            gaps.append(gap)
        assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=0.2)


class TestDegenerateGuard:
    def test_both_denominators_small_with_wide_tolerance(self):
        # cannot occur for valid parameters with the default tolerance, but
        # the guard must fire before a secular division by ~0
        p = SchemeParams(dt=0.1)
        forcing = HarmonicSum((HarmonicTerm(1.0, 1.0 + 0j),))
        with pytest.raises(ValueError, match="degenerate"):
            particular_solution(forcing, p, tol=0.1)


class TestConfigEdges:
    def test_negative_t_max(self, tmp_path, capsys):
        assert main(["simulate", "--t-max", "-5"]) == 2
        assert "t_max" in capsys.readouterr().err

    def test_zero_stride(self, tmp_path, capsys):
        assert main(["simulate", "--stride", "0"]) == 2

    def test_mickens_step_cap(self, capsys):
        assert main(["simulate", "--scheme", "mickens", "--dt", "3.2"]) == 2

    def test_mickens_step_between_two_and_pi(self, tmp_path):
        out = tmp_path / "mick.csv"
        assert main(["simulate", "--scheme", "mickens", "--dt", "2.5",
                     "--output-path", str(out)]) == 0

    @pytest.mark.parametrize(
        "field, arg",
        [
            ("dt", "--dt=nan"),
            ("eps", "--eps=nan"),
            ("a0_re", "--a0-re=inf"),
            ("a0_im", "--a0-im=-inf"),
            ("t_max", "--t-max=inf"),
        ],
    )
    def test_non_finite_value(self, capsys, field, arg):
        assert main(["simulate", arg]) == 2
        assert f"{field} must be finite" in capsys.readouterr().err

    def test_vdp_zero_real_amplitude(self, capsys):
        assert main(["compare", "--kind", "vdp", "--a0-re", "0"]) == 2

    def test_dt_upper_bound_from_scheme_params(self, capsys):
        assert main(["simulate", "--dt", "2.5"]) == 2
        assert "dt" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--dt", "0.001", "--t-max", "1e15"],
            ["--dt=1e-300", "--t-max=1e300"],
        ],
    )
    def test_step_count_cap(self, capsys, args):
        assert main(["simulate", *args]) == 2
        err = capsys.readouterr().err
        assert "t_max/dt" in err and "100000000" in err


class TestCliVdpComplexAmplitude:
    def test_compare_with_component_ratio(self, tmp_path):
        out = tmp_path / "vdp.json"
        code = main(
            [
                "compare",
                "--kind", "vdp",
                "--dt", "0.01",
                "--eps", "0.05",
                "--a0-re", "0.0447213595499958",   # 0.1 / sqrt(5)
                "--a0-im", "0.0894427190999916",   # ratio c = 2
                "--t-max", "250",
                "--output-format", "json",
                "--output-path", str(out),
            ]
        )
        assert code == 0
        import json

        doc = json.loads(out.read_text())
        assert doc["summary"]["limit_amplitude_oracle"] == pytest.approx(2.0, rel=0.02)
        assert doc["summary"]["max_err_renorm"] < doc["summary"]["max_err_naive"]


class TestReadmeExample:
    def test_quickstart_numbers(self):
        params = SchemeParams(dt=0.01, eps=0.01, root_convention=EXACT)
        z0, z1 = init_from_amplitude(0.5, params)
        oracle = iterate(CUBIC, params, z0, z1, 20_000)
        n = np.arange(20_001)
        naive = naive_solution(CUBIC, 0.5, params, n)
        renorm = GlobalSolution(CUBIC, params, 0.5).eval_discrete(n)
        naive_err = np.abs(oracle.values - naive).max()
        renorm_err = np.abs(oracle.values - renorm).max()
        assert naive_err > 0.1
        assert renorm_err < 5e-3
        est = zero_crossing_period(oracle)
        assert 2 * np.pi / est.mean_period == pytest.approx(
            GlobalSolution(CUBIC, params, 0.5).frequency_shift(), rel=1e-3
        )
