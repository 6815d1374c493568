"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion report.
Fixture constants marked RECORDED were measured once on the reference pipeline
and frozen with headroom; they pin empirical scales the closed forms do not
predict.
"""

import math

import numpy as np

from renormdiff.analysis import envelope, zero_crossing_period
from renormdiff.asymptotic import GlobalSolution, init_from_amplitude
from renormdiff.cli import ExperimentConfig, run_compare_pipeline
from renormdiff.lineardiff import (
    RootConvention,
    Scheme,
    SchemeParams,
    characteristic_roots,
    scheme_residual,
)
from renormdiff.newton import (
    SampledSequence,
    check_envelope_constancy,
    newton_partial_sum,
)
from renormdiff.oracle import iterate
from renormdiff.perturbation import (
    CUBIC,
    VAN_DER_POL,
    first_order,
    first_order_solution,
    nonlinearity_value,
    zeroth_order,
)
from renormdiff.renormalization import build_flow, continuum_limit_check, flow_path

# RECORDED 2026-10: max renormalized error over t <= 2 from the first-order
# bridge measured 0.051-0.053 eps^2 (cubic, a0 = 0.5+0.1i) and 0.148-0.154
# eps^2 (Van der Pol, a0 = 0.3+0.15i) over eps 0.04 to 0.005 at dt = 0.01;
# frozen with ~2x headroom.  The zeroth-order bridge read 0.141 eps and
# 0.53 eps.
EARLY_ERR_BOUND = {"cubic": 0.1, "vdp": 0.3}

EXACT = RootConvention.EXACT_UNIT_MODULUS
FIRST = RootConvention.FIRST_ORDER

# RECORDED 2026-08: worst base-point-shift residual of the first-order cubic
# expansion truncated at difference order 2 (eps = 0.01, dt = 0.01) measured
# 8.5e-6 over spans up to 6; frozen with ~2x headroom.
ENVELOPE_RESIDUAL_BOUND = 2.0e-5

# RECORDED 2026-08: max renormalized-vs-oracle error for the cubic run at
# eps = 0.01, dt = 0.01, t_max = 200 measured 1.7e-3; frozen with ~2x
# headroom.  Stays far inside the 10 * eps^2 * t_max = 0.2 envelope.
RENORM_MAX_ERR_BOUND = 3.5e-3


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion:2d} {status}: {detail}")
    assert ok, detail


def test_criterion_01_linear_exactness():
    params = SchemeParams(dt=0.1, eps=0.0, root_convention=EXACT)
    a0 = 0.5
    z0, z1 = init_from_amplitude(first_order(CUBIC, params), a0)
    traj = iterate(CUBIC, params, z0, z1, 10_000)
    lam, _ = characteristic_roots(params)
    n = np.arange(10_001)
    closed = 2.0 * np.real(a0 * np.exp(n * np.log(lam)))
    rel = np.max(np.abs(traj.values - closed)) / np.max(np.abs(closed))
    report(1, rel <= 1e-8, f"oracle vs closed form, max relative error {rel:.3e}")


def test_criterion_02_newton_reconstruction():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(50):
        degree = int(rng.integers(0, 9))
        coeffs = rng.uniform(-1.0, 1.0, size=degree + 1)
        length = degree + int(rng.integers(4, 9))
        values = np.array(
            [sum(c * n**d for d, c in enumerate(coeffs)) for n in range(length + 1)]
        )
        seq = SampledSequence(values)
        m = int(rng.integers(0, length - degree + 1))
        scale = max(1.0, np.abs(values).max())
        for n in range(length + 1):
            err = abs(newton_partial_sum(seq, m, n, degree) - values[n]) / scale
            worst = max(worst, err)
    report(2, worst <= 1e-9, f"50 polynomial reconstructions, worst error {worst:.3e}")


def test_criterion_03_first_order_residual_order():
    dt = 0.01
    horizon = int(50 / dt)
    maxima = []
    for eps in (0.02, 0.01, 0.005):
        params = SchemeParams(dt=dt, eps=eps, root_convention=EXACT)
        a0 = 0.3
        full = zeroth_order(a0, params) + first_order_solution(
            CUBIC, a0, params
        ).scaled(eps)
        z = full.evaluate(np.arange(horizon + 1)).real
        res = np.abs(
            scheme_residual(
                z[:-2],
                z[1:-1],
                z[2:],
                params,
                nonlinearity_value(CUBIC, z[2:], z[1:-1], z[:-2], params),
            )
        )
        maxima.append(res.max())
    r1 = maxima[0] / maxima[1]
    r2 = maxima[1] / maxima[2]
    ok = 3.5 <= r1 <= 4.5 and 3.5 <= r2 <= 4.5
    report(3, ok, f"residual ratios under eps halving: {r1:.2f}, {r2:.2f}")


def test_criterion_04_duffing_frequency_shift():
    eps, dt, a0 = 0.05, 0.005, 0.5
    params = SchemeParams(dt=dt, eps=eps, root_convention=EXACT)
    z0, z1 = init_from_amplitude(first_order(CUBIC, params), a0)
    traj = iterate(CUBIC, params, z0, z1, int(150 / dt))
    measured = zero_crossing_period(traj).mean_period
    expected = 2 * math.pi / 1.01875
    rel = abs(measured - expected) / expected
    tol = max(0.25 * eps**2, 5 * dt**2)
    report(
        4,
        rel <= tol,
        f"oracle period {measured:.6f} vs 2*pi/1.01875, relative error "
        f"{rel:.2e} (tolerance {tol:.2e})",
    )


def test_criterion_05_secular_vs_renormalized():
    eps, dt = 0.01, 0.01
    t_max = 2.0 / eps
    cfg = ExperimentConfig(
        kind="cubic", dt=dt, eps=eps, a0_re=0.5, a0_im=0.0, t_max=t_max
    )
    summary = run_compare_pipeline(cfg)
    slope_factor = summary["slope_err_naive"] / summary["slope_err_renorm"]
    ok = slope_factor >= 5.0 and summary["max_err_renorm"] <= RENORM_MAX_ERR_BOUND
    assert RENORM_MAX_ERR_BOUND <= 10.0 * eps**2 * t_max
    report(
        5,
        ok,
        f"naive/renormalized slope factor {slope_factor:.1f}, max renormalized "
        f"error {summary['max_err_renorm']:.2e} (bound {RENORM_MAX_ERR_BOUND:.1e})",
    )


def _oracle_envelope(kind, params, a0, t_max):
    z0, z1 = init_from_amplitude(first_order(kind, params), a0)
    traj = iterate(kind, params, z0, z1, int(round(t_max / params.dt)))
    return envelope(traj)


def test_criterion_06_vdp_limit_cycle():
    eps, dt = 0.05, 0.005
    params = SchemeParams(dt=dt, eps=eps, root_convention=EXACT)
    t_max = 10.0 / eps

    # approach from below (start amplitude 0.2) and above (start amplitude 3)
    peaks_low = _oracle_envelope(VAN_DER_POL, params, 0.1, t_max)
    peaks_high = _oracle_envelope(VAN_DER_POL, params, 1.5, t_max)
    tail_low = peaks_low[peaks_low[:, 0] > t_max - 20.0, 1]
    tail_high = peaks_high[peaks_high[:, 0] > t_max - 20.0, 1]
    reaches = (
        np.all(np.abs(tail_low - 2.0) <= 0.1)
        and np.all(np.abs(tail_high - 2.0) <= 0.1)
        and np.all(peaks_high[:, 1] >= 2.0 - 0.02)
    )

    # renormalized envelope with a nonzero component ratio (c = 2, where the
    # rejected kappa = 1 + c disagrees with 1 + c^2; at the printed c = 1 they
    # coincide), and the rejected one in the same closed form:
    # 2 |A| = 2 |a0| / sqrt(k + (1 - k) e^{-2 eps t}), k = kappa Re(a0)^2
    a0 = 0.1 * (1 + 2j) / math.sqrt(5)
    peaks = _oracle_envelope(VAN_DER_POL, params, a0, t_max)
    band = peaks[(peaks[:, 0] >= 2.0 / eps) & (peaks[:, 0] <= 10.0 / eps)]
    sol = GlobalSolution(first_order(VAN_DER_POL, params), a0)
    lin = (1.0 + a0.imag / a0.real) * a0.real**2
    rejected = 2.0 * abs(a0) / np.sqrt(lin + (1.0 - lin) * np.exp(-2.0 * eps * band[:, 0]))
    dev_sq = np.abs(sol.fundamental_amplitude(band[:, 0]) - band[:, 1]) / band[:, 1]
    dev_lin = np.abs(rejected - band[:, 1]) / band[:, 1]
    ok = reaches and dev_sq.max() <= 0.05 and dev_lin.max() > 0.05
    report(
        6,
        ok,
        f"limit cycle reached from both sides; envelope deviation over "
        f"[2/eps, 10/eps]: {dev_sq.max():.3f} with kappa=1+c^2 (must be <= 0.05), "
        f"{dev_lin.max():.3f} with kappa=1+c (must exceed 0.05)",
    )


def test_criterion_07_exact_discrete_invariants():
    params = SchemeParams(dt=0.01, eps=0.05)

    flow_vdp = build_flow(first_order(VAN_DER_POL, params))
    a0 = 0.3 + 0.21j
    a = flow_path(flow_vdp, a0, 10_000)[-1]
    ratio_drift = abs(a.imag / a.real - a0.imag / a0.real) / abs(a0.imag / a0.real)

    flow_cubic = build_flow(first_order(CUBIC, params))
    b0 = 0.6 + 0.1j
    a1 = flow_path(flow_cubic, b0, 1)[-1]
    b1 = a1.conjugate()
    c0 = b0 * b0.conjugate()
    drift_err = abs((a1 * b1 - c0) - abs(flow_cubic.rate) ** 2 * c0**3)

    ok = ratio_drift <= 1e-10 and drift_err <= 1e-12
    report(
        7,
        ok,
        f"component-ratio drift {ratio_drift:.2e} over 1e4 steps; per-step "
        f"product-drift formula error {drift_err:.2e}",
    )


def test_criterion_08_continuum_limit_consistency():
    ratios = {}
    for kind, a0 in ((CUBIC, 0.5 + 0j), (VAN_DER_POL, 0.3 + 0.15j)):
        devs = [
            continuum_limit_check(first_order(kind, SchemeParams(dt=dt, eps=0.05)), a0, t_max=20.0)
            for dt in (0.02, 0.01)
        ]
        ratios[kind.value] = devs[0] / devs[1]
    ok = all(1.7 <= r <= 2.3 for r in ratios.values())
    report(
        8,
        ok,
        "flow-vs-closed-form deviation ratios under dt halving: "
        + ", ".join(f"{k}={r:.2f}" for k, r in ratios.items()),
    )


def test_criterion_09_base_point_shift_identity():
    # exact homogeneous solution, full-order expansion: residual at rounding
    dt = 0.1
    params = SchemeParams(dt=dt, root_convention=EXACT)
    a0 = 0.4 + 0.3j
    seq = SampledSequence(zeroth_order(a0, params).evaluate(np.arange(30)))
    exact_worst = max(
        check_envelope_constancy(seq, m + span, m, order=14)
        for m in (0, 4, 9)
        for span in (1, 3, 5)
    )

    # first-order cubic expansion truncated at difference order 2
    eps, dt = 0.01, 0.01
    params = SchemeParams(dt=dt, eps=eps, root_convention=FIRST)
    a0 = 0.5
    idx = np.arange(121)
    # y0 + eps y1 as one sequence: its differences are the eps-weighted sum
    # of the orders' differences
    expansion = SampledSequence(
        zeroth_order(a0, params).evaluate(idx)
        + eps * first_order_solution(CUBIC, a0, params).evaluate(idx)
    )
    truncated_worst = max(
        check_envelope_constancy(expansion, m + span, m, order=2)
        for m in range(0, 100, 7)
        for span in (3, 4, 6)
    )
    ok = exact_worst <= 1e-10 and truncated_worst <= ENVELOPE_RESIDUAL_BOUND
    report(
        9,
        ok,
        f"exact-expansion residual {exact_worst:.2e} (<= 1e-10); truncated "
        f"first-order residual {truncated_worst:.2e} "
        f"(<= {ENVELOPE_RESIDUAL_BOUND:.1e})",
    )


def test_criterion_10_mickens_anchor():
    h = 0.1
    traj = iterate(
        CUBIC, SchemeParams(dt=h, eps=0.0, scheme=Scheme.MICKENS), 1.0, math.cos(h), 10_000
    )
    cos_err = np.max(np.abs(traj.values - np.cos(np.arange(10_001) * h)))

    gaps = []
    for step in (0.1, 0.05, 0.025):
        n = int(20 / step)
        mick = iterate(
            CUBIC,
            SchemeParams(dt=step, eps=0.0, scheme=Scheme.MICKENS),
            1.0,
            math.cos(step),
            n,
        )
        plain = iterate(
            CUBIC, SchemeParams(dt=step, eps=0.0), 1.0, math.cos(step), n
        )
        gaps.append(np.max(np.abs(mick.values - plain.values)))
    r1, r2 = gaps[0] / gaps[1], gaps[1] / gaps[2]
    ok = cos_err <= 1e-9 and 3.4 <= r1 <= 4.6 and 3.4 <= r2 <= 4.6
    report(
        10,
        ok,
        f"cos(nh) error {cos_err:.2e} over 1e4 steps; scheme-gap ratios under "
        f"h halving: {r1:.2f}, {r2:.2f}",
    )


def _renorm_errors(kind, a0, eps, t_max, dt=0.01, scheme="standard"):
    """The CLI pipeline's times and renormalized errors |z_oracle - z_renorm_continuum|."""
    cfg = ExperimentConfig(kind=kind, dt=dt, eps=eps, a0_re=a0.real, a0_im=a0.imag,
                           t_max=t_max, scheme=scheme)
    blocks = []
    run_compare_pipeline(cfg, write_rows=blocks.append)
    return (np.concatenate([block["t"] for block in blocks]),
            np.concatenate([block["err_renorm"] for block in blocks]))


def _spread(values):
    values = list(values)
    return max(values) / min(values)


def test_criterion_11_first_order_bridge():
    # The oracle starts from z(0), z(1) of the first-order solution, so the
    # renormalized error is the asymptotics' O(eps^2) from the first steps on
    # and max_err / (eps^2 T) measures the method, not the start: flat in
    # eps and T for the cubic kind (measured 0.050-0.064), and flat in eps at
    # each eps T for Van der Pol, whose limit cycle's second-order frequency
    # makes it vary with eps T.
    early, ratio = {}, {}
    for kind, a0 in (("cubic", 0.5 + 0.1j), ("vdp", 0.3 + 0.15j)):
        for eps in (0.04, 0.02, 0.01, 0.005):
            t, err = _renorm_errors(kind, a0, eps, 8.0 / eps)
            early[kind] = max(early.get(kind, 0.0), err[t <= 2.0].max() / eps**2)
            for eps_t in (0.5, 2.0, 8.0):
                ratio[kind, eps_t, eps] = err[t <= eps_t / eps].max() / (eps * eps_t)
    spread = {
        "cubic": _spread(r for (kind, _, _), r in ratio.items() if kind == "cubic"),
        "vdp": max(_spread(r for (kind, et, _), r in ratio.items() if (kind, et) == ("vdp", eps_t))
                   for eps_t in (0.5, 2.0, 8.0)),
    }
    ok = all(early[k] <= EARLY_ERR_BOUND[k] and spread[k] <= 1.5 for k in early)
    report(
        11,
        ok,
        "max error over t <= 2: "
        + ", ".join(f"{k} {e:.3f} eps^2" for k, e in early.items())
        + "; spread of max_err/(eps^2 T): "
        + ", ".join(f"{k} {s:.2f}" for k, s in spread.items())
        + " (must be <= 1.5)",
    )


def test_criterion_12_exact_dt_secular_rate():
    # The flow and the continuum form run at the scheme's own secular rate,
    # so the continuum column's max_err / (eps^2 T) does not drift with dt:
    # the dt -> 0 rate missed a factor 1/sqrt(1 - mu/4) (standard) or
    # 2 tan(dt/2)/dt (mickens) for cubic, and mu/dt^2 for Van der Pol under
    # mickens, where the standard scheme's rate is exact at every dt.
    eps = 0.01
    cubic = {}
    for scheme in ("standard", "mickens"):
        for dt in (0.01, 0.1, 0.5):
            _, err = _renorm_errors("cubic", 0.5 + 0.1j, eps, 8.0 / eps, dt, scheme)
            cubic[scheme, dt] = err.max() / (eps * 8.0)
    vdp = {scheme: _renorm_errors("vdp", 0.3 + 0.15j, eps, 8.0 / eps, 0.5, scheme)[1].max()
           for scheme in ("standard", "mickens")}
    cubic_spread, vdp_spread = _spread(cubic.values()), _spread(vdp.values())
    report(
        12,
        cubic_spread <= 1.5 and vdp_spread <= 1.5,
        f"cubic max_err/(eps^2 T) over dt 0.01-0.5 and both schemes "
        f"{min(cubic.values()):.4f}-{max(cubic.values()):.4f} (spread {cubic_spread:.2f}); "
        f"Van der Pol at dt = 0.5, mickens against standard: spread {vdp_spread:.2f} "
        f"(each must be <= 1.5)",
    )
