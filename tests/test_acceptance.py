"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with the measured worst discrepancy and elapsed time.
"""

import math
import time
from fractions import Fraction

import pytest

from polyexp import checks, core, exact, mellin, series, transforms

PI2_6 = math.pi**2 / 6.0


def _report(number, ok, detail, elapsed):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:2d} {status}: {detail} [{elapsed:.1f}s]")


def _assert_suite(number, results, cap_seconds, elapsed, description):
    failures = [r for r in results if not r.passed]
    ok = not failures and elapsed < cap_seconds
    _report(number, ok, f"{description}; {len(results)} checks, {len(failures)} failed", elapsed)
    assert not failures, "\n".join(r.line() for r in failures)
    assert elapsed < cap_seconds, f"runtime {elapsed:.1f}s over the {cap_seconds}s cap"


def test_acceptance_01_exact_identity_suite():
    t0 = time.time()
    results = checks.suite_exact()
    elapsed = time.time() - t0
    _assert_suite(1, results, 10.0, elapsed, "exact identity suite (exact equality)")


def test_acceptance_02_route_agreement_grid():
    t0 = time.time()
    results = checks.suite_routes()[:1]  # the grid check itself
    elapsed = time.time() - t0
    grid = results[0]
    ok = grid.passed and elapsed < 30.0
    _report(2, ok, f"route agreement worst rel {grid.measured:.2e} (tol 1e-7)", elapsed)
    assert grid.passed, grid.line()
    assert elapsed < 30.0


def test_acceptance_03_zeta_and_eta_values():
    t0 = time.time()
    z2 = transforms.hurwitz_zeta(2.0, 1.0, tol=1e-10).value
    zm1 = transforms.riemann_zeta(-1.0, tol=1e-10).value
    z0 = transforms.riemann_zeta(0.0, tol=1e-10).value
    worst_eta = 0.0
    for p in range(5):
        got = 2.0 * transforms.eta(-float(p), 1.0, tol=1e-9).value
        expect = float(exact.euler_poly(p)(Fraction(1)))
        worst_eta = max(worst_eta, abs(got - expect))
    elapsed = time.time() - t0
    checks_ok = (
        abs(z2 - PI2_6) <= 1e-8
        and abs(zm1 - (-1.0 / 12.0)) <= 1e-9
        and abs(z0 - (-0.5)) <= 1e-9
        and worst_eta <= 1e-7
    )
    _report(
        3,
        checks_ok and elapsed < 20.0,
        f"zeta(2) err {abs(z2 - PI2_6):.1e}, zeta(-1) err {abs(zm1 + 1 / 12):.1e}, "
        f"zeta(0) err {abs(z0 + 0.5):.1e}, 2*eta(-p,1) vs E_p err {worst_eta:.1e}",
        elapsed,
    )
    assert abs(z2 - PI2_6) <= 1e-8
    assert abs(zm1 - (-1.0 / 12.0)) <= 1e-9
    assert abs(z0 - (-0.5)) <= 1e-9
    assert worst_eta <= 1e-7
    assert elapsed < 20.0


def test_acceptance_04_mellin_transform_sqrt_pi():
    t0 = time.time()
    worst = 0.0
    for p in range(5):
        got = transforms.mellin_transform_polyexp(0.5, p, 1.0, tol=1e-8).value
        worst = max(worst, abs(got - 2.0**p * math.sqrt(math.pi)))
    elapsed = time.time() - t0
    _report(4, worst <= 1e-6, f"int e_p(-x)/sqrt(x) vs 2^p sqrt(pi), worst {worst:.1e}", elapsed)
    assert worst <= 1e-6


def test_acceptance_05_vanishing_moments():
    t0 = time.time()
    worst = 0.0
    for p in (1, 2, 3, 4):
        for lam in (1.0, 1.5, 2.3):
            worst = max(worst, abs(transforms.vanishing_moment(p, lam, tol=1e-9).value))
    elapsed = time.time() - t0
    _report(5, worst < 1e-8, f"vanishing moments worst |value| {worst:.1e}", elapsed)
    assert worst < 1e-8


def test_acceptance_06_theorem_round_trip():
    t0 = time.time()
    worst = 0.0
    for text in ["1/(2-s)", "1/(2-s)^2", "s^2", "(s^2+1)/((2-s)*(3-s)^2)", "1+1/(4-s)"]:
        r = mellin.parse_rational(text)
        expr = mellin.eval_theorem63(r, 1.0)
        for x in (0.5, 1.0, 2.0):
            T = mellin.choose_line_height(r, x, 1.0, 1e-8)
            oracle = mellin.oracle_line_integral(r, x, 1.0, T, tol=1e-9)
            got = mellin.eval_expression(expr, x, tol=1e-10)
            worst = max(worst, abs(got.value - oracle.value))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 60.0
    _report(6, ok, f"symbolic vs line-integral worst {worst:.1e}", elapsed)
    assert worst <= 1e-6
    assert elapsed < 60.0


def test_acceptance_07_h_family():
    t0 = time.time()
    worst_route = 0.0
    for s in (1.0, 2.0, -2.0):
        for lam in (1.0, 1.5):
            for w in (1.0, -1.0, 0.5):
                for x in (0.5, 1.0, 2.0):
                    p = series.HSeriesParams(s, lam, w, x)
                    a = series.h_direct(p, tol=1e-12).value
                    b = series.h_quadrature(p, tol=1e-10).value
                    worst_route = max(worst_route, abs(a - b))
    poly_exact = exact.h_neg_closed_poly(3)(Fraction(1)) == Fraction(27, 4)
    worst_h1 = 0.0
    for w in (1.0, -1.0, 0.5, 0.5j):
        for x in (0.5, 1.0):
            got = series.h1_closed(w, x)
            ref = series.h_direct(series.HSeriesParams(1.0, 1.0, w, x), tol=1e-13).value
            worst_h1 = max(worst_h1, abs(got - ref))
    worst_alt = 0.0
    for p_ord in (1, 2, 3):
        for x in (0.5, 1.0):
            got = series.h_neg_alt_eval(p_ord, x).value
            ref = series.h_direct(series.HSeriesParams(-float(p_ord), 1.0, -1.0, x), tol=1e-13).value
            worst_alt = max(worst_alt, abs(got - ref))
    elapsed = time.time() - t0
    ok = worst_route <= 1e-8 and poly_exact and worst_h1 <= 1e-9 and worst_alt <= 1e-9
    _report(
        7,
        ok,
        f"h routes {worst_route:.1e}, g_3(1)=27/4 exact {poly_exact}, "
        f"closed form {worst_h1:.1e}, alternating {worst_alt:.1e}",
        elapsed,
    )
    assert worst_route <= 1e-8
    assert poly_exact
    assert worst_h1 <= 1e-9
    assert worst_alt <= 1e-9


def test_acceptance_08_borel_trend():
    t0 = time.time()
    pts = series.borel_probe(2.0, 1.0, 1.0, [10.0, 20.0, 40.0])
    errs = [abs(p.scaled_value - p.target) for p in pts]
    elapsed = time.time() - t0
    ok = errs[0] > errs[1] > errs[2] and errs[2] < 0.05
    _report(8, ok, f"Borel errors {errs[0]:.3f} > {errs[1]:.3f} > {errs[2]:.3f} (< 0.05)", elapsed)
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05


def test_acceptance_09_asymptotics():
    t0 = time.time()
    ref = core.eval_series(2.0, 40.0, 1.0, tol=1e-15).value
    worst_ratio = 0.0
    for order in range(5):
        res = core.asymptotic_lambda(2.0, 40.0, 1.0, order)
        worst_ratio = max(worst_ratio, abs(res.value - ref) / res.abs_err_estimate)
    lead = core.asymptotic_x_leading(1.0, 1.0, 20.0, -1)
    series_val = core.eval_series(1.0, 1.0, -20.0, tol=1e-13).value
    ratio_err = abs(lead / series_val - 1.0)
    elapsed = time.time() - t0
    ok = worst_ratio <= 1.0 and ratio_err < 0.15
    _report(
        9, ok, f"lam-expansion error/estimate {worst_ratio:.2f} <= 1, decay-side ratio err {ratio_err:.1e}",
        elapsed,
    )
    assert worst_ratio <= 1.0
    assert ratio_err < 0.15


def test_acceptance_10_taylor_shift_and_generating_sum():
    t0 = time.time()
    shift = core.taylor_shift(1.0, 2.0, 1.0, 1.0, terms=60)
    shift_err = abs(shift.value - (math.e - 1.0))
    errs = [
        abs(core.taylor_shift(1.0, 2.0, 1.0, 1.0, terms=t).value - (math.e - 1.0))
        for t in (6, 12, 18)
    ]
    # ratio |z|/|lam| = 1/2: six more terms must gain roughly 2^-6, allow 10x slack
    decay_ok = errs[1] <= errs[0] * 0.5**6 * 10 and errs[2] <= errs[1] * 0.5**6 * 10
    gen1 = abs(core.generating_sum(2.0, 1.0, 1.0, 40) - (2.0 * math.e - 1.0))
    ref = math.e + 0.5 * core.eval_series(1.0, 0.5, 1.0, tol=1e-14).value
    gen2 = abs(core.generating_sum(1.0, 1.0, 0.5, 60) - ref)
    elapsed = time.time() - t0
    ok = shift_err <= 1e-8 and decay_ok and gen1 <= 1e-8 and gen2 <= 1e-8
    _report(
        10, ok,
        f"shift err {shift_err:.1e}, decay {errs[0]:.1e}->{errs[1]:.1e}->{errs[2]:.1e}, "
        f"generating errs {gen1:.1e}, {gen2:.1e}",
        elapsed,
    )
    assert shift_err <= 1e-8
    assert decay_ok
    assert gen1 <= 1e-8
    assert gen2 <= 1e-8
