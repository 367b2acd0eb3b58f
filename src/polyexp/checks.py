"""Identity suites: every cross-route and closed-form check in one place.

Each suite returns CheckResult records with the measured discrepancy and
the tolerance it was held to, so the CLI can emit machine-readable
reports and the acceptance tests can assert on the same code path.
Exact checks report a mismatch count with tolerance 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

import numpy as np

from . import core, exact, mellin, series, transforms

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float
    tolerance: float

    def __post_init__(self):
        # numpy scalars sneak in from vectorized routes; keep plain types
        object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "measured", float(self.measured))
        object.__setattr__(self, "tolerance", float(self.tolerance))

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name}: measured {self.measured:.3e} (tolerance {self.tolerance:.3e})"


def _num(name, measured, tolerance) -> CheckResult:
    return CheckResult(name, measured <= tolerance, float(measured), float(tolerance))


def _exact(name, mismatches) -> CheckResult:
    return CheckResult(name, mismatches == 0, float(mismatches), 0.0)


# ---------------------------------------------------------------------------
# exact suite
# ---------------------------------------------------------------------------


def suite_exact() -> list[CheckResult]:
    out = []

    table = {0: [1], 1: [0, 1], 2: [0, 1, 1], 3: [0, 1, 3, 1]}
    bad = sum(
        exact.phi_poly(n) != exact.ExactPoly([Fraction(c) for c in coeffs])
        for n, coeffs in table.items()
    )
    out.append(_exact("phi small table", bad))

    bad = sum(
        exact.phi_poly(n + 1) != (exact.phi_poly(n).derivative() + exact.phi_poly(n)).shift_x(1)
        for n in range(21)
    )
    out.append(_exact("phi recurrence x(phi' + phi), n <= 20", bad))

    bad = 0
    for n in range(16):
        acc = exact.ExactPoly()
        for k in range(n + 1):
            acc = acc + comb(n, k) * exact.phi_poly(k)
        if exact.phi_poly(n + 1) != acc.shift_x(1):
            bad += 1
        if n >= 1:
            dacc = exact.ExactPoly()
            for k in range(n):
                dacc = dacc + comb(n, k) * exact.phi_poly(k)
            if exact.phi_poly(n).derivative() != dacc:
                bad += 1
    out.append(_exact("phi binomial recurrence and derivative, n <= 15", bad))

    out.append(_exact("phi generating function to order 12", _generating_function_mismatches(12)))

    q_table_ok = (
        exact.q_poly(0) == exact.BivariatePoly([[1]])
        and exact.q_poly(1).at_lambda(Fraction(7)) == exact.ExactPoly([7, 1])
        and exact.q_poly(2).at_lambda(Fraction(7)) == exact.ExactPoly([49, 15, 1])
        and exact.q_poly(3).at_lambda(Fraction(7)) == exact.ExactPoly([343, 169, 24, 1])
    )
    out.append(_exact("Q_p small table", 0 if q_table_ok else 1))

    bad = sum(
        exact.q_poly(p).at_lambda(1) != exact.ExactPoly(list(exact.phi_poly(p + 1).coeffs[1:]))
        for p in range(13)
    )
    out.append(_exact("Q_p at lam=1 equals phi_(p+1)/x, p <= 12", bad))

    bad = sum(exact.exp_moment(p) != exact.exp_moment_stirling_sum(p) for p in range(16))
    out.append(_exact("moment Stirling-sum form, p <= 15", bad))

    bad = sum(
        exact.phi_antiderivative(p) != exact.phi_antiderivative_bernoulli_form(p)
        for p in range(13)
    )
    out.append(_exact("antiderivative Bernoulli identity, p <= 12", bad))

    bad = 0
    for p in range(11):
        fp = exact.faulhaber_poly(p)
        for n in range(1, 11):
            if fp(n) != sum(Fraction(j) ** p for j in range(n)):
                bad += 1
    out.append(_exact("power-sum polynomial vs brute force, p <= 10", bad))

    bad = 0
    for p in range(11):
        lhs = exact.euler_poly(p) + exact.euler_poly(p).compose_linear(1, 1)
        if lhs != exact.ExactPoly([0] * p + [2]):
            bad += 1
    out.append(_exact("Euler reflection E_p(l) + E_p(l+1) = 2 l^p, p <= 10", bad))

    bad = sum(2 * exact.eta_neg_poly(p) != exact.euler_poly(p) for p in range(11))
    out.append(_exact("alternating power series polynomial = E_p/2, p <= 10", bad))

    return out


def _generating_function_mismatches(order: int) -> int:
    fact = [1]
    for i in range(1, order + 1):
        fact.append(fact[-1] * i)
    g = [exact.ExactPoly()] + [
        exact.ExactPoly([0, Fraction(1, fact[k])]) for k in range(1, order + 1)
    ]

    def series_mul(a, b):
        res = [exact.ExactPoly() for _ in range(order + 1)]
        for i, ai in enumerate(a):
            if ai.is_zero():
                continue
            for j in range(0, order + 1 - i):
                if not b[j].is_zero():
                    res[i + j] = res[i + j] + ai * b[j]
        return res

    expg = [exact.ExactPoly() for _ in range(order + 1)]
    expg[0] = exact.ExactPoly([1])
    power = [exact.ExactPoly([1])] + [exact.ExactPoly() for _ in range(order)]
    for m in range(1, order + 1):
        power = series_mul(power, g)
        for k in range(order + 1):
            expg[k] = expg[k] + Fraction(1, fact[m]) * power[k]
    return sum(expg[n] != Fraction(1, fact[n]) * exact.phi_poly(n) for n in range(order + 1))


# ---------------------------------------------------------------------------
# route agreement suite
# ---------------------------------------------------------------------------

_GRID_S = (-2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 2.5 + 0.5j)
_GRID_LAM = (1.0, 1.7, 0.5 + 0.5j)
_GRID_X = (-2.0, -0.5, 0.0, 0.5, 1.0, 3.0)


def _routes_for(s, lam, x):
    routes = {"series": core.eval_series(s, lam, x, tol=1e-13).value}
    s_c = complex(s)
    if s_c.imag == 0 and s_c.real <= 0 and s_c.real == int(s_c.real):
        routes["negint"] = core.eval_negint(int(-s_c.real), lam, x).value
    if s_c.imag == 0 and s_c.real >= 1 and s_c.real == int(s_c.real):
        routes["recursion"] = core.eval_via_recursion(int(s_c.real), lam, x, tol=1e-10).value
    routes["hankel"] = core.eval_hankel(s, lam, x, tol=1e-10).value
    if s == 1.0 and complex(x).imag == 0 and complex(x).real < 0:
        xr = -complex(x).real
        routes["incgamma"] = core.lower_inc_gamma(lam, xr) * cmath.exp(
            -complex(lam) * math.log(xr)
        )
    if s == 2.0 and lam == 1.0 and x != 0:
        routes["ein"] = -core.ein(-complex(x)) / complex(x)
    return routes


def suite_routes() -> list[CheckResult]:
    out = []
    worst = 0.0
    worst_at = ""
    for s in _GRID_S:
        for lam in _GRID_LAM:
            for x in _GRID_X:
                routes = _routes_for(s, lam, x)
                vals = list(routes.values())
                scale = max(max(abs(v) for v in vals), 1e-30)
                for i in range(len(vals)):
                    for j in range(i + 1, len(vals)):
                        rel = abs(vals[i] - vals[j]) / scale
                        if rel > worst:
                            worst = rel
                            worst_at = f"s={s}, lam={lam}, x={x}"
    out.append(
        CheckResult(
            f"route agreement grid (worst at {worst_at})", worst <= 1e-7, worst, 1e-7
        )
    )

    # large-lam expansion stays inside its own first-omitted-term estimate
    ref = core.eval_series(2.0, 40.0, 1.0, tol=1e-15).value
    worst_ratio = 0.0
    for order in range(5):
        res = core.asymptotic_lambda(2.0, 40.0, 1.0, order)
        worst_ratio = max(worst_ratio, abs(res.value - ref) / res.abs_err_estimate)
    out.append(_num("lam-asymptotic within first-omitted estimate, orders 0..4", worst_ratio, 1.0))

    lead = core.asymptotic_x_leading(1.0, 1.0, 20.0, +1)
    ref = core.eval_series(1.0, 1.0, 20.0, tol=1e-13).value
    out.append(_num("large-x leading ratio at s=lam=1, x=20", abs(ref / lead - 1.0), 0.15))

    # Taylor shift: value and geometric truncation decay
    res = core.taylor_shift(1.0, 2.0, 1.0, 1.0, terms=60)
    out.append(_num("Taylor shift reproduces shifted value", abs(res.value - (math.e - 1)), 1e-8))
    errs = [
        abs(core.taylor_shift(1.0, 2.0, 1.0, 1.0, terms=t).value - (math.e - 1))
        for t in (6, 12, 18)
    ]
    decay_ok = errs[1] <= errs[0] * 0.5**5 * 10 and errs[2] <= errs[1] * 0.5**5 * 10
    out.append(
        CheckResult("Taylor shift geometric error decay", decay_ok, errs[2], errs[1] * 0.5)
    )

    got = core.generating_sum(2.0, 1.0, 1.0, 40)
    out.append(_num("generating sum at lam=2, z=1", abs(got - (2 * math.e - 1)), 1e-8))
    got = core.generating_sum(1.0, 1.0, 0.5, 60)
    ref = math.e + 0.5 * core.eval_series(1.0, 0.5, 1.0, tol=1e-14).value
    out.append(_num("generating sum at lam=1, z=1/2", abs(got - ref), 1e-8))
    return out


# ---------------------------------------------------------------------------
# transforms suite
# ---------------------------------------------------------------------------


def suite_transforms() -> list[CheckResult]:
    out = []
    zeta2 = transforms.hurwitz_zeta(2.0, 1.0, tol=1e-10)
    out.append(_num("zeta(2) via Laplace integral", abs(zeta2.value - math.pi**2 / 6), 1e-8))
    zneg = transforms.riemann_zeta(-1.0, tol=1e-10)
    out.append(_num("zeta(-1) via eta route", abs(zneg.value - (-1.0 / 12.0)), 1e-9))
    z0 = transforms.riemann_zeta(0.0, tol=1e-10)
    out.append(_num("zeta(0) via eta route", abs(z0.value - (-0.5)), 1e-9))

    worst = 0.0
    for p in range(5):
        got = transforms.eta(-float(p), 1.0, tol=1e-9).value
        expect = float(exact.euler_poly(p)(Fraction(1))) / 2.0
        worst = max(worst, abs(2.0 * got - 2.0 * expect))
    out.append(_num("2 eta(-p, 1) = E_p(1), p <= 4", worst, 1e-7))

    worst = 0.0
    for p in range(5):
        for lam in (1.0, 2.5):
            got = transforms.eta(-float(p), lam, tol=1e-9).value
            expect = float(exact.euler_poly(p)(Fraction(lam))) / 2.0
            worst = max(worst, abs(got - expect))
    out.append(_num("eta(-p, lam) = E_p(lam)/2 grid", worst, 1e-7))

    worst = 0.0
    for s in (0.3, 1.0, 2.3):
        for lam in (1.0, 1.7):
            got = transforms.eta(s, lam, tol=1e-9).value
            oracle = transforms.eta_alternating_series(s, lam)
            worst = max(worst, abs(got - oracle) / abs(oracle))
    out.append(_num("eta integral vs accelerated alternating series", worst, 1e-7))

    quad_val = transforms.eta(0.5, 1.0, tol=1e-9).value
    hankel_val = core.hankel_contour_integral(0.5, 1.0, lambda z: 1.0 / (1.0 + np.exp(z)), tol=1e-10)
    out.append(_num("eta branch-cut contour cross-check at s=1/2", abs(quad_val - hankel_val), 1e-6))

    worst = 0.0
    for s in (2.0, 3.0, 4.5):
        a = transforms.riemann_zeta(s, tol=1e-10).value
        b = transforms.hurwitz_zeta(s, 1.0, tol=1e-10).value
        worst = max(worst, abs(a - b))
    out.append(_num("zeta eta-route vs Laplace route, s in {2,3,4.5}", worst, 1e-8))

    worst = 0.0
    for s, lam in ((2.0, 1.0), (3.5, 1.7)):
        a = transforms.lerch_phi(1.0, s, lam, tol=1e-9).value
        b = transforms.hurwitz_zeta(s, lam, tol=1e-9).value
        worst = max(worst, abs(a - b))
    out.append(_num("lerch at x=1 equals hurwitz", worst, 1e-8))

    worst = 0.0
    for p in range(5):
        got = transforms.mellin_transform_polyexp(0.5, p, 1.0, tol=1e-8).value
        worst = max(worst, abs(got - 2.0**p * math.sqrt(math.pi)))
    out.append(_num("Mellin transform at s=1/2: 2^p sqrt(pi), p = 0..4", worst, 1e-6))

    worst = 0.0
    for p in (1, 2, 3, 4):
        for lam in (1.0, 1.5, 2.3):
            got = transforms.vanishing_moment(p, lam, tol=1e-9).value
            worst = max(worst, abs(got))
    out.append(_num("vanishing moments p in 1..4, lam in {1, 1.5, 2.3}", worst, 1e-8))
    return out


# ---------------------------------------------------------------------------
# mellin suite
# ---------------------------------------------------------------------------

_ROUND_TRIP = ["1/(2-s)", "1/(2-s)^2", "s^2", "(s^2+1)/((2-s)*(3-s)^2)", "1+1/(4-s)"]


def suite_mellin() -> list[CheckResult]:
    out = []
    worst = 0.0
    for text in _ROUND_TRIP:
        r = mellin.parse_rational(text)
        expr = mellin.eval_theorem63(r, 1.0)
        for x in (0.5, 1.0, 2.0):
            T = mellin.choose_line_height(r, x, 1.0, 1e-8)
            oracle = mellin.oracle_line_integral(r, x, 1.0, T, tol=1e-9)
            symbolic = mellin.eval_expression(expr, x, tol=1e-10)
            worst = max(worst, abs(symbolic.value - oracle.value))
    out.append(_num("theorem round-trip vs line integral, 5 cases x in {0.5,1,2}", worst, 1e-6))

    # decomposition reassembly (also enforced at construction)
    r = mellin.parse_rational("(s^2+1)/((2-s)*(3-s)^2)")
    pf = mellin.partial_fractions(r)
    worst = 0.0
    for z in (0.3 + 1.2j, -1.0, 2.5 + 0.5j, 4.0):
        worst = max(worst, abs(pf(z) - r(z)) / max(1.0, abs(r(z))))
    out.append(_num("partial fractions reassembly", worst, 1e-10))

    base = mellin.eval_expression(mellin.eval_theorem63(mellin.parse_rational("1"), 1.0), 1.0)
    out.append(_num("base case R=1 gives e^-x", abs(base.value - math.exp(-1.0)), 1e-12))

    r1, r2 = mellin.parse_rational("1/(2-s)"), mellin.parse_rational("s^2")
    combo = 3 * r1 + Fraction(-2) * r2
    v_combo = mellin.eval_expression(mellin.eval_theorem63(combo, 1.0), 1.0).value
    v_parts = (
        3 * mellin.eval_expression(mellin.eval_theorem63(r1, 1.0), 1.0).value
        - 2 * mellin.eval_expression(mellin.eval_theorem63(r2, 1.0), 1.0).value
    )
    out.append(_num("linearity of the symbolic value", abs(v_combo - v_parts), 1e-10))

    x, h = 1.3, 1e-3
    euler1 = x * (math.exp(-(x + h)) - math.exp(-(x - h))) / (2 * h)
    got1 = mellin.eval_expression(mellin.eval_theorem63(mellin.parse_rational("-s"), 1.0), x).value
    g = lambda t: t * (math.exp(-(t + h)) - math.exp(-(t - h))) / (2 * h)
    euler2 = x * (g(x + h) - g(x - h)) / (2 * h)
    got2 = mellin.eval_expression(mellin.eval_theorem63(mellin.parse_rational("s^2"), 1.0), x).value
    worst = max(abs(got1 - euler1), abs(got2 - euler2))
    out.append(_num("Euler operator consistency, k in {1,2}", worst, 1e-4))
    return out


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------


def suite_series() -> list[CheckResult]:
    out = []
    worst = 0.0
    for s in (1.0, 2.0, -2.0):
        for lam in (1.0, 1.5):
            for w in (1.0, -1.0, 0.5):
                for x in (0.5, 1.0, 2.0):
                    p = series.HSeriesParams(s, lam, w, x)
                    a = series.h_direct(p, tol=1e-12).value
                    b = series.h_quadrature(p, tol=1e-10).value
                    worst = max(worst, abs(a - b))
    out.append(_num("h direct vs quadrature grid", worst, 1e-8))

    g3_exact = exact.h_neg_closed_poly(3)(Fraction(1))
    out.append(_exact("h_(-3)(1) = 27e/4 at the polynomial level", 0 if g3_exact == Fraction(27, 4) else 1))

    worst = 0.0
    for w in (1.0, -1.0, 0.5, 0.5j):
        for x in (0.5, 1.0):
            got = series.h1_closed(w, x)
            ref = series.h_direct(series.HSeriesParams(1.0, 1.0, w, x), tol=1e-13).value
            worst = max(worst, abs(got - ref))
    out.append(_num("h1 closed form vs direct", worst, 1e-9))

    worst = 0.0
    for p in (1, 2, 3):
        for x in (0.5, 1.0):
            got = series.h_neg_alt_eval(p, x).value
            ref = series.h_direct(series.HSeriesParams(-float(p), 1.0, -1.0, x), tol=1e-13).value
            worst = max(worst, abs(got - ref))
    out.append(_num("alternating closed form vs direct series", worst, 1e-9))

    bad = sum(a != b for a, b in (series.h_neg_poly_forms(p) for p in range(11)))
    out.append(_exact("two exact assemblies of g_p coincide, p <= 10", bad))

    pts = series.borel_probe(2.0, 1.0, 1.0, [10.0, 20.0, 40.0])
    errs = [abs(p.scaled_value - p.target) for p in pts]
    trend_ok = errs[0] > errs[1] > errs[2]
    out.append(CheckResult("Borel trend strictly decreasing to zeta(2)", trend_ok, errs[2], 0.05))
    out.append(_num("Borel error at x=40", errs[2], 0.05))

    worst = 0.0
    step = 1e-5
    for s, lam, w, x in (
        (1.0, 1.0, 1.0, 0.5),
        (2.0, 1.5, -1.0, 1.0),
        (0.5, 1.0, 0.5, 0.7),
        (-2.0, 1.0, 1.0, 1.2),
        (2.0, 1.0, 1.0, 2.0),
        (1.0, 2.0, -1.0, 0.3),
    ):
        up = series.h_direct(series.HSeriesParams(s, lam, w, x + step), tol=1e-13).value
        dn = series.h_direct(series.HSeriesParams(s, lam, w, x - step), tol=1e-13).value
        mid = series.h_direct(series.HSeriesParams(s, lam, w, x), tol=1e-13).value
        rhs = core.eval_series(s, lam, w * x, tol=1e-13).value
        worst = max(worst, abs((up - dn) / (2 * step) - mid - rhs))
    out.append(_num("ODE relation dh/dx - h = e_s(xw) on 6 points", worst, 1e-5))
    return out


SUITES = {
    "exact": suite_exact,
    "routes": suite_routes,
    "transforms": suite_transforms,
    "mellin": suite_mellin,
    "series": suite_series,
}


def run_suite(name: str) -> list[CheckResult]:
    if name == "all":
        results = []
        for suite in SUITES.values():
            results.extend(suite())
        return results
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    return SUITES[name]()
