"""Mellin module: parser, decomposition, symbolic value, line-integral oracle."""

import cmath
import functools
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polyexp import mellin
from polyexp.mellin import (
    MellinExpression,
    PartialFractions,
    PoleRegionError,
    PoleTerm,
    RationalFunction,
    eval_expression,
    eval_theorem63,
    oracle_line_integral,
    parse_rational,
    partial_fractions,
    shift_adjust,
)
from polyexp.result import ConditioningError, ParseError, UnsupportedError


# -- parser -------------------------------------------------------------------


def test_parse_simple_pole():
    r = parse_rational("1/(2-s)")
    assert r.den.degree == 1 and r.num.degree == 0
    assert r(0) == pytest.approx(0.5)
    assert r(1j) == pytest.approx(1 / (2 - 1j))


def test_parse_compound():
    r = parse_rational("(s^2+1)/((2-s)*(3-s)^2)")
    assert r.den.degree == 3 and r.num.degree == 2
    s = 0.7 + 0.2j
    assert r(s) == pytest.approx((s * s + 1) / ((2 - s) * (3 - s) ** 2))


def test_parse_polynomial():
    r = parse_rational("s^2")
    assert r.den.degree == 0 and r.num.coeffs == (0, 0, 1)


def test_parse_whitespace_and_decimals():
    r = parse_rational("  1 / ( 0.5 - s ) ")
    assert r(0) == pytest.approx(2.0)
    # decimals are exact: 0.5 -> 1/2
    assert parse_rational("0.5").num.coeffs == (Fraction(1, 2),)


def test_parse_sum_with_nested_division():
    r = parse_rational("1+1/(4-s)")
    assert r(0) == pytest.approx(1.25)
    assert r.den.degree == 1


def test_parse_unary_minus_and_power():
    assert parse_rational("-s^2")(2.0) == pytest.approx(-4.0)
    assert parse_rational("(-s)^2")(2.0) == pytest.approx(4.0)


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as exc:
        parse_rational("1/(2-s")
    assert exc.value.position == 6
    with pytest.raises(ParseError):
        parse_rational("s^(1/2)")
    with pytest.raises(ParseError):
        parse_rational("2 ? s")
    with pytest.raises(ParseError):
        parse_rational("1/0")
    with pytest.raises(ParseError):
        parse_rational("1/(s-s)")


def test_rational_reduction():
    # (s^2 - 4)/(s - 2) reduces to s + 2
    r = parse_rational("(s^2-4)/(s-2)")
    assert r.den.degree == 0
    assert r(10.0) == pytest.approx(12.0)


def _stepwise(text):
    """The text evaluated by Python with RationalFunction arithmetic, which
    reduces after every operation: numbers become constants, ^ becomes **."""
    text = text.replace("^", "**").replace("s", "S")
    text = re.sub(r"(?<!\*\*)(?<![\d.])(\d+\.?\d*|\.\d+)", r"C('\1')", text)
    return eval(text, {"S": RationalFunction.variable(),
                       "C": lambda t: RationalFunction.from_const(Fraction(t))})


# the benchmark's six text shapes: (pole orders, polynomial-part degree, form)
PARSE_SHAPES = [
    "(2*s-1)/((2.25-s)*(2.75-s))",  # (1, 1), -1, quotient
    "(s^3-2*s+1)/((2.5-s)^2*(3.0-s))",  # (2, 1), 0, quotient
    "(3*s^2+s-1)/((2.75-s)^3)",  # (3,), -1, quotient
    "s^2-3*s+2+2/(2.25-s)-1/(3.5-s)^3",  # (1, 3), 2, sum
    "(-s^3+s-2)/((2.25-s)*(3.0-s)*(3.75-s))",  # (1, 1, 1), 0, quotient
    "(s^3-s+1)/((2.5-s)^2*(3.25-s)^2)",  # (2, 2), -1, quotient
]
PARSE_CANCELLING = [
    "(s^2-1)/(s+1)",
    "(s-1)^3/(s-1)^2",
    "1/(s-1)+1/(s-1)^2",
    "1/(s-1)-1/(s+1)",
    "(s-2)/(s-2)",
    "1/(2-s)*(2-s)^2/(4-s^2)",
    "((s+1)^2)^3/(s+1)^5-s",
]
PARSE_POWERS_AND_DECIMALS = [
    "s^0",
    "(s-1)^0/(2-s)",
    "3*s^0-(s^2+1)^0",
    "0.125*s-2.5/(0.5-s)",
    "1.1*s^2/(0.3-s)^2",
    ".75/(s-.25)",
    "1/(2-s)^13",
]


@pytest.mark.parametrize("text", PARSE_SHAPES + PARSE_CANCELLING + PARSE_POWERS_AND_DECIMALS)
def test_parse_reduces_once_to_the_stepwise_result(text):
    got = parse_rational(text)
    assert got == _stepwise(text)
    # the unique form: no common factor, monic denominator
    assert got.num.gcd(got.den).degree <= 0 and got.den.coeffs[-1] == 1


def test_parse_cancels_to_lowest_terms():
    assert parse_rational("(s-1)^3/(s-1)^2") == parse_rational("s-1")
    assert parse_rational("1/(s-1)+1/(s-1)^2") == parse_rational("s/(s-1)^2")
    assert parse_rational("s^0") == RationalFunction.from_const(Fraction(1))
    assert parse_rational("0.125*s").num.coeffs == (0, Fraction(1, 8))


@pytest.mark.parametrize("text", ["1/(s-s)", "1/((s-1)/(s-1)-1)", "1/(0*s)"])
def test_parse_division_by_zero_keeps_its_position(text):
    with pytest.raises(ParseError, match="division by zero") as exc:
        parse_rational(text)
    assert exc.value.position == 1


# -- partial fractions -----------------------------------------------------------


def test_pf_simple_pole():
    pf = partial_fractions(parse_rational("1/(2-s)"))
    assert pf.poly_part == ()
    assert len(pf.pole_terms) == 1
    t = pf.pole_terms[0]
    assert t.pole == pytest.approx(2.0) and t.order == 1
    assert t.coeff == pytest.approx(1.0)


def test_pf_pure_polynomial():
    pf = partial_fractions(parse_rational("s^2"))
    assert pf.pole_terms == ()
    assert pf.poly_part == (0, 0, 1)  # s^2 = (-s)^2


def test_pf_residue_oracle():
    r = parse_rational("(s^2+1)/((2-s)*(3-s)^2)")
    pf = partial_fractions(r)
    by_key = {(round(t.pole.real), t.order): t.coeff for t in pf.pole_terms}
    # evaluate R(s)(2-s) at s=2: (4+1)/(3-2)^2 = 5
    assert by_key[(2, 1)] == pytest.approx(5.0, abs=1e-10)
    # (3-s)^2 R(s) = (s^2+1)/(2-s) =: H; A_2 = H(3), A_1 = -H'(3)
    assert by_key[(3, 2)] == pytest.approx(-10.0, abs=1e-9)
    assert by_key[(3, 1)] == pytest.approx(-4.0, abs=1e-9)


def test_pf_reassembles_everywhere():
    r = parse_rational("(s^3+2*s+1)/((1-s)*(5/2-s)^2)")
    pf = partial_fractions(r)
    for z in (0.3 + 0.1j, -2.0, 4.0 + 3.0j):
        assert pf(z) == pytest.approx(r(z), rel=1e-9)


def test_pf_validation_names_the_first_bad_point():
    # a wrong coefficient fails at every point; the first is the first of
    # the seeded draws that keeps 1e-2 away from the pole
    rng = random.Random(0x5EED)
    while abs((first := complex(rng.uniform(-4, 4), rng.uniform(-4, 4))) - 2) < 1e-2:
        pass
    wrong = PartialFractions((), (PoleTerm(pole=2 + 0j, order=1, coeff=1.001 + 0j),))
    with pytest.raises(ConditioningError, match=re.escape(f"at s={first}")) as exc:
        mellin._validate_decomposition(parse_rational("1/(2-s)"), wrong)
    off = float(re.search(r"off by (\S+) at", str(exc.value))[1])
    assert off == pytest.approx(0.001 / abs(2 - first), rel=1e-3)


def test_pf_evaluates_at_an_array():
    r = parse_rational("(s^3+2*s+1)/((1-s)*(5/2-s)^2)")
    z = np.array([0.3 + 0.1j, -2.0, 4.0 + 3.0j])
    pf = partial_fractions(r)
    assert np.allclose(pf(z), [pf(complex(v)) for v in z], rtol=1e-14)
    assert np.allclose(r(z), [r(complex(v)) for v in z], rtol=1e-14)


def test_pf_complex_pole_pair():
    # s^2+1 has roots +-i; both become separate complex poles
    pf = partial_fractions(parse_rational("1/(s^2+1)"))
    poles = sorted(t.pole.imag for t in pf.pole_terms)
    assert poles == pytest.approx([-1.0, 1.0])


def test_pf_near_roots_merge():
    # two exact poles 1e-10 apart collapse into one order-2 pole
    r = parse_rational("1/((2-s)*(20000000001/10000000000-s))")
    pf = partial_fractions(r)
    assert max(t.order for t in pf.pole_terms) == 2


def test_pf_suspect_cluster_refused():
    # 1e-6 separation: inside the refuse band [1e-8, 1e-5]
    with pytest.raises(ConditioningError):
        partial_fractions(parse_rational("1/((2-s)*(2000001/1000000-s))"))


# -- theorem evaluation ------------------------------------------------------------


def test_theorem_simple_pole_structure():
    expr = eval_theorem63(parse_rational("1/(2-s)"), 1.0)
    assert expr.exp_poly == ()
    assert len(expr.terms) == 1
    t = expr.terms[0]
    assert (t.order, t.lam) == (1, 2.0 + 0j)
    # equals e_1(-x, 2) = sum (-1)^n x^n/(n!(n+2)); check the series at x=1
    series = sum((-1.0) ** n / (math.factorial(n) * (n + 2)) for n in range(25))
    got = eval_expression(expr, 1.0)
    assert abs(got.value - series) < 1e-12


def test_theorem_square_pole():
    expr = eval_theorem63(parse_rational("1/(2-s)^2"), 1.0)
    assert len(expr.terms) == 1 and expr.terms[0].order == 2


def test_theorem_polynomial_part():
    expr = eval_theorem63(parse_rational("s^2"), 1.0)
    assert expr.terms == () and expr.exp_poly == (0, 0, 1)
    got = eval_expression(expr, 2.0)
    assert abs(got.value - 2.0 * math.exp(-2.0)) < 1e-13  # e^-x (x^2 - x) at x=2
    got1 = eval_expression(expr, 1.0)
    assert abs(got1.value) < 1e-15  # phi_2(-1) = 0


def test_theorem_pole_region_guard():
    with pytest.raises(PoleRegionError):
        eval_theorem63(parse_rational("1/(0.5-s)"), 1.0)
    with pytest.raises(Exception):
        eval_theorem63(parse_rational("1/(2-s)"), -1.0)


def test_expression_exp_poly_constant():
    expr = MellinExpression(exp_poly=(Fraction(1),), terms=(), c=1.0)
    got = eval_expression(expr, 1.0)
    assert abs(got.value - math.exp(-1.0)) < 1e-15


# -- oracle --------------------------------------------------------------------------


def test_oracle_gamma_inversion():
    res = oracle_line_integral(parse_rational("1"), 1.0, 1.0, 16.0, tol=1e-10)
    assert abs(res.value - math.exp(-1.0)) < 1e-9


def test_oracle_simple_pole():
    series = sum((-1.0) ** n / (math.factorial(n) * (n + 2)) for n in range(25))
    res = oracle_line_integral(parse_rational("1/(2-s)"), 1.0, 1.0, 16.0, tol=1e-10)
    assert abs(res.value - series) < 1e-8


def test_oracle_polynomial():
    res = oracle_line_integral(parse_rational("s^2"), 1.0, 1.0, 18.0, tol=1e-10)
    assert abs(res.value) < 1e-8  # e^-1 phi_2(-1) = 0


def test_oracle_array_integrand_keeps_nodes_and_value():
    res = oracle_line_integral(parse_rational("(s^2+1)/((2-s)*(3-s)^2)"), 1, 1, 30)
    assert res.work == 129  # the half line on nested Clenshaw-Curtis points: 65, then the 64 new of m = 128
    # the value the per-node (scalar) integrand gave
    assert abs(res.value - (0.0316247789156676 - 1.4313847389756427e-18j)) <= 1e-15


FOLD_TEXTS = PARSE_SHAPES + ["1/(s^2+1)", "s^2", "1"]


@functools.lru_cache(maxsize=None)
def _line_kernel(x, c, t):
    """x^-s Gamma(s) / (2 pi) at s = c + it, in mpmath: every rational of a
    (c, x) pair meets the same quadrature nodes, so each is formed once."""
    import mpmath as mp

    s = mp.mpc(c, t)
    return x ** -s * mp.gamma(s) / (2 * mp.pi)


def _full_line(r, x, c, T):
    """The line integral over [-T, T], unfolded, by mpmath at 20 digits:
    (value, estimate). R is evaluated from its exact coefficients."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        num, den = ([mp.mpf(k.numerator) / k.denominator for k in reversed(p.coeffs)] for p in (r.num, r.den))

        def f(t):
            s = mp.mpc(c, t)
            return mp.polyval(num, s) / mp.polyval(den, s) * _line_kernel(x, c, t)

        value, err = mp.quad(f, [-T, 0, T], error=True)
        return complex(value), float(err)


@pytest.mark.parametrize("text", FOLD_TEXTS)
@pytest.mark.parametrize("c", [0.25, 0.5, 1.0, 2.0])
def test_oracle_fold_matches_the_full_line(text, c):
    r = parse_rational(text)
    for x in (0.6, 2.0):
        res = oracle_line_integral(r, x, c, 20.0, tol=1e-10)
        assert res.value.imag == 0.0
        full, full_err = _full_line(r, x, c, 20.0)
        assert abs(res.value - full) <= res.abs_err_estimate + full_err


def _residue_series(r, x, mp):
    """sum_n (-x)^n R(-n)/n!: the line integral closed to the left, when
    every pole of R lies right of the line."""
    total, term, n = mp.mpf(0), mp.mpf(1), 0
    while True:
        value = r.num(Fraction(-n)) / r.den(Fraction(-n))
        total += term * mp.mpf(value.numerator) / value.denominator
        if n > 2 * x + 10 and abs(term) < mp.mpf(10) ** -25:
            return complex(total)
        n += 1
        term *= -x / n


@pytest.mark.parametrize("tol", [1e-9, 1e-12])
def test_oracle_fold_meets_its_estimate(tol):
    mp = pytest.importorskip("mpmath")
    misses = []
    with mp.workdps(40):
        for text in PARSE_SHAPES + ["s^2", "1+1/(4-s)"]:
            r = parse_rational(text)
            for x in (0.3, 1.0, 2.7):
                truth = _residue_series(r, mp.mpf(x), mp)
                T = mellin.choose_line_height(r, x, 1.0, tol)
                res = oracle_line_integral(r, x, 1.0, T, tol=tol)
                if not (err := abs(res.value - truth)) <= res.abs_err_estimate:
                    misses.append(f"{text} at x = {x}: {err:.2g} > {res.abs_err_estimate:.2g}")
    assert not misses, "\n".join(misses)


def test_oracle_left_of_one_half_at_large_heights():
    # gamma_fn's reflection past |Im z| ~ 225, where sin(pi z) leaves binary64
    series = sum((-1.0) ** n / (math.factorial(n) * (n + 2)) for n in range(25))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = oracle_line_integral(parse_rational("1/(2-s)"), 1.0, 0.25, 300.0)
    assert abs(res.value - series) <= res.abs_err_estimate


def test_oracle_guards():
    from polyexp.result import QuadratureError

    with pytest.raises(PoleRegionError):
        oracle_line_integral(parse_rational("1/(1-s)"), 1.0, 1.0, 16.0)
    with pytest.raises(QuadratureError):
        oracle_line_integral(parse_rational("1"), 1.0, 1.0, 3.0, target_tol=1e-9)


ROUND_TRIP_CASES = [
    "1/(2-s)",
    "1/(2-s)^2",
    "s^2",
    "(s^2+1)/((2-s)*(3-s)^2)",
    "1+1/(4-s)",
]


@pytest.mark.parametrize("text", ROUND_TRIP_CASES)
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_round_trip_symbolic_vs_line_integral(text, x):
    r = parse_rational(text)
    expr = eval_theorem63(r, 1.0)
    T = mellin.choose_line_height(r, x, 1.0, 1e-8)
    oracle = oracle_line_integral(r, x, 1.0, T, tol=1e-9)
    symbolic = eval_expression(expr, x, tol=1e-10)
    assert abs(symbolic.value - oracle.value) < 1e-6


def test_expression_large_coefficients_meet_tol():
    # residue coefficients 54, 224 and 379: the inner tolerance must be
    # split by their sum, not by the number of terms
    mp = pytest.importorskip("mpmath")
    text, x, c = "(s^5+s^4-3*s^3+3*s-2)/((2.25-s)*(3.25-s)^2)", 0.26, 1.0
    res = eval_expression(eval_theorem63(parse_rational(text), c), x, tol=1e-10)

    def integrand(y):
        s = c + 1j * y
        return mp.mpf(x) ** -s * (s**5 + s**4 - 3 * s**3 + 3 * s - 2) / (
            (mp.mpf(2.25) - s) * (mp.mpf(3.25) - s) ** 2
        ) * mp.gamma(s)

    with mp.workdps(20):  # |Gamma(1 + iy)| < 1e-26 beyond |y| = 40
        truth = complex(mp.quad(integrand, [-40, -10, 0, 10, 40]) / (2 * mp.pi))
    assert abs(res.value - truth) <= 1e-10
    assert abs(res.value - truth) <= res.abs_err_estimate


def test_linearity():
    r1 = parse_rational("1/(2-s)")
    r2 = parse_rational("s^2")
    combo = 3 * r1 + Fraction(-2) * r2
    v_combo = eval_expression(eval_theorem63(combo, 1.0), 1.0).value
    v_parts = (
        3 * eval_expression(eval_theorem63(r1, 1.0), 1.0).value
        - 2 * eval_expression(eval_theorem63(r2, 1.0), 1.0).value
    )
    assert abs(v_combo - v_parts) < 1e-12


@pytest.mark.parametrize("k", [1, 2])
def test_euler_operator_consistency(k):
    """(x d/dx)^k e^(-x) must match the expression of R(s) = (-s)^k."""
    text = "-s" if k == 1 else "s^2"
    expr = eval_theorem63(parse_rational(text), 1.0)
    x = 1.3
    h = 1e-3
    if k == 1:
        numeric = x * (math.exp(-(x + h)) - math.exp(-(x - h))) / (2 * h)
    else:
        g = lambda t: t * (math.exp(-(t + h)) - math.exp(-(t - h))) / (2 * h)
        numeric = x * (g(x + h) - g(x - h)) / (2 * h)
    got = eval_expression(expr, x).value
    assert abs(got - numeric) < 1e-4


# -- shift adjust ----------------------------------------------------------------------


def test_shift_identity_when_no_poles_crossed():
    r = parse_rational("1/(4-s)")
    base = eval_expression(eval_theorem63(r, 1.0), 1.0).value
    shifted = eval_expression(shift_adjust(r, 1.0, 0.5), 1.0).value
    assert abs(base - shifted) < 1e-12


def test_shift_equal_lines_is_identity():
    r = parse_rational("1/(2-s)")
    a = eval_expression(shift_adjust(r, 1.0, 1.0), 1.0).value
    b = eval_expression(eval_theorem63(r, 1.0), 1.0).value
    assert abs(a - b) < 1e-14


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_shift_crossing_simple_pole_matches_oracle(x):
    r = parse_rational("1/(1-s)")
    expr = shift_adjust(r, 2.0, 0.5)
    assert len(expr.residues) == 1
    T = mellin.choose_line_height(r, x, 2.0, 1e-8)
    oracle = oracle_line_integral(r, x, 2.0, T, tol=1e-9)
    got = eval_expression(expr, x)
    assert abs(got.value - oracle.value) < 1e-6


def test_shift_decomposes_once(monkeypatch):
    calls = []
    real = mellin.partial_fractions

    def counting(R):
        calls.append(R)
        return real(R)

    monkeypatch.setattr(mellin, "partial_fractions", counting)
    shift_adjust(parse_rational("1/(1-s) + 1/(3-s)"), 2.0, 0.5)
    assert len(calls) == 1


def test_shift_refuses_high_order_crossing():
    with pytest.raises(UnsupportedError):
        shift_adjust(parse_rational("1/(1-s)^2"), 2.0, 0.5)


def test_shift_refuses_pole_on_line():
    with pytest.raises(PoleRegionError):
        shift_adjust(parse_rational("1/(1-s)"), 2.0, 1.0)


# -- serialization ------------------------------------------------------------------------


def test_expression_json_round_trip():
    expr = shift_adjust(parse_rational("1/(1-s)"), 2.0, 0.5)
    data = expr.to_json_dict()
    back = MellinExpression.from_json_dict(data)
    assert back == expr
    assert data["terms"][0]["p"] == 1
    assert "residues" in data


def test_expression_json_plain():
    expr = eval_theorem63(parse_rational("s^2"), 1.0)
    data = expr.to_json_dict()
    assert data == {"exp_poly": ["0/1", "0/1", "1/1"], "terms": [], "c": 1.0}
    assert MellinExpression.from_json_dict(data) == expr
