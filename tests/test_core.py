"""Core evaluation routes: spec'd values, independent oracles, invariants."""

import cmath
import math
import re
import time
import warnings

import numpy as np
import pytest

from polyexp.core import (
    _ray_tail_bound,
    asymptotic_lambda,
    asymptotic_x_leading,
    default_contour,
    ein,
    evaluate,
    eval_hankel,
    eval_negint,
    eval_series,
    eval_via_recursion,
    exp_weighted_series,
    gamma_fn,
    generating_sum,
    lower_inc_gamma,
    rising_factorial,
    series_tail_bound,
    taylor_shift,
)
from polyexp.exact import phi_poly
from polyexp.quadrature import gauss_legendre, tanh_sinh
from polyexp.result import (
    ConditioningError,
    ContourResolutionError,
    ConvergenceError,
    DomainError,
    PoleError,
)

E = math.e


def _mp_polyexp(s, lam, x):
    """e_s(x, lam) from the defining series in mpmath at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s, lam, x = mp.mpc(s), mp.mpc(lam), mp.mpc(x)
        total, term, n = mp.mpf(0), mp.mpf(1), 0
        while n <= 2 * abs(x) + 10 or abs(term) > mp.mpf(10) ** -45:
            total += term / (n + lam) ** s
            n += 1
            term *= x / n
        return complex(total)


# -- gamma -------------------------------------------------------------------


def test_gamma_known_values():
    assert abs(gamma_fn(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(gamma_fn(5.0) - 24.0) < 1e-12
    assert abs(gamma_fn(2.5) - 0.75 * math.sqrt(math.pi)) < 1e-14


def test_gamma_near_overflow():
    # t^(z+1/2) alone overflows here; the value itself fits in binary64.
    # Bound: a few eps times log Gamma(z) ~ 700, the rounding of the powers
    for z in (171.5, 170.2, 150.0, -170.5):
        assert abs(gamma_fn(z) - math.gamma(z)) <= 4e-13 * abs(math.gamma(z))


def test_gamma_poles():
    for z in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            gamma_fn(z)


def test_gamma_real_array_matches_scalar():
    z = np.linspace(-30.3, 171.3, 500)
    got = gamma_fn(z)
    assert got.dtype == np.float64 and got.shape == z.shape
    expect = np.array([gamma_fn(zi).real for zi in z])
    assert np.all(np.abs(got - expect) <= 4 * np.finfo(float).eps * np.abs(expect))


def test_gamma_complex_array_against_mpmath():
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    z = rng.uniform(-30.0, 171.0, 500) + 1j * rng.uniform(-40.0, 40.0, 500)
    got = gamma_fn(z)
    for zi, gi in zip(z, got):
        truth = complex(mp.gamma(mp.mpc(zi.real, zi.imag)))
        assert abs(gi - truth) <= 3e-13 * abs(truth), zi


def test_gamma_array_pole_and_no_warnings():
    with pytest.raises(PoleError):
        gamma_fn(np.array([0.5, -3.0, 2.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = gamma_fn(np.array([-170.5, 0.3, 171.5]))
    assert np.all(np.isfinite(got))


@pytest.mark.parametrize(
    "z",
    [0.3, 1.7, 10.0, 49.0, -0.5, -3.3, 2 + 3j, -4 + 1j, 0.5 - 20j, 30 + 30j],
)
def test_gamma_recursion_functional_equation(z):
    # Gamma(z+1) = z Gamma(z), a route-independent consistency check
    lhs = gamma_fn(z + 1)
    rhs = z * gamma_fn(z)
    assert abs(lhs - rhs) <= 1e-13 * abs(lhs)


def test_gamma_reflection():
    for z in (0.3 + 0.7j, -1.2 + 0.4j, 0.25):
        prod = gamma_fn(z) * gamma_fn(1 - z)
        assert abs(prod - math.pi / cmath.sin(math.pi * z)) < 1e-12 * abs(prod)


@pytest.mark.parametrize(
    "z", [-5.000001, -29.99999, -0.5000001, -2.5 + 1e-7j, -7.3 + 0.2j, -3.0000001 - 2j]
)
def test_gamma_reflection_next_to_poles(z):
    # sin(pi z) taken as (-1)^n sin(pi (z - n)) keeps the relative error at
    # a few eps next to the pole n, in both the number and the array path
    mp = pytest.importorskip("mpmath")
    truth = complex(mp.gamma(mp.mpc(z)))
    assert abs(gamma_fn(z) - truth) <= 1e-13 * abs(truth)
    assert abs(gamma_fn(np.array([z, 2.5]))[0] - truth) <= 1e-13 * abs(truth)


def test_rising_factorial():
    assert rising_factorial(3.0, 4) == 3 * 4 * 5 * 6
    assert rising_factorial(-2.0, 3) == (-2) * (-1) * 0
    assert rising_factorial(0.5 + 1j, 0) == 1


# -- direct series -----------------------------------------------------------


def test_series_classic_values():
    assert abs(eval_series(0, 1, 1, tol=1e-15).value - E) < 1e-14
    assert abs(eval_series(1, 1, 1, tol=1e-15).value - (E - 1)) < 1e-14


def test_series_s2_direct_sum_oracle():
    acc = 0.0
    fact = 1.0
    for n in range(25):
        if n:
            fact *= n
        acc += 1.0 / (fact * (n + 1) ** 2)
    assert abs(eval_series(2, 1, 1).value - acc) < 1e-13


def test_series_at_zero_is_lambda_power():
    for s in (-2, -0.5, 0, 1.5, 2 + 1j):
        for lam in (1.0, 1.7, 0.5 + 0.5j):
            got = eval_series(s, lam, 0).value
            assert abs(got - cmath.exp(-complex(s) * cmath.log(lam))) < 1e-14


def test_series_rejects_bad_domain():
    with pytest.raises(DomainError):
        eval_series(1, -1.0, 1)
    with pytest.raises(DomainError):
        eval_series(1, 1.0, 1, tol=-1)


def test_series_term_cap():
    # x = 30000 needs more than the default 10000 terms
    with pytest.raises(ConvergenceError, match="10000 terms"):
        eval_series(1, 1, 30000.0)


def test_series_large_x_no_overflow():
    # the tail bound's |x|^(n+1) alone overflows binary64 here
    res = eval_series(2, 1, 200.0)
    truth = _mp_polyexp(2, 1, 200)
    assert abs(res.value - truth) <= 1e-13 * abs(truth)


@pytest.mark.parametrize("s", [-2, -0.5, 0.5, 2, 2.5 + 0.5j])
@pytest.mark.parametrize("lam", [1.0, 0.5 + 0.5j])
@pytest.mark.parametrize("x", [-3.0, 1.0, 3.0, 2j])
def test_series_tail_bound_majorizes_true_tail(s, lam, x):
    """The stated bound must dominate brute-force tails once the stopping
    rule's preconditions hold."""
    s_, lam_, x_ = complex(s), complex(lam), complex(x)

    def partial(n_terms):
        acc = 0.0 + 0.0j
        term = 1.0 + 0.0j
        for n in range(n_terms):
            acc += term * cmath.exp(-s_ * cmath.log(n + lam_))
            term *= x_ / (n + 1)
        return acc

    full = partial(320)
    start = int(2 * abs(x_)) + 1
    for n in range(start, start + 12):
        ratio = abs(x_) / (n + 1)
        if s_.real < 0:
            ratio *= (1.0 + 1.0 / (n + lam_.real)) ** (-s_.real)
        if ratio > 0.5:
            continue
        true_tail = abs(full - partial(n + 1))
        assert true_tail <= series_tail_bound(s_, lam_, x_, n) + 1e-15


def test_series_error_estimate_reported():
    res = eval_series(2, 1, -30.0, tol=1e-12)
    # heavy cancellation: estimate must reflect the rounding floor
    assert res.abs_err_estimate >= 1e-10
    assert res.method == "series" and res.work > 60


# -- weighted product evaluator ------------------------------------------------


@pytest.mark.parametrize("s", [0.5, 2.0, -1.0, 1.5 + 0.5j])
@pytest.mark.parametrize("z", [1.0, -1.0, 0.5, 0.3 + 0.4j])
@pytest.mark.parametrize("t", [0.0, 0.7, 12.0])
def test_exp_weighted_matches_plain_product(s, z, t):
    lam = 1.3
    val, err, _ = exp_weighted_series(s, lam, z, t)
    ref = math.exp(-t) * eval_series(s, lam, complex(z) * t, tol=1e-15).value
    assert abs(val - ref) < 5e-13 + 5 * err


def test_exp_weighted_large_t_windowed():
    # t far beyond binary64's e^t range; value ~ (t+lam)^-s
    val, err, n = exp_weighted_series(2.0, 1.0, 1.0, 1.0e6)
    assert abs(val - 1.0e-12) < 1e-14
    assert n < 50000


def test_exp_weighted_alternating_no_blowup():
    # e^(-t) e_s(-t, lam): naked series terms reach e^t here
    val, err, _ = exp_weighted_series(0.5, 1.0, -1.0, 40.0)
    assert err < 1e-12
    assert abs(val) < 1e-15  # ~ e^(-40) level


# -- closed form at negative integer order ---------------------------------------


def test_negint_values():
    assert abs(eval_negint(1, 1, 1).value - 2 * E) < 1e-13
    assert abs(eval_negint(2, 1, 1).value - 5 * E) < 1e-13
    for lam, x in ((1.0, 0.3), (2.5, -1.0), (0.5 + 0.5j, 1j)):
        assert abs(eval_negint(0, lam, x).value - cmath.exp(x)) < 1e-13


def test_negint_matches_series():
    for p in (1, 2, 3):
        for lam in (1.0, 1.7):
            for x in (-2.0, 0.5, 3.0):
                series = eval_series(-p, lam, x, tol=1e-13).value
                closed = eval_negint(p, lam, x).value
                assert abs(series - closed) <= 1e-10 * max(1.0, abs(closed))


# -- recursion route ----------------------------------------------------------------


def test_recursion_p1():
    res = eval_via_recursion(1, 1, 1, tol=1e-11)
    assert abs(res.value - (E - 1)) < 1e-10
    assert res.method == "recursion"


def test_recursion_p2_negative_x_is_ein():
    res = eval_via_recursion(2, 1, -1, tol=1e-11)
    assert abs(res.value - ein(1.0)) < 1e-9


def test_recursion_p3_matches_series():
    res = eval_via_recursion(3, 1.5, 0.7, tol=1e-10)
    ref = eval_series(3, 1.5, 0.7, tol=1e-14).value
    assert abs(res.value - ref) < 1e-9


def test_recursion_at_x_zero():
    # e_p(0, lam) = lam^-p; the tail integrations need no x != 0
    for p in (1, 2, 3, 4):
        for lam in (0.3, 1.0, 1.7, 3.0, 0.5 + 0.5j):
            res = eval_via_recursion(p, lam, 0.0, tol=1e-10)
            err = abs(res.value - complex(lam) ** -p)
            assert err <= 1e-11 * max(1.0, abs(complex(lam) ** -p))
            assert err <= res.abs_err_estimate


def test_recursion_work_counts_grid_evaluations():
    eval_via_recursion(3, 1, 1)  # fills the rule table
    start = time.perf_counter()
    res = eval_via_recursion(3, 1, 1)
    elapsed = time.perf_counter() - start
    assert res.work <= 2000
    assert elapsed < 0.05


def test_recursion_tiny_re_lam_raises_typed_error():
    with pytest.raises(ConvergenceError, match="panels"):
        eval_via_recursion(2, 1e-3, 1)


_RECURSION_X = (-3.0, -1.2, 0.4, 1.5, 3.0, 3j, 2 - 2j, -1.5 + 1j)


@pytest.mark.parametrize("p", range(1, 5))
@pytest.mark.parametrize("lam", (0.3, 1.7, 0.5 + 0.5j, 3.0))
def test_recursion_against_mpmath(p, lam):
    tol = 1e-10
    for x in _RECURSION_X:
        res = eval_via_recursion(p, lam, x, tol=tol)
        truth = _mp_polyexp(p, lam, x)
        err = abs(res.value - truth)
        assert err <= res.abs_err_estimate, (x, err, res.abs_err_estimate)
        assert err <= tol * max(1.0, abs(truth)), (x, err)


def test_estimates_cover_rounding_level_error():
    s, lam, x = 2, 1.1151580434556896, -1.483537377268177
    truth = _mp_polyexp(s, lam, x)
    for res in (eval_via_recursion(s, lam, x), eval_hankel(s, lam, x)):
        assert abs(res.value - truth) <= res.abs_err_estimate, res


# -- Hankel -------------------------------------------------------------------------


def test_hankel_half_integer_matches_series():
    res = eval_hankel(0.5, 1, 1, tol=1e-10)
    ref = eval_series(0.5, 1, 1, tol=1e-14).value
    assert abs(res.value - ref) < 1e-8


def test_hankel_x_zero_negative_half():
    res = eval_hankel(-0.5, 1, 0, tol=1e-10)
    assert abs(res.value - 1.0) < 1e-9  # e_s(0, 1) = 1


def test_hankel_integer_log_form_matches_recursion():
    res = eval_hankel(2, 1, 1, tol=1e-10)
    ref = eval_via_recursion(2, 1, 1, tol=1e-11)
    assert abs(res.value - ref.value) < 1e-7


def test_hankel_near_integer_refused():
    with pytest.raises(ContourResolutionError):
        eval_hankel(2 + 1e-9, 1, 1)


def test_hankel_reuses_rule_table():
    eval_hankel(2.5, 1, 2.7)
    before = gauss_legendre.cache_info()
    eval_hankel(2.5, 1, 2.7)
    after = gauss_legendre.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


@pytest.mark.parametrize("x", (8.0, 10.0))
def test_hankel_large_x_ends_promptly(x):
    # the unit circle carries e^(x e^z) up to e^(x e), far above the answer
    start = time.perf_counter()
    try:
        res = eval_hankel(2.5, 1, x)
    except ContourResolutionError as exc:
        last = re.search(r"last difference ([^,]+),", str(exc))
        assert last and float(last.group(1)) > 0.0, str(exc)
    else:
        truth = _mp_polyexp(2.5, 1, x)
        assert abs(res.value - truth) <= 1e-9 * max(1.0, abs(truth))
    assert time.perf_counter() - start < 5.0


def test_hankel_stops_at_rounding_floor():
    # the difference (8.5e-7) is under the rounding floor (1.6e-6) at 512
    # nodes: no table past 512 points is built only to raise
    gauss_legendre.cache_clear()
    with pytest.raises(ContourResolutionError, match="512 ray"):
        eval_hankel(2.5, 1, 8)
    assert gauss_legendre.cache_info().currsize <= 4  # 64, 128, 256, 512


def test_contour_spec_validation():
    # the ray truncation is the contour's one setting: at least 30, and far
    # enough out that the dropped ray tails sit under the target
    T = default_contour(0.5, 1.0, 1.0, 1e-10)
    assert isinstance(T, float) and T >= 30.0
    assert _ray_tail_bound(0.5 + 0j, 1.0 + 0j, 1.0 + 0j, T) <= 0.05 * 1e-10


# -- Taylor shift and generating sum ---------------------------------------------------


def test_taylor_shift_zero_offset_exact():
    res = taylor_shift(1.5, 2.0, 0.0, 1.0, terms=1)
    ref = eval_series(1.5, 2.0, 1.0).value
    assert res.value == pytest.approx(ref, abs=1e-14)
    assert res.abs_err_estimate < 1e-12


def test_taylor_shift_shifts_lambda():
    res = taylor_shift(1.0, 2.0, 1.0, 1.0, terms=60)
    assert abs(res.value - (E - 1)) < 1e-10  # e_1(1, 1)


def test_taylor_shift_geometric_decay():
    errors = []
    target = eval_series(1.0, 1.0, 1.0, tol=1e-15).value  # e_1(1, 1-0) shifted from lam=2? no:
    # shift from lam = 2 by z = 1: target e_1(1, 1)
    for terms in (5, 10, 15, 20):
        res = taylor_shift(1.0, 2.0, 1.0, 1.0, terms=terms)
        errors.append(abs(res.value - (E - 1)))
    # ratio |z|/|lam| = 1/2: five extra terms gain ~2^-5
    assert errors[1] < errors[0] * 0.2
    assert errors[2] < errors[1] * 0.2
    assert errors[3] < errors[2] * 0.3 + 1e-15


def test_taylor_shift_divergence_guard():
    with pytest.raises(DomainError):
        taylor_shift(1.0, 1.0, 2.0, 1.0, terms=5)


def test_generating_sum_values():
    assert abs(generating_sum(1.0, 1.0, 0.0, 10) - E) < 1e-14
    got = generating_sum(2.0, 1.0, 1.0, 40)
    assert abs(got - (2 * E - 1)) < 1e-9
    got = generating_sum(1.0, 1.0, 0.5, 60)
    ref = E + 0.5 * eval_series(1.0, 0.5, 1.0, tol=1e-14).value
    assert abs(got - ref) < 1e-9


# -- asymptotics ------------------------------------------------------------------------


def test_asymptotic_lambda_order0():
    res = asymptotic_lambda(2.0, 50.0, 1.0, 0)
    assert abs(res.value - math.exp(1) * 50.0**-2.0) < res.abs_err_estimate


def test_asymptotic_lambda_within_estimate():
    ref = eval_series(2.0, 40.0, 1.0, tol=1e-15).value
    for order in range(5):
        res = asymptotic_lambda(2.0, 40.0, 1.0, order)
        assert abs(res.value - ref) <= res.abs_err_estimate, order


def test_asymptotic_lambda_monotone_improvement():
    ref = eval_series(1.0, 30.0, 2.0, tol=1e-15).value
    errs = [abs(asymptotic_lambda(1.0, 30.0, 2.0, k).value - ref) for k in range(7)]
    assert all(errs[i + 1] < errs[i] for i in range(6))


def test_asymptotic_x_leading_plus():
    lead = asymptotic_x_leading(1.0, 1.0, 20.0, +1)
    assert abs(lead - math.exp(20.0) / 20.0) < 1e-6
    ref = eval_series(1.0, 1.0, 20.0, tol=1e-13).value
    assert abs(ref / lead - 1.0) < 1e-8  # (e^x - 1)/x vs e^x/x


def test_asymptotic_x_leading_minus():
    lead = asymptotic_x_leading(1.0, 1.0, 20.0, -1)
    assert abs(lead - 1.0 / 20.0) < 1e-14
    ref = eval_series(1.0, 1.0, -20.0, tol=1e-13).value
    assert abs(ref - (1 - math.exp(-20.0)) / 20.0) < 1e-9


def test_asymptotic_x_trend_s2():
    ratios = []
    for x in (10.0, 20.0, 40.0):
        lead = asymptotic_x_leading(2.0, 1.0, x, +1)
        ref = eval_series(2.0, 1.0, x, tol=1e-13).value
        ratios.append(abs(ref / lead - 1.0))
    assert ratios[2] < ratios[1] < ratios[0]


# -- incomplete gamma, Ein ---------------------------------------------------------------


# -- route chooser ----------------------------------------------------------------


@pytest.mark.parametrize(
    "s, lam, x, method",
    [
        (1, 1, -40, "positive_integral"),
        (1.5, 0.7, -25, "positive_integral"),
        (2 + 1j, 1, -30, "positive_integral"),
        (0.3, 0.4, -15, "positive_integral"),
        (-2, 1.3, 0.7 + 0.2j, "closed_form"),
        (0.5, 1, 2, "series"),
    ],
)
def test_evaluate_regions(s, lam, x, method):
    res = evaluate(s, lam, x)
    truth = _mp_polyexp(s, lam, x)
    assert res.method == method
    err = abs(res.value - truth)
    assert err <= 1e-12 * abs(truth)
    assert err <= res.abs_err_estimate


def test_evaluate_region_boundaries():
    assert evaluate(1, 1, -10.0).method == "series"
    assert evaluate(1, 1, -10.5 + 1e-3j).method == "series"
    assert evaluate(-0.5, 1, -20.0).method == "series"
    assert evaluate(0, 1, -20.0).method == "closed_form"
    with pytest.raises(DomainError):
        evaluate(1, 1, -20.0, tol=0.0)
    with pytest.raises(DomainError):
        evaluate(1, -1, -20.0)


def test_lower_inc_gamma_large_x():
    assert abs(lower_inc_gamma(1.0, 40.0) - (1.0 - math.exp(-40.0))) < 1e-14
    mp = pytest.importorskip("mpmath")
    truth = float(mp.gammainc(2.5, 0, 30))
    assert abs(lower_inc_gamma(2.5, 30.0) - truth) <= 1e-13 * truth


def test_lower_inc_gamma_values():
    assert abs(lower_inc_gamma(1.0, 1.0) - (1 - 1 / E)) < 1e-14
    assert lower_inc_gamma(2.5, 0.0) == 0.0
    oracle, _, _, ok = tanh_sinh(lambda t: t**-0.5 * np.exp(-t), 0.0, 2.0, 1e-13)
    assert ok
    assert abs(lower_inc_gamma(0.5, 2.0) - oracle) < 1e-11


def test_inc_gamma_identity_grid():
    # x^lam e_1(-x, lam) = gamma(lam, x), checked against direct quadrature
    for x in (0.1, 1.0, 5.0):
        for lam in (0.5, 1.0, 2.5):
            oracle, _, _, ok = tanh_sinh(
                lambda t, lam=lam: t ** (lam - 1.0) * np.exp(-t), 0.0, x, 1e-13
            )
            assert ok
            assert abs(lower_inc_gamma(lam, x) - oracle) < 1e-9


def test_ein_values():
    assert ein(0) == 0
    oracle, _, _, ok = tanh_sinh(lambda t: -np.expm1(-t) / t, 0.0, 1.0, 1e-13)
    assert ok and abs(ein(1.0) - oracle) < 1e-12
    # Ein(-1) = -e_2(1) with the 25-term direct sum
    acc = 0.0
    fact = 1.0
    for n in range(25):
        if n:
            fact *= n
        acc += 1.0 / (fact * (n + 1) ** 2)
    assert abs(ein(-1.0) + acc) < 1e-12


def test_ein_is_x_e2_of_minus_x():
    for x in (-2.0, 0.5, 1.0, 3.0, 1j):
        ref = complex(x) * eval_series(2.0, 1.0, -complex(x), tol=1e-14).value
        assert abs(ein(x) - ref) < 1e-12


@pytest.mark.parametrize("z", [20.0, 100.0, 30j])
def test_ein_refuses_cancellation(z):
    with pytest.raises(ConditioningError):
        ein(z)


@pytest.mark.parametrize("z", [10.0, -30.0, 5 + 5j])
def test_ein_against_mpmath(z):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        zm = mp.mpc(z)
        truth = complex(zm * mp.hyp2f2(1, 1, 2, 2, -zm))
    assert abs(ein(z) - truth) <= 1e-12 * abs(truth)


def test_ein_overflow_flagged():
    with pytest.raises(OverflowError):
        ein(800.0)


@pytest.mark.parametrize(
    "call,x",
    [
        (lambda: ein(800.0), "800"),
        (lambda: eval_negint(1, 1, 800.0), "800"),
        (lambda: evaluate(-1, 1, 800.0), "800"),
        (lambda: eval_negint(3, 1, 705.0), "705"),  # e^705 fits, e^705 Q_3(705) does not
    ],
    ids=["ein", "eval_negint", "evaluate", "eval_negint_product"],
)
def test_closed_form_overflow_is_typed(call, x):
    with pytest.raises(ConvergenceError, match=f"binary64.*{x}"):
        call()


# -- cross-route invariants ----------------------------------------------------------------


@pytest.mark.parametrize("p", [0, 1, 2])
@pytest.mark.parametrize("lam", [1.0, 1.5])
@pytest.mark.parametrize("x", [0.5, 1.0])
def test_recurrence_derivative_consistency(p, lam, x):
    # d/dx [x^lam e_{p+1}(x, lam)] = x^(lam-1) e_p(x, lam), central differences
    h = 1e-5

    def g(t):
        return t**lam * eval_series(p + 1, lam, t, tol=1e-14).value

    deriv = (g(x + h) - g(x - h)) / (2 * h)
    rhs = x ** (lam - 1.0) * eval_series(p, lam, x, tol=1e-14).value
    assert abs(deriv - rhs) < 1e-5


@pytest.mark.parametrize("p", range(1, 7))
def test_phi_from_polyexp_route(p):
    # phi_p(x) = x e^(-x) e_{1-p}(x)
    for x in (1.0, -1.0, 2.0):
        via_series = x * math.exp(-x) * eval_series(1 - p, 1.0, x, tol=1e-14).value
        exact_val = complex(phi_poly(p)(x))
        assert abs(via_series - exact_val) <= 1e-9 * max(1.0, abs(exact_val))


def test_x_zero_all_routes():
    s, lam = -0.5, 1.3
    expect = lam ** (-s)
    assert abs(eval_series(s, lam, 0).value - expect) < 1e-13
    assert abs(eval_hankel(s, lam, 0, tol=1e-10).value - expect) < 1e-8
    assert abs(eval_negint(0, lam, 0).value - 1.0) < 1e-14
