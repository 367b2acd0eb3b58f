"""h-series family: closed forms, route agreement, Borel probes, asymptotics."""

import cmath
import math
import random
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from polyexp import core, series, transforms
from polyexp.exact import phi_poly
from polyexp.result import ConditioningError, ConvergenceError, DomainError
from polyexp.series import (
    HSeriesParams,
    borel_probe,
    h1_closed,
    h_asymptotic_lambda,
    h_direct,
    h_neg_alt_eval,
    h_neg_eval,
    h_neg_poly_forms,
    h_quadrature,
)

E = math.e


def brute_h(s, lam, w, x, n_terms=30):
    acc = 0.0 + 0.0j
    fact = 1.0
    prefix = 0.0 + 0.0j
    wpow = 1.0 + 0.0j
    for n in range(1, n_terms + 1):
        prefix += wpow * (lam + n - 1) ** -complex(s)
        wpow *= w
        fact *= n
        acc += complex(x) ** n / fact * prefix
    return acc


# -- direct route -------------------------------------------------------------


def test_h_direct_empty():
    res = h_direct(HSeriesParams(1, 1, 1, 0))
    assert res.value == 0 and res.work == 0


def test_h_direct_harmonic_generating_function():
    res = h_direct(HSeriesParams(1, 1, 1, 1), tol=1e-13)
    assert abs(res.value - brute_h(1, 1, 1, 1, 30)) < 1e-12


def test_h_direct_spec_value_27e4():
    # (1/4) e (1 + 8 + 14 + 4) = 27e/4
    res = h_direct(HSeriesParams(-3, 1, 1, 1), tol=1e-13)
    assert abs(res.value - 27.0 * E / 4.0) < 1e-12


def _h_direct_numbers(params, tol):
    res = h_direct(params, tol)
    return res.value, res.abs_err_estimate, res.work


def _outcome(call, *args):
    """repr of what call returns, or the type of what it raises."""
    try:
        return repr(call(*args))
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def test_h_direct_matches_a_stop_test_after_every_term(per_term_sum):
    # h_direct finds its last term before it sums: value, estimate, work
    # and error type stay those of asking the stop rule after every term
    rng = random.Random(23)
    points = [(-1.5, 1, 1, 700 + 100j), (2, 1, 1, 800.0), (-40, 0.5, 1, 30.0), (1, 1, 1, 0.0)]
    for _ in range(150):
        s = complex(rng.uniform(-8, 8), rng.choice((0.0, rng.uniform(-10, 10))))
        lam = complex(rng.uniform(0.05, 5), rng.choice((0.0, rng.uniform(-2, 2))))
        w = rng.choice((1, -1, 0.5, cmath.rect(rng.uniform(0, 1), rng.uniform(-3, 3))))
        x = complex(rng.uniform(-60, 60), rng.choice((0.0, rng.uniform(-40, 40))))
        points.append((s, lam, w, x))
    kinds = set()
    for point in points:
        params = HSeriesParams(*point)
        for tol in (1e-8, 1e-12):
            ours = _outcome(_h_direct_numbers, params, tol)
            assert ours == _outcome(per_term_sum, params.s, params.lam, params.x, tol, params.w), (point, tol)
            kinds.add(ours if isinstance(ours, type) else str)
    assert kinds == {str, core._Overflow}  # values and typed overflows both met


_W0_X = np.array([3 + 1j, -4.0, 0.5, 12j, 20.0, -7 + 2j, 0.0])


@pytest.mark.parametrize("s, lam", [(1.5, 0.8), (-2.0, 1.3), (0.5 + 2j, 2 - 1j)])
def test_h_direct_at_w0_is_lam_power_times_expm1(s, lam):
    """At w = 0 every P_n with n >= 1 is lam^-s, so h_s = lam^-s (e^x - 1):
    within the estimate on numbers and on one array, real and complex x."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        truth = np.array([complex(mp.power(mp.mpc(lam), -mp.mpc(s)) * mp.expm1(mp.mpc(x))) for x in _W0_X])
    res = h_direct(HSeriesParams(s, lam, 0, _W0_X))
    assert (np.abs(res.value - truth) <= res.abs_err_estimate).all()
    for x, ref in zip(_W0_X, truth):
        one = h_direct(HSeriesParams(s, lam, 0, x))
        assert abs(one.value - ref) <= one.abs_err_estimate, x


def test_h_direct_params_validated():
    with pytest.raises(DomainError):
        HSeriesParams(1, -1, 1, 1)
    with pytest.raises(DomainError):
        HSeriesParams(1, 1, 1.5, 1)


@pytest.mark.parametrize("s", [1.0, 2.0, -2.0])
@pytest.mark.parametrize("lam", [1.0, 1.5])
@pytest.mark.parametrize("w", [1.0, -1.0, 0.5])
@pytest.mark.parametrize("x", [0.5, 1.0, 2.0])
def test_h_route_agreement(s, lam, w, x):
    a = h_direct(HSeriesParams(s, lam, w, x), tol=1e-12)
    b = h_quadrature(HSeriesParams(s, lam, w, x), tol=1e-10)
    assert abs(a.value - b.value) < 1e-8


def test_h_quadrature_empty():
    assert h_quadrature(HSeriesParams(2, 1, 1, 0)).value == 0


def test_h_quadrature_complex_segment():
    params = HSeriesParams(2.0, 1.0, 0.5, 1.0 + 0.5j)
    a = h_direct(params, tol=1e-13)
    b = h_quadrature(params, tol=1e-10)
    assert abs(a.value - b.value) < 1e-8


@pytest.mark.parametrize("w", [1.0, -1.0])
def test_h_quadrature_refuses_overflowing_weight(w):
    # e^((|x| - x) u) reaches e^800 at x = -400: refused before integrating
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match="-400"):
            h_quadrature(HSeriesParams(1.5, 0.7, w, -400.0))


@pytest.mark.parametrize("x", [705.0, 800.0])
def test_h_quadrature_refuses_an_overflowing_prefactor(x):
    # x e^x passes binary64: a typed error, not a sum of non-finite values counted as 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="x e\\^x overflows binary64"):
            h_quadrature(HSeriesParams(1.5, 0.7, 1.0, x))


def test_h_quadrature_work_counts_kernel_terms(monkeypatch):
    nodes, terms = [], []
    rule, kernel = series.clenshaw_curtis_quad, core.exp_weighted_series

    def counted_rule(*args, **kwargs):
        out = rule(*args, **kwargs)
        nodes.append(out[2])
        return out

    def counted_kernel(*args):
        out = kernel(*args)
        terms.append(out[2])
        return out

    monkeypatch.setattr(series, "clenshaw_curtis_quad", counted_rule)
    monkeypatch.setattr(core, "exp_weighted_series", counted_kernel)
    res = h_quadrature(HSeriesParams(1.5, 0.7, -1.0, 20.0), tol=1e-10)
    assert res.work == sum(nodes) + sum(terms) and sum(terms) > 10 * sum(nodes)


def _h_mpmath(mp, s, lam, w, x):
    """sum_n x^n/n! P_n at 30 digits, P_n = sum_{j<n} w^j (j+lam)^-s."""
    with mp.workdps(30):
        s, lam, w, x = (mp.mpmathify(v) for v in (s, lam, w, x))
        acc = prefix = mp.mpf(0)
        xterm = mp.mpf(1)
        for n in range(80):
            acc += xterm * prefix
            prefix += w**n * (lam + n) ** (-s)
            xterm *= x / (n + 1)
        return complex(acc)


@pytest.mark.parametrize("x", [-2.0, -0.5, 2.0, 1 + 0.5j, 2j])
@pytest.mark.parametrize("w", [1.0, -1.0, 0.5j])
@pytest.mark.parametrize("s,lam", [(1.5, 0.7), (-1.5, 1.3)])
def test_h_quadrature_error_within_estimate(s, lam, w, x):
    mp = pytest.importorskip("mpmath")
    res = h_quadrature(HSeriesParams(s, lam, w, x), tol=1e-10)
    assert abs(res.value - _h_mpmath(mp, s, lam, w, x)) <= res.abs_err_estimate


# -- closed forms ---------------------------------------------------------------


def test_h1_closed_at_w1_is_ein_form():
    got = h1_closed(1.0, 1.0)
    assert abs(got - E * core.ein(1.0)) < 1e-14
    ref = h_direct(HSeriesParams(1, 1, 1, 1), tol=1e-13)
    assert abs(got - ref.value) < 1e-10


def test_h1_closed_at_zero():
    assert h1_closed(0.5, 0.0) == 0


@pytest.mark.parametrize("w", [1.0, -1.0, 0.5, 0.5j])
@pytest.mark.parametrize("x", [0.5, 1.0])
def test_h1_closed_matches_direct(w, x):
    got = h1_closed(w, x)
    ref = h_direct(HSeriesParams(1.0, 1.0, w, x), tol=1e-13)
    assert abs(got - ref.value) < 1e-9


def test_h1_closed_rejects_zero_w():
    with pytest.raises(DomainError):
        h1_closed(0.0, 1.0)


def test_h_neg_eval_values():
    # g_3(1) = 27/4 exactly at the polynomial level
    from polyexp.exact import h_neg_closed_poly

    assert h_neg_closed_poly(3)(Fraction(1)) == Fraction(27, 4)
    assert abs(h_neg_eval(3, 1.0) - 27.0 * E / 4.0) < 1e-12
    assert abs(h_neg_eval(0, 1.0) - E) < 1e-13  # sum n x^n/n! = x e^x at x=1
    assert abs(h_neg_eval(2, 2.0) - brute_h(-2, 1, 1, 2.0, 35)) < 1e-10


@pytest.mark.parametrize("p", range(0, 11))
def test_h_neg_two_assemblies_coincide(p):
    direct, via_phi = h_neg_poly_forms(p)
    assert direct == via_phi


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("x", [0.5, 1.0])
def test_h_neg_alt_eval_matches_series(p, x):
    got = h_neg_alt_eval(p, x)
    ref = brute_h(-p, 1.0, -1.0, x, 30)
    assert abs(got.value - ref) < 1e-9


def test_h_neg_alt_eval_at_zero():
    assert abs(h_neg_alt_eval(2, 0.0).value) < 1e-15


def test_h_neg_alt_eval_p0_refused():
    with pytest.raises(DomainError):
        h_neg_alt_eval(0, 1.0)
    # p = 0 belongs to h_direct: sum x^n/n! (1-1+1-...) has Borel value
    res = h_direct(HSeriesParams(0, 1, -1, 1.0), tol=1e-12)
    assert abs(res.value - brute_h(0, 1, -1, 1.0, 30)) < 1e-11


# -- Borel probes ------------------------------------------------------------------


def test_borel_zeta2_trend():
    pts = borel_probe(2.0, 1.0, 1.0, [10.0, 20.0, 40.0])
    errs = [abs(p.scaled_value - p.target) for p in pts]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.05
    assert abs(pts[0].target - math.pi**2 / 6) < 1e-8


def test_borel_eta_half_trend():
    pts = borel_probe(0.5, 1.0, -1.0, [10.0, 20.0, 40.0])
    errs = [abs(p.scaled_value - p.target) for p in pts]
    assert errs[0] > errs[1] > errs[2]


def test_borel_lerch_target():
    pts = borel_probe(2.0, 1.0, 0.5, [5.0, 10.0])
    ref = transforms.lerch_phi(0.5, 2.0, 1.0, tol=1e-10).value
    assert abs(pts[0].target - ref) < 1e-12
    assert abs(pts[1].scaled_value - ref) < abs(pts[0].scaled_value - ref)


@pytest.mark.parametrize("s, lam", [(2.5, 1.5), (0.5 + 1j, 0.7 - 0.4j)])
def test_borel_at_w0_tends_to_lam_power(s, lam):
    """At w = 0, e^(-x) h_s = lam^-s (1 - e^(-x)) closes in on its target lam^-s."""
    limit = complex(lam) ** -complex(s)
    pts = borel_probe(s, lam, 0.0, [2.0, 5.0, 10.0, 40.0])
    errs = [abs(p.scaled_value - limit) for p in pts]
    assert errs[0] > errs[1] > errs[2] and errs[3] < 1e-14 * abs(limit)
    for p in pts:
        assert abs(p.target - limit) < 1e-12 * abs(limit)
        assert abs(p.scaled_value - limit * -math.expm1(-p.x)) < 1e-14 * abs(limit)


def test_borel_domain_guards():
    with pytest.raises(DomainError):
        borel_probe(0.5, 1.0, 1.0, [10.0])  # w = 1 needs Re s > 1
    with pytest.raises(DomainError):
        borel_probe(2.0, 1.0, cmath.exp(0.3j), [10.0])  # |w| = 1 off axis
    with pytest.raises(DomainError):
        borel_probe(2.0, 1.0, 1.0, [10.0, 800.0])  # overflow cap
    with pytest.raises(DomainError):
        borel_probe(2.0, 1.0, 1.0, [20.0, 10.0])  # not ascending


@pytest.mark.parametrize(
    "s,lam,w",
    [(2, 1, 1), (0.5, 1, -1), (2, 1, 0.5), (-1.5, 0.7, -1), (1 + 1j, 1.3, 0.6j)],
)
def test_borel_probe_matches_mpmath_poisson_sum(s, lam, w):
    # sum_n x^n e^-x / n! P_n at 40 digits; at s = -1.5, w = -1 the prefixes
    # reach ~1e4 around a value of -0.03, so rounding in P_n sets the floor
    mp = pytest.importorskip("mpmath")
    grid = [10.0, 40.0, 200.0, 700.0]
    with mp.workdps(40):
        prefix, wpow = [mp.mpc(0)], mp.mpc(1)
        for j in range(int(grid[-1] + 40 * math.sqrt(grid[-1]))):
            prefix.append(prefix[-1] + wpow * mp.power(mp.mpc(lam) + j, -mp.mpc(s)))
            wpow *= w
        for point in borel_probe(s, lam, w, grid):
            x = mp.mpf(point.x)
            hi = int(point.x + 40 * math.sqrt(point.x))
            truth = complex(mp.fsum(
                mp.exp(n * mp.log(x) - x - mp.loggamma(n + 1)) * prefix[n] for n in range(1, hi)
            ))
            bound = 1e-10 if s == -1.5 else 5e-13 * max(1.0, abs(truth))
            assert abs(point.scaled_value - truth) <= bound, (point.x, point.scaled_value, truth)


# -- error estimates against mpmath ---------------------------------------------------


def _mp_series_pair(s, lam, w, x):
    """(e_s(w x, lam), h_s(x, lam, w)) from the defining sums at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s, lam, w, x = mp.mpc(s), mp.mpc(lam), mp.mpc(w), mp.mpc(x)
        e_sum, h_sum, prefix, lead, wpow, n = 0, 0, 0, mp.mpc(1), mp.mpc(1), 0
        while True:
            c = mp.power(n + lam, -s)
            e_term, h_term = lead * wpow * c, lead * prefix  # prefix is P_n
            e_sum, h_sum = e_sum + e_term, h_sum + h_term
            prefix += wpow * c
            if n > 2 * abs(x) + 10 and max(abs(e_term), abs(h_term)) < mp.mpf(10) ** -30:
                return complex(e_sum), complex(h_sum)
            n += 1
            wpow *= w
            lead *= x / n


@pytest.mark.parametrize("s", [0.5, 2, -1.5, 1 + 2j])
@pytest.mark.parametrize("lam", [1, 0.3 + 0.5j])
@pytest.mark.parametrize("w", [1, -1, 0.5j])
def test_series_estimates_cover_errors(s, lam, w):
    # the grid holds eval_series(-1.5, 1, 25) and h_direct(-1.5, 1, 1, 25),
    # where the drift of x^n/n! over ~100 terms exceeds 2 eps sum |terms|;
    # at x = 25..30 the terms reach e^30 ~ 1e13
    for x in (-25, -5, 5, 15, 20, 25, 30, 20j):
        e_truth, h_truth = _mp_series_pair(s, lam, w, x)
        res = core.eval_series(s, lam, w * x)
        assert abs(res.value - e_truth) <= res.abs_err_estimate, ("e", x, res, e_truth)
        res = h_direct(HSeriesParams(s, lam, w, x))
        assert abs(res.value - h_truth) <= res.abs_err_estimate, ("h", x, res, h_truth)


@pytest.mark.parametrize("s", [-2, -0.5, 0.5, 2, 2.5 + 0.5j, 1 + 3j])
@pytest.mark.parametrize("lam", [1.0, 0.3, 0.5 + 0.5j])
@pytest.mark.parametrize("w", [1, -1, 0.5j])
def test_h_tail_bound_majorizes_true_tail(s, lam, w):
    """h_direct's tail bound, series_tail_bound plus |P_(n+1)| times its
    value at s = 0, dominates the true tail wherever the stop rule may
    apply it."""
    mp = pytest.importorskip("mpmath")
    s_, lam_ = complex(s), complex(lam)
    with mp.workdps(30):
        prefix = [mp.mpc(0)]
        for j in range(80):
            prefix.append(prefix[-1] + mp.mpc(w) ** j * mp.power(mp.mpc(lam_) + j, -mp.mpc(s_)))
        for x in (-3.0, 1.0, 3.0, 2j, 6.0):
            terms = [mp.mpc(x) ** k / mp.factorial(k) * prefix[k] for k in range(80)]
            start = int(2 * abs(x))
            for n in range(start, start + 12):
                ratio = abs(x) / (n + 1)
                if s_.real < 0:
                    ratio *= (1.0 + 1.0 / (n + lam_.real)) ** (-s_.real)
                if ratio > 0.5:
                    continue
                tail = abs(mp.fsum(terms[n + 1:]))
                bound = core._tail_bound(s_, lam_, complex(x), n, float(abs(prefix[n + 1])))
                assert tail <= bound, (x, n, tail, bound)


@pytest.mark.parametrize(
    "call",
    [
        lambda: core.eval_series(1, 1, 800.0),
        lambda: core.eval_series(0.5, 1, -745.0),
        lambda: h_direct(HSeriesParams(2, 1, 1, 800.0)),
    ],
    ids=["e_1(800)", "e_0.5(-745)", "h_2(800)"],
)
def test_series_overflow_is_typed_and_prompt(call):
    # the terms pass binary64; a NaN sum or a run to the term cap would hide it
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match="overflow binary64 at x"):
        call()
    assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize(
    "x",
    [700 + 100j, np.array([0.5, 700 + 100j])],
    ids=["number", "array"],
)
def test_h_direct_overflow_of_modulus_is_typed(x):
    """|term| past binary64 while its parts fit raised a bare OverflowError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="overflow binary64 at x"):
            h_direct(HSeriesParams(-1.5, 1, 1, x))


# x nodes for the array path: real and complex, |x| up to 10, and 0
_ARRAY_X = np.array([0.0, 0.4, -1.0, 2.5, -3.0, 6.5, -8.0, 10.0, 1.5j, 2 - 1j, -3 + 4j, -6 - 8j, 9.5j])


@pytest.mark.parametrize("w", [1.0, -1.0, 0.5, 0.6 + 0.3j])
@pytest.mark.parametrize("s, lam", [(0.5, 1.0), (2.3, 0.4), (-1.7, 1.0), (-3.0, 2.0), (1.5 + 2j, 1.0), (-0.5 - 1j, 2 + 0.5j)])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_h_direct_array_matches_scalar(w, s, lam, tol):
    """Every node of the array pass stops at the scalar loop's term, with its
    estimate; the values differ only by the order of summation."""
    res = h_direct(HSeriesParams(s, lam, w, _ARRAY_X), tol)
    assert res.method == "h_series" and isinstance(res.work, int)
    scalar = [h_direct(HSeriesParams(s, lam, w, x), tol) for x in _ARRAY_X]
    assert res.work == sum(r.work for r in scalar)
    for i, ref in enumerate(scalar):
        assert h_direct(HSeriesParams(s, lam, w, _ARRAY_X[i:i + 1]), tol).work == ref.work
        assert res.abs_err_estimate[i] == pytest.approx(ref.abs_err_estimate, rel=1e-12, abs=0.0)
        assert abs(res.value[i] - ref.value) <= ref.abs_err_estimate


@pytest.mark.parametrize("w", [1.0, -1.0, 0.5, 0.6 + 0.3j])
def test_h_direct_takes_s_and_lam_per_node(w):
    """One pass over nodes with their own (s, lam), pairs repeated and
    complex, against per-node scalar calls: work, estimate and value."""
    s = np.array([0.5, 2.3, -1.7, 0.5, 1.5 + 2j, -3.0, -0.5 - 1j, 2.3, 0.5])
    lam = np.array([1.0, 0.4, 1.0, 1.0, 1.0, 2.0, 2 + 0.5j, 0.4, 3.0])
    x = np.array([0.4, -1.0, 2.5, -8.0, 2 - 1j, 6.5, -3 + 4j, 9.5j, 0.0])
    res = h_direct(HSeriesParams(s, lam, w, x), 1e-12)
    scalar = [h_direct(HSeriesParams(a, b, w, v), 1e-12) for a, b, v in zip(s, lam, x)]
    assert res.work == sum(r.work for r in scalar)
    for i, ref in enumerate(scalar):
        assert h_direct(HSeriesParams(s[i:i + 1], lam[i:i + 1], w, x[i:i + 1]), 1e-12).work == ref.work
        assert res.abs_err_estimate[i] == pytest.approx(ref.abs_err_estimate, rel=1e-12, abs=0.0)
        assert abs(res.value[i] - ref.value) <= ref.abs_err_estimate


@pytest.mark.parametrize(
    "s, lam, w, x, match",
    [
        (np.array([1.0, 2.0]), 1.0, 0.5, np.array([0.5, 1.0, 2.0]), "shape"),
        (1.0, np.array([1.0, -0.5]), 0.5, np.array([0.5, 1.0]), "Re lam must be positive"),
        (math.nan, 1.0, 0.5, 1.0, "finite"),
        (1.0, 1.0, 0.5, math.inf, "finite"),
        (1.0, 1.0, math.nan, 1.0, "finite"),
        (np.array([1.0, math.nan]), 1.0, 0.5, np.array([0.5, 1.0]), "finite"),
        (1.0, 1.0, 0.5, np.array([0.5, -math.inf]), "finite"),
    ],
)
def test_h_params_reject_bad_arguments(s, lam, w, x, match):
    with pytest.raises(DomainError, match=match):
        h_direct(HSeriesParams(s, lam, w, x))


def test_h_params_convert_numbers_and_arrays():
    number = HSeriesParams(1, 2, 0.5, 3)
    assert all(type(v) is complex for v in (number.s, number.lam, number.w, number.x))
    array = HSeriesParams(1, 2, 0.5, np.array([1.0, -2.0]))
    assert array.x.dtype == complex and list(array.x) == [1.0, -2.0]


# -- ODE relation -----------------------------------------------------------------


@pytest.mark.parametrize(
    "s,lam,w,x",
    [
        (1.0, 1.0, 1.0, 0.5),
        (2.0, 1.5, -1.0, 1.0),
        (0.5, 1.0, 0.5, 0.7),
        (-2.0, 1.0, 1.0, 1.2),
        (2.0, 1.0, 1.0, 2.0),
        (1.0, 2.0, -1.0, 0.3),
    ],
)
def test_h_ode_relation(s, lam, w, x):
    # d/dx h - h = e_s(x w, lam)
    h = 1e-5
    up = h_direct(HSeriesParams(s, lam, w, x + h), tol=1e-13).value
    dn = h_direct(HSeriesParams(s, lam, w, x - h), tol=1e-13).value
    mid = h_direct(HSeriesParams(s, lam, w, x), tol=1e-13).value
    lhs = (up - dn) / (2 * h) - mid
    rhs = core.eval_series(s, lam, w * x, tol=1e-13).value
    assert abs(lhs - rhs) < 1e-5


# -- asymptotics --------------------------------------------------------------------


def test_h_asymptotic_order0():
    res = h_asymptotic_lambda(2.0, 50.0, 1.0, 0)
    assert abs(res.value - E * 1.0 * 50.0**-2.0) <= res.abs_err_estimate + 1e-15


def test_h_asymptotic_within_estimate():
    ref = h_direct(HSeriesParams(2.0, 40.0, 1.0, 1.0), tol=1e-14).value
    for order in range(4):
        res = h_asymptotic_lambda(2.0, 40.0, 1.0, order)
        assert abs(res.value - ref) <= res.abs_err_estimate, order


def test_h_asymptotic_improves_with_order():
    ref = h_direct(HSeriesParams(1.0, 25.0, 1.0, 0.5), tol=1e-14).value
    errs = [abs(h_asymptotic_lambda(1.0, 25.0, 0.5, k).value - ref) for k in range(6)]
    assert all(errs[i + 1] < errs[i] for i in range(5))


# -- cross-module: Mellin representation of Gamma(s) h_s ------------------------------


@pytest.mark.parametrize("s,lam,x", [(2.0, 1.0, 1.0), (3.0, 2.0, -1.0)])
def test_h_mellin_representation_cross_route(s, lam, x):
    res = transforms.h_mellin_representation(s, lam, x, tol=1e-10)
    ref = h_direct(HSeriesParams(s, lam, 1.0, x), tol=1e-13)
    expect = core.gamma_fn(s) * ref.value
    assert abs(res.value - expect) < 1e-8
