"""Core evaluation routes: spec'd values, independent oracles, invariants."""

import cmath
import math
import random
import re
import time
import warnings

import numpy as np
import pytest

from polyexp.core import (
    _Overflow,
    _hankel_raw,
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
from polyexp.quadrature import clenshaw_curtis
from polyexp.result import (
    ConditioningError,
    ContourResolutionError,
    ConvergenceError,
    DomainError,
    EvalResult,
    PoleError,
    PolyexpError,
)

E = math.e


def _mp_polyexp(s, lam, x):
    """e_s(x, lam) from the defining series in mpmath at 40 digits, plus
    |x| more for the cancellation of an alternating sum (terms near e^|x|)."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40 + int(abs(x))):
        s, lam, x = mp.mpc(s), mp.mpc(lam), mp.mpc(x)
        total, term, n = mp.mpf(0), mp.mpf(1), 0
        while n <= 2 * abs(x) + 10 or abs(term) > mp.mpf(10) ** -45:
            total += term / (n + lam) ** s
            n += 1
            term *= x / n
        return complex(total)


def _mp_mellin(s, lam, x):
    """e_s(x, lam) at Re s > 0 and Re x <= -1000 from the Mellin form
    Gamma(s) e_s = int_0^inf t^(s-1) e^(-lam t) e^(x e^-t) dt in y = -x e^-t,
    turned onto the real axis: with L = log(-x),
    e_s = (-x)^-lam / Gamma(s) int_0^inf (L - log y)^(s-1) y^(lam-1) e^-y dy,
    up to terms of size e^(Re x); on (0, 1) in w = y^(Re lam), which takes
    the y^(lam-1) singularity. mpmath's quad at 20 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        s, lam, x = mp.mpc(s), mp.mpc(lam), mp.mpc(x)
        big_l, a = mp.log(-x), lam.real
        g = lambda y: (big_l - mp.log(y)) ** (s - 1) * mp.exp(-y)
        head = mp.quad(lambda w: w ** (1j * lam.imag / a) * g(w ** (1 / a)),
                       [0, 1e-16, 1e-8, 1e-4, 0.01, 0.1, 1]) / a
        tail = mp.quad(lambda y: y ** (lam - 1) * g(y), [1, 2, 4, 8, 16, 32, 64, 128, mp.inf])
        return complex((-x) ** -lam * (head + tail) / mp.gamma(s))


def _mp_far_left(s, lam, x, terms=12):
    """e_s(x, lam) at Re x < 0 and log|x| in the hundreds, any s, from the
    expansion of the Mellin form about its peak: with L = log(-x),
    e_s = (-x)^-lam L^(s-1) / Gamma(s) sum_k C(s-1, k) (-1/L)^k Gamma^(k)(lam),
    whose remainder is about e^(-Re lam L) relative; 20 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        s, lam, x = mp.mpc(s), mp.mpc(lam), mp.mpc(x)
        big_l = mp.log(-x)
        derivatives = mp.diffs(mp.gamma, lam, terms - 1)
        series = mp.fsum(mp.binomial(s - 1, k) * (-1 / big_l) ** k * d for k, d in enumerate(derivatives))
        return complex((-x) ** -lam * big_l ** (s - 1) * mp.rgamma(s) * series)


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
    "call, args",
    [(gamma_fn, (200.0,)), (gamma_fn, (np.array([1.5, 200.0]),)), (eval_hankel, (180.5, 1, 5))],
    ids=["gamma(200)", "gamma(array)", "hankel(180.5)"],
)
def test_gamma_past_binary64_is_typed(call, args):
    # Gamma(200) passes binary64, and at s = 180.5 so does the ray integral
    # int u^(s-1) e^(-u) ... du ~ Gamma(s) in Hankel's units: a typed error
    # naming z, with no numpy warning on the way and no inf or NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="overflows binary64 at z = "):
            call(*args)


@pytest.mark.parametrize("z", [-200.5, 150 + 1e6j])
def test_gamma_underflow_is_zero(z):
    # |Gamma(-200.5)| ~ 1e-376 (math.gamma gives -0.0) and |Gamma(150+1e6i)|
    # ~ e^-1.5e6 underflow binary64, where the Lanczos power t^(z+1/2) or the
    # reflected Gamma(201.5) alone would pass it: 0, with no numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gamma_fn(z) == 0
        assert np.all(gamma_fn(np.array([z, z])) == 0)


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


@pytest.mark.parametrize("z", [0.3 + 300j, -2.2 - 230j, -5.7 + 250j, 0.49 - 400j])
def test_gamma_reflection_far_from_the_real_axis(z):
    # past |Im z| ~ 225 sin(pi z) leaves binary64 while Gamma(z) does not
    # (|Gamma(0.3+300i)| ~ 1.8e-205): the quotient is formed in logs there
    mp = pytest.importorskip("mpmath")
    truth = complex(mp.gamma(mp.mpc(z)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        number, array = gamma_fn(z), gamma_fn(np.array([z, 2.5, z.conjugate()]))
    assert type(number) is complex and abs(number - truth) <= 1e-12 * abs(truth)
    assert abs(array[0] - truth) <= 1e-12 * abs(truth)
    assert abs(array[2] - truth.conjugate()) <= 1e-12 * abs(truth)


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


# x nodes for the array paths: real and complex, |x| up to 10, and 0
_ARRAY_X = np.array(
    [0.0, 0.3, -1.0, 2.5, -3.0, 6.0, -7.5, 10.0, 0.8j, 2 - 1j, -3 + 4j, 5 * cmath.exp(2.2j), -6 - 8j, 9.5j]
)


@pytest.mark.parametrize("s", [0.5, 2.3, -1.7, -3.0 + 0.0j, 1.5 + 2j, -0.5 - 1j])
@pytest.mark.parametrize("lam", [1.0, 0.4, 2 + 0.5j])
@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_series_array_matches_scalar(s, lam, tol):
    """Every node of the array pass stops at the scalar loop's term, with its
    estimate; the values differ only by the order of summation."""
    res = eval_series(s, lam, _ARRAY_X, tol)
    assert res.method == "series" and isinstance(res.work, int)
    assert res.value.shape == res.abs_err_estimate.shape == _ARRAY_X.shape
    scalar = [eval_series(s, lam, x, tol) for x in _ARRAY_X]
    assert res.work == sum(r.work for r in scalar)
    for i, (x, ref) in enumerate(zip(_ARRAY_X, scalar)):
        assert eval_series(s, lam, _ARRAY_X[i:i + 1], tol).work == ref.work
        assert res.abs_err_estimate[i] == pytest.approx(ref.abs_err_estimate, rel=1e-12, abs=0.0)
        assert abs(res.value[i] - ref.value) <= ref.abs_err_estimate


def test_series_array_blocks_carry_sums():
    """Nodes needing several blocks of terms (|x| = 300 takes ~700) next to
    nodes that stop in the first one, and more nodes than one block holds."""
    x = np.concatenate([[300.0, -150.0 + 20j, 0.5], np.linspace(-3.0, 3.0, 2000)])
    res = eval_series(1.5, 0.8, x, 1e-12)
    for i in (0, 1, 2, 500, 2002):
        ref = eval_series(1.5, 0.8, x[i], 1e-12)
        assert eval_series(1.5, 0.8, x[i:i + 1], 1e-12).work == ref.work
        assert res.abs_err_estimate[i] == pytest.approx(ref.abs_err_estimate, rel=1e-12, abs=0.0)
        assert abs(res.value[i] - ref.value) <= ref.abs_err_estimate
    assert res.work == sum(eval_series(1.5, 0.8, v, 1e-12).work for v in x)


def test_series_array_shapes_and_errors():
    empty = eval_series(1, 1, np.array([]))
    assert empty.value.shape == (0,) and empty.work == 0
    for call in (eval_series, evaluate):
        empty = call(np.array([]), np.array([]), np.array([]))
        assert empty.value.shape == (0,) and empty.work == 0
    with pytest.raises(DomainError):
        eval_series(1, 1, np.ones((2, 2)))
    with pytest.raises(ConvergenceError, match="10000 terms") as info:
        eval_series(1, 1, np.array([1.0, 30000.0]))
    assert not isinstance(info.value, OverflowError)  # as the scalar loop: never past 2|x|
    with pytest.raises(ValueError):
        EvalResult(np.zeros(2), np.array([1e-16, -1.0]), 0, "series")


@pytest.mark.parametrize(
    "call",
    [
        lambda: eval_series(-1.5, 1, 700 + 100j),
        lambda: evaluate(-1.5, 1, 700 + 100j),
        lambda: eval_series(-1.5, 1, np.array([1.0, 700 + 100j])),
        lambda: evaluate(-1.5, 1, np.array([700 + 100j, 2.0])),
        lambda: eval_series(-300, 1, 1.0),  # (n+1)^300 passes binary64 at n = 10
        lambda: eval_series(-300, 1, np.array([1.0, 0.5])),
        lambda: eval_series(-300, 1, 1e-13),  # the terms fit, the tail bound's 11^300 does not
        lambda: eval_series(-300, 1, np.array([1e-13])),
    ],
    ids=["series", "evaluate", "series_array", "evaluate_array", "coefficient", "coefficient_array",
         "tail", "tail_array"],
)
def test_series_overflow_is_typed(call):
    """|term| past binary64 while its parts fit, a coefficient past it, or
    the tail bound past it, raised a bare OverflowError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="overflow binary64"):
            call()


def _outcome(call, *args):
    try:
        res = call(*args)
    except ConvergenceError as exc:
        return type(exc), str(exc)
    return res.value, res.abs_err_estimate, res.work


def test_series_stop_found_before_summing_matches_per_term_loop(per_term_sum):
    """The scalar loop finds its last term before it sums: bit for bit the
    value, estimate, work and error type of asking after every term, on
    seeded random points and at the term cap and the overflows."""

    def per_term_series(s, lam, x, tol):
        value, err, last = per_term_sum(complex(s), complex(lam), complex(x), tol)
        return EvalResult(value, err, last + 1, "series")

    rng = random.Random(2026)
    points = [(0.5 + 460j, 1.0, 2.0, 1e-10), (-300, 1.0, 1.0, 1e-10), (-300, 1.0, 1e-13, 1e-10),
              (-1.5, 1.0, 700 + 100j, 1e-10), (2.0, 1.0, 0.0, 1e-10), (1.0, 1.0, 30000.0, 1e-10)]
    for _ in range(1000):
        size = 10 ** rng.uniform(-3, 2.8)
        x = cmath.rect(size, rng.uniform(-math.pi, math.pi)) if rng.random() < 0.6 else rng.choice((-size, size))
        s = complex(rng.uniform(-60, 40), rng.uniform(-40, 40) if rng.random() < 0.6 else 0.0)
        lam = complex(10 ** rng.uniform(-3, 2), rng.uniform(-10, 10) if rng.random() < 0.4 else 0.0)
        points.append((s, lam, x, 10 ** rng.uniform(-17, -3)))
    kinds = set()
    for args in points:
        out = _outcome(eval_series, *args)
        assert out == _outcome(per_term_series, *args), args
        kinds.add(out[0] if isinstance(out[0], type) else EvalResult)
    assert kinds == {EvalResult, _Overflow, ConvergenceError}


def test_evaluate_array_mixes_routes():
    x = np.array([-20.0, 15j, 2.0, -0.5 + 1j])
    res = evaluate(0.5, 1, x)
    assert res.method == ("hankel", "hankel", "series", "series")
    scalar = [evaluate(0.5, 1, v) for v in x]
    assert [r.method for r in scalar] == list(res.method)
    for i in (0, 1):  # the same scalar call
        assert res.value[i] == scalar[i].value
        assert res.abs_err_estimate[i] == scalar[i].abs_err_estimate
    for i in (2, 3):
        assert abs(res.value[i] - scalar[i].value) <= scalar[i].abs_err_estimate
    assert res.work == sum(r.work for r in scalar)

    closed = evaluate(-2, 1.3, x)
    assert closed.method == "closed_form"
    assert list(closed.value) == [evaluate(-2, 1.3, v).value for v in x]
    series_only = evaluate(0.5, 1, np.array([0.5, -2.0]))
    assert series_only.method == "series"
    assert series_only.work == eval_series(0.5, 1, np.array([0.5, -2.0])).work


def test_evaluate_array_one_call_per_route():
    # several Hankel and series nodes: one array series and a contour per
    # Hankel node
    x = np.array([-20.0, 15j, 2.0, -1e6, -0.5 + 1j, -10.5, -40j, -1e12, 3.0 - 1j])
    res = evaluate(0.5 + 0.5j, 1.3, x)
    scalar = [evaluate(0.5 + 0.5j, 1.3, v) for v in x]
    assert list(res.method) == [r.method for r in scalar]
    assert sorted(set(res.method)) == ["hankel", "series"]
    for i, r in enumerate(scalar):
        assert abs(res.value[i] - r.value) <= r.abs_err_estimate
    assert res.work == sum(r.work for r in scalar)
    closed = evaluate(-3, 0.7, x)
    assert list(closed.value) == [evaluate(-3, 0.7, v).value for v in x]
    assert closed.work == sum(evaluate(-3, 0.7, v).work for v in x)


def _assert_nodes_match(res, scalar, one_node):
    """An array call against per-node scalar calls: each node's work (from
    a one-node array call), its estimate to 1e-12 relative, and its value
    within its estimate."""
    assert res.value.shape == res.abs_err_estimate.shape == (len(scalar),)
    assert res.work == sum(r.work for r in scalar)
    for i, ref in enumerate(scalar):
        assert one_node(i).work == ref.work
        assert res.abs_err_estimate[i] == pytest.approx(ref.abs_err_estimate, rel=1e-12, abs=0.0)
        assert abs(res.value[i] - ref.value) <= ref.abs_err_estimate


# (s, lam, x) per node: closed form at s = -2 and 0, Hankel at x = -12,
# -20 and 15j, and series nodes with repeated pairs
_PER_NODE = [
    (-2.0, 1.3, 0.7), (0.0, 0.5, -2.0), (1.5, 0.8, -12.0), (1.5, 0.8, -20.0), (0.5, 1.0, 15j),
    (1.5, 0.8, 2.0), (-1.7, 2.5, -0.5 + 1j), (1.5, 0.8, 3.0), (2.3, 0.4, 0.0), (-2.0, 1.3, -12.0),
]


@pytest.mark.parametrize("complex_orders", [False, True], ids=["real", "complex"])
def test_evaluate_takes_s_and_lam_per_node(complex_orders):
    nodes = [(s + 0.3j, lam - 0.2j, x) if complex_orders and s not in (-2.0, 0.0) else (s, lam, x)
             for s, lam, x in _PER_NODE]
    s, lam, x = (np.array(v) for v in zip(*nodes))
    res = evaluate(s, lam, x, tol=1e-12)
    scalar = [evaluate(*node, tol=1e-12) for node in nodes]
    assert list(res.method) == [r.method for r in scalar]
    assert {"closed_form", "hankel", "series"} <= set(res.method)
    _assert_nodes_match(res, scalar, lambda i: evaluate(s[i:i + 1], lam[i:i + 1], x[i:i + 1], tol=1e-12))
    # a number pair is the one-pair case of the same call
    same = evaluate(np.full(x.size, 1.5), np.full(x.size, 0.8), x, tol=1e-12)
    assert np.array_equal(same.value, evaluate(1.5, 0.8, x, tol=1e-12).value)


@pytest.mark.parametrize("s, lam", [(np.array([0.5, 2.3, -1.7, -3.0, 1.5 + 2j, -0.5 - 1j]), 0.4),
                                    (1.5, np.array([1.0, 0.4, 2 + 0.5j, 1.0, 0.4, 7.0]))])
def test_eval_series_takes_s_and_lam_per_node(s, lam):
    x = np.array([0.3, -7.5, 2 - 1j, 9.5j, -3.0, 6.0])
    s_node, lam_node = np.broadcast_to(s, x.shape), np.broadcast_to(lam, x.shape)
    res = eval_series(s, lam, x, 1e-12)
    scalar = [eval_series(a, b, v, 1e-12) for a, b, v in zip(s_node, lam_node, x)]
    _assert_nodes_match(res, scalar, lambda i: eval_series(s_node[i:i + 1], lam_node[i:i + 1], x[i:i + 1], 1e-12))


@pytest.mark.parametrize("call", [evaluate, eval_series])
def test_per_node_arguments_are_checked(call):
    x = np.array([0.5, 1.0, 2.0])
    with pytest.raises(DomainError, match="shape"):
        call(np.array([1.0, 2.0]), 1.0, x)
    with pytest.raises(DomainError, match="shape"):
        call(np.array([1.0]), 1.0, 0.5)
    with pytest.raises(DomainError, match="Re lam must be positive"):
        call(1.5, np.array([1.0, -0.5, 2.0]), x)


@pytest.mark.parametrize("call", [evaluate, eval_series])
@pytest.mark.parametrize(
    "args",
    [(math.nan, 1.0, 0.5), (1.0, complex(1, math.inf), 0.5), (1.0, 1.0, math.inf), (1.0, 1.0, -math.inf),
     (1.0, 1.0, np.array([0.5, math.nan])), (np.array([1.0, math.nan]), 1.0, np.array([0.5, 1.0])),
     (1.0, np.array([1.0, math.inf]), np.array([0.5, 1.0]))],
)
def test_non_finite_arguments_raise_domain_error(call, args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="finite"):
            call(*args)


@pytest.mark.parametrize("s, lam", [(0.5, 1.0), (2.5, 0.3), (1 + 2j, 1.0), (0.7, 1.5 - 0.8j)])
def test_positive_integral_takes_an_array_of_x(s, lam):
    # evaluate gives each x < -10 its own contour, whose rays are the
    # positive integral (1/Gamma(s)) int u^(s-1) e^(-lam u) e^(x e^-u) du,
    # so an array of one pair's x is exactly its number calls: value,
    # estimate and work
    x = -np.array([10.5, 11.0, 40.0, 1e3, 1e6, 1e9, 1e12])
    res = evaluate(s, lam, x, 1e-12)
    single = [evaluate(s, lam, v, 1e-12) for v in x]
    assert res.method == "hankel" and {r.method for r in single} == {"hankel"}
    assert np.array_equal(res.value, [r.value for r in single])
    assert np.array_equal(res.abs_err_estimate, [r.abs_err_estimate for r in single])
    assert res.work == sum(r.work for r in single)
    one = eval_hankel(s, lam, -40.0, 1e-12)
    assert type(one.value) is complex and type(one.abs_err_estimate) is float and one.value == single[2].value


def test_evaluate_small_order_and_lam_at_negative_x():
    # s = 0.01, Re lam = 0.05: the peak of the rays sits past u = 5 and
    # decays slowly; the t^(s-1) singularity of the Mellin form at t = 0
    # does not reach the contour
    x = np.array([-1e6, -10.5, -12.0])
    res = evaluate(0.01, 0.05, x, 1e-12)
    assert res.method == "hankel"
    for value, estimate, v, truth in zip(res.value, res.abs_err_estimate, x,
                                         (_mp_mellin(0.01, 0.05, -1e6), _mp_polyexp(0.01, 0.05, -10.5),
                                          _mp_polyexp(0.01, 0.05, -12.0))):
        err = abs(value - truth)
        assert err <= estimate and err <= 1e-12 * abs(truth), (v, err, estimate)


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


@pytest.mark.parametrize("x", (-2000.0, 2000.0, -1e4, 1e4, 2000j))
def test_recursion_far_out_gives_a_value_or_a_typed_error(x):
    # the cut-off's spill term expm1(|x| e^-T) used to overflow at |x| >= ~1930
    mp = pytest.importorskip("mpmath")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            res = eval_via_recursion(2, 1, x)
        except PolyexpError:
            assert x.real >= 0.0  # real x < 0 at real lam needs no spill term
            return
    with mp.workdps(30):  # e_2(x, 1) = -Ein(-x)/x, Ein(w) = gamma + log w + E1(w)
        w = -mp.mpc(x)
        truth = complex(-(mp.euler + mp.log(w) + mp.e1(w)) / mp.mpc(x))
    assert abs(res.value - truth) <= res.abs_err_estimate


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


def test_hankel_near_integer_orders():
    # the rays carry 1/Gamma(s) directly and the circle z^(m-1) expm1(eps Log z):
    # nothing cancels within 1e-9 of an integer, where Gamma(1-s) z^(s-1) did
    for s in (2 + 1e-9, 2 - 1e-9, 1 - 1e-10):
        for x in (1.0, -2.5, 2.8, 15j):
            res = eval_hankel(s, 1, x, tol=1e-12)
            truth = _mp_polyexp(s, 1, x)
            err = abs(res.value - truth)
            assert err <= res.abs_err_estimate and err <= 1e-12 * abs(truth), (s, x, err)


def test_hankel_reuses_rule_table():
    eval_hankel(2.5, 1, 2.7)
    before = clenshaw_curtis.cache_info()
    eval_hankel(2.5, 1, 2.7)
    after = clenshaw_curtis.cache_info()
    assert after.misses == before.misses
    assert after.hits > before.hits


def test_hankel_doubling_evaluates_new_points_only():
    # 64 -> 128 -> 256 Chebyshev points: the 65 + 64 + 128 distinct points
    # of each piece, none evaluated twice
    calls = []

    def counted(piece):
        def values(*points):
            calls.append(points[0].size)
            return piece(*points)
        return values

    rays, circle = _contour_pieces(2.7)
    T = default_contour(2.5, 1, 2.7, 1e-9)
    work = _hankel_raw(counted(rays), 1.0, T, counted(circle), 1.0, 1e-9)[2]
    assert calls == [65, 65, 64, 64, 128, 128]
    assert work == sum(calls) == 2 * (256 + 1)


def test_hankel_noise_counts_each_piece():
    # rays and circle are summed per node, each piece's 16 eps |value| charged
    # as errs: the noise is 16 eps times the integral of |rays| + |circle|
    # over [-1, 1], 16 eps (3 + 1) 2, not of |rays + circle|, 16 eps (3 - 1) 2
    rays = lambda w: np.full(w.shape, 3.0)  # the ray piece is 3 log(T / lo) / 2 = 3
    circle = lambda z, log_z: -2.0 / z  # the circle piece z circle / 2 is -1
    value, estimate, work = _hankel_raw(rays, 1.0, math.exp(2.0), circle, 1.0, 1e-12)
    noise = 16 * 2.0**-52 * (3.0 + 1.0) * 2.0
    assert abs(value - 4.0) <= 1e-14 and work == 130  # 65 points a piece
    assert noise * (1.0 - 1e-9) <= estimate <= 1.05 * noise  # the rules' difference is at rounding


def test_hankel_takes_the_rules_own_points():
    # at x = 1000i the rays cancel 300-fold: at the rule's points t_j the
    # m = 4096 difference (8.0e-11) meets tol |I| (8.6e-11); at the quadrature's
    # points -1 + (1 - t_j) the rounding of 1 - t_j, magnified 1000-fold,
    # leaves 1.6e-10 and then 1.0e-10, and the refinement stalls at m = 8192
    res = evaluate(1.5, 1, 1000j, tol=1e-12)
    assert res.work == 2 * (4096 + 1) and abs(res.value - _mp_polyexp(1.5, 1, 1000j)) <= res.abs_err_estimate


def _contour_pieces(x):
    """The rays and the unit circle of e_2.5(x, 1) without the factor
    Gamma(1 - s): sin(pi s) / pi = 1 / pi on the rays, in w = log u."""
    rays = lambda w: np.exp(2.5 * w - np.exp(w) + x * np.exp(-np.exp(w))) / math.pi
    circle = lambda z, log_z: np.exp(1.5 * log_z + z + x * np.exp(z))
    return rays, circle


@pytest.mark.parametrize("x", (8.0, 10.0))
def test_hankel_large_x_ends_promptly(x):
    # the circle of radius 2/|x| keeps e^(x e^z) within e^(+-2) of e^x
    start = time.perf_counter()
    res = eval_hankel(2.5, 1, x)
    assert time.perf_counter() - start < 1.0
    truth = _mp_polyexp(2.5, 1, x)
    assert abs(res.value - truth) <= 1e-9 * abs(truth)
    assert abs(res.value - truth) <= res.abs_err_estimate
    assert res.work <= 514


def test_hankel_stops_at_rounding_floor():
    # on the unit circle e^(8 e^z) reaches e^(8 e): at m = 512 the difference
    # (3.5e-7) is under the rounding floor 16 eps |f| (1.6e-6), so no rule
    # past 512 points is built only to raise
    clenshaw_curtis.cache_clear()
    T = default_contour(2.5, 1, 8, 1e-9)
    rays, circle = _contour_pieces(8.0)
    with pytest.raises(ContourResolutionError, match="m = 512 ") as info:
        _hankel_raw(rays, 1.0, T, circle, 1.0, 1e-9)
    estimate = re.search(r"error estimate ([^ ]+) ", str(info.value))
    assert float(estimate.group(1)) > 1e-9
    assert clenshaw_curtis.cache_info().currsize <= 6  # 16 and 32 (for the first call) to 512


@pytest.mark.parametrize("s, lam", ((0.5, 1.0), (2, 1.0), (1.5, 2.5)))
def test_hankel_resolves_narrow_ray_peak(s, lam):
    # at x = -1e12 the ray integrand is a peak of width ~1/27 in log u at
    # u ~ 27.6; the rays start at u ~ 20 and the peak sets the scale, so
    # tol holds relative to the value (~1e-12 lam^lam)
    res = eval_hankel(s, lam, -1e12, tol=1e-12)
    truth = _mp_mellin(s, lam, -1e12)
    assert abs(res.value - truth) <= res.abs_err_estimate
    assert abs(res.value - truth) <= 1e-12 * abs(truth)


def test_hankel_differences_must_shrink():
    # at x = 3000 e^(0.6 pi i) the rays oscillate across the peak, and the
    # levels of the contour, which is scaled by the value (~1e-12), agree
    # only from m = 2048 on; a finer run (m = 4096) is the reference
    x = 3000.0 * cmath.exp(0.6j * math.pi)
    res = eval_hankel(-3.7, 2.5, x, tol=1e-12)
    ref = eval_hankel(-3.7, 2.5, x, tol=1e-14)
    assert ref.work > res.work
    assert abs(res.value - ref.value) <= res.abs_err_estimate
    assert abs(res.value - ref.value) <= 1e-12 * abs(ref.value)


@pytest.mark.parametrize("s, x", ((0.5, 1000 + 150j),))
def test_hankel_overflow_is_typed(s, x):
    # Re x = 1000 puts the value, ~e^1000, past binary64: a typed error,
    # not a numpy warning and a NaN
    with pytest.raises(ConvergenceError, match="overflows binary64"):
        eval_hankel(s, 1, x)
    with pytest.raises(ConvergenceError):
        evaluate(s, 1, x)


@pytest.mark.parametrize("s", (0.5 + 250j, 0.5 + 300j, 2 + 480j, 0.5 + 480j, -0.5 + 480j))
def test_evaluate_large_imaginary_order_is_typed(s):
    # 1/Gamma(s) ~ e^(pi |Im s| / 2) and sin(pi s) pass binary64 here: a
    # typed error, not a raw OverflowError or ZeroDivisionError, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PolyexpError):
            evaluate(s, 1, -50)


def test_hankel_large_real_orders_meet_their_estimates():
    # 1/Gamma(s) down to ~e^-700 at s = 170.2: the prefactor, the rays' front
    # and the scaled integral meet in one exponential; each call meets its
    # estimate or raises a typed error, with no numpy warning
    misses = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for s in (10.5, 30.5, 60.5, 90.3, 120.5, 150.7, 170.2):
            for x in (0.5, 2.0, -3.0, 8.0):
                for lam in (0.5, 1.0, 2.5):
                    try:
                        res = eval_hankel(s, lam, x, tol=1e-12)
                    except PolyexpError:
                        continue
                    if not (err := abs(res.value - _mp_polyexp(s, lam, x))) <= res.abs_err_estimate:
                        misses.append(f"{(s, lam, x)}: {err:.3g} > {res.abs_err_estimate:.3g}")
    assert not misses, "\n".join(misses)
    res, truth = eval_hankel(170.2, 2.5, 2.0, tol=1e-12), _mp_polyexp(170.2, 2.5, 2.0)  # ~1.86e-68, not 0
    assert abs(res.value - truth) <= res.abs_err_estimate <= 1e-12 * abs(truth)


_ORACLE_CASES = {
    # |x| <= 72: the defining series in mpmath, Re s <= 0 and next to integers included
    "series": [(s, lam, x) for x in (-10.5, -30.0, -12 + 8j, 25 * cmath.exp(0.75j * math.pi), 15j, 5 + 20j, 40 + 60j)
               for s in (-2.5, -0.5 + 1j, 0.3, 1 - 1e-10, 2 + 1e-9) for lam in (0.3, 2.5 - 0.5j)],
    "mellin": [(0.01, 0.05, -1e6), (1 + 1e-9, 0.3, -1e12), (2 - 1e-9, 7.0, -1e9), (2.5, 10.0, -1e12),
               (1 + 1j, 1.5 - 0.8j, -1e9), (1.5, 2.5, -1e3), (0.5, 1.0, 1e6 * cmath.exp(0.8j * math.pi)),
               (2.5, 0.3, 1e6 * cmath.exp(0.8j * math.pi)), (0.3, 2 + 1j, 1e9 * cmath.exp(0.9j * math.pi)),
               (3.0, 1.0, 1e12 * cmath.exp(0.7j * math.pi))],
    "far_left": [(-1.5, 1.0, -1e200), (-8.5, 1.0, -1e200), (0.5, 1.0, -1e200),
                 (-3.7 + 1j, 1.0, 1e150 * cmath.exp(0.8j * math.pi)),
                 (-0.5, 1.5 - 0.8j, 1e200 * cmath.exp(0.7j * math.pi))],
}


@pytest.mark.parametrize("oracle", sorted(_ORACLE_CASES))
def test_evaluate_hankel_region_meets_tol(oracle):
    # |x| > 10, |x| - Re x > 10: the contour meets tol relative to the
    # value, estimate included, at any s and from x = -10.5 to -1e200
    truth_of = {"series": _mp_polyexp, "mellin": _mp_mellin, "far_left": _mp_far_left}[oracle]
    for s, lam, x in _ORACLE_CASES[oracle]:
        res = evaluate(s, lam, x)
        truth = truth_of(s, lam, x)
        err = abs(res.value - truth)
        assert res.method == "hankel"
        assert err <= res.abs_err_estimate <= 1e-12 * abs(truth), (s, lam, x, err, res.abs_err_estimate)


def test_hankel_no_refusal_at_large_x():
    # x = R e^(i pi theta) from the real axis to arg x = 0.6 pi: the rays
    # start next to their peak, where they used to span ~2 log R of log u
    for big_r in (1e6, 1e9, 1e12):
        for theta in (0.6, 0.7, 0.8, 0.9, 1.0):
            x = big_r * cmath.exp(1j * math.pi * theta)
            for s in (-3.7, -1.5, -0.5, 0.5, 1, 1 + 1e-9, 2.5, 1 + 1j):
                for lam in (0.3, 1.0, 2.5, 1.5 - 0.8j, 7.0):
                    res = eval_hankel(s, lam, x, tol=1e-12)
                    assert math.isfinite(res.abs_err_estimate) and res.work <= 2 * 2049


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


def test_taylor_shift_and_generating_sum_make_one_series_call(monkeypatch):
    # one array eval_series call, one order s + m (or p) per node
    import polyexp.core as core

    calls = []
    series = core.eval_series
    monkeypatch.setattr(core, "eval_series", lambda s, lam, x, tol: calls.append(np.size(x)) or series(s, lam, x, tol))
    shift = taylor_shift(1.0, 2.0, 1.0, 1.0, terms=30)
    total = generating_sum(2.0, 1.0, 1.0, 40)
    assert calls == [30, 39]
    assert abs(shift.value - (E - 1)) <= shift.abs_err_estimate and type(shift.abs_err_estimate) is float
    assert shift.work == sum(eval_series(1.0 + m, 2.0, 1.0, tol=1e-13).work for m in range(30))
    assert abs(total - (2 * E - 1)) < 1e-9 and generating_sum(2.0, 1.0, 1.0, 1) == cmath.exp(1.0)


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


def test_asymptotic_x_leading_minus_is_one_exponent():
    # Gamma(200) alone passes binary64 while the term Gamma(1) / Gamma(200)
    # (log 20)^199 / 20 ~ 1e-279 fits; complex and negative orders too
    mp = pytest.importorskip("mpmath")
    for s, lam in ((200.0, 1.0), (2.5 + 3j, 0.7), (-1.5, 2.0)):
        with mp.workdps(30):
            truth = complex(mp.gamma(lam) * mp.rgamma(s) * mp.log(20) ** (s - 1) * mp.mpf(20) ** -lam)
        assert abs(asymptotic_x_leading(s, lam, 20.0, -1) - truth) <= 1e-12 * abs(truth)
    assert asymptotic_x_leading(-3.0, 1.0, 20.0, -1) == 0


def test_asymptotic_x_leading_typed_failures():
    with pytest.raises(DomainError, match="real x"):
        asymptotic_x_leading(1.0, 1.0, 20.0 + 1.0j, -1)
    with pytest.raises(ConvergenceError, match="overflows binary64") as info:
        asymptotic_x_leading(1.5, 1.0, 800.0, +1)
    assert isinstance(info.value, OverflowError)  # as eval_negint's typed overflow


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
        (1, 1, -40, "hankel"),
        (1.5, 0.7, -25, "hankel"),
        (2 + 1j, 1, -30, "hankel"),
        (0.3, 0.4, -15, "hankel"),
        (0.5, 1.5 - 0.8j, -10.5, "hankel"),
        (2.5, 0.3, -60, "hankel"),
        (1 + 2j, 1, -200, "hankel"),
        (0.7, 2 + 1j, -200, "hankel"),
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
    assert evaluate(-0.5, 1, -10.0).method == "series"
    assert evaluate(1, 1, -10.5 + 1e-3j).method == "hankel"
    assert evaluate(-0.5, 1, -20.0).method == "hankel"
    assert evaluate(0, 1, -20.0).method == "closed_form"
    # past |x| = 10 the cancellation e^(|x| - Re x) decides
    assert evaluate(0.5, 1, 11.0).method == "series"
    assert evaluate(0.5, 1, 11.0 * cmath.exp(1.4j)).method == "series"  # |x| - Re x = 9.2
    assert evaluate(0.5, 1, 11.0j).method == "hankel"
    with pytest.raises(DomainError):
        evaluate(1, 1, -20.0, tol=0.0)
    with pytest.raises(DomainError):
        evaluate(1, -1, -20.0)


# evaluate's Hankel region: |x| > 10, |x| - Re x > 10, off the closed form and
# the positive integral; the series returns cancelled values there
_HANKEL_REGION = (
    (-0.5, 1, -40),
    (0.5, 1, -30 + 1j),
    (-3.7, 2, -100),
    (-1.5 + 1j, 0.7, -60),
    (2.5, 1, -30 + 20j),
    (-2.5, 1, -25),
    (1.5 + 2j, 1, 25j),
)


@pytest.mark.parametrize("s, lam, x", _HANKEL_REGION)
def test_evaluate_hankel_region_against_mpmath(s, lam, x):
    res = evaluate(s, lam, x)
    truth = _mp_polyexp(s, lam, x)
    assert res.method == "hankel"
    err = abs(res.value - truth)
    assert err <= res.abs_err_estimate
    assert err <= 1e-12 * max(1.0, abs(truth))


@pytest.mark.parametrize(
    "s, lam, x", _HANKEL_REGION + ((2.5, 1, 8), (2.5, 1, 10), (0.5, 1, 30), (3, 1, 15), (0.3 + 2j, 0.7, 20))
)
def test_hankel_large_x_against_mpmath(s, lam, x):
    # at x > 0 a unit circle would carry e^(x e^z) up to e^(x e), far above
    # the answer
    res = eval_hankel(s, lam, x)
    truth = _mp_polyexp(s, lam, x)
    err = abs(res.value - truth)
    assert err <= res.abs_err_estimate
    assert err <= 1e-9 * max(1.0, abs(truth))


def test_lower_inc_gamma_large_x():
    assert abs(lower_inc_gamma(1.0, 40.0) - (1.0 - math.exp(-40.0))) < 1e-14
    mp = pytest.importorskip("mpmath")
    truth = float(mp.gammainc(2.5, 0, 30))
    assert abs(lower_inc_gamma(2.5, 30.0) - truth) <= 1e-13 * truth


def test_lower_inc_gamma_values():
    assert abs(lower_inc_gamma(1.0, 1.0) - (1 - 1 / E)) < 1e-14
    assert lower_inc_gamma(2.5, 0.0) == 0.0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):  # at 15 digits mpmath's rule leaves 1e-9 of the t^-0.5 corner
        oracle = float(mp.quad(lambda t: t**-0.5 * mp.exp(-t), [0, 2]))
    assert abs(lower_inc_gamma(0.5, 2.0) - oracle) < 1e-11


def test_inc_gamma_identity_grid():
    # x^lam e_1(-x, lam) = gamma(lam, x), checked against direct quadrature
    mp = pytest.importorskip("mpmath")
    for x in (0.1, 1.0, 5.0):
        for lam in (0.5, 1.0, 2.5):
            with mp.workdps(30):
                oracle = float(mp.quad(lambda t: t ** (lam - 1.0) * mp.exp(-t), [0, x]))
            assert abs(lower_inc_gamma(lam, x) - oracle) < 1e-9


def test_ein_values():
    assert ein(0) == 0
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        oracle = float(mp.quad(lambda t: -mp.expm1(-t) / t, [0, 1]))
    assert abs(ein(1.0) - oracle) < 1e-12
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
