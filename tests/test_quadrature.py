"""Quadrature engine tests against closed-form integrals."""

import math

import warnings

import numpy as np
import pytest

from polyexp import core, quadrature, transforms
from polyexp.result import QuadratureError
from polyexp.quadrature import (
    chebyshev_tail_rule,
    clenshaw_curtis,
    clenshaw_curtis_quad,
    quad_semiinfinite,
)

_EPS = 2.0**-52


def test_finite_smooth():
    val, err, n, ok = clenshaw_curtis_quad(np.exp, 0.0, 1.0, 1e-12)
    assert ok and abs(val - (math.e - 1)) < 1e-12


def test_finite_endpoint_singularity():
    # t^-0.5 sits in the product weights and e^-t is entire: the incomplete
    # gamma(1/2, 1) = sqrt(pi) erf(1)
    val, err, _, ok = clenshaw_curtis_quad(lambda t: np.exp(-t), 0.0, 1.0, 1e-12, alpha=-0.5)
    assert ok and abs(val - math.sqrt(math.pi) * math.erf(1.0)) <= err <= 1e-12


def test_finite_strong_zero_singularity():
    # t^-0.9: f = 1 is a polynomial, so the first rule is exact up to
    # rounding; the estimate holds the weights' own rounding, eps 2 G_0 each
    val, err, n, ok = clenshaw_curtis_quad(np.ones_like, 0.0, 1.0, 1e-12, alpha=-0.9)
    assert ok and n == 65 and abs(val - 10.0) <= 4 * _EPS * 10.0 and err <= 1e-12


def test_finite_complex_integrand():
    val, _, _, ok = clenshaw_curtis_quad(lambda t: np.exp(1j * t), 0.0, math.pi, 1e-12)
    assert ok and abs(val - complex(0.0, 2.0)) < 1e-11
    # a complex alpha: integral_0^1 t^(0.5+3i) dt = 1/(1.5+3i)
    val, err, _, ok = clenshaw_curtis_quad(np.ones_like, 0.0, 1.0, 1e-12, alpha=0.5 + 3j)
    assert ok and abs(val - 1.0 / (1.5 + 3j)) <= 1e-14


def test_finite_calls_f_once_per_level():
    calls = []

    def f(t):
        calls.append(t)
        return np.abs(t - 0.3) ** 0.5

    # the kink inside keeps every rule short of the target: one call on the
    # 65 points of m = 64, then one call a doubling on its m new points, up
    # to the last rule, with an endpoint factor or without
    for alpha in (0, -0.5):
        calls.clear()
        _, _, n, ok = clenshaw_curtis_quad(f, 0.0, 1.0, 1e-14, alpha)
        assert not ok and len(calls) == 1 + int(math.log2(quadrature._CC_MAX // quadrature._CC_FIRST))
        assert all(isinstance(t, np.ndarray) and t.dtype == np.float64 for t in calls)
        assert sum(t.size for t in calls) == n == quadrature._CC_MAX + 1
        assert np.array_equal(calls[0], 0.5 * (1.0 - clenshaw_curtis(64)[0]))
        for k, t in enumerate(calls[1:]):
            assert np.array_equal(t, 0.5 * (1.0 - clenshaw_curtis(128 * 2**k)[0][1::2]))


def _level_by_level(f, a, b, tol, alpha):
    """The nested rule with each rule's points evaluated afresh, judged as
    `clenshaw_curtis_quad` judges."""
    r = 0.5 * (b - a)
    scale = r * abs(b - a) ** alpha

    def rule(values, m):
        weights, moduli, floor = quadrature._product_weights(m, alpha)
        rounded = abs(scale) * floor * float(np.abs(values).sum()) if floor else 0.0
        return scale * complex(values @ weights), abs(scale) * float(np.abs(values) @ moduli), rounded

    def values(m):
        return np.asarray(f(a + r * (1.0 - clenshaw_curtis(m)[0])))

    m, first = 64, values(64)
    (prev, prev_size, _), diff = rule(first[::2], 32), abs(rule(first[::2], 32)[0] - rule(first[::4], 16)[0])
    while True:
        total, size, rounded = rule(values(m), m)
        prev_diff, diff = diff, abs(total - prev)
        noise = quadrature._NOISE * size + rounded
        if diff <= tol * max(1.0, abs(total)) and (
                diff <= noise or (abs(size - prev_size) <= 0.01 * size and diff <= 0.1 * prev_diff)):
            return total, diff + noise, m + 1, True
        if diff <= quadrature._NOISE * size + rounded or m >= quadrature._CC_MAX:
            return total, diff + noise, m + 1, False
        m, prev, prev_size = 2 * m, total, size


@pytest.mark.parametrize("f, a, b", [(np.exp, 0.0, 1.0), (lambda t: 1.0 / (1.0 + 25.0 * t * t), 0.0, 1.0),
                                     (lambda t: np.exp(1j * t), 0.0, math.pi), (np.exp, -3.0, 2.5)])
@pytest.mark.parametrize("tol, max_level", [(1e-12, 11), (1e-15, 5), (1e-6, 3)])
def test_rule_equals_level_by_level_sum(monkeypatch, f, a, b, tol, max_level):
    # level L is the rule m = 64 2^(L-3); evaluating only each rule's new
    # points changes no node, weight or sum: equal bit for bit, with and
    # without an endpoint factor
    monkeypatch.setattr(quadrature, "_CC_MAX", 64 * 2 ** (max_level - 3))
    for alpha in (0, -0.5, 0.5 + 3j):
        assert clenshaw_curtis_quad(f, a, b, tol, alpha) == _level_by_level(f, a, b, tol, alpha)


def test_one_interval_gives_numbers():
    val, err, n, ok = clenshaw_curtis_quad(np.exp, 0.0, 1.0, 1e-12, alpha=-0.5)
    assert type(val) is complex and type(err) is float and type(n) is int and type(ok) is bool
    assert clenshaw_curtis_quad(np.exp, 2.0, 2.0, alpha=-0.5) == (0.0, 0.0, 0, True)  # zero width: no nodes


def test_integrand_errors_go_into_the_estimate():
    # f returns (values, errs): err holds at least the integral of errs
    # against t^-0.5, 2e-6, and a rounding level of 16 eps |f| on top of the
    # rules' difference
    val, err, _, ok = clenshaw_curtis_quad(lambda t: (np.ones_like(t), np.full(t.shape, 1e-6)), 0.0, 1.0,
                                           1e-12, alpha=-0.5)
    assert ok and abs(val - 2.0) < 1e-14 and err >= 2e-6 * (1.0 - 1e-9)
    val, err, _, ok = clenshaw_curtis_quad(lambda t: np.full(t.shape, 1e20), 0.0, 1.0, 1e-12, alpha=-0.5)
    assert ok and abs(val - 2e20) <= err and err >= 16 * _EPS * 2e20 * (1.0 - 1e-9)


def test_non_finite_values_drop_their_errs():
    # the centre node t = 1/2 returns NaN with an infinite err: both count as 0
    def f(t):
        centre = np.abs(t - 0.5) < 1e-12
        return np.where(centre, np.nan, 1.0), np.where(centre, np.inf, 0.0)

    for alpha in (0, -0.5):
        val, err, _, _ = clenshaw_curtis_quad(f, 0.0, 1.0, 1e-12, alpha)
        assert math.isfinite(err) and math.isfinite(val.real) and val.imag == 0.0


def test_semiinfinite_is_one_clenshaw_curtis_call(monkeypatch):
    calls = []
    original = quadrature.clenshaw_curtis_quad

    def rule(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "clenshaw_curtis_quad", rule)
    res = quad_semiinfinite(lambda t: t * np.exp(-2 * t), 2.0, 1.0, 1e-11, 10.0)
    assert abs(res.value - 0.25) < 1e-10 and len(calls) == 1 and calls[0][0] == 0.0


def test_semiinfinite_head_and_tail_at_alpha(monkeypatch):
    # t^-0.5 e^-t: the product rule takes the head (0, h], h = min(1, 20/split),
    # sampling t = 0, and one interval in v = log(t/h) takes (h, T]
    calls, seen = [], []
    original = quadrature.clenshaw_curtis_quad

    def rule(*args, **kwargs):
        calls.append((args[1:3], args[4]))
        return original(*args, **kwargs)

    def f(t):
        seen.append(t.min())
        return np.exp(-t)

    monkeypatch.setattr(quadrature, "clenshaw_curtis_quad", rule)
    for split, head in ((10.0, 1.0), (40.0, 0.5)):
        calls.clear()
        res = quad_semiinfinite(f, 1.0, -0.5, 1e-11, split, alpha=-0.5)
        assert abs(res.value - math.sqrt(math.pi)) <= res.abs_err_estimate <= 1e-11
        assert len(calls) == 2 and calls[0][0] == (0.0, math.log(4.5 * split / head)) and calls[0][1] == 0
        assert calls[1] == ((0.0, head), -0.5)
    assert min(seen) == 0.0


def test_semiinfinite_head_and_interval_that_cancel(monkeypatch):
    # 1e6 t^(-0.5+5i) e^-t: the head and the interval are each ~7.6e4, their
    # sum 1e6 Gamma(0.5+5i) ~ 973; each met tol against itself, 3.6e-6 in
    # all, so both run again to tol of the sum
    mp = pytest.importorskip("mpmath")
    ends, integrate_to = [], quadrature._integrate_to

    def spied(f, split, a, T, tol, alpha=0):
        ends.append((a, T))
        return integrate_to(f, split, a, T, tol, alpha)

    monkeypatch.setattr(quadrature, "_integrate_to", spied)
    truth = 1e6 * complex(mp.gamma(0.5 + 5j))
    res = quad_semiinfinite(lambda t: 1e6 * np.exp(-t), 1.0, -0.5, 1e-10, 10.0, alpha=-0.5 + 5j)
    assert ends == [(1.0, 45.0), (0.0, 1.0)] * 2
    assert abs(res.value - truth) <= res.abs_err_estimate <= 1e-10 * abs(truth)


@pytest.mark.parametrize("integral", ("t e^-2t", "eta(0.5, 1)"))
def test_semiinfinite_evaluates_no_node_for_the_envelope(monkeypatch, integral):
    # C comes from the rule's own first call: the integrand runs once per
    # call the rule sums, on that call's nodes only
    summed_calls, f_nodes, rule_nodes = [], [], []
    values_rounding, kernel = quadrature._values_rounding, core.exp_weighted_series

    def counted_sums(out):
        summed_calls.append(1)
        return values_rounding(out)

    def counted_kernel(s, lam, z, t, tol):
        f_nodes.append(t.size)
        return kernel(s, lam, z, t, tol)

    def f(t):
        f_nodes.append(t.size)
        return t * np.exp(-2 * t)

    monkeypatch.setattr(quadrature, "_values_rounding", counted_sums)
    rule = _counted(quadrature.clenshaw_curtis_quad, rule_nodes)
    monkeypatch.setattr(quadrature, "clenshaw_curtis_quad", rule)
    monkeypatch.setattr(core, "exp_weighted_series", counted_kernel)
    if integral == "t e^-2t":
        assert abs(quad_semiinfinite(f, 2.0, 1.0, 1e-11, 10.0).value - 0.25) < 1e-10
    else:
        transforms.eta(0.5, 1.0)
    assert len(f_nodes) == len(summed_calls) >= 1 and sum(f_nodes) == sum(rule_nodes)


def _counted(rule, nodes):
    """rule, appending each call's node count to nodes."""
    def counted_rule(*args, **kwargs):
        out = rule(*args, **kwargs)
        nodes.append(out[2])
        return out

    return counted_rule


def test_semiinfinite_checks_the_envelope_near_its_end(monkeypatch):
    # the Gamma(61) density t^60 e^-t / 60!, declared as C e^-t: |f| e^t grows
    # past 4 split = 40, so the first call's C puts T at 67.5, where a fifth
    # of the mass is still to come; the integral's nodes near its end raise
    # C, and T climbs until the remainder meets tol/4
    ends = []
    integrate_to = quadrature._integrate_to

    def spied(f, split, a, T, tol, alpha=0):
        ends.append(T)
        return integrate_to(f, split, a, T, tol, alpha)

    def f(t):  # Clenshaw-Curtis samples t = 0, where log t is -inf and f is 0
        with np.errstate(divide="ignore"):
            return np.exp(60.0 * np.log(t) - t - math.lgamma(61.0))

    monkeypatch.setattr(quadrature, "_integrate_to", spied)
    res = quad_semiinfinite(f, 1.0, 0.0, 1e-10, 10.0)
    # the exponent's own rounding, ~1e-14 here, is more than 16 eps: no
    # comparison with the estimate
    assert ends[:2] == [45.0, 67.5] and ends[-1] > 100.0
    assert abs(res.value - 1.0) <= 1e-12 and res.abs_err_estimate <= 1e-10


@pytest.mark.parametrize("bad", (np.inf, np.nan))
def test_semiinfinite_names_a_non_finite_envelope(bad):
    # a non-finite sample makes C non-finite: refused at once, not after 60 hops of T
    f = lambda t: np.where(t > 20.0, bad, np.exp(-t))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(QuadratureError, match=f"envelope constant C .* is {bad}"):
            quad_semiinfinite(f, 1.0, 0.0, 1e-10, 10.0)


def test_semiinfinite_exponential():
    res = quad_semiinfinite(lambda t: np.exp(-t), 1.0, 0.0, 1e-11, 10.0)
    assert abs(res.value - 1.0) < 1e-10
    assert res.abs_err_estimate < 1e-8


def test_semiinfinite_envelope_near_the_end_of_binary64():
    # C ~ 1e306: C T^2 passes binary64 while e^-T brings the bound back
    # (T ~ 760); formed in logs, the tail point is placed, not a NaN bound.
    # The estimate is the rule's last difference, 2.3e-11 relative here,
    # within tol 1e-10 (the value itself is 3e-16 off)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = quad_semiinfinite(lambda t: 1e306 * np.exp(-t), 1.0, 2.0, 1e-10, 10.0)
    assert abs(res.value - 1e306) <= 1e-15 * 1e306
    assert abs(res.value - 1e306) <= res.abs_err_estimate <= 1e-10 * 1e306


def test_semiinfinite_t_exp():
    res = quad_semiinfinite(lambda t: t * np.exp(-2 * t), 2.0, 1.0, 1e-11, 10.0)
    assert abs(res.value - 0.25) < 1e-10


def test_semiinfinite_sqrt_singularity():
    # f is the integrand over t^alpha: t^-0.5 e^-t
    res = quad_semiinfinite(lambda t: np.exp(-t), 1.0, -0.5, 1e-11, 10.0, alpha=-0.5)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-10


def test_handle_validation():
    f = lambda t: np.exp(-t)
    with pytest.raises(ValueError):
        quad_semiinfinite(np.exp, 0.0, 0.0, 1e-10, 10.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(f, 1.0, 0.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(f, 1.0, 0.0, 1e-10, 0.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(f, -1.0, 0.0, 1e-10, 10.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(lambda t: t**-1.5, 0.0, -1.0 + 2j, 1e-10, 10.0)
    # one tail path: rate 0 (once the power-law mode) and a complex power are refused
    with pytest.raises(ValueError):
        quad_semiinfinite(f, 0.0, -2.0, 1e-10, 10.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(f, 1.0, 0.5 + 1j, 1e-10, 10.0)
    # t^alpha must be integrable at 0
    with pytest.raises(ValueError, match="Re alpha > -1"):
        quad_semiinfinite(f, 1.0, 0.0, 1e-10, 10.0, alpha=-1.0 + 2j)
    with pytest.raises(ValueError, match="Re alpha > -1"):
        clenshaw_curtis_quad(f, 0.0, 1.0, 1e-10, alpha=-1.5)


# -- memoized rule tables -----------------------------------------------------------


@pytest.mark.parametrize("m", (2, 3, 4, 5, 7, 8, 16, 31, 32, 64, 100, 127, 128, 255, 256))
def test_clenshaw_curtis_is_last_row_of_tail_rule(m):
    t, weights = clenshaw_curtis(m)
    t_ref, matrix = chebyshev_tail_rule(m)
    assert np.array_equal(t, t_ref)
    assert np.max(np.abs(weights - matrix[-1])) <= 1e-15


def test_clenshaw_curtis_large_m_integrates_polynomials():
    # m + 1 points integrate every x^k with k <= m + 1 (m even) exactly
    t, weights = clenshaw_curtis(4096)
    for k in (0, 1, 2, 10, 101, 1000, 4096, 4097):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(weights, t**k) - exact) <= 1e-15, k


@pytest.mark.parametrize("m", (64, 512, 4096))
def test_clenshaw_curtis_points_nest(m):
    # doubling m keeps every point, so a refinement reuses its values
    assert np.array_equal(clenshaw_curtis(m)[0], clenshaw_curtis(2 * m)[0][::2])


def test_chebyshev_tail_rule_integrates_polynomials():
    m = 16
    t, matrix = chebyshev_tail_rule(m)
    assert t[0] == 1.0 and t[-1] == -1.0
    for k in (0, 1, 5, m):
        exact = (1.0 - t ** (k + 1)) / (k + 1)
        assert np.max(np.abs(matrix @ t**k - exact)) < 1e-14
    # the last row is the Clenshaw-Curtis rule: positive weights summing to 2
    assert np.all(matrix[-1, :] > 0.0) and abs(matrix[-1, :].sum() - 2.0) < 1e-14


def test_rule_tables_are_read_only_and_memoized():
    tables = (*clenshaw_curtis(64), *chebyshev_tail_rule(32))
    for array in tables:
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert clenshaw_curtis(64)[1] is tables[1]
    assert chebyshev_tail_rule(32)[1] is tables[3]


@pytest.mark.parametrize("m", (16, 64, 1024))
def test_product_weights_at_alpha_zero_are_the_clenshaw_curtis_table(m):
    quadrature._product_weights.cache_clear()  # other tests clear the clenshaw_curtis tables
    weights, moduli, floor = quadrature._product_weights(m, 0)
    assert weights is clenshaw_curtis(m)[1] and moduli is weights and floor == 0.0


def _moments_80_digits(m, alpha):
    """The moments' recurrence in 80-digit arithmetic."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(80):
        a = mp.mpmathify(alpha)
        g = [2 / (a + 1)]
        g.append(g[0] * a / (a + 2))
        for n in range(2, m + 1):
            g.append(-(2 + n * (n - a - 2) * g[-1]) / ((n - 1) * (n + a + 1)))
        return np.array([complex(x) for x in g])


@pytest.mark.parametrize("alpha", (-0.99, -0.5, 0.5 + 3j, 20.0))
def test_product_moments_agree_with_80_digits(alpha):
    # the forward recurrence in binary64 up to k = 8192, the last rule's
    g, truth = quadrature._moments(8192, alpha), _moments_80_digits(8192, alpha)
    assert np.all(np.abs(g - truth) <= 1e-12 * np.abs(truth))
    # and the recurrence is the integral of ((1 + x)/2)^alpha T_k; with
    # (1 + x)/2 = v^(1/(alpha+1)) the weight leaves the integrand
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.mpmathify(alpha)
        for k in (0, 1, 2, 3, 7):
            exact = 2 / (a + 1) * mp.quad(lambda v: mp.chebyt(k, 2 * v ** (1 / (a + 1)) - 1), [0, 1])
            assert abs(g[k] - complex(exact)) <= 1e-14 * abs(g[0])


@pytest.mark.parametrize("alpha", (-0.9, -0.5, 0.5 + 3j, 20.0))
def test_product_weights_integrate_polynomials(alpha):
    # m + 1 points integrate ((1 - t)/2)^alpha times a polynomial of degree
    # <= m to rounding: here 1 and t, against their closed forms
    t = clenshaw_curtis(64)[0]
    weights, moduli, _ = quadrature._product_weights(64, alpha)
    assert np.array_equal(moduli, np.abs(weights)) and not weights.flags.writeable
    assert abs(weights.sum() - 2.0 / (alpha + 1)) <= 1e-14 * abs(2.0 / (alpha + 1))
    # integral of ((1 - t)/2)^alpha t = 2/(alpha+1) - 4/(alpha+2)
    assert abs(weights @ t - (2.0 / (alpha + 1) - 4.0 / (alpha + 2))) <= 1e-14 * abs(2.0 / (alpha + 1))


@pytest.mark.parametrize("alpha", (-0.999999, -0.999, -0.9, 0.5 + 3j))
def test_product_weights_rounding_bound(alpha):
    # as alpha nears -1 every moment nears G_0 = 2/(alpha + 1), and the small
    # interior weights carry its rounding: against ((1 - t)/2)^k, 0 at the
    # singular end, 16 eps sum |W| |f| misses the error up to 2e4-fold at
    # alpha = -0.999999, and the weights' own bound, applied to |f|, holds
    for m in (64, 256, 1024):
        t = clenshaw_curtis(m)[0]
        weights, moduli, floor = quadrature._product_weights(m, alpha)
        for k in (1, 2, 3):
            f = (0.5 * (1.0 - t)) ** k
            err = abs(weights @ f - 2.0 / (alpha + k + 1))
            assert err <= 16 * _EPS * float(moduli @ f) + floor * float(f.sum())


# -- nested Clenshaw-Curtis driver ----------------------------------------------------


def test_clenshaw_curtis_quad_evaluates_no_node_twice():
    # 1/(1 + 25 t^2) is analytic on [-1, 1] but takes doublings: the 65 points
    # of m = 64 first, then only the m new odd points of each doubled rule
    calls = []

    def f(t):
        calls.append(t.copy())
        return 1.0 / (1.0 + 25.0 * t * t)

    val, err, n, ok = clenshaw_curtis_quad(f, -1.0, 1.0, 1e-13)
    nodes = np.concatenate(calls)
    assert ok and abs(val - 0.4 * math.atan(5.0)) <= err <= 1e-12
    assert len(calls) >= 3 and [t.size for t in calls] == [65] + [64 * 2**k for k in range(len(calls) - 1)]
    assert n == nodes.size == np.unique(nodes).size and nodes.min() == -1.0 and nodes.max() == 1.0


@pytest.mark.parametrize("degree, nodes", [(32, 65), (33, 65), (64, 129)])
def test_clenshaw_curtis_quad_integrates_polynomials_exactly(degree, nodes):
    # m + 1 points integrate degree <= m (m + 1 for even m) exactly: up to
    # degree 33 the first call's m = 64 and m = 32 rules agree, degree 64
    # takes one doubling
    c = np.random.default_rng(degree).standard_normal(degree + 1)
    a, b = -1.0, 1.5
    antiderivative = np.polynomial.polynomial.polyint(c)
    exact = np.polynomial.polynomial.polyval(b, antiderivative) - np.polynomial.polynomial.polyval(a, antiderivative)
    val, err, n, ok = clenshaw_curtis_quad(lambda t: np.polynomial.polynomial.polyval(t, c), a, b, 1e-13)
    assert ok and n == nodes and abs(val - exact) <= err <= 1e-13 * abs(exact)


def test_clenshaw_curtis_quad_reports_its_numbers_when_it_does_not_converge():
    # sqrt|t| has a kink at 0: the error falls only like m^-1.5, so the
    # last rule, 8193 points, stops short of tol and says so
    f = lambda t: np.sqrt(np.abs(t))
    val, err, n, ok = clenshaw_curtis_quad(f, -1.0, 1.0, 1e-12)
    assert not ok and n == quadrature._CC_MAX + 1 and abs(val - 4.0 / 3.0) <= err
    with pytest.raises(QuadratureError, match=r"integration over \(0, 20\) did not converge: "
                       r"last estimate \S+, last difference \S+ \(target 5e-13\)"):
        quadrature._integrate_to(lambda t: np.sqrt(np.abs(t - 5.0)), 10.0, 0.0, 20.0, 1e-12)


def test_clenshaw_curtis_quad_refines_through_the_integrands_errs():
    # errs far above tol do not stop the refinement: at m = 128 the Runge
    # integrand's difference (2.9e-11) is under the noise (2e-6) but above
    # tol, and m = 256 meets tol, as it does without errs. A kernel's errs
    # bound more than its rounding, and the Laplace integrals converge
    # through them
    f = lambda t: 1.0 / (1.0 + 25.0 * t * t)
    for g in (f, lambda t: (f(t), np.full(t.shape, 1e-6))):
        val, err, n, ok = clenshaw_curtis_quad(g, -1.0, 1.0, 1e-12)
        assert ok and n == 257 and abs(val - 0.4 * math.atan(5.0)) <= 1e-15


def test_clenshaw_curtis_quad_matches_the_tanh_sinh_contract():
    # the contract the rule once shared with tanh-sinh, at alpha = 0: errs
    # and 16 eps |f| go into the estimate; a zero-width interval has no nodes
    val, err, _, ok = clenshaw_curtis_quad(lambda t: (np.exp(t), 1e-6 * (1.0 + t)), 0.0, 1.0, 1e-12)
    assert ok and abs(val - (math.e - 1)) < 1e-12 and err >= 1.5e-6 * (1.0 - 1e-9)
    val, err, _, ok = clenshaw_curtis_quad(lambda t: np.full(t.shape, 1e20), 0.0, 1.0, 1e-12)
    assert ok and abs(val - 1e20) <= 16 * _EPS * 1e20 * (1.0 - 1e-9) <= err
    assert clenshaw_curtis_quad(np.exp, 2.0, 2.0) == (0.0, 0.0, 0, True)
