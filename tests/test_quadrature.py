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
    tanh_sinh,
)

_EPS = 2.0**-52


def test_finite_smooth():
    val, err, n, ok = tanh_sinh(np.exp, 0.0, 1.0, 1e-12)
    assert ok and abs(val - (math.e - 1)) < 1e-12


def test_finite_endpoint_singularity():
    val, _, _, ok = tanh_sinh(lambda t: t**-0.5, 0.0, 1.0, 1e-12)
    assert ok and abs(val - 2.0) < 1e-11


def test_finite_log_singularity():
    val, _, _, ok = tanh_sinh(np.log, 0.0, 1.0, 1e-12)
    assert ok and abs(val + 1.0) < 1e-11


def test_finite_strong_zero_singularity():
    # t^(alpha-1) with alpha = 0.1; node offsets from 0 are exact, so the
    # rule digs far into the singular corner
    val, _, _, ok = tanh_sinh(lambda t: t**-0.9, 0.0, 1.0, 1e-12)
    assert ok and abs(val - 10.0) < 1e-9


def test_finite_complex_integrand():
    val, _, _, ok = tanh_sinh(lambda t: np.exp(1j * t), 0.0, math.pi, 1e-12)
    assert ok and abs(val - complex(0.0, 2.0)) < 1e-11


def _interior(level, a, b):
    """The nodes and weights of [a, b] that `tanh_sinh` hands f at this level."""
    offset, weight, near_b = quadrature._level_nodes(level)
    t = np.where(near_b, b, a) + 0.5 * (b - a) * offset
    inside = (t > a) & (t < b)
    return t[inside], weight[inside]


def test_finite_calls_f_once_per_level():
    calls = []

    def f(t):
        calls.append(t)
        return np.abs(t - 0.3) ** 0.5

    # the kink inside keeps levels 3..6 short of the target; level 3 never
    # stops the rule, so one call takes levels 3 and 4, then one call a level
    _, _, n, ok = tanh_sinh(f, 0.0, 1.0, 1e-14, max_level=6)
    assert not ok
    assert len(calls) == 3
    assert all(isinstance(t, np.ndarray) and t.dtype == np.float64 for t in calls)
    assert sum(t.size for t in calls) == n
    levels = [_interior(level, 0.0, 1.0)[0] for level in (3, 4, 5, 6)]
    assert np.array_equal(calls[0], np.concatenate(levels[:2]))
    assert all(np.array_equal(t, nodes) for t, nodes in zip(calls[1:], levels[2:]))


def _level_by_level(f, a, b, tol, max_level):
    """The rule with one call of f per level, summed as `tanh_sinh` sums."""
    r = 0.5 * (b - a)
    current, noise, diff, nevals = 0j, 0.0, math.inf, 0
    for level in range(quadrature._MIN_LEVEL, max_level + 1):
        t, w = _interior(level, a, b)
        vals = np.asarray(f(t), dtype=complex)
        nevals += t.size
        total = r * complex(np.add.reduce(vals * w))
        spread = abs(r) * float(np.add.reduce(quadrature._NOISE * np.abs(vals) * w))
        if level == quadrature._MIN_LEVEL:
            current, noise = total, spread
            continue
        new, noise = 0.5 * current + total, 0.5 * noise + spread
        diff, current = abs(new - current), new
        if diff <= tol * max(1.0, abs(new)):
            return new, diff + noise, nevals, True
    return current, diff + noise, nevals, False


@pytest.mark.parametrize("f, a, b", [(np.exp, 0.0, 1.0), (lambda t: t**-0.5, 0.0, 1.0),
                                     (lambda t: np.exp(1j * t), 0.0, math.pi), (np.exp, -3.0, 2.5)])
@pytest.mark.parametrize("tol, max_level", [(1e-12, 11), (1e-15, 5), (1e-6, 3)])
def test_rule_equals_level_by_level_sum(f, a, b, tol, max_level):
    # sharing the first call changes no node, weight or sum: equal bit for bit
    assert tanh_sinh(f, a, b, tol, max_level) == _level_by_level(f, a, b, tol, max_level)


def test_one_interval_gives_numbers():
    val, err, n, ok = tanh_sinh(np.exp, 0.0, 1.0, 1e-12)
    assert type(val) is complex and type(err) is float and type(n) is int and type(ok) is bool
    assert tanh_sinh(np.exp, 2.0, 2.0) == (0.0, 0.0, 0, True)  # zero width: no nodes


def test_nodes_rounding_onto_an_endpoint_are_left_out():
    # near 100 the nodes' offsets from a fall under half an ulp of 100, so
    # they round onto a, where (t - 100)^-0.9 is infinite: f never sees them
    seen = []

    def f(t):
        seen.append(t)
        return (t - 100.0) ** -0.9

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val, _, n, _ = tanh_sinh(f, 100.0, 101.0, 1e-12)
    # the 10 (1.4e-14)^0.1 ~ 0.4 of the value within an ulp of 100 is lost
    assert 9.0 < val.real < 10.0
    t = np.concatenate(seen)
    assert t.size == n and t.min() > 100.0 and t.max() < 101.0


def test_integrand_errors_go_into_the_estimate():
    # f returns (values, errs): err holds at least the integral of errs, 1.5e-6,
    # and a rounding level of 16 eps |f| on top of the level difference
    val, err, _, ok = tanh_sinh(lambda t: (np.exp(t), 1e-6 * (1.0 + t)), 0.0, 1.0, 1e-12)
    assert ok and abs(val - (math.e - 1)) < 1e-12 and err >= 1.5e-6 * (1.0 - 1e-9)
    val, err, _, ok = tanh_sinh(lambda t: np.full(t.shape, 1e20), 0.0, 1.0, 1e-12)
    assert ok and val == 1e20 and err >= 16 * _EPS * 1e20 * (1.0 - 1e-9)


def test_non_finite_values_drop_their_errs():
    # the centre node t = 1/2 returns NaN with an infinite err: both count as 0
    f = lambda t: (np.where(t == 0.5, np.nan, 1.0), np.where(t == 0.5, np.inf, 0.0))
    val, err, _, _ = tanh_sinh(f, 0.0, 1.0, 1e-12, max_level=5)
    assert math.isfinite(err) and math.isfinite(val.real) and val.imag == 0.0


def test_semiinfinite_is_one_tanh_sinh_call(monkeypatch):
    calls = []
    original = quadrature.tanh_sinh

    def rule(*args, **kwargs):
        calls.append(args[1:3])
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "tanh_sinh", rule)
    res = quad_semiinfinite(lambda t: t * np.exp(-2 * t), 2.0, 1.0, 1e-11, 10.0)
    assert abs(res.value - 0.25) < 1e-10 and len(calls) == 1 and calls[0][0] == 0.0


@pytest.mark.parametrize("integral", ("t e^-2t", "eta(0.5, 1)"))
def test_semiinfinite_evaluates_no_node_for_the_envelope(monkeypatch, integral):
    # C comes from the rule's own first call: the integrand runs once per
    # call the rule sums (tanh-sinh for t e^-2t, Clenshaw-Curtis for eta),
    # on that call's nodes only
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
    for name in ("tanh_sinh", "clenshaw_curtis_quad"):
        monkeypatch.setattr(quadrature, name, _counted(getattr(quadrature, name), rule_nodes))
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

    def spied(f, split, T, tol, analytic):
        ends.append(T)
        return integrate_to(f, split, T, tol, analytic)

    monkeypatch.setattr(quadrature, "_integrate_to", spied)
    res = quad_semiinfinite(lambda t: np.exp(60.0 * np.log(t) - t - math.lgamma(61.0)), 1.0, 0.0, 1e-10, 10.0)
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
    # (T ~ 760); formed in logs, the tail point is placed, not a NaN bound
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = quad_semiinfinite(lambda t: 1e306 * np.exp(-t), 1.0, 2.0, 1e-10, 10.0)
    assert abs(res.value - 1e306) <= res.abs_err_estimate <= 1e-12 * 1e306


def test_semiinfinite_t_exp():
    res = quad_semiinfinite(lambda t: t * np.exp(-2 * t), 2.0, 1.0, 1e-11, 10.0)
    assert abs(res.value - 0.25) < 1e-10


def test_semiinfinite_sqrt_singularity():
    res = quad_semiinfinite(lambda t: t**-0.5 * np.exp(-t), 1.0, -0.5, 1e-11, 10.0)
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
        quadrature._integrate_to(lambda t: np.sqrt(np.abs(t - 5.0)), 10.0, 20.0, 1e-12, analytic=True)


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
    # errs and 16 eps |f| go into the estimate; a zero-width interval has no nodes
    val, err, _, ok = clenshaw_curtis_quad(lambda t: (np.exp(t), 1e-6 * (1.0 + t)), 0.0, 1.0, 1e-12)
    assert ok and abs(val - (math.e - 1)) < 1e-12 and err >= 1.5e-6 * (1.0 - 1e-9)
    val, err, _, ok = clenshaw_curtis_quad(lambda t: np.full(t.shape, 1e20), 0.0, 1.0, 1e-12)
    assert ok and abs(val - 1e20) <= 16 * _EPS * 1e20 * (1.0 - 1e-9) <= err
    assert clenshaw_curtis_quad(np.exp, 2.0, 2.0) == (0.0, 0.0, 0, True)
