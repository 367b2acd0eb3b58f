"""Transform-layer tests: Lerch/Hurwitz/eta/zeta and Mellin identities."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest

from polyexp import core, quadrature, transforms
from polyexp.exact import euler_poly
from polyexp.result import ConditioningError, DomainError, PoleError, QuadratureError

PI2_6 = math.pi**2 / 6.0


# -- lerch ---------------------------------------------------------------------


def test_lerch_at_zero():
    res = transforms.lerch_phi(0.0, 2.5, 1.7)
    assert abs(res.value - 1.7**-2.5) < 1e-12


def test_lerch_half_matches_direct_series():
    res = transforms.lerch_phi(0.5, 2.0, 1.0, tol=1e-10)
    oracle = sum(0.5**n / (n + 1.0) ** 2 for n in range(60))
    assert abs(res.value - oracle) < 1e-9


def test_lerch_at_one_is_zeta2():
    res = transforms.lerch_phi(1.0, 2.0, 1.0, tol=1e-9)
    assert abs(res.value - PI2_6) < 1e-8


def test_lerch_within_rounding_of_one_is_hurwitz():
    # e^(2 pi i) = 1 - 2.4e-16j takes the power-law tail branch of z = 1
    res = transforms.lerch_phi(cmath.exp(2j * math.pi), 2.5, 1)
    assert abs(res.value - transforms.hurwitz_zeta(2.5, 1).value) <= 1e-10


def test_lerch_scaling_matches_hurwitz():
    for s in (2.0, 3.5):
        for lam in (1.0, 1.7):
            a = transforms.lerch_phi(1.0, s, lam, tol=1e-9)
            b = transforms.hurwitz_zeta(s, lam, tol=1e-9)
            assert abs(a.value - b.value) <= a.abs_err_estimate + b.abs_err_estimate + 1e-10


def test_lerch_domain():
    with pytest.raises(DomainError):
        transforms.lerch_phi(1.0, 0.5, 1.0)  # |x| = 1 needs Re s > 1
    with pytest.raises(DomainError):
        transforms.lerch_phi(1.2, 3.0, 1.0)


def test_lerch_complex_inside_disk():
    x = 0.3 + 0.4j
    res = transforms.lerch_phi(x, 1.5, 1.0, tol=1e-10)
    oracle = transforms.lerch_series(x, 1.5, 1.0, tol=1e-13)
    assert abs(res.value - oracle) < 1e-9


# -- hurwitz -------------------------------------------------------------------


def test_hurwitz_zeta2():
    res = transforms.hurwitz_zeta(2.0, 1.0, tol=1e-10)
    assert abs(res.value - PI2_6) < 1e-9


def test_hurwitz_shifted():
    res = transforms.hurwitz_zeta(2.0, 2.0, tol=1e-10)
    assert abs(res.value - (PI2_6 - 1.0)) < 1e-9


def test_hurwitz_s35_direct_series_oracle():
    s, lam = 3.5, 1.5
    n_terms = 200_000
    acc = sum((n + lam) ** -s for n in range(n_terms))
    # Euler-Maclaurin tail: integral + half endpoint
    acc += (n_terms + lam) ** (1 - s) / (s - 1) + 0.5 * (n_terms + lam) ** -s
    res = transforms.hurwitz_zeta(s, lam, tol=1e-10)
    assert abs(res.value - acc) < 1e-9


def test_hurwitz_domain():
    with pytest.raises(DomainError):
        transforms.hurwitz_zeta(1.0, 1.0)
    with pytest.raises(DomainError):
        transforms.hurwitz_zeta(0.5, 1.0)


def _hurwitz_truth(s, lam):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        return complex(mp.zeta(s, lam))


@pytest.mark.parametrize("s, lam", [
    (1.5 + 30j, 1.0),  # the expansion needs T doubled once
    (1.001, 1.0),
    (2.5 + 5j, 0.5 + 0.5j),
    (20.0, 1.0),  # Poisson mass near N = 0 missed at a fixed T = 20: e^-20 relative
    (8.0, 0.1),  # there: 0.21 absolute
])
def test_hurwitz_against_mpmath(s, lam):
    truth = _hurwitz_truth(s, lam)
    res = transforms.hurwitz_zeta(s, lam, tol=1e-10)
    assert abs(res.value - truth) <= 1e-10 * max(1.0, abs(truth))


@pytest.mark.parametrize("s", [1.1, 2.0, 4.5])  # 4.5: stopping at an odd k leaves 5.8x the estimate
def test_hurwitz_error_within_estimate(s):
    res = transforms.hurwitz_zeta(s, 1.0, tol=1e-10)
    assert abs(res.value - _hurwitz_truth(s, 1.0)) <= res.abs_err_estimate


@pytest.mark.parametrize("s, lam", [(20.0, 0.1), (5 + 20j, 0.3 + 3j)])
def test_hurwitz_rounding_within_estimate(s, lam):
    # |truth| 1e20 and 2.4e10: rounding relative to the value, 25 and 17 eps
    # |truth|, is far above the quadrature's own estimate
    res = transforms.hurwitz_zeta(s, lam, tol=1e-10)
    assert abs(res.value - _hurwitz_truth(s, lam)) <= res.abs_err_estimate


def _rule_nodes(monkeypatch, rule="clenshaw_curtis_quad"):
    """The node count of every call of `quadrature.<rule>` from here on."""
    nodes = []
    original = getattr(quadrature, rule)

    def spied(*args, **kwargs):
        out = original(*args, **kwargs)
        nodes.append(out[2])
        return out

    monkeypatch.setattr(quadrature, rule, spied)
    return nodes


def test_hurwitz_node_budget(monkeypatch):
    # the tail past T is closed form: no panels out to t ~ 5000
    nodes = _rule_nodes(monkeypatch)
    transforms.hurwitz_zeta(3.5, 1.5, tol=1e-10)
    assert sum(nodes) <= 600


@pytest.mark.parametrize("transform, args", [("hurwitz_zeta", (3.5, 1.5)), ("eta", (-1.5 + 2j, 1.0)),
                                             ("lerch_phi", (0.5, 2.5, 1.0))])
def test_one_clenshaw_curtis_call_per_integral(monkeypatch, transform, args):
    # the Laplace integrands are entire in t: one interval, no head
    nodes = _rule_nodes(monkeypatch)
    getattr(transforms, transform)(*args)
    assert len(nodes) == 1


def test_laplace_rule_refines_while_the_modulus_moves(monkeypatch):
    # the first 65 points meet tol, but the integral of |f| moves 3.9 %
    # between the m = 32 and m = 64 rules (4.000 to 4.156): the rule takes
    # the 64 new points of m = 128 before it settles
    mp = pytest.importorskip("mpmath")
    nodes = _rule_nodes(monkeypatch)
    res = transforms.eta(-4.0, 2.139763048720196, tol=1e-10)
    with mp.workdps(30):
        truth = complex(mp.lerchphi(-1, -4.0, 2.139763048720196))
    assert nodes == [129] and abs(res.value - truth) <= 1e-10


@pytest.mark.parametrize("transform, args", [("mellin_s_representation", (3 + 2j, 2 + 1j, 2.0)),
                                             ("h_mellin_representation", (2.5, 1.0, 1.5)),
                                             ("mellin_s_representation", (0.5, 2 + 1j, 1j)),
                                             ("vanishing_moment", (2, 1.5))])
def test_a_head_and_a_tail_call_per_integral(monkeypatch, transform, args):
    # t^(s-1) and x^(lam-1) at t = 0 sit in the product weights of the head
    # (0, h]: one interval past h, then the head, and no tanh-sinh
    nodes = _rule_nodes(monkeypatch)
    getattr(transforms, transform)(*args)
    assert len(nodes) == 2 and not hasattr(quadrature, "tanh_sinh")


def test_hurwitz_tail_expansion_refuses_huge_imaginary_s():
    with pytest.raises(QuadratureError, match="Hurwitz tail expansion"):
        transforms.hurwitz_zeta(1.5 + 1000j, 1.0)


# -- eta ------------------------------------------------------------------------


def test_eta_at_zero():
    res = transforms.eta(0.0, 1.0, tol=1e-10)
    assert abs(res.value - 0.5) < 1e-9


def test_eta_neg_one():
    res = transforms.eta(-1.0, 1.0, tol=1e-10)
    assert abs(res.value - 0.25) < 1e-9


def test_eta_two():
    res = transforms.eta(2.0, 1.0, tol=1e-10)
    assert abs(res.value - PI2_6 / 2.0) < 1e-9


@pytest.mark.parametrize("s", [0.3, 1.0, 2.3])
@pytest.mark.parametrize("lam", [1.0, 1.7])
def test_eta_matches_accelerated_alternating_series(s, lam):
    res = transforms.eta(s, lam, tol=1e-9)
    oracle = transforms.eta_alternating_series(s, lam)
    assert abs(res.value - oracle) <= 1e-7 * max(abs(oracle), 1e-3)


@pytest.mark.parametrize("p", range(0, 5))
@pytest.mark.parametrize("lam", [1.0, 2.5])
def test_eta_negative_integer_is_half_euler(p, lam):
    from fractions import Fraction

    res = transforms.eta(-float(p), lam, tol=1e-9)
    expect = float(euler_poly(p)(Fraction(lam))) / 2.0
    assert abs(res.value - expect) < 1e-7


def test_eta_hankel_cross_check():
    # the same eta value from the branch-cut contour with kernel 1/(1+e^z),
    # positive integer orders included
    import numpy as np

    lam = 1.0
    for s in (0.5, 1, 2, 3):
        quad_val = transforms.eta(s, lam, tol=1e-9).value
        hankel_val = core.hankel_contour_integral(s, lam, lambda z: 1.0 / (1.0 + np.exp(z)), tol=1e-10)
        assert abs(quad_val - hankel_val) < 1e-6
    closed = {1: math.log(2.0), 2: math.pi**2 / 12, 3: 0.75 * 1.2020569031595942}
    for s, truth in closed.items():
        assert abs(core.hankel_contour_integral(s, lam, lambda z: 1.0 / (1.0 + np.exp(z)), tol=1e-10) - truth) < 1e-13


# -- riemann zeta ------------------------------------------------------------------


def test_zeta_two_routes_agree():
    for s in (2.0, 3.0, 4.5):
        via_eta = transforms.riemann_zeta(s, tol=1e-10)
        direct = transforms.hurwitz_zeta(s, 1.0, tol=1e-10)
        assert abs(via_eta.value - direct.value) < 1e-8


def test_zeta_classical_values():
    assert abs(transforms.riemann_zeta(2.0, tol=1e-10).value - PI2_6) < 1e-9
    assert abs(transforms.riemann_zeta(-1.0, tol=1e-10).value - (-1.0 / 12.0)) < 1e-9
    assert abs(transforms.riemann_zeta(0.0, tol=1e-10).value - (-0.5)) < 1e-9


def test_zeta_guards():
    with pytest.raises(PoleError):
        transforms.riemann_zeta(1.0)
    near_zero = 1.0 + 2j * math.pi / math.log(2.0)  # 2^(1-s) = 1
    with pytest.raises(ConditioningError):
        transforms.riemann_zeta(near_zero)


# -- Mellin transform of e_p(-x, lam) -------------------------------------------------


def test_mellin_transform_p0():
    res = transforms.mellin_transform_polyexp(0.5, 0, 1.0, tol=1e-8)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-7


def test_mellin_transform_p3():
    res = transforms.mellin_transform_polyexp(0.5, 3, 1.0, tol=1e-8)
    assert abs(res.value - 8.0 * math.sqrt(math.pi)) < 1e-6


def test_mellin_transform_generic_point():
    res = transforms.mellin_transform_polyexp(0.7, 2, 1.4, tol=1e-8)
    expect = core.gamma_fn(0.7) / 0.7**2
    assert abs(res.value - expect) < 1e-7


def test_mellin_transform_work_counts_grid_and_series_terms(monkeypatch):
    counted = []
    original_grid, original_series = core._recursion_grid, core.eval_series

    def grid(*args, **kwargs):
        out = original_grid(*args, **kwargs)
        counted.append(out[2])
        return out

    def series(*args, **kwargs):
        out = original_series(*args, **kwargs)
        counted.append(out.work)
        return out

    monkeypatch.setattr(core, "_recursion_grid", grid)
    monkeypatch.setattr(core, "eval_series", series)
    res = transforms.mellin_transform_polyexp(1.505, 1, 1.756)
    assert len(counted) == 2 and min(counted) > 0
    assert res.work - sum(counted) == transforms._HEAD_TERMS  # the terms of the x <= 1 series


def test_mellin_transform_runs_no_evaluate_and_no_tanh_sinh(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("called")

    for module, name in ((core, "evaluate"), (quadrature, "clenshaw_curtis_quad")):
        monkeypatch.setattr(module, name, refuse)
    for s, p, lam in ((1.505, 1, 1.756), (0.5, 3, 1.0), (0.5, 0, 1.0), (4.187, 5, 4.311)):
        res = transforms.mellin_transform_polyexp(s, p, lam)
        assert abs(res.value - core.gamma_fn(s) / (lam - s) ** p) <= 1e-9 * abs(res.value)


@pytest.mark.parametrize("transform, args", [("eta", (0.5, 1.0)), ("hurwitz_zeta", (3.5, 1.5))])
def test_work_counts_kernel_terms(monkeypatch, transform, args):
    nodes, terms = _rule_nodes(monkeypatch), []
    kernel = core.exp_weighted_series

    def counted_kernel(*args):
        out = kernel(*args)
        terms.append(out[2])
        return out

    monkeypatch.setattr(core, "exp_weighted_series", counted_kernel)
    res = getattr(transforms, transform)(*args)
    assert res.work == sum(nodes) + sum(terms) and sum(terms) > 10 * sum(nodes)


@pytest.mark.parametrize("transform, args, nodes, work, calls", [("eta", (0.5, 1.0), 65, 3524, 1),
                                                                  ("hurwitz_zeta", (3.5, 1.5), 65, 6774, 1)])
def test_kernel_calls_and_work_pinned(monkeypatch, transform, args, nodes, work, calls):
    # one call on the 65 Clenshaw-Curtis points of m = 64, which meet tol
    # against the m = 32 rule on the even ones; eta reads its envelope
    # constant off that call's nodes
    counted, kernel_calls = _rule_nodes(monkeypatch), []
    kernel = core.exp_weighted_series

    def counted_kernel(*args):
        kernel_calls.append(args[3])
        return kernel(*args)

    monkeypatch.setattr(core, "exp_weighted_series", counted_kernel)
    res = getattr(transforms, transform)(*args)
    assert (sum(counted), res.work, len(kernel_calls)) == (nodes, work, calls)


@pytest.mark.parametrize("x, s, lam", [(0.69, -0.84, 1.08), (0.73 + 0.08j, 0.64, 0.47)])
def test_integral_past_the_first_interval_meets_its_estimate(monkeypatch, x, s, lam):
    # rate 1 - Re x ~ 0.3: the envelope's remainder past 4.5 split misses
    # tol/4, so (0, T] is integrated afresh and work counts both intervals
    nodes, ends, terms = _rule_nodes(monkeypatch), [], []
    integrate_to, kernel = quadrature._integrate_to, core.exp_weighted_series

    def spied(f, split, a, T, tol, alpha=0):
        assert a == 0 and alpha == 0
        ends.append(T / split)
        return integrate_to(f, split, a, T, tol, alpha)

    def counted_kernel(*args):
        out = kernel(*args)
        terms.append(out[2])
        return out

    monkeypatch.setattr(quadrature, "_integrate_to", spied)
    monkeypatch.setattr(core, "exp_weighted_series", counted_kernel)
    res = transforms.lerch_phi(x, s, lam, tol=1e-10)
    truth = sum(x**n / (n + lam) ** s for n in range(400))
    assert ends[0] == 4.5 and len(ends) == 2 and ends[1] > 4.5
    assert res.work == sum(nodes) + sum(terms)
    assert abs(res.value - truth) <= res.abs_err_estimate <= 1e-10 * max(1.0, abs(truth))


def test_mellin_transform_strip_enforced():
    with pytest.raises(DomainError):
        transforms.mellin_transform_polyexp(1.2, 1, 1.0)
    with pytest.raises(DomainError):
        transforms.mellin_transform_polyexp(-0.1, 1, 1.0)


# -- vanishing moments ------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,lam,tol",
    [(1, 1.0, 1e-9), (2, 1.5, 1e-9), (4, 2.3, 1e-8),
     # x^-0.95 at 0: on tanh-sinh these were up to 13x their estimate (4.8e-9 at p = 1)
     (1, 0.05, 1e-9), (2, 0.05, 1e-9), (3, 0.05, 1e-9), (4, 0.05, 1e-9),
     # x^-0.999: the interior weights carry the rounding of G_0 = 2000
     (1, 0.001, 1e-9)],
)
def test_vanishing_moment(p, lam, tol):
    res = transforms.vanishing_moment(p, lam, tol=tol)
    assert abs(res.value) < 10 * tol and abs(res.value) <= res.abs_err_estimate


def test_vanishing_moment_termwise_gamma_oracle():
    # expand Q_2(-x, 1.5) and integrate term-by-term with gamma_fn
    from polyexp.exact import q_poly

    lam = 1.5
    q = q_poly(2)
    acc = 0.0
    for i, row in enumerate(q.rows):
        coeff = sum(float(c) * lam**j for j, c in enumerate(row))
        acc += coeff * (-1.0) ** i * core.gamma_fn(lam + i).real
    assert abs(acc) < 1e-12  # the identity itself
    res = transforms.vanishing_moment(2, lam, tol=1e-9)
    assert abs(res.value - acc) < 1e-8


# -- Mellin representation in s ------------------------------------------------------------


@pytest.mark.parametrize("transform", ("mellin_s_representation", "h_mellin_representation"))
@pytest.mark.parametrize("x", (800.0, 1e4))
def test_mellin_representations_refuse_e_x_past_binary64(transform, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(core._Overflow, match="overflows binary64"):
            getattr(transforms, transform)(1.5, 1.0, x)


def _gamma_weighted_truth(s, lam, x, h):
    """Gamma(s) e_s(x, lam), or Gamma(s) h_s(x, lam) = Gamma(s) sum x^n/n! P_n
    with P_n = sum_(j<n) (j+lam)^-s, from the power series to 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40 + int((abs(x) - complex(x).real) / 2.3)):  # terms of e^|x| cancel to e^Re x
        s, lam, x = mp.mpc(s), mp.mpc(lam), mp.mpc(x)
        total, prefix, term, n = mp.mpc(0), mp.mpc(0), mp.mpf(1), 0
        while n < abs(x) + 60 or abs(term) > mp.eps * abs(total):  # past the peak at n = |x|
            coeff = (n + lam) ** -s
            total += term * (prefix if h else coeff)
            prefix += coeff
            n += 1
            term *= x / n
        return complex(mp.gamma(s) * total)


@pytest.mark.parametrize("transform, args", [
    ("mellin_s_representation", (0.5, 1.0, 600.0)), ("mellin_s_representation", (0.1, 1.0, 500.0)),
    ("mellin_s_representation", (2.5 + 1j, 0.5 + 0.5j, 709.0 + 30j)),
    ("h_mellin_representation", (1.5, 0.2, 700.0)), ("h_mellin_representation", (1.5, 0.2, 703.0)),
    ("h_mellin_representation", (1.5, 0.2, 706.0)), ("h_mellin_representation", (1.5, 0.2, -800.0)),
])
def test_mellin_representations_near_binary64_limit(transform, args):
    # Gamma(s) e_s and Gamma(s) h_s fit binary64 here, while the rule's sums
    # of e^x would not: e^x past e^300 comes out of the integral; at
    # x = -800 the h quotient must not overflow either. No step may warn
    truth = _gamma_weighted_truth(*args, h=transform.startswith("h_"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = getattr(transforms, transform)(*args)
    assert abs(res.value - truth) <= res.abs_err_estimate
    assert abs(res.value - truth) <= 1e-9 * abs(truth)


@pytest.mark.parametrize("transform, args", [("mellin_s_representation", (0.1, 1.0, 709.0)),
                                             ("h_mellin_representation", (1.5, 0.2, 709.0))])
def test_mellin_representations_refuse_values_past_binary64(transform, args):
    # e^x fits binary64, Gamma(s) e_s(x, lam) and Gamma(s) h_s do not
    assert abs(_gamma_weighted_truth(*args, h=transform.startswith("h_"))) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(core._Overflow, match="overflows binary64"):
            getattr(transforms, transform)(*args)


def test_mellin_s_representation_trivial():
    res = transforms.mellin_s_representation(1.0, 1.0, 0.0, tol=1e-10)
    assert abs(res.value - 1.0) < 1e-9


def test_mellin_s_representation_cross_route():
    for s, lam, x in ((2.5, 1.0, 1.0), (2.0, 1.5, -1.0)):
        res = transforms.mellin_s_representation(s, lam, x, tol=1e-10)
        expect = core.gamma_fn(s) * core.eval_series(s, lam, x, tol=1e-13).value
        assert abs(res.value - expect) < 1e-8


@pytest.mark.parametrize("s, lam, x", [(0.01, 0.3, 5.0), (0.01, 0.3, 50.0), (0.01, 0.3, 200.0),
                                       (0.05, 0.3, 50.0), (0.05, 0.3, -1.0), (0.5 + 5j, 2 + 1j, 200.0),
                                       (140.0, 1.0, 1.0), (170.0, 1.0, 1.0), (1e-4, 1.0, 1.0)])
def test_mellin_s_representation_against_mpmath(s, lam, x):
    # t^(s-1) next to t^-1: tanh-sinh raised at Re s = 0.01 and missed its
    # estimate 200-fold at (0.05, 0.3, 50); the product weights take it
    # exactly. At 0.5+5i the head and the interval cancel 7-fold, and at
    # Re s = 140 and 170 t^(s-1) passes binary64 at t ~ 1000, where e^-t
    # brings the integrand back. At s = 1e-4 the rounding of s - 1 moves
    # the value 1e-13 of itself, the estimate's share. No step may warn
    truth = _gamma_weighted_truth(s, lam, x, h=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = transforms.mellin_s_representation(s, lam, x, tol=1e-10)
    assert abs(res.value - truth) <= res.abs_err_estimate <= 1e-10 * abs(truth)


# -- h-series Mellin representation ----------------------------------------------------------


def test_h_mellin_x_zero():
    res = transforms.h_mellin_representation(2.0, 1.0, 0.0, tol=1e-10)
    assert abs(res.value) < 1e-10


def test_h_mellin_harmonic_oracle():
    # Gamma(2) h_2(1, 1, 1): 25-term series of sum x^n/n! H_n^(2)
    acc = 0.0
    fact = 1.0
    h2 = 0.0
    for n in range(1, 26):
        fact *= n
        h2 += 1.0 / n**2
        acc += h2 / fact
    res = transforms.h_mellin_representation(2.0, 1.0, 1.0, tol=1e-10)
    expect = core.gamma_fn(2.0).real * acc
    assert abs(res.value - expect) < 1e-8


# -- nested tolerance policy -------------------------------------------------------


def test_inner_series_runs_at_hundredth_of_target(monkeypatch):
    seen = []
    original = core.exp_weighted_series

    def spy(s, lam, z, t, tol=1e-14):
        seen.append(tol)
        return original(s, lam, z, t, tol)

    monkeypatch.setattr(core, "exp_weighted_series", spy)
    transforms.eta(0.5, 1.0, tol=1e-6)
    assert seen and all(t == pytest.approx(1e-8) for t in seen)


# -- the cross-check helpers themselves ---------------------------------------------------------


def test_eta_alternating_series_classical():
    # eta(1) = ln 2; eta(2) = pi^2/12
    assert abs(transforms.eta_alternating_series(1.0, 1.0) - math.log(2.0)) < 1e-10
    assert abs(transforms.eta_alternating_series(2.0, 1.0) - PI2_6 / 2) < 1e-10


def test_lerch_series_helper():
    val = transforms.lerch_series(0.5, 1.0, 1.0)
    # sum 0.5^n/(n+1) = 2 ln 2
    assert abs(val - 2.0 * math.log(2.0)) < 1e-11


def test_quadrature_error_reports_its_numbers():
    with pytest.raises(QuadratureError) as info:
        transforms.eta(-4.5, 1.0)
    found = re.search(r"last estimate (\S+), last difference (\S+) \(target (\S+)\)", str(info.value))
    assert found, str(info.value)
    estimate, difference, target = complex(found[1]), float(found[2]), float(found[3])
    assert difference > target > 0.0 and cmath.isfinite(estimate)


# -- non-finite arguments ---------------------------------------------------------------

_VALID_ARGS = {
    "lerch_phi": (0.5, 2.0, 1.0),
    "hurwitz_zeta": (2.0, 1.0),
    "eta": (0.5, 1.0),
    "riemann_zeta": (2.0,),
    "mellin_transform_polyexp": (0.5, 1, 2.0),
    "vanishing_moment": (2, 1.0),
    "mellin_s_representation": (1.5, 1.0, 0.5),
    "h_mellin_representation": (2.0, 1.0, 0.5),
}


@pytest.mark.parametrize("bad", [math.nan, -math.inf])
@pytest.mark.parametrize("transform, position", [(name, i) for name, args in _VALID_ARGS.items()
                                                 for i in range(len(args))])
def test_non_finite_argument_is_a_domain_error(transform, position, bad):
    args = list(_VALID_ARGS[transform])
    args[position] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="must be finite"):
            getattr(transforms, transform)(*args)
