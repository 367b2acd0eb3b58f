"""Transform-layer tests: Lerch/Hurwitz/eta/zeta and Mellin identities."""

import cmath
import math
import re

import pytest

from polyexp import core, transforms
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


def test_hurwitz_node_budget():
    # the tail past T is closed form: no panels out to t ~ 5000
    assert transforms.hurwitz_zeta(3.5, 1.5, tol=1e-10).work <= 600


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
    # the same eta value from the branch-cut contour with kernel 1/(1+e^z)
    import numpy as np

    s, lam = 0.5, 1.0
    quad_val = transforms.eta(s, lam, tol=1e-9).value
    hankel_val = core.hankel_contour_integral(s, lam, lambda z: 1.0 / (1.0 + np.exp(z)), tol=1e-10)
    assert abs(quad_val - hankel_val) < 1e-6


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


def test_mellin_transform_strip_enforced():
    with pytest.raises(DomainError):
        transforms.mellin_transform_polyexp(1.2, 1, 1.0)
    with pytest.raises(DomainError):
        transforms.mellin_transform_polyexp(-0.1, 1, 1.0)


# -- vanishing moments ------------------------------------------------------------------


@pytest.mark.parametrize(
    "p,lam,tol",
    [(1, 1.0, 1e-9), (2, 1.5, 1e-9), (4, 2.3, 1e-8)],
)
def test_vanishing_moment(p, lam, tol):
    res = transforms.vanishing_moment(p, lam, tol=tol)
    assert abs(res.value) < 10 * tol


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


def test_mellin_s_representation_trivial():
    res = transforms.mellin_s_representation(1.0, 1.0, 0.0, tol=1e-10)
    assert abs(res.value - 1.0) < 1e-9


def test_mellin_s_representation_cross_route():
    for s, lam, x in ((2.5, 1.0, 1.0), (2.0, 1.5, -1.0)):
        res = transforms.mellin_s_representation(s, lam, x, tol=1e-10)
        expect = core.gamma_fn(s) * core.eval_series(s, lam, x, tol=1e-13).value
        assert abs(res.value - expect) < 1e-8


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
