"""Integral transforms built on the polyexponential.

The Laplace-type identities evaluated here:

  Phi(x, s, lam)  = integral_0^inf e_s(t x, lam) e^(-t) dt      (|x| < 1, or
                    |x| <= 1 with Re s > 1)
  zeta(s, lam)    = the same at x = 1 (Re s > 1)
  eta(s, lam)     = integral_0^inf e_s(-t, lam) e^(-t) dt       (all s)
  zeta(s)         = eta(s, 1) / (1 - 2^(1-s))                   (s != 1)

plus the Mellin-transform identities: the transform of e_p(-x, lam) equals
Gamma(s)/(lam-s)^p on the strip 0 < Re s < Re lam (a series for x <= 1,
then the recursion route's grid), the vanishing moments of
e^(-x) Q_p(-x, lam) at s = lam, Gamma(s) e_s(x, lam) as a Mellin
integral in s, and the corresponding representation of Gamma(s) h_s.

Every weighted integrand e^(-t) e_s(z t, lam) is evaluated through the
log-scaled series (core.exp_weighted_series) at one-hundredth of the outer
tolerance, so neither e^t overflow nor alternating-series cancellation can
contaminate quadrature nodes. These integrands are entire in t (e_s(x,
lam) is entire in x), so they run on nested Clenshaw-Curtis points
(`quadrature.clenshaw_curtis_quad`), and so do the Mellin representations
and the vanishing moments, whose t^alpha at t = 0 `quad_semiinfinite`
puts in product weights (its alpha).
Each integrand takes the new points of a whole rule as one array (the 65
of m = 64 first, then those of each doubling; `quad_semiinfinite` reads
its envelope constant off these calls, so no node is evaluated for it
alone), and the inner tolerance picks each node's Poisson window through
a tail bound relative to that node's scale (capped at 1), not through a
fixed width; each integrand returns its error beside its values. The z = 1 (Hurwitz)
integrand decays only like t^(-Re s); its tail past a finite T is summed
in closed form (`_power_tail`).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import core
from .quadrature import _integrate_to, _not_converged, quad_semiinfinite
from .result import ConditioningError, DomainError, EvalResult, PoleError

__all__ = [
    "lerch_phi",
    "hurwitz_zeta",
    "eta",
    "riemann_zeta",
    "mellin_transform_polyexp",
    "vanishing_moment",
    "mellin_s_representation",
    "h_mellin_representation",
    "lerch_series",
    "eta_alternating_series",
]


def _split_point(weight_scale: float, lam: complex) -> float:
    """Core/tail split: max(10, 5|x| + |lam|) for weight argument x."""
    return max(10.0, 5.0 * weight_scale + abs(lam))


_LOG_KEPT = 300.0  # the Mellin representations keep e^x up to e^300 inside their integrals
_TAIL_TERMS = 61  # terms k = 0..60 of the Hurwitz tail expansion, ending at an even k
_CHERNOFF_HALF = 0.5 - 0.5 * math.log(2.0)  # P(N <= t/2) <= e^(-0.153 t), N ~ Poisson(t)


def _power_tail(s: complex, lam: complex, T: float, target: float):
    """integral_T^inf e^(-t) e_s(t, lam) dt, Re s > 1, as (value, err).

    The integrand E[(N+lam)^-s], N ~ Poisson(t), is expanded about N = t as
    sum_k (-1)^k (s)_k/k! mu_k(t) (t+lam)^(-s-k), central moments mu_(k+1) =
    t (k mu_(k-1) + mu_k'), and integrated termwise in v = (t+lam)/U,
    U = T+lam, where p_k(v) = mu_k(t) U^-k is a polynomial. The sum stops at
    the first even k whose term plus the odd one before it (mu_1 = 0: odd
    terms are small) is under target, else at the last even k: err is that pair.
    """
    big_u = T + lam
    i = np.arange(_TAIL_TERMS // 2 + 2)
    p_prev, p = np.zeros(i.size, dtype=complex), (i == 0).astype(complex)
    coeff = big_u ** (1.0 - s)  # U^(1-s) (-1)^k (s)_k / k!
    total = term = 0.0j
    for k in range(_TAIL_TERMS):
        n = k // 2 + 1  # p_k has degree k/2
        term, odd = coeff * complex(np.sum(p[:n] / (s + k - i[:n] - 1.0))), term
        total += term
        if k % 2 == 0:
            err = abs(term) + abs(odd)
            if err <= target:
                break
        coeff *= -(s + k) / (k + 1.0)
        inner = k * p_prev + np.append(i[1:] * p[1:], 0.0)  # k p_(k-1) + p_k'
        p_prev, p = p, (np.append(0.0, inner[:-1]) - lam / big_u * inner) / big_u  # times (v - lam/U) / U
    return total, err


def _laplace_weighted(s, lam, z, tol):
    """integral_0^inf e^(-t) e_s(z t, lam) dt with envelope chosen from z.

    At z = 1 (within rounding) the tail past T is `_power_tail`. It misses
    the Poisson mass below N = t/2, at most e^(-0.153 t) |lam^-s|: T starts
    where that integrates to tol/8, and doubles until the tail meets tol/8.
    """
    s, lam, z = complex(s), complex(lam), complex(z)
    inner_tol = tol / 100.0
    terms = 0

    def f(t):
        nonlocal terms
        values, errs, n = core.exp_weighted_series(s, lam, z, t, inner_tol)
        terms += n
        return values, errs

    split = _split_point(abs(z), lam)
    if abs(z - 1.0) > 1e-14:
        res = quad_semiinfinite(f, 1.0 - max(z.real, 0.0), max(0.0, -s.real), tol, split)
        return EvalResult(res.value, res.abs_err_estimate, res.work + terms, res.method)
    log_first = core._log_coefficient_bound(s, lam, 0.0)
    start = max(2.0 * split, (log_first - math.log(_CHERNOFF_HALF * tol / 8.0)) / _CHERNOFF_HALF)
    for T in (start * 2.0**d for d in range(8)):  # up to 7 doublings
        if (tail := _power_tail(s, lam, T, tol / 8.0))[1] <= tol / 8.0:
            break
    else:
        raise _not_converged(f"Hurwitz tail expansion at T = {T:g}", *tail, tol / 8.0)
    value, err, nodes = _integrate_to(f, split, 0.0, T, tol)
    missed = math.exp(log_first - _CHERNOFF_HALF * T) / _CHERNOFF_HALF
    return EvalResult(value + tail[0], err + tail[1] + missed, nodes + terms, "quadrature")


def lerch_phi(x, s, lam, tol: float = 1e-10) -> EvalResult:
    """Lerch transcendent Phi(x, s, lam) = sum x^n/(n+lam)^s as a Laplace
    integral of the polyexponential.

    Domain: |x| < 1 for any s, or |x| <= 1 with Re s > 1.
    """
    x, s, lam = complex(x), complex(s), complex(lam)
    core._require_finite(x=x, s=s, lam=lam)
    core._require_lam(lam)
    if abs(x) >= 1.0 + 1e-14 or (abs(x) > 1.0 - 1e-14 and s.real <= 1.0):
        raise DomainError(
            f"lerch_phi needs |x| < 1, or |x| <= 1 with Re s > 1; got x={x}, s={s}"
        )
    if x == 0:
        value = cmath.exp(-s * cmath.log(lam))
        return EvalResult(value, 1e-16 * abs(value), 1, "closed_form")
    return _laplace_weighted(s, lam, x, tol)


def hurwitz_zeta(s, lam, tol: float = 1e-10) -> EvalResult:
    """zeta(s, lam) as integral_0^inf e_s(t, lam) e^(-t) dt, Re s > 1 only.

    The integrand decays like t^(-Re s): the representation simply does not
    converge for Re s <= 1, so that region is refused. Past a T of a few
    hundred the integral is summed in closed form (`_laplace_weighted`).
    """
    s, lam = complex(s), complex(lam)
    core._require_finite(s=s, lam=lam)
    if s.real <= 1.0:
        raise DomainError("hurwitz_zeta integral converges only for Re s > 1")
    core._require_lam(lam)
    return _laplace_weighted(s, lam, 1.0, tol)


def eta(s, lam, tol: float = 1e-10) -> EvalResult:
    """eta(s, lam) = integral_0^inf e_s(-t, lam) e^(-t) dt, entire in s.

    The integrand decays like t^(-Re lam) (log t)^(Re s - 1) e^(-t), so the
    integral converges for every complex s.
    """
    s, lam = complex(s), complex(lam)
    core._require_finite(s=s, lam=lam)
    core._require_lam(lam)
    return _laplace_weighted(s, lam, -1.0, tol)


def riemann_zeta(s, tol: float = 1e-10) -> EvalResult:
    """zeta(s) from eta(s,1)/(1 - 2^(1-s)); `hurwitz_zeta(s, 1)` is the direct
    integral of e_s(t) e^(-t) (Re s > 1 only).

    Refuses s = 1 and points where |1 - 2^(1-s)| < 1e-3 (the prefactor
    would amplify the quadrature error out of control).
    """
    s = complex(s)
    core._require_finite(s=s)
    if s == 1.0:
        raise PoleError("zeta pole at s = 1")
    denom = 1.0 - 2.0 ** complex(1.0 - s)
    if abs(denom) < 1e-3:
        raise ConditioningError(
            f"1 - 2^(1-s) = {denom:g}: eta route ill-conditioned this close to a zero"
        )
    base = eta(s, 1.0, tol * abs(denom))
    return EvalResult(
        base.value / denom,
        base.abs_err_estimate / abs(denom),
        base.work,
        base.method,
    )


# ---------------------------------------------------------------------------
# Mellin transform of e_p(-x, lam)
# ---------------------------------------------------------------------------


_HEAD_TERMS = 30  # of the x <= 1 series of mellin_transform_polyexp: 1/30! < 4e-33


def mellin_transform_polyexp(s, p: int, lam, tol: float = 1e-9) -> EvalResult:
    """integral_0^inf x^(s-1) e_p(-x, lam) dx = Gamma(s)/(lam - s)^p, on the
    strip 0 < Re s < Re lam, with no quadrature driver and no `evaluate` call.

    With x = e^-tau the integrand is e^(c tau) g_p(tau), c = lam - s, for
    the tail integrations g_(q+1) = int_tau^inf g_q of g_0(tau) =
    exp(-lam tau - e^-tau) (`eval_via_recursion` at x = -1). x <= 1 is
    the series sum_n (-1)^n / (n! (n+lam)^p (n+s)). 1 <= x <= L is
    `core._recursion_grid` over [tau0, 0], tau0 = -log L, started from
    zero; the start values g_q(0) = e_q(-1, lam) (one `eval_series` call)
    add polynomials in tau worth g_q(0) / c^(p-q+1). Past L, g_0 has
    vanished and g_p is a polynomial in tau: e^(c tau0) sum_q g_q(tau0) /
    c^(p-q+1). L climbs a 1.1 ladder until the g_0 mass it drops,
    Gamma(a, L) <= L^(a-1) e^-L / (1 - max(a-1, 0)/L), a = Re lam, times
    e^(Re c tau0) / (Re c)^p through the p integrations, is under tol/10.
    The estimate adds that bound, the grid's, and the series' tails and
    rounding; work counts the grid's e_0 evaluations and the series' terms.
    """
    s, lam = complex(s), complex(lam)
    core._require_finite(s=s, p=p, lam=lam)
    if p < 0 or p != int(p):
        raise DomainError(f"p must be an integer >= 0, got p = {p}")
    if not (0.0 < s.real < lam.real):
        raise DomainError(f"need 0 < Re s < Re lam, got s={s}, lam={lam}")
    p, c, a = int(p), lam - s, lam.real
    target = tol / 10.0
    n = np.arange(_HEAD_TERMS)
    head = np.cumprod(np.append(1.0, -1.0 / n[1:])) / ((n + lam) ** p * (n + s))  # term ratio under 1/(n+1)
    head_err = float(2.0 * abs(head[-1]) / _HEAD_TERMS + 4.0 * _HEAD_TERMS * core._EPS * np.abs(head).sum())

    def log_dropped(big_l):
        return ((a - 1.0 - c.real) * math.log(big_l) - big_l - math.log1p(-max(a - 1.0, 0.0) / big_l)
                - p * math.log(c.real))

    big_l = max(10.0, 2.0 * a, -math.log(target))
    while log_dropped(big_l) > math.log(target):
        big_l *= 1.1
    tau0 = -math.log(big_l)
    powers = c ** -np.arange(float(p), 0.0, -1.0)  # c^-(p-q+1), q = 1..p
    start = core.eval_series(np.arange(1.0, p + 1.0), lam, np.full(p, -1.0), target)
    coefs = cmath.exp(c * tau0) * powers  # g_q(tau0) -> the piece past L
    grid, grid_err, work = core._recursion_grid(lam, -1.0, tau0, 0.0, tol, coefs, weight=c)
    start_err = (start.abs_err_estimate + 4.0 * p * core._EPS * np.abs(start.value)) @ np.abs(powers)
    estimate = grid_err + math.exp(log_dropped(big_l)) + head_err + float(start_err)
    value = complex(head.sum()) + complex(start.value @ powers) + grid
    return EvalResult(value, estimate, work + start.work + _HEAD_TERMS, "recursion")


def vanishing_moment(p: int, lam, tol: float = 1e-9) -> EvalResult:
    """integral_0^inf x^(lam-1) e^(-x) Q_p(-x, lam) dx; identically zero for
    p >= 1 (the s = lam endpoint of the Mellin strip)."""
    lam = complex(lam)
    core._require_finite(p=p, lam=lam)
    if p < 1:
        raise DomainError("vanishing moments are stated for p >= 1")
    core._require_lam(lam)

    def f(x):  # over x^(lam-1): values and their rounding bound
        return core._closed_form(p, lam, -x, -x)

    return quad_semiinfinite(f, 1.0, float(p) + lam.real - 1.0, tol, _split_point(1.0, lam), lam - 1.0)


def _gamma_weighted(g, s, lam, x, tol):
    """integral_0^inf t^(s-1) e^(-lam t) g(t) dt for g bounded at large t:
    the form of both Mellin representations below, whose g reaches e^x at
    t = 0. g(t) returns (log part, factor) of g, and the integrand over
    t^(s-1), which `quad_semiinfinite` takes as its alpha, is the one
    exponent -lam t + log part, times the factor. The part of e^x past
    e^300 (`_LOG_KEPT`) comes out of the integral, so the rule's sums stay
    inside binary64, while the value left inside stays far above 1, so the
    rule's test max(tol, tol |value|) stays relative.
    """
    if x.real > core._LOG_MAX:
        raise core._Overflow(f"the integrand's e^x overflows binary64 at x = {x}")
    scale = max(x.real - _LOG_KEPT, 0.0)

    def f(t):  # over t^(s-1): values and the rounding of their exponent
        log_part, factor = g(t)
        values = np.exp(-lam * t + (log_part - scale)) * factor
        return values, core._EPS * (abs(lam) * t + np.abs(log_part) + scale) * np.abs(values)

    res = quad_semiinfinite(f, lam.real, max(s.real - 1.0, 0.0), tol, _split_point(abs(x), lam), s - 1.0)
    # alpha = s - 1 carries the rounding of s - 1, which moves the integral
    # by up to eps |s - 1| / |s| of itself near s = 0 (the pole of Gamma)
    err = res.abs_err_estimate + core._EPS * abs(s - 1.0) / abs(s) * abs(res.value)
    value, err = res.value * math.exp(scale), err * math.exp(scale)
    if not (cmath.isfinite(value) and math.isfinite(err)):
        raise core._Overflow(f"the Mellin integral overflows binary64 at x = {x}: its value is "
                             f"{res.value:.6g} times e^{scale:.6g}")
    return EvalResult(value, err, res.work, res.method)


def mellin_s_representation(s, lam, x, tol: float = 1e-10) -> EvalResult:
    """integral_0^inf t^(s-1) e^(-lam t) e^(x e^(-t)) dt = Gamma(s) e_s(x, lam),
    for Re s > 0."""
    s, lam, x = complex(s), complex(lam), complex(x)
    core._require_finite(s=s, lam=lam, x=x)
    if s.real <= 0:
        raise DomainError("need Re s > 0")
    core._require_lam(lam)
    return _gamma_weighted(lambda t: (x * np.exp(-t), 1.0), s, lam, x, tol)


def h_mellin_representation(s, lam, x, tol: float = 1e-10) -> EvalResult:
    """integral_0^inf t^(s-1) e^(-lam t) [e^x - e^(x e^(-t))]/(1 - e^(-t)) dt,
    which equals Gamma(s) h_s(x, lam) for Re s > 1.

    The bracket over 1 - e^(-t) is e^max(x, x e^-t) times sign(x)
    expm1(|x| u)/u, u = expm1(-t): the t -> 0 singularity of the pair is
    removable, and expm1 keeps the quotient fully accurate down to t = 0
    (|quotient| <= |x|), so no series switch is needed; at t = 0 itself,
    which the rule samples, the quotient is its limit |x|.
    """
    s, lam = complex(s), complex(lam)
    x = float(x)
    core._require_finite(s=s, lam=lam, x=x)
    if s.real <= 1:
        raise DomainError("need Re s > 1")
    core._require_lam(lam)

    def g(t):
        u = np.expm1(-t)
        quotient = np.divide(np.expm1(abs(x) * u), u, out=np.full(t.shape, abs(x)), where=u != 0.0)
        return np.maximum(x, x * np.exp(-t)), math.copysign(1.0, x) * quotient

    return _gamma_weighted(g, s, lam, x, tol)


# ---------------------------------------------------------------------------
# series cross-check routes (used by the identity suites)
# ---------------------------------------------------------------------------

_LERCH_TERMS = 2_000_000  # lerch_series gives up past this many terms
_DIRECT_TERMS = 40  # eta_alternating_series: terms summed directly,
_EULER_TERMS = 40  # then terms of the Euler-transformed remainder


def lerch_series(x, s, lam, tol: float = 1e-12) -> complex:
    """Direct sum of x^n/(n+lam)^s for |x| < 1, geometric tail bound."""
    x, s, lam = complex(x), complex(s), complex(lam)
    if abs(x) >= 1:
        raise DomainError("direct Lerch series needs |x| < 1")
    acc = 0.0 + 0.0j
    xn = 1.0 + 0.0j
    n = 0
    while True:
        term = xn * cmath.exp(-s * cmath.log(n + lam))
        acc += term
        if n > 4 and abs(term) / (1.0 - abs(x)) < tol:
            return acc
        xn *= x
        n += 1
        if n > _LERCH_TERMS:
            raise _not_converged(f"lerch series in {_LERCH_TERMS} terms", acc, abs(term) / (1.0 - abs(x)), tol)


def eta_alternating_series(s, lam) -> complex:
    """sum (-1)^n (n+lam)^(-s) with Euler acceleration of the tail.

    Needs Re s > 0 for ordinary convergence (the acceleration extends the
    practical range but this helper is only used as a cross-check there).
    """
    s, lam = complex(s), complex(lam)
    acc = 0.0 + 0.0j
    for n in range(_DIRECT_TERMS):
        acc += (-1.0) ** n * cmath.exp(-s * cmath.log(n + lam))
    # Euler transform of the remainder sum_{j>=0} (-1)^j b_j
    b = np.array(
        [
            cmath.exp(-s * cmath.log(_DIRECT_TERMS + j + lam))
            for j in range(_EULER_TERMS)
        ],
        dtype=complex,
    )
    sign = (-1.0) ** _DIRECT_TERMS
    euler = 0.0 + 0.0j
    for k in range(_EULER_TERMS - 1):
        euler += (-1.0) ** k * b[0] / 2.0 ** (k + 1)
        b = b[1:] - b[:-1]  # forward difference
    return acc + sign * euler
