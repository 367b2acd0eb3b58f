"""Integral transforms built on the polyexponential.

The Laplace-type identities evaluated here:

  Phi(x, s, lam)  = integral_0^inf e_s(t x, lam) e^(-t) dt      (|x| < 1, or
                    |x| <= 1 with Re s > 1)
  zeta(s, lam)    = the same at x = 1 (Re s > 1)
  eta(s, lam)     = integral_0^inf e_s(-t, lam) e^(-t) dt       (all s)
  zeta(s)         = eta(s, 1) / (1 - 2^(1-s))                   (s != 1)

plus the Mellin-transform identities: the transform of e_p(-x, lam) equals
Gamma(s)/(lam-s)^p on the strip 0 < Re s < Re lam, the vanishing moments
of e^(-x) Q_p(-x, lam) at s = lam, Gamma(s) e_s(x, lam) as a Mellin
integral in s, and the corresponding representation of Gamma(s) h_s.

Every weighted integrand e^(-t) e_s(z t, lam) is evaluated through the
log-scaled series (core.exp_weighted_series) at one-hundredth of the outer
tolerance, so neither e^t overflow nor alternating-series cancellation can
contaminate quadrature nodes. Each integrand takes a whole tanh-sinh level
as one array (the Mellin transform of e_p(-x, lam) passes the level of
both its panels to `core.evaluate`, which sums the nodes with x <= 10 as
one array series and integrates the rest in one batched tanh-sinh call),
and the inner tolerance picks each node's Poisson window through a tail
bound relative to that node's scale (capped at 1), not through a fixed
width; each integrand returns its error beside its values. The z = 1
(Hurwitz) integrand decays only like t^(-Re s); its tail past a finite T
is summed in closed form (`_power_tail`).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from . import core
from .quadrature import _integrate_to, _not_converged, quad_semiinfinite, tanh_sinh
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
    value, err, nodes = _integrate_to(f, split, T, tol)
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


def mellin_transform_polyexp(s, p: int, lam, tol: float = 1e-9) -> EvalResult:
    """integral_0^inf x^(s-1) e_p(-x, lam) dx on the strip 0 < Re s < Re lam.

    Must equal Gamma(s)/(lam - s)^p. Evaluated in the log variable
    x = e^u, where both tails decay exponentially (rates Re s on the left
    and Re(lam - s) on the right); e_p(-x, lam) at large x comes from its
    own positive-integrand representation, since the alternating series is
    hopeless there (`core.evaluate`; the panels split where it switches).
    Both panels go through one batched `tanh_sinh` call; work counts the
    outer nodes plus the work of every `evaluate` call.
    """
    s, lam = complex(s), complex(lam)
    core._require_finite(s=s, p=p, lam=lam)
    if p < 0:
        raise DomainError("p must be >= 0")
    if not (0.0 < s.real < lam.real):
        raise DomainError(f"need 0 < Re s < Re lam, got s={s}, lam={lam}")
    inner_tol = tol / 50.0
    work = 0  # every evaluate call's work, then the outer nodes

    def g(u, idx):
        nonlocal work
        inner = core.evaluate(p, lam, -np.exp(u.ravel()), inner_tol)
        work += inner.work
        front = np.exp(s * u)
        return front * inner.value.reshape(u.shape), np.abs(front) * inner.abs_err_estimate.reshape(u.shape)

    # truncation points from the exponential envelopes in u
    u_mid = math.log(core._INTEGRAL_X)
    u_left = -(-math.log(tol / 6.0) + abs(p) * 2.0 + 5.0) / s.real
    rate_right = lam.real - s.real
    u_right = (-math.log(tol / 6.0) + 5.0) / rate_right
    while (p - 1) * math.log(max(u_right, 2.0)) - rate_right * u_right > math.log(tol / 6.0):
        u_right *= 1.3

    a, b = np.array([u_left, u_mid]), np.array([u_mid, u_right])
    val, err, nodes, ok = tanh_sinh(g, a, b, tol / 4.0, max_level=10)
    if not ok.all():
        i = np.argmin(ok)
        raise _not_converged(f"mellin transform panel [{a[i]:g}, {b[i]:g}]", val[i], err[i], tol / 4.0)
    return EvalResult(complex(val.sum()), float(err.sum()) + tol / 3.0, work + nodes, "quadrature")


def vanishing_moment(p: int, lam, tol: float = 1e-9) -> EvalResult:
    """integral_0^inf x^(lam-1) e^(-x) Q_p(-x, lam) dx; identically zero for
    p >= 1 (the s = lam endpoint of the Mellin strip)."""
    lam = complex(lam)
    core._require_finite(p=p, lam=lam)
    if p < 1:
        raise DomainError("vanishing moments are stated for p >= 1")
    core._require_lam(lam)

    def f(x):  # values and their rounding bound
        return core._closed_form(p, lam, -x, (lam - 1.0) * np.log(x) - x)

    return quad_semiinfinite(f, 1.0, float(p) + lam.real - 1.0, tol, _split_point(1.0, lam))


def _gamma_weighted(g, s, lam, x, tol):
    """integral_0^inf t^(s-1) e^(-lam t) g(t) dt for g bounded at large t:
    the form of both Mellin representations below."""
    f = lambda t: np.exp((s - 1.0) * np.log(t)) * np.exp(-lam * t) * g(t)
    return quad_semiinfinite(f, lam.real, max(s.real - 1.0, 0.0), tol, _split_point(abs(x), lam))


def mellin_s_representation(s, lam, x, tol: float = 1e-10) -> EvalResult:
    """integral_0^inf t^(s-1) e^(-lam t) e^(x e^(-t)) dt = Gamma(s) e_s(x, lam),
    for Re s > 0."""
    s, lam, x = complex(s), complex(lam), complex(x)
    core._require_finite(s=s, lam=lam, x=x)
    if s.real <= 0:
        raise DomainError("need Re s > 0")
    core._require_lam(lam)
    return _gamma_weighted(lambda t: np.exp(x * np.exp(-t)), s, lam, x, tol)


def h_mellin_representation(s, lam, x, tol: float = 1e-10) -> EvalResult:
    """integral_0^inf t^(s-1) e^(-lam t) [e^x - e^(x e^(-t))]/(1 - e^(-t)) dt,
    which equals Gamma(s) h_s(x, lam) for Re s > 1.

    The t -> 0 singularity of the bracket/(1 - e^(-t)) pair is removable;
    expm1 keeps the quotient fully accurate down to t = 0, so no series
    switch is needed.
    """
    s, lam = complex(s), complex(lam)
    x = float(x)
    core._require_finite(s=s, lam=lam, x=x)
    if s.real <= 1:
        raise DomainError("need Re s > 1")
    core._require_lam(lam)
    ex = math.exp(x)
    return _gamma_weighted(lambda t: ex * np.expm1(x * np.expm1(-t)) / np.expm1(-t), s, lam, x, tol)


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
