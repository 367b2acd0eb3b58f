"""The h_s(x, lam, w) series family.

h_s(x, lam, w) = sum_{n>=1} x^n/n! * sum_{j<n} w^j/(lam+j)^s, the
exponential generating function of generalized-harmonic-type prefix sums
(|w| <= 1, Re lam > 0). Routes: the direct sum of core.eval_series with
the prefix sums P_n as its coefficients (core._direct_sum), the
quadrature representation h_s = e^x int_0^x e^(-t) e_s(t w, lam) dt, the
Ein-based closed form at s = lam = 1, and exact closed forms at negative
integer s. The quadrature's integrand e^(-t) e_s(t w, lam) and the Borel
probes e^(-x) h_s both go through the Poisson-window kernel of
core.exp_weighted_series; the large-lam expansion mirrors the
polyexponential one with phi_n replaced by its antiderivative.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import core, exact, transforms
from .core import _EPS
from .quadrature import _not_converged, clenshaw_curtis_quad
from .result import ConditioningError, DomainError, EvalResult

__all__ = [
    "HSeriesParams",
    "BorelPoint",
    "h_direct",
    "h_quadrature",
    "h1_closed",
    "h_neg_eval",
    "h_neg_poly_forms",
    "h_neg_alt_eval",
    "borel_probe",
    "h_asymptotic_lambda",
]


@dataclass(frozen=True)
class HSeriesParams:
    """Arguments of h_s(x, lam, w), checked and converted: complex numbers,
    or for a 1-D numpy array x a complex array with s and lam numbers or
    complex arrays of its shape, one pair per node (`core._grid_args`); w
    stays a number. DomainError for non-finite values, Re lam <= 0 or
    |w| > 1."""

    s: complex
    lam: complex
    w: complex
    x: complex

    def __post_init__(self):
        s, lam, x, nodes = core._grid_args(self.s, self.lam, self.x)
        if nodes:
            x = x.astype(complex)
        w = complex(self.w)
        for name, value in (("s", s), ("lam", lam), ("w", w), ("x", x)):
            object.__setattr__(self, name, value)
        if not abs(w) <= 1.0 + 1e-12:  # NaN fails too
            raise DomainError(f"w must be finite with |w| <= 1, got w = {w}")


def h_direct(params: HSeriesParams, tol: float = 1e-12) -> EvalResult:
    """The direct sum of `core.eval_series` with the prefix sums P_n in place
    of (n+lam)^-s (`core._direct_sum`): |P_(n+1)| enters the tail bound,
    and the rounding level grows with the number of terms. work is the
    last index n (its n = 0 term, P_0, is 0).

    An array x (1-D) sums every node in one pass (`core._series_sum`) over
    the rows of P_n of each (s, lam) pair, s and lam numbers or per node;
    each node stops where the number would, value and abs_err_estimate are
    arrays, and work is the total."""
    value, err, last = core._direct_sum(params.s, params.lam, params.x, tol, params.w)
    return EvalResult(value, err, last, "h_series")


def h_quadrature(params: HSeriesParams, tol: float = 1e-10) -> EvalResult:
    """h_s = e^x int_0^x e^(-t) e_s(t w, lam) dt over the segment t = x u, where
    e^(-x u) e_s(x u w, lam) = e^((|x| - x) u) `core.exp_weighted_series`(s, lam,
    x w/|x|, |x| u), entire in u: nested Clenshaw-Curtis points on [0, 1]
    (`clenshaw_curtis_quad`), one kernel call per call of the integrand (the
    first rule's points, then each doubling's new ones) at one-hundredth of
    the target. The integrand carries the factor x e^x, so the rule's test
    max(tol, tol |value|) holds for h itself. ConditioningError where that
    weight would overflow binary64, ConvergenceError where x e^x would."""
    s, lam, w, x = params.s, params.lam, params.w, params.x
    if x == 0:
        return EvalResult(0.0 + 0.0j, 0.0, 0, "h_quadrature")
    if abs(x) - x.real > math.log(sys.float_info.max):
        raise ConditioningError(f"h quadrature weight e^((|x| - Re x) u) overflows binary64 at x = {x}")
    if x.real > core._LOG_MAX or not cmath.isfinite(scale := x * cmath.exp(x)):
        raise core._Overflow(f"h quadrature's factor x e^x overflows binary64 at x = {x}")
    inner_tol = tol / 100.0
    terms = 0

    def f(u):  # scale last: e^((|x| - x) u) alone may pass binary64 where the product does not
        nonlocal terms
        values, errs, n = core.exp_weighted_series(s, lam, x * w / abs(x), abs(x) * u, inner_tol)
        terms += n
        factor = np.exp((abs(x) - x) * u)
        return values * factor * scale, errs * np.abs(factor) * abs(scale)

    val, err, nodes, ok = clenshaw_curtis_quad(f, 0.0, 1.0, tol)
    if not ok:
        raise _not_converged(f"h quadrature at x = {x}", val, err, tol)
    return EvalResult(val, err, nodes + terms, "h_quadrature")


def h1_closed(w, x) -> complex:
    """h_1(x, 1, w) = (e^x / w) [Ein(x) - Ein(x (1-w))], w != 0."""
    w, x = complex(w), complex(x)
    if w == 0:
        raise DomainError("closed form needs w != 0")
    return cmath.exp(x) / w * (core.ein(x) - core.ein(x * (1.0 - w)))


def h_neg_poly_forms(p: int) -> tuple[exact.ExactPoly, exact.ExactPoly]:
    """The two exact assemblies of g_p (h_{-p}(x) = e^x g_p(x)):
    Stirling-over-k versus phi_p(x) - phi_p(0) + int_0^x phi_p. They must
    coincide; the boundary value phi_p(0) only matters at p = 0."""
    direct = exact.h_neg_closed_poly(p)
    phi = exact.phi_poly(p)
    boundary = exact.ExactPoly([phi.coefficient(0)])
    via_phi = phi - boundary + exact.phi_antiderivative(p)
    return direct, via_phi


def h_neg_eval(p: int, x) -> complex:
    """h_{-p}(x, 1, 1) = e^x g_p(x) with exact g_p."""
    if p < 0:
        raise DomainError("p must be >= 0")
    x = complex(x)
    return cmath.exp(x) * complex(exact.h_neg_closed_poly(p)(x))


def _exp2_antiderivative(q: exact.ExactPoly) -> exact.ExactPoly:
    """A with d/dt [e^(-2t) A(t)] = e^(-2t) q(t): A = -sum_j q^(j)/2^(j+1)."""
    from fractions import Fraction

    acc = exact.ExactPoly()
    deriv = q
    scale = Fraction(-1, 2)
    while not deriv.is_zero():
        acc = acc + scale * deriv
        deriv = deriv.derivative()
        scale = scale / 2
    return acc


def h_neg_alt_eval(p: int, x, tol: float = 1e-13) -> EvalResult:
    """h_{-p}(x, 1, -1) = -phi_p(-x) e^(-x) - e^x int_0^x e^(-2t) phi_p(-t) dt
    for p >= 1, with the integral done exactly over the polynomial.

    The p = 0 case has a boundary term phi_0(0) = 1 that this form lacks;
    use h_direct there.
    """
    if p < 1:
        raise DomainError("alternating closed form holds for p >= 1; use h_direct at p = 0")
    x = complex(x)
    phi = exact.phi_poly(p)
    q = phi.compose_linear(-1, 0)  # phi_p(-t)
    anti = _exp2_antiderivative(q)
    integral = cmath.exp(-2.0 * x) * complex(anti(x)) - complex(anti(exact.Fraction(0)))
    value = -complex(q(x)) * cmath.exp(-x) - cmath.exp(x) * integral
    est = 8.0 * _EPS * (abs(complex(q(x))) * abs(cmath.exp(-x)) + abs(cmath.exp(x) * integral) + abs(value))
    return EvalResult(value, est, p + 1, "closed_form")


class BorelPoint(NamedTuple):
    x: float
    scaled_value: complex  # e^(-x) h_s(x, lam, w)
    target: complex


def borel_probe(s, lam, w, x_grid: Sequence[float], tol: float = 1e-9) -> list[BorelPoint]:
    """e^(-x) h_s(x, lam, w) along an ascending positive grid, paired with
    the limit it should approach: Phi(w, s, lam) for |w| < 1, zeta(s, lam)
    at w = 1 (Re s > 1), eta(s, lam) at w = -1; tol is the targets'.

    e^(-x) h_s = sum_n P(n; x) P_n, Poisson weights P(n; x) times the prefix
    sums P_n = sum_{j<n} w^j (j+lam)^-s, goes through the Poisson-window
    kernel of `core.exp_weighted_series` at its tol 1e-14, the P_n those
    of `h_direct`'s array path (`core._prefix_rows`).
    """
    s, lam, w = complex(s), complex(lam), complex(w)
    grid = [float(x) for x in x_grid]
    if any(x <= 0 for x in grid) or sorted(grid) != grid:
        raise DomainError("x_grid must be ascending and positive")
    if grid[-1] > 700.0:
        raise DomainError("grid capped at x = 700")

    if w == -1.0:
        target = transforms.eta(s, lam, tol=tol).value
    elif abs(w) < 1.0 - 1e-14 or w == 1.0:  # Phi(1, s, lam) = zeta(s, lam), Re s > 1
        target = transforms.lerch_phi(w, s, lam, tol=tol).value
    else:
        raise DomainError("no defined target for |w| = 1 off the real axis")

    def log_env(n):  # |P_n| <= n max_{j<n} |(j+lam)^-s|
        first = core._log_coefficient_bound(s, lam, 0.0)
        return np.log1p(n) + np.maximum(first, core._log_coefficient_bound(s, lam, n))

    x = np.array(grid)
    n_lo, n_hi, _ = core._poisson_window(x, np.zeros_like(x), log_env, 1.0 + max(0.0, -s.real), 1e-14)
    prefix = core._prefix_rows((s,), (lam,), w, int(n_hi.max()))[0]
    values = core._poisson_sum(x, np.zeros_like(x), n_lo, n_hi, prefix, np.abs(prefix))[0]
    return [BorelPoint(x=xi, scaled_value=complex(v), target=target) for xi, v in zip(grid, values)]


def h_asymptotic_lambda(s, lam, x, order: int) -> EvalResult:
    """Large-lam expansion e^x sum_n C(-s, n) [int_0^x phi_n] lam^(-n-s);
    first-omitted-term error estimate."""
    if order < 0 or order > 10:
        raise DomainError("order must be in 0..10")
    return core._lambda_expansion(s, lam, x, order, exact.phi_antiderivative)
