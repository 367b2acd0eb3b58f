"""The h_s(x, lam, w) series family.

h_s(x, lam, w) = sum_{n>=1} x^n/n! * sum_{j<n} w^j/(lam+j)^s, the
exponential generating function of generalized-harmonic-type prefix sums
(|w| <= 1, Re lam > 0). Routes: the direct double sum with a running
prefix (stop rule and growing rounding estimate of core.eval_series), the
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
from .quadrature import _not_converged, tanh_sinh
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
    s: complex
    lam: complex
    w: complex
    x: complex

    def __post_init__(self):
        object.__setattr__(self, "s", complex(self.s))
        object.__setattr__(self, "lam", complex(self.lam))
        object.__setattr__(self, "w", complex(self.w))
        object.__setattr__(self, "x", complex(self.x))
        core._require_lam(self.lam)
        if abs(self.w) > 1.0 + 1e-12:
            raise DomainError("|w| must be <= 1")


def h_direct(params: HSeriesParams, tol: float = 1e-12) -> EvalResult:
    """Direct sum with a running prefix, stopped by the rule of
    `core.eval_series` (`core._series_stop`): the prefix enters the tail
    bound, and the rounding level grows with the number of terms."""
    s, lam, w, x = params.s, params.lam, params.w, params.x
    acc = 0.0 + 0.0j
    sum_abs = 0.0
    prefix = 0.0 + 0.0j  # P_n = sum_{j<n} w^j (j+lam)^-s
    wpow = 1.0 + 0.0j
    xterm = 1.0 + 0.0j  # x^n / n!
    n = 0
    while True:
        term = xterm * prefix
        acc += term
        sum_abs += abs(term)
        prefix += wpow * cmath.exp(-s * cmath.log(lam + n))
        err = core._series_stop(s, lam, x, n, sum_abs, tol, prefix)
        if err is not None:
            return EvalResult(acc, err, n, "h_series")
        n += 1
        wpow *= w
        xterm *= x / n


def h_quadrature(params: HSeriesParams, tol: float = 1e-10) -> EvalResult:
    """h_s = e^x int_0^x e^(-t) e_s(t w, lam) dt over the segment t = x u, where
    e^(-x u) e_s(x u w, lam) = e^((|x| - x) u) `core.exp_weighted_series`(s, lam,
    x w/|x|, |x| u): one kernel call per level at one-hundredth of the target.
    ConditioningError where that weight would overflow binary64."""
    s, lam, w, x = params.s, params.lam, params.w, params.x
    if x == 0:
        return EvalResult(0.0 + 0.0j, 0.0, 0, "h_quadrature")
    if abs(x) - x.real > math.log(sys.float_info.max):
        raise ConditioningError(f"h quadrature weight e^((|x| - Re x) u) overflows binary64 at x = {x}")
    inner_tol = tol / 100.0
    inner_err = 0.0

    def f(u):
        nonlocal inner_err
        values, errs, _ = core.exp_weighted_series(s, lam, x * w / abs(x), abs(x) * u, inner_tol)
        factor = np.exp((abs(x) - x) * u)
        inner_err = max(inner_err, float(np.max(errs * np.abs(factor))))
        return values * factor

    scale = x * cmath.exp(x)
    target = tol / max(abs(scale), 1.0)
    val, err, work, ok = tanh_sinh(f, 0.0, 1.0, target)
    if not ok:
        raise _not_converged(f"h quadrature at x = {x}", val, err, target)
    return EvalResult(
        scale * val, abs(scale) * (err + inner_err), work, "h_quadrature"
    )


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
    kernel of `core.exp_weighted_series` at its tol 1e-14, the P_n being
    one cumulative sum of the kernel's coefficient table.
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
    size = int(n_hi.max()) + 1
    c = core._coefficients(s, lam, cmath.phase(w)).upto(size)[0][: size - 1]
    prefix = np.concatenate(([0.0], np.cumsum(c * abs(w) ** np.arange(size - 1))))
    values = core._poisson_sum(x, np.zeros_like(x), n_lo, n_hi, prefix, np.abs(prefix))[0]
    return [BorelPoint(x=xi, scaled_value=complex(v), target=target) for xi, v in zip(grid, values)]


def h_asymptotic_lambda(s, lam, x, order: int) -> EvalResult:
    """Large-lam expansion e^x sum_n C(-s, n) [int_0^x phi_n] lam^(-n-s);
    first-omitted-term error estimate."""
    if order < 0 or order > 10:
        raise DomainError("order must be in 0..10")
    return core._lambda_expansion(s, lam, x, order, exact.phi_antiderivative)
