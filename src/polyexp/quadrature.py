"""Quadrature engines.

Three memoized rule tables, each built lazily on first use and handed
out as read-only arrays: Gauss-Legendre nodes and weights (the Hankel
contour panels), the Chebyshev cumulative-integration matrix of the
Clenshaw-Curtis rule (the recursion route's tail integrations) and the
tanh-sinh abscissae and weights of each level.

A level-doubling tanh-sinh (double-exponential) rule for finite intervals,
able to absorb integrable endpoint singularities (its integrand maps one
level's array of nodes to an array of values), plus the semi-infinite
driver used by the transform layer: double-exponential core on
(0, split), then a tail handled under the integrand's declared decay
envelope. Exponential envelopes get a truncated log-space integration
with an explicit remainder bound; pure power-law envelopes get a
Richardson ladder over doubling truncation points, since no binary64
truncation point is far enough out on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .result import EvalResult, QuadratureError

_HALF_PI = math.pi / 2.0
_U_MAX = 5.5  # tanh-sinh truncation; weights are ~1e-160 here
_MAX_LEVEL = 12  # tanh-sinh levels of the semi-infinite driver's core and tail
_LADDER_POINTS = 9  # partial integrals of the power-law tail ladder


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _legendre_pair(n: int, x):
    """(P_n(x), P_(n-1)(x)) by the three-term recurrence, n >= 1."""
    prev, cur = np.ones_like(x), x
    for k in range(2, n + 1):
        prev, cur = cur, ((2 * k - 1) * x * cur - (k - 1) * prev) / k
    return cur, prev


@functools.lru_cache(maxsize=32)
def gauss_legendre(n: int):
    """n-point Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton iteration on P_n, evaluated by the three-term recurrence and
    started from Tricomi's asymptotic roots, on the non-negative half;
    the other half is its mirror image. Each sweep costs O(n^2) and
    three or four sweeps suffice, so no n x n eigen-solve is needed and
    n = 8192 builds in well under a second.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    i = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (1.0 - 1.0 / n) / (8.0 * n * n)) * np.cos(math.pi * (4 * i - 1) / (4 * n + 2))
    for _ in range(20):
        p_n, p_prev = _legendre_pair(n, x)
        step = p_n * (1.0 - x) * (1.0 + x) / (n * (p_prev - x * p_n))
        x = x - step
        if np.max(np.abs(step)) < 1e-15:
            break
    p_n, p_prev = _legendre_pair(n, x)
    # w = 2 / ((1 - x^2) P_n'(x)^2), (1 - x^2) P_n'(x) = n (P_(n-1)(x) - x P_n(x))
    w = 2.0 * (1.0 - x) * (1.0 + x) / (n * (p_prev - x * p_n)) ** 2
    mid = n % 2
    if mid:
        x[-1] = 0.0  # the middle root
    nodes = np.concatenate([-x, x[::-1][mid:]])
    weights = np.concatenate([w, w[::-1][mid:]])
    return _read_only(nodes, weights)


@functools.lru_cache(maxsize=32)
def chebyshev_tail_rule(m: int):
    """Chebyshev points t_j = cos(j pi / m), j = 0..m (t_0 = 1, t_m = -1),
    and the matrix S with (S f)_j = integral from t_j to 1 of the degree-m
    interpolant of f at those points: the cumulative form of the
    Clenshaw-Curtis rule (Numer. Math. 2, 1960). Row m holds the
    Clenshaw-Curtis weights of the whole interval.

    S = A D in closed form: D maps values to Chebyshev coefficients
    (a DCT-I) and A[j, k] = integral from t_j to 1 of T_k.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    theta = math.pi * np.arange(m + 1) / m
    t = np.cos(theta)
    k = np.arange(2, m + 1)
    a = np.empty((m + 1, m + 1))
    a[:, 0] = 1.0 - t
    a[:, 1] = 0.5 * (1.0 - t * t)
    # T_k integrates to T_(k+1)/(2(k+1)) - T_(k-1)/(2(k-1)) for k >= 2
    a[:, 2:] = (1.0 - np.cos(np.outer(theta, k + 1))) / (2.0 * (k + 1)) - (
        1.0 - np.cos(np.outer(theta, k - 1))
    ) / (2.0 * (k - 1))
    half_ends = np.ones(m + 1)
    half_ends[[0, -1]] = 0.5
    jk = np.outer(np.arange(m + 1), np.arange(m + 1)) % (2 * m)
    d = (2.0 / m) * half_ends[:, None] * half_ends[None, :] * np.cos(math.pi * jk / m)
    return _read_only(t, a @ d)


@functools.lru_cache(maxsize=32)
def _level_nodes(level: int, previous_only_odd: bool):
    """tanh-sinh abscissae for mesh h = 2^-level on [-1, 1].

    Returns read-only (offset_a, offset_b, weight) arrays where
    offset_a = 1 + x and offset_b = 1 - x are computed in a
    cancellation-free form, so endpoint distances stay meaningful down to
    ~1e-160. Memoized: every `tanh_sinh` call shares one table per level.
    """
    h = 2.0 ** (-level)
    if previous_only_odd and level > 0:
        j = np.arange(1, int(_U_MAX / h) + 1, 2)
    else:
        j = np.arange(0, int(_U_MAX / h) + 1)
    u = j * h
    v = _HALF_PI * np.sinh(u)
    w = h * _HALF_PI * np.cosh(u) / np.cosh(v) ** 2
    # 1 -+ tanh(v) without cancellation
    far = 2.0 / (np.exp(2.0 * v) + 1.0)  # 1 - tanh(v)
    near = 2.0 - far  # 1 + tanh(v)
    # mirror to negative u; node at u=0 must not be duplicated
    if not previous_only_odd or level == 0:
        mask = j > 0
        off_a = np.concatenate([far[mask][::-1], near])
        off_b = np.concatenate([near[mask][::-1], far])
        weight = np.concatenate([w[mask][::-1], w])
    else:
        off_a = np.concatenate([far[::-1], near])
        off_b = np.concatenate([near[::-1], far])
        weight = np.concatenate([w[::-1], w])
    return _read_only(off_a, off_b, weight)


def _not_converged(what: str, estimate, difference: float, target: float) -> QuadratureError:
    """The error a refinement raises when it misses its target, with its last numbers."""
    return QuadratureError(f"{what} did not converge: last estimate {estimate:.12g}, "
                           f"last difference {difference:g} (target {target:g})")


def tanh_sinh(
    f: Callable,
    a: float,
    b: float,
    tol: float = 1e-12,
    max_level: int = 11,
    min_level: int = 3,
):
    """Integrate f over [a, b] by level-doubling tanh-sinh quadrature.

    f maps the numpy array of a level's new nodes to an array of values, one
    call per level. Returns (value, err_estimate, nevals, converged). The
    integrand may return complex values and may blow up at either endpoint
    as long as the singularity is integrable; nodes never land on a or b.
    """
    if b == a:
        return 0.0 + 0.0j, 0.0, 0, True
    r = 0.5 * (b - a)

    def evaluate(level, only_odd):
        off_a, off_b, weight = _level_nodes(level, only_odd)
        t = np.where(off_a <= off_b, a + r * off_a, b - r * off_b)
        keep = (t > a) & (t < b)
        t, weight = t[keep], weight[keep]
        vals = np.asarray(f(t), dtype=complex)
        bad = ~np.isfinite(vals)
        if bad.any():
            vals = np.where(bad, 0.0, vals)
        return complex(np.sum(vals * weight)), len(t)

    total, nev = evaluate(min_level, only_odd=False)
    value = r * total
    err = math.inf
    for level in range(min_level + 1, max_level + 1):
        extra, n2 = evaluate(level, only_odd=True)
        new_value = 0.5 * value + r * extra
        nev += n2
        err = abs(new_value - value)
        value = new_value
        if err <= max(tol, tol * abs(value)):
            return value, err, nev, True
    return value, err, nev, False


@dataclass(frozen=True)
class QuadratureSpec:
    """Targets for the semi-infinite driver."""

    target_tol: float = 1e-10
    split_point: float = 10.0

    def __post_init__(self):
        if self.target_tol <= 0:
            raise ValueError("target_tol must be positive")
        if self.split_point <= 0:
            raise ValueError("split_point must be positive")


@dataclass
class IntegrandHandle:
    """An integrand on (0, inf) with its declared decay envelope.

    f maps an array of nodes to an array of values, as in `tanh_sinh`;
    |f(t)| <= C * t^envelope_power * exp(-envelope_rate * t) for large t,
    with C estimated by sampling. envelope_rate may be 0 only when
    envelope_power < -1 (integrable power-law tail); in that case
    tail_exponent, when given, is the exact complex decay exponent sigma
    with f ~ t^-sigma used by the tail extrapolation ladder.
    """

    f: Callable
    envelope_rate: float
    envelope_power: float = 0.0
    tail_exponent: Optional[complex] = None

    def __post_init__(self):
        if self.envelope_rate < 0:
            raise ValueError("envelope_rate must be >= 0")
        if self.envelope_rate == 0 and self.envelope_power >= -1:
            raise ValueError("power-law tails need envelope_power < -1")


def _envelope_constant(handle: IntegrandHandle, split: float) -> float:
    t = split * np.array([1.0, 1.5, 2.5, 4.0])
    ref = t**handle.envelope_power * np.exp(-handle.envelope_rate * t)
    seen = ref != 0.0
    ratios = np.abs(np.asarray(handle.f(t), dtype=complex))[seen] / ref[seen]
    return 2.0 * float(np.max(ratios, initial=0.0))  # safety factor


def _exp_tail_bound(c: float, rate: float, power: float, T: float) -> float:
    """Bound for integral of C t^power e^(-rate t) over (T, inf)."""
    if c == 0.0:
        return 0.0
    slack = 1.0 - power / (rate * T) if power > 0 else 1.0
    if slack <= 0.1:
        return math.inf
    return c * T**power * math.exp(-rate * T) / (rate * slack)


def _log_panel(handle: IntegrandHandle, t0: float, t1: float, tol: float, max_level: int):
    """Integrate f over [t0, t1] after the substitution t = t0 * e^v."""
    vmax = math.log(t1 / t0)
    g = lambda v: handle.f(t0 * np.exp(v)) * t0 * np.exp(v)
    return tanh_sinh(g, 0.0, vmax, tol, max_level=max_level)


def _richardson_tail(handle: IntegrandHandle, core: complex, split: float, spec: QuadratureSpec):
    """Power-law tails: extrapolate I(T_j) over T_j = split * 2^j.

    With f ~ C t^-sigma (Re sigma > 1) the partial integrals satisfy
    I(inf) - I(T) = T^(1-sigma) * (b0 + b1/T + ...), so a Richardson
    ladder with exponents sigma - 1 + i converges fast.
    """
    sigma = handle.tail_exponent
    if sigma is None:
        sigma = complex(-handle.envelope_power)
    tol = spec.target_tol
    partials = []
    work = 0
    inner_err = 0.0
    current = core
    t_lo = split
    for _ in range(_LADDER_POINTS):
        t_hi = t_lo * 2.0
        val, err, nev, ok = _log_panel(handle, t_lo, t_hi, tol / (6 * _LADDER_POINTS), max_level=10)
        if not ok:
            raise _not_converged(f"tail panel [{t_lo:g}, {t_hi:g}]", val, err, tol / (6 * _LADDER_POINTS))
        current += val
        partials.append(current)
        inner_err += err
        work += nev
        t_lo = t_hi
    # Richardson ladder, ratio 2, exponent ladder sigma-1, sigma, sigma+1, ...
    rows = [list(partials)]
    stages = min(len(partials) - 1, 6)
    for i in range(stages):
        mu = sigma - 1.0 + i
        factor = 2.0**mu - 1.0
        prev = rows[-1]
        rows.append([prev[j + 1] + (prev[j + 1] - prev[j]) / factor for j in range(len(prev) - 1)])
    best = rows[-1][-1]
    second = rows[-2][-1]
    err = abs(best - second) + inner_err
    return best, err, work


def quad_semiinfinite(handle: IntegrandHandle, spec: QuadratureSpec) -> EvalResult:
    """Integrate handle.f over (0, inf).

    Core interval (0, split_point) by tanh-sinh; the tail by log-space
    tanh-sinh out to a truncation point justified by the envelope, with
    the envelope remainder added to the error estimate. Power-law
    envelopes (rate 0) use the extrapolation ladder instead, since the
    remainder bound alone would force absurd truncation points.
    """
    tol = spec.target_tol
    split = spec.split_point
    core, core_err, work, ok = tanh_sinh(handle.f, 0.0, split, tol / 4, max_level=_MAX_LEVEL)
    if not ok:
        raise _not_converged(f"core interval (0, {split:g})", core, core_err, tol / 4)

    if handle.envelope_rate > 0.0:
        c = _envelope_constant(handle, split)
        T = split * 2.0
        rate, power = handle.envelope_rate, handle.envelope_power
        hops = 0
        while (remainder := _exp_tail_bound(c, rate, power, T)) > tol / 4:
            if hops == 59:
                raise QuadratureError(f"could not place the tail truncation point: last T {T:g}, "
                                      f"its bound {remainder:g} (target {tol / 4:g})")
            T *= 1.5
            hops += 1
        tail, tail_err, nev, ok = _log_panel(handle, split, T, tol / 4, max_level=_MAX_LEVEL)
        if not ok:
            raise _not_converged(f"tail integration over ({split:g}, {T:g})", tail, tail_err, tol / 4)
        return EvalResult(core + tail, core_err + tail_err + remainder, work + nev, "quadrature")

    value, tail_err, nev = _richardson_tail(handle, core, split, spec)
    return EvalResult(value, core_err + tail_err, work + nev, "quadrature+tail_extrapolation")
