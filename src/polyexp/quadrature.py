"""Quadrature engines.

Two rule families, their tables memoized, built lazily on first use and
handed out as read-only arrays: Clenshaw-Curtis on the nested Chebyshev
points cos(j pi / m), as weights (the Hankel contour) and as a
cumulative-integration matrix (the recursion route's tail integrations),
and tanh-sinh, the abscissae and weights of each level.

A level-doubling tanh-sinh (double-exponential) rule for finite intervals,
able to absorb integrable endpoint singularities (its integrand maps one
level's array of nodes to an array of values), plus the semi-infinite
driver used by the transform layer: double-exponential core on
(0, split), then a log-space tail cut where the integrand's declared
exponential envelope leaves less than the target, that remainder going
into the error estimate.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .result import EvalResult, QuadratureError

_HALF_PI = math.pi / 2.0
_U_MAX = 5.5  # tanh-sinh truncation; weights are ~1e-160 here
_MIN_LEVEL = 3  # tanh-sinh starts at mesh 2^-3
_MAX_LEVEL = 12  # tanh-sinh levels of the semi-infinite driver's core and tail


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=32)
def clenshaw_curtis(m: int):
    """Chebyshev points t_j = cos(j pi / m), j = 0..m (t_0 = 1, t_m = -1),
    and the Clenshaw-Curtis weights of [-1, 1]: the last row of
    `chebyshev_tail_rule(m)` without its O(m^2) matrix.

    The weights are w_j = (2/m) h_j sum_k h_k mu_k cos(j k pi / m), with
    h = 1/2 at both ends and mu_k = 2/(1 - k^2) (even k; 0 for odd k) the
    integral of T_k: one DCT-I of the moments, done as a real FFT of
    their even extension. t_m is t_2m[::2] exactly, so a caller that
    doubles m keeps every value it has.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    t = np.cos(math.pi * np.arange(m + 1) / m)
    k = np.arange(0, m + 1, 2)
    moments = np.zeros(m + 1)
    moments[k] = 2.0 / (1.0 - k * k)
    # sum over the extension [mu_0 .. mu_m, mu_(m-1) .. mu_1] = 2 sum_k h_k mu_k cos
    w = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real / m
    w[[0, -1]] *= 0.5
    return _read_only(t, w)


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

    total, nev = evaluate(_MIN_LEVEL, only_odd=False)
    value = r * total
    err = math.inf
    for level in range(_MIN_LEVEL + 1, max_level + 1):
        extra, n2 = evaluate(level, only_odd=True)
        new_value = 0.5 * value + r * extra
        nev += n2
        err = abs(new_value - value)
        value = new_value
        if err <= max(tol, tol * abs(value)):
            return value, err, nev, True
    return value, err, nev, False


def _envelope_constant(f: Callable, rate: float, power: float, split: float) -> float:
    t = split * np.array([1.0, 1.5, 2.5, 4.0])
    ref = t**power * np.exp(-rate * t)
    seen = ref != 0.0
    ratios = np.abs(np.asarray(f(t), dtype=complex))[seen] / ref[seen]
    return 2.0 * float(np.max(ratios, initial=0.0))  # safety factor


def _exp_tail_bound(c: float, rate: float, power: float, T: float) -> float:
    """Bound for integral of C t^power e^(-rate t) over (T, inf)."""
    if c == 0.0:
        return 0.0
    slack = 1.0 - power / (rate * T) if power > 0 else 1.0
    if slack <= 0.1:
        return math.inf
    return c * T**power * math.exp(-rate * T) / (rate * slack)


def _head_and_panel(f: Callable, split: float, T: float, tol: float):
    """(value, err, nodes) of f over (0, T): tanh-sinh on (0, split), then in
    t = split e^v on (split, T), each to tol/4."""
    core, core_err, work, ok = tanh_sinh(f, 0.0, split, tol / 4, max_level=_MAX_LEVEL)
    if not ok:
        raise _not_converged(f"core interval (0, {split:g})", core, core_err, tol / 4)
    g = lambda v: f(split * np.exp(v)) * split * np.exp(v)
    tail, tail_err, nev, ok = tanh_sinh(g, 0.0, math.log(T / split), tol / 4, max_level=_MAX_LEVEL)
    if not ok:
        raise _not_converged(f"tail integration over ({split:g}, {T:g})", tail, tail_err, tol / 4)
    return core + tail, core_err + tail_err, work + nev


def quad_semiinfinite(f: Callable, rate: float, power: float, tol: float, split: float) -> EvalResult:
    """Integrate f over (0, inf), where f maps an array of nodes to an array
    of values as in `tanh_sinh` and |f(t)| <= C t^power e^(-rate t) for
    large t, rate > 0 and power real, with C estimated by sampling.

    Core interval (0, split) by tanh-sinh; the tail by log-space
    tanh-sinh out to a truncation point where the envelope's remainder
    falls under tol/4, with that remainder added to the error estimate.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if split <= 0:
        raise ValueError("split must be positive")
    if rate <= 0 or isinstance(power, complex):
        raise ValueError(f"the envelope needs rate > 0 and a real power, got {rate}, {power}")
    c = _envelope_constant(f, rate, power, split)
    T = split * 2.0
    hops = 0
    while (remainder := _exp_tail_bound(c, rate, power, T)) > tol / 4:
        if hops == 59:
            raise QuadratureError(f"could not place the tail truncation point: last T {T:g}, "
                                  f"its bound {remainder:g} (target {tol / 4:g})")
        T *= 1.5
        hops += 1
    value, err, work = _head_and_panel(f, split, T, tol)
    return EvalResult(value, err + remainder, work, "quadrature")
