"""Quadrature engines.

Two rule families, their tables memoized, built lazily on first use and
handed out as read-only arrays: Clenshaw-Curtis on the nested Chebyshev
points cos(j pi / m), as weights (`clenshaw_curtis_quad`) and as a
cumulative-integration matrix (the recursion route's tail integrations),
and tanh-sinh, the abscissae and weights of each level.

Two drivers for one finite interval share one contract: f takes an array
of nodes and returns values or (values, errs); the result is (value,
err, nodes, converged), err the last refinement's difference plus the
noise, the rule applied to each node's 16 eps |f| + errs. Every integrand
analytic on the closed interval, endpoints included, runs on one nested
Clenshaw-Curtis refinement (`clenshaw_curtis_quad`), which converges
geometrically there: the Laplace integrands e^(-t) e_s(z t, lam) of the
transforms and the h quadrature, entire in t, the Mellin-Barnes line
integral, and the Hankel contour (`core._hankel_raw`). Its first call
takes the 65 points of m = 64, each later call the new points of the
doubled rule, and one stop rule serves them all. A level-doubling
tanh-sinh (double-exponential) rule is left for integrable endpoint
singularities, the t^alpha of the Mellin representations and vanishing
moments: it calls its integrand once on the first two levels' nodes (the
first level never stops the rule) and then once a level on its new nodes.

Plus the semi-infinite driver of the transform layer: one interval in
v = log1p(t/split), linear near 0 and logarithmic past split, on either
rule, out to where the integrand's declared exponential envelope leaves
less than the target, that remainder going into the estimate. The
envelope's constant comes from the nodes of the rule's first call of the
integrand and from the nodes near the end of each interval, not from a
separate sample.
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
_MAX_LEVEL = 12  # tanh-sinh levels of the semi-infinite driver
_NOISE = 16.0 * 2.0**-52  # rounding charged to each node, relative to its |f|
_CC_FIRST = 64  # m of the nested Clenshaw-Curtis driver's first call, 65 points
_CC_MAX = 2**13  # its last rule, 8193 points


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
    doubles m keeps every value it has, and the m/2 and m/4 rules sit on
    every other and every fourth point.
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


def _tail_integrate(values, matrix, h):
    """int_sigma^right of a function sampled on equal panels of length h
    over [left, right]: values[k, j] sits at sigma = left + (k + (1 + t_j)
    / 2) h for the points t_j of `matrix` (`chebyshev_tail_rule`), and so
    does the result. Inside a panel the cumulative rule integrates up to its
    right end; the totals of the panels to the right follow as a running sum.
    """
    local = (0.5 * h) * (values @ matrix.T)
    right = np.cumsum(local[::-1, -1])[::-1]
    local[:-1] += right[1:, None]
    return local


@functools.lru_cache(maxsize=32)
def _level_nodes(level: int):
    """tanh-sinh abscissae for mesh h = 2^-level on [-1, 1], in increasing
    order: every node at the first level `_MIN_LEVEL`, the new (odd) ones
    above it.

    Returns read-only (offset, weight, near_b) arrays: offset is 1 + x of
    the nodes with x <= 0 and -(1 - x) of the rest (near_b), computed in a
    cancellation-free form, so endpoint distances stay meaningful down to
    ~1e-160; a node of [a, b] is then (b if near_b else a) + (b - a)/2
    offset. Memoized: every `tanh_sinh` call shares one table per level.
    """
    h = 2.0 ** (-level)
    odd = level > _MIN_LEVEL  # the even j are the nodes of the coarser levels
    j = np.arange(int(odd), int(_U_MAX / h) + 1, 1 + odd)
    u = j * h
    v = _HALF_PI * np.sinh(u)
    w = h * _HALF_PI * np.cosh(u) / np.cosh(v) ** 2
    far = 2.0 / (np.exp(2.0 * v) + 1.0)  # 1 - tanh(v) without cancellation
    # mirror to negative u; the node at u = 0 must not be duplicated
    positive = j > 0
    offset = np.concatenate([far[::-1], -far[positive]])
    near_b = np.arange(offset.size) >= j.size
    return _read_only(offset, np.concatenate([w[::-1], w[positive]]), near_b)


def _not_converged(what: str, estimate, difference: float, target: float) -> QuadratureError:
    """The error a refinement raises when it misses its target, with its last numbers."""
    return QuadratureError(f"{what} did not converge: last estimate {estimate:.12g}, "
                           f"last difference {difference:g} (target {target:g})")


def tanh_sinh(f: Callable, a: float, b: float, tol: float = 1e-12, max_level: int = 11):
    """Integrate f over [a, b] by level-doubling tanh-sinh quadrature.

    f maps a numpy array of nodes to an array of values, or to (values,
    errs) with errs bounding each value's own error. The first level never
    stops the rule, so the first call of f takes the first two levels'
    nodes (the first level's, then the second's new ones) and every later
    call one level's new nodes. Returns (value, err_estimate, nevals,
    converged): converged once the level difference meets
    max(tol, tol |value|), err that difference plus the rule applied to
    16 eps |f| + errs. f may be complex and blow up integrably at either
    endpoint; a non-finite value counts as 0, with its errs. Nodes that
    round onto an endpoint are left out, so f sees only interior nodes.
    """
    if b == a:
        return 0.0 + 0.0j, 0.0, 0, True
    r = 0.5 * (b - a)
    levels = range(_MIN_LEVEL, max_level + 1)
    current, noise, diff = 0j, 0.0, math.inf
    nevals = 0
    sums = []  # (total, spread, nodes) of levels whose nodes f has seen
    for level in levels:
        if not sums:
            sums = _level_sums(f, levels[:2] if level == _MIN_LEVEL else (level,), a, b, r)
        total, spread, n = sums.pop(0)
        nevals += n
        if level == _MIN_LEVEL:
            current, noise = total, spread
            continue
        new, noise = 0.5 * current + total, 0.5 * noise + spread
        diff = abs(new - current)
        current = new
        if diff <= tol * max(1.0, abs(new)):
            return new, diff + noise, nevals, True
    return current, diff + noise, nevals, False


def _level_sums(f: Callable, levels, a: float, b: float, r: float) -> list:
    """(r sum w f, |r| sum w (16 eps |f| + errs), nodes) over the interior new
    nodes of each of `levels`, from one call of f on all of them."""
    nodes, weights = [], []
    for level in levels:
        offset, weight, near_b = _level_nodes(level)
        t = np.where(near_b, b, a) + r * offset
        # the nodes increase, so those inside (a, b) are one run, found by bisection
        inside = slice(np.searchsorted(t, a, "right"), np.searchsorted(t, b))
        nodes.append(t[inside])
        weights.append(weight[inside])
    vals, modulus, rounding = _values_rounding(f(np.concatenate(nodes)))
    rounding = _NOISE * modulus if rounding is None else rounding
    vals = vals.astype(complex, copy=False)  # one summation for real and complex f: numpy orders the two apart
    sums, lo = [], 0
    for w in weights:
        part = slice(lo, lo := lo + w.size)
        sums.append((r * complex(np.add.reduce(vals[part] * w)),
                     abs(r) * float(np.add.reduce(rounding[part] * w)), w.size))
    return sums


def _values_errs(out):
    """An integrand's values and errs: errs is None when it returns values only."""
    return out if isinstance(out, tuple) else (out, None)


def _values_rounding(out):
    """An integrand's values, their moduli and, where it returns errs, each
    node's 16 eps |f| + errs (None where it does not: the rule of 16 eps |f|
    is 16 eps times the rule of |f|). A non-finite value counts as 0, and so
    do its modulus and its rounding; real values stay real."""
    vals, errs = _values_errs(out)
    vals = np.asarray(vals)
    modulus = np.abs(vals)
    rounding = None if errs is None else _NOISE * modulus + errs
    if not (finite := np.isfinite(vals)).all():
        vals, modulus = np.where(finite, vals, 0.0), np.where(finite, modulus, 0.0)
        rounding = None if errs is None else np.where(finite, rounding, 0.0)
    return vals, modulus, rounding


def clenshaw_curtis_quad(f: Callable, a: float, b: float, tol: float = 1e-12):
    """Integrate f over [a, b] on the nested points a + r (1 - t) of
    `clenshaw_curtis(m)`, r = (b - a)/2, m doubling from `_CC_FIRST` to
    `_CC_MAX`: the rule for an integrand analytic on [a, b], endpoints
    included, where it converges geometrically.

    f is called as in `tanh_sinh`, and the result has its form (value,
    err_estimate, nevals, converged). The first call of f takes the m + 1
    points of m = `_CC_FIRST`, judged against the m/2 and m/4 rules on its
    even and every-fourth points; each later call takes the m new odd points
    of the doubled rule, so no point is evaluated twice. Settled once
    |I_2m - I_m| <= max(tol, tol |I_2m|) and either that difference is
    under the noise, the rule applied to 16 eps |f| + errs, or the integrals
    of |f| agree to 1 % and the difference shrank tenfold: two rules that
    both miss a narrow peak, or alias one oscillation, agree as well, but
    fail the last two tests. Unsettled once the difference falls under
    16 eps times the integral of |f|, where rounding leaves the sum (not
    under the noise: a kernel's errs bound more than its rounding, and the
    Laplace integrals converge through them), or at m = `_CC_MAX`. err is
    the last difference plus the noise.
    """
    if b == a:
        return 0.0 + 0.0j, 0.0, 0, True
    r = 0.5 * (b - a)
    m = _CC_FIRST
    t, weights = clenshaw_curtis(m)
    vals, modulus, rounding = _values_rounding(f(a + r * (1.0 - t)))
    half, quarter = clenshaw_curtis(m // 2)[1], clenshaw_curtis(m // 4)[1]
    prev, prev_size = r * complex(vals[::2] @ half), abs(r) * float(modulus[::2] @ half)
    diff = abs(prev - r * complex(vals[::4] @ quarter))
    while True:
        total, size = r * complex(vals @ weights), abs(r) * float(modulus @ weights)
        noise = _NOISE * size if rounding is None else abs(r) * float(rounding @ weights)
        prev_diff, diff = diff, abs(total - prev)
        if diff <= tol * max(1.0, abs(total)) and (
                diff <= noise or (abs(size - prev_size) <= 0.01 * size and diff <= 0.1 * prev_diff)):
            return total, diff + noise, vals.size, True
        if diff <= _NOISE * size or m >= _CC_MAX:
            return total, diff + noise, vals.size, False
        m, prev, prev_size = 2 * m, total, size
        t, weights = clenshaw_curtis(m)
        new = _values_rounding(f(a + r * (1.0 - t[1::2])))
        vals, modulus = _interleave(vals, new[0]), _interleave(modulus, new[1])
        rounding = None if rounding is None else _interleave(rounding, new[2])


def _interleave(old, new):
    """The values at the points of the doubled rule: old at the even ones."""
    out = np.empty(old.size + new.size, dtype=np.result_type(old, new))
    out[::2], out[1::2] = old, new
    return out


def _exp_bound(log_bound: float) -> float:
    """e^log_bound, inf past binary64."""
    return math.exp(log_bound) if log_bound < 709.0 else math.inf


def _exp_tail_bound(c: float, rate: float, power: float, T: float) -> float:
    """Bound for integral of C t^power e^(-rate t) over (T, inf), formed in
    logs: C T^power may pass binary64 where e^(-rate T) brings it back."""
    if c == 0.0:
        return 0.0
    slack = 1.0 - power / (rate * T) if power > 0 else 1.0
    if slack <= 0.1:
        return math.inf
    log_bound = math.log(c) + power * math.log(T) - rate * T - math.log(rate * slack)
    return _exp_bound(log_bound)


def _integrate_to(f: Callable, split: float, T: float, tol: float, analytic: bool = False):
    """(value, err, nodes) of f over (0, T) by one interval to tol/2 in
    v = log1p(t/split), linear in t near 0 and logarithmic past split: on
    tanh-sinh, or on nested Clenshaw-Curtis points (`clenshaw_curtis_quad`)
    when f is analytic on [0, T]."""
    def g(v):  # dt = (split + t) dv
        values, errs = _values_errs(f(t := split * np.expm1(v)))
        return values * (split + t), None if errs is None else errs * (split + t)

    end = math.log1p(T / split)
    if analytic:
        value, err, nodes, ok = clenshaw_curtis_quad(g, 0.0, end, tol / 2)
    else:
        value, err, nodes, ok = tanh_sinh(g, 0.0, end, tol / 2, max_level=_MAX_LEVEL)
    if not ok:
        raise _not_converged(f"integration over (0, {T:g})", value, err, tol / 2)
    return value, err, nodes


def quad_semiinfinite(f: Callable, rate: float, power: float, tol: float, split: float,
                      analytic: bool = False) -> EvalResult:
    """Integrate f over (0, inf), where f maps an array of nodes to an array
    of values (or to (values, errs), as in `tanh_sinh`) and |f(t)| <=
    C t^power e^(-rate t) for large t, rate > 0 and power real.

    One interval to tol/2 in v = log1p(t/split) (`_integrate_to`: tanh-sinh,
    or nested Clenshaw-Curtis for an f declared analytic on [0, inf)) runs
    over (0, 4.5 split]. Its first call of f also gives C: twice the largest
    |f(t)| / (t^power e^(-rate t)) over that call's nodes in [split,
    4 split], so no node is evaluated for C alone. Every call of f then
    raises C to twice the largest such ratio over its nodes in [T/2, T] of
    the interval (0, T] being integrated, each |f| less its errs: an
    integrand whose |f| e^(rate t) still grows past 4 split shows it there
    (e_s(-t, lam) at large |Im s| climbs toward its asymptotic size, of
    order 1/|Gamma(s)|, before e^-t wins).
    The truncation point T climbs from 4.5 split by factors of 1.5 until
    the envelope's remainder past T falls under tol/4, and that remainder
    joins the error estimate. A T past the interval integrates (0, T]
    afresh, whose nodes near T check C again, and the work counts every
    integration.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if split <= 0:
        raise ValueError("split must be positive")
    if rate <= 0 or isinstance(power, complex):
        raise ValueError(f"the envelope needs rate > 0 and a real power, got {rate}, {power}")
    c, end = None, 4.5 * split  # end: of the interval being integrated, first (0, 4.5 split]

    def envelope(t, out, lo, hi, resolved):
        """Twice the largest |f(t)| / (t^power e^(-rate t)) over the nodes in
        [lo, hi]; resolved: |f| less its errs, the part its value vouches for
        (near T an integrand's absolute error may exceed its value, as the
        kernel's does at Re s < 0, and would make C grow like e^(rate T))."""
        window = (t >= lo) & (t <= hi)
        u = t[window]
        ref = u**power * np.exp(-rate * u)
        seen = ref != 0.0
        values, errs = _values_errs(out)
        size = np.abs(np.asarray(values, dtype=complex)[window][seen])
        if resolved and errs is not None:
            size = np.maximum(size - np.broadcast_to(errs, t.shape)[window][seen], 0.0)
        with np.errstate(over="ignore"):
            return 2.0 * float(np.max(size / ref[seen], initial=0.0))  # safety factor

    def sampled(t):  # f, raising C to its first call's envelope and every call's near the end
        nonlocal c
        out = f(t)
        if c is None:
            c = envelope(t, out, split, 4.0 * split, False)
            if not math.isfinite(c):
                raise QuadratureError(f"the envelope constant C of |f| <= C t^{power:g} e^(-{rate:g} t), "
                                      f"sampled on [{split:g}, {4 * split:g}], is {c}")
        c = max(c, envelope(t, out, 0.5 * end, end, True))
        return out

    value, err, work = _integrate_to(sampled, split, end, tol, analytic)
    for T in (split * 2.0 * 1.5**hops for hops in range(2, 60)):
        if (remainder := _exp_tail_bound(c, rate, power, T)) <= tol / 4 and T > end:
            end = T  # integrate (0, T] afresh, and check its nodes near T
            value, err, more = _integrate_to(sampled, split, end, tol, analytic)
            work += more
            remainder = _exp_tail_bound(c, rate, power, T)
        if remainder <= tol / 4:
            break
    else:
        raise QuadratureError(f"could not place the tail truncation point: last T {T:g}, "
                              f"its bound {remainder:g} (target {tol / 4:g})")
    return EvalResult(value, err + remainder, work, "quadrature")
