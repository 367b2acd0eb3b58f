"""Quadrature engines.

One rule family, its tables memoized, built lazily on first use and
handed out as read-only arrays: Clenshaw-Curtis on the nested Chebyshev
points cos(j pi / m), as weights (`clenshaw_curtis_quad`), as product
weights for an endpoint factor t^alpha (`_product_weights`, QUADPACK's
QAWS rule), and as a cumulative-integration matrix (the recursion route's
tail integrations).

One driver for one finite interval: f takes an array of nodes and
returns values or (values, errs); the result is (value, err, nodes,
converged), err the last refinement's difference plus the noise, the
rule applied to each node's 16 eps |f| + errs. Every integral runs on
this one nested Clenshaw-Curtis refinement (`clenshaw_curtis_quad`),
which converges geometrically for an f analytic on the closed interval,
endpoints included: the Laplace integrands e^(-t) e_s(z t, lam) of the
transforms and the h quadrature, entire in t, the Mellin-Barnes line
integral, the Hankel contour (`core._hankel_raw`), and, with t^alpha in
the product weights, the heads of the Mellin representations and the
vanishing moments. Its first call takes the 65 points of m = 64, each
later call the new points of the doubled rule, and one stop rule serves
them all.

Plus the semi-infinite driver of the transform layer: one interval in
v = log1p(t/split), linear near 0 and logarithmic past split, out to
where the integrand's declared exponential envelope leaves less than the
target, that remainder going into the estimate; an integrand with a
factor t^alpha at 0 takes a short head on the product weights and the
interval in v = log(t/h) past it. The envelope's constant comes from the
nodes of the interval's first call of the integrand and from the nodes
near the end of each interval, not from a separate sample.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .result import EvalResult, QuadratureError

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
    integral of T_k: one DCT-I of the moments (`_dct1`). t_m is t_2m[::2]
    exactly, so a caller that doubles m keeps every value it has, and the
    m/2 and m/4 rules sit on every other and every fourth point.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    t = np.cos(math.pi * np.arange(m + 1) / m)
    k = np.arange(0, m + 1, 2)
    moments = np.zeros(m + 1)
    moments[k] = 2.0 / (1.0 - k * k)
    return _read_only(t, _dct1(moments))


def _dct1(moments):
    """(2/m) h_j sum_k h_k mu_k cos(j k pi / m), j = 0..m, for real moments
    mu_0..mu_m, h = 1/2 at both ends: a real FFT of their even extension."""
    m = moments.size - 1
    # sum over the extension [mu_0 .. mu_m, mu_(m-1) .. mu_1] = 2 sum_k h_k mu_k cos
    w = np.fft.rfft(np.concatenate([moments, moments[-2:0:-1]])).real / m
    w[[0, -1]] *= 0.5
    return w


@functools.lru_cache(maxsize=64)
def _moments(m: int, alpha):
    """G_k = integral over [-1, 1] of ((1 + x)/2)^alpha T_k(x) dx, k = 0..m,
    Re alpha > -1: QUADPACK's QAWS moments (Piessens and Branders, BIT 13,
    1973) over 2^alpha, so no 2^(alpha + 1) leaves binary64, by forward
    recurrence from G_0 = 2/(alpha + 1), G_1 = G_0 alpha/(alpha + 2):
    G_n = -(2 + n (n - alpha - 2) G_(n-1)) / ((n - 1)(n + alpha + 1)).
    Formed once per alpha: m < `_CC_FIRST` slices m = `_CC_FIRST`, a larger
    m extends m/2."""
    if m < _CC_FIRST:
        return _moments(_CC_FIRST, alpha)[:m + 1]
    g0 = 2.0 / (alpha + 1)
    g = _moments(m // 2, alpha).tolist() if m > _CC_FIRST else [g0, g0 * alpha / (alpha + 2)]
    for n in range(len(g), m + 1):
        g.append(-(2.0 + n * (n - alpha - 2) * g[-1]) / ((n - 1) * (n + alpha + 1)))
    return _read_only(np.array(g))[0]


@functools.lru_cache(maxsize=64)
def _product_weights(m: int, alpha):
    """Weights W_j of ((1 - t)/2)^alpha at the points of `clenshaw_curtis(m)`,
    their moduli and a bound on each one's rounding: the DCT-I of the
    moments (-1)^k G_k of `_moments`, sums of terms (2/m) G_k. As alpha
    nears -1 every G_k nears 2/(alpha + 1), and the small interior weights
    carry its rounding, eps (2/m) sum |G_k|. At alpha = 0: the
    `clenshaw_curtis(m)` weights themselves and 0."""
    if alpha == 0:
        w = clenshaw_curtis(m)[1]
        return w, w, 0.0
    moments = _moments(m, alpha) * (-1.0) ** np.arange(m + 1)
    w = _dct1(moments.real) + 1j * _dct1(moments.imag) if np.iscomplexobj(moments) else _dct1(moments)
    return (*_read_only(w, np.abs(w)), 2.0**-51 * float(np.abs(moments).sum()) / m)


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


def _not_converged(what: str, estimate, difference: float, target: float) -> QuadratureError:
    """The error a refinement raises when it misses its target, with its last numbers."""
    return QuadratureError(f"{what} did not converge: last estimate {estimate:.12g}, "
                           f"last difference {difference:g} (target {target:g})")


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


def clenshaw_curtis_quad(f: Callable, a: float, b: float, tol: float = 1e-12, alpha=0):
    """Integrate |x - a|^alpha f(x) over [a, b], Re alpha > -1, on the
    nested points x = a + r (1 - t) of `clenshaw_curtis(m)`, r = (b - a)/2,
    m doubling from `_CC_FIRST` to `_CC_MAX`: geometric convergence for an f
    analytic on [a, b], endpoints included, a among them. |x - a|^alpha sits
    in the weights W (`_product_weights`), scaled by r |b - a|^alpha.

    f maps a numpy array of nodes to an array of values, or to (values,
    errs) with errs bounding each value's own error; it may be complex, and
    a non-finite value counts as 0, with its errs. Returns (value,
    err_estimate, nevals, converged). The first call of f takes the m + 1
    points of m = `_CC_FIRST`, judged against the m/2 and m/4 rules on its
    even and every-fourth points; each later call takes the m new odd points
    of the doubled rule, so no point is evaluated twice. Settled once
    |I_2m - I_m| <= max(tol, tol |I_2m|) and either that difference is
    under the noise, the rule with weights |W| applied to 16 eps |f| + errs
    plus the weights' own rounding applied to |f|, or the integrals of |f|
    (weights |W|) agree to 1 % and the difference shrank tenfold: two rules
    that both miss a narrow peak, or alias one oscillation, agree as well,
    but fail the last two tests. Unsettled once the difference falls under
    16 eps times the integral of |f| plus the weights' rounding, where
    rounding leaves the sum (not under the noise: a kernel's errs bound more
    than its rounding, and the Laplace integrals converge through them), or
    at m = `_CC_MAX`. err is the last difference plus the noise.
    """
    if b == a:
        return 0.0 + 0.0j, 0.0, 0, True
    alpha = complex(alpha)
    alpha = alpha if alpha.imag else alpha.real  # real weights for a real alpha
    if alpha.real <= -1:
        raise ValueError(f"|x - a|^alpha is integrable at a only for Re alpha > -1, got {alpha}")
    r = 0.5 * (b - a)
    scale = r * abs(b - a) ** alpha
    m = _CC_FIRST
    t = clenshaw_curtis(m)[0]
    weights, moduli, floor = _product_weights(m, alpha)
    vals, modulus, rounding = _values_rounding(f(a + r * (1.0 - t)))
    half, quarter = _product_weights(m // 2, alpha), _product_weights(m // 4, alpha)[0]
    prev, prev_size = scale * complex(vals[::2] @ half[0]), abs(scale) * float(modulus[::2] @ half[1])
    diff = abs(prev - scale * complex(vals[::4] @ quarter))
    while True:
        total, size = scale * complex(vals @ weights), abs(scale) * float(modulus @ moduli)
        rounded = abs(scale) * floor * float(modulus.sum()) if floor else 0.0  # the weights' rounding
        noise = (_NOISE * size if rounding is None else abs(scale) * float(rounding @ moduli)) + rounded
        prev_diff, diff = diff, abs(total - prev)
        if diff <= tol * max(1.0, abs(total)) and (
                diff <= noise or (abs(size - prev_size) <= 0.01 * size and diff <= 0.1 * prev_diff)):
            return total, diff + noise, vals.size, True
        if diff <= _NOISE * size + rounded or m >= _CC_MAX:
            return total, diff + noise, vals.size, False
        m, prev, prev_size = 2 * m, total, size
        t, (weights, moduli, floor) = clenshaw_curtis(m)[0], _product_weights(m, alpha)
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


def _integrate_to(f: Callable, split: float, a: float, T: float, tol: float, alpha=0):
    """(value, err, nodes) of t^alpha f(t) over (a, T) by one
    `clenshaw_curtis_quad` call to tol/2: from a > 0 in v, t = a e^v, where
    t^alpha is entire; from a = 0 at alpha = 0 in v, t = split expm1(v),
    linear near 0 and logarithmic past split; else (the head) in t."""
    if a > 0:
        def g(v):  # t^alpha dt = t^(1 + alpha) dv, as root^2: root stays in binary64 where
            # t^(1 + alpha) need not (Re alpha ~ 140 at t ~ 1000), and f brings the product back
            values, errs = _values_errs(f(t := a * np.exp(v)))
            root = t ** (0.5 + 0.5 * alpha)
            return values * root * root, None if errs is None else errs * np.abs(root) * np.abs(root)

        end = math.log(T / a)
    elif alpha == 0:
        def g(v):  # dt = (split + t) dv
            values, errs = _values_errs(f(t := split * np.expm1(v)))
            return values * (split + t), None if errs is None else errs * (split + t)

        end = math.log1p(T / split)
    else:
        g, end = f, T
    value, err, nodes, ok = clenshaw_curtis_quad(g, 0.0, end, tol / 2, 0 if a > 0 else alpha)
    if not ok:
        raise _not_converged(f"integration over ({a:g}, {T:g})", value, err, tol / 2)
    return value, err, nodes


def quad_semiinfinite(f: Callable, rate: float, power: float, tol: float, split: float,
                      alpha=0) -> EvalResult:
    """Integrate t^alpha f(t) over (0, inf), Re alpha > -1, where f maps an
    array of nodes to an array of values (or to (values, errs), as in
    `clenshaw_curtis_quad`), is analytic on [0, inf) and |t^alpha f(t)| <=
    C t^power e^(-rate t) for large t, rate > 0 and power real.

    One interval to tol/2 (`_integrate_to`) runs over (h, 4.5 split], h = 0
    at alpha = 0; at alpha != 0, h = min(1, 20/split) and the head (0, h]
    runs on the product weights to tol/4, f sampled at t = 0 too. The
    interval's first call of f also gives C: twice the largest
    |t^alpha f(t)| / (t^power e^(-rate t)) over its nodes in [split,
    4 split], so no node is evaluated for C alone. Every call of f then
    raises C to twice the largest such ratio over its nodes in [T/2, T] of
    the interval (h, T] being integrated, each |f| less its errs: an
    integrand whose |f| e^(rate t) still grows past 4 split shows it there
    (e_s(-t, lam) at large |Im s| climbs toward its asymptotic size, of
    order 1/|Gamma(s)|, before e^-t wins). The truncation point T climbs
    from 4.5 split by factors of 1.5 until the envelope's remainder past T
    falls under tol/4, joining the estimate; a T past the interval
    integrates (h, T] afresh, whose nodes near T check C again. Where the
    head and the interval cancel past tol, both run once more to tol of
    their sum. The work counts every node f is called on.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if split <= 0:
        raise ValueError("split must be positive")
    if rate <= 0 or isinstance(power, complex):
        raise ValueError(f"the envelope needs rate > 0 and a real power, got {rate}, {power}")
    c, end, work = None, 4.5 * split, 0  # end: of the interval being integrated, first (h, 4.5 split]

    def envelope(t, out, lo, hi, resolved):
        """Twice the largest |t^alpha f(t)| / (t^power e^(-rate t)) over the
        nodes in [lo, hi]; resolved: |f| less its errs, the part its value
        vouches for (near T an integrand's absolute error may exceed its
        value, as the kernel's does at Re s < 0, and would make C grow like
        e^(rate T))."""
        window = (t >= lo) & (t <= hi)
        u = t[window]
        ref = u ** (power - alpha.real) * np.exp(-rate * u)
        seen = ref != 0.0
        values, errs = _values_errs(out)
        size = np.abs(np.asarray(values, dtype=complex)[window][seen])
        if resolved and errs is not None:
            size = np.maximum(size - np.broadcast_to(errs, t.shape)[window][seen], 0.0)
        with np.errstate(over="ignore"):
            return 2.0 * float(np.max(size / ref[seen], initial=0.0))  # safety factor

    def counted(t):  # f, counting its nodes
        nonlocal work
        work += t.size
        return f(t)

    def sampled(t):  # f, raising C to its first call's envelope and every call's near the end
        nonlocal c
        out = counted(t)
        if c is None:
            c = envelope(t, out, split, 4.0 * split, False)
            if not math.isfinite(c):
                raise QuadratureError(f"the envelope constant C of |f| <= C t^{power:g} e^(-{rate:g} t), "
                                      f"sampled on [{split:g}, {4 * split:g}], is {c}")
        c = max(c, envelope(t, out, 0.5 * end, end, True))
        return out

    head = min(1.0, 20.0 / split) if alpha != 0 else 0.0
    value, err, _ = _integrate_to(sampled, split, head, end, tol, alpha)
    for T in (split * 2.0 * 1.5**hops for hops in range(2, 60)):
        if (remainder := _exp_tail_bound(c, rate, power, T)) <= tol / 4 and T > end:
            end = T  # integrate (h, T] afresh, and check its nodes near T
            value, err, _ = _integrate_to(sampled, split, head, end, tol, alpha)
            remainder = _exp_tail_bound(c, rate, power, T)
        if remainder <= tol / 4:
            break
    else:
        raise QuadratureError(f"could not place the tail truncation point: last T {T:g}, "
                              f"its bound {remainder:g} (target {tol / 4:g})")
    if head:
        near, near_err, _ = _integrate_to(counted, split, 0.0, head, tol / 2, alpha)
        scale, size = max(1.0, abs(value + near)), abs(value) + abs(near)
        if err + near_err + remainder > tol * scale and size > 2.0 * scale:
            tighter = tol * scale / size  # the head and the interval cancel: both again, to tol of their sum
            try:
                (value, err, _), (near, near_err, _) = (
                    _integrate_to(sampled, split, head, end, tighter, alpha),
                    _integrate_to(counted, split, 0.0, head, tighter / 2, alpha))
            except QuadratureError:
                pass  # rounding allows no better: the first pass stands, its estimate above tol
            remainder = _exp_tail_bound(c, rate, power, end)
        value, err = value + near, err + near_err
    return EvalResult(value, err + remainder, work, "quadrature")
