"""Numeric evaluation routes for e_s(x, lam) = sum x^n / (n! (n+lam)^s).

Routes implemented here, each independently testable against the others:

  * direct series with an analytic factorial-tail bound, at one x or
    over a 1-D array of x in one vectorized pass,
  * closed form e^x * Q_p(x, lam) at non-positive integer orders,
  * the positive integral of t^(s-1) e^(-lam t) e^(x e^-t) at large x < 0
    (`evaluate` picks among these three and Hankel by a stated region map),
  * nested-integral recursion from e_0 = e^t, written as p repeated tail
    integrations g_{q+1}(tau) = int_tau^inf g_q of
    g_q(sigma) = e^(-lam sigma) e_q(x e^-sigma) (the log-variable Volterra
    form) on one cached Chebyshev grid,
  * Hankel contour integral (separate branch-weighted form at positive
    integer orders) on nested Clenshaw-Curtis points, radius set by x,
  * Taylor shift in the lam variable and the geometric generating sum,
  * large-lam asymptotic expansion and the leading large-x behaviour.

Also houses the gamma kernel (Lanczos + reflection), the lower incomplete
gamma via the s = 1 series, the entire function Ein, and a numerically
stable evaluator for the weighted products e^(-t) e_s(z t, lam) that the
transform layer integrates, a whole array of quadrature nodes per call.
`evaluate`, `eval_series` and `series.h_direct` take x as a number or as
a 1-D numpy array; every array node stops where the number would.

All powers (n+lam)^s, t^(lam-1), z^(s-1) are principal-branch.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading

import numpy as np

from . import exact
from .quadrature import _not_converged, _read_only, chebyshev_tail_rule, clenshaw_curtis, tanh_sinh
from .result import (
    ConditioningError,
    ContourResolutionError,
    ConvergenceError,
    DomainError,
    EvalResult,
    PoleError,
)

__all__ = [
    "EvalResult",
    "gamma_fn",
    "rising_factorial",
    "lower_inc_gamma",
    "ein",
    "evaluate",
    "eval_series",
    "series_tail_bound",
    "exp_weighted_series",
    "eval_negint",
    "eval_via_recursion",
    "eval_hankel",
    "hankel_contour_integral",
    "default_contour",
    "taylor_shift",
    "generating_sum",
    "asymptotic_lambda",
    "asymptotic_x_leading",
]

_EPS = 2.220446049250313e-16
DEFAULT_TOL = 1e-12
_MAX_TERMS = 10000  # term cap of eval_series and h_direct
_INTEGRAL_X = 10.0  # evaluate: the positive integral for real x < -_INTEGRAL_X
_CANCEL_LOG = 10.0  # evaluate: Hankel past |x| = _INTEGRAL_X once |x| - Re x exceeds this


def _require_lam(lam: complex):
    if complex(lam).real <= 0:
        raise DomainError(f"Re lam must be positive, got lam = {lam}")


class _Overflow(ConvergenceError, OverflowError):
    """Past binary64; still an OverflowError for callers catching the builtin."""


# ---------------------------------------------------------------------------
# gamma kernel
# ---------------------------------------------------------------------------

# Lanczos, g = 7, 9 terms
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos(z):
    """Gamma(z) for Re z >= 1/2, z a number or a numpy array."""
    exp = np.exp if isinstance(z, np.ndarray) else cmath.exp
    z = z - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc = acc + c / (z + i)
    t = z + 7.5
    # t^(z+1/2) alone overflows near z = 171 before e^-t scales it down; two
    # half powers keep pow's accuracy, which one exp((z+1/2) log t - t) loses
    half = t ** (0.5 * z + 0.25)
    return math.sqrt(2.0 * math.pi) * half * exp(-t) * half * acc


def gamma_fn(z):
    """Complex Gamma(z) for a number or a numpy array (a real array stays
    real: numpy's complex power is less accurate); reflection formula for
    Re z < 1/2. Raises PoleError at the non-positive integers.
    """
    if not isinstance(z, np.ndarray) or z.ndim == 0:
        z = complex(z)
        if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
            raise PoleError(f"gamma pole at z = {z.real:g}")
        if z.real < 0.5:
            # sin(pi z) = (-1)^n sin(pi (z - n)): z - n is exact, while the rounding
            # of pi z would be a large relative error of the sine next to n
            n = round(z.real)
            sine = cmath.sin(math.pi * (z - n))
            return math.pi / ((-sine if n % 2 else sine) * gamma_fn(1.0 - z))
        return _lanczos(z)
    z = np.asarray(z) + 0.0  # integers to float
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.round(z.real))
    if pole.any():
        raise PoleError(f"gamma pole at z = {z.real[pole][0]:g}")
    left = z.real < 0.5  # reflected there, so Lanczos never sees Re z < 1/2
    out = _lanczos(np.where(left, 1.0 - z, z))
    n = np.round(z.real[left])
    sine = np.sin(math.pi * (z[left] - n)) * np.where(n % 2, -1.0, 1.0)
    out[left] = math.pi / (sine * out[left])
    return out


def rising_factorial(s: complex, m: int) -> complex:
    """(s)_m = s (s+1) ... (s+m-1), multiplicatively (no gamma quotients)."""
    acc = 1.0 + 0.0j
    for j in range(m):
        acc *= s + j
    return acc


# ---------------------------------------------------------------------------
# direct series
# ---------------------------------------------------------------------------


def series_tail_bound(s: complex, lam: complex, x: complex, n: int) -> float:
    """Bound on |sum_{k>n} x^k/(k! (k+lam)^s)|, valid once n >= 2|x|; NaN
    while the term ratio is still above 1/2 (`_tail_bound`).

    |x|^(n+1)/(n+1)! * max(1, |n+1+lam|^(-Re s)) * 2 * G with
    G = exp(|Im s| * pi / 2) absorbing the branch factor of (k+lam)^(-s)
    (Re(k+lam) > 0 keeps arguments inside (-pi/2, pi/2)).
    """
    return _tail_bound(complex(s), complex(lam), complex(x), n, 0.0)


# The stop rule's arithmetic, shared by the scalar loops and the array sum:
# each helper takes numbers, or numpy arrays that broadcast (x then |x|).


def _tail_bound(s: complex, lam: complex, x, n, prefix):
    """`series_tail_bound` plus prefix times its value at s = 0; NaN where
    the term ratio |x|/(n+1), times the growth of |(k+lam)^-s| at Re s < 0,
    is above 1/2 and the bound does not hold yet."""
    ax = abs(x)
    ratio = ax / (n + 1)
    if s.real < 0:
        ratio = ratio * (1.0 + 1.0 / (n + lam.real)) ** (-s.real)
    g = math.exp(abs(s.imag) * math.pi / 2.0) if s.imag else 1.0
    # in logs: |x|^(n+1) and (n+1)! overflow separately long before their quotient
    if isinstance(n, np.ndarray):  # under the caller's errstate: log 0 and exp past binary64
        log_factorial = _LOG_FACTORIAL.upto(int(n.max()) + 2)[0][n.astype(np.int64) + 1]
        lead = np.where(ratio <= 0.5, np.exp((n + 1) * np.log(ax) - log_factorial), np.nan)
    elif ratio > 0.5:
        return math.nan
    else:
        lead = math.exp((n + 1) * math.log(ax) - math.lgamma(n + 2)) if ax else 0.0
    power = abs(n + 1 + lam) ** -s.real if s.real < 0 else 1.0  # |n+1+lam| > 1
    return lead * (2.0 * (power * g + prefix))


def _rounding_level(s: complex, lam: complex, n):
    """eps (2 + 2n + |s| log(2 + n + |lam|)): the relative rounding of a sum
    of n+1 terms, for the drift of x^k/k! and of a prefix (about eps a
    step) and of (k+lam)^-s."""
    log = np.log if isinstance(n, np.ndarray) else math.log
    return _EPS * (2.0 + 2.0 * n + abs(s) * log(2.0 + n + abs(lam)))


def _series_stop(s, lam, x, n, sum_abs, tol, prefix=0.0):
    """Stop rule of `eval_series` (coefficients (k+lam)^-s) and
    `series.h_direct` (P_k = sum_{j<k} w^j (j+lam)^-s, prefix = P_(n+1))
    after the term k = n: None to go on, else the tail bound plus the
    rounding level times sum |terms|. Raises ConvergenceError past binary64
    or past `_MAX_TERMS` terms. `_series_sum` applies the same rule to a
    whole array of x.
    """
    if n >= 2.0 * abs(x):
        if not math.isfinite(sum_abs):
            raise _Overflow(f"series terms overflow binary64 at x = {x}")
        # |P_(n+1)| enters every later term, and the bound at s covers the rest
        tail = _tail_bound(s, lam, x, n, abs(prefix))
        if tail <= tol:  # False for the NaN of a term ratio above 1/2
            return tail + _rounding_level(s, lam, n) * sum_abs
    if n >= _MAX_TERMS:
        raise ConvergenceError(f"series needs more than {_MAX_TERMS} terms for tol={tol:g} at x={x}")
    return None


def _is_nodes(x) -> bool:
    """True for a numpy array of x (the array path), False for a number."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        return False
    if x.ndim != 1:
        raise DomainError(f"x must be a number or a 1-D array, got shape {x.shape}")
    return True


def _series_sum(s: complex, lam: complex, x: np.ndarray, tol: float, table):
    """sum_n x^n/n! a_n at every node of the 1-D array x, each node stopped
    after the term where `_series_stop` stops the scalar loop, with the
    same error estimate (up to the order of summation) and the same
    ConvergenceError past binary64 or `_MAX_TERMS`. table(lo, hi) returns
    a_n and |b_n| for lo <= n < hi, b_n the rule's prefix after term n (a
    number 0 when there is none).

    Terms go in blocks of nodes times n under `_CHUNK` entries, each
    twice as long as the one before; x^n/n! is built in the scalar loop's
    order, the sums are numpy's. Returns (values, errs, stop indices).
    """
    ax = np.array([abs(v) for v in x.tolist()])  # as the scalar rule takes |x|
    if np.iscomplexobj(x) and not x.imag.any():
        x = x.real  # real arithmetic gives the complex loop's values
    values = np.zeros(x.size, dtype=complex)
    errs = np.zeros(x.size)
    stops = np.zeros(x.size, dtype=np.int64)
    live = np.arange(x.size)  # nodes not yet stopped
    xpow = acc = sum_abs = 0.0  # per live node where the last block ended: x^(lo-1)/(lo-1)!, sums
    lo = 0
    width = int(2.0 * ax.max(initial=0.0)) + 24  # the rule stops ~20 terms past 2|x| at |x| <= 10
    while live.size:
        hi = min(lo + max(8, min(width, _CHUNK // live.size)), _MAX_TERMS + 1)
        n = np.arange(lo, hi, dtype=float)
        xl, al = x[live, None], ax[live, None]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            a, b = table(lo, hi)
            xpows = xl / n  # x^n/n! = x^(n-1)/(n-1)! (x/n), in the scalar loop's order
            if lo:
                xpows[:, 0] *= xpow
            else:
                xpows[:, 0] = 1.0
            np.cumprod(xpows, axis=1, out=xpows)
            tail = _tail_bound(s, lam, al, n, b)
            # a tail past binary64 is where the scalar loop raises
            event = (n >= 2.0 * al) & ((tail <= tol) | np.isinf(tail))
            done = event.any(axis=1)
            last = np.where(done, event.argmax(axis=1), hi - lo - 1)  # each node's last term here
            terms = np.where(np.arange(hi - lo) <= last[:, None], xpows * a, 0.0)
            acc = acc + terms.sum(axis=1)
            sum_abs = sum_abs + np.abs(terms).sum(axis=1)
        rows = np.flatnonzero(done)
        k = last[rows]
        ended = live[rows]
        fine = np.isfinite(sum_abs[rows]) & (tail[rows, k] <= tol)
        if not fine.all():
            raise _Overflow(f"series terms overflow binary64 at x = {complex(x[ended[~fine][0]])}")
        if hi > _MAX_TERMS and rows.size < live.size:
            node = live[~done][0]
            # the scalar loop checks sum |terms| from n >= 2|x| on
            if not np.isfinite(sum_abs[~done][0]) and 2.0 * ax[node] <= _MAX_TERMS:
                raise _Overflow(f"series terms overflow binary64 at x = {complex(x[node])}")
            raise ConvergenceError(
                f"series needs more than {_MAX_TERMS} terms for tol={tol:g} at x={complex(x[node])}")
        values[ended] = acc[rows]
        stops[ended] = lo + k
        errs[ended] = tail[rows, k] + _rounding_level(s, lam, lo + k) * sum_abs[rows]
        going = ~done
        live, xpow, acc, sum_abs = live[going], xpows[going, -1], acc[going], sum_abs[going]
        lo, width = hi, 2 * width
    return values, errs, stops


def eval_series(s, lam, x, tol: float = DEFAULT_TOL) -> EvalResult:
    """Partial sum of the defining series, stopped by the analytic tail bound.

    (n+lam)^s uses the principal branch of log(n+lam); well defined since
    Re(n+lam) > 0. The error estimate adds a rounding level growing with
    the number of terms (`_series_stop`); past binary64, ConvergenceError.

    x is a number, or a 1-D numpy array summed in one pass over the
    memoized table of (n+lam)^-s (`_series_sum`): every node stops where
    the number would, value and abs_err_estimate are then arrays, and
    work is the total number of terms.
    """
    s, lam = complex(s), complex(lam)
    _require_lam(lam)
    if tol <= 0:
        raise DomainError("tol must be positive")
    if _is_nodes(x):
        coefficients = _coefficients(s, lam, 0.0)
        table = lambda lo, hi: (coefficients.upto(hi)[0][lo:hi], 0.0)
        values, errs, stops = _series_sum(s, lam, x, tol, table)
        return EvalResult(values, errs, int(stops.sum()) + x.size, "series")

    x = complex(x)
    neg_s = -s
    acc = 0.0 + 0.0j
    sum_abs = 0.0
    power_term = 1.0 + 0.0j  # x^n / n!
    n = 0
    try:
        while True:
            term = power_term * cmath.exp(neg_s * cmath.log(n + lam))
            acc += term
            sum_abs += abs(term)
            err = _series_stop(s, lam, x, n, sum_abs, tol)
            if err is not None:
                return EvalResult(acc, err, n + 1, "series")
            n += 1
            power_term *= x / n
    except OverflowError as exc:  # |term| or the tail bound past binary64
        raise _Overflow(f"series terms overflow binary64 at x = {x}") from exc


class _GrowingTable:
    """Read-only arrays indexed by n = 0, 1, ..., grown by doubling under a
    lock: `grow(old, size)` returns the arrays for n < size (old is the
    current tuple, or None at first use)."""

    def __init__(self, grow):
        self._grow = grow
        self._arrays = None
        self._lock = threading.Lock()

    def upto(self, size: int):
        arrays = self._arrays
        if arrays is None or len(arrays[0]) < size:
            with self._lock:
                arrays = self._arrays
                if arrays is None or len(arrays[0]) < size:
                    have = 0 if arrays is None else len(arrays[0])
                    arrays = _read_only(*self._grow(arrays, max(size, 2 * have, 64)))
                    self._arrays = arrays
        return arrays


def _grow_log_norm(old, size):
    """lgamma(n+1) - n log n + n = log sqrt(2 pi n) + Stirling's error for
    n < size (0 at n = 0): the log-factorial without its n log n - n part,
    which the kernel folds into a cancellation-free log1p (Loader, 2000)."""
    have = 0 if old is None else len(old[0])
    n = np.arange(have, size, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = 1.0 / n
        inv2 = inv * inv
        # Stirling's series, truncated after n^-9: below eps from n = 16 on
        series = 0.5 * np.log(2.0 * math.pi * n) + inv * (
            1 / 12 - inv2 * (1 / 360 - inv2 * (1 / 1260 - inv2 * (1 / 1680 - inv2 / 1188)))
        )
    small = [math.lgamma(k + 1) - k * math.log(k) + k if k else 0.0 for k in range(have, min(size, 16))]
    series[: len(small)] = small
    return (series,) if old is None else (np.concatenate([old[0], series]),)


_LOG_NORM = _GrowingTable(_grow_log_norm)


def _grow_log_factorial(old, size):
    """log n! for n < size by math.lgamma, as the scalar stop rule takes it."""
    have = 0 if old is None else len(old[0])
    new = np.array([math.lgamma(k + 1) for k in range(have, size)])
    return (new,) if old is None else (np.concatenate([old[0], new]),)


_LOG_FACTORIAL = _GrowingTable(_grow_log_factorial)


@functools.lru_cache(maxsize=4)
def _coefficients(s: complex, lam: complex, theta: float) -> _GrowingTable:
    """Table of c_n = (n+lam)^-s e^(i n theta) and |c_n|, the factors of
    e^(-t) e_s(z t, lam) that do not depend on t (theta = arg z); real
    arrays when every c_n is real."""
    real = s.imag == 0.0 and lam.imag == 0.0 and theta in (0.0, math.pi)

    def grow(old, size):
        have = 0 if old is None else len(old[0])
        n = np.arange(have, size)
        if real:
            c = np.exp(-s.real * np.log(n + lam.real))
            if theta:
                c[n % 2 == 1] *= -1.0
        else:
            c = np.exp(-s * np.log(n + lam) + 1j * theta * n)
        if old is not None:
            c = np.concatenate([old[0], c])
        return c, np.abs(c)

    return _GrowingTable(grow)


_CHUNK = 4096  # terms per pass of the windowed kernel, so memory stays flat


def exp_weighted_series(s, lam, z, t, tol: float = 1e-14):
    """Stable e^(-t) * e_s(z*t, lam) for t >= 0, |z| <= ~1; t a number or
    a numpy array of nodes.

    The naked series overflows binary64 once t exceeds ~700 and, for
    oscillating z, its terms dwarf the weighted result. Here it is
    e^(m-t) sum_n P(n; m) c_n, Poisson weights P(n; m) = m^n e^-m / n! at
    m = t|z| times c_n = (n+lam)^-s e^(i n arg z) from a table memoized on
    (s, lam, arg z), over windows chosen from tol (`_poisson_window`,
    `_poisson_sum`): relative to the node's scale where it is small (the
    Hurwitz nodes reach t ~ 600 at s = 30, values ~1e-84), absolute where it
    is large (at Re s < 0 the terms reach t^|Re s| and cancel far below).

    Non-positive integer s goes to the closed form e^((z-1)t) Q_p(z t, lam):
    the windowed sum would lose everything to cancellation once (n+lam)^p
    amplifies the terms.

    Returns (value, abs_err, nterms): value and abs_err are numbers for a
    number t and arrays for an array t, nterms is the total number of
    terms. abs_err adds the dropped-tail bound to the rounding level of
    the summed terms.
    """
    s, lam, z = complex(s), complex(lam), complex(z)
    _require_lam(lam)
    scalar = np.ndim(t) == 0
    t = np.asarray(t, dtype=float).reshape(-1)
    if not np.all(np.isfinite(t) & (t >= 0.0)):
        raise DomainError("t must be finite and >= 0")
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        p = int(-s.real)
        values, errs = _closed_form(p, lam, z * t, (z - 1.0) * t)
        total = (p + 1) * t.size
    else:
        # m = 0 (t = 0 or z = 0) runs as m = 1e-300: the window is [0, 0] and
        # the terms past n = 0 underflow, so no case needs splitting off
        m = np.maximum(t * abs(z), 1e-300)
        shift = m - t  # log of e^(m-t), the weight outside the Poisson law
        log_env = functools.partial(_log_coefficient_bound, s, lam)
        n_lo, n_hi, dropped = _poisson_window(m, shift, log_env, max(0.0, -s.real), tol)
        c, absc = _coefficients(s, lam, cmath.phase(z)).upto(int(n_hi.max(initial=0)) + 1)
        values, sum_abs, total = _poisson_sum(m, shift, n_lo, n_hi, c, absc)
        # rounding: log1p's eps |n - m| in the exponent, eps |m - t| from the
        # weight, eps |s log(n+lam)| in c_n, and the summation itself
        grade = 8.0 + 2.0 * np.sqrt(m) + np.abs(shift) + abs(s) * np.log(2.0 + m + abs(lam))
        errs = dropped + _EPS * grade * sum_abs
    if scalar:
        return complex(values[0]), float(errs[0]), total
    return values, errs, total


def _log_coefficient_bound(s: complex, lam: complex, n):
    """log e^(|Im s| |arg lam|) |n+lam|^-Re s >= log |(n+lam)^-s|, monotone in n >= 0."""
    return abs(s.imag) * abs(cmath.phase(lam)) - s.real * np.log(np.hypot(n + lam.real, lam.imag))


def _poisson_window(m, shift, log_env, growth: float, tol: float):
    """Windows [n_lo, n_hi] of sum_n e^shift P(n; m) c_n over arrays m > 0
    and shift, and bounds on what they drop: (n_lo, n_hi, dropped), where
    log_env(n) >= log |c_n| is monotone and env(j) <= env(N) (j/N)^growth
    for j >= N. Each side is kept near tol min(1, e^shift env(floor m)),
    about tol min(1, sum |terms|): Chernoff below, P(N <= m - k) <=
    exp(-k^2 / 2m); Bennett above, P(N >= m + k) <= exp(-m h(k/m)).
    """
    center = np.floor(m)
    log_center = log_env(center)
    big_l = max(-math.log(tol), 1.0) + np.maximum(0.0, log_center + shift)

    # above the window: room for env's growth across the Gaussian width
    # (none for a non-increasing env, growth 0), a Chernoff (Bernstein) k,
    # then Newton on Bennett's bound, h(u) = (1+u) log(1+u) - u, from the
    # right, which keeps the bound below its target at every step
    width = big_l + np.sqrt(2.0 * m * big_l)
    big_lu = big_l + (np.maximum(0.0, log_env(m + width) - log_env(m)) if growth else 0.0)
    k = big_lu / 3.0 + np.sqrt(big_lu * big_lu / 9.0 + 2.0 * m * big_lu)
    for _ in range(3):
        grad = np.log1p(k / m)
        k = k - ((m + k) * grad - k - big_lu) / grad
    # k >= p gives log(N/m) >= k/N >= p/N at N = m + k: tilting the Poisson
    # law by that much lets the Bennett bound carry env's growth (j/N)^p
    top = np.maximum(np.ceil(m + np.maximum(k, growth)), center + 1.0)
    k = top - m
    log_up = log_env(top) - ((m + k) * np.log1p(k / m) - k)

    # below the window: Chernoff, times max env there (at 0 or n_lo - 1)
    log_first = log_env(np.zeros(1))
    big_ll = big_l + np.maximum(0.0, log_first - log_center)
    n_lo = np.maximum(0.0, np.floor(m - np.sqrt(2.0 * m * big_ll)))
    log_lo = np.maximum(log_first, log_env(np.maximum(n_lo - 1.0, 0.0))) - (m - n_lo + 1.0) ** 2 / (2.0 * m)
    log_lo[n_lo == 0.0] = -np.inf  # nothing dropped below
    dropped = np.exp(shift + log_up) + np.exp(shift + log_lo)
    return n_lo.astype(np.int64), top.astype(np.int64) - 1, dropped


def _poisson_sum(m, shift, n_lo, n_hi, c, absc):
    """sum_{n_lo <= n <= n_hi} e^shift P(n; m) c_n per node over tables c
    and absc = |c| indexed by n, with Loader-form log P (`_LOG_NORM`), all
    windows in one flat array: (values, sums of |terms|, number of terms).
    """
    log_norm = _LOG_NORM.upto(int(n_hi.max(initial=0)) + 1)[0]
    inv_m = 1.0 / m
    lengths = n_hi - n_lo + 1
    ends = np.cumsum(lengths)
    starts = ends - lengths
    offset = n_lo - starts  # n = offset + position in the flat layout
    total = int(lengths.sum())
    values = np.zeros(m.size, dtype=complex)
    sum_abs = np.zeros(m.size)
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        first = int(np.searchsorted(ends, lo, side="right"))
        last = int(np.searchsorted(ends, hi - 1, side="right")) + 1
        seg = np.minimum(ends[first:last], hi) - np.maximum(starts[first:last], lo)
        node = np.repeat(np.arange(first, last), seg)
        n = offset[node] + np.arange(lo, hi)
        d = n - m[node]
        # n log1p(d/m) - d: at n = 0 the clip turns 0 * log1p(-1) into 0
        ratio = np.maximum(d * inv_m[node], -1.0 + _EPS)
        w = np.exp(shift[node] - (n * np.log1p(ratio) - d) - log_norm[n])
        seg_starts = np.concatenate(([0], np.cumsum(seg[:-1])))
        values[first:last] += np.add.reduceat(w * c[n], seg_starts)
        sum_abs[first:last] += np.add.reduceat(w * absc[n], seg_starts)
    return values, sum_abs, total


# ---------------------------------------------------------------------------
# closed form at non-positive integer order
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _q_coeffs(p: int, lam: complex) -> tuple[complex, ...]:
    """Q_p(x, lam) collapsed at a numeric lam: the coefficients of x^0 .. x^p."""
    return tuple(
        complex(sum(float(c.numerator) / float(c.denominator) * lam**j for j, c in enumerate(row)))
        for row in exact.q_poly(p).rows
    )


def _closed_form(p: int, lam: complex, y, exponent):
    """e^exponent * Q_p(y, lam) for y and exponent numbers or arrays of one
    shape, by Horner in y over `_q_coeffs`; returns (value, estimate). The
    estimate is the rounding level: eps (8 (p+1) + |exponent|) times
    |e^exponent| sum |a_k| |y|^k, which covers cancellation inside Q_p.
    A number exponent past binary64 raises OverflowError."""
    coeffs = _q_coeffs(p, complex(lam))
    front = cmath.exp(exponent) if np.ndim(exponent) == 0 else np.exp(exponent)
    value = front * _horner(coeffs, y)
    size = abs(front) * _horner([abs(c) for c in coeffs], abs(y))
    return value, _EPS * (8.0 * (p + 1) + abs(exponent)) * size


def _horner(coeffs, y):
    """sum_k coeffs[k] y^k by Horner's rule, y a number or an array."""
    acc = 0.0
    for c in coeffs[::-1]:
        acc = acc * y + c
    return acc


def eval_negint(p: int, lam, x) -> EvalResult:
    """e_{-p}(x, lam) = e^x * Q_p(x, lam), Q_p collapsed at lam and
    evaluated in binary64 (`_closed_form`); past its range, ConvergenceError."""
    if p < 0:
        raise DomainError("p must be >= 0")
    lam, x = complex(lam), complex(x)
    _require_lam(lam)
    try:
        value, estimate = _closed_form(p, lam, x, x)
    except OverflowError:
        value = estimate = math.inf
    if not (cmath.isfinite(value) and math.isfinite(estimate)):
        raise _Overflow(f"e^x Q_{p}(x, lam) overflows binary64 at x = {x}")
    return EvalResult(value, estimate, p + 1, "closed_form")


def _positive_integral(s: complex, lam: complex, big_x: float, tol: float) -> EvalResult:
    """e_s(-X, lam), X = big_x > 0, Re s > 0, from the positive integral
    Gamma(s) e_s(-X, lam) = int_0^inf t^(s-1) e^(-lam t) e^(-X e^-t) dt.

    |e^(-lam t) e^(-X e^-t)| peaks on t >= 0 at t_p = max(0, log(X/a)),
    a = Re lam, where X e^-t_p = r = min(a, X); that peak value goes in
    front, so the integrand is t^(s-1) exp(lam (t_p - t) - r expm1(t_p - t))
    for any size of X and lam. The rule runs in t, keeping the t^(s-1)
    singularity exactly on t = 0; below t_p - log(1490/a + 2) the
    integrand is under e^-745 of its peak.
    """
    a = lam.real
    t_peak = max(0.0, math.log(big_x / a))
    r = min(a, big_x)
    rate = a if lam.imag == 0.0 else lam  # real arithmetic for real parameters
    power = s.real - 1.0 if s.imag == 0.0 else s - 1.0

    def g(t):
        d = t_peak - t
        return t ** power * np.exp(rate * d - r * np.expm1(d))

    # the integral's rough size; tanh_sinh turns relative above 1
    target = tol * min(1.0, max(1.0, t_peak) ** (s.real - 1.0) / max(1.0, math.sqrt(a)))
    t_lo = max(0.0, t_peak - math.log(1490.0 / a + 2.0))
    span = 10.0 / max(a, 0.05)
    while (s.real - 1.0) * math.log(t_peak + span) - a * span + r > math.log(target) - 3.0:
        span *= 1.3
    val, err, nodes, ok = tanh_sinh(g, t_lo, t_peak + span, target, max_level=11)
    if not ok:
        raise _not_converged(f"positive integral at x = {-big_x}", val, err, target)
    exponent = -lam * t_peak - r
    front = cmath.exp(exponent) / gamma_fn(s)
    value = front * val
    # rounding: the rule's sum, Gamma(s), and eps |exponent| from the front factor
    estimate = abs(front) * (err + 0.05 * target) + (32.0 + 2.0 * abs(exponent)) * _EPS * abs(value)
    return EvalResult(value, estimate, nodes, "positive_integral")


def _route(s: complex, x: complex) -> str:
    """The route tag `evaluate` picks at one point (see there)."""
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        return "closed_form"
    if x.imag == 0.0 and x.real < -_INTEGRAL_X and s.real > 0.0:
        return "positive_integral"
    if abs(x) > _INTEGRAL_X and abs(x) - x.real > _CANCEL_LOG:
        return "hankel"
    return "series"


def evaluate(s, lam, x, tol: float = DEFAULT_TOL) -> EvalResult:
    """e_s(x, lam) by the route that suits the arguments; the result's
    `method` tag records the choice:

      * s a non-positive integer: closed form (`eval_negint`), "closed_form";
      * real x < -10, Re s > 0: the positive integral (`_positive_integral`),
        "positive_integral"; there the alternating series' terms reach
        e^|x| / sqrt(|x|) while the value decays like |x|^-lam;
      * any other |x| > 10 with |x| - Re x > 10: Hankel (`eval_hankel`),
        "hankel"; there the series' terms outgrow the value's scale e^(Re x)
        by e^(|x| - Re x) > 2e4, so rounding alone misses the default tol;
      * everything else: the series (`eval_series`), "series".

    The closed form ignores tol; the integral meets it relative to its own
    scale, and Hankel on its contour integral, absolute below 1 and
    relative above. Hankel refuses s within 1e-8 of a positive integer.

    x may be a 1-D numpy array: the series nodes then go through one array
    `eval_series` call and every other node through its own route, as a
    number would. value and abs_err_estimate are arrays, work is the
    total, and method is the route tag when every node took one route,
    else the tuple of per-node tags.
    """
    s, lam = complex(s), complex(lam)
    _require_lam(lam)
    if tol <= 0:
        raise DomainError("tol must be positive")
    if not _is_nodes(x):
        x = complex(x)
        route = _route(s, x)
        if route == "closed_form":
            return eval_negint(int(-s.real), lam, x)
        if route == "positive_integral":
            return _positive_integral(s, lam, -x.real, tol)
        if route == "hankel":
            return eval_hankel(s, lam, x, tol)
        return eval_series(s, lam, x, tol)
    points = [complex(v) for v in x.tolist()]
    routes = [_route(s, v) for v in points]
    on_series = np.array([r == "series" for r in routes], dtype=bool)
    values = np.zeros(len(points), dtype=complex)
    errs = np.zeros(len(points))
    work = 0
    if on_series.any():
        res = eval_series(s, lam, x[on_series], tol)
        values[on_series], errs[on_series], work = res.value, res.abs_err_estimate, res.work
    for i in np.flatnonzero(~on_series):
        res = evaluate(s, lam, points[i], tol)
        values[i], errs[i], work = res.value, res.abs_err_estimate, work + res.work
    method = routes[0] if len(set(routes)) == 1 else tuple(routes)
    return EvalResult(values, errs, work, method)


# ---------------------------------------------------------------------------
# recursion route
# ---------------------------------------------------------------------------

_PANEL_DEGREES = (8, 16, 32, 64, 128)
_MAX_PANELS = 1024


def _recursion_cutoff(p: int, lam: complex, x: complex, target: float, t_max: float):
    """Cut-off T for the tail integrations and the bound on what it drops.

    For sigma >= T, |e_q(x e^-sigma)| <= C_q = |lam|^-q + expm1(|x| e^-T)
    (|n + lam| > 1 for n >= 1), so R_q = int_T^inf |g_q| <= C_q e^(-a T) / a
    with a = Re lam. Dropping (T, inf) at every level moves g_p(0) by at
    most sum_q R_q T^(p-1-q) / (p-1-q)!. T climbs a 1.1 ladder from 1/a
    until that bound is <= target; returns (T, bound). Raises
    ConvergenceError once T passes t_max.
    """
    a = lam.real
    T = 1.0 / a
    while T <= t_max:
        spill = math.expm1(abs(x) * math.exp(-T))
        try:
            bound = sum(
                (abs(lam) ** -q + spill) * T ** (p - 1 - q) / math.factorial(p - 1 - q)
                for q in range(p)
            ) * math.exp(-a * T) / a
        except OverflowError:
            bound = math.inf
        if bound <= target:
            return T, bound
        T *= 1.1
    raise ConvergenceError(
        f"recursion route at p = {p}, lam = {lam} needs a cut-off beyond "
        f"T = {t_max:.4g} (more than {_MAX_PANELS} panels)"
    )


def _tail_integrate(values, matrix, h):
    """int_sigma^T of a function sampled on equal panels of length h.

    values[k, j] sits at sigma = (k + (1 + t_j) / 2) h for the Chebyshev
    points t_j of `matrix` (chebyshev_tail_rule); the result has the same
    layout. Inside a panel the cumulative rule integrates up to the
    panel's right end; the totals of the panels to the right follow as a
    running sum.
    """
    local = (0.5 * h) * (values @ matrix.T)
    right = np.cumsum(local[::-1, -1])[::-1]
    local[:-1] += right[1:, None]
    return local


def eval_via_recursion(p: int, lam, x, tol: float = 1e-10) -> EvalResult:
    """e_p(x, lam) by p repeated tail integrations from e_0 = e^t.

    With g_q(sigma) = e^(-lam sigma) e_q(x e^-sigma), the nested integral
    e_{q+1}(x e^-tau) = int_0^inf e^(-lam t) e_q(x e^-(tau+t)) dt reads
    g_{q+1}(tau) = int_tau^inf g_q(sigma) dsigma, starting from
    g_0(sigma) = e^(-lam sigma) exp(x e^-sigma); then e_p(x, lam) = g_p(0).

    Every level lives on one grid over [0, T]: equal panels of length at
    most min(2, 2/|lam|), each carrying the cached Chebyshev
    cumulative-integration matrix of `quadrature.chebyshev_tail_rule`, so
    a level is one matrix product plus a running sum of panel totals.
    Panels keep rounding local: one rule over all of [0, T] spreads the
    rounding of the large values near sigma = 0 over the whole interval,
    and the p - 1 integrations that follow multiply it by up to
    T^(p-1)/(p-1)!. The panel degree doubles from 8 to 128 until two
    resolutions agree.

    abs_err_estimate is the last difference between resolutions, plus the
    bound on the integrals dropped beyond T, plus a rounding floor.
    `work` counts e_0 evaluations on the shared grid, summed over the
    resolutions tried. Raises ConvergenceError when Re lam is so small
    that [0, T] needs more than 1024 panels, or when the largest degree
    still disagrees with the one before.
    """
    if p < 1:
        raise DomainError("recursion route needs p >= 1")
    lam, x = complex(lam), complex(x)
    _require_lam(lam)

    per_unit = max(0.5, abs(lam) / 2.0)  # panels per unit of sigma
    T, dropped = _recursion_cutoff(p, lam, x, 0.1 * tol, _MAX_PANELS / per_unit)
    panels = math.ceil(T * per_unit)
    h = T / panels
    starts = np.arange(panels)[:, None]

    work = 0
    prev = None
    diff = math.inf
    for m in _PANEL_DEGREES:
        t, matrix = chebyshev_tail_rule(m)
        sigma = h * (starts + 0.5 * (1.0 + t))
        arg = -lam * sigma + x * np.exp(-sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            g0 = np.exp(arg)
        if not np.all(np.isfinite(g0)):
            raise ConvergenceError(f"e_0 overflows binary64 on the grid at x = {x}")
        work += g0.size
        g = g0
        for _ in range(p):
            g = _tail_integrate(g, matrix, h)
        val = complex(g[0, -1])
        if prev is not None:
            diff = abs(val - prev)
            if diff <= max(tol, tol * abs(val)):
                # rounding floor: each e_0 value is off by ~eps |arg| relative,
                # each level adds a few eps of the integral of |g|
                scale = np.abs(g0) * (1.0 + np.abs(arg))
                for _ in range(p):
                    scale = _tail_integrate(scale, matrix, h)
                floor = 4.0 * (p + 1) * _EPS * float(scale[0, -1])
                return EvalResult(val, diff + dropped + floor, work, "recursion")
        prev = val
    raise ConvergenceError(
        f"recursion route did not converge by panel degree {_PANEL_DEGREES[-1]}: "
        f"last estimate {prev:.12g}, last difference {diff:g} (tol {tol:g})"
    )


# ---------------------------------------------------------------------------
# Hankel contour
# ---------------------------------------------------------------------------


_HANKEL_NODES = 64  # starting Chebyshev point count m on the rays and on the circle


def _ray_tail_bound(s: complex, lam: complex, x: complex, T: float) -> float:
    """Bound on what cutting both rays at |z| = T drops from the contour
    integral of z^(s-1) e^(lam z) e^(x e^z) [Log z], before the prefactor.

    On the rays z = -u: |e^(lam z)| = e^(-Re lam u), |e^(x e^z)| <=
    e^(|x| e^-T), |z^(s-1)| <= u^(Re s - 1) e^(pi |Im s|), and at positive
    integer s the log weight adds |Log z| <= log u + pi; the u-integral is
    taken as T / Re lam times the integrand at T. The factor 1/pi of two
    rays over 2 pi is left out as margin.
    """
    bound = (
        math.exp(-lam.real * T + abs(x) * math.exp(-T) + math.pi * abs(s.imag))
        * max(T, 1.0) ** max(s.real - 1.0, 0.0)
        * (T / lam.real)
    )
    if s.imag == 0.0 and s.real >= 1.0 and s.real == int(s.real):
        bound *= math.log(T) + math.pi
    return bound


def default_contour(s, lam, x, tol: float = 1e-10) -> float:
    """Ray truncation T, chosen so the discarded ray tail
    (`_ray_tail_bound`) sits below the error target."""
    s, lam, x = complex(s), complex(lam), complex(x)
    T = max(30.0, abs(x) + abs(lam) + 30.0)
    while _ray_tail_bound(s, lam, x, T) > 0.05 * tol and T <= 1e5:
        T *= 1.3
    return T


def _hankel_raw(power, lam, kernel, T, log_weight, tol, radius=1.0):
    """(1/2 pi i) * integral over the contour of z^power e^(lam z) K(z) [Log z],
    rays cut at |z| = T around a circle of the given radius.

    Rays carry arg z = -pi (lower) and +pi (upper); the circle runs theta
    from -pi to pi, all on the principal branch; the rays run in
    v = log(u / radius). Both pieces sit on the nested points of
    `clenshaw_curtis(m)`, m doubling from 64 until the refinements settle.
    Returns (value, last difference, rounding floor, distinct evaluations
    2(m+1)); the floor is 16 eps times the integral of the modulus, the
    level at which cancellation on the circle leaves the sum; a difference
    under it but above tol raises at once, an integrand past binary64 too.
    """
    log_r = math.log(radius)
    half_v = 0.5 * (math.log(T) - log_r)  # T / radius overflows past |x| ~ 1e154
    lower, upper = cmath.exp(-1j * math.pi * power), cmath.exp(1j * math.pi * power)
    log_factor = (lambda log_z: log_z) if log_weight else (lambda log_z: 1.0)  # the [Log z]

    def pieces(t):
        """Rays (row 0) and circle (row 1) at points t of [-1, 1], Jacobians included."""
        with np.errstate(over="ignore", invalid="ignore"):
            log_u = log_r + half_v * (1.0 + t)
            u = np.exp(log_u)
            # z^power [Log z] on the lower and upper ray: u^power e^(-+ i pi power)
            # times Log z = log u -+ i pi; du = u dv
            cut = lower * log_factor(log_u - 1j * math.pi) - upper * log_factor(log_u + 1j * math.pi)
            rays = np.exp(power * log_u - lam * u) * kernel(-u) * u * cut
            theta = math.pi * t
            z = radius * np.exp(1j * theta)
            circle = np.exp(power * (log_r + 1j * theta) + lam * z) * kernel(z) * 1j * z
            return np.stack([half_v * rays, math.pi * circle * log_factor(log_r + 1j * theta)])

    m = _HANKEL_NODES
    t, weights = clenshaw_curtis(m)
    values = pieces(t)
    prev = None
    # the first difference is judged against the m/2 rule on the even points
    diff = abs(np.sum(values @ weights) - np.sum(values[:, ::2] @ clenshaw_curtis(m // 2)[1])) / (2 * math.pi)
    for doubling in range(8):
        if doubling:
            m *= 2
            t, weights = clenshaw_curtis(m)
            grown = np.empty((2, m + 1), dtype=complex)
            grown[:, ::2] = values  # the old points are t[::2]
            grown[:, 1::2] = pieces(t[1::2])
            values = grown
        total = complex(np.sum(values @ weights)) / (2j * math.pi)
        size = float(np.sum(np.abs(values) @ weights)) / (2.0 * math.pi)
        if not math.isfinite(size):  # the weights are positive: any inf or nan shows here
            raise _Overflow(f"contour integrand overflows binary64 (circle radius {radius:g})")
        floor = 16.0 * _EPS * size
        if prev is not None:
            diff, prev_diff = abs(total - prev), diff
            # settled: the values agree to tol, the integrals of the modulus
            # to 1 %, and the difference has shrunk tenfold (or to the
            # floor); two levels that both miss a narrow peak, or alias one
            # oscillation, agree as well, but fail one of the other two
            if (diff <= max(tol, tol * abs(total)) and abs(size - prev_size) <= 0.01 * size
                    and diff <= max(0.1 * prev_diff, floor)):
                return total, diff, floor, values.size
            if diff <= floor:
                break
        prev, prev_size = total, size
    raise ContourResolutionError(
        f"contour refinements stalled at m = {m} (m + 1 points per piece): "
        f"last estimate {total:.12g}, last difference {diff:g}, "
        f"rounding floor {floor:g} (tol {tol:g})"
    )


def hankel_contour_integral(s, lam, kernel, tol: float = 1e-10) -> complex:
    """Gamma(1-s)/(2 pi i) * integral of z^(s-1) e^(lam z) kernel(z) dz over
    the contour; s must not be a positive integer. kernel receives numpy
    arrays of contour points."""
    s, lam = complex(s), complex(lam)
    if s.imag == 0.0 and s.real >= 1.0 and s.real == int(s.real):
        raise DomainError("positive integer order needs the log-weighted form")
    T = default_contour(s, lam, 0.0, tol)
    raw = _hankel_raw(s - 1.0, lam, kernel, T, log_weight=False, tol=tol)[0]
    return gamma_fn(1.0 - s) * raw


def eval_hankel(s, lam, x, tol: float = 1e-9) -> EvalResult:
    """Hankel-contour evaluation of e_s(x, lam).

    Non-integer s uses Gamma(1-s)/(2 pi i) * integral of z^(s-1) e^(lam z)
    e^(x e^z); positive integer m uses the log-weighted form with
    prefactor (-1)^m / (2 pi i (m-1)!). On the circle of radius
    min(1, 2/|x|), |x z| <= 2 keeps e^(x e^z) within about e^(+-2) of e^x.
    Near-integer non-integer s (within 1e-8) is refused: Gamma(1-s) blows
    up while the contour integral vanishes, and binary64 cannot resolve
    the product.
    """
    s, lam, x = complex(s), complex(lam), complex(x)
    _require_lam(lam)
    T = default_contour(s, lam, x, tol)
    kernel = lambda z: np.exp(x * np.exp(z))

    is_pos_int = s.imag == 0.0 and s.real >= 1.0 and s.real == int(s.real)
    if not is_pos_int and s.imag == 0.0 and s.real >= 0.5:
        nearest = round(s.real)
        if nearest >= 1 and 0 < abs(s.real - nearest) < 1e-8:
            raise ContourResolutionError(
                "s within 1e-8 of a positive integer: use the integer form"
            )

    if is_pos_int:
        m = int(s.real)
        power, prefactor = float(m - 1), (-1.0) ** m / math.factorial(m - 1)
    else:
        power, prefactor = s - 1.0, gamma_fn(1.0 - s)
    radius = min(1.0, 2.0 / abs(x)) if x else 1.0
    raw, diff, floor, work = _hankel_raw(power, lam, kernel, T, is_pos_int, tol, radius)
    value = prefactor * raw
    dropped = _ray_tail_bound(s, lam, x, T)
    diff, floor, dropped = (abs(prefactor) * e for e in (diff, floor, dropped))
    floor += 64.0 * _EPS * abs(value)  # Gamma(1-s) is good to ~30 eps relative

    # consistency: real parameters must give a real value
    if s.imag == 0.0 and lam.imag == 0.0 and x.imag == 0.0:
        scale = max(abs(value), 1e-30)
        if abs(value.imag) > max(1e-10, 100.0 * diff, 1e-9 * scale):
            raise ContourResolutionError(
                f"ray contributions inconsistent: spurious imaginary part {value.imag:g}"
            )
    return EvalResult(value, diff + floor + dropped, work, "hankel")


# ---------------------------------------------------------------------------
# Taylor shift, generating sum
# ---------------------------------------------------------------------------


def taylor_shift(s, lam, z, x, terms: int, tol: float = DEFAULT_TOL) -> EvalResult:
    """Estimate e_s(x, lam - z) from sum_m (s)_m/m! e_{s+m}(x, lam) z^m.

    Requires |z| < |lam|; the tail estimate is geometric with ratio
    |z|/|lam|.
    """
    s, lam, z, x = complex(s), complex(lam), complex(z), complex(x)
    _require_lam(lam)
    if terms < 1:
        raise DomainError("terms must be >= 1")
    if abs(z) >= abs(lam):
        raise DomainError(f"Taylor shift diverges for |z| >= |lam| ({abs(z):g} >= {abs(lam):g})")
    acc = 0.0 + 0.0j
    inner_err = 0.0
    work = 0
    coeff = 1.0 + 0.0j  # (s)_m / m!
    zpow = 1.0 + 0.0j
    last = 0.0 + 0.0j
    for m in range(terms):
        inner = eval_series(s + m, lam, x, tol=max(tol / 10.0, 1e-15))
        last = coeff * inner.value * zpow
        acc += last
        inner_err += abs(coeff * zpow) * inner.abs_err_estimate
        work += inner.work
        coeff *= (s + m) / (m + 1)
        zpow *= z
    ratio = abs(z) / abs(lam)
    tail = abs(last) * ratio / (1.0 - ratio) if ratio > 0 else 0.0
    return EvalResult(acc, tail + inner_err, work, "taylor_shift")


def generating_sum(lam, x, z, terms: int, tol: float = DEFAULT_TOL) -> complex:
    """sum_{p < terms} e_p(x, lam) z^p; converges to e^x + z e_1(x, lam - z)."""
    lam, x, z = complex(lam), complex(x), complex(z)
    _require_lam(lam)
    if abs(z) >= abs(lam):
        raise DomainError(f"generating sum diverges for |z| >= |lam|")
    acc = cmath.exp(x)
    zpow = 1.0 + 0.0j
    for p in range(1, terms):
        zpow *= z
        acc += zpow * eval_series(p, lam, x, tol=max(tol / 10.0, 1e-15)).value
    return acc


# ---------------------------------------------------------------------------
# asymptotics
# ---------------------------------------------------------------------------


def _lambda_expansion(s, lam, x, order: int, family) -> EvalResult:
    """e^x sum_{n <= order} C(-s, n) lam^(-n-s) P_n(x) for the polynomial
    family P_n = family(n); the error estimate is the magnitude of the
    first omitted term. C(-s, n) is the generalized binomial built
    multiplicatively."""
    s, lam, x = complex(s), complex(lam), complex(x)
    if lam == 0:
        raise DomainError("lam must be nonzero")
    ex = cmath.exp(x)
    acc = 0.0 + 0.0j
    binom = 1.0 + 0.0j  # C(-s, n)
    loglam = cmath.log(lam)
    for n in range(order + 1):
        acc += binom * cmath.exp(-(n + s) * loglam) * complex(family(n)(x))
        binom *= (-s - n) / (n + 1)
    omitted = binom * cmath.exp(-(order + 1 + s) * loglam) * complex(family(order + 1)(x))
    return EvalResult(ex * acc, abs(ex * omitted), order + 1, "asymptotic")


def asymptotic_lambda(s, lam, x, order: int) -> EvalResult:
    """Large-lam expansion e^x sum_n C(-s, n) lam^(-n-s) phi_n(x).

    The error estimate is the magnitude of the first omitted term; the
    caller judges whether lam is large enough for the expansion to help.
    """
    if order < 0 or order > 12:
        raise DomainError("order must be in 0..12")
    return _lambda_expansion(s, lam, x, order, exact.phi_poly)


def asymptotic_x_leading(s, lam, x, sign: int) -> complex:
    """Predicted leading behaviour for large real x (diagnostic only).

    sign=+1: e^x * x^(-s) as x -> +inf; sign=-1: the decaying direction
    Gamma(lam)/Gamma(s) * (log x)^(s-1) * x^(-lam). At non-positive
    integer s the reciprocal gamma factor is zero and so is the estimate.
    """
    s, lam = complex(s), complex(lam)
    x = float(x)
    if x < 10.0:
        raise DomainError("leading-order diagnostics need x >= 10")
    if sign == 1:
        return cmath.exp(x) * cmath.exp(-s * math.log(x))
    if sign == -1:
        try:
            inv_gamma_s = 1.0 / gamma_fn(s)
        except PoleError:
            return 0.0 + 0.0j
        lx = math.log(x)
        return (
            gamma_fn(lam)
            * inv_gamma_s
            * cmath.exp((s - 1.0) * math.log(lx))
            * cmath.exp(-lam * math.log(x))
        )
    raise DomainError("sign must be +1 or -1")


# ---------------------------------------------------------------------------
# incomplete gamma, Ein
# ---------------------------------------------------------------------------


def lower_inc_gamma(lam, x) -> complex:
    """gamma(lam, x) = integral_0^x t^(lam-1) e^(-t) dt via x^lam e_1(-x, lam)
    (`evaluate`: the series up to x = 10, the positive integral beyond)."""
    lam = complex(lam)
    x = float(x)
    _require_lam(lam)
    if x < 0:
        raise DomainError("x must be >= 0")
    if x == 0.0:
        return 0.0 + 0.0j
    return cmath.exp(lam * math.log(x)) * evaluate(1.0, lam, -x).value


def ein(z) -> complex:
    """Ein(z) = sum_{k>=1} (-1)^(k-1) z^k / (k! k), entire; equals z e_2(-z).
    ConditioningError once the rounding eps sum |terms| of the cancelling
    sum exceeds DEFAULT_TOL max(1, |Ein|), from about |z| = 12 on."""
    z = complex(z)
    if z == 0:
        return 0.0 + 0.0j
    acc = 0.0 + 0.0j
    sum_abs = 0.0
    zk = 1.0 + 0.0j  # z^k / k!
    k = 0
    while True:
        k += 1
        zk *= z / k
        if abs(zk) > 1e290:
            raise _Overflow(f"Ein series overflows binary64 before converging at z = {z}")
        acc += (-1.0) ** (k - 1) * zk / k
        sum_abs += abs(zk) / k
        if k > abs(z) and abs(zk) / k < _EPS * max(abs(acc), 1e-300):
            break
        if k > 100000:
            raise ConvergenceError("Ein series did not converge")
    if _EPS * sum_abs > DEFAULT_TOL * max(1.0, abs(acc)):
        raise ConditioningError(f"Ein series at z = {z} cancels: rounding {_EPS * sum_abs:.3g} "
                                f"against |Ein| = {abs(acc):.6g} (target {DEFAULT_TOL:g})")
    return acc
