"""Numeric evaluation routes for e_s(x, lam) = sum x^n / (n! (n+lam)^s).

Routes implemented here, each independently testable against the others:

  * direct series with an analytic factorial-tail bound, at one x or
    over a 1-D array of x (s and lam per node, or shared) in one
    vectorized pass,
  * closed form e^x * Q_p(x, lam) at non-positive integer orders,
  * Hankel contour integral, one formula for every s, on nested
    Clenshaw-Curtis points: radius set by x, rays placed and scaled at
    their peak (`evaluate` picks among these three by a stated region map),
  * nested-integral recursion from e_0 = e^t, written as p repeated tail
    integrations g_{q+1}(tau) = int_tau^inf g_q of
    g_q(sigma) = e^(-lam sigma) e_q(x e^-sigma) (the log-variable Volterra
    form) on one cached Chebyshev grid,
  * Taylor shift in the lam variable and the geometric generating sum,
  * large-lam asymptotic expansion and the leading large-x behaviour.

Also houses the gamma kernel (one log formula, `_log_gamma`: the Lanczos
sum and the reflection in logs), the lower incomplete
gamma via the s = 1 series, the entire function Ein, and a numerically
stable evaluator for the weighted products e^(-t) e_s(z t, lam) that the
transform layer integrates, a whole array of quadrature nodes per call.
`evaluate`, `eval_series` and `series.h_direct` take x as a number or as
a 1-D numpy array, and s and lam as numbers or as arrays of x's shape (one
(s, lam) pair per node, so a whole (s, x, lam) grid is one call); every
array node stops where the number would, and a non-finite s, lam or x is
a DomainError.

All powers (n+lam)^s, t^(lam-1), z^(s-1) are principal-branch.
"""

from __future__ import annotations

import cmath
import functools
import math
import threading

import numpy as np

from . import exact
from .quadrature import _CC_FIRST, _NOISE, _exp_bound, _read_only, _tail_integrate
from .quadrature import chebyshev_tail_rule, clenshaw_curtis, clenshaw_curtis_quad
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
_LOG_MAX = 709.782712893384  # log of the largest binary64
DEFAULT_TOL = 1e-12
_MAX_TERMS = 10000  # term cap of eval_series and h_direct
_HANKEL_X = 10.0  # evaluate: Hankel past |x| = _HANKEL_X once |x| - Re x > _CANCEL_LOG
_CANCEL_LOG = 10.0


def _require_lam(lam: complex):
    if complex(lam).real <= 0:
        raise DomainError(f"Re lam must be positive, got lam = {lam}")


def _not_finite(**args) -> DomainError:
    """The error for arguments that are not all finite, each named with its value."""
    *rest, last = args
    got = ", ".join(f"{name} = {value}" for name, value in args.items())
    return DomainError(f"{', '.join(rest) + ' and ' if rest else ''}{last} must be finite, got {got}")


def _require_finite(**args):
    """DomainError unless every keyword argument is a finite number."""
    if not all(cmath.isfinite(v) for v in args.values()):
        raise _not_finite(**args)


class _Overflow(ConvergenceError, OverflowError):
    """Past binary64; still an OverflowError for callers catching the builtin."""


# ---------------------------------------------------------------------------
# gamma kernel
# ---------------------------------------------------------------------------

# Lanczos, g = 7, 9 terms
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
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


def _log_lanczos(z):
    """log Gamma(z) for Re z >= 1/2, z an np.complex128 or a complex array:
    the Lanczos sum in logs, log sqrt(2 pi) + (w + 1/2) log t - t + log acc."""
    w = z - 1.0
    acc = _LANCZOS[0]
    for i, c in enumerate(_LANCZOS[1:], start=1):
        acc = acc + c / (w + i)
    t = w + 7.5
    return _LOG_SQRT_2PI + (w + 0.5) * np.log(t) - t + np.log(acc)


def _log_sine(z):
    """log sin(pi z), z an np.complex128 or a complex array, never past
    binary64. sin(pi z) = (-1)^n sin(pi v), v = z - n with n the nearest
    integer: v is exact, where the rounding of pi z would be a large relative
    error next to n. log sin(pi v) = -i g v + log expm1(2 i g v) - log 2 -
    i g/2 with g = copysign(pi, Im v): e^(2 i g v) is at most 1 in modulus."""
    n = np.rint(z.real)
    v = z - n
    g = np.copysign(math.pi, v.imag)
    return -1j * g * (v + 0.5) + np.log(np.expm1(2j * g * v)) - math.log(2.0) + 1j * math.pi * (n % 2)


def _log_gamma(z):
    """log Gamma(z) (some branch), z an np.complex128 or a complex array off
    the poles: `_log_lanczos` for Re z >= 1/2, and left of it the reflection
    log pi - log sin(pi z) - log Gamma(1-z)."""
    if isinstance(z, np.ndarray):
        left = z.real < 0.5
        out = _log_lanczos(np.where(left, 1.0 - z, z))
        out[left] = math.log(math.pi) - _log_sine(z[left]) - out[left]
        return out
    if z.real < 0.5:
        return math.log(math.pi) - _log_sine(z) - _log_lanczos(1.0 - z)
    return _log_lanczos(z)


def _at_pole(z):
    """Whether z, a number or (elementwise) an array, is a non-positive integer."""
    return (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.rint(z.real))


def gamma_fn(z):
    """Complex Gamma(z) for a number or a numpy array (a real array stays
    real), exp of `_log_gamma`; 0 where Gamma(z) underflows. Raises
    PoleError at the non-positive integers, and a ConvergenceError (an
    OverflowError too) where Gamma(z) passes binary64."""
    array = isinstance(z, np.ndarray) and z.ndim > 0
    w = np.asarray(z, dtype=complex) if array else np.complex128(z)
    if (pole := _at_pole(w)).any():
        raise PoleError(f"gamma pole at z = {(w.real[pole][0] if array else w.real):g}")
    log_value = _log_gamma(w)
    if not (fits := log_value.real < _LOG_MAX).all():
        raise _Overflow(f"Gamma overflows binary64 at z = {w.flat[np.argmin(fits)] if array else complex(w)}")
    value = np.exp(log_value)
    if not array:
        return complex(value)
    return value if np.iscomplexobj(z) else value.real


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


# The stop rule's arithmetic, shared by both paths of `_direct_sum`: each
# helper takes numbers, or numpy arrays that broadcast (x then |x|).


def _tail_bound(s: complex, lam: complex, x, n, prefix):
    """`series_tail_bound` plus prefix times its value at s = 0; NaN where
    the term ratio |x|/(n+1), times the growth of |(k+lam)^-s| at Re s < 0,
    is above 1/2 and the bound does not hold yet. With an array n, s and
    lam may be arrays too (one pair per node of x)."""
    ax = abs(x)
    ratio = ax / (n + 1)
    # in logs: |x|^(n+1) and (n+1)! overflow separately long before their quotient
    if isinstance(n, np.ndarray):  # under the caller's errstate: log 0 and exp past binary64
        per_node = isinstance(s, np.ndarray)  # columns of per-node s and lam
        grow = np.maximum(-s.real, 0.0) if per_node else -s.real  # x^0 = 1 exactly where Re s >= 0
        growing = grow.any() if per_node else grow > 0
        g = np.exp(np.abs(s.imag) * math.pi / 2.0) if per_node else math.exp(abs(s.imag) * math.pi / 2.0)
        if growing:
            ratio = ratio * (1.0 + 1.0 / (n + lam.real)) ** grow
        log_factorial = _LOG_FACTORIAL.upto(int(n.max()) + 2)[0][n.astype(np.int64) + 1]
        lead = np.where(ratio <= 0.5, np.exp((n + 1) * np.log(ax) - log_factorial), np.nan)
        power = abs(n + 1 + lam) ** grow if growing else 1.0
        return lead * (2.0 * (power * g + prefix))
    if s.real < 0:
        ratio = ratio * (1.0 + 1.0 / (n + lam.real)) ** (-s.real)
    if ratio > 0.5:
        return math.nan
    g = math.exp(abs(s.imag) * math.pi / 2.0) if s.imag else 1.0
    lead = math.exp((n + 1) * math.log(ax) - math.lgamma(n + 2)) if ax else 0.0
    power = abs(n + 1 + lam) ** -s.real if s.real < 0 else 1.0  # |n+1+lam| > 1
    return lead * (2.0 * (power * g + prefix))


def _rounding_level(s: complex, lam: complex, n):
    """eps (2 + 2n + |s| log(2 + n + |lam|)): the relative rounding of a sum
    of n+1 terms, for the drift of x^k/k! and of a prefix (about eps a
    step) and of (k+lam)^-s."""
    log = np.log if isinstance(n, np.ndarray) else math.log
    return _EPS * (2.0 + 2.0 * n + abs(s) * log(2.0 + n + abs(lam)))


def _is_nodes(x) -> bool:
    """True for a numpy array of x (the array path), False for a number."""
    if not isinstance(x, np.ndarray) or x.ndim == 0:
        return False
    if x.ndim != 1:
        raise DomainError(f"x must be a number or a 1-D array, got shape {x.shape}")
    return True


def _grid_args(s, lam, x):
    """The checked s, lam and x of `evaluate`, `eval_series` and
    `series.h_direct`, and whether x is an array: complex numbers, or for
    a 1-D array x that array with s, lam both numbers or both complex
    arrays of its shape (one pair per node). DomainError for another
    shape, a non-finite value, or Re lam <= 0."""
    if not (isinstance(x, np.ndarray) or isinstance(s, np.ndarray) or isinstance(lam, np.ndarray)):
        s, lam, x = complex(s), complex(lam), complex(x)  # numbers: no more than this on the scalar loops' path
        if not (cmath.isfinite(s) and cmath.isfinite(lam) and cmath.isfinite(x)):
            raise _not_finite(s=s, lam=lam, x=x)
        if lam.real <= 0:
            _require_lam(lam)
        return s, lam, x, False
    nodes = _is_nodes(x)
    per_node = isinstance(s, np.ndarray) and s.ndim or isinstance(lam, np.ndarray) and lam.ndim
    if per_node:
        if not nodes or any(np.ndim(v) and np.shape(v) != x.shape for v in (s, lam)):
            raise DomainError(f"s and lam must be numbers or arrays of the shape of an array x, got shapes "
                              f"{np.shape(s)} and {np.shape(lam)} for x of shape {np.shape(x)}")
        s, lam = (np.array(np.broadcast_to(v, x.shape), dtype=complex) for v in (s, lam))
        finite = np.isfinite(s).all() and np.isfinite(lam).all()
    else:
        s, lam = complex(s), complex(lam)
        finite = cmath.isfinite(s) and cmath.isfinite(lam)
    x = x if nodes else complex(x)
    if not (finite and np.isfinite(x).all()):
        raise _not_finite(s=s, lam=lam, x=x)
    _require_lam(lam.real.min(initial=1.0) if per_node else lam)
    return s, lam, x, nodes


def _pairs(s, lam):
    """The distinct (s, lam) pairs of `_grid_args`' s and lam, and each
    node's pair index: None for numbers, the one pair."""
    if not isinstance(s, np.ndarray):
        return (s,), (lam,), None
    index = {}
    pair = np.array([index.setdefault(p, len(index)) for p in zip(s.tolist(), lam.tolist())], dtype=np.intp)
    s_pairs, lam_pairs = np.array(list(index), dtype=complex).reshape(-1, 2).T
    return s_pairs, lam_pairs, pair


_SUM_BLOCK = 1 << 13  # nodes x terms per block of `_series_sum`, so memory stays flat


def _series_sum(s, lam, x: np.ndarray, tol: float, w=None):
    """`_direct_sum` at every node of the 1-D array x, each node stopped
    after the term where the scalar loop stops, with the same error
    estimate (up to the order of summation) and the same ConvergenceError
    past binary64 or `_MAX_TERMS`. s and lam are numbers or arrays of x's
    shape (`_grid_args`). The coefficients a_n, (n+lam)^-s or with w the
    prefix sums P_n (`_prefix_rows`), come as one row per distinct pair
    (`_pairs`); each node reads its pair's row, and its own s and lam
    enter the tail bound and the rounding level.

    Nodes go in passes whose first block of terms is 2 max|x| + 24 long,
    each next one twice as long, every block under `_SUM_BLOCK` nodes x
    terms; x^n/n! is built in the scalar loop's order, the sums are
    numpy's. Returns (values, errs, the total of the nodes' last n).
    """
    s_pairs, lam_pairs, pair = _pairs(s, lam)
    ax = np.array([abs(v) for v in x.tolist()])  # as the scalar rule takes |x|
    if np.iscomplexobj(x) and not x.imag.any():
        x = x.real  # real arithmetic gives the complex loop's values
    values = np.zeros(x.size, dtype=complex)
    errs = np.zeros(x.size)
    stops = np.zeros(x.size, dtype=np.int64)
    width = int(2.0 * ax.max(initial=0.0)) + 24  # the rule stops ~20 terms past 2|x| at |x| <= 10
    step = max(1, _SUM_BLOCK // width)  # nodes per pass: a pass's first block is width terms long
    for first in range(0, x.size, step):
        live = np.arange(first, min(first + step, x.size))  # nodes not yet stopped
        xpow = acc = sum_abs = 0.0  # per live node where the last block ended: x^(lo-1)/(lo-1)!, sums
        lo, length = 0, width
        while live.size:
            hi = min(lo + max(8, min(length, _SUM_BLOCK // live.size)), _MAX_TERMS + 1)
            n = np.arange(lo, hi, dtype=float)
            xl, al = x[live, None], ax[live, None]
            sl, ll = (s, lam) if pair is None else (s[live, None], lam[live, None])
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if w is None:
                    a, b = _coefficient_rows(s_pairs, lam_pairs, 0.0, lo, hi), 0.0
                else:  # |P_(n+1)| enters the tail bound
                    prefix = _prefix_rows(s_pairs, lam_pairs, w, hi)
                    a, b = prefix[:, lo:hi], np.abs(prefix[:, lo + 1:hi + 1])
                if pair is not None:  # each live node's row
                    a = a[pair[live]]
                    b = b[pair[live]] if np.ndim(b) else b
                xpows = xl / n  # x^n/n! = x^(n-1)/(n-1)! (x/n), in the scalar loop's order
                if lo:
                    xpows[:, 0] *= xpow
                else:
                    xpows[:, 0] = 1.0
                np.cumprod(xpows, axis=1, out=xpows)
                tail = _tail_bound(sl, ll, al, n, b)
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
            se, le = (s, lam) if pair is None else (s[ended], lam[ended])
            errs[ended] = tail[rows, k] + _rounding_level(se, le, lo + k) * sum_abs[rows]
            going = ~done
            live, xpow, acc, sum_abs = live[going], xpows[going, -1], acc[going], sum_abs[going]
            lo, length = hi, 2 * length
    return values, errs, int(stops.sum())


def _direct_sum(s, lam, x, tol: float, w=None):
    """sum_n x^n/n! a_n, a_n = (n+lam)^-s, or given h's w the prefix sum P_n =
    sum_{j<n} w^j (j+lam)^-s, to the first n >= 2|x| whose tail bound (plus
    |P_(n+1)| times its value at s = 0) meets tol; estimate: that bound plus
    the rounding level times sum |terms|. Returns (value, estimate, last n),
    for an array x (`_series_sum`) arrays and the total of the nodes' last n.
    ConvergenceError past binary64 or `_MAX_TERMS` terms."""
    if isinstance(x, np.ndarray):
        return _series_sum(s, lam, x, tol, w)
    # the bound at n needs the coefficients up to n+1, not the running sum,
    # so the last term is found before summing: the first n >= 2|x| whose
    # bound meets tol (NaN before the ratio gate), else term _MAX_TERMS,
    # past which the rule raises
    neg_s = -s
    acc = 0.0 + 0.0j
    sum_abs = 0.0
    power_term = 1.0 + 0.0j  # x^n / n!
    last = None
    try:
        if w is None:
            for n in range(math.ceil(2.0 * abs(x)), _MAX_TERMS + 1):
                if (tail := _tail_bound(s, lam, x, n, 0.0)) <= tol:
                    last = n
                    break
        else:
            prefix, wpow, first = [0.0 + 0.0j], 1.0 + 0.0j, math.ceil(2.0 * abs(x))
            for n in range(_MAX_TERMS + 1):
                prefix.append(prefix[n] + wpow * cmath.exp(neg_s * cmath.log(lam + n)))
                wpow *= w
                if n >= first and (tail := _tail_bound(s, lam, x, n, abs(prefix[n + 1]))) <= tol:
                    last = n
                    break
        for n in range(_MAX_TERMS + 1 if last is None else last + 1):
            if n:
                power_term *= x / n
            term = power_term * (cmath.exp(neg_s * cmath.log(n + lam)) if w is None else prefix[n])
            acc += term
            sum_abs += abs(term)
    except OverflowError as exc:  # |term| or the tail bound past binary64
        raise _Overflow(f"series terms overflow binary64 at x = {x}") from exc
    if n >= 2.0 * abs(x) and not math.isfinite(sum_abs):
        raise _Overflow(f"series terms overflow binary64 at x = {x}")
    if last is None:
        raise ConvergenceError(f"series needs more than {_MAX_TERMS} terms for tol={tol:g} at x={x}")
    return acc, tail + _rounding_level(s, lam, last) * sum_abs, last


def eval_series(s, lam, x, tol: float = DEFAULT_TOL) -> EvalResult:
    """Partial sum of the defining series, stopped by the analytic tail bound.

    (n+lam)^s uses the principal branch of log(n+lam); well defined since
    Re(n+lam) > 0. The error estimate adds a rounding level growing with
    the number of terms (`_direct_sum`); past binary64, ConvergenceError.

    x is a number, or a 1-D numpy array summed in one pass (`_series_sum`)
    over the rows of (n+lam)^-s: s and lam are then numbers or arrays of
    x's shape, every node stops where the number would, value and
    abs_err_estimate are arrays, and work is the total number of terms.
    Non-finite arguments raise DomainError.
    """
    s, lam, x, nodes = _grid_args(s, lam, x)
    if tol <= 0:
        raise DomainError("tol must be positive")
    value, err, last = _direct_sum(s, lam, x, tol)
    return EvalResult(value, err, last + (x.size if nodes else 1), "series")


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


def _coefficient_values(s, lam, theta: float, n):
    """c_n = (n+lam)^-s e^(i n theta) at the integers n, s and lam numbers
    or columns of pairs that broadcast with n; real arrays when every c_n
    is real."""
    if theta in (0.0, math.pi) and not (np.any(np.imag(s)) or np.any(np.imag(lam))):
        c = np.exp(-np.real(s) * np.log(n + np.real(lam)))
        if theta:
            c[..., n % 2 == 1] *= -1.0
        return c
    return np.exp(-s * np.log(n + lam) + 1j * theta * n)


@functools.lru_cache(maxsize=4)
def _coefficients(s: complex, lam: complex, theta: float) -> _GrowingTable:
    """Table of c_n = (n+lam)^-s e^(i n theta) and |c_n|, the factors of
    e^(-t) e_s(z t, lam) that do not depend on t (theta = arg z)."""

    def grow(old, size):
        have = 0 if old is None else len(old[0])
        c = _coefficient_values(s, lam, theta, np.arange(have, size))
        if old is not None:
            c = np.concatenate([old[0], c])
        return c, np.abs(c)

    return _GrowingTable(grow)


def _coefficient_rows(s_pairs, lam_pairs, theta: float, lo: int, hi: int):
    """c_n for lo <= n < hi, row i for the pair (s_pairs[i], lam_pairs[i]):
    one pair reads the memoized table, several are computed here."""
    if len(s_pairs) == 1:
        return _coefficients(complex(s_pairs[0]), complex(lam_pairs[0]), theta).upto(hi)[0][None, lo:hi]
    return _coefficient_values(s_pairs[:, None], lam_pairs[:, None], theta, np.arange(lo, hi))


def _prefix_rows(s_pairs, lam_pairs, w: complex, hi: int):
    """P_n = sum_{j<n} w^j (j+lam)^-s for 0 <= n <= hi, one row per pair as
    in `_coefficient_rows`: the coefficients of the h_s series."""
    c = _coefficient_rows(s_pairs, lam_pairs, cmath.phase(w), 0, hi) * abs(w) ** np.arange(hi)
    return np.concatenate((np.zeros((len(s_pairs), 1)), np.cumsum(c, axis=1)), axis=1)


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

    Returns (value, abs_err, nterms): numbers for a number t, arrays for an
    array t, where each node's window is summed whole (`_poisson_sum`), so
    its value and abs_err are bit for bit those of its own call; nterms is
    the total number of terms. abs_err adds the dropped-tail bound to the
    rounding level of the summed terms.
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
    center, two_m = np.floor(m), 2.0 * m
    log_center = log_env(center)
    big_l = max(-math.log(tol), 1.0) + np.maximum(0.0, log_center + shift)

    # above the window: room for env's growth across the Gaussian width
    # (none for a non-increasing env, growth 0), a Chernoff (Bernstein) k,
    # then Newton on Bennett's bound, h(u) = (1+u) log(1+u) - u, from the
    # right, which keeps the bound below its target at every step
    big_lu = big_l
    if growth:
        width = big_l + np.sqrt(two_m * big_l)
        big_lu = big_l + np.maximum(0.0, log_env(m + width) - log_env(m))
    k = big_lu / 3.0 + np.sqrt(big_lu * big_lu / 9.0 + two_m * big_lu)
    for _ in range(3):
        grad = np.log1p(k / m)
        k -= ((m + k) * grad - k - big_lu) / grad
    # k >= p gives log(N/m) >= k/N >= p/N at N = m + k: tilting the Poisson
    # law by that much lets the Bennett bound carry env's growth (j/N)^p
    top = np.maximum(np.ceil(m + np.maximum(k, growth)), center + 1.0)
    k = top - m
    log_up = log_env(top) - ((m + k) * np.log1p(k / m) - k)

    # below the window: Chernoff, times max env there (at 0 or n_lo - 1)
    log_first = log_env(0.0)
    big_ll = big_l + np.maximum(0.0, log_first - log_center)
    n_lo = np.maximum(0.0, np.floor(m - np.sqrt(two_m * big_ll)))
    log_lo = np.maximum(log_first, log_env(np.maximum(n_lo - 1.0, 0.0))) - (m - n_lo + 1.0) ** 2 / two_m
    log_lo[n_lo == 0.0] = -np.inf  # nothing dropped below
    dropped = np.exp(shift + log_up) + np.exp(shift + log_lo)
    return n_lo.astype(np.int64), top.astype(np.int64) - 1, dropped


def _poisson_sum(m, shift, n_lo, n_hi, c, absc):
    """sum_{n_lo <= n <= n_hi} e^shift P(n; m) c_n per node over tables c
    and absc = |c| indexed by n, with Loader-form log P (`_LOG_NORM`), the
    windows end to end in groups of whole nodes of at most `_CHUNK` terms (or
    one longer window), so a node's sum is bit for bit its own call's:
    (values, sums of |terms|, number of terms)."""
    log_norm = _LOG_NORM.upto(int(n_hi.max(initial=0)) + 1)[0]
    inv_m = 1.0 / m
    lengths = n_hi - n_lo + 1
    ends = np.cumsum(lengths)
    starts = ends - lengths
    offset = n_lo - starts  # n = offset + position in the flat layout
    values, sum_abs, first = np.empty(m.size, dtype=complex), np.empty(m.size), 0
    while first < m.size:
        lo = starts[first]
        last = max(int(np.searchsorted(ends, lo + _CHUNK, "right")), first + 1)
        group, at = slice(first, last), starts[first:last] - lo
        reps = lengths[group]  # each node's numbers, repeated over its terms
        n = np.repeat(offset[group], reps) + np.arange(lo, ends[last - 1])
        d = n - np.repeat(m[group], reps)
        # n log1p(d/m) - d: at n = 0 the clip turns 0 * log1p(-1) into 0
        ratio = np.maximum(d * np.repeat(inv_m[group], reps), -1.0 + _EPS)
        w = np.exp(np.repeat(shift[group], reps) - (n * np.log1p(ratio) - d) - log_norm[n])
        values[group], sum_abs[group] = np.add.reduceat(w * c[n], at), np.add.reduceat(w * absc[n], at)
        first = last
    return values, sum_abs, int(lengths.sum())


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
    """e_{-p}(x, lam) = e^x * Q_p(x, lam) at a number or 1-D array x, Q_p collapsed
    at lam and evaluated in binary64 (`_closed_form`); past its range, ConvergenceError."""
    if p < 0:
        raise DomainError("p must be >= 0")
    lam = complex(lam)
    _require_lam(lam)
    if _is_nodes(x):
        x = x.astype(complex)
        with np.errstate(over="ignore", invalid="ignore"):
            value, estimate = _closed_form(p, lam, x, x)
        finite = np.isfinite(value) & np.isfinite(estimate)
        if not finite.all():
            raise _Overflow(f"e^x Q_{p}(x, lam) overflows binary64 at x = {x[np.argmin(finite)]}")
        return EvalResult(value, estimate, (p + 1) * x.size, "closed_form")
    x = complex(x)
    try:
        value, estimate = _closed_form(p, lam, x, x)
    except OverflowError:
        value = estimate = math.inf
    if not (cmath.isfinite(value) and math.isfinite(estimate)):
        raise _Overflow(f"e^x Q_{p}(x, lam) overflows binary64 at x = {x}")
    return EvalResult(value, estimate, p + 1, "closed_form")


def _route(s: complex, x: complex) -> str:
    """The route tag `evaluate` picks at one point (see there)."""
    if s.imag == 0.0 and s.real <= 0.0 and s.real == int(s.real):
        return "closed_form"
    if abs(x) > _HANKEL_X and abs(x) - x.real > _CANCEL_LOG:
        return "hankel"
    return "series"


def evaluate(s, lam, x, tol: float = DEFAULT_TOL) -> EvalResult:
    """e_s(x, lam) by the route that suits the arguments; the result's
    `method` tag records the choice:

      * s a non-positive integer: closed form (`eval_negint`), "closed_form";
      * |x| > 10 with |x| - Re x > 10 (so every real x < -10): Hankel
        (`eval_hankel`), "hankel"; there the series' terms outgrow the
        value's scale e^(Re x) by e^(|x| - Re x) > 2e4, so rounding alone
        misses the default tol;
      * everything else: the series (`eval_series`), "series".

    The closed form ignores tol; Hankel meets it on its contour integral
    divided by the rays' scale (at Re x < 0 the value's size), absolute
    below 1 and relative above.

    x may be a 1-D numpy array, and s and lam then numbers or arrays of its
    shape (one pair per node): the series takes all of its nodes in one
    call, the closed form one call per (s, lam) pair, and Hankel one call
    per node. value and abs_err_estimate are
    arrays, work is the total, and method is the route tag when every node
    took one route, else the tuple of per-node tags. Non-finite arguments
    raise DomainError.
    """
    s, lam, x, nodes = _grid_args(s, lam, x)
    if tol <= 0:
        raise DomainError("tol must be positive")
    if not nodes:
        route = _route(s, x)
        if route == "closed_form":  # one node, in the arithmetic of an array
            res = _on_route(route, s, lam, np.array([x]), tol)
            return EvalResult(complex(res.value[0]), float(res.abs_err_estimate[0]), res.work, route)
        return _on_route(route, s, lam, x, tol)
    routes = [_route(a, b) for a, b in zip(np.broadcast_to(s, x.shape).tolist(), x.tolist())]
    pair = _pairs(s, lam)[2]
    values = np.zeros(x.size, dtype=complex)
    errs = np.zeros(x.size)
    work = 0
    for route in set(routes):
        on = np.array([r == route for r in routes])
        if route == "hankel":
            calls = np.flatnonzero(on)  # a contour for each x
        elif route == "series" or pair is None:
            calls = [on]
        else:  # one (s, lam) pair a call
            calls = [on & (pair == p) for p in np.unique(pair[on])]
        for at in calls:
            res = _on_route(route, *((s, lam) if pair is None else (s[at], lam[at])), x[at], tol)
            values[at], errs[at], work = res.value, res.abs_err_estimate, work + res.work
    method = routes[0] if len(set(routes)) == 1 else tuple(routes)
    return EvalResult(values, errs, work, method)


def _on_route(route: str, s, lam, x, tol: float) -> EvalResult:
    """`evaluate` by one route: x a number, or for the series and the
    closed form an array of nodes; s and lam numbers, or arrays like x
    that hold one pair except for the series."""
    if route == "closed_form":
        if isinstance(s, np.ndarray):
            s, lam = complex(s[0]), complex(lam[0])
        return eval_negint(int(-s.real), lam, x)
    if route == "hankel":
        return eval_hankel(s, lam, x, tol)
    return eval_series(s, lam, x, tol)


# ---------------------------------------------------------------------------
# recursion route
# ---------------------------------------------------------------------------

_PANEL_DEGREES = (8, 16, 32, 64, 128)
_MAX_PANELS = 1024  # panels of the recursion grid


def _recursion_cutoff(p: int, lam: complex, x: complex, target: float):
    """Cut-off T for the tail integrations and the bound on what it drops.

    For sigma >= T, |e_q(x e^-sigma)| <= C_q = |lam|^-q + expm1(|x| e^-T)
    (|n + lam| > 1 for n >= 1), and C_q = lam^-q for real x <= 0 at real
    lam, so R_q = int_T^inf |g_q| <= C_q e^(-a T) / a with a = Re lam.
    Dropping (T, inf) at every level moves g_p(0) by at most
    sum_q R_q T^(p-1-q) / (p-1-q)!. T climbs a 1.1 ladder from 1/a until
    that bound is <= target; returns (T, bound). Raises ConvergenceError
    once T passes 2 `_MAX_PANELS`.
    """
    a = lam.real
    bounded = x.imag == 0.0 and x.real <= 0.0 and lam.imag == 0.0
    T = 1.0 / a
    while T <= 2.0 * _MAX_PANELS:
        try:
            spill = 0.0 if bounded else math.expm1(abs(x) * math.exp(-T))
            bound = sum(
                (abs(lam) ** -q + spill) * T ** (p - 1 - q) / math.factorial(p - 1 - q)
                for q in range(p)
            ) * math.exp(-a * T) / a
        except OverflowError:
            bound = math.inf
        if bound <= target:
            return T, bound
        T *= 1.1
    raise ConvergenceError(f"recursion route at p = {p}, lam = {lam} needs a cut-off beyond "
                           f"T = {2 * _MAX_PANELS} (more than {_MAX_PANELS} panels)")


def _recursion_grid(lam: complex, x: complex, left: float, right: float, tol: float, coefs, weight=None):
    """The tail integrations g_{q+1}(tau) = int_tau^right g_q, q < p =
    len(coefs), of g_0(tau) = exp(-lam tau + x e^-tau) over [left, right],
    read out as sum_q coefs[q-1] g_q(left), plus int_left^right
    e^(weight tau) g_p(tau) dtau for a number weight: (value, estimate, work).

    One grid holds every level: equal panels of length <= min(2, 2/|lam|),
    which keep rounding local, each with the cumulative Clenshaw-Curtis
    rule of `chebyshev_tail_rule`, its degree doubled from 8 to 128 until
    two values agree within max(tol, tol |value|). estimate is the last
    difference plus a rounding floor (eps |arg| relative in each e_0 value,
    a few eps of the integral of |g| a level); work counts e_0 evaluations.
    ConvergenceError past `_MAX_PANELS` panels, when e_0 overflows
    binary64, or when the last two degrees disagree.
    """
    p = len(coefs)
    panels = math.ceil((right - left) * max(0.5, abs(lam) / 2.0))
    if panels > _MAX_PANELS:
        raise ConvergenceError(f"recursion grid over [{left:g}, {right:g}] needs {panels} panels "
                               f"(more than {_MAX_PANELS}) at lam = {lam}")
    h = (right - left) / panels
    starts = left / h + np.arange(panels)[:, None]
    if lam.imag == 0.0 and x.imag == 0.0:  # real arithmetic for real parameters
        lam, x = lam.real, x.real

    def read_out(g, coefs, front):
        total = 0.0
        for c in coefs:
            g = _tail_integrate(g, matrix, h)
            if c:
                total += c * g[0, -1]
        return total if front is None else total + (0.5 * h) * np.sum((front * g) @ matrix[-1])

    work, prev, diff = 0, None, math.inf
    for m in _PANEL_DEGREES:
        t, matrix = chebyshev_tail_rule(m)
        sigma = h * (starts + 0.5 * (1.0 + t))
        arg = -lam * sigma + x * np.exp(-sigma)
        with np.errstate(over="ignore", invalid="ignore"):
            g0 = np.exp(arg)
        if not np.isfinite(g0).all():
            raise ConvergenceError(f"e_0 overflows binary64 on the grid at x = {x}")
        work += g0.size
        front = None if weight is None else np.exp(weight * sigma)
        val = complex(read_out(g0, coefs, front))
        if prev is not None:
            diff = abs(val - prev)
            if diff <= max(tol, tol * abs(val)):
                scale = read_out(np.abs(g0) * (1.0 + np.abs(arg)), [abs(c) for c in coefs],
                                 None if front is None else np.abs(front))
                return val, diff + 4.0 * (p + 1) * _EPS * float(scale), work
        prev = val
    raise ConvergenceError(
        f"recursion route did not converge by panel degree {_PANEL_DEGREES[-1]}: "
        f"last estimate {prev:.12g}, last difference {diff:g} (tol {tol:g})"
    )


def eval_via_recursion(p: int, lam, x, tol: float = 1e-10) -> EvalResult:
    """e_p(x, lam) by p repeated tail integrations from e_0 = e^t.

    With g_q(sigma) = e^(-lam sigma) e_q(x e^-sigma), the nested integral
    e_{q+1}(x e^-tau) = int_0^inf e^(-lam t) e_q(x e^-(tau+t)) dt reads
    g_{q+1}(tau) = int_tau^inf g_q(sigma) dsigma, starting from
    g_0(sigma) = e^(-lam sigma) exp(x e^-sigma); then e_p(x, lam) = g_p(0)
    on one grid over [0, T] (`_recursion_grid`, whose estimate gains the
    bound on what the cut at T drops, `_recursion_cutoff`).
    """
    if p < 1:
        raise DomainError("recursion route needs p >= 1")
    lam, x = complex(lam), complex(x)
    _require_lam(lam)
    T, dropped = _recursion_cutoff(p, lam, x, 0.1 * tol)
    value, estimate, work = _recursion_grid(lam, x, 0.0, T, tol, (0.0,) * (p - 1) + (1.0,))
    return EvalResult(value, estimate + dropped, work, "recursion")


# ---------------------------------------------------------------------------
# Hankel contour
# ---------------------------------------------------------------------------


def _ray_peak(s: complex, lam: complex, x: complex) -> tuple[float, complex]:
    """(t_p, log_front): e^(Re log_front) is about the size of
    int u^(s-1) e^(-lam u) e^(x e^-u) du, the rays' scale. Past -Re x = Re lam,
    |e^(-lam u) e^(x e^-u)| peaks at t_p = log(-Re x / Re lam), O(1) wide, and
    log_front = (s-1) log max(1, t_p) - lam t_p - Re lam; short of it t_p = 0,
    e^(x e^-u) falls from e^x within u ~ 1/|x|, and log_front = Re x - s log max(1, |x|)."""
    if -x.real <= lam.real:
        return 0.0, x.real - s * math.log(max(1.0, abs(x)))
    t_peak = math.log(-x.real / lam.real)
    return t_peak, (s - 1.0) * math.log(max(1.0, t_peak)) - lam * t_peak - lam.real


def _ray_tail_bound(s: complex, lam: complex, x: complex, T: float) -> float:
    """Bound on what cutting the rays at u = T drops from
    int u^(s-1) e^(-lam u) e^(x e^-u) du, relative to the rays' scale
    (`_ray_peak`): |e^(x e^-u)| <= e^(|x| e^-T), and the u-integral is taken
    as T / Re lam times the integrand at T; e^(pi |Im s|) is margin."""
    # in logs: T^(Re s - 1) alone passes binary64 at Re s of a few hundred
    log_bound = (-lam.real * T + abs(x) * math.exp(-T) + math.pi * abs(s.imag) + (s.real - 1.0) * math.log(T)
                 + math.log(T / lam.real) - _ray_peak(s, lam, x)[1].real)
    return _exp_bound(log_bound)


def _ray_head_bound(s: complex, lam: complex, x: complex, lo: float, radius: float) -> float:
    """Bound on what starting the rays at radius < lo <= t_p instead of at
    the circle drops, relative to the rays' scale: on [1, lo] the integrand
    is at most max(1, lo^(Re s - 1)) e^(-Re lam lo + Re x e^-lo) (it rises
    up to t_p), and below u = 1 at most max(1, radius^(Re s - 1)) e^(Re x / e)."""
    log_front, sigma = _ray_peak(s, lam, x)[1].real, s.real - 1.0
    upper = -lam.real * lo + x.real * math.exp(-lo) + max(sigma, 0.0) * math.log(lo) - log_front
    lower = x.real / math.e + min(sigma, 0.0) * math.log(radius) - log_front
    return lo * (_exp_bound(upper) + _exp_bound(lower))


def default_contour(s, lam, x, tol: float = 1e-10) -> float:
    """Ray truncation T, chosen so the discarded ray tail
    (`_ray_tail_bound`) sits below the error target."""
    s, lam, x = complex(s), complex(lam), complex(x)
    T = max(30.0, math.log1p(abs(x)) + abs(lam) + 30.0)
    while _ray_tail_bound(s, lam, x, T) > 0.05 * tol and T <= 1e5:
        T *= 1.3
    return T


def _hankel_orders(s: complex):
    """(log 1/Gamma(s), log c, power p, weight) of the one Hankel formula for
    e_s: the rays carry (1/Gamma(s)) u^(s-1), the circle c z^p weight(Log z).
    Left of Re s = 1/2 that is c = Gamma(1-s) and z^(s-1), and 1/Gamma(s) is
    the reflection Gamma(1-s) sin(pi s) / pi (-inf as a log at its zeros).
    Right of it, with m = max(1, round(Re s)) and eps = s - m, z^(s-1) =
    z^(m-1) (1 + expm1(eps Log z)), whose first part has a closed circle
    integral of 0; c = (-1)^m (pi eps / sin(pi eps)) / Gamma(s) =
    (pi eps / sin(pi s)) / Gamma(s) times z^(m-1) expm1(eps Log z) / eps
    remains, the log-weighted integer form at eps = 0, so nothing cancels
    next to the integers."""
    s = np.complex128(s)
    if s.real < 0.5:
        log_circle = _log_lanczos(1.0 - s)
        log_ray = -math.inf if _at_pole(s) else log_circle + _log_sine(s) - math.log(math.pi)
        return log_ray, log_circle, s - 1.0, lambda log_z: 1.0
    log_ray, m = -_log_lanczos(s), max(1, round(s.real))
    if (eps := s - m) == 0.0:
        return log_ray, log_ray + 1j * math.pi * (m % 2), m - 1.0, lambda log_z: log_z
    return log_ray, log_ray + np.log(math.pi * eps) - _log_sine(s), m - 1.0, lambda log_z: np.expm1(eps * log_z) / eps


def _hankel_raw(rays, lo, T, circle, radius, tol):
    """int_0^log(T/lo) rays(w) dw + (1/2 pi i) * integral of circle(z) dz
    around |z| = radius, theta from -pi to pi, by `clenshaw_curtis_quad` on
    [-1, 1]: rays(w) is the ray integrand in w = log(u / lo), Jacobian
    included, circle(z, Log z) (None for the rays alone). Both are taken at
    the rule's points t_j: the quadrature's x_j = -1 + (1 - t_j) is -t_j only up
    to the rounding of 1 - t_j, which the rays magnify up to |x|-fold. They
    are summed per point, each one's 16 eps |value| charged as errs, so the
    noise is 16 eps times the integral of |rays| + |circle|. Returns (value,
    estimate, distinct evaluations); refinements that stop unsettled raise
    ContourResolutionError, an integrand past binary64 an overflow that
    names its point z (-u on the rays)."""
    log_r, half = math.log(radius), 0.5 * math.log(T / lo)

    def pieces(x):
        # clenshaw_curtis_quad's documented calls: the points of m = _CC_FIRST, then the m new ones of rule 2m
        t = clenshaw_curtis(_CC_FIRST)[0] if x.size == _CC_FIRST + 1 else clenshaw_curtis(2 * x.size)[0][1::2]
        with np.errstate(over="ignore", invalid="ignore"):
            total = ray = half * rays(half * (1.0 + t))
            if circle is not None:
                z = radius * np.exp(1j * math.pi * t)  # dz / (2 pi i) = z dtheta / (2 pi) = z dt / 2
                total = ray + (arc := 0.5 * z * circle(z, log_r + 1j * math.pi * t))
        if not (finite := np.isfinite(total)).all():  # a sum is finite where both pieces are
            k = np.argmin(finite)
            on_ray = circle is None or not np.isfinite(ray[k])
            point = -lo * math.exp(half * (1.0 + t[k])) if on_ray else radius * cmath.exp(1j * math.pi * t[k])
            raise _Overflow(f"contour integrand overflows binary64 at z = {complex(point):.6g}")
        return ray if circle is None else (total, _NOISE * (np.abs(ray) + np.abs(arc) - np.abs(total)))

    total, estimate, points, settled = clenshaw_curtis_quad(pieces, -1.0, 1.0, tol)
    if not settled:
        raise ContourResolutionError(
            f"contour refinements stalled at m = {points - 1} (m + 1 points per piece): "
            f"last estimate {total:.12g}, error estimate {estimate:g} (tol {tol:g})")
    return total, estimate, points * (1 + (circle is not None))


def hankel_contour_integral(s, lam, kernel, tol: float = 1e-10) -> complex:
    """Gamma(1-s)/(2 pi i) * integral of z^(s-1) e^(lam z) kernel(z) dz over
    the contour (its limit, the log-weighted form, at the positive
    integers), by the formula of `_hankel_orders`. kernel receives numpy
    arrays of contour points."""
    s, lam = complex(s), complex(lam)
    log_ray, log_circle, power, weight = _hankel_orders(s)
    circle = lambda z, log_z: np.exp(log_circle + power * log_z + lam * z) * kernel(z) * weight(log_z)
    rays = lambda w: np.exp(log_ray + s * w - lam * np.exp(w)) * kernel(-np.exp(w))  # u = e^w
    return _hankel_raw(rays, 1.0, default_contour(s, lam, 0.0, tol), circle, 1.0, tol)[0]


def _exp_times(log_scale: complex, v: complex) -> complex:
    """e^log_scale v as one exponential, so neither factor leaves binary64
    alone; inf past binary64, 0 for v = 0."""
    if not v:
        return 0j
    log = log_scale + cmath.log(v)
    return cmath.exp(log) if log.real < _LOG_MAX else complex(math.inf)


def eval_hankel(s, lam, x, tol: float = 1e-9) -> EvalResult:
    """Hankel-contour evaluation of e_s(x, lam), one formula for every s: the
    rays (1/Gamma(s)) int u^(s-1) e^(-lam u) e^(x e^-u) du and the circle of
    `_hankel_orders`, of radius min(1, 2/|x|), where |x z| <= 2 keeps
    e^(x e^z) within about e^(+-2) of e^x. Both are divided by the rays'
    scale |1/Gamma(s)| e^log_front (`_ray_peak`; the circle's at the poles
    of Gamma(s)), kept as one logarithm, so tol holds relative to the value
    wherever the rays carry it; the value and the estimate are each one
    exponential of that logarithm plus the log of the scaled integral. At
    Re x < 0 the rays start where Re x e^-u = -(1490 + 2 Re lam), under
    e^-745 of their peak, and a circle bound under tol / 1000 stands in for
    the circle; both bounds join the estimate, as does the contour's own
    (`_hankel_raw`: the last refinement's difference plus the noise of both
    pieces). An integrand past binary64 in these units is a
    ConvergenceError (an OverflowError too), refinements that do not settle
    by m = 8192 a ContourResolutionError."""
    s, lam, x = complex(s), complex(lam), complex(x)
    _require_lam(lam)
    t_peak, log_front = _ray_peak(s, lam, x)
    radius = min(1.0, 2.0 / abs(x)) if x else 1.0
    lo = max(radius, t_peak - math.log(1490.0 / lam.real + 2.0))
    log_ray, log_circle, power, weight = _hankel_orders(s)
    log_pre = log_circle if log_ray.real == -math.inf else log_ray  # the circle's at the poles of Gamma(s)
    x_peak = x * math.exp(-t_peak)
    # the rays' share of the prefactor, 1 or (at the poles) 0, joins their exponent
    coefs = (s, lam, x_peak, x_peak - lam * t_peak - log_front + (log_ray - log_pre).real)
    if real := not any(v.imag for v in coefs):  # real arithmetic for real parameters
        coefs = tuple(v.real for v in coefs)

    def rays(w):  # u = lo e^w, d = t_p - u: -lam u + x e^-u = -lam t_p + lam d + x_peak e^d
        d = (t_peak - lo) - lo * np.expm1(w)  # rounding ~ eps |d|, not eps u, next to the peak
        return np.exp(coefs[0] * (log_lo + w) + coefs[1] * d + coefs[2] * np.expm1(d) + coefs[3])

    def circle(z, log_z):
        return np.exp(log_quotient + power * log_z + lam * z + x * np.exp(z) - log_front) * weight(log_z)

    # the circle's bound: Re(x e^z) <= Re x + 2 e^radius, |Log z| <= l = pi - log radius
    # and |expm1(eps Log z) / eps| <= l e^(|eps| l), |eps| <= 1/2 + |Im s|
    log_lo, ell, p, log_quotient = math.log(lo), math.pi - math.log(radius), complex(power), log_circle - log_pre
    circle_bound = _exp_bound(log_quotient.real + math.log(radius * ell) + p.real * math.log(radius)
                              + math.pi * abs(p.imag) + (0.5 + abs(s.imag)) * ell + abs(lam) * radius
                              + x.real + 2.0 * math.exp(radius) - log_front.real)
    skip = circle_bound <= 1e-3 * tol
    T = default_contour(s, lam, x, tol)
    total, err, work = _hankel_raw(rays, lo, T, None if skip else circle, radius, tol)
    log_unit = log_pre + log_front  # value = e^log_unit total
    if not cmath.isfinite(value := _exp_times(log_unit, total)):
        raise _Overflow(f"e_s(x, lam) overflows binary64 at s = {s}, lam = {lam}, x = {x}")
    dropped = (_ray_head_bound(s, lam, x, lo, radius) if lo > radius else 0.0) + _ray_tail_bound(s, lam, x, T)
    # log Gamma(s) is good to about eps |log Gamma(s)|, e^log_unit to eps |log_unit| relative
    rounding = (32.0 + 2.0 * abs(log_pre) + 2.0 * abs(log_front)) * _EPS * abs(value)
    estimate = float(_exp_times(log_unit.real, err + dropped + skip * circle_bound).real + rounding)
    return EvalResult(complex(value.real) if real else value, estimate, work, "hankel")


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
    m = np.arange(terms)
    inner = eval_series(s + m, lam, np.full(terms, x), tol=max(tol / 10.0, 1e-15))
    coeffs = np.cumprod(np.concatenate(([1.0], (s + m[:-1]) / (m[:-1] + 1) * z)))  # (s)_m / m! z^m
    shifted = coeffs * inner.value
    ratio = abs(z) / abs(lam)
    estimate = float(abs(shifted[-1]) * ratio / (1.0 - ratio) + np.abs(coeffs) @ inner.abs_err_estimate)
    return EvalResult(complex(shifted.sum()), estimate, inner.work, "taylor_shift")


def generating_sum(lam, x, z, terms: int, tol: float = DEFAULT_TOL) -> complex:
    """sum_{p < terms} e_p(x, lam) z^p; converges to e^x + z e_1(x, lam - z)."""
    lam, x, z = complex(lam), complex(x), complex(z)
    _require_lam(lam)
    if abs(z) >= abs(lam):
        raise DomainError(f"generating sum diverges for |z| >= |lam|")
    if terms <= 1:
        return cmath.exp(x)
    inner = eval_series(np.arange(1.0, terms), lam, np.full(terms - 1, x), tol=max(tol / 10.0, 1e-15))
    return cmath.exp(x) + complex(np.cumprod(np.full(terms - 1, z)) @ inner.value)


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
    A complex x is a DomainError, e^x x^-s past binary64 an OverflowError.
    """
    s, lam, x = complex(s), complex(lam), complex(x)
    if x.imag or not 10.0 <= x.real < math.inf:
        raise DomainError(f"leading-order diagnostics need a real x >= 10, got x = {x}")
    x = x.real
    if sign == 1:
        log_value = x - s * math.log(x)
    elif sign == -1:
        if _at_pole(s):
            return 0j
        if _at_pole(lam):
            raise PoleError(f"gamma pole at z = {lam.real:g}")
        log_value = complex(_log_gamma(np.complex128(lam)) - _log_gamma(np.complex128(s))) \
            + (s - 1.0) * math.log(math.log(x)) - lam * math.log(x)
    else:
        raise DomainError("sign must be +1 or -1")
    if log_value.real >= _LOG_MAX:
        raise _Overflow(f"the leading term overflows binary64 at x = {x:g}")
    return cmath.exp(log_value)


# ---------------------------------------------------------------------------
# incomplete gamma, Ein
# ---------------------------------------------------------------------------


def lower_inc_gamma(lam, x) -> complex:
    """gamma(lam, x) = integral_0^x t^(lam-1) e^(-t) dt via x^lam e_1(-x, lam)
    (`evaluate`: the series up to x = 10, Hankel beyond)."""
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
