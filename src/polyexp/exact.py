"""Exact rational arithmetic layer.

Bernoulli numbers, Stirling numbers of the second kind, the exponential
(Bell/Touchard) polynomials phi_n, the bivariate polynomials Q_p with
e_{-p}(x, lam) = e^x Q_p(x, lam), Euler polynomials, Faulhaber power-sum
polynomials, and a handful of exact identities tying them together.

Everything here is computed in arbitrary-precision rational arithmetic
(`fractions.Fraction`); no floating point enters. Memo tables are guarded
by locks so concurrent callers are safe; all returned values are
immutable.

Conventions pinned by this module (and enforced in the test suite):
  * Bernoulli numbers use B_1 = -1/2, generated by the defining
    recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1.
  * The power-sum polynomial F_p satisfies F_p(n) = 1^p + ... + (n-1)^p,
    with the summation index starting at k = 1 (no constant term).
"""

from __future__ import annotations

import functools
import threading
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence, Union

Scalar = Union[Fraction, int, float, complex]

__all__ = [
    "ExactPoly",
    "BivariatePoly",
    "bernoulli",
    "stirling2",
    "phi_poly",
    "q_poly",
    "euler_poly",
    "faulhaber_poly",
    "exp_moment",
    "phi_antiderivative",
    "h_neg_closed_poly",
    "eta_neg_poly",
    "fraction_to_str",
    "fraction_from_str",
]


def fraction_to_str(q: Fraction) -> str:
    """Canonical "num/den" serialization (zero is "0/1")."""
    return f"{q.numerator}/{q.denominator}"


def fraction_from_str(text: str) -> Fraction:
    """Parse "num/den" or a bare integer/decimal string."""
    return Fraction(text.strip())


def _as_fraction_list(coeffs: Iterable[Scalar]) -> list:
    out = []
    for c in coeffs:
        if isinstance(c, Fraction):
            out.append(c)
        elif isinstance(c, int):
            out.append(Fraction(c))
        else:
            raise TypeError(f"exact polynomial coefficients must be rational, got {type(c)!r}")
    return out


class ExactPoly:
    """Dense univariate polynomial with Fraction coefficients, ascending powers.

    The zero polynomial stores an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = _as_fraction_list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # immutable after construction
        raise AttributeError("ExactPoly is immutable")

    # -- basic queries --------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        if self.is_zero():
            return "ExactPoly(0)"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            parts.append(f"({c})*x^{k}" if k else f"({c})")
        return "ExactPoly(" + " + ".join(parts) + ")"

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "ExactPoly") -> "ExactPoly":
        a, b = self.coeffs, other.coeffs
        n = max(len(a), len(b))
        return ExactPoly(
            [(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)]
        )

    def __sub__(self, other: "ExactPoly") -> "ExactPoly":
        return self + (-other)

    def __neg__(self) -> "ExactPoly":
        return ExactPoly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, ExactPoly):
            if self.is_zero() or other.is_zero():
                return ExactPoly()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
            return ExactPoly(out)
        if isinstance(other, (int, Fraction)):
            return ExactPoly([c * other for c in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def shift_x(self, k: int) -> "ExactPoly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return ExactPoly([Fraction(0)] * k + list(self.coeffs))

    def derivative(self) -> "ExactPoly":
        return ExactPoly([k * c for k, c in enumerate(self.coeffs)][1:])

    def antiderivative(self) -> "ExactPoly":
        """Antiderivative with zero constant term."""
        return ExactPoly([Fraction(0)] + [c / (k + 1) for k, c in enumerate(self.coeffs)])

    def compose_linear(self, a: Scalar, b: Scalar) -> "ExactPoly":
        """Exact substitution x -> a*x + b (a, b rational)."""
        result = ExactPoly()
        lin = ExactPoly([b, a])
        for c in reversed(self.coeffs):
            result = result * lin + ExactPoly([c])
        return result

    def divmod(self, divisor: "ExactPoly") -> tuple["ExactPoly", "ExactPoly"]:
        """Exact polynomial long division: self = q*divisor + r, deg r < deg divisor."""
        if divisor.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dcs = divisor.coeffs
        dn = len(dcs)
        lead = dcs[-1]
        if len(rem) < dn:
            return ExactPoly(), self
        q = [Fraction(0)] * (len(rem) - dn + 1)
        for i in range(len(rem) - dn, -1, -1):
            factor = rem[i + dn - 1] / lead
            if factor != 0:
                q[i] = factor
                for j in range(dn):
                    rem[i + j] -= factor * dcs[j]
        return ExactPoly(q), ExactPoly(rem)

    def gcd(self, other: "ExactPoly") -> "ExactPoly":
        """Monic GCD over the rationals (Euclid; exact)."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        if a.is_zero():
            return a
        return a * (1 / a.coeffs[-1])

    # -- evaluation, serialization ----------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for Fraction/int input, numeric otherwise."""
        if isinstance(x, (int, Fraction)):
            acc: Scalar = Fraction(0)
        else:
            acc = 0.0 if not isinstance(x, complex) else 0j
        for c in reversed(self.coeffs):
            if isinstance(x, (int, Fraction)):
                acc = acc * x + c
            else:
                acc = acc * x + complex(c)
        return acc

    def to_json(self) -> list[str]:
        """JSON array of "num/den" strings, ascending powers."""
        return [fraction_to_str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "ExactPoly":
        return cls([fraction_from_str(s) for s in data])


class BivariatePoly:
    """Polynomial in (x, lam) stored as a rectangular Fraction matrix.

    rows index the power of x, columns the power of lam; trailing all-zero
    rows and columns are trimmed.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[Scalar]] = ()):
        mat = [_as_fraction_list(r) for r in rows]
        width = max((len(r) for r in mat), default=0)
        for r in mat:
            r.extend([Fraction(0)] * (width - len(r)))
        while mat and all(c == 0 for c in mat[-1]):
            mat.pop()
        while mat and all(r[-1] == 0 for r in mat):
            for r in mat:
                r.pop()
        object.__setattr__(self, "rows", tuple(tuple(r) for r in mat))

    def __setattr__(self, name, value):
        raise AttributeError("BivariatePoly is immutable")

    def coefficient(self, xpow: int, lpow: int) -> Fraction:
        if 0 <= xpow < len(self.rows) and 0 <= lpow < len(self.rows[xpow]):
            return self.rows[xpow][lpow]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"BivariatePoly({len(self.rows)} x-rows)"

    def at_lambda(self, lam: Scalar) -> ExactPoly:
        """Substitute a rational value for lam, leaving a polynomial in x."""
        if not isinstance(lam, (int, Fraction)):
            raise TypeError("at_lambda needs a rational lam; use __call__ for numeric work")
        return ExactPoly([sum((c * lam**j for j, c in enumerate(row)), Fraction(0))
                          for row in self.rows])

    def __call__(self, x, lam):
        """Numeric (or exact) evaluation at the point (x, lam)."""
        exact = isinstance(x, (int, Fraction)) and isinstance(lam, (int, Fraction))
        total: Scalar = Fraction(0) if exact else 0j
        for i, row in enumerate(self.rows):
            inner: Scalar = Fraction(0) if exact else 0j
            for c in reversed(row):
                inner = inner * lam + (c if exact else complex(c))
            total += inner * (x**i if exact else complex(x) ** i)
        return total

    def to_json(self) -> list[list[str]]:
        return [[fraction_to_str(c) for c in row] for row in self.rows]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "BivariatePoly":
        return cls([[fraction_from_str(s) for s in row] for row in data])


# -- Bernoulli numbers ----------------------------------------------------

_bernoulli_cache: list[Fraction] = [Fraction(1)]
_bernoulli_lock = threading.Lock()


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n with B_1 = -1/2.

    Defining recurrence sum_{k=0}^{n} C(n+1, k) B_k = 0 (n >= 1), solved
    for B_n. Memoized; the table grows with the largest index requested.
    """
    if n < 0:
        raise ValueError("bernoulli index must be >= 0")
    with _bernoulli_lock:
        while len(_bernoulli_cache) <= n:
            m = len(_bernoulli_cache)
            acc = Fraction(0)
            for k in range(m):
                acc += comb(m + 1, k) * _bernoulli_cache[k]
            _bernoulli_cache.append(-acc / (m + 1))
        return _bernoulli_cache[n]


# -- Stirling numbers of the second kind -----------------------------------

_stirling_rows: list[list[int]] = [[1]]
_stirling_lock = threading.Lock()


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind S2(n, k).

    S2(0,0) = 1; S2(n,k) = 0 for k > n and for k = 0 < n. Rows are built
    by S2(n,k) = k*S2(n-1,k) + S2(n-1,k-1) and memoized.
    """
    if n < 0 or k < 0:
        raise ValueError("stirling2 indices must be >= 0")
    if k > n:
        return 0
    with _stirling_lock:
        while len(_stirling_rows) <= n:
            prev = _stirling_rows[-1]
            m = len(_stirling_rows)
            row = [0] * (m + 1)
            for j in range(1, m + 1):
                above = prev[j] if j < len(prev) else 0
                row[j] = j * above + prev[j - 1]
            _stirling_rows.append(row)
        return _stirling_rows[n][k]


def _memoized(build):
    """Memoize a one-argument table builder; the memo is filled under a lock,
    so every caller gets the same (immutable) object for an index."""
    memo: dict = {}
    lock = threading.Lock()

    @functools.wraps(build)
    def lookup(n):
        try:
            return memo[n]
        except KeyError:
            pass
        with lock:
            if n not in memo:
                memo[n] = build(n)
            return memo[n]

    return lookup


# -- the polynomial families ------------------------------------------------


@_memoized
def phi_poly(n: int) -> ExactPoly:
    """Exponential polynomial phi_n: coefficient of x^k is S2(n, k); phi_0 = 1."""
    if n < 0:
        raise ValueError("phi index must be >= 0")
    return ExactPoly([Fraction(stirling2(n, k)) for k in range(n + 1)])


@_memoized
def q_poly(p: int) -> BivariatePoly:
    """Q_p(x, lam) = sum_{k<=p} C(p,k) lam^(p-k) phi_k(x), so e_{-p} = e^x Q_p."""
    if p < 0:
        raise ValueError("q_poly index must be >= 0")
    rows: list[list[Fraction]] = [[Fraction(0)] * (p + 1) for _ in range(p + 1)]
    for k in range(p + 1):
        c = comb(p, k)
        for xpow in range(k + 1):
            rows[xpow][p - k] += c * stirling2(k, xpow)
    return BivariatePoly(rows)


@_memoized
def euler_poly(p: int) -> ExactPoly:
    """Euler polynomial E_p(lam) = 2 sum_k C(p,k) lam^(p-k) (1-2^(k+1)) B_{k+1}/(k+1)."""
    if p < 0:
        raise ValueError("euler_poly index must be >= 0")
    coeffs = [Fraction(0)] * (p + 1)
    for k in range(p + 1):
        weight = 2 * comb(p, k) * (1 - 2 ** (k + 1)) * bernoulli(k + 1) / (k + 1)
        coeffs[p - k] += weight
    return ExactPoly(coeffs)


def faulhaber_poly(p: int) -> ExactPoly:
    """Power-sum polynomial F_p with F_p(n) = 1^p + 2^p + ... + (n-1)^p.

    F_p(n) = (1/(p+1)) sum_{k=1}^{p+1} C(p+1, k) B_{p+1-k} n^k. The sum
    starts at k = 1: there is no constant term (F_p(1) = 0).
    """
    if p < 0:
        raise ValueError("faulhaber index must be >= 0")
    coeffs = [Fraction(0)] * (p + 2)
    for k in range(1, p + 2):
        coeffs[k] = Fraction(comb(p + 1, k), p + 1) * bernoulli(p + 1 - k)
    return ExactPoly(coeffs)


def exp_moment(p: int) -> Fraction:
    """The weighted moment (1 - 2^(p+1)) B_{p+1} / (p+1).

    Equals the integral of e^(-2t) phi_p(-t) over (0, inf), and equals the
    Stirling-weighted sum sum_{k<=p} S2(p,k) k! (-1)^k / 2^(k+1).
    """
    if p < 0:
        raise ValueError("exp_moment index must be >= 0")
    return (1 - 2 ** (p + 1)) * bernoulli(p + 1) / (p + 1)


def exp_moment_stirling_sum(p: int) -> Fraction:
    """Same moment as `exp_moment` via the Stirling-weighted sum (cross-check)."""
    acc = Fraction(0)
    fact = 1
    for k in range(p + 1):
        if k:
            fact *= k
        acc += Fraction(stirling2(p, k) * fact * (-1) ** k, 2 ** (k + 1))
    return acc


def phi_antiderivative(p: int) -> ExactPoly:
    """The antiderivative of phi_p vanishing at 0 (term-wise exact)."""
    return phi_poly(p).antiderivative()


def phi_antiderivative_bernoulli_form(p: int) -> ExactPoly:
    """(1/(p+1)) sum_{k=1}^{p+1} C(p+1,k) B_{p+1-k} phi_k; equals phi_antiderivative(p)."""
    acc = ExactPoly()
    for k in range(1, p + 2):
        acc = acc + Fraction(comb(p + 1, k), p + 1) * bernoulli(p + 1 - k) * phi_poly(k)
    return acc


def h_neg_closed_poly(p: int) -> ExactPoly:
    """g_p with sum_{n>=1} x^n/n! (1^p + ... + n^p) = e^x g_p(x).

    g_p(x) = sum_{k=1}^{p+1} S2(p+1, k) x^k / k.
    """
    if p < 0:
        raise ValueError("h_neg_closed_poly index must be >= 0")
    coeffs = [Fraction(0)] * (p + 2)
    for k in range(1, p + 2):
        coeffs[k] = Fraction(stirling2(p + 1, k), k)
    return ExactPoly(coeffs)


def eta_neg_poly(p: int) -> ExactPoly:
    """The polynomial (in lam) equal to the alternating sum of (n+lam)^p.

    Abel value of sum_{n>=0} (-1)^n (n+lam)^p: the k = 0 term enters with
    weight +1/2 * lam^p and the k >= 1 terms with -C(p,k) lam^(p-k) eta(-k),
    eta(-k) = -exp_moment(k). Coincides with euler_poly(p)/2.
    """
    if p < 0:
        raise ValueError("eta_neg_poly index must be >= 0")
    coeffs = [Fraction(0)] * (p + 1)
    coeffs[p] += Fraction(1, 2)
    for k in range(1, p + 1):
        coeffs[p - k] += comb(p, k) * exp_moment(k)
    return ExactPoly(coeffs)
