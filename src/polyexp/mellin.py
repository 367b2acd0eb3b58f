"""Mellin-Barnes evaluation of rational*Gamma integrands.

Pipeline: parse a rational function R(s) with exact rational coefficients,
split it into polynomial part + pole terms A/(lam - s)^p, and assemble the
symbolic value of

    (1/2 pi i) integral over Re s = c of x^(-s) R(s) Gamma(s) ds

as an exponential-polynomial part e^(-x) sum a_k phi_k(-x) plus
polyexponential terms A * e_p(-x, lam), valid when every pole satisfies
Re lam > c > 0. A direct vertical-line quadrature of the same integral
serves as the verification oracle, and a line-shifting helper collects
residues of simple poles crossed when the abscissa moves left.

Sign conventions: pole terms are written over (lam - s)^p, and the
polynomial part is re-expressed in the basis (-s)^k, matching the
operator calculus (x d/dx)^k e^(-x) = (-s)^k under the transform.
"""

from __future__ import annotations

import cmath
import functools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import core
from .exact import ExactPoly, fraction_from_str, fraction_to_str
from .quadrature import _not_converged, clenshaw_curtis_quad
from .result import (
    ConditioningError,
    DomainError,
    EvalResult,
    ParseError,
    QuadratureError,
    UnsupportedError,
)

__all__ = [
    "RationalFunction",
    "PartialFractions",
    "PoleTerm",
    "PolyexpTerm",
    "ResidueTerm",
    "MellinExpression",
    "PoleRegionError",
    "parse_rational",
    "partial_fractions",
    "eval_theorem63",
    "shift_adjust",
    "eval_expression",
    "oracle_line_integral",
    "choose_line_height",
]


class PoleRegionError(DomainError):
    """A pole sits on the wrong side of (or on) the integration line."""


# ---------------------------------------------------------------------------
# rational functions over Q
# ---------------------------------------------------------------------------


class RationalFunction:
    """num/den with exact Fraction-coefficient polynomials in s.

    Always stored reduced (no common factor) with a monic denominator, and
    with the complex coefficients that evaluation uses, converted once.
    """

    __slots__ = ("num", "den", "_complex")

    def __init__(self, num: ExactPoly, den: ExactPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator polynomial")
        g = num.gcd(den)
        if not g.is_zero() and g.degree > 0:
            num = num.divmod(g)[0]
            den = den.divmod(g)[0]
        lead = den.coeffs[-1]
        if lead != 1:
            inv = 1 / lead
            num = num * inv
            den = den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        complex_coeffs = tuple([complex(c) for c in p.coeffs] for p in (num, den))
        object.__setattr__(self, "_complex", complex_coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    @classmethod
    def from_const(cls, c: Fraction) -> "RationalFunction":
        return cls(ExactPoly([c]), ExactPoly([1]))

    @classmethod
    def variable(cls) -> "RationalFunction":
        return cls(ExactPoly([0, 1]), ExactPoly([1]))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RationalFunction":
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction(self.num * other.num, self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return RationalFunction(self.num * other, self.den)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.num.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            raise ValueError("negative exponents are not in the grammar")
        out = RationalFunction.from_const(Fraction(1))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __call__(self, s):
        """R(s) at a number or at a numpy array of them."""
        num, den = self._complex
        return core._horner(num, s) / core._horner(den, s)

    def __repr__(self):
        return f"RationalFunction(num={self.num!r}, den={self.den!r})"


# ---------------------------------------------------------------------------
# parser: polynomials in s with + - * / ^ ( ), rational coefficients
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # num | var | op | lparen | rparen | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    seen_dot = True
                j += 1
            out.append(_Token("num", text[i:j], i))
            i = j
        elif ch == "s":
            out.append(_Token("var", ch, i))
            i += 1
        elif ch in "+-*/^":
            out.append(_Token("op", ch, i))
            i += 1
        elif ch == "(":
            out.append(_Token("lparen", ch, i))
            i += 1
        elif ch == ")":
            out.append(_Token("rparen", ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    out.append(_Token("end", "", n))
    return out


_ONE = ExactPoly([1])
_S = ExactPoly([0, 1])
_Pair = tuple[ExactPoly, ExactPoly]  # (num, den), den nonzero, not reduced


class _Parser:
    """Recursive descent over rational-function values, carried as
    unreduced (num, den) pairs: `parse` reduces once, at the end.

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := ('+'|'-')* power
    power  := atom ('^' INT)?
    atom   := NUMBER | 's' | '(' expr ')'
    """

    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> RationalFunction:
        num, den = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return RationalFunction(num, den)

    def expr(self) -> _Pair:
        num, den = self.term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance()
            rhs_num, rhs_den = self.term()
            if op.text == "-":
                rhs_num = -rhs_num
            if den == rhs_den:
                num = num + rhs_num
            else:
                num, den = num * rhs_den + rhs_num * den, den * rhs_den
        return num, den

    def term(self) -> _Pair:
        num, den = self.factor()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance()
            rhs_num, rhs_den = self.factor()
            if op.text == "/":
                # a pair is zero exactly when its numerator is, reduced or not
                if rhs_num.is_zero():
                    raise ParseError("division by zero", op.pos)
                rhs_num, rhs_den = rhs_den, rhs_num
            num, den = num * rhs_num, den * rhs_den
        return num, den

    def factor(self) -> _Pair:
        sign = 1
        while self.peek().kind == "op" and self.peek().text in "+-":
            if self.advance().text == "-":
                sign = -sign
        num, den = self.power()
        return (num, den) if sign == 1 else (-num, den)

    def power(self) -> _Pair:
        base = self.atom()
        if self.peek().kind == "op" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "num" or "." in tok.text:
                raise ParseError("exponent must be a non-negative integer", tok.pos)
            self.advance()
            return _pair_power(base, int(tok.text))
        return base

    def atom(self) -> _Pair:
        tok = self.advance()
        if tok.kind == "num":
            return ExactPoly([Fraction(tok.text)]), _ONE
        if tok.kind == "var":
            return _S, _ONE
        if tok.kind == "lparen":
            value = self.expr()
            closing = self.advance()
            if closing.kind != "rparen":
                raise ParseError("expected ')'", closing.pos)
            return value
        raise ParseError(f"expected a number, 's' or '(', got {tok.text!r}", tok.pos)


def _pair_power(base: _Pair, k: int) -> _Pair:
    """base^k by square-and-multiply, k >= 0."""
    (num, den), (base_num, base_den) = (_ONE, _ONE), base
    while k:
        if k & 1:
            num, den = num * base_num, den * base_den
        k >>= 1
        if k:
            base_num, base_den = base_num * base_num, base_den * base_den
    return num, den


def parse_rational(text: str) -> RationalFunction:
    """Parse a rational function of s; whitespace-insensitive, exact
    coefficients (decimals become exact fractions)."""
    return _Parser(_tokenize(text)).parse()


# ---------------------------------------------------------------------------
# root finding over the exact denominator
# ---------------------------------------------------------------------------


def _divisors(n: int, cap: int = 6000) -> Optional[list[int]]:
    n = abs(n)
    if n == 0:
        return [0]
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
            if len(out) > cap:
                return None
        d += 1
    return sorted(out)


def _rational_roots(poly: ExactPoly) -> tuple[list[Fraction], ExactPoly]:
    """Strip all exact rational roots (with multiplicity) by deflation."""
    roots: list[Fraction] = []
    # factor out s^k
    k = 0
    coeffs = list(poly.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
        k += 1
    poly = ExactPoly(coeffs)
    roots.extend([Fraction(0)] * k)
    if poly.degree <= 0:
        return roots, poly
    denominators = 1
    for c in poly.coeffs:
        denominators = denominators * c.denominator // math.gcd(denominators, c.denominator)
    ints = [int(c * denominators) for c in poly.coeffs]
    ps = _divisors(ints[0])
    qs = _divisors(ints[-1])
    if ps is None or qs is None:
        return roots, poly  # too many candidates; leave it to numerics
    candidates = sorted(
        {Fraction(sp * p, q) for p in ps for q in qs if q for sp in (1, -1)} | {Fraction(0)}
    )
    linear_cache = {}
    changed = True
    while poly.degree > 0 and changed:
        changed = False
        for cand in candidates:
            while poly.degree > 0 and poly(cand) == 0:
                lin = linear_cache.setdefault(cand, ExactPoly([-cand, 1]))
                poly = poly.divmod(lin)[0]
                roots.append(cand)
                changed = True
    return roots, poly


def _newton_polish(coeffs: list[complex], z: complex) -> complex:
    scale = max(abs(c) for c in coeffs) or 1.0
    for _ in range(60):
        f = 0.0 + 0.0j
        df = 0.0 + 0.0j
        for c in reversed(coeffs):
            df = df * z + f
            f = f * z + c
        if abs(f) <= 1e-14 * scale * max(1.0, abs(z)) ** (len(coeffs) - 1):
            break
        if df == 0:
            break
        step = f / df
        z -= step
        if abs(step) < 1e-16 * max(1.0, abs(z)):
            break
    return z


def _all_roots(den: ExactPoly) -> list[complex]:
    """All denominator roots: exact rationals by deflation, a leftover
    quadratic by formula, anything bigger by companion-matrix eigenvalues
    polished with Newton."""
    rational, rest = _rational_roots(den)
    roots: list[complex] = [complex(r) for r in rational]
    if rest.degree == 1:
        roots.append(complex(-rest.coeffs[0] / rest.coeffs[1]))
    elif rest.degree == 2:
        c0, c1, c2 = (complex(c) for c in rest.coeffs)
        disc = cmath.sqrt(c1 * c1 - 4.0 * c2 * c0)
        roots.extend([(-c1 + disc) / (2 * c2), (-c1 - disc) / (2 * c2)])
    elif rest.degree >= 3:
        float_coeffs = [complex(c) for c in rest.coeffs]
        raw = np.roots(float_coeffs[::-1])
        roots.extend(_newton_polish(float_coeffs, complex(z)) for z in raw)
    return roots


_MERGE_DIAMETER = 1e-8
_SUSPECT_DIAMETER = 1e-5


def _cluster_roots(roots: Sequence[complex]) -> list[tuple[complex, int]]:
    """Greedy clustering: diameter < 1e-8 merges into one multiple pole,
    diameter in [1e-8, 1e-5] is refused as ill-conditioned."""
    remaining = list(roots)
    clusters: list[tuple[complex, int]] = []
    while remaining:
        seed = remaining.pop(0)
        members = [seed]
        changed = True
        while changed:
            changed = False
            for r in remaining[:]:
                if any(abs(r - m) < _SUSPECT_DIAMETER for m in members):
                    members.append(r)
                    remaining.remove(r)
                    changed = True
        diameter = max((abs(a - b) for a in members for b in members), default=0.0)
        if diameter >= _MERGE_DIAMETER:
            raise ConditioningError(
                f"root cluster of diameter {diameter:.3e} near {seed}: "
                "cannot distinguish a multiple pole from close simple poles"
            )
        center = sum(members) / len(members)
        clusters.append((center, len(members)))
    return clusters


@functools.lru_cache(maxsize=64)
def _poles(den: ExactPoly) -> tuple[tuple[complex, int], ...]:
    """Distinct roots of den with their multiplicities, memoized on the
    (immutable) polynomial: `partial_fractions` and every line integral
    over one rational function share them."""
    return tuple(_cluster_roots(_all_roots(den))) if den.degree > 0 else ()


# ---------------------------------------------------------------------------
# partial fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PoleTerm:
    """One term coeff / (pole - s)^order."""

    pole: complex
    order: int
    coeff: complex


@dataclass(frozen=True)
class PartialFractions:
    """poly_part holds a_k with polynomial part = sum a_k (-s)^k."""

    poly_part: tuple[Fraction, ...]
    pole_terms: tuple[PoleTerm, ...]

    def __call__(self, s):
        """The decomposition at a number or at a numpy array of them."""
        acc = 0.0 + 0.0j
        for k, a in enumerate(self.poly_part):
            acc += complex(a) * (-s) ** k
        for t in self.pole_terms:
            acc += t.coeff / (t.pole - s) ** t.order
        return acc


def _shift_reflect(coeffs: list[complex], center: complex) -> list[complex]:
    """Coefficients of q(center - u) in u, given coefficients of q(s)."""
    out = [0.0 + 0.0j]
    for c in reversed(coeffs):
        # out = out * (center - u) + c
        new = [0.0 + 0.0j] * (len(out) + 1)
        for i, o in enumerate(out):
            new[i] += o * center
            new[i + 1] -= o
        new[0] += c
        while len(new) > 1 and new[-1] == 0:
            new.pop()
        out = new
    return out


def _series_divide(num: list[complex], den: list[complex], nterms: int) -> list[complex]:
    out = []
    for i in range(nterms):
        acc = num[i] if i < len(num) else 0.0 + 0.0j
        for j in range(i):
            dj = den[i - j] if i - j < len(den) else 0.0 + 0.0j
            acc -= out[j] * dj
        out.append(acc / den[0])
    return out


def _synthetic_divide(coeffs: list[complex], root: complex) -> list[complex]:
    """coeffs / (s - root); the remainder (known ~0 at a root) is dropped."""
    out = [0.0 + 0.0j] * (len(coeffs) - 1)
    carry = coeffs[-1]
    for i in range(len(coeffs) - 2, -1, -1):
        out[i] = carry
        carry = coeffs[i] + carry * root
    return out


def partial_fractions(R: RationalFunction) -> PartialFractions:
    """Decompose R(s) = f(-s) + sum A_kj / (lam_k - s)^j.

    The polynomial part comes from exact division; poles are exact where
    the denominator factors over Q and numeric (companion matrix + Newton)
    otherwise; coefficients come from the Taylor series of
    (pole - s)^m R(s) around each pole. The reassembled decomposition is
    validated against R at 20 random sample points to 1e-10 relative.
    """
    quotient, remainder = R.num.divmod(R.den)
    # f(-s) = quotient(s) means a_k = (-1)^k q_k
    poly_part = tuple((-1) ** k * c for k, c in enumerate(quotient.coeffs))

    pole_terms: list[PoleTerm] = []
    if R.den.degree > 0:
        clusters = _poles(R.den)
        den_coeffs = [complex(c) for c in R.den.coeffs]
        rem_coeffs = [complex(c) for c in remainder.coeffs] or [0.0 + 0.0j]
        for pole, m in clusters:
            d2 = den_coeffs
            for _ in range(m):
                d2 = _synthetic_divide(d2, pole)
            # G(u) = (-1)^m rem(pole - u) / d2(pole - u); A_j = G_(m-j)
            num_u = _shift_reflect(rem_coeffs, pole)
            den_u = _shift_reflect(d2, pole)
            series = _series_divide(num_u, den_u, m)
            sign = (-1.0) ** m
            for j in range(1, m + 1):
                coeff = sign * series[m - j]
                if coeff != 0:
                    pole_terms.append(PoleTerm(pole=pole, order=j, coeff=coeff))

    result = PartialFractions(poly_part=poly_part, pole_terms=tuple(pole_terms))
    _validate_decomposition(R, result)
    return result


def _validate_decomposition(R: RationalFunction, pf: PartialFractions, npoints: int = 20):
    rng = random.Random(0x5EED)
    poles = [t.pole for t in pf.pole_terms]
    points = []
    while len(points) < npoints:
        z = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        if not any(abs(z - p) < 1e-2 for p in poles):
            points.append(z)
    z = np.array(points)
    want, got = R(z), pf(z)
    off = np.abs(got - want)
    if (bad := off > 1e-10 * np.maximum(1.0, np.abs(want))).any():
        i = int(np.argmax(bad))
        raise ConditioningError(
            f"partial fractions reassembly off by {off[i]:.3e} at s={points[i]}"
        )


# ---------------------------------------------------------------------------
# the symbolic Mellin value
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyexpTerm:
    """coeff * e_order(-x, lam)."""

    coeff: complex
    order: int
    lam: complex


@dataclass(frozen=True)
class ResidueTerm:
    """coeff * x^(-pole), collected when the integration line moves."""

    coeff: complex
    pole: complex


@dataclass(frozen=True)
class MellinExpression:
    """Value of the line integral as exp-polynomial + polyexponential terms.

    exp_poly contributes e^(-x) sum a_k phi_k(-x); each PolyexpTerm
    contributes coeff * e_p(-x, lam); residue terms contribute
    coeff * x^(-pole). Evaluable at any x > 0.
    """

    exp_poly: tuple[Fraction, ...]
    terms: tuple[PolyexpTerm, ...]
    c: float
    residues: tuple[ResidueTerm, ...] = ()

    def to_json_dict(self) -> dict:
        out = {
            "exp_poly": [fraction_to_str(a) for a in self.exp_poly],
            "terms": [
                {
                    "coeff": [t.coeff.real, t.coeff.imag],
                    "p": t.order,
                    "lambda": [t.lam.real, t.lam.imag],
                }
                for t in self.terms
            ],
            "c": self.c,
        }
        if self.residues:
            out["residues"] = [
                {"coeff": [r.coeff.real, r.coeff.imag], "pole": [r.pole.real, r.pole.imag]}
                for r in self.residues
            ]
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "MellinExpression":
        return cls(
            exp_poly=tuple(fraction_from_str(a) for a in data["exp_poly"]),
            terms=tuple(
                PolyexpTerm(
                    coeff=complex(t["coeff"][0], t["coeff"][1]),
                    order=int(t["p"]),
                    lam=complex(t["lambda"][0], t["lambda"][1]),
                )
                for t in data["terms"]
            ),
            c=float(data["c"]),
            residues=tuple(
                ResidueTerm(
                    coeff=complex(r["coeff"][0], r["coeff"][1]),
                    pole=complex(r["pole"][0], r["pole"][1]),
                )
                for r in data.get("residues", ())
            ),
        )


def eval_theorem63(R: RationalFunction, c: float) -> MellinExpression:
    """Symbolic value of (1/2 pi i) int_(c) x^(-s) R(s) Gamma(s) ds when every
    pole of R lies in Re s > c > 0.

    Raises PoleRegionError otherwise; shift_adjust moves the line instead.
    """
    if c <= 0:
        raise DomainError("the line abscissa c must be positive")
    return _theorem63(partial_fractions(R), c)


def _theorem63(pf: PartialFractions, c: float) -> MellinExpression:
    """`eval_theorem63` from the decomposition of R, which `shift_adjust` shares."""
    for t in pf.pole_terms:
        if t.pole.real <= c:
            raise PoleRegionError(
                f"pole at {t.pole} has Re <= c = {c}; move the line with shift_adjust"
            )
    terms = tuple(
        PolyexpTerm(coeff=t.coeff, order=t.order, lam=t.pole) for t in pf.pole_terms
    )
    return MellinExpression(exp_poly=pf.poly_part, terms=terms, c=float(c))


def shift_adjust(R: RationalFunction, c: float, c_new: float) -> MellinExpression:
    """Value on the line Re s = c written as the expression on Re s = c_new
    plus residues of x^(-s) R(s) Gamma(s) at the simple poles crossed.

    Only simple crossed poles are supported: higher-order crossings would
    produce log x terms this representation does not carry. c_new must
    stay positive so no Gamma poles are crossed.
    """
    if not (0 < c_new <= c):
        raise DomainError("need 0 < c_new <= c")
    pf = partial_fractions(R)
    seen = {}
    for t in pf.pole_terms:
        seen.setdefault(t.pole, 0)
        seen[t.pole] = max(seen[t.pole], t.order)
    residues = []
    for pole, order in seen.items():
        for line in (c, c_new):
            if abs(pole.real - line) < 1e-12:
                raise PoleRegionError(f"pole at {pole} sits on the line Re s = {line}")
        if c_new < pole.real < c:
            if order >= 2:
                raise UnsupportedError(
                    f"crossed pole at {pole} has order {order}; only simple poles supported"
                )
            # residue of x^(-s) R(s) Gamma(s): Gamma is analytic here
            res_r = complex(R.num(pole)) / _den_derivative(R.den, pole)
            residues.append(ResidueTerm(coeff=core.gamma_fn(pole) * res_r, pole=pole))
    base = _theorem63(pf, c_new)
    return MellinExpression(
        exp_poly=base.exp_poly,
        terms=base.terms,
        c=float(c),
        residues=tuple(residues),
    )


def _den_derivative(den: ExactPoly, z: complex) -> complex:
    return complex(den.derivative()(complex(z)))


def eval_expression(expr: MellinExpression, x: float, tol: float = 1e-10) -> EvalResult:
    """Numeric value of a MellinExpression at x > 0."""
    x = float(x)
    if x <= 0:
        raise DomainError("expression is defined for x > 0")
    from .exact import phi_poly

    value = 0.0 + 0.0j
    err = 0.0
    work = 0
    if expr.exp_poly:
        acc = 0.0 + 0.0j
        for k, a in enumerate(expr.exp_poly):
            acc += complex(a) * complex(phi_poly(k)(-x))
        value += math.exp(-x) * acc
        work += len(expr.exp_poly)
    # each term's error is weighted by |coeff|, so the budget splits by them
    inner_tol = tol / max(1.0, sum(abs(t.coeff) for t in expr.terms))
    for t in expr.terms:
        inner = core.evaluate(float(t.order), t.lam, -x, tol=inner_tol)
        value += t.coeff * inner.value
        err += abs(t.coeff) * inner.abs_err_estimate
        work += inner.work
    for r in expr.residues:
        value += r.coeff * cmath.exp(-r.pole * math.log(x))
        work += 1
    return EvalResult(value, err + 1e-15 * abs(value), work, "mellin_expression")


# ---------------------------------------------------------------------------
# vertical-line oracle
# ---------------------------------------------------------------------------


def choose_line_height(R: RationalFunction, x: float, c: float, tol: float) -> float:
    """Half-height T making the Gamma-decay tail bound comfortably below tol."""
    T = 10.0
    while _line_tail_bound(R, x, c, T) > 0.2 * tol and T < 400.0:
        T *= 1.25
    return T


def _line_tail_bound(R: RationalFunction, x: float, c: float, T: float) -> float:
    # |Gamma(c+it)| ~ sqrt(2 pi) |t|^(c-1/2) e^(-pi |t|/2); R grows at most
    # polynomially with degree gap dn - dd
    gap = max(R.num.degree - R.den.degree, 0)
    r_scale = max(abs(R(complex(c, T))), abs(R(complex(c, 0.7 * T))), 1e-300)
    power = c - 0.5 + gap
    decay = math.pi / 2.0
    integral = (T**power) * math.exp(-decay * T) / decay
    slack = 1.0 / max(1.0 - power / (decay * T), 0.25)
    return (x**-c) * r_scale * math.sqrt(2 * math.pi) / math.pi * integral * slack


def oracle_line_integral(
    R: RationalFunction,
    x: float,
    c: float,
    half_height: float,
    tol: float = 1e-9,
    target_tol: Optional[float] = None,
) -> EvalResult:
    """(1/2 pi) int_{-T}^{T} x^(-(c+it)) R(c+it) Gamma(c+it) dt by direct
    quadrature: the verification oracle for the symbolic route.

    R has rational coefficients and x, c are real, so the integrand at -t
    is the conjugate of the one at t: the integral is folded onto the half
    line, (1/pi) Re int_0^T, and its value is real (imaginary part 0). The
    integrand is analytic on [0, T] (the poles of R and Gamma lie off the
    line), so it runs on nested Clenshaw-Curtis points
    (`clenshaw_curtis_quad`).
    The neglected |t| > T tails are bounded through the Gamma decay
    e^(-pi |t|/2) and added to the error estimate; if target_tol is given
    and the bound exceeds it, the call fails rather than pretend.
    """
    x = float(x)
    if x <= 0:
        raise DomainError("need x > 0")
    if c <= 0:
        raise DomainError("need c > 0")
    if any(abs(pole.real - c) < 1e-9 for pole, _ in _poles(R.den)):
        raise PoleRegionError(f"c = {c} is a pole abscissa")
    T = float(half_height)
    tail = _line_tail_bound(R, x, c, T)
    if target_tol is not None and tail > target_tol:
        raise QuadratureError(
            f"half_height {T} leaves a tail bound {tail:.2e} above target {target_tol:.2e}"
        )
    lx = math.log(x)

    def f(t):
        s = c + 1j * t
        return (np.exp(-s * lx) * R(s) * core.gamma_fn(s)).real / math.pi

    value, err, work, ok = clenshaw_curtis_quad(f, 0.0, T, tol)
    if not ok:
        raise _not_converged(f"line integral at x = {x:g}, c = {c:g}", value, err, tol)
    return EvalResult(complex(value.real, 0.0), err + tail, work, "line_integral")
