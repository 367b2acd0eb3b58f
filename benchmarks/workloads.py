"""Seeded workloads and the checks that judge their outputs.

A workload is one *round*: a fixed list of operations, each one public
polyexp call. The seed draws the inputs; it never changes how many
operations of each kind a round holds, so every round attempts the same
mix and the share of kept failing operations is the same in every run.
Continuous inputs are drawn one per equal-width stratum (a Latin
hypercube), which keeps the cost of a round nearly independent of the
seed.

Operations name their function as "module.attribute" inside polyexp and
are resolved only when called, so this module imports no polyexp code
and the tracer's wrappers are the ones that run.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Optional

import oracle


@dataclass(frozen=True)
class Ref:
    """The result of an earlier operation of the same round."""

    index: int


@dataclass(frozen=True)
class Build:
    """An argument object built through polyexp before the timer starts."""

    func: str
    args: tuple


@dataclass(frozen=True)
class Fault:
    """A kept failing operation: how it fails ("value" or an exception
    class name) and the fault it shows."""

    mode: str
    why: str


@dataclass(frozen=True)
class Op:
    kind: str
    func: str
    args: tuple = ()
    kwargs: tuple = ()
    check: tuple = ()
    fault: Optional[Fault] = None
    capture: bool = False  # run with stdout captured; outcome is (code, text)

    def refs(self) -> list[int]:
        return [a.index for a in self.args if isinstance(a, Ref)]


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of n equal-width strata of [lo, hi], shuffled."""
    width = (hi - lo) / n
    out = [lo + width * (i + rng.random()) for i in range(n)]
    rng.shuffle(out)
    return out


def _polar(rng: random.Random, n: int, r_lo: float, r_hi: float) -> list[complex]:
    return [
        cmath.rect(r, theta)
        for r, theta in zip(strata(rng, n, r_lo, r_hi), strata(rng, n, -math.pi, math.pi))
    ]


def _off_positive_integers(s: float, gap: float = 0.02) -> float:
    """s moved to at least `gap` from a positive integer: Gamma(1 - s) in
    the Hankel route amplifies the contour's rounding error without bound
    there (the route refuses s within 1e-8 of one)."""
    m = round(s)
    return m + math.copysign(gap, s - m) if m >= 1 and abs(s - m) < gap else s


def _value_op(kind, func, args, kwargs, truth, tol, fault=None) -> Op:
    return Op(kind, func, tuple(args), tuple(kwargs.items()), ("value", truth, tol), fault)


# ---------------------------------------------------------------------------
# routes: every core route for e_s(x, lam), |x| <= 3
# ---------------------------------------------------------------------------

ROUTES_KEPT = (
    _value_op(
        "series", "core.eval_series", (1.0, 1.0, -40.0), {"tol": 1e-12},
        ("polyexp", 1.0, 1.0, -40.0), 1e-12,
        Fault("value", "cancellation: returns 0.0464 where (1 - e^-40)/40 = 0.0250"),
    ),
    _value_op(
        "series", "core.eval_series", (2.0, 1.0, 200.0), {"tol": 1e-12},
        ("polyexp", 2.0, 1.0, 200.0), 1e-12,
        Fault("OverflowError", "bare OverflowError although e_2(200, 1) ~ 1.8e82 fits"),
    ),
)


def routes(rng: random.Random) -> list[Op]:
    # 72 of the 116 operations are sub-0.2 ms series and closed-form calls,
    # so op_p50 falls inside that group
    ops = []
    n = 32
    for s, lam, x in zip(strata(rng, n, -3, 4), strata(rng, n, 0.3, 3), strata(rng, n, -3, 3)):
        ops.append(_value_op("series", "core.eval_series", (s, lam, x), {"tol": 1e-12},
                             ("polyexp", s, lam, x), 1e-12))
    n = 16
    for s, lam, x in zip(
        [complex(a, b) for a, b in zip(strata(rng, n, -2, 3), strata(rng, n, -2, 2))],
        [complex(a, b) for a, b in zip(strata(rng, n, 0.5, 3), strata(rng, n, -1, 1))],
        _polar(rng, n, 0, 3),
    ):
        ops.append(_value_op("series", "core.eval_series", (s, lam, x), {"tol": 1e-12},
                             ("polyexp", s, lam, x), 1e-12))
    n = 24
    lams = strata(rng, n, 0.3, 3)
    xs = strata(rng, n // 2, -3, 3) + _polar(rng, n // 2, 0, 3)
    for i, (lam, x) in enumerate(zip(lams, xs)):
        p = i % 5
        ops.append(_value_op("negint", "core.eval_negint", (p, lam, x), {},
                             ("polyexp", -p, lam, x), 1e-12))
    # Hankel: the decaying side (real x <= 0.5) needs 384 contour nodes,
    # the growing side (x >= 2.2) 896; a fixed 8 + 16 split puts op_p90
    # in the middle of the 896-node calls
    n = 8
    ss = [_off_positive_integers(s) for s in strata(rng, n, -2.5, 3.5)]
    for s, lam, x in zip(ss, strata(rng, n, 0.3, 3), strata(rng, n, -3, 0.5)):
        ops.append(_value_op("hankel", "core.eval_hankel", (s, lam, x), {"tol": 1e-9},
                             ("polyexp", s, lam, x), 1e-9))
    n = 16
    ss = [_off_positive_integers(s) for s in strata(rng, n - 4, -2.5, 3.5)] + [1.0, 2.0, 3.0, 4.0]
    rng.shuffle(ss)
    for s, lam, x in zip(ss, strata(rng, n, 0.3, 3), strata(rng, n, 2.2, 3)):
        ops.append(_value_op("hankel", "core.eval_hankel", (s, lam, x), {"tol": 1e-9},
                             ("polyexp", s, lam, x), 1e-9))
    for p, count in ((1, 4), (2, 4), (3, 2)):
        xs = strata(rng, count // 2, -3, 3) + _polar(rng, count - count // 2, 0.2, 3)
        for lam, x in zip(strata(rng, count, 0.5, 3), xs):
            ops.append(_value_op("recursion", "core.eval_via_recursion", (p, lam, x), {"tol": 1e-10},
                                 ("polyexp", p, lam, x), 1e-10))
    n = 4
    for s, lam, ratio, theta, x in zip(
        strata(rng, n, -2, 3), strata(rng, n, 1.5, 3), strata(rng, n, 0.05, 0.3),
        strata(rng, n, -math.pi, math.pi), strata(rng, n, -3, 3),
    ):
        z = cmath.rect(ratio * lam, theta)
        ops.append(_value_op("taylor", "core.taylor_shift", (s, lam, z, x, 30), {"tol": 1e-12},
                             ("polyexp", s, lam - z, x), 1e-10))
    for s, lam, x in zip(strata(rng, n, -2, 3), strata(rng, n, 25, 60), strata(rng, n, -2, 2)):
        # no tol argument: checked at 1e-8, about 10x its worst error here
        ops.append(_value_op("asymptotic", "core.asymptotic_lambda", (s, lam, x, 10), {},
                             ("polyexp", s, lam, x), 1e-8))
    return ops + list(ROUTES_KEPT)


# ---------------------------------------------------------------------------
# transforms: the Laplace and Mellin transforms over quadrature
# ---------------------------------------------------------------------------

TRANSFORMS_KEPT = (
    _value_op("eta", "transforms.eta", (-2.5, 0.5), {"tol": 1e-10}, ("eta", -2.5, 0.5), 1e-10,
              Fault("value", "error 1.5e-10 against tol 1e-10, estimate 4.6e-12")),
    _value_op("eta", "transforms.eta", (-3.5, 1.0), {"tol": 1e-10}, ("eta", -3.5, 1.0), 1e-10,
              Fault("value", "error 2.7e-9 against tol 1e-10, estimate 2.4e-11")),
    _value_op("zeta", "transforms.riemann_zeta", (-3.5,), {"tol": 1e-10}, ("zeta", -3.5), 1e-10,
              Fault("value", "error 1.6e-10 against tol 1e-10, estimate 2.8e-12")),
)


def transforms(rng: random.Random) -> list[Op]:
    ops = []
    tol = 1e-10
    n = 10
    for s, lam in zip(strata(rng, n, -2, 4), strata(rng, n, 0.3, 3)):
        ops.append(_value_op("eta", "transforms.eta", (s, lam), {"tol": tol}, ("eta", s, lam), tol))
    n = 4
    for sr, si, lam in zip(strata(rng, n, -1.5, 3), strata(rng, n, -3, 3), strata(rng, n, 0.5, 3)):
        s = complex(sr, si)
        ops.append(_value_op("eta", "transforms.eta", (s, lam), {"tol": tol}, ("eta", s, lam), tol))
    n = 6
    for i, lam in enumerate(strata(rng, n, 0.3, 3)):
        s = float(-(1 + i % 4))
        ops.append(_value_op("eta", "transforms.eta", (s, lam), {"tol": tol}, ("eta", s, lam), tol))
    for s in strata(rng, 3, -2, 0.8) + strata(rng, 3, 1.3, 5):
        ops.append(_value_op("zeta", "transforms.riemann_zeta", (s,), {"tol": tol}, ("zeta", s), tol))
    n = 8  # op_p90 falls inside these 1390-node calls
    for s, lam in zip(strata(rng, n, 1.5, 5), strata(rng, n, 0.3, 3)):
        ops.append(_value_op("hurwitz", "transforms.hurwitz_zeta", (s, lam), {"tol": tol},
                             ("hurwitz", s, lam), tol))
    n = 8
    xs = strata(rng, n // 2, -0.9, 0.9) + _polar(rng, n // 2, 0.1, 0.9)
    for x, s, lam in zip(xs, strata(rng, n, -1, 4), strata(rng, n, 0.3, 3)):
        ops.append(_value_op("lerch", "transforms.lerch_phi", (x, s, lam), {"tol": tol},
                             ("lerch", x, s, lam), tol))
    n = 6
    for i, (lam, frac) in enumerate(zip(strata(rng, n, 1, 3), strata(rng, n, 0.1, 0.9))):
        p = 1 + i % 3
        s = frac * lam
        ops.append(_value_op("mellin", "transforms.mellin_transform_polyexp", (s, p, lam),
                             {"tol": 1e-9}, ("mellin_polyexp", s, p, lam), 1e-9))
    for i, lam in enumerate(strata(rng, n, 0.5, 3)):
        p = 1 + i % 4
        ops.append(_value_op("vanishing", "transforms.vanishing_moment", (p, lam), {"tol": 1e-9},
                             ("zero",), 1e-9))
    return ops + list(TRANSFORMS_KEPT)


# ---------------------------------------------------------------------------
# symbolic: the Mellin-Barnes pipeline and the h family
# ---------------------------------------------------------------------------


def _poly_text(coeffs: list[int]) -> str:
    """Ascending integer coefficients as grammar text, e.g. 3*s^2-s+2."""
    parts = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        body = "s" if k == 1 else f"s^{k}" if k > 1 else ""
        text = (f"{mag}*{body}" if mag != 1 else body) if body else str(mag)
        parts.append(("-" if c < 0 else "+") + text)
    out = "".join(parts) or "0"
    return out[1:] if out.startswith("+") else out


def rational_text(rng: random.Random, poles: list[tuple[float, int]], poly_degree: int) -> str:
    """(num)/(den) with den = prod (a - s)^k; num has small integer
    coefficients and degree deg(den) + poly_degree (proper when < 0)."""
    den_degree = sum(k for _, k in poles)
    num_degree = max(0, den_degree + poly_degree)
    while True:  # a numerator root at a pole would cancel it
        coeffs = [rng.randint(-3, 3) for _ in range(num_degree)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
        if all(sum(c * Fraction(a) ** k for k, c in enumerate(coeffs)) != 0 for a, _ in poles):
            break
    factors = "*".join(f"({a!r}-s)" + (f"^{k}" if k > 1 else "") for a, k in poles)
    return f"({_poly_text(coeffs)})/({factors})"


def sum_text(rng: random.Random, poles: list[tuple[float, int]], poly_degree: int) -> str:
    """poly(s) + sum A/(a - s)^k with small integer A and coefficients,
    so the partial fractions are known up to the parser's reduction."""
    coeffs = [rng.randint(-3, 3) for _ in range(poly_degree)] + [rng.choice((-2, -1, 1, 2))]
    text = _poly_text(coeffs)
    for a, k in poles:
        num = rng.choice((-3, -2, -1, 1, 2, 3))
        text += f"{'+' if num > 0 else '-'}{abs(num)}/({a!r}-s)" + (f"^{k}" if k > 1 else "")
    return text


# (pole orders, polynomial-part degree, text form) per text; a fixed
# structure keeps the cost of a round steady while the seed moves poles and
# coefficients. Quotients stop at numerator degree 3: higher ones give
# residue coefficients in the hundreds, which eval_expression does not
# scale its inner tolerance by (CHANGES.md, FOUND).
_TEXT_SHAPES = (
    ((1, 1), -1, rational_text),
    ((2, 1), 0, rational_text),
    ((3,), -1, rational_text),
    ((1, 3), 2, sum_text),
    ((1, 1, 1), 0, rational_text),
    ((2, 2), -1, rational_text),
)
_C = 1.0  # poles start 1.25 right of the line: the line integral then needs 1627 nodes
_C_SHIFT, _C_NEW = 2.0, 0.5
_LINE_HEIGHT = 20.0


def _pole_grid(rng: random.Random, count: int, lo: float) -> list[float]:
    """count quarter-integer poles: the nearest in [lo, lo + 0.5], which
    sets the line integral's node count, the others at least 0.5 beyond
    it and below lo + 3."""
    first = lo + 0.25 * rng.randrange(3)
    rest = [first + 0.5 + 0.25 * j for j in range(int((lo + 3 - first - 0.5) / 0.25) + 1)]
    return [first] + sorted(rng.sample(rest, count - 1))


def symbolic(rng: random.Random) -> list[Op]:
    # 152 of the 256 operations take under 0.3 ms (op_p50 falls among them)
    # and 48 are line integrals (op_p90 falls among them)
    ops: list[Op] = []
    tol = 1e-10

    def add(op: Op) -> Ref:
        ops.append(op)
        return Ref(len(ops) - 1)

    texts = []
    for orders, degree, form in _TEXT_SHAPES * 2:
        poles = _pole_grid(rng, len(orders), _C + 1.25)
        texts.append((form(rng, list(zip(poles, orders)), degree), poles, _C, None))
    for _ in range(4):  # one simple pole crossed when the line moves from c to c_new
        crossed = 0.75 + 0.25 * rng.randrange(4)
        right = _pole_grid(rng, 1, _C_SHIFT + 0.75)
        poles = [crossed] + right
        text = rational_text(rng, list(zip(poles, (1, 2))), rng.randrange(-1, 1))
        texts.append((text, poles, _C_SHIFT, _C_NEW))

    for text, poles, c, c_new in texts:
        points = ((0.3, 0.2), (-1.1, 0.7), (0.4, -2.3))
        r = add(Op("parse", "mellin.parse_rational", (text,), (), ("rational", text, points)))
        add(Op("partial_fractions", "mellin.partial_fractions", (r,), (), ("rational", text, points)))
        if c_new is None:
            e = add(Op("theorem63", "mellin.eval_theorem63", (r, c), (), ("expression", tuple(poles), 0)))
        else:
            e = add(Op("shift", "mellin.shift_adjust", (r, c, c_new), (), ("expression", tuple(poles), 1)))
        for x in strata(rng, 9, 0.2, 3):
            add(Op("expression", "mellin.eval_expression", (e, x), (("tol", tol),),
                   ("value", ("mb", text, x, c, tuple(poles)), tol)))
        for x in strata(rng, 4, 0.3, 3) if c_new is None else ():
            add(Op("line_integral", "mellin.oracle_line_integral", (r, x, c, _LINE_HEIGHT),
                   (("tol", 1e-9),), ("value", ("mb", text, x, c, tuple(poles)), 1e-9)))

    n = 8
    ws = [1.0, -1.0, 0.5, -0.5, 1.0, -1.0] + _polar(rng, 2, 0.2, 0.95)
    for s, lam, w, x in zip(strata(rng, n, -3, 3), strata(rng, n, 0.3, 3), ws, strata(rng, n, -3, 3)):
        params = Build("series.HSeriesParams", (s, lam, w, x))
        add(_value_op("h_direct", "series.h_direct", (params,), {"tol": 1e-12},
                      ("h", s, lam, w, x), 1e-12))
    for s, lam, w, x in zip(strata(rng, n, -2, 3), strata(rng, n, 0.3, 3), ws, strata(rng, n, -2, 2)):
        params = Build("series.HSeriesParams", (s, lam, w, x))
        add(_value_op("h_quadrature", "series.h_quadrature", (params,), {"tol": 1e-10},
                      ("h", s, lam, w, x), 1e-10))
    return ops


# ---------------------------------------------------------------------------
# cli: polyexp.cli.run(argv) in-process
# ---------------------------------------------------------------------------


def grid(start: float, stop: float, count: int) -> list[float]:
    """The inclusive start:stop:count grid, in the CLI's own arithmetic."""
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _cplx(v: complex) -> str:
    v = complex(v)
    return repr(v.real) if v.imag == 0 else f"{v.real!r}{v.imag:+}i"


# (function, format, s count, x count, lam count, w) per table: six tables
# of 1000 rows each above 20 single calls, so op_p90 falls inside the group
# of tables whatever the seed
_TABLES = (
    ("polyexp", "csv", 10, 25, 4, 1.0),
    ("polyexp", "json", 8, 25, 5, 1.0),
    ("polyexp", "csv", 5, 50, 4, 1.0),
    ("h", "csv", 10, 25, 4, 1.0),
    ("h", "json", 8, 25, 5, -1.0),
    ("h", "csv", 5, 50, 4, 0.5),
)


def cli(rng: random.Random) -> list[Op]:
    ops = []
    tol = 1e-10
    for function, fmt, ns, nx, nl, w in _TABLES:
        s0, x0, l0 = rng.uniform(-2.2, -1.8), rng.uniform(-3, -2.7), rng.uniform(0.4, 0.6)
        s1, x1, l1 = rng.uniform(1.8, 2.2), rng.uniform(2.7, 3), rng.uniform(2.4, 2.6)
        argv = ["table", "--function", function, "--s-range", f"{s0!r}:{s1!r}:{ns}",
                "--x-range", f"{x0!r}:{x1!r}:{nx}", "--lambda-range", f"{l0!r}:{l1!r}:{nl}",
                "--format", fmt, "--tolerance", repr(tol)]
        if function == "h":
            argv += ["--w", repr(w)]
        axes = (grid(s0, s1, ns), grid(x0, x1, nx), grid(l0, l1, nl), w)
        ops.append(Op("table", "cli.run", (argv,), (), ("table", function, fmt, axes, tol), capture=True))
    n = 6
    for method, ss in (
        ("auto", strata(rng, 4, -2.9, 3)),
        ("auto", [-1.0, -3.0]),
        ("series", strata(rng, 4, -3, 3)),
        ("negint", [0.0, -1.0, -2.0, -4.0]),
    ):
        for s, lam, x in zip(ss, strata(rng, len(ss), 0.3, 3), _polar(rng, len(ss), 0.1, 3)):
            argv = ["eval", "--s", _cplx(s), "--lambda", _cplx(lam), "--x", _cplx(x),
                    "--method", method, "--tolerance", "1e-12"]
            ops.append(Op("eval", "cli.run", (argv,), (), ("cli_value", ("polyexp", s, lam, x), 1e-12),
                          capture=True))
    ws = [1.0, -1.0, 0.5, -0.5, 0.8, 1.0]
    for s, lam, w, x in zip(strata(rng, n, -3, 3), strata(rng, n, 0.3, 3), ws, strata(rng, n, -3, 3)):
        argv = ["series", "--s", _cplx(s), "--lambda", _cplx(lam), "--w", _cplx(w), "--x", _cplx(x),
                "--tolerance", "1e-12"]
        ops.append(Op("series", "cli.run", (argv,), (), ("cli_value", ("h", s, lam, w, x), 1e-12),
                      capture=True))
    return ops


_BUILDERS = {"routes": routes, "transforms": transforms, "symbolic": symbolic, "cli": cli}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list[Op]:
    """The round of one workload; the same seed gives the same operations."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))


def warmup(workload: str) -> list[Op]:
    """One operation of each kind, from a fixed round, plus the operations
    they read results from, in round order."""
    ops = _BUILDERS[workload](random.Random(f"{workload}:warmup"))
    first = {}
    for i, op in enumerate(ops):
        first.setdefault(op.kind, i)
    needed = set(first.values())
    stack = list(needed)
    while stack:
        for j in ops[stack.pop()].refs():
            if j not in needed:
                needed.add(j)
                stack.append(j)
    keep = sorted(needed)
    remap = {old: new for new, old in enumerate(keep)}
    out = []
    for i in keep:
        op = ops[i]
        args = tuple(Ref(remap[a.index]) if isinstance(a, Ref) else a for a in op.args)
        out.append(Op(op.kind, op.func, args, op.kwargs, op.check, op.fault, op.capture))
    return out


# ---------------------------------------------------------------------------
# checks: independent truth, compared outside the timed region
# ---------------------------------------------------------------------------

_TRUTH = {
    "polyexp": oracle.polyexp,
    "h": oracle.h_series,
    "zeta": oracle.riemann_zeta,
    "hurwitz": oracle.hurwitz_zeta,
    "lerch": oracle.lerch_phi,
    "eta": oracle.eta,
    "mellin_polyexp": oracle.mellin_polyexp,
    "mb": oracle.mellin_barnes,
    "zero": lambda: 0j,
}


class Truths:
    """Oracle values, each computed once per distinct input."""

    def __init__(self):
        self._cache: dict = {}

    def __call__(self, key: tuple) -> complex:
        if key not in self._cache:
            self._cache[key] = _TRUTH[key[0]](*key[1:])
        return self._cache[key]

    def prefill(self, ops: list[Op]) -> None:
        for op in ops:
            for key in _truth_keys(op):
                self(key)


def _truth_keys(op: Op):
    name, *params = op.check
    if name in ("value", "cli_value"):
        yield params[0]
    elif name == "table":
        function, _, (s_axis, x_axis, l_axis, w), _ = params
        for s in s_axis:
            for x in x_axis:
                for lam in l_axis:
                    yield ("polyexp", s, lam, x) if function == "polyexp" else ("h", s, lam, w, x)


def compare(got, truth: complex, tol: float) -> Optional[str]:
    got = complex(got)
    if not (cmath.isfinite(got) and abs(got - truth) <= tol * max(1.0, abs(truth))):
        return f"value {got!r} vs truth {truth!r}: off by {abs(got - truth):.3g} (tol {tol:g})"
    return None


def _check_value(out, truths, key, tol):
    return compare(getattr(out, "value", out), truths(key), tol)


def _check_rational(out, truths, text, points):
    """A parsed or decomposed R must reproduce the text's own values."""
    for re, im in points:
        s = complex(re, im)
        reason = compare(out(s), complex(oracle.rational(text, s)), 1e-10)
        if reason:
            return f"R({s}): {reason}"
    return None


def _check_expression(out, truths, poles, crossed):
    """Every polyexponential term sits at a pole of R; the shifted line
    collects exactly the crossed residues."""
    for term in out.terms:
        if min(abs(term.lam - p) for p in poles) > 1e-9:
            return f"term at lambda = {term.lam} is no pole of R (poles {poles})"
    if len(out.residues) != crossed:
        return f"{len(out.residues)} residues where {crossed} poles were crossed"
    return None


def _check_cli_value(out, truths, key, tol):
    code, text = out
    if code != 0:
        return f"exit code {code}"
    re, im = json.loads(text)["value"]
    return compare(complex(re, im), truths(key), tol)


def _check_table(out, truths, function, fmt, axes, tol):
    """Rows come back in grid order; each echoes its inputs and must match
    the oracle at them."""
    code, text = out
    if code != 0:
        return f"exit code {code}"
    rows = json.loads(text) if fmt == "json" else list(csv.DictReader(io.StringIO(text)))
    s_axis, x_axis, l_axis, w = axes
    expected = [(s, x, lam) for s in s_axis for x in x_axis for lam in l_axis]
    if len(rows) != len(expected):
        return f"{len(rows)} rows where {len(expected)} were asked for"
    for row, (s, x, lam) in zip(rows, expected):
        if (float(row["s"]), float(row["x"]), float(row["lambda"])) != (s, x, lam):
            return f"row {row} is not grid point s={s}, x={x}, lambda={lam}"
        key = ("polyexp", s, lam, x) if function == "polyexp" else ("h", s, lam, w, x)
        reason = compare(complex(float(row["value_re"]), float(row["value_im"])), truths(key), tol)
        if reason:
            return f"row s={s}, x={x}, lambda={lam}: {reason}"
    return None


_CHECKS = {
    "value": _check_value,
    "rational": _check_rational,
    "expression": _check_expression,
    "cli_value": _check_cli_value,
    "table": _check_table,
}


def verify(op: Op, out: Any, error: Optional[BaseException], truths: Truths) -> Optional[str]:
    """None when the operation passed, else why it failed."""
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    name, *params = op.check
    try:
        return _CHECKS[name](out, truths, *params)
    except (TypeError, ValueError, KeyError, AttributeError) as exc:
        return f"output unreadable: {type(exc).__name__}: {exc}"
