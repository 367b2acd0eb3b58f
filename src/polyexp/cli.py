"""Command-line front end.

Subcommands: eval (polyexponential by a chosen route), zeta, eta, lerch,
mellin (symbolic rational*Gamma line integral, optionally verified against
the quadrature oracle), series (the h family), check (identity suites),
table (CSV/JSON grids). Numeric output carries 17 significant digits so
binary64 values round-trip through parsing.

Exit codes: 0 success; 1 check-suite failure; 2 flag or grammar errors;
3 evaluation errors; 4 pole-region violations in the mellin pipeline.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import itertools
import json
import math
import sys

import numpy as np

from . import checks, core, mellin, series, transforms
from .result import ParseError, PolyexpError
from .mellin import PoleRegionError

def _positive_float(text: str) -> float:
    """argparse type of --tolerance: a float > 0 (argparse exits 2 otherwise)."""
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _finite_float(text: str) -> float:
    """argparse type of mellin's --x and --c: a finite float (argparse exits 2 otherwise)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def parse_complex(text: str, flag: str = "value") -> complex:
    """Parse the "a+bi" / "a-bi" grammar (`_complex_literal`); a non-finite
    value is an error that names the flag."""
    value = _complex_literal(text)
    if not cmath.isfinite(value):
        raise ValueError(f"{flag} must be finite, got {text!r}")
    return value


def _complex_literal(text: str) -> complex:
    """The "a+bi" / "a-bi" grammar; plain reals get a zero imaginary
    part, and a bare "i" means 1i."""
    t = text.strip().replace(" ", "")
    if not t:
        raise ValueError("empty complex literal")
    if not t.endswith("i"):
        return complex(float(t), 0.0)
    body = t[:-1]
    re_part, im_part = "", body
    for i in range(len(body) - 1, 0, -1):
        if body[i] in "+-" and body[i - 1] not in "eE":
            re_part, im_part = body[:i], body[i:]
            break
    if im_part in ("", "+"):
        im = 1.0
    elif im_part == "-":
        im = -1.0
    else:
        im = float(im_part)
    re = float(re_part) if re_part else 0.0
    return complex(re, im)


def parse_range(text: str, flag: str = "range") -> list[float]:
    """"start:stop:count" -> inclusive linear grid of finite values."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"range must be start:stop:count, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    count = int(parts[2])
    if count < 1:
        raise ValueError("range count must be >= 1")
    if count == 1:
        grid = [start]
    else:
        step = (stop - start) / (count - 1)
        grid = [start + i * step for i in range(count)]
    if not all(map(math.isfinite, grid)):
        raise ValueError(f"{flag} must be finite, got {text!r}")
    return grid


def _fmt(v: float) -> str:
    return f"{v:.17g}"


def _result_json(res: core.EvalResult) -> str:
    return (
        '{"value": [%s, %s], "abs_err": %s, "method": "%s", "work": %d}'
        % (_fmt(res.value.real), _fmt(res.value.imag), _fmt(res.abs_err_estimate), res.method, res.work)
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyexp", description="polyexponential function toolkit"
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_eval = sub.add_parser("eval", help="evaluate e_s(x, lambda)")
    p_eval.add_argument("--s", required=True)
    p_eval.add_argument("--lambda", dest="lam", required=True)
    p_eval.add_argument("--x", required=True)
    p_eval.add_argument(
        "--method", default="auto", choices=["auto", "series", "hankel", "recursion", "negint"]
    )
    p_eval.add_argument("--tolerance", type=_positive_float, default=1e-12)

    p_zeta = sub.add_parser("zeta", help="Riemann zeta via the transform routes")
    p_zeta.add_argument("--s", required=True)
    p_zeta.add_argument("--method", default="eta", choices=["eta", "laplace"])
    p_zeta.add_argument("--tolerance", type=_positive_float, default=1e-10)

    p_eta = sub.add_parser("eta", help="alternating zeta eta(s, lambda)")
    p_eta.add_argument("--s", required=True)
    p_eta.add_argument("--lambda", dest="lam", default="1")
    p_eta.add_argument("--tolerance", type=_positive_float, default=1e-10)

    p_lerch = sub.add_parser("lerch", help="Lerch transcendent Phi(x, s, lambda)")
    p_lerch.add_argument("--x", required=True)
    p_lerch.add_argument("--s", required=True)
    p_lerch.add_argument("--lambda", dest="lam", default="1")
    p_lerch.add_argument("--tolerance", type=_positive_float, default=1e-10)

    p_mellin = sub.add_parser("mellin", help="evaluate (1/2 pi i) int x^-s R(s) Gamma(s) ds")
    p_mellin.add_argument("--rational", required=True)
    p_mellin.add_argument("--x", type=_finite_float, required=True)
    p_mellin.add_argument("--c", type=_finite_float, required=True)
    p_mellin.add_argument("--verify", action="store_true")
    p_mellin.add_argument("--tolerance", type=_positive_float, default=1e-9)

    p_series = sub.add_parser("series", help="h_s(x, lambda, w) prefix series")
    p_series.add_argument("--s", required=True)
    p_series.add_argument("--lambda", dest="lam", default="1")
    p_series.add_argument("--w", default="1")
    p_series.add_argument("--x", required=True)
    p_series.add_argument("--tolerance", type=_positive_float, default=1e-12)

    p_check = sub.add_parser("check", help="run identity suites")
    p_check.add_argument(
        "--suite", required=True, choices=["exact", "routes", "transforms", "mellin", "series", "all"]
    )

    p_table = sub.add_parser("table", help="grid evaluation to CSV or JSON")
    p_table.add_argument("--function", required=True, choices=["polyexp", "zeta", "eta", "h"])
    p_table.add_argument("--s-range", dest="s_range")
    p_table.add_argument("--x-range", dest="x_range")
    p_table.add_argument("--lambda-range", dest="lambda_range", default="1:1:1")
    p_table.add_argument("--w", default="1")
    p_table.add_argument("--format", default="csv", choices=["csv", "json"])
    p_table.add_argument("--tolerance", type=_positive_float, default=1e-10)
    return parser


def _cmd_eval(args) -> str:
    s = parse_complex(args.s, "--s")
    lam = parse_complex(args.lam, "--lambda")
    x = parse_complex(args.x, "--x")
    tol = args.tolerance
    method = args.method
    if method == "auto":
        res = core.evaluate(s, lam, x, tol=tol)
    elif method == "series":
        res = core.eval_series(s, lam, x, tol=tol)
    elif method == "hankel":
        res = core.eval_hankel(s, lam, x, tol=max(tol, 1e-11))
    elif method == "recursion":
        if not (s.imag == 0 and s.real >= 1 and s.real == int(s.real)):
            raise PolyexpError("recursion route needs a positive integer s")
        res = core.eval_via_recursion(int(s.real), lam, x, tol=max(tol, 1e-11))
    else:  # negint
        if not (s.imag == 0 and s.real <= 0 and s.real == int(s.real)):
            raise PolyexpError("negint route needs a non-positive integer s")
        res = core.eval_negint(int(-s.real), lam, x)
    return _result_json(res)


def _cmd_mellin(args) -> str:
    r = mellin.parse_rational(args.rational)
    expr = mellin.eval_theorem63(r, args.c)
    value = mellin.eval_expression(expr, args.x, tol=args.tolerance)
    payload = {
        "expression": expr.to_json_dict(),
        "value": [value.value.real, value.value.imag],
        "abs_err": value.abs_err_estimate,
    }
    if args.verify:
        T = mellin.choose_line_height(r, args.x, args.c, args.tolerance)
        oracle = mellin.oracle_line_integral(r, args.x, args.c, T, tol=args.tolerance / 10)
        payload["oracle"] = [oracle.value.real, oracle.value.imag]
        payload["discrepancy"] = abs(value.value - oracle.value)
    return json.dumps(payload)


def _cmd_check(args) -> tuple[str, int]:
    results = checks.run_suite(args.suite)
    lines = [
        json.dumps(
            {
                "check": r.name,
                "pass": r.passed,
                "measured": r.measured,
                "tolerance": r.tolerance,
            }
        )
        for r in results
    ]
    n_fail = sum(not r.passed for r in results)
    lines.append(
        json.dumps({"suite": args.suite, "total": len(results), "failed": n_fail})
    )
    return "\n".join(lines), 0 if n_fail == 0 else 1


def _table_rows(args) -> tuple[list[str], list[tuple]]:
    """The table's header and its rows, in grid order s, x, lambda."""
    func = args.function
    if not args.s_range:
        raise ValueError("--s-range is required")
    s_grid = parse_range(args.s_range, "--s-range")
    lam_grid = parse_range(args.lambda_range, "--lambda-range")
    tol = args.tolerance

    cells = lambda res: (res.value.real, res.value.imag, res.abs_err_estimate)
    if func == "zeta":
        rows = [(s, *cells(transforms.riemann_zeta(s, tol=tol))) for s in s_grid]
        return ["s", "value_re", "value_im", "abs_err"], rows
    if func == "eta":
        rows = [(s, lam, *cells(transforms.eta(s, lam, tol=tol))) for s in s_grid for lam in lam_grid]
        return ["s", "lambda", "value_re", "value_im", "abs_err"], rows

    # polyexp or h: the whole grid in one call, flattened in row order s, x, lambda
    if not args.x_range:
        raise ValueError(f"--x-range is required for {func}")
    x_grid = parse_range(args.x_range, "--x-range")
    s, x, lam = (v.ravel() for v in np.meshgrid(s_grid, x_grid, lam_grid, indexing="ij"))
    inner_tol = min(tol, 1e-10)
    if func == "polyexp":
        header = ["s", "lambda", "x", "value_re", "value_im", "abs_err"]
        res = core.evaluate(s, lam, x, tol=inner_tol)
        inputs = [s.tolist(), lam.tolist(), x.tolist()]
    else:
        w = parse_complex(args.w, "--w")
        header = ["s", "lambda", "w", "x", "value_re", "value_im", "abs_err"]
        res = series.h_direct(series.HSeriesParams(s, lam, w, x), tol=inner_tol)
        w_cell = w.real if w.imag == 0 else f"{_fmt(w.real)}{w.imag:+.17g}i"  # the a+bi grammar
        inputs = [s.tolist(), lam.tolist(), itertools.repeat(w_cell), x.tolist()]
    outputs = [res.value.real.tolist(), res.value.imag.tolist(), res.abs_err_estimate.tolist()]
    return header, list(zip(*inputs, *outputs))


def _cmd_table(args) -> str:
    header, rows = _table_rows(args)
    if args.format == "json":
        return json.dumps([dict(zip(header, r)) for r in rows])
    # no field needs CSV quoting: each is a float or the a+bi w cell
    row_format = ",".join("%.17g" if isinstance(v, float) else "%s" for v in rows[0])
    return "\n".join([",".join(header)] + [row_format % r for r in rows])


_VALUE_FLAGS = {
    "--s", "--lambda", "--x", "--w", "--c", "--rational", "--tolerance",
    "--s-range", "--x-range", "--lambda-range",
}


def _preprocess(argv):
    """Join "--flag -value" into "--flag=-value" so negative literals and
    ranges like -2:2:5 survive argparse."""
    if argv is None:
        argv = sys.argv[1:]
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `run` uses, built once per process (2 ms a build against
    ~0.05 ms for a single eval); parse_args leaves it as it was."""
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(_preprocess(argv))
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        if args.subcommand == "eval":
            print(_cmd_eval(args))
        elif args.subcommand == "zeta":
            s = parse_complex(args.s, "--s")
            if args.method == "laplace":
                res = transforms.hurwitz_zeta(s, 1.0, tol=args.tolerance)
            else:
                res = transforms.riemann_zeta(s, tol=args.tolerance)
            print(_result_json(res))
        elif args.subcommand == "eta":
            s, lam = parse_complex(args.s, "--s"), parse_complex(args.lam, "--lambda")
            res = transforms.eta(s, lam, tol=args.tolerance)
            print(_result_json(res))
        elif args.subcommand == "lerch":
            res = transforms.lerch_phi(
                parse_complex(args.x, "--x"), parse_complex(args.s, "--s"), parse_complex(args.lam, "--lambda"),
                tol=args.tolerance,
            )
            print(_result_json(res))
        elif args.subcommand == "mellin":
            print(_cmd_mellin(args))
        elif args.subcommand == "series":
            params = series.HSeriesParams(
                parse_complex(args.s, "--s"), parse_complex(args.lam, "--lambda"), parse_complex(args.w, "--w"),
                parse_complex(args.x, "--x"),
            )
            print(_result_json(series.h_direct(params, tol=args.tolerance)))
        elif args.subcommand == "check":
            text, code = _cmd_check(args)
            print(text)
            return code
        elif args.subcommand == "table":
            print(_cmd_table(args))
        return 0
    except PoleRegionError as exc:
        print(f"pole region error: {exc}", file=sys.stderr)
        return 4
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (PolyexpError, OverflowError, ZeroDivisionError) as exc:
        print(f"evaluation error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"argument error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())
