"""CLI behaviour: flags, output schemas, exit codes, determinism."""

import csv
import io
import json
import math

import pytest

from polyexp.cli import parse_complex, parse_range, run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- literal parsing -------------------------------------------------------------


def test_parse_complex_forms():
    assert parse_complex("2") == 2 + 0j
    assert parse_complex("-1.5") == -1.5 + 0j
    assert parse_complex("2+3i") == 2 + 3j
    assert parse_complex("2-3i") == 2 - 3j
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("3i") == 3j
    assert parse_complex("1e-3+2.5e2i") == 0.001 + 250j
    assert parse_complex("1e-3i") == 1e-3j
    with pytest.raises(ValueError):
        parse_complex("")
    with pytest.raises(ValueError):
        parse_complex("2+3j")


def test_parse_range():
    assert parse_range("2:5:4") == [2.0, 3.0, 4.0, 5.0]
    assert parse_range("1:1:1") == [1.0]
    assert parse_range("-2:2:5") == [-2.0, -1.0, 0.0, 1.0, 2.0]
    with pytest.raises(ValueError):
        parse_range("1:2")
    with pytest.raises(ValueError):
        parse_range("1:2:0")


def test_command_config_validation(capsys):
    base = ("eval", "--s", "1", "--lambda", "1", "--x", "1")
    for tol in ("-1", "0", "-0.0", "nan"):
        code, _, err = invoke(capsys, *base, "--tolerance", tol)
        assert code == 2 and "tolerance" in err
    code, _, _ = invoke(capsys, "zeta", "--s", "2", "--tolerance", "0")
    assert code == 2
    code, _, _ = invoke(capsys, "nope", "--s", "1")
    assert code == 2


# -- eval --------------------------------------------------------------------------


def test_eval_basic(capsys):
    code, out, _ = invoke(capsys, "eval", "--s", "0", "--lambda", "1", "--x", "1")
    assert code == 0
    data = json.loads(out)
    assert abs(data["value"][0] - math.e) < 1e-12
    assert data["value"][1] == 0
    assert data["method"] == "closed_form"  # auto picks negint at s = 0
    assert data["work"] >= 1 and data["abs_err"] >= 0


def test_eval_json_round_trips(capsys):
    code, out, _ = invoke(capsys, "eval", "--s", "2.5+0.5i", "--lambda", "1.7", "--x", "-0.5")
    assert code == 0
    data = json.loads(out)
    again_code, again_out, _ = invoke(
        capsys, "eval", "--s", "2.5+0.5i", "--lambda", "1.7", "--x", "-0.5"
    )
    assert json.loads(again_out) == data  # deterministic


def test_eval_series_vs_hankel(capsys):
    _, out1, _ = invoke(capsys, "eval", "--s", "2", "--lambda", "1", "--x", "-1", "--method", "series")
    _, out2, _ = invoke(capsys, "eval", "--s", "2", "--lambda", "1", "--x", "-1", "--method", "hankel")
    v1 = complex(*json.loads(out1)["value"])
    v2 = complex(*json.loads(out2)["value"])
    assert abs(v1 - v2) < 1e-7


def test_eval_negint_method(capsys):
    code, out, _ = invoke(
        capsys, "eval", "--s", "-2", "--lambda", "1.5", "--x", "2", "--method", "negint"
    )
    assert code == 0
    from polyexp.exact import q_poly

    expect = math.exp(2.0) * complex(q_poly(2)(2.0, 1.5))
    assert abs(complex(*json.loads(out)["value"]) - expect) < 1e-10


def test_eval_auto_large_negative_x(capsys):
    # e_1(-40, 1) = (1 - e^-40)/40; the series alone returns 0.0464 here
    code, out, _ = invoke(capsys, "eval", "--s", "1", "--lambda", "1", "--x", "-40")
    assert code == 0
    data = json.loads(out)
    assert data["method"] == "positive_integral"
    assert abs(data["value"][0] - 0.025) < 1e-12


def test_eval_flag_errors(capsys):
    code, _, _ = invoke(capsys, "eval", "--s", "1")  # missing flags
    assert code == 2
    code, _, err = invoke(capsys, "eval", "--s", "x", "--lambda", "1", "--x", "1")
    assert code == 2 and "argument error" in err


def test_eval_evaluation_error(capsys):
    # recursion needs integer s
    code, _, err = invoke(
        capsys, "eval", "--s", "0.5", "--lambda", "1", "--x", "1", "--method", "recursion"
    )
    assert code == 3
    # domain violation: Re lam <= 0
    code, _, _ = invoke(capsys, "eval", "--s", "1", "--lambda", "-1", "--x", "1")
    assert code == 3


# -- transforms commands --------------------------------------------------------------


def test_zeta_command(capsys):
    code, out, _ = invoke(capsys, "zeta", "--s", "2")
    assert code == 0
    assert abs(json.loads(out)["value"][0] - math.pi**2 / 6) < 1e-8


def test_zeta_pole_exit(capsys):
    code, _, _ = invoke(capsys, "zeta", "--s", "1")
    assert code == 3


def test_eta_command(capsys):
    code, out, _ = invoke(capsys, "eta", "--s", "0", "--lambda", "1")
    assert code == 0
    assert abs(json.loads(out)["value"][0] - 0.5) < 1e-8


def test_lerch_command(capsys):
    code, out, _ = invoke(capsys, "lerch", "--x", "0.5", "--s", "2", "--lambda", "1")
    assert code == 0
    oracle = sum(0.5**n / (n + 1) ** 2 for n in range(80))
    assert abs(json.loads(out)["value"][0] - oracle) < 1e-8


# -- mellin ----------------------------------------------------------------------------


def test_mellin_verify(capsys):
    code, out, _ = invoke(
        capsys, "mellin", "--rational", "1/(2-s)", "--x", "1", "--c", "1", "--verify"
    )
    assert code == 0
    data = json.loads(out)
    assert data["discrepancy"] < 1e-6
    assert data["expression"]["terms"][0]["p"] == 1
    series_val = sum((-1.0) ** n / (math.factorial(n) * (n + 2)) for n in range(25))
    assert abs(data["value"][0] - series_val) < 1e-9


def test_mellin_polynomial_value(capsys):
    code, out, _ = invoke(capsys, "mellin", "--rational", "s^2", "--x", "1", "--c", "1")
    assert code == 0
    assert abs(json.loads(out)["value"][0]) < 1e-12  # e^-1 phi_2(-1) = 0


def test_mellin_pole_region_exit4(capsys):
    code, _, err = invoke(capsys, "mellin", "--rational", "1/(0.5-s)", "--x", "1", "--c", "1")
    assert code == 4


def test_mellin_parse_error_exit2(capsys):
    code, _, err = invoke(capsys, "mellin", "--rational", "1/(2-s", "--x", "1", "--c", "1")
    assert code == 2 and "offset" in err


# -- series ------------------------------------------------------------------------------


def test_series_command(capsys):
    code, out, _ = invoke(capsys, "series", "--s", "-3", "--lambda", "1", "--w", "1", "--x", "1")
    assert code == 0
    assert abs(json.loads(out)["value"][0] - 27 * math.e / 4) < 1e-10


# -- check ---------------------------------------------------------------------------------


def test_check_exact_suite(capsys):
    code, out, _ = invoke(capsys, "check", "--suite", "exact")
    assert code == 0
    lines = out.strip().split("\n")
    for line in lines:
        json.loads(line)  # every line is machine-readable
    summary = json.loads(lines[-1])
    assert summary["failed"] == 0 and summary["total"] >= 10


def test_check_all_under_two_minutes(capsys):
    import time

    t0 = time.time()
    code, out, _ = invoke(capsys, "check", "--suite", "all")
    elapsed = time.time() - t0
    assert code == 0
    summary = json.loads(out.strip().split("\n")[-1])
    assert summary["failed"] == 0
    assert elapsed < 120.0


# -- table ----------------------------------------------------------------------------------


def test_table_zeta(capsys):
    code, out, _ = invoke(capsys, "table", "--function", "zeta", "--s-range", "2:5:4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["s", "value_re", "value_im", "abs_err"]
    assert len(rows) == 5
    assert abs(float(rows[1][1]) - math.pi**2 / 6) < 1e-8


def test_table_polyexp_cardinality(capsys):
    code, out, _ = invoke(
        capsys,
        "table", "--function", "polyexp",
        "--s-range", "-2:2:5", "--x-range", "-1:1:3", "--lambda-range", "1:1:1",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 15


def test_table_h_matches_direct(capsys):
    code, out, _ = invoke(
        capsys, "table", "--function", "h", "--s-range", "1:1:1", "--x-range", "0.5:2:4"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 5
    from polyexp.series import HSeriesParams, h_direct

    spot = h_direct(HSeriesParams(1.0, 1.0, 1.0, 0.5), tol=1e-10).value
    assert abs(float(rows[1][4]) - spot.real) < 1e-9


def test_table_json_format(capsys):
    code, out, _ = invoke(
        capsys, "table", "--function", "eta", "--s-range", "2:2:1", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 1
    assert abs(data[0]["value_re"] - math.pi**2 / 12) < 1e-8


def test_table_bad_range_exit2(capsys):
    code, _, _ = invoke(capsys, "table", "--function", "zeta", "--s-range", "2:5")
    assert code == 2


def test_table_output_17_digits(capsys):
    _, out, _ = invoke(capsys, "table", "--function", "zeta", "--s-range", "2:2:1")
    rows = list(csv.reader(io.StringIO(out)))
    # 17 significant digits survive the round trip
    assert float(rows[1][1]) == pytest.approx(math.pi**2 / 6, abs=1e-8)
    assert len(rows[1][1].replace("-", "").replace(".", "").lstrip("0")) >= 16


def test_eval_term_cap_exit_code(capsys):
    # x = 30000 needs more terms than the 10000-term cap
    code, _, err = invoke(
        capsys, "eval", "--s", "2", "--lambda", "1", "--x", "30000", "--method", "series"
    )
    assert code == 3 and "terms" in err


def test_eval_series_overflow_exit_code(capsys):
    # the terms of e_1(800) pass binary64: a typed error, not a NaN
    code, out, err = invoke(
        capsys, "eval", "--s", "1", "--lambda", "1", "--x", "800", "--method", "series"
    )
    assert code == 3 and "binary64" in err and "nan" not in out.lower()


@pytest.mark.parametrize(
    "function, fmt, x_range, w",
    [
        ("polyexp", "csv", "-12:3:6", "1"),  # x = -12 takes the positive integral or Hankel
        ("polyexp", "json", "-12:3:6", "1"),
        ("h", "csv", "-2.8:2.9:5", "0.6+0.3i"),
        ("h", "json", "-2.8:2.9:5", "-1"),
    ],
)
def test_table_rows_match_point_calls(capsys, function, fmt, x_range, w):
    """Each (s, lambda) pair is evaluated over its x axis in one call; the
    rows keep the grid order s, x, lambda and match per-point calls."""
    from polyexp.core import evaluate
    from polyexp.series import HSeriesParams, h_direct

    s_axis, x_axis, l_axis = parse_range("-2.1:2.05:3"), parse_range(x_range), parse_range("0.5:2.5:3")
    code, out, _ = invoke(
        capsys, "table", "--function", function, "--s-range", "-2.1:2.05:3", "--x-range", x_range,
        "--lambda-range", "0.5:2.5:3", "--w", w, "--format", fmt,
    )
    assert code == 0
    rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
    grid = [(s, x, lam) for s in s_axis for x in x_axis for lam in l_axis]
    assert len(rows) == len(grid)
    for row, (s, x, lam) in zip(rows, grid):
        assert (float(row["s"]), float(row["x"]), float(row["lambda"])) == (s, x, lam)
        if function == "polyexp":
            ref = evaluate(s, lam, x, tol=1e-10)
        else:
            ref = h_direct(HSeriesParams(s, lam, parse_complex(w), x), tol=1e-10)
        value = complex(float(row["value_re"]), float(row["value_im"]))
        assert abs(value - ref.value) <= ref.abs_err_estimate
        assert float(row["abs_err"]) == pytest.approx(ref.abs_err_estimate, rel=1e-12)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("w", ["0.5+0.5i", "-1.25e-07-0.75i", "-0.5"])
def test_table_w_cell_reads_back(capsys, fmt, w):
    """A complex w is written in the CLI's own a+bi grammar, a real w as a number."""
    code, out, _ = invoke(
        capsys, "table", "--function", "h", "--s-range", "2:2:1", "--x-range", "0.5:1:2",
        "--w", w, "--format", fmt,
    )
    assert code == 0
    rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    for row in rows:
        cell = row["w"]
        if fmt == "json":
            assert isinstance(cell, str if parse_complex(w).imag else float)
        assert parse_complex(str(cell)) == parse_complex(w)


@pytest.mark.parametrize("function", ["polyexp", "h"])
def test_table_past_binary64_exit_code(capsys, function):
    code, out, err = invoke(
        capsys, "table", "--function", function, "--s-range", "-1.5:2:3", "--x-range", "700:800:3"
    )
    assert code == 3 and "binary64" in err and out == ""


def test_run_reuses_parser_without_leaking_defaults(capsys):
    """run builds its parser once per process; a call with optional flags
    leaves nothing behind for the next call, whatever its subcommand."""
    from polyexp import cli

    calls = [
        ("eval", "--s", "0.5", "--lambda", "1", "--x", "2", "--method", "hankel", "--tolerance", "1e-9"),
        ("eval", "--s", "0.5", "--lambda", "1", "--x", "2"),
        ("series", "--s", "2", "--w", "0.5", "--x", "1", "--tolerance", "1e-8"),
        ("series", "--s", "2", "--x", "1"),
        ("table", "--function", "polyexp", "--s-range", "1:2:2", "--x-range", "0:1:2", "--format", "json"),
        ("table", "--function", "polyexp", "--s-range", "1:2:2", "--x-range", "0:1:2"),
        ("eta", "--s", "2", "--lambda", "2"),
        ("eta", "--s", "2"),
        ("eval", "--s", "1", "--lambda", "1"),
        ("eval", "--s", "0.5", "--lambda", "1", "--x", "-1"),
    ]
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(invoke(capsys, *argv))
    cli._parser.cache_clear()
    reused = [invoke(capsys, *argv) for argv in calls]
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0] * 8 + [2, 0]
    assert cli._parser.cache_info().misses == 1
