"""Self-test of the benchmark's checker.

    python3 benchmarks/selftest.py [--seeds 1 2 3] [--workload routes ...]

It asserts that the per-layer metrics listed in BENCHMARK.json are the
ones layers.py reports, and for one round of each workload at each seed
that:
  * every operation passes, except the kept failing ones;
  * each kept failing operation fails in its named way (a wrong value, or
    the named exception);
  * every passing output, perturbed by a relative 1e-6 (at least 1e-6
    absolute, the scale the check uses below |truth| = 1), is reported
    as failed;
  * every passing output swapped in from another input of the same kind
    is reported as failed.
Exits 1 and lists the breaches if any assertion fails.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys

import layers
import run
import workloads


def _bump(v: complex) -> complex:
    return v * (1 + 1e-6) + 1e-6


def perturb(op, out):
    """The output with its value (or one table row's value) nudged, or
    None where the check is a structural property."""
    name = op.check[0]
    if name == "value":
        return dataclasses.replace(out, value=_bump(out.value)) if hasattr(out, "value") else _bump(out)
    if name == "rational":
        return lambda s: _bump(out(s))
    if name == "cli_value":
        code, text = out
        data = json.loads(text)
        data["value"][0] = _bump(data["value"][0]).real
        return code, json.dumps(data)
    if name == "table":
        code, text = out
        if op.check[2] == "json":
            rows = json.loads(text)
            rows[-1]["value_re"] = _bump(rows[-1]["value_re"]).real
            return code, json.dumps(rows)
        rows = list(csv.reader(io.StringIO(text)))
        col = rows[0].index("value_re")
        rows[-1][col] = repr(_bump(float(rows[-1][col])).real)
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        return code, buf.getvalue()
    return None


def check_round(workload: str, seed: int) -> list[str]:
    ops = workloads.build(workload, seed)
    truths = workloads.Truths()
    outs, breaches = [], []
    for op in ops:
        out, error, _ = run.execute(op, outs)
        outs.append(out if error is None else None)
        reason = workloads.verify(op, out, error, truths)
        where = f"{workload} seed {seed} {op.func}{op.args}"
        if op.fault is None and reason is not None:
            breaches.append(f"{where}: unexpected failure: {reason}")
        elif op.fault is not None:
            named = "value " if op.fault.mode == "value" else f"raised {op.fault.mode}:"
            if reason is None or not reason.startswith(named):
                breaches.append(f"{where}: kept fault '{op.fault.mode}' not seen; got {reason}")
    passing = [
        i for i, op in enumerate(ops)
        if op.fault is None and outs[i] is not None and workloads.verify(op, outs[i], None, truths) is None
    ]
    for i in passing:
        op = ops[i]
        bumped = perturb(op, outs[i])
        if bumped is not None and workloads.verify(op, bumped, None, truths) is None:
            breaches.append(f"{workload} seed {seed} {op.func}{op.args}: perturbed output passed")
        partner = next((j for j in passing if ops[j].kind == op.kind and _differs(ops[i], ops[j], truths)), None)
        if partner is not None and workloads.verify(op, outs[partner], None, truths) is None:
            breaches.append(f"{workload} seed {seed} {op.func}{op.args}: output of op {partner} passed")
    print(f"{workload} seed {seed}: {len(ops)} ops, {len(passing)} passing checked, {len(breaches)} breaches")
    return breaches


def _differs(a, b, truths) -> bool:
    """Whether b's correct output must fail a's check."""
    if a is b or a.check[0] != b.check[0]:
        return False
    name = a.check[0]
    if name in ("value", "cli_value"):
        tol = a.check[2]
        ta, tb = truths(a.check[1]), truths(b.check[1])
        return abs(ta - tb) > 10 * tol * max(1.0, abs(ta))
    if name == "expression":
        return not set(a.check[1]) & set(b.check[1])
    return a.check[1:] != b.check[1:]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS, default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    breaches = []
    listed = json.loads((run.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    if [(m["name"], m["unit"]) for m in listed] != layers.metric_names():
        breaches.append("BENCHMARK.json per_layer differs from layers.metric_names()")
    for workload in args.workload:
        run.load_polyexp(sorted({op.func.split(".")[0] for op in workloads.build(workload, 0)}))
        for seed in args.seeds:
            breaches += check_round(workload, seed)
    for b in breaches:
        print("BREACH", b)
    print("selftest", "FAILED" if breaches else "passed")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
