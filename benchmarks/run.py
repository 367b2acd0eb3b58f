r"""polyexp benchmark: one workload, in one process, on seeded inputs.

    env OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 \
        python3 benchmarks/run.py --workload routes --seed 1 --seconds 20 --trace 0

Workloads: routes, transforms, symbolic, cli (see README.md). The run
sets polyexp up several times (import plus one warm-up call of each kind
of operation), then repeats whole rounds of the workload until
--seconds have passed, timing each public call and checking each output
against the mpmath oracle outside the timed region. The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics with --trace 0, the per-layer
counters (per round) with --trace 1. A copy with per-kind detail goes
to benchmarks/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import Build, Ref  # noqa: E402

# set-ups before and after the timed rounds; setup_s is the median of all
# seven, so that it samples the machine at both ends of the run
SETUPS_BEFORE, SETUPS_AFTER = 3, 4
MIN_OPS = 100  # every run times at least this many operations


def load_polyexp(modules) -> None:
    """Import polyexp afresh from this checkout's src/, with the named submodules."""
    for name in [n for n in sys.modules if n == "polyexp" or n.startswith("polyexp.")]:
        del sys.modules[name]
    package = importlib.import_module("polyexp")
    src = ROOT / "src"
    if Path(package.__file__).resolve().parent.parent != src:
        raise ImportError(f"polyexp came from {package.__file__}, not from {src}")
    for module in modules:
        importlib.import_module(f"polyexp.{module}")


def resolve(path: str):
    module, attr = path.split(".")
    return getattr(sys.modules[f"polyexp.{module}"], attr)


def execute(op, results):
    """Run one operation. Returns (outcome, error, seconds); only the call
    itself is timed."""
    args = [
        results[a.index] if isinstance(a, Ref) else resolve(a.func)(*a.args) if isinstance(a, Build) else a
        for a in op.args
    ]
    fn = resolve(op.func)
    kwargs = dict(op.kwargs)
    out = error = None
    buf = io.StringIO()
    sink = contextlib.redirect_stdout(buf) if op.capture else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with sink:
            out = fn(*args, **kwargs)
    except Exception as exc:  # a failing operation is counted, not fatal
        error = exc
    elapsed = time.perf_counter() - t0
    if op.capture and error is None:
        out = (out, buf.getvalue())
    return out, error, elapsed


def set_up(warm, modules) -> float:
    """Seconds from importing polyexp to the end of the warm-up."""
    t0 = time.perf_counter()
    load_polyexp(modules)
    results = []
    for op in warm:
        results.append(execute(op, results)[0])
    return time.perf_counter() - t0


def measure(ops, seconds: float, truths):
    """Whole rounds until `seconds` have passed and MIN_OPS ran.

    Returns the times of every round (one list per round, in op order),
    the number of failed operations and the first failure reason of each
    failing operation."""
    rounds, failures = [], {}
    failed = 0
    start = time.perf_counter()
    while not rounds or len(rounds) * len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        results, times = [], []
        for i, op in enumerate(ops):
            out, error, elapsed = execute(op, results)
            times.append(elapsed)
            reason = workloads.verify(op, out, error, truths)
            results.append(out if error is None else None)
            if reason is not None:
                failed += 1
                failures.setdefault(i, reason)
        rounds.append(times)
    return rounds, failed, failures


def upper_quartile(values) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ops = workloads.build(args.workload, args.seed)
    warm = workloads.warmup(args.workload)
    modules = sorted({op.func.split(".")[0] for op in ops})
    try:
        setups = [set_up(warm, modules) for _ in range(SETUPS_BEFORE)]
    except ImportError as exc:
        print(f"cannot import polyexp from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    truths = workloads.Truths()
    truths.prefill(ops)
    tracer = layers.Tracer().install() if args.trace else None
    round_times, failed, failures = measure(ops, args.seconds, truths)

    # Each operation's time is the upper quartile of its times over the
    # rounds: the machine's speed jumps up by tens of percent for seconds
    # at a time, and the upper quartile reads the usual speed unless such
    # a burst covers three quarters of the run.
    rounds = len(round_times)
    attempted = rounds * len(ops)
    op_times = [upper_quartile(column) for column in zip(*round_times)]
    unexpected = {i: r for i, r in failures.items() if ops[i].fault is None}
    deciles = statistics.quantiles(op_times, n=10, method="inclusive")
    ops_per_s = (attempted - failed) / rounds / sum(op_times)
    if tracer is None:
        setups += [set_up(warm, modules) for _ in range(SETUPS_AFTER)]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * deciles[4], "unit": "ms"},
            "op_p90_ms": {"value": 1e3 * deciles[8], "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    else:
        metrics = tracer.metrics(rounds)

    by_kind: dict[str, list[float]] = {}
    for op, t in zip(ops, op_times):
        by_kind.setdefault(op.kind, []).append(t)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": rounds,
        "ops_per_round": len(ops),
        "setups_s": setups,
        "ops_per_s": ops_per_s,
        "kinds": {k: {"ops": len(v), "median_ms": 1e3 * statistics.median(v)} for k, v in by_kind.items()},
        "failures": [
            {"op": i, "func": ops[i].func, "args": repr(ops[i].args), "reason": r,
             "kept_fault": ops[i].fault.why if ops[i].fault else None}
            for i, r in sorted(failures.items())
        ],
        "trace_sites": tracer.sites if tracer else None,
        "round_times": round_times,
    }
    for i, reason in sorted(unexpected.items()):
        print(f"UNEXPECTED FAILURE {ops[i].func}{ops[i].args}: {reason}", file=sys.stderr)
    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: {rounds} rounds x {len(ops)} ops, "
        f"{ops_per_s:.4g} ops/s, failed {failed}/{attempted}, setups {['%.3f' % s for s in setups]}",
        file=sys.stderr,
    )

    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps({**result, "detail": detail}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
