"""Per-layer counters for a traced run, recorded from outside the program.

Each traced function is replaced, at every module attribute of polyexp
that holds it, by a wrapper that counts calls, inclusive time, self time
(inclusive minus the time of traced calls made inside it) and the work
the call returns. Nothing under src/ changes; the wrappers exist only
in a traced run, so untraced runs measure the program as shipped.
"""

from __future__ import annotations

import functools
import sys
import time


def _work(out):
    return out.work


def _third(out):
    return out[2]


# traced function -> (metrics to report, how to read its work count)
LAYERS = {
    "core.eval_hankel": (("calls", "nodes", "self_ms"), _work),
    "core.eval_via_recursion": (("calls", "evals", "self_ms"), _work),
    "core.eval_negint": (("calls", "self_ms"), None),
    "exact.q_poly": (("calls", "self_ms"), None),
    "core.exp_weighted_series": (("calls", "terms", "terms_per_call", "self_ms"), _third),
    "quadrature.quad_semiinfinite": (("calls", "nodes", "self_ms"), _work),
    "quadrature.tanh_sinh": (("calls", "nodes", "self_ms"), _third),
    "transforms.eta": (("ms",), None),
    "transforms.hurwitz_zeta": (("ms",), None),
    "transforms.lerch_phi": (("ms",), None),
    "transforms.mellin_transform_polyexp": (("ms",), None),
    "transforms.vanishing_moment": (("ms",), None),
    "core.gamma_fn": (("calls", "self_ms"), None),
    "mellin.oracle_line_integral": (("nodes", "self_ms"), _work),
    "mellin.parse_rational": (("self_ms",), None),
    "mellin.partial_fractions": (("self_ms",), None),
    "mellin.eval_expression": (("self_ms",), None),
    "exact.phi_poly": (("calls", "self_ms"), None),
    "core.eval_series": (("calls", "terms", "self_ms"), _work),
    "series.h_direct": (("calls", "terms", "self_ms"), _work),
    "series.h_quadrature": (("self_ms",), None),
    "cli.run": (("calls", "self_ms"), None),
}

_TIMES = ("self_ms", "ms")


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [
        (f"{path}.{m}", "ms" if m in _TIMES else "count")
        for path, (metrics, _) in LAYERS.items()
        for m in metrics
    ]


class _Stat:
    __slots__ = ("calls", "inclusive", "self_time", "work")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.self_time = 0.0
        self.work = 0


class Tracer:
    """Installs the wrappers and accumulates their counters."""

    def __init__(self):
        self.stats = {path: _Stat() for path in LAYERS}
        self.sites: dict[str, list[str]] = {path: [] for path in LAYERS}
        self._children: list[float] = []  # traced-child time of each open call

    def _wrap(self, path, fn, count):
        stat = self.stats[path]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = children.pop()
                if children:
                    children[-1] += elapsed
                stat.calls += 1
                stat.inclusive += elapsed
                stat.self_time += elapsed - inner
            if count is not None:
                stat.work += count(out)
            return out

        return wrapper

    def install(self) -> "Tracer":
        """Wrap every traced function wherever a polyexp module binds it."""
        modules = [m for name, m in sys.modules.items() if name == "polyexp" or name.startswith("polyexp.")]
        for path, (_, count) in LAYERS.items():
            module, attr = path.split(".")
            original = getattr(sys.modules.get(f"polyexp.{module}"), attr, None)
            if original is None:
                continue  # gone from the program: its counters stay 0
            wrapper = self._wrap(path, original, count)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        self.sites[path].append(f"{mod.__name__}.{name}")
        return self

    def metrics(self, rounds: int) -> dict[str, dict]:
        """Every per-layer metric, per round of the workload."""
        out = {}
        for path, (metrics, _) in LAYERS.items():
            st = self.stats[path]
            values = {
                "calls": st.calls / rounds,
                "self_ms": 1e3 * st.self_time / rounds,
                "ms": 1e3 * st.inclusive / rounds,
                "terms_per_call": st.work / st.calls if st.calls else 0.0,
            }
            for m in metrics:
                value = values.get(m, st.work / rounds)
                out[f"{path}.{m}"] = {"value": value, "unit": "ms" if m in _TIMES else "count"}
        return out
