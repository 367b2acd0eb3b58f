"""Shared result container and exception hierarchy."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class EvalResult:
    """Numeric value with an absolute-error estimate and bookkeeping.

    `work` counts series terms or quadrature nodes, whichever the producing
    route consumed, as an int; for the recursion route it counts
    evaluations of e_0 on the shared grid, summed over the resolutions
    tried, and for "hankel" the distinct contour points, 2(m+1) at the
    last count m (m+1 when the circle is left out).
    "series" counts the n + 1 terms up to its last index n, "h_series"
    counts n itself (its n = 0 term, P_0, is 0).
    `method` is the route tag: {series, closed_form, recursion, hankel,
    taylor_shift, asymptotic} in core, {h_series, h_quadrature} for the
    h family, quadrature in the transforms but for
    `mellin_transform_polyexp` (recursion) and {line_integral,
    mellin_expression} in the Mellin-Barnes layer.
    `eta`, `lerch_phi`, `hurwitz_zeta`, `riemann_zeta` and "h_quadrature"
    add the weighted series' terms to their nodes, and
    `mellin_transform_polyexp` counts grid e_0 evaluations and series terms.

    For a 1-D array of x (`core.evaluate`, `core.eval_series`,
    `core.eval_negint`, `series.h_direct`; all but `eval_negint` also
    with s and lam per node), value and abs_err_estimate
    are arrays with one entry per node, work is the total over the nodes,
    and `evaluate`'s method is a tuple of per-node tags when the nodes
    took several routes.
    """

    value: complex
    abs_err_estimate: float
    work: int
    method: str

    def __post_init__(self):
        err = self.abs_err_estimate
        if (err < 0).any() if isinstance(err, np.ndarray) else err < 0:
            raise ValueError("abs_err_estimate must be >= 0")
        if self.work < 0:
            raise ValueError("work must be >= 0")


class PolyexpError(Exception):
    """Base class for every error this package raises deliberately."""


class DomainError(PolyexpError, ValueError):
    """Arguments outside an operation's documented domain."""


class PoleError(DomainError):
    """Evaluation exactly at a pole."""


class ConvergenceError(PolyexpError):
    """A series or iteration failed to reach the requested tolerance."""


class QuadratureError(PolyexpError):
    """Adaptive quadrature exhausted its refinement budget."""


class ContourResolutionError(PolyexpError):
    """Hankel contour pieces failed their internal consistency check."""


class ConditioningError(PolyexpError):
    """A result would be dominated by cancellation or a near-degenerate system."""


class UnsupportedError(PolyexpError):
    """A documented, deliberate limitation was hit."""


class ParseError(PolyexpError, ValueError):
    """Syntax error in an input grammar; carries the byte offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position
