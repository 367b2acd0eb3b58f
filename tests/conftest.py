"""Shared test references."""

import cmath
import math

import pytest

from polyexp import core
from polyexp.result import ConvergenceError


def _per_term_sum(s, lam, x, tol, w=None):
    """The direct sum of `eval_series` (coefficients (n+lam)^-s) or, with w,
    of `h_direct` (prefix sums P_n = sum_{j<n} w^j (j+lam)^-s), on numbers,
    asking the stop rule after every term n: from n >= 2|x| on, a sum
    |terms| past binary64 raises, and the tail bound plus |P_(n+1)| times
    its value at s = 0 ends the sum once it meets tol, with that bound plus
    the rounding level times sum |terms| as the estimate; past
    `core._MAX_TERMS` terms, ConvergenceError. Returns (value, estimate, n)."""
    acc, sum_abs, xterm, prefix, wpow, n = 0j, 0.0, 1 + 0j, 0j, 1 + 0j, 0
    try:
        while True:
            coefficient = cmath.exp(-s * cmath.log(lam + n))
            term = xterm * (coefficient if w is None else prefix)
            acc += term
            sum_abs += abs(term)
            if w is not None:
                prefix += wpow * coefficient
                wpow *= w
            if n >= 2.0 * abs(x):
                if not math.isfinite(sum_abs):
                    raise core._Overflow(f"series terms overflow binary64 at x = {x}")
                tail = core._tail_bound(s, lam, x, n, abs(prefix))
                if tail <= tol:  # False for the NaN of a term ratio above 1/2
                    return acc, tail + core._rounding_level(s, lam, n) * sum_abs, n
            if n >= core._MAX_TERMS:
                raise ConvergenceError(f"series needs more than {core._MAX_TERMS} terms for tol={tol:g} at x={x}")
            n += 1
            xterm *= x / n
    except OverflowError as exc:
        raise core._Overflow(f"series terms overflow binary64 at x = {x}") from exc


@pytest.fixture
def per_term_sum():
    """The per-term reference of the direct sums (`_per_term_sum`)."""
    return _per_term_sum
