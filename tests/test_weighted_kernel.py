"""The weighted-series kernel e^(-t) e_s(z t, lam) over arrays of nodes,
and the memo tables it and the quadrature read."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from polyexp import core, exact, mellin, quadrature
from polyexp.core import exp_weighted_series
from polyexp.mellin import PoleRegionError
from polyexp.result import DomainError

# the transforms' real node ranges: Hurwitz (z = 1) runs its tail ladder out
# to t ~ 5000, eta (z = -1) its truncated tail to t ~ 40, Lerch to t ~ 90
NODE_RANGES = {
    1.0: (0.0, 1e-9, 0.7, 9.3, 80.0, 640.0, 5000.0),
    -1.0: (0.0, 1e-9, 0.7, 9.3, 25.0, 40.0),
    0.5 + 0.3j: (0.0, 1e-9, 0.7, 9.3, 40.0, 90.0),
}


@functools.lru_cache(maxsize=None)
def _mp_weighted(s, lam, z, t):
    """(e^(-t) e_s(z t, lam), sum of |terms|) in mpmath, summed over a
    window 15 sqrt(m) + 60 wide on each side of n = m = t|z|, at 40 digits
    plus the e^((|z| - Re z) t) the terms cancel by."""
    mp = pytest.importorskip("mpmath")
    m = t * abs(z)
    lo = max(0, int(m - 15.0 * math.sqrt(m) - 60.0))
    hi = int(m + 15.0 * math.sqrt(m) + 60.0)
    with mp.workdps(40 + int((abs(z) - complex(z).real) * t / math.log(10.0))):
        s, lam, z, t = mp.mpc(s), mp.mpc(lam), mp.mpc(z), mp.mpf(t)
        x = z * t
        term = mp.exp(lo * mp.log(x) - t - mp.loggamma(lo + 1)) if lo else mp.exp(-t)
        acc, acc_abs = mp.mpc(0), mp.mpf(0)
        for n in range(lo, hi + 1):
            if n > lo:
                term *= x / n
            v = term * mp.power(n + lam, -s)
            acc += v
            acc_abs += abs(v)
        return complex(acc), float(acc_abs)


@pytest.mark.parametrize("z", list(NODE_RANGES))
@pytest.mark.parametrize("s", [0.5, 3.5, 1 + 2j, -1.5, -3.0])
@pytest.mark.parametrize("lam", [0.3, 1.7])
def test_array_kernel_against_mpmath(z, s, lam):
    t = np.array(NODE_RANGES[z])
    values, errs, _ = exp_weighted_series(s, lam, z, t, 1e-12)
    for ti, value, err in zip(t, values, errs):
        truth, scale = _mp_weighted(s, lam, z, float(ti))
        miss = abs(value - truth)
        assert miss <= err, (ti, miss, err)
        # relative to the node's scale: at z = -1 the terms cancel far below it
        assert miss <= 1e-12 * max(abs(truth), scale), (ti, miss, scale)


@pytest.mark.parametrize("s, lam, z", [(2.5, 0.7, 1.0), (0.5, 1.3, -1.0), (1 + 2j, 0.4, 0.3 - 0.6j), (-2.0, 1.1, -1.0)])
def test_array_equals_scalar_calls(s, lam, z):
    # enough nodes and terms to fill several groups of whole windows, and a
    # node in the middle (t = 2e5) whose window alone is longer than _CHUNK
    t = np.geomspace(1e-6, 4000.0, 120)
    t = np.concatenate([[0.0], t[:60], [2e5], t[60:]])
    values, errs, total = exp_weighted_series(s, lam, z, t, 1e-12)
    assert values.shape == errs.shape == t.shape
    if s != -2.0:
        assert total > 2 * core._CHUNK
        assert exp_weighted_series(s, lam, z, 2e5, 1e-12)[2] > core._CHUNK
    scalar_total = 0
    for ti, value, err in zip(t, values, errs):
        one, one_err, n = exp_weighted_series(s, lam, z, float(ti), 1e-12)
        scalar_total += n
        # each node's window is summed whole, as in its own call: equal bit for bit
        assert value == one and err == one_err, ti
    assert total == scalar_total


def test_scalar_call_keeps_plain_types():
    value, err, n = exp_weighted_series(1.5, 1.0, -1.0, 3.0)
    assert type(value) is complex and type(err) is float and type(n) is int


def test_zero_argument_gives_no_nan():
    # m = t|z| = 0 at t = 0 and at z = 0: the value is lam^-s e^-t
    t = np.array([0.0, 1.0, 700.0])
    for z, nodes in ((0.0, t), (1.0, t[:1]), (0.5 + 0.3j, t[:1])):
        values, errs, _ = exp_weighted_series(0.5, 2.0, z, nodes)
        assert np.all(np.isfinite(errs))
        assert np.allclose(values, 2.0**-0.5 * np.exp(-nodes), rtol=1e-15, atol=0.0)


def test_negative_nodes_refused():
    with pytest.raises(DomainError):
        exp_weighted_series(0.5, 1.0, 1.0, np.array([1.0, -1e-3]))


def test_window_shrinks_with_tol():
    t = np.linspace(0.5, 40.0, 30)
    sizes = [exp_weighted_series(0.5, 1.0, -1.0, t, tol)[2] for tol in (1e-6, 1e-10, 1e-14)]
    assert sizes[0] < sizes[1] < sizes[2]


def test_integer_order_uses_closed_form():
    t = np.array([0.0, 2.0, 30.0])
    values, errs, total = exp_weighted_series(-2.0, 1.5, -1.0, t)
    q2 = exact.q_poly(2).at_lambda(Fraction(3, 2))
    expect = [math.exp(-2.0 * ti) * float(q2(Fraction(-ti))) for ti in t]
    assert np.allclose(values, expect, rtol=1e-14, atol=0.0)
    assert total == 3 * t.size


# -- memo tables ---------------------------------------------------------------------


def test_level_nodes_read_only_and_reused():
    # the product weights of each level m: one read-only table per (m, alpha)
    first = quadrature._product_weights(128, -0.25)
    assert first is quadrature._product_weights(128, -0.25)
    assert all(not a.flags.writeable for a in first[:2])
    before = quadrature._product_weights.cache_info().hits
    quadrature.clenshaw_curtis_quad(np.exp, 0.0, 1.0, 1e-12, alpha=-0.25)
    quadrature.clenshaw_curtis_quad(np.exp, 0.0, 2.0, 1e-12, alpha=-0.25)
    assert quadrature._product_weights.cache_info().hits > before


def test_exact_families_memoized():
    assert exact.q_poly(3) is exact.q_poly(3)
    assert exact.phi_poly(5) is exact.phi_poly(5)
    assert exact.euler_poly(4) is exact.euler_poly(4)


def test_collapsed_q_matches_exact_polynomial():
    coeffs = core._q_coeffs(3, 1.7 + 0.2j)
    assert isinstance(coeffs, tuple) and coeffs is core._q_coeffs(3, 1.7 + 0.2j)
    for y in (0.0, -2.5, 1.0 + 1.0j):
        assert abs(core._horner(coeffs, y) - exact.q_poly(3)(y, 1.7 + 0.2j)) <= 1e-13 * (1 + abs(y)) ** 3


# -- the line-integral oracle reads only the pole abscissas -------------------------


@pytest.mark.parametrize("text, c", [("1/((s-1)^2+1)", 1.0), ("1/(s^2-2)", math.sqrt(2.0)), ("1/((3/2-s)^2*(s+1))", 1.5)])
def test_oracle_refuses_pole_abscissa(text, c):
    with pytest.raises(PoleRegionError):
        mellin.oracle_line_integral(mellin.parse_rational(text), 1.0, c, 16.0)


def test_oracle_needs_no_partial_fractions(monkeypatch):
    def refuse(R):
        raise AssertionError("partial_fractions called")

    expect = mellin.oracle_line_integral(mellin.parse_rational("1/(2-s)"), 1.0, 1.0, 16.0, tol=1e-10)
    monkeypatch.setattr(mellin, "partial_fractions", refuse)
    got = mellin.oracle_line_integral(mellin.parse_rational("1/(2-s)"), 1.0, 1.0, 16.0, tol=1e-10)
    assert got.value == expect.value
