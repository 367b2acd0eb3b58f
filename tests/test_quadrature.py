"""Quadrature engine tests against closed-form integrals."""

import math

import numpy as np
import pytest

from polyexp.quadrature import (
    chebyshev_tail_rule,
    gauss_legendre,
    quad_semiinfinite,
    tanh_sinh,
)


def test_finite_smooth():
    val, err, n, ok = tanh_sinh(np.exp, 0.0, 1.0, 1e-12)
    assert ok and abs(val - (math.e - 1)) < 1e-12


def test_finite_endpoint_singularity():
    val, _, _, ok = tanh_sinh(lambda t: t**-0.5, 0.0, 1.0, 1e-12)
    assert ok and abs(val - 2.0) < 1e-11


def test_finite_log_singularity():
    val, _, _, ok = tanh_sinh(np.log, 0.0, 1.0, 1e-12)
    assert ok and abs(val + 1.0) < 1e-11


def test_finite_strong_zero_singularity():
    # t^(alpha-1) with alpha = 0.1; node offsets from 0 are exact, so the
    # rule digs far into the singular corner
    val, _, _, ok = tanh_sinh(lambda t: t**-0.9, 0.0, 1.0, 1e-12)
    assert ok and abs(val - 10.0) < 1e-9


def test_finite_complex_integrand():
    val, _, _, ok = tanh_sinh(lambda t: np.exp(1j * t), 0.0, math.pi, 1e-12)
    assert ok and abs(val - complex(0.0, 2.0)) < 1e-11


def test_finite_calls_f_once_per_level():
    calls = []

    def f(t):
        calls.append(t)
        return np.abs(t - 0.3) ** 0.5

    # the kink inside keeps levels 3..6 short of the target: one call each
    _, _, n, ok = tanh_sinh(f, 0.0, 1.0, 1e-14, max_level=6)
    assert not ok
    assert len(calls) == 4
    assert all(isinstance(t, np.ndarray) and t.dtype == np.float64 for t in calls)
    assert sum(t.size for t in calls) == n


def test_semiinfinite_exponential():
    res = quad_semiinfinite(lambda t: np.exp(-t), 1.0, 0.0, 1e-11, 10.0)
    assert abs(res.value - 1.0) < 1e-10
    assert res.abs_err_estimate < 1e-8


def test_semiinfinite_t_exp():
    res = quad_semiinfinite(lambda t: t * np.exp(-2 * t), 2.0, 1.0, 1e-11, 10.0)
    assert abs(res.value - 0.25) < 1e-10


def test_semiinfinite_sqrt_singularity():
    res = quad_semiinfinite(lambda t: t**-0.5 * np.exp(-t), 1.0, -0.5, 1e-11, 10.0)
    assert abs(res.value - math.sqrt(math.pi)) < 1e-10


def test_semiinfinite_power_law():
    # integral of (1+t)^-2 over (0, inf) = 1
    res = quad_semiinfinite(lambda t: (1.0 + t) ** -2.0, 0.0, -2.0, 1e-10, 10.0)
    assert abs(res.value - 1.0) < 1e-9
    assert "extrapolation" in res.method


def test_semiinfinite_power_law_noninteger():
    # integral of (1+t)^-3.5 = 1/2.5
    res = quad_semiinfinite(lambda t: (1.0 + t) ** -3.5, 0.0, -3.5, 1e-10, 10.0)
    assert abs(res.value - 0.4) < 1e-9


def test_handle_validation():
    f = lambda t: np.exp(-t)
    with pytest.raises(ValueError):
        quad_semiinfinite(np.exp, 0.0, 0.0, 1e-10, 10.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(f, 1.0, 0.0, -1.0, 10.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(f, 1.0, 0.0, 1e-10, 0.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(f, -1.0, 0.0, 1e-10, 10.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(lambda t: t**-1.5, 0.0, -1.0 + 2j, 1e-10, 10.0)


# -- memoized rule tables -----------------------------------------------------------


@pytest.mark.parametrize("n", (1, 2, 3, 4, 5, 7, 8, 16, 31, 32, 64, 100, 127, 128, 255, 256))
def test_gauss_legendre_matches_leggauss(n):
    nodes, weights = gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    assert np.max(np.abs(nodes - ref_nodes)) <= 1e-14
    assert np.max(np.abs(weights - ref_weights)) <= 1e-14


def test_gauss_legendre_end_weights_against_mpmath():
    # at n = 246 leggauss's end weights are off by 2e-14 (1.6e-10 relative);
    # the Newton-built table stays at rounding level there
    mp = pytest.importorskip("mpmath")
    n = 246
    nodes, weights = gauss_legendre(n)
    with mp.workdps(40):
        for j in list(range(6)) + [n // 2]:
            t = mp.mpf(float(nodes[j]))
            for _ in range(4):
                prev, cur = mp.mpf(1), t
                for k in range(2, n + 1):
                    prev, cur = cur, ((2 * k - 1) * t * cur - (k - 1) * prev) / k
                t -= cur * (1 - t * t) / (n * (prev - t * cur))
            prev, cur = mp.mpf(1), t
            for k in range(2, n + 1):
                prev, cur = cur, ((2 * k - 1) * t * cur - (k - 1) * prev) / k
            w = 2 * (1 - t * t) / (n * prev) ** 2
            assert abs(nodes[j] - float(t)) <= 2e-16
            assert abs(weights[j] - float(w)) <= 1e-15


def test_gauss_legendre_large_n_integrates_polynomials():
    nodes, weights = gauss_legendre(2048)
    assert abs(weights.sum() - 2.0) < 1e-13
    assert abs(np.dot(weights, nodes**10) - 2.0 / 11.0) < 1e-13


def test_chebyshev_tail_rule_integrates_polynomials():
    m = 16
    t, matrix = chebyshev_tail_rule(m)
    assert t[0] == 1.0 and t[-1] == -1.0
    for k in (0, 1, 5, m):
        exact = (1.0 - t ** (k + 1)) / (k + 1)
        assert np.max(np.abs(matrix @ t**k - exact)) < 1e-14
    # the last row is the Clenshaw-Curtis rule: positive weights summing to 2
    assert np.all(matrix[-1, :] > 0.0) and abs(matrix[-1, :].sum() - 2.0) < 1e-14


def test_rule_tables_are_read_only_and_memoized():
    tables = (*gauss_legendre(64), *chebyshev_tail_rule(32))
    for array in tables:
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert gauss_legendre(64)[0] is tables[0]
    assert chebyshev_tail_rule(32)[1] is tables[3]
