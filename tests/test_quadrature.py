"""Quadrature engine tests against closed-form integrals."""

import math

import numpy as np
import pytest

from polyexp.quadrature import (
    chebyshev_tail_rule,
    clenshaw_curtis,
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
    # one tail path: rate 0 (once the power-law mode) and a complex power are refused
    with pytest.raises(ValueError):
        quad_semiinfinite(f, 0.0, -2.0, 1e-10, 10.0)
    with pytest.raises(ValueError):
        quad_semiinfinite(f, 1.0, 0.5 + 1j, 1e-10, 10.0)


# -- memoized rule tables -----------------------------------------------------------


@pytest.mark.parametrize("m", (2, 3, 4, 5, 7, 8, 16, 31, 32, 64, 100, 127, 128, 255, 256))
def test_clenshaw_curtis_is_last_row_of_tail_rule(m):
    t, weights = clenshaw_curtis(m)
    t_ref, matrix = chebyshev_tail_rule(m)
    assert np.array_equal(t, t_ref)
    assert np.max(np.abs(weights - matrix[-1])) <= 1e-15


def test_clenshaw_curtis_large_m_integrates_polynomials():
    # m + 1 points integrate every x^k with k <= m + 1 (m even) exactly
    t, weights = clenshaw_curtis(4096)
    for k in (0, 1, 2, 10, 101, 1000, 4096, 4097):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.dot(weights, t**k) - exact) <= 1e-15, k


@pytest.mark.parametrize("m", (64, 512, 4096))
def test_clenshaw_curtis_points_nest(m):
    # doubling m keeps every point, so a refinement reuses its values
    assert np.array_equal(clenshaw_curtis(m)[0], clenshaw_curtis(2 * m)[0][::2])


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
    tables = (*clenshaw_curtis(64), *chebyshev_tail_rule(32))
    for array in tables:
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert clenshaw_curtis(64)[1] is tables[1]
    assert chebyshev_tail_rule(32)[1] is tables[3]
