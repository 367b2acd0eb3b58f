"""Error estimates of the transforms against mpmath.

Every call on the grid either raises a typed `PolyexpError` or returns a
value within its `abs_err_estimate` of the mpmath truth; a value that
misses its tol never carries an estimate under tol. The grid covers
negative Re s, small lam, complex s and lam, and three tolerances.
`mpmath.zeta` serves only for |s| <= 30: at s = 45+5j it disagrees with
its own direct sum. The Mellin transform of e_p(-x, lam) has its own grid
across the strip 0 < Re s < Re lam, where every call must also meet tol.
"""

import functools

import pytest

from polyexp import transforms
from polyexp.result import PolyexpError

mp = pytest.importorskip("mpmath")

_TOLS = (1e-8, 1e-10, 1e-12)


def _eta_truth(s, lam):
    s, lam = mp.mpc(s), mp.mpc(lam)
    return 2 ** -s * (mp.zeta(s, lam / 2) - mp.zeta(s, (lam + 1) / 2))


def _lerch_truth(x, s, lam):
    """sum x^n (n+lam)^-s, |x| < 1, summed until a term is under 1e-25 of the sum."""
    x, s, lam = mp.mpc(x), mp.mpc(s), mp.mpc(lam)
    total, n = mp.mpc(0), 0
    while n < 50 or abs(term) > 1e-25 * abs(total):
        term = x**n * (n + lam) ** -s
        total += term
        n += 1
    return total


def _gamma_polyexp_truth(s, lam, x):
    """Gamma(s) e_s(x, lam) from its power series."""
    s, lam, x = mp.mpc(s), mp.mpc(lam), mp.mpc(x)
    return mp.gamma(s) * mp.nsum(lambda n: x**n / mp.factorial(n) * (n + lam) ** -s, [0, mp.inf])


@functools.cache
def _cases():
    """(transform, args, truth) over the grid, each truth at 30 digits."""
    return [(name, args, _at_30_digits(truth)) for name, args, truth in _grid()]


def _at_30_digits(truth):
    with mp.workdps(30):
        return complex(truth())


def _grid():
    for s in (-3.5, -1.5 + 2j, -0.5, 0.5, 2.5, 2 + 5j):
        for lam in (0.1, 1.0, 1 + 1j):
            yield "eta", (s, lam), lambda s=s, lam=lam: _eta_truth(s, lam)
    for x in (0.5, -0.9, 0.3 + 0.6j):
        for s in (2.5, -1.5, 1 + 2j):
            for lam in (0.2, 3 + 1j):
                yield "lerch_phi", (x, s, lam), lambda x=x, s=s, lam=lam: _lerch_truth(x, s, lam)
    for s in (1.5, 5 + 3j, 20.0):
        for lam in (0.1, 1.0, 0.5 + 2j):
            yield "hurwitz_zeta", (s, lam), lambda s=s, lam=lam: mp.zeta(s, lam)
    for p in (1, 3, 5):
        for lam in (0.3, 1 + 2j, 4.0):
            yield "vanishing_moment", (p, lam), lambda: 0
    for s in (0.5, 3 + 2j):
        for lam in (0.2, 2 + 1j):
            for x in (-3.0, 2.0, 1j):
                yield "mellin_s_representation", (s, lam, x), lambda s=s, lam=lam, x=x: _gamma_polyexp_truth(s, lam, x)
    for s in (-4.5, -2.5, 0.5 + 14j, 3.5):
        yield "riemann_zeta", (s,), lambda s=s: mp.zeta(s)
    # points past the rule's first call at some tol: a doubling of the
    # Clenshaw-Curtis points or an interval past 4.5 split
    for x, s, lam in ((0.95, 2.5, 0.5), (-0.95, -1.5, 2), (0.9j, 1 + 2j, 0.2), (0.95j, -2.5, 0.3)):
        yield "lerch_phi", (x, s, lam), lambda x=x, s=s, lam=lam: _lerch_truth(x, s, lam)
    for s, lam in ((30, 0.1), (1.1, 2), (2 + 40j, 0.3)):
        yield "hurwitz_zeta", (s, lam), lambda s=s, lam=lam: mp.zeta(s, lam)
    for s, lam in ((1 + 20j, 0.5), (-2.5 + 10j, 2), (6, 0.05), (0.5 + 40j, 0.3), (-3 + 30j, 0.4)):
        yield "eta", (s, lam), lambda s=s, lam=lam: _eta_truth(s, lam)


def _misses(name, args, truth, tol):
    """'' when the call meets its estimate (or raises a typed error), else what went wrong."""
    try:
        res = getattr(transforms, name)(*args, tol=tol)
    except PolyexpError:
        return ""
    err = abs(res.value - truth)
    call = f"{name}{args} at tol {tol:g}"
    if err > res.abs_err_estimate:
        return f"{call}: error {err:.2g} over its estimate {res.abs_err_estimate:.2g}"
    if err > tol * max(1.0, abs(res.value)) and res.abs_err_estimate < tol:
        return f"{call}: error {err:.2g} over tol with an estimate {res.abs_err_estimate:.2g} under it"
    return ""


@pytest.mark.parametrize("tol", _TOLS)
def test_estimates_hold_on_the_grid(tol):
    misses = [m for name, args, truth in _cases() if (m := _misses(name, args, truth, tol))]
    assert not misses, "\n".join(misses)


def test_zeta_on_the_critical_line_meets_its_estimate():
    # the envelope constant read off [split, 4 split] alone bounds the part
    # cut off at T = 45 by 2.8e-11 where that part is 5.2e-11; the integral's
    # own nodes near T raise it, and T climbs
    assert not _misses("riemann_zeta", (0.5 + 30j,), _at_30_digits(lambda: mp.zeta(0.5 + 30j)), 1e-10)


def _mellin_points():
    """(s, p, lam): s across the strip and 0.1 from both of its edges, and
    three points next to the right edge."""
    for p in range(6):
        for lam in (0.3, 1.0, 2.5, 4.0, 2 + 0.5j, 1 + 2j):
            a = complex(lam).real
            for s in (0.1 * a, 0.5 * a, 0.9 * a, 0.1, a - 0.1, 0.5 * lam):
                yield s, p, lam
    yield from ((3.857, 2, 3.984), (4.187, 5, 4.311), (0.660, 4, 0.692))


@functools.cache
def _mellin_cases():
    with mp.workdps(30):
        return [(s, p, lam, complex(mp.gamma(s) / (mp.mpc(lam) - s) ** p)) for s, p, lam in _mellin_points()]


@pytest.mark.parametrize("tol", (1e-9, 1e-12))
def test_mellin_transform_meets_tol_and_its_estimate(tol):
    misses = []
    for s, p, lam, truth in _mellin_cases():
        res = transforms.mellin_transform_polyexp(s, p, lam, tol=tol)
        err = abs(res.value - truth)
        if err > res.abs_err_estimate or err > tol * max(1.0, abs(truth)):
            misses.append(f"({s}, {p}, {lam}): error {err:.2g}, estimate {res.abs_err_estimate:.2g}")
    assert not misses, "\n".join(misses)
