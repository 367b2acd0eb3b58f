"""Reference values for the benchmark, computed with mpmath alone.

Nothing here imports polyexp: every value is derived from a textbook
definition or from mpmath's own special functions, so a fault in a
polyexp route cannot hide by being shared with its reference.
"""

from __future__ import annotations

import mpmath as mp

_DPS = 40


def _sum_until_small(term_at, start: int, min_terms: int) -> mp.mpf:
    """sum_{n >= start} term_at(n), stopped after min_terms once terms drop
    below the working precision relative to the running total."""
    total = mp.mpf(0)
    n = start
    tiny = mp.mpf(10) ** (-(mp.mp.dps + 5))
    while True:
        t = term_at(n)
        total += t
        if n >= min_terms and abs(t) <= tiny * max(1, abs(total)):
            return total
        n += 1


def polyexp(s, lam, x) -> complex:
    """e_s(x, lam) = sum_{n>=0} x^n / (n! (n+lam)^s), summed directly.

    Extra digits cover the cancellation of an alternating sum, which
    peaks near e^|x|.
    """
    with mp.workdps(_DPS + int(abs(x))):
        s, lam, x = mp.mpmathify(s), mp.mpmathify(lam), mp.mpmathify(x)
        power = [mp.mpf(1)]

        def term(n):
            if n > 0:
                power.append(power[-1] * x / n)
            return power[n] * mp.power(n + lam, -s)

        return complex(_sum_until_small(term, 0, int(2 * abs(x) + abs(s)) + 10))


def h_series(s, lam, w, x) -> complex:
    """h_s(x, lam, w) = sum_{n>=1} x^n/n! * sum_{j<n} w^j/(lam+j)^s."""
    with mp.workdps(_DPS + int(abs(x))):
        s, lam, w, x = (mp.mpmathify(v) for v in (s, lam, w, x))
        state = {"power": mp.mpf(1), "prefix": mp.mpf(0)}

        def term(n):
            state["prefix"] += mp.power(w, n - 1) * mp.power(lam + n - 1, -s)
            state["power"] *= x / n
            return state["power"] * state["prefix"]

        return complex(_sum_until_small(term, 1, int(2 * abs(x) + abs(s)) + 12))


def riemann_zeta(s) -> complex:
    with mp.workdps(_DPS):
        return complex(mp.zeta(mp.mpmathify(s)))


def hurwitz_zeta(s, lam) -> complex:
    with mp.workdps(_DPS):
        return complex(mp.zeta(mp.mpmathify(s), mp.mpmathify(lam)))


def lerch_phi(x, s, lam) -> complex:
    with mp.workdps(_DPS):
        return complex(mp.lerchphi(mp.mpmathify(x), mp.mpmathify(s), mp.mpmathify(lam)))


def eta(s, lam) -> complex:
    """eta(s, lam) = sum (-1)^n (n+lam)^(-s)
    = 2^(-s) [zeta(s, lam/2) - zeta(s, (lam+1)/2)]; at s = -p this is the
    polynomial E_p(lam)/2."""
    with mp.workdps(_DPS):
        s, lam = mp.mpmathify(s), mp.mpmathify(lam)
        if s.imag == 0 and s.real <= 0 and s.real == int(s.real):
            return complex(mp.eulerpoly(int(-s.real), lam) / 2)
        return complex(mp.power(2, -s) * (mp.zeta(s, lam / 2) - mp.zeta(s, (lam + 1) / 2)))


def mellin_polyexp(s, p, lam) -> complex:
    """int_0^inf x^(s-1) e_p(-x, lam) dx = Gamma(s) / (lam - s)^p."""
    with mp.workdps(_DPS):
        s, lam = mp.mpmathify(s), mp.mpmathify(lam)
        return complex(mp.gamma(s) / mp.power(lam - s, p))


def rational(text: str, s):
    """R(s) from the grammar text, evaluated by Python's own parser.

    The benchmark writes these texts itself, in the common subset of the
    polyexp grammar and Python syntax once '^' reads as '**'.
    """
    code = compile(text.replace("^", "**"), "<rational>", "eval")
    return eval(code, {"__builtins__": {}}, {"s": s})


def mellin_barnes(text: str, x, c, poles) -> complex:
    """(1/2 pi i) int_(c) x^(-s) R(s) Gamma(s) ds by closing the line to the
    left: the Gamma poles give sum_n (-x)^n R(-n)/n!, and every simple pole
    p of R with Re p < c adds Gamma(p) x^(-p) Res_p R, the residue taken
    as lim (s - p) R(s) at a step far below the working precision."""
    with mp.workdps(_DPS):
        x = mp.mpf(x)
        power = [mp.mpf(1)]

        def term(n):
            if n > 0:
                power.append(power[-1] * (-x) / n)
            return power[n] * rational(text, mp.mpf(-n))

        total = _sum_until_small(term, 0, int(2 * x) + 20)
    with mp.workdps(2 * _DPS):
        for p in poles:
            if p >= c:
                continue
            p = mp.mpf(p)
            h = mp.mpf(10) ** (-_DPS)
            residue = h * rational(text, p + h)
            total += mp.gamma(p) * mp.power(x, -p) * residue
    return complex(total)
