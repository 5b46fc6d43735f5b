"""High-precision mpmath reference for the complexity and its rate.

Written from the definitions, independently of ``landau_tfd``.  At
inverse temperature beta the a-sector covariance blocks of the TFD state
are

    G_1+- = [[(cosh 2a +- sinh 2a cos wt) / (m w),  -+ sinh 2a sin wt],
             [-+ sinh 2a sin wt,  m w (cosh 2a -+ sinh 2a cos wt)]],

with cosh 2a = coth(beta hbar w / 2) and sinh 2a = 1 / sinh(beta hbar w / 2);
the b-sector block, twice, is diag(1/(6 m w), m w / 6).  The reference
state is the ground state of frequency w_R, G_R = diag(1/(m w_R), m w_R).
Every 2x2 block of Delta = G G_R^{-1} has determinant 1, so its
eigenvalues are exp(+-theta) with cosh theta = A = tr/2, and

    C = (1/2) ||ln Delta||_F,   dC/dt = sum over the pairs of theta theta' / (2C),

with theta' = A' / sinh theta.  Inputs are taken as the exact values of
the floats given, with hbar = m = 1.  The working precision grows with
the digits the direct formulas cancel: about 2|ln(w_R/w)| / ln 10 in A at
high temperature, and beta w / (2 ln 10) more in the rate at low
temperature, whose time dependence is of order exp(-beta w / 2).
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

DIGITS = 40


def _dps(omega: float, omega_ref: float, extra: float = 0.0) -> int:
    return DIGITS + int((2.0 * abs(math.log(omega_ref / omega)) + extra) / math.log(10.0))


def _pairs(t, omega, omega_ref, beta):
    """(A, dA/dt) for the two time-dependent blocks of Delta."""
    w, wr, t = mpf(omega), mpf(omega_ref), mpf(t)
    if math.isinf(beta):
        cosh2a, sinh2a = mpf(1), mpf(0)
    else:
        x = mpf(beta) * w / 2
        cosh2a, sinh2a = mp.coth(x), 1 / mp.sinh(x)
    c, s = mp.cos(w * t), mp.sin(w * t)
    out = []
    for sign in (1, -1):
        # tr(G G_R^{-1}) / 2 with G_R^{-1} = diag(w_R, 1/w_R)
        a = ((cosh2a + sign * sinh2a * c) * wr / w + (cosh2a - sign * sinh2a * c) * w / wr) / 2
        da = (-sign * sinh2a * s * wr + sign * sinh2a * s * w * w / wr) / 2
        out.append((a, da))
    return out


def _complexity(pairs, omega, omega_ref):
    w, wr = mpf(omega), mpf(omega_ref)
    logs = [sign * mp.acosh(a) for a, _ in pairs for sign in (1, -1)]
    logs += [mp.log(wr / (6 * w)), mp.log(w / (6 * wr))] * 2
    return mp.sqrt(mp.fsum(v * v for v in logs)) / 2


def a_values(t: float, omega: float, beta: float, omega_ref: float = 1.0) -> list:
    """[A_+, A_-] as mpfs; A_+ is the block whose A grows with cos(omega t) when omega < omega_ref."""
    with mp.workdps(_dps(omega, omega_ref)):
        return [+a for a, _ in _pairs(t, omega, omega_ref, beta)]


def complexity(t: float, omega: float, beta: float, omega_ref: float = 1.0):
    """C(t) as an mpf, at inverse temperature beta (inf allowed)."""
    with mp.workdps(_dps(omega, omega_ref)):
        return +_complexity(_pairs(t, omega, omega_ref, beta), omega, omega_ref)


def complexity_rate(t: float, omega: float, beta: float, omega_ref: float = 1.0):
    """dC/dt as an mpf; exactly 0 at beta = inf and at omega = omega_ref."""
    extra = 0.0 if math.isinf(beta) else beta * omega / 2.0
    with mp.workdps(_dps(omega, omega_ref, extra)):
        pairs = _pairs(t, omega, omega_ref, beta)
        if all(da == 0 for _, da in pairs):
            return mpf(0)
        num = mp.fsum(mp.acosh(a) * da / mp.sqrt(a * a - 1) for a, da in pairs)
        return num / (2 * _complexity(pairs, omega, omega_ref))


def amplitude(omega: float, beta: float, omega_ref: float = 1.0):
    """C(T/2) - C(0) as an mpf, with T/2 = pi / (2 omega) exactly.

    At low temperature the difference is of order exp(-beta omega) and C
    of order 1, so the working precision grows by beta omega / ln 10 digits.
    """
    extra = 0.0 if math.isinf(beta) else beta * omega
    with mp.workdps(_dps(omega, omega_ref, extra)):
        half = mp.pi / (2 * mpf(omega))
        c_half = _complexity(_pairs(half, omega, omega_ref, beta), omega, omega_ref)
        return c_half - _complexity(_pairs(0, omega, omega_ref, beta), omega, omega_ref)


def relative_error(got: float, want) -> float:
    """|got - want| / |want| as a float; 0 when both are 0."""
    with mp.workdps(DIGITS):
        if want == 0:
            return 0.0 if got == 0.0 else math.inf
        return float(abs(mpf(got) - want) / abs(want))
