"""50-digit mpmath reference for the closed-form TFD complexity.

Written from the definitions, not from ``landau_tfd``: the relative
covariance matrix Delta = G G_R^{-1} has the eigenvalues
exp(+-arccosh A_+), exp(+-arccosh A_-) and, twice each,
omega_ref/(6 omega) and omega/(6 omega_ref), with

    A_+- = (S cosh 2a +- D sinh 2a cos(omega t)) / (2 omega_ref omega),
    S = omega_ref^2 + omega^2,  D = omega_ref^2 - omega^2,
    cosh 2a = coth(beta hbar omega / 2),  sinh 2a = 1 / sinh(beta hbar omega / 2),

and the complexity is C = (1/2) ||log Delta||_F.  The rate is mp.diff of
C; the beta -> 0 rate is the t-derivative of the divergent part,
(1/2) d/dt ln[(S + D cos omega t)(S - D cos omega t)].  Every input is
taken as the exact value of the float the program was given, with
hbar = 1.
"""

from __future__ import annotations

import math

from mpmath import mp, mpf

DPS = 50


def _a_pm(t, omega, omega_ref, beta):
    w, wr = mpf(omega), mpf(omega_ref)
    if math.isinf(beta):
        cosh2a, sinh2a = mpf(1), mpf(0)
    else:
        x = mpf(beta) * w / 2
        cosh2a, sinh2a = mp.coth(x), 1 / mp.sinh(x)
    s, d = wr * wr + w * w, wr * wr - w * w
    c = mp.cos(w * t)
    return (s * cosh2a + d * sinh2a * c) / (2 * wr * w), (s * cosh2a - d * sinh2a * c) / (2 * wr * w)


def _complexity(t, omega, omega_ref, beta):
    a_p, a_m = _a_pm(t, omega, omega_ref, beta)
    w, wr = mpf(omega), mpf(omega_ref)
    spectrum = [mp.exp(s * mp.acosh(a)) for a in (a_p, a_m) for s in (-1, 1)]
    spectrum += [wr / (6 * w), w / (6 * wr)] * 2
    return mp.sqrt(mp.fsum(mp.log(e) ** 2 for e in spectrum)) / 2


def complexity(t: float, omega: float, beta: float, omega_ref: float = 1.0):
    """C(t) at inverse temperature beta (inf allowed, beta > 0)."""
    with mp.workdps(DPS):
        return +_complexity(mpf(t), omega, omega_ref, beta)


def complexity_rate(t: float, omega: float, beta: float, omega_ref: float = 1.0):
    """dC/dt by mpmath's numerical differentiation.

    The time dependence of C is of order exp(-beta hbar omega), so the
    working precision grows by that many digits beyond the 50 kept.
    """
    extra = 0 if math.isinf(beta) else int(beta * omega / math.log(10.0))
    with mp.workdps(DPS + extra + 10):
        rate = mp.diff(lambda s: _complexity(s, omega, omega_ref, beta), mpf(t))
    with mp.workdps(DPS):
        return +rate


def high_temperature_rate(t: float, omega: float, omega_ref: float = 1.0):
    """The beta -> 0 limit of dC/dt."""
    with mp.workdps(DPS):
        w, wr = mpf(omega), mpf(omega_ref)
        s, d = wr * wr + w * w, wr * wr - w * w
        return mp.diff(lambda u: mp.log((s + d * mp.cos(w * u)) * (s - d * mp.cos(w * u))) / 2, mpf(t))


def relative_error(got: float, want) -> float:
    """|got - want| / |want| as a float, with want an mpf."""
    with mp.workdps(DPS):
        if want == 0:
            return 0.0 if got == 0.0 else math.inf
        return float(abs(mpf(got) - want) / abs(want))


def self_check(library) -> dict:
    """Compare the reference with the library at two temperatures.

    At beta*hbar*omega = 1 the two must agree to at least 13 digits; at
    1e-12 the library's loss of precision is measured and returned, not
    judged.  ``library`` is the imported ``landau_tfd`` package.
    """
    omega = 0.37
    out = {}
    for bho in (1.0, 1e-12):
        params = library.PhysicalParams(omega=omega, beta=bho / omega)
        worst = 0.0
        for t in (0.0, 0.3, 1.1, 2.9, 4.6):
            worst = max(worst, relative_error(library.complexity(t, params), complexity(t, omega, params.beta)))
        out[bho] = worst
    return {
        "digits_at_bho_1": -math.log10(max(out[1.0], 1e-17)),
        "rel_error_at_bho_1e-12": out[1e-12],
        "ok": out[1.0] <= 1e-13,
    }
