"""Closed-form Nielsen complexity of time-dependent TFD states.

A charged particle in a uniform magnetic field has Landau levels with
spacing set by the cyclotron frequency omega.  The thermofield double
built on that spectrum is Gaussian, so its covariance matrix, the
spectrum of the relative covariance matrix against a reference of
frequency omega_ref, the complexity, its rate, and the Lloyd bound can
all be written in closed form.  This module houses those closed forms
and their asymptotic expansions.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

LN6 = math.log(6.0)

__all__ = [
    "LN6",
    "PhysicalParams",
    "TfdParams",
    "CovarianceMatrix",
    "RelativeSpectrum",
    "LloydResult",
    "alpha_of",
    "partition_function",
    "internal_energy",
    "covariance_g",
    "relative_spectrum",
    "complexity",
    "complexity_rate",
    "high_T_rate_limit",
    "oscillation_amplitude",
    "asymptotic_complexity",
    "asymptotic_amplitude",
    "lloyd_check",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Single source of truth for all evaluations.

    beta may be ``math.inf`` (zero temperature); everything else is
    strictly positive and finite.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 0.1
    omega_ref: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "omega", "omega_ref"):
            v = getattr(self, name)
            if not (v > 0.0 and math.isfinite(v)):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive (inf allowed), got {self.beta}")

    @property
    def zero_temperature(self) -> bool:
        return math.isinf(self.beta)

    @property
    def period(self) -> float:
        """Period of the complexity oscillations, pi/omega."""
        return math.pi / self.omega

    def with_(self, **kw) -> "PhysicalParams":
        return replace(self, **kw)


@dataclass(frozen=True)
class TfdParams:
    """Squeezing parameter of the TFD a-sector, tanh(alpha) = e^{-beta hbar omega/2}."""

    alpha: float
    cosh2a: float
    sinh2a: float


@dataclass(frozen=True)
class CovarianceMatrix:
    """Block-diagonal 8x8 covariance matrix, stored as its 2x2 blocks.

    The b-sector block appears twice in the full matrix.
    """

    block_1p: np.ndarray
    block_1m: np.ndarray
    block_2: np.ndarray
    time: float

    def full(self) -> np.ndarray:
        """Assemble the 8x8 matrix."""
        out = np.zeros((8, 8))
        for i, blk in enumerate((self.block_1p, self.block_1m, self.block_2, self.block_2)):
            out[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = blk
        return out


@dataclass(frozen=True)
class RelativeSpectrum:
    """Eigenvalues e1..e8 of the relative covariance matrix at one instant."""

    a_plus: float
    a_minus: float
    e: tuple
    time: float


@dataclass(frozen=True)
class LloydResult:
    max_rate: float
    bound: float
    satisfied: bool
    argmax_t: float


def _bho(params: PhysicalParams) -> float:
    return params.beta * params.hbar * params.omega


def _squeezing(x: float) -> tuple:
    """2a and sinh 2a at x = beta hbar omega / 2, where tanh a = e^{-x}.

    Written in e^{-x} and expm1(-x), so nothing cancels as x -> 0 and
    nothing overflows as x -> inf; x = inf gives exactly (0, 0).
    """
    q = 2.0 * math.exp(-x)
    return math.log1p(q / -math.expm1(-x)), q / -math.expm1(-2.0 * x)


def alpha_of(params: PhysicalParams) -> TfdParams:
    """Squeezing parameter and its hyperbolic doubles.

    With x = beta hbar omega / 2: sinh 2a = 1/sinh x and cosh 2a = coth x.
    """
    x = 0.5 * _bho(params)
    two_a, sinh2a = _squeezing(x)
    return TfdParams(alpha=0.5 * two_a, cosh2a=1.0 / math.tanh(x), sinh2a=sinh2a)


def partition_function(params: PhysicalParams) -> float:
    """Thermal partition function, 1/(4 sinh(beta hbar omega / 2)).

    At beta = inf the limiting value 0 is returned with a warning.
    """
    if params.zero_temperature:
        warnings.warn("partition function at beta=inf is the limiting value 0", RuntimeWarning)
        return 0.0
    return 0.25 * _squeezing(0.5 * _bho(params))[1]


def internal_energy(params: PhysicalParams) -> float:
    """Internal energy U = (hbar omega / 2) coth(beta hbar omega / 2)."""
    return 0.5 * params.hbar * params.omega / math.tanh(0.5 * _bho(params))


def covariance_g(t: float, params: PhysicalParams) -> CovarianceMatrix:
    """Covariance matrix of the time-evolved TFD state."""
    tfd = alpha_of(params)
    mw = params.mass * params.omega
    c, s = math.cos(params.omega * t), math.sin(params.omega * t)
    blocks = []
    for sign in (+1.0, -1.0):
        diag_x = (tfd.cosh2a + sign * tfd.sinh2a * c) / mw
        diag_p = mw * (tfd.cosh2a - sign * tfd.sinh2a * c)
        off = -sign * tfd.sinh2a * s
        blocks.append(np.array([[diag_x, off], [off, diag_p]]))
    block_2 = np.array([[1.0 / (6.0 * mw), 0.0], [0.0, mw / 6.0]])
    return CovarianceMatrix(block_1p=blocks[0], block_1m=blocks[1], block_2=block_2, time=t)


def _kernel(t: float, params: PhysicalParams) -> tuple:
    """C, s, r_c, r_s, asinh r_c and asinh r_s at time t.

    With u = ln(omega_ref/omega) and the squeezing 2a, the two
    time-dependent eigenvalue pairs of the relative covariance matrix are
    exp(+-theta) with theta = arccosh A = 2 asinh r, where A = 1 + 2 r^2 and

        r_c = hypot(h, s cos(omega t / 2)),  r_s = hypot(h, s sin(omega t / 2)),
        h = sinh((2a - |u|) / 2),  s = sqrt(|sinh u| sinh 2a).

    A >= 1 holds by construction, and only the ratio omega/omega_ref
    enters, through u.
    """
    two_a, sinh2a = _squeezing(0.5 * _bho(params))
    u = math.log(params.omega_ref) - math.log(params.omega)
    h = math.sinh(0.5 * (two_a - abs(u)))
    s = math.sqrt(abs(math.sinh(u))) * math.sqrt(sinh2a)
    phase = 0.5 * params.omega * t
    r_c, r_s = math.hypot(h, s * math.cos(phase)), math.hypot(h, s * math.sin(phase))
    a_c, a_s = math.asinh(r_c), math.asinh(r_s)
    return math.sqrt(LN6 * LN6 + u * u + 2.0 * (a_c * a_c + a_s * a_s)), s, r_c, r_s, a_c, a_s


def relative_spectrum(t: float, params: PhysicalParams) -> RelativeSpectrum:
    """Eigenvalues of the relative covariance matrix G(t) G_R^{-1}.

    Each time-dependent pair is exp(+-theta) with e^theta = (r + sqrt(1 + r^2))^2
    (see ``_kernel``); the small member is the exact reciprocal of the large one.
    A_+ is the pair whose A grows with cos(omega t) when omega < omega_ref.
    """
    _, _, r_c, r_s, _, _ = _kernel(t, params)
    w, wr = params.omega, params.omega_ref
    r_p, r_m = (r_c, r_s) if w <= wr else (r_s, r_c)
    g_p, g_m = r_p + math.hypot(1.0, r_p), r_m + math.hypot(1.0, r_m)
    e2, e4 = g_p * g_p, g_m * g_m
    e5 = wr / (6.0 * w)
    e6 = w / (6.0 * wr)
    return RelativeSpectrum(
        a_plus=1.0 + 2.0 * r_p * r_p,
        a_minus=1.0 + 2.0 * r_m * r_m,
        e=(1.0 / e2, e2, 1.0 / e4, e4, e5, e6, e5, e6),
        time=t,
    )


def complexity(t: float, params: PhysicalParams) -> float:
    """Nielsen complexity, half the Frobenius norm of ln(relative covariance).

    With u = ln(omega_ref/omega), the squeezing 2a (tanh a = e^{-beta hbar omega/2})
    and the time-dependent pairs exp(+-theta_c), exp(+-theta_s) of ``_kernel``,

        C = sqrt(ln^2 6 + u^2 + (theta_c^2 + theta_s^2) / 2),  theta = 2 asinh r.
    """
    return _kernel(t, params)[0]


def complexity_rate(t: float, params: PhysicalParams) -> float:
    """Analytic time derivative of the complexity.

    In the variables of ``complexity``, with f(theta) = theta / sinh theta,

        dC/dt = s^2 omega sin(omega t) (f(theta_s) - f(theta_c)) / (2C).

    The difference is taken in factored form in m = (theta_s + theta_c)/2
    and d = (theta_s - theta_c)/2:

        f(theta_s) - f(theta_c) = 2 (d sinh m cosh d - m cosh m sinh d) / (sinh theta_s sinh theta_c),
        sinh d = -s^2 cos(omega t) / sinh m,

    so nothing cancels at low temperature, and every sinh and cosh of m
    and theta is scaled by e^{-m}, so nothing overflows at high
    temperature.  The rate is exactly 0 at beta = inf and at
    omega = omega_ref, where s = 0.
    """
    c, s, r_c, r_s, a_c, a_s = _kernel(t, params)
    # e^{-theta/2} = 1/(r + sqrt(1 + r^2)); rho and eta are sinh and cosh of theta/2 times it
    g_c, g_s = math.hypot(1.0, r_c), math.hypot(1.0, r_s)
    w_c, w_s = 1.0 / (r_c + g_c), 1.0 / (r_s + g_s)
    rho_c, eta_c, rho_s, eta_s = r_c * w_c, g_c * w_c, r_s * w_s, g_s * w_s
    sinh_theta = rho_c * eta_c * rho_s * eta_s  # e^{-2m} sinh(theta_c) sinh(theta_s) / 4
    if sinh_theta == 0.0:
        # theta = 0 needs h = 0 and s sin(omega t / 2) = 0, so s^2 sin(omega t) = 0 too:
        # f's removable singularity at theta = 0 is met only where the rate vanishes
        return 0.0
    sinh_m = rho_s * eta_c + rho_c * eta_s
    cosh_m = eta_s * eta_c + rho_s * rho_c
    s2 = (s * w_c) * (s * w_s)  # s^2 e^{-m}
    wt = params.omega * t
    z = -s2 * math.cos(wt) / sinh_m  # sinh d
    num = math.asinh(z) * sinh_m * math.hypot(1.0, z) - (a_c + a_s) * cosh_m * z
    rate = s2 * params.omega * math.sin(wt) * num / (4.0 * sinh_theta * c)
    return rate or 0.0  # -0.0 -> 0.0: an exact zero, as where s = 0, prints as 0


def high_T_rate_limit(t: float, omega: float, omega_ref: float) -> float:
    """Infinite-temperature limit of the complexity rate.

    omega tanh^2 u sin(2 omega t) / (2 (1 - tanh^2 u cos^2 omega t)) with
    u = ln(omega_ref/omega), evaluated as omega y v / (1 + y^2) with
    y = sinh u sin(omega t) and v = sinh u cos(omega t), which neither
    cancels nor divides 0 by 0 at large |u|.
    """
    if omega <= 0.0 or omega_ref <= 0.0:
        raise ValueError("frequencies must be positive")
    sinh_u = math.sinh(math.log(omega_ref) - math.log(omega))
    y = sinh_u * math.sin(omega * t)
    g = math.hypot(1.0, y)
    return omega * (y / g) * (sinh_u * math.cos(omega * t) / g)


def oscillation_amplitude(params: PhysicalParams) -> float:
    """Amplitude of the complexity oscillations, C(T/2) - C(0).

    The difference still cancels at low temperature, where the amplitude
    is of order e^{-beta hbar omega} and C is of order 1: against a
    high-precision reference its relative error is about 1e-10 at
    beta hbar omega = 10, 1e-7 at 20 and 1e-3 at 30, and no digit is
    left at 40.
    """
    half = math.pi / (2.0 * params.omega)
    return complexity(half, params) - complexity(0.0, params)


def _warn_regime(condition: bool, regime: str, detail: str) -> None:
    if not condition:
        warnings.warn(f"parameters outside the {regime} regime ({detail})", RuntimeWarning)


def _log_ratio_factor(u: float) -> float:
    """u coth u, with its limit 1 at u = 0."""
    return u / math.tanh(u) if u else 1.0


def asymptotic_complexity(regime: str, t: float, params: PhysicalParams) -> float:
    """Closed-form asymptotic expansions of the complexity.

    Regimes: low_T, high_T, equal_freq_low_T, equal_freq_high_T,
    high_freq, low_freq.  A regime mismatch warns but still evaluates.
    """
    w, wr = params.omega, params.omega_ref
    bho = _bho(params)
    u = math.log(wr) - math.log(w)
    if regime == "low_T":
        _warn_regime(bho > 1.0, regime, "needs beta*hbar*omega >> 1")
        base = math.sqrt(LN6 * LN6 + 2.0 * u * u)
        c, s = math.cos(w * t), math.sin(w * t)
        return base + (2.0 * math.exp(-bho) / base) * (c * c + _log_ratio_factor(u) * s * s)
    if regime == "high_T":
        _warn_regime(bho < 1.0, regime, "needs beta*hbar*omega << 1")
        # ln 4 + (1/2) log1p(y^2) with y = sinh u sin(omega t), as ln 4 + ln hypot(1, y)
        return -math.log(bho) + math.log(4.0 * math.hypot(1.0, math.sinh(u) * math.sin(w * t)))
    if regime == "equal_freq_low_T":
        _warn_regime(bho > 1.0 and w == wr, regime, "needs omega_ref=omega, beta*hbar*omega >> 1")
        return LN6 + 2.0 * math.exp(-bho) / LN6
    if regime == "equal_freq_high_T":
        _warn_regime(bho < 1.0 and w == wr, regime, "needs omega_ref=omega, beta*hbar*omega << 1")
        lead = math.log(4.0 / bho)
        return lead + LN6 * LN6 / (2.0 * lead)
    if regime == "high_freq":
        delta = w / wr
        _warn_regime(delta > 1.0 and bho > 1.0, regime, "needs omega/omega_ref >> 1 at low T")
        ld = math.log(delta)
        return math.sqrt(2.0) * ld + LN6 * LN6 / (2.0 * math.sqrt(2.0) * ld)
    if regime == "low_freq":
        delta = w / wr
        _warn_regime(delta < 1.0 and bho < 1.0, regime, "needs omega/omega_ref << 1 at high T")
        c, s = math.cos(w * t), math.sin(w * t)
        inner = math.sqrt(s * s + 2.0 * delta * delta * (1.0 + c * c))
        return math.log(1.0 / (params.beta * params.hbar * delta * wr)) + math.log(2.0 * inner / delta)
    raise ValueError(f"unknown regime {regime!r}")


def asymptotic_amplitude(regime: str, params: PhysicalParams) -> float:
    """Asymptotic expansions of the oscillation amplitude.

    Regimes: low_T, high_T, high_freq.
    """
    w, wr = params.omega, params.omega_ref
    bho = _bho(params)
    u = math.log(wr) - math.log(w)
    if regime == "low_T":
        _warn_regime(bho > 1.0, regime, "needs beta*hbar*omega >> 1")
        base = math.sqrt(LN6 * LN6 + 2.0 * u * u)
        return (2.0 * math.exp(-bho) / base) * (_log_ratio_factor(u) - 1.0)
    if regime == "high_T":
        _warn_regime(bho < 1.0, regime, "needs beta*hbar*omega << 1")
        return math.log(math.cosh(u)) + u * u / (2.0 * math.log(bho))
    if regime == "high_freq":
        delta = w / wr
        _warn_regime(delta > 1.0, regime, "needs omega/omega_ref >> 1")
        return math.sqrt(2.0) * math.exp(-params.beta * params.hbar * delta * wr) * (1.0 - 1.0 / math.log(delta))
    raise ValueError(f"unknown regime {regime!r}")


def _golden_max(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section maximizer returning the argmax to tolerance tol."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def lloyd_check(params: PhysicalParams, t_samples: int = 257) -> LloydResult:
    """Compare the maximum complexity rate over one period with 2U/(pi hbar).

    The maximum is located on a uniform grid and polished by
    golden-section search around the grid argmax.
    """
    if t_samples < 8:
        raise ValueError("t_samples must be at least 8")
    bound = 2.0 * internal_energy(params) / (math.pi * params.hbar)
    period = params.period

    def abs_rate(t):
        return abs(complexity_rate(t, params))

    ts = np.linspace(0.0, period, t_samples)
    rates = np.array([abs_rate(t) for t in ts])
    i = int(np.argmax(rates))
    lo = ts[max(i - 1, 0)]
    hi = ts[min(i + 1, t_samples - 1)]
    t_star = _golden_max(abs_rate, lo, hi)
    max_rate = abs_rate(t_star)
    if rates[i] > max_rate:
        max_rate, t_star = rates[i], ts[i]
    return LloydResult(max_rate=max_rate, bound=bound, satisfied=max_rate <= bound, argmax_t=t_star)
