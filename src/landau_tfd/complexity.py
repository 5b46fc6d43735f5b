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
_TINY = np.finfo(float).tiny
_MIN_OMEGA = 2.0 * math.pi / np.finfo(float).max
# lloyd_check searches s = ln(omega t) from the smallest positive double to pi/2, half a period
_LN_MIN_WT, _LN_HALF_PI = math.log(math.ulp(0.0)), math.log(0.5 * math.pi)
# width in s, the relative width in t, below which the golden-section search stops
_GOLDEN_TOL = 1e-10

__all__ = [
    "LN6",
    "PhysicalParams",
    "alpha_of",
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


def _require(ok, rule: str, value) -> None:
    """Raise ValueError with the rule and the value at the first point where ok fails."""
    ok, value = np.broadcast_arrays(ok, value)
    if not ok.all():
        raise ValueError(f"{rule}, got {value[~ok][0]}")


@dataclass(frozen=True)
class PhysicalParams:
    """Single source of truth for all evaluations.

    beta may be ``math.inf`` (zero temperature); everything else is
    strictly positive and finite.  beta*hbar*omega is at least the
    smallest normal double, 2 pi/omega is finite, and omega/omega_ref
    lies within e^{+-700} (about 1e+-304), where sinh(ln(omega_ref/omega))
    is finite.
    beta and omega may be arrays: the closed forms broadcast them against
    each other and against t.
    """

    hbar: float = 1.0
    mass: float = 1.0
    omega: float = 0.1
    omega_ref: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "omega", "omega_ref"):
            v = getattr(self, name)
            _require(np.isfinite(v) & (v > 0.0), f"{name} must be positive and finite", v)
        _require(self.beta > 0.0, "beta must be positive (inf allowed)", self.beta)
        # below the smallest normal double, 2 alpha = log1p(2 e^{-x} / -expm1(-x)) overflows;
        # an overflow to inf is the valid zero-temperature limit
        with np.errstate(over="ignore"):
            bho = self.beta * self.hbar * self.omega
        _require(bho >= _TINY, f"beta*hbar*omega must be at least {_TINY:.17g}", bho)
        # the default time series spans two periods, 2 pi/omega
        _require(self.omega > _MIN_OMEGA, f"omega must exceed {_MIN_OMEGA:.17g}, where 2 pi/omega is finite", self.omega)
        u = np.log(self.omega_ref) - np.log(self.omega)
        _require(np.abs(u) <= 700.0, "ln(omega_ref/omega) must lie within [-700, 700]", u)

    @property
    def period(self) -> float:
        """Period of the complexity oscillations, pi/omega."""
        return math.pi / self.omega

    def with_(self, **kw) -> "PhysicalParams":
        return replace(self, **kw)


def _bho(params: PhysicalParams) -> float:
    # an overflow to inf is the valid zero-temperature limit
    with np.errstate(over="ignore"):
        return params.beta * params.hbar * params.omega


def _squeezing(x: float) -> tuple:
    """2a and sinh 2a at x = beta hbar omega / 2, where tanh a = e^{-x}.

    Written in e^{-x} and expm1(-x), so nothing cancels as x -> 0 and
    nothing overflows as x -> inf; x = inf gives exactly (0, 0).
    """
    q = 2.0 * np.exp(-x)
    return np.log1p(q / -np.expm1(-x)), q / -np.expm1(-2.0 * x)


def alpha_of(params: PhysicalParams) -> tuple:
    """Squeezing parameter alpha and its hyperbolic doubles, (alpha, cosh 2a, sinh 2a).

    With x = beta hbar omega / 2: tanh a = e^{-x}, sinh 2a = 1/sinh x and
    cosh 2a = coth x.  beta and omega in params may be arrays.
    """
    x = 0.5 * _bho(params)
    two_a, sinh2a = _squeezing(x)
    return 0.5 * two_a, 1.0 / np.tanh(x), sinh2a


def internal_energy(params: PhysicalParams):
    """Internal energy U = (hbar omega / 2) coth(beta hbar omega / 2)."""
    return 0.5 * params.hbar * params.omega / np.tanh(0.5 * _bho(params))


def _block(xx, xp, pp):
    """The 2x2 blocks [[xx, xp], [xp, pp]] on the last two axes of the broadcast entries."""
    xx, xp, pp = np.broadcast_arrays(xx, xp, pp)
    return np.stack([np.stack([xx, xp], -1), np.stack([xp, pp], -1)], -2)


def covariance_g(t, params: PhysicalParams) -> tuple:
    """Covariance matrix of the time-evolved TFD state as its blocks (g_1p, g_1m, g_2).

    The 8x8 matrix is block-diagonal in (x, p) pairs: the two a-sector
    blocks of the +- quadratures, and the b-sector block, which appears
    twice.  t, beta and omega broadcast; each block has shape (..., 2, 2)
    over their broadcast shape.
    """
    _, cosh2a, sinh2a = alpha_of(params)
    mw = params.mass * params.omega
    wt = params.omega * t
    c, s = sinh2a * np.cos(wt), sinh2a * np.sin(wt)
    g_1p = _block((cosh2a + c) / mw, -s, mw * (cosh2a - c))
    g_1m = _block((cosh2a - c) / mw, s, mw * (cosh2a + c))
    return g_1p, g_1m, _block(1.0 / (6.0 * mw), np.zeros_like(c), mw / 6.0)


def _uhs(params: PhysicalParams) -> tuple:
    """u = ln(omega_ref/omega), h = sinh((2a - |u|) / 2) and s = sqrt(|sinh u| sinh 2a)."""
    two_a, sinh2a = _squeezing(0.5 * _bho(params))
    u = np.log(params.omega_ref) - np.log(params.omega)
    return u, np.sinh(0.5 * (two_a - np.abs(u))), np.sqrt(np.abs(np.sinh(u))) * np.sqrt(sinh2a)


def _norm(u, a_c, a_s):
    """C = sqrt(ln^2 6 + u^2 + 2 (a_c^2 + a_s^2)) with a = asinh r = theta / 2."""
    return np.sqrt(LN6 * LN6 + u * u + 2.0 * (a_c * a_c + a_s * a_s))


def _kernel(t, params: PhysicalParams) -> tuple:
    """C, s, r_c, r_s, asinh r_c and asinh r_s at time t.

    With u = ln(omega_ref/omega) and the squeezing 2a, the two
    time-dependent eigenvalue pairs of the relative covariance matrix are
    exp(+-theta) with theta = arccosh A = 2 asinh r, where A = 1 + 2 r^2 and

        r_c = hypot(h, s cos(omega t / 2)),  r_s = hypot(h, s sin(omega t / 2)),
        h = sinh((2a - |u|) / 2),  s = sqrt(|sinh u| sinh 2a).

    A >= 1 holds by construction, and only the ratio omega/omega_ref
    enters, through u.  t, beta and omega broadcast against each other.
    """
    u, h, s = _uhs(params)
    phase = 0.5 * params.omega * t
    r_c, r_s = np.hypot(h, s * np.cos(phase)), np.hypot(h, s * np.sin(phase))
    a_c, a_s = np.arcsinh(r_c), np.arcsinh(r_s)
    return _norm(u, a_c, a_s), s, r_c, r_s, a_c, a_s


def relative_spectrum(t, params: PhysicalParams) -> tuple:
    """Spectrum of the relative covariance matrix G(t) G_R^{-1} as (a, e).

    a holds (A_+, A_-) on a last axis of 2 and e the eigenvalues e1..e8 on
    a last axis of 8.  Each time-dependent pair is exp(+-theta) with
    e^theta = (r + sqrt(1 + r^2))^2 (see ``_kernel``); the small member is
    the exact reciprocal of the large one.  A_+ is the pair whose A grows
    with cos(omega t) when omega < omega_ref.  t, beta and omega broadcast.
    """
    _, _, r_c, r_s, _, _ = _kernel(t, params)
    w, wr = params.omega, params.omega_ref
    r = np.stack(np.where(w <= wr, (r_c, r_s), (r_s, r_c)), -1)
    g = r + np.hypot(1.0, r)
    e_big = g * g
    e5, e6 = np.broadcast_to(wr / (6.0 * w), r.shape[:-1]), np.broadcast_to(w / (6.0 * wr), r.shape[:-1])
    e = np.stack([1.0 / e_big[..., 0], e_big[..., 0], 1.0 / e_big[..., 1], e_big[..., 1], e5, e6, e5, e6], -1)
    return 1.0 + 2.0 * r * r, e


def complexity(t, params: PhysicalParams):
    """Nielsen complexity, half the Frobenius norm of ln(relative covariance).

    With u = ln(omega_ref/omega), the squeezing 2a (tanh a = e^{-beta hbar omega/2})
    and the time-dependent pairs exp(+-theta_c), exp(+-theta_s) of ``_kernel``,

        C = sqrt(ln^2 6 + u^2 + (theta_c^2 + theta_s^2) / 2),  theta = 2 asinh r.

    t may be an array, and beta and omega in params may be arrays; they broadcast.
    """
    return _kernel(t, params)[0]


def complexity_rate(t, params: PhysicalParams):
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
    omega = omega_ref, where s = 0.  Broadcasts like ``complexity``.
    """
    return _rate(_kernel(t, params), t, params)


def _rate(kernel: tuple, t, params: PhysicalParams):
    """complexity_rate(t, params) from kernel = _kernel(t, params), whose C is complexity(t, params)."""
    c, s, r_c, r_s, a_c, a_s = kernel
    # e^{-theta/2} = 1/(r + sqrt(1 + r^2)); rho and eta are sinh and cosh of theta/2 times it
    g_c, g_s = np.hypot(1.0, r_c), np.hypot(1.0, r_s)
    w_c, w_s = 1.0 / (r_c + g_c), 1.0 / (r_s + g_s)
    rho_c, eta_c, rho_s, eta_s = r_c * w_c, g_c * w_c, r_s * w_s, g_s * w_s
    sinh_theta = rho_c * eta_c * rho_s * eta_s  # e^{-2m} sinh(theta_c) sinh(theta_s) / 4
    sinh_m = rho_s * eta_c + rho_c * eta_s
    cosh_m = eta_s * eta_c + rho_s * rho_c
    s2 = (s * w_c) * (s * w_s)  # s^2 e^{-m}
    wt = params.omega * t
    with np.errstate(divide="ignore", invalid="ignore"):
        z = -s2 * np.cos(wt) / sinh_m  # sinh d
        num = np.arcsinh(z) * sinh_m * np.hypot(1.0, z) - (a_c + a_s) * cosh_m * z
        rate = s2 * params.omega * np.sin(wt) * num / (4.0 * sinh_theta * c)
    # theta = 0 needs h = 0 and s sin(omega t / 2) = 0, so s^2 sin(omega t) = 0 too:
    # f's removable singularity at theta = 0 is met only where the rate vanishes.
    # Adding 0.0 turns -0.0 into 0.0, so an exact zero, as where s = 0, prints as 0.
    return np.where(sinh_theta == 0.0, 0.0, rate) + 0.0


def high_T_rate_limit(t, params: PhysicalParams):
    """Infinite-temperature limit of the complexity rate; beta in params plays no part.

    omega tanh^2 u sin(2 omega t) / (2 (1 - tanh^2 u cos^2 omega t)) with
    u = ln(omega_ref/omega), evaluated as omega y v / (1 + y^2) with
    y = sinh u sin(omega t) and v = sinh u cos(omega t), which neither
    cancels nor divides 0 by 0 at large |u|.  t and omega broadcast.
    """
    omega = params.omega
    sinh_u = np.sinh(np.log(params.omega_ref) - np.log(omega))
    y = sinh_u * np.sin(omega * t)
    g = np.hypot(1.0, y)
    return omega * (y / g) * (sinh_u * np.cos(omega * t) / g)


def oscillation_amplitude(params: PhysicalParams):
    """Amplitude of the complexity oscillations, C(T/2) - C(0).

    In the variables of ``_kernel``, at t = T/2 both pairs have
    r_1^2 = h^2 + s^2/2, and at t = 0 they have r_c0^2 = h^2 + s^2 and
    r_s0^2 = h^2.  With a = asinh r and g = sqrt(1 + r^2), the steps
    from t = 0 to T/2 are

        D_c = a_1 - a_c0 = -asinh w_c,  D_s = a_1 - a_s0 = asinh w_s,
        w = (s^2/2) / X,  X_c = r_1 g_c0 + r_c0 g_1,  X_s = r_1 g_s0 + r_s0 g_1,

    and C(T/2)^2 - C(0)^2 = 2 (2 a_1 (D_c + D_s) - D_c^2 - D_s^2).  At low
    temperature D_c and D_s are of first order in s^2 and their sum of
    second order, so the sum is taken in factored form,

        D_c + D_s = asinh((w_s - w_c)(w_s + w_c) / (w_s sqrt(1 + w_c^2) + w_c sqrt(1 + w_s^2))),
        w_s - w_c = (s^2/2) (X_c - X_s) / (X_c X_s),
        X_c - X_s = s^2 (r_1 / (g_c0 + g_s0) + g_1 / (r_c0 + r_s0)),

    and nothing cancels.  Every r, g and s is divided by g_1 >= r_1, so
    nothing overflows at high temperature.  The amplitude is exactly 0
    where s^2 = 0 (beta = inf or omega = omega_ref), where C does not
    depend on t.  beta and omega in params may be arrays.
    """
    u, h, s = _uhs(params)
    r_1, r_c0, r_s0 = np.hypot(h, s * math.sqrt(0.5)), np.hypot(h, s), np.abs(h)
    a_1, a_c0, a_s0 = np.arcsinh(r_1), np.arcsinh(r_c0), np.arcsinh(r_s0)
    g_1 = np.hypot(1.0, r_1)
    # from here on s, r and g are divided by g_1
    s, r_1, r_c0, r_s0 = s / g_1, r_1 / g_1, r_c0 / g_1, r_s0 / g_1
    g_c0, g_s0 = np.hypot(1.0 / g_1, r_c0), np.hypot(1.0 / g_1, r_s0)
    half_s2 = 0.5 * s * s
    x_c, x_s = r_1 * g_c0 + r_c0, r_1 * g_s0 + r_s0
    with np.errstate(divide="ignore", invalid="ignore"):
        w_c, w_s = half_s2 / x_c, half_s2 / x_s
        dw = half_s2 * (s * s) * (r_1 / (g_c0 + g_s0) + 1.0 / (r_c0 + r_s0)) / (x_c * x_s)
        d_sum = np.arcsinh(dw * ((w_s + w_c) / (w_s * np.hypot(1.0, w_c) + w_c * np.hypot(1.0, w_s))))
    d_c, d_s = -np.arcsinh(w_c), np.arcsinh(w_s)
    amp = 2.0 * (2.0 * a_1 * d_sum - d_c * d_c - d_s * d_s) / (_norm(u, a_1, a_1) + _norm(u, a_c0, a_s0))
    return np.where(half_s2 > 0.0, amp, 0.0)[()]


def _log_ratio_factor(u):
    """u coth u, with its limit 1 at u = 0."""
    with np.errstate(invalid="ignore"):
        return np.where(u == 0.0, 1.0, u / np.tanh(u))


def _regime(regime: str, params: PhysicalParams) -> tuple:
    """beta hbar omega and u = ln(omega_ref/omega); warns where a point lies outside the regime."""
    bho = _bho(params)
    u = np.log(params.omega_ref) - np.log(params.omega)
    if regime == "low_T":
        inside, domain = bho > 1.0, "needs beta*hbar*omega >> 1; error O(e^{-2 beta hbar omega})"
    elif regime == "high_T":
        with np.errstate(over="ignore"):
            inside = bho * np.exp(np.abs(u)) < 1.0
        domain = "needs beta*hbar*omega*e^{|u|} << 1; error O(1/L^2), L = ln(4/(beta*hbar*omega))"
    else:
        raise ValueError(f"unknown regime {regime!r}")
    if not np.all(inside):
        warnings.warn(f"parameters outside the {regime} regime ({domain})", RuntimeWarning)
    return bho, u


def asymptotic_complexity(regime: str, t, params: PhysicalParams):
    """Asymptotic expansions of the complexity in temperature, with u = ln(omega_ref/omega).

    low_T, for beta hbar omega >> 1 at any u, with error O(e^{-2 beta hbar omega}):

        C ~ c_0 + (2 e^{-beta hbar omega} / c_0) (cos^2 omega t + u coth u sin^2 omega t),
        c_0 = sqrt(ln^2 6 + 2 u^2),

    whose leading term is exact at beta = inf.  high_T, for
    beta hbar omega e^{|u|} << 1, with error O(1/L^2) and L = ln(4 / beta hbar omega):

        C ~ L + ln(1 + y^2) / 2 + (ln^2 6 + u^2 + q^2) / (2L),  y = sinh u sin omega t,
        q = ln((cos^2 phi + e^{-2|u|} sin^2 phi) / (sin^2 phi + e^{-2|u|} cos^2 phi)) / 2,  phi = omega t / 2.

    In the variables of ``_kernel``, asinh r = L/2 + p for both pairs,
    up to terms of order beta hbar omega e^{|u|}, with
    p_c + p_s = ln(1 + y^2)/2 and p_c - p_s = q; expanding
    C = sqrt(ln^2 6 + u^2 + 2 (a_c^2 + a_s^2)) in 1/L gives the terms above.  At u = 0 the two regimes reduce to
    the equal-frequency forms ln 6 + 2 e^{-beta hbar omega} / ln 6 and
    L + ln^2 6 / (2L).  A point outside the regime warns but still
    evaluates.  t, beta and omega broadcast like ``complexity``.
    """
    bho, u = _regime(regime, params)
    wt = params.omega * t
    if regime == "low_T":
        c_0 = np.sqrt(LN6 * LN6 + 2.0 * u * u)
        c, s = np.cos(wt), np.sin(wt)
        return c_0 + (2.0 * np.exp(-bho) / c_0) * (c * c + _log_ratio_factor(u) * s * s)
    big_l = math.log(4.0) - np.log(bho)
    # 2 ln|cos phi| and 2 ln|sin phi|; logaddexp keeps q finite where e^{-2|u|} underflows at sin phi = 0
    with np.errstate(divide="ignore"):
        l_c, l_s = 2.0 * np.log(np.abs(np.cos(0.5 * wt))), 2.0 * np.log(np.abs(np.sin(0.5 * wt)))
    two_u = 2.0 * np.abs(u)
    q = 0.5 * (np.logaddexp(l_c, l_s - two_u) - np.logaddexp(l_s, l_c - two_u))
    return big_l + np.log(np.hypot(1.0, np.sinh(u) * np.sin(wt))) + (LN6 * LN6 + u * u + q * q) / (2.0 * big_l)


def asymptotic_amplitude(regime: str, params: PhysicalParams):
    """Asymptotic expansions of the oscillation amplitude, in the regimes of ``asymptotic_complexity``.

    low_T is C(T/2) - C(0) of that regime's complexity,
    (2 e^{-beta hbar omega} / c_0) (u coth u - 1), with error
    O(e^{-2 beta hbar omega}).  high_T, for beta hbar omega e^{|u|} << 1,
    is ln cosh u + u^2 / (2 ln beta hbar omega), with error O(1/L^2).
    Both are exactly 0 at u = 0, as the amplitude is.  beta and omega in
    params may be arrays.
    """
    bho, u = _regime(regime, params)
    if regime == "low_T":
        c_0 = np.sqrt(LN6 * LN6 + 2.0 * u * u)
        return (2.0 * np.exp(-bho) / c_0) * (_log_ratio_factor(u) - 1.0)
    # u^2 / (2 ln beta hbar omega) is 0/0 at u = 0 and beta hbar omega = 1
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(u == 0.0, 0.0, np.log(np.cosh(u)) + u * u / (2.0 * np.log(bho)))[()]


def _golden_max(f, lo: float, hi: float) -> tuple:
    """Golden-section maximizer of f elementwise over [lo, hi]: the best point it evaluated and f there.

    f maps a scalar or an array of points to one value per element, and
    every step evaluates it once on every element, until each bracket is
    below _GOLDEN_TOL wide.  The better of the two interior points always
    stays interior, so the best point evaluated is the better of the last
    two; for an f with one maximum on [lo, hi] it lies in the final bracket.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while np.max(b - a) > _GOLDEN_TOL:
        # the maximum lies in [a, d] where left and in [c, b] where not; the better point stays interior
        left = fc > fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        keep, f_keep = np.where(left, c, d), np.where(left, fc, fd)
        # the one new point: c where left, d where not
        x = np.where(left, b - invphi * (b - a), a + invphi * (b - a))
        fx = f(x)
        c, fc, d, fd = np.where(left, x, keep), np.where(left, fx, f_keep), np.where(left, keep, x), np.where(left, f_keep, fx)
    best = fc > fd
    return np.where(best, c, d), np.where(best, fc, fd)


def lloyd_check(params: PhysicalParams) -> tuple:
    """Compare the maximum complexity rate over one period with 2U/(pi hbar).

    C(T - t) = C(t), since the two pairs of ``_kernel`` swap, so |dC/dt|
    over a period is its mirror image about T/2, where it vanishes.  On
    (0, T/2) it has one maximum, which lies near omega t = e^{-|u|} at
    high temperature, so one golden-section search over s = ln(omega t),
    from the smallest positive double to ln(pi/2), finds it to 1e-10
    relative in t whatever its scale, in about 62 steps of one rate per
    parameter point.  Where the rate is mostly rounding noise (|u| below
    about 3e-5 with beta hbar omega above about 300, rates below about
    1e-140) it has no meaningful maximum, and neither has the search.
    Returns (max_rate, bound, argmax_t), with argmax_t in (0, T/2]; the
    bound holds where max_rate <= bound.  beta and omega in params may be
    arrays; each array then has their broadcast shape.
    """
    bound = 2.0 * internal_energy(params) / (math.pi * params.hbar)

    def abs_rate(s):
        return np.abs(complexity_rate(np.exp(s) / params.omega, params))

    s_star, max_rate = _golden_max(abs_rate, _LN_MIN_WT, _LN_HALF_PI)
    return max_rate[()], bound, (np.exp(s_star) / params.omega)[()]
