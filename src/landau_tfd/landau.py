"""Landau-level wavefunctions and the special functions behind them.

Generalized Laguerre polynomials by stable recurrence, the normalized
wavefunctions in dimensionless polar coordinates, and quadrature
oracles for their normalization and the ladder-operator actions.  The
grid oracles share one radial rule: Gauss-Legendre nodes on rho in
[0, 12], their weights, and the differentiation matrix of their
interpolant; phi is a uniform grid with an FFT derivative.
"""

from __future__ import annotations

import functools
import math
import warnings

import numpy as np
from numpy.polynomial.laguerre import laggauss
from numpy.polynomial.legendre import legder, leggauss, legvander

from .complexity import PhysicalParams

__all__ = [
    "laguerre",
    "length_scale",
    "wavefunction",
    "laguerre_norm_integral",
    "wavefunction_gram",
    "ladder_action_check",
]

_MAX_QUAD_NODES = 180
# the radial rule of the grid oracles: Gauss-Legendre nodes on rho in [0, _RHO_MAX].  The oracles hold
# for states negligible beyond _RHO_MAX; the ladder check errs by 2e-4 at (n, ell) = (30, 0)
_RHO_MAX = 12.0
_RHO_NODES = 96
# the grid oracles warn when a state's norm on the radial rule misses 1 by more
_NORM_TOL = 1e-12


def _integers(**labels) -> tuple:
    """Each label as an array, checked to hold integers: a recurrence step never equals a non-integer n."""
    out = tuple(np.asarray(x) for x in labels.values())
    for name, x in zip(labels, out):
        # an integer array passes on its dtype alone; the oracles call this on every state they evaluate
        if x.dtype.kind not in "iub" and not np.all(np.isfinite(x) & (x == np.trunc(x))):
            raise ValueError(f"{name} must be an integer, got {x}")
    return out


def _states(n, ell) -> tuple:
    """n and ell as arrays, checked as labels of Landau states: integers, principal n >= 0 and magnetic ell >= -n."""
    n, ell = _integers(n=n, ell=ell)
    if (n < 0).any():
        raise ValueError(f"n must be non-negative, got {n}")
    if (ell < -n).any():
        raise ValueError(f"ell must satisfy ell >= -n, got ell={ell}, n={n}")
    return n, ell


def laguerre(n, ell, r):
    """Generalized Laguerre polynomial L_n^{(ell)}(r) for ell >= 0.

    Three-term recurrence in n at fixed ell; the explicit factorial sum
    is unstable for n beyond ~15.  n, ell and r broadcast: each element
    takes its value at step n of one recurrence run to the largest n, and
    runs on zeros after that, so the steps it does not use cannot overflow.
    n and ell must be integers.
    """
    n, ell = _integers(n=n, ell=ell)
    if (n < 0).any():
        raise ValueError(f"n must be non-negative, got {n}")
    if (ell < 0).any():
        raise ValueError(f"ell must be non-negative, got {ell}")
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r) & (r >= 0)):
        raise ValueError("r must be finite and non-negative")
    prev, cur = 1.0, (ell + 1.0) - r
    out = np.where(n == 0, prev, cur)
    for j in range(1, int(n.max(initial=0))):
        live = n > j
        prev, cur = np.where(live, prev, 0.0), np.where(live, cur, 0.0)
        prev, cur = cur, ((2.0 * j + ell + 1.0 - r) * cur - (j + ell) * prev) / (j + 1.0)
        out = np.where(n == j + 1, cur, out)
    return out if out.ndim else float(out)


def length_scale(params: PhysicalParams) -> float:
    """Magnetic length scale lambda = sqrt(2 hbar / (m omega))."""
    return math.sqrt(2.0 * params.hbar / (params.mass * params.omega))


# sqrt(n! / (n + a)!) by log-gamma, elementwise
_norm_ratio = np.frompyfunc(lambda n, a: math.exp(0.5 * (math.lgamma(n + 1) - math.lgamma(n + a + 1))), 2, 1)


def wavefunction(n, ell, rho, phi, params: PhysicalParams):
    """Normalized wavefunctions of the states (n, ell) at dimensionless radius rho and angle phi; all four broadcast.

    The state (n, ell) with m = max(-ell, 0) is (-1)^m times the radial
    part of (n - m, |ell|) times e^{i ell phi}, where the radial part of
    (n, a) is the log-gamma prefactor, rho^a, the Gaussian, and
    L_n^{(a)}(rho^2).  So Psi_{n,-m} = (-1)^m conj(Psi_{n-m,m}), and the
    evaluation stays finite at rho = 0.
    """
    n, ell = _states(n, ell)
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if not np.all(np.isfinite(rho) & (rho >= 0)):
        raise ValueError("rho must be finite and non-negative")
    m = np.maximum(-ell, 0)
    n_r, a = n - m, np.abs(ell)
    pref = (-1.0) ** m * (np.asarray(_norm_ratio(n_r, a), dtype=float) / (length_scale(params) * math.sqrt(math.pi)))
    r = rho * rho
    val = pref * np.exp(1j * ell * phi) * rho**a * np.exp(-r / 2.0) * laguerre(n_r, a, r)
    return val if val.ndim else complex(val)


@functools.cache
def _gauss_laguerre(nodes: int) -> tuple:
    """Gauss-Laguerre nodes and weights, built once per node count and read-only."""
    x, w = laggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


@functools.cache
def _radial_rule() -> tuple:
    """Gauss-Legendre nodes and weights on rho in [0, _RHO_MAX] and the differentiation matrix of their interpolant.

    Built once and read-only.  No node sits at rho = 0, so the operators'
    1/rho is finite on every node.
    """
    x, w = leggauss(_RHO_NODES)
    d = legvander(x, _RHO_NODES - 2) @ legder(np.eye(_RHO_NODES)) @ np.linalg.inv(legvander(x, _RHO_NODES - 1))
    half = _RHO_MAX / 2.0
    rule = (half * (x + 1.0), half * w, d / half)
    for a in rule:
        a.flags.writeable = False
    return rule


def laguerre_norm_integral(n, m, ell):
    """Gauss-Laguerre evaluation of int_0^inf r^ell e^{-r} L_n^{(ell)} L_m^{(ell)} dr.

    n, m and ell broadcast.  One rule serves every element: its node
    count is exact on the largest polynomial degree n + m + ell in the
    call.  Compare against (n+ell)!/n! * delta_nm.
    """
    n, m, ell = _integers(n=n, m=m, ell=ell)
    if (n < 0).any() or (m < 0).any() or (ell < 0).any():
        raise ValueError("n, m, ell must all be non-negative")
    nodes = int((n + m + ell).max(initial=0)) // 2 + 1
    if nodes > _MAX_QUAD_NODES:
        raise ValueError(
            f"quadrature order {nodes} exceeds the supported maximum {_MAX_QUAD_NODES}"
        )
    x, w = _gauss_laguerre(nodes)
    # the nodes on a new last axis
    n, m, ell = n[..., None], m[..., None], ell[..., None]
    val = np.sum(w * x**ell * laguerre(n, ell, x) * laguerre(m, ell, x), axis=-1)
    return val if val.ndim else float(val)


def wavefunction_gram(n, ell, params: PhysicalParams) -> np.ndarray:
    """Quadrature Gram matrix of the states (n[i], ell[i]), from two 1-D integer arrays.

    Gauss-Legendre in rho (the radial rule) and trapezoid in phi
    (periodic, spectrally accurate): all states are evaluated in one
    stacked call and projected by one weighted matmul.  Orthonormal
    states give the identity, and no states a (0, 0) matrix.
    """
    if np.ndim(n) != 1 or np.shape(n) != np.shape(ell):
        raise ValueError(f"n and ell must be 1-D arrays of equal length, got shapes {np.shape(n)} and {np.shape(ell)}")
    n, ell = _states(n, ell)
    n, ell = n[:, None, None], ell[:, None, None]
    rho, w, _ = _radial_rule()
    phi = _phi_grid(int(np.max(np.abs(ell), initial=0)))
    # samples[state, rho * phi]
    samples = wavefunction(n, ell, rho[:, None], phi, params).reshape(len(n), len(rho) * len(phi))
    weighted = np.conjugate(samples) * np.repeat(w * rho, len(phi))
    lam = length_scale(params)
    return weighted @ samples.T * (2.0 * math.pi / len(phi) * lam * lam)


# ---------------------------------------------------------------------------
# grid ladder-operator oracle
# ---------------------------------------------------------------------------

_LADDER = {
    # which -> (dn, dell, s_rho, s_phi); the operator is
    # -s_phi e^{i dell phi} (rho + s_rho d_rho + s_phi (i/rho) d_phi) / 2
    "a": (-1, +1, +1, +1),
    "a_dagger": (+1, -1, -1, +1),
    "b": (0, -1, +1, -1),
    "b_dagger": (0, +1, -1, -1),
}


def _d_phi(f: np.ndarray) -> np.ndarray:
    """Spectral derivative along the periodic axis 1, with the Nyquist mode zeroed."""
    n = f.shape[1]
    k = np.fft.fftfreq(n, 1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return np.fft.ifft(1j * k * np.fft.fft(f, axis=1), axis=1)


def _phi_grid(ell_max: int) -> np.ndarray:
    """phi grid for |ell| <= ell_max.

    A wavefunction is e^{i ell phi} times a radial factor, and the ladder
    phase e^{+-i phi} shifts ell by one, so every field has modes up to
    ell_max + 1.  With n_phi > 2 (ell_max + 1) neither the spectral
    derivative nor the phi trapezoid sum of a product aliases.
    """
    n_phi = 2 * ell_max + 4
    return 2.0 * math.pi * np.arange(n_phi) / n_phi


def _project(target: np.ndarray, field: np.ndarray, phi: np.ndarray, lam: float) -> np.ndarray:
    """lambda^2 * integral of conj(target) * field * rho drho dphi over the trailing (rho, phi) axes.

    Gauss-Legendre in rho and the trapezoid sum in phi; leading axes broadcast.
    """
    rho, w, _ = _radial_rule()
    return np.einsum("r,...rp,...rp->...", w * rho, np.conjugate(target), field) * (2.0 * math.pi / len(phi) * lam * lam)


def ladder_action_check(n: int, ell: int, which: str, params: PhysicalParams) -> float:
    """Overlap coefficient of a ladder operator applied numerically to the state (n, ell).

    The operator's differential form is evaluated on the Gauss-Legendre
    rho nodes and a uniform phi grid, with the rule's differentiation
    matrix in rho and an FFT derivative in phi, and projected onto the
    predicted target wavefunction by the same quadrature; for valid
    targets the result approaches sqrt(n), sqrt(n+1), sqrt(n+ell), or
    sqrt(n+ell+1).  An operator whose target is not a valid state (a on
    n = 0, b on n + ell = 0) returns exactly 0 with a warning, and a
    source or target state that does not vanish by rho = 12 (its norm on
    the rule misses 1 by more than 1e-12) warns.
    """
    if np.ndim(n) or np.ndim(ell):
        raise ValueError(f"n and ell must be the scalar labels of one state, got shapes {np.shape(n)} and {np.shape(ell)}")
    _states(n, ell)
    if which not in _LADDER:
        raise ValueError(f"unknown ladder operator {which!r}")
    dn, dell, s_rho, s_phi = _LADDER[which]
    target = (n + dn, ell + dell)
    if target[0] < 0 or target[1] < -target[0]:
        warnings.warn(f"{which} annihilates the state (n, ell) = ({n}, {ell})", RuntimeWarning)
        return 0.0
    rho, _, d = _radial_rule()
    rho = rho[:, None]
    phi = _phi_grid(max(abs(ell), abs(target[1])))
    psi = wavefunction(n, ell, rho, phi, params)
    bra = wavefunction(*target, rho, phi, params)
    lam = length_scale(params)
    for (n_f, ell_f), f in (((n, ell), psi), (target, bra)):
        deficit = 1.0 - _project(f, f, phi, lam).real
        if abs(deficit) > _NORM_TOL:
            warnings.warn(
                f"state (n, ell) = ({n_f}, {ell_f}) has norm deficit {deficit:.3e} on the radial rule "
                f"rho <= {_RHO_MAX:g}; its matrix elements are unreliable",
                RuntimeWarning,
            )
            break
    field = -s_phi * np.exp(1j * dell * phi) / 2.0 * (rho * psi + s_rho * (d @ psi) + s_phi * 1j * _d_phi(psi) / rho)
    return float(_project(bra, field, phi, lam).real)

