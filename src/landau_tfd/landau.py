"""Landau-level wavefunctions and the special functions behind them.

Generalized Laguerre polynomials by stable recurrence, the normalized
wavefunctions in dimensionless polar coordinates, level energies, and
quadrature oracles for the normalization and the ladder-operator
actions (finite differences in rho, an FFT derivative in phi).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.laguerre import laggauss

from .complexity import PhysicalParams

__all__ = [
    "QuantumNumbers",
    "laguerre",
    "energy",
    "length_scale",
    "wavefunction",
    "laguerre_norm_integral",
    "wavefunction_gram",
    "ladder_action_check",
    "angular_momentum_action",
]

_MAX_QUAD_NODES = 180


@dataclass(frozen=True)
class QuantumNumbers:
    """Principal quantum number n >= 0 and magnetic quantum number ell >= -n."""

    n: int
    ell: int

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must be non-negative, got {self.n}")
        if self.ell < -self.n:
            raise ValueError(f"ell must satisfy ell >= -n, got ell={self.ell}, n={self.n}")

    @property
    def k(self) -> int:
        """Shifted quantum number k = n + ell (always >= 0)."""
        return self.n + self.ell


def laguerre(n: int, ell: int, r):
    """Generalized Laguerre polynomial L_n^{(ell)}(r) for ell >= 0.

    Three-term recurrence in n at fixed ell; the explicit factorial sum
    is unstable for n beyond ~15.  Accepts scalar or array r.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if ell < 0:
        raise ValueError(f"ell must be non-negative, got {ell}")
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("r must be non-negative")
    prev = np.ones_like(r)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = (ell + 1.0) - r
    for j in range(1, n):
        prev, cur = cur, ((2.0 * j + ell + 1.0 - r) * cur - (j + ell) * prev) / (j + 1.0)
    return cur if cur.ndim else float(cur)


def energy(n: int, params: PhysicalParams) -> float:
    """Landau-level energy hbar*omega*(n + 1/2); degenerate in ell."""
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return params.hbar * params.omega * (n + 0.5)


def length_scale(params: PhysicalParams) -> float:
    """Magnetic length scale lambda = sqrt(2 hbar / (m omega))."""
    return math.sqrt(2.0 * params.hbar / (params.mass * params.omega))


def wavefunction(q: QuantumNumbers, rho, phi, params: PhysicalParams):
    """Normalized wavefunction at dimensionless radius rho and angle phi.

    For ell >= 0 this is the direct product of the log-gamma prefactor,
    the phase, rho^ell, the Gaussian, and L_n^{(ell)}(rho^2).  Negative
    ell (down to -n) maps to the conjugate of a non-negative-ell state:
    Psi_{n,-m} = (-1)^m conj(Psi_{n-m,m}), which keeps the evaluation
    finite at rho = 0.
    """
    rho = np.asarray(rho, dtype=float)
    phi = np.asarray(phi, dtype=float)
    if np.any(rho < 0):
        raise ValueError("rho must be non-negative")
    if q.ell < 0:
        m = -q.ell
        conj = wavefunction(QuantumNumbers(q.n - m, m), rho, phi, params)
        return (-1) ** m * np.conjugate(conj)
    lam = length_scale(params)
    log_pref = 0.5 * (math.lgamma(q.n + 1) - math.lgamma(q.n + q.ell + 1))
    pref = math.exp(log_pref) / (lam * math.sqrt(math.pi))
    r = rho * rho
    val = pref * np.exp(1j * q.ell * phi) * rho**q.ell * np.exp(-r / 2.0) * laguerre(q.n, q.ell, r)
    return val if val.ndim else complex(val)


@functools.cache
def _gauss_laguerre(nodes: int) -> tuple:
    """Gauss-Laguerre nodes and weights, built once per node count and read-only."""
    x, w = laggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def laguerre_norm_integral(n: int, m: int, ell: int) -> float:
    """Gauss-Laguerre evaluation of int_0^inf r^ell e^{-r} L_n L_m dr.

    The node count is chosen for exactness on the integrand's polynomial
    degree n + m + ell; compare against Gamma(n+ell+1)/n! * delta_nm.
    """
    if n < 0 or m < 0 or ell < 0:
        raise ValueError("n, m, ell must all be non-negative")
    nodes = (n + m + ell) // 2 + 1
    if nodes > _MAX_QUAD_NODES:
        raise ValueError(
            f"quadrature order {nodes} exceeds the supported maximum {_MAX_QUAD_NODES}"
        )
    x, w = _gauss_laguerre(nodes)
    return float(np.sum(w * x**ell * laguerre(n, ell, x) * laguerre(m, ell, x)))


def wavefunction_gram(states, params: PhysicalParams, n_radial: int = 64, n_angular: int = 64) -> np.ndarray:
    """Quadrature Gram matrix of a list of QuantumNumbers.

    Gauss-Laguerre in r = rho^2 (the weight e^{-r} matches the Gaussian
    of the integrand) and trapezoid in phi (periodic, spectrally
    accurate).  Orthonormal states give the identity.
    """
    r, w = _gauss_laguerre(n_radial)
    rho = np.sqrt(r)
    phi = 2.0 * math.pi * np.arange(n_angular) / n_angular
    lam = length_scale(params)
    # samples[state, radial, angular]
    samples = np.array([wavefunction(q, rho[:, None], phi[None, :], params) for q in states])
    # undo the quadrature weight: the product of two wavefunctions carries e^{-r}
    radial_w = w * np.exp(r) / 2.0
    ang_w = 2.0 * math.pi / n_angular
    gram = np.einsum("irp,jrp,r->ij", np.conjugate(samples), samples, radial_w) * ang_w * lam**2
    return gram


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


def _d_rho(f: np.ndarray, h: float) -> np.ndarray:
    """4th-order difference along axis 0: central inside, one-sided at edges."""
    out = np.empty_like(f)
    out[2:-2] = (-f[4:] + 8.0 * f[3:-1] - 8.0 * f[1:-3] + f[:-4]) / (12.0 * h)
    out[0] = (-25.0 * f[0] + 48.0 * f[1] - 36.0 * f[2] + 16.0 * f[3] - 3.0 * f[4]) / (12.0 * h)
    out[1] = (-3.0 * f[0] - 10.0 * f[1] + 18.0 * f[2] - 6.0 * f[3] + f[4]) / (12.0 * h)
    out[-2] = (3.0 * f[-1] + 10.0 * f[-2] - 18.0 * f[-3] + 6.0 * f[-4] - f[-5]) / (12.0 * h)
    out[-1] = (25.0 * f[-1] - 48.0 * f[-2] + 36.0 * f[-3] - 16.0 * f[-4] + 3.0 * f[-5]) / (12.0 * h)
    return out


def _d_phi(f: np.ndarray) -> np.ndarray:
    """Spectral derivative along the periodic axis 1, with the Nyquist mode zeroed."""
    n = f.shape[1]
    k = np.fft.fftfreq(n, 1.0 / n)
    if n % 2 == 0:
        k[n // 2] = 0.0
    return np.fft.ifft(1j * k * np.fft.fft(f, axis=1), axis=1)


def _grid(ell_max: int):
    """rho grid with an odd count (composite Simpson) and a phi grid for |ell| <= ell_max.

    A wavefunction is e^{i ell phi} times a radial factor, and the ladder
    phase e^{+-i phi} shifts ell by one, so every field has modes up to
    ell_max + 1.  With n_phi > 2 (ell_max + 1) neither the spectral
    derivative nor the phi trapezoid sum of a product aliases.
    """
    # rho = 0 excluded: the operators contain (1/rho) d_phi
    rho = np.linspace(1e-3, 12.0, 2001)
    n_phi = 2 * ell_max + 4
    return rho, rho[1] - rho[0], 2.0 * math.pi * np.arange(n_phi) / n_phi


def _apply_ladder(which: str, q: QuantumNumbers, params: PhysicalParams, rho_grid, h, phi):
    """Apply the differential-operator form of a ladder operator (see ``_LADDER``) on the grid."""
    _, dell, s_rho, s_phi = _LADDER[which]
    psi = wavefunction(q, rho_grid[:, None], phi[None, :], params)
    rho = rho_grid[:, None]
    derivatives = rho * psi + s_rho * _d_rho(psi, h) + s_phi * 1j * _d_phi(psi) / rho
    return -s_phi * np.exp(1j * dell * phi) / 2.0 * derivatives


def _project(target: np.ndarray, field: np.ndarray, rho: np.ndarray, phi: np.ndarray, lam: float) -> complex:
    """lambda^2 * integral of conj(target) * field * rho drho dphi.

    Composite Simpson in rho (odd count, uniform spacing) and the trapezoid sum in phi.
    """
    simpson = np.full(len(rho), 2.0)
    simpson[1::2] = 4.0
    simpson[[0, -1]] = 1.0
    radial = (simpson * rho) @ (np.conjugate(target) * field) * ((rho[1] - rho[0]) / 3.0)
    return complex(np.sum(radial) * (2.0 * math.pi / len(phi)) * lam * lam)


def ladder_action_check(q: QuantumNumbers, which: str, params: PhysicalParams) -> float:
    """Overlap coefficient of a ladder operator applied numerically.

    The operator's differential form is evaluated on a (rho, phi) grid,
    by finite differences in rho and an FFT derivative in phi, and
    projected onto the predicted target wavefunction by quadrature; for
    valid targets the result approaches sqrt(n), sqrt(n+1), sqrt(n+ell),
    or sqrt(n+ell+1).  Annihilation of a vacuum direction returns
    exactly 0 with a warning.
    """
    if which not in _LADDER:
        raise ValueError(f"unknown ladder operator {which!r}")
    dn, dell, _, _ = _LADDER[which]
    if which == "a" and q.n == 0:
        warnings.warn("a annihilates the n=0 states", RuntimeWarning)
        return 0.0
    if which == "b" and q.k == 0:
        warnings.warn("b annihilates the k=0 states", RuntimeWarning)
        return 0.0
    target_q = QuantumNumbers(q.n + dn, q.ell + dell)
    rho, h, phi = _grid(max(abs(q.ell), abs(target_q.ell)))
    field = _apply_ladder(which, q, params, rho, h, phi)
    target = wavefunction(target_q, rho[:, None], phi[None, :], params)
    return _project(target, field, rho, phi, length_scale(params)).real


def angular_momentum_action(q: QuantumNumbers, params: PhysicalParams) -> float:
    """Angular-momentum eigenvalue from -i hbar d_phi applied numerically.

    Returns the projection of -i d_phi Psi onto Psi, which equals ell
    for an exact eigenstate (so the eigenvalue is hbar times this).
    """
    rho, _, phi = _grid(abs(q.ell))
    psi = wavefunction(q, rho[:, None], phi[None, :], params)
    return _project(psi, -1j * _d_phi(psi), rho, phi, length_scale(params)).real
