"""Truncated-Fock-space oracle.

The dense ladder matrix, the a-sector of the time-evolved TFD state,
brute-force expectation values that cross-check the closed-form
covariance blocks, and the ladder commutation relations.  Everything
here is deliberately independent of the closed forms it validates.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

from .complexity import PhysicalParams

__all__ = [
    "MAX_DIM",
    "CheckResult",
    "OracleReport",
    "ladder_matrix",
    "tfd_a_sector_state",
    "oracle_covariance_1pm",
    "commutator_report",
]

MAX_DIM = 128  # cap on the truncation size N of the dense N x N matrices


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_deviation: float
    tolerance: float
    passed: bool


@dataclass
class OracleReport:
    """Pass/fail record of brute-force checks with max absolute deviations."""

    checks: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    def add(self, name: str, deviation, tolerance: float) -> None:
        """Record a check from its deviation at every point: an array of any shape, or a list of scalars.

        The check keeps the largest |deviation| and passes if that is at
        most tolerance; np.max propagates NaN, so a NaN at any point fails it.
        """
        if np.size(deviation) == 0:
            raise ValueError(f"check {name!r} has no deviation to reduce")
        max_deviation = float(np.max(np.abs(deviation)))
        self.checks.append(CheckResult(name, max_deviation, tolerance, bool(max_deviation <= tolerance)))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        doc = {
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "warnings": list(self.warnings),
        }
        return json.dumps(doc, indent=2)


def _check_dim(dim: int) -> None:
    if not (isinstance(dim, (int, np.integer)) and 2 <= dim <= MAX_DIM):
        raise ValueError(f"truncation size must be an integer in [2, {MAX_DIM}] (the dense-matrix cap), got {dim!r}")


def ladder_matrix(dim: int) -> np.ndarray:
    """Annihilation matrix, (a)_{n-1,n} = sqrt(n); the creation matrix is its transpose."""
    _check_dim(dim)
    return np.diag(np.sqrt(np.arange(1.0, dim)), k=1)


def tfd_a_sector_state(t, params: PhysicalParams, dim: int) -> tuple:
    """The a-sector of the time-evolved TFD state, normalized on its own.

    The state is diagonal in the two-mode basis, sum_n c_n |n>_L |n>_R, with

        c_n = sqrt(1 - e^{-beta hbar omega}) e^{-beta hbar omega n / 2} e^{-i omega t (n + 1/2)};

    returns c, with n on a last axis of length dim, and the norm the
    truncation drops.  t and beta broadcast: c has shape (..., dim) over
    their broadcast shape, and the norm deficit the shape of beta.
    """
    _check_dim(dim)
    # PhysicalParams keeps beta*hbar*omega positive; q = 0 at beta = inf, where c is the vacuum (1, 0, 0, ...)
    with np.errstate(over="ignore"):
        q = np.exp(-params.beta * params.hbar * params.omega)
    n = np.arange(dim)
    q_n, t_n = np.expand_dims(q, -1), np.expand_dims(t, -1)
    return np.sqrt(1.0 - q_n) * q_n ** (n / 2.0) * np.exp(-1j * params.omega * t_n * (n + 0.5)), q**dim


def _quadratures(dim: int, params: PhysicalParams):
    """Single-mode position and momentum matrices."""
    a = ladder_matrix(dim)
    mw = params.mass * params.omega
    x = math.sqrt(params.hbar / (2.0 * mw)) * (a + a.T)
    p = -1j * math.sqrt(params.hbar * mw / 2.0) * (a - a.T)
    return x, p


def _quadratic_form(u: np.ndarray, v: np.ndarray, sign: float) -> np.ndarray:
    """K with c^H K c = <(U x I + sign I x U) psi, (V x I + sign I x V) psi> / 2 on psi = sum_n c_n |n>|n>.

    On the state matrix diag(c), (M x I) acts as M diag(c) and (I x M) as
    diag(c) M^T; expanding the inner product gives
    K = diag(sum_j conj(U_ja) V_ja) + sign conj(U)^T * V, elementwise.
    """
    k = sign * (u.conj().T * v)
    k[np.diag_indices_from(k)] += np.sum(u.conj() * v, axis=0)
    return k


def oracle_covariance_1pm(t, params: PhysicalParams, dim: int = 60):
    """Brute-force covariance blocks of the +/- quadrature pairs.

    Expresses X_{1+-}, P_{1+-} through ladder matrices on the truncated
    two-mode space and takes symmetrized expectation values in the
    a-sector TFD state; returns (G1_plus, G1_minus), real arrays of shape
    (..., 2, 2) over the broadcast shape of t and beta.  omega, mass and
    hbar are scalars, since the quadrature matrices are built from them.
    Each entry is a quadratic form c^H K c in the amplitudes (see
    ``_quadratic_form``), so no state matrix is ever held, whatever the
    number of points.
    """
    c, norm_deficit = tfd_a_sector_state(t, params, dim)
    deficits = np.ravel(norm_deficit)
    # one warning per distinct beta whose truncation drops too much norm
    for deficit in dict.fromkeys(deficits[deficits > 1e-10].tolist()):
        warnings.warn(
            f"truncation norm deficit {deficit:.3e} exceeds 1e-10; increase dim or beta*hbar*omega",
            RuntimeWarning,
        )
    quad = _quadratures(dim, params)
    c_h = c.conj()
    blocks = []
    for sign in (+1.0, -1.0):
        entries = [[np.sum((c_h @ _quadratic_form(u, v, sign)) * c, axis=-1).real for v in quad] for u in quad]
        blocks.append(2.0 * np.moveaxis(np.array(entries), (0, 1), (-2, -1)) / params.hbar)
    return blocks[0], blocks[1]


def _two_mode(dim: int) -> tuple:
    """The factors A, B of a = A x I and b = I x B on the two-mode space of dim levels per mode.

    On the state matrix X of a two-mode state (X_nk the amplitude of
    |n, k>), a acts as A X and b as X B^T, as in ``_quadratic_form``.
    """
    a = ladder_matrix(dim)
    return a, a


def commutator_report(dim: int) -> OracleReport:
    """Verify the ladder commutation relations on the truncated space.

    [a, a^dag] = 1 holds exactly on the interior basis states (the last
    diagonal entry carries the truncation edge artifact -(N-1)).  On the
    two-mode space of N' = min(N, 16) levels per mode, each operator acts
    on every basis state |n, k> as its N' x N' state matrix:
    [b, b^dag] = 1 on the states with k < N' - 1; [a, b] = 0 across the
    two tensor factors; and L_z = -hbar(a^dag a - b^dag b) applied to
    each |n, k> gives hbar(k - n) |n, k>, with k - n read from the labels.
    """
    if not (isinstance(dim, (int, np.integer)) and dim >= 4):
        raise ValueError(f"dim must be an integer of at least 4, got {dim!r}")
    report = OracleReport()
    a = ladder_matrix(dim)
    comm = a @ a.T - a.T @ a
    report.add("[a,a_dagger] interior", comm[: dim - 1, : dim - 1] - np.eye(dim - 1), 1e-12)

    dt = min(dim, 16)
    a_f, b_f = _two_mode(dt)
    # e[i] is the state matrix of the basis state i = |n, k>, with i = n*dt + k
    e = np.eye(dt * dt).reshape(-1, dt, dt)
    n, k = np.divmod(np.arange(dt * dt), dt)
    a_e, b_e = a_f @ e, e @ b_f.T
    # [b, b^dag] on the interior states k < N' - 1, read off their components with k < N' - 1
    report.add("[b,b_dagger] interior", ((e @ b_f) @ b_f.T - b_e @ b_f - e)[k < dt - 1, :, :-1], 1e-12)
    report.add("[a,a_dagger] truncation edge = -(N-1)", comm[dim - 1, dim - 1] - (-(dim - 1)), 1e-12)
    report.add("[a,b] two-mode", a_f @ b_e - a_e @ b_f.T, 1e-12)
    # L_z / hbar = b^dag b - a^dag a
    report.add("L_z eigenvalue k - n", b_e @ b_f - a_f.T @ a_e - (k - n)[:, None, None] * e, 1e-12)
    return report
