"""Truncated-Fock-space oracle.

Dense matrices for the ladder operators and the Hamiltonian, the
a-sector of the time-evolved TFD state, and brute-force expectation
values that cross-check the closed-form covariance blocks.  Everything
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
    "hamiltonian_matrix",
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

    def add(self, name: str, max_deviation: float, tolerance: float) -> None:
        self.checks.append(
            CheckResult(name, float(max_deviation), tolerance, bool(max_deviation <= tolerance))
        )

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [asdict(c) for c in self.checks],
            "warnings": list(self.warnings),
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


def _check_dim(dim: int) -> None:
    if not 2 <= dim <= MAX_DIM:
        raise ValueError(f"truncation size must be in [2, {MAX_DIM}] (the dense-matrix cap), got {dim}")


def ladder_matrix(kind: str, dim: int) -> np.ndarray:
    """Annihilation or creation matrix: (a)_{n-1,n} = sqrt(n)."""
    _check_dim(dim)
    a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
    if kind == "a":
        return a
    if kind == "a_dagger":
        return a.T.copy()
    raise ValueError(f"kind must be 'a' or 'a_dagger', got {kind!r}")


def hamiltonian_matrix(dim: int, params: PhysicalParams) -> np.ndarray:
    """hbar*omega*(a^dag a + 1/2), assembled from the ladder matrices."""
    _check_dim(dim)
    a = ladder_matrix("a", dim)
    return params.hbar * params.omega * (a.T @ a + 0.5 * np.eye(dim))


def tfd_a_sector_state(t: float, params: PhysicalParams, dim: int) -> tuple:
    """The a-sector of the time-evolved TFD state, normalized on its own.

    The state is diagonal in the two-mode basis, sum_n c_n |n>_L |n>_R, with

        c_n = sqrt(1 - e^{-beta hbar omega}) e^{-beta hbar omega n / 2} e^{-i omega t (n + 1/2)};

    returns the length-dim vector c and the norm the truncation drops.
    """
    _check_dim(dim)
    # PhysicalParams keeps beta*hbar*omega positive; q = 0 at beta = inf, where c is the vacuum (1, 0, 0, ...)
    q = math.exp(-params.beta * params.hbar * params.omega)
    n = np.arange(dim)
    return math.sqrt(1.0 - q) * q ** (n / 2.0) * np.exp(-1j * params.omega * t * (n + 0.5)), q**dim


def _quadratures(dim: int, params: PhysicalParams):
    """Single-mode position and momentum matrices."""
    a = ladder_matrix("a", dim)
    mw = params.mass * params.omega
    x = math.sqrt(params.hbar / (2.0 * mw)) * (a + a.T)
    p = -1j * math.sqrt(params.hbar * mw / 2.0) * (a - a.T)
    return x, p


def oracle_covariance_1pm(t: float, params: PhysicalParams, dim: int = 60):
    """Brute-force covariance blocks of the +/- quadrature pairs.

    Expresses X_{1+-}, P_{1+-} through ladder matrices on the truncated
    two-mode space and takes symmetrized expectation values in the
    a-sector TFD state; returns (G1_plus, G1_minus) as 2x2 real arrays.
    On the state matrix diag(c), (M x I) acts as M diag(c) and (I x M)
    as diag(c) M^T, so each quadrature is applied without a matrix product.
    """
    c, norm_deficit = tfd_a_sector_state(t, params, dim)
    if norm_deficit > 1e-10:
        warnings.warn(
            f"truncation norm deficit {norm_deficit:.3e} exceeds 1e-10; "
            "increase dim or beta*hbar*omega",
            RuntimeWarning,
        )
    x, p = _quadratures(dim, params)
    blocks = []
    for sign in (+1.0, -1.0):
        # X_{1 sign} and P_{1 sign} = (M x I + sign I x M) / sqrt(2) applied to the state
        applied = [(m * c[None, :] + sign * c[:, None] * m.T) / math.sqrt(2.0) for m in (x, p)]
        blocks.append(2.0 * np.array([[np.vdot(u, v).real for v in applied] for u in applied]) / params.hbar)
    return blocks[0], blocks[1]


def commutator_report(dim: int) -> OracleReport:
    """Verify the ladder commutation relations on the truncated space.

    [a, a^dag] = 1 and [b, b^dag] = 1 hold exactly on the interior
    basis states (the last diagonal entry carries the truncation edge
    artifact -(N-1)); [a, b] = 0 across the two tensor factors; and
    L_z = -hbar(a^dag a - b^dag b) has eigenvalue hbar(k - n) on |n, k>.
    """
    if dim < 4:
        raise ValueError(f"dim must be at least 4, got {dim}")
    report = OracleReport()
    a = ladder_matrix("a", dim)
    comm = a @ a.T - a.T @ a
    interior = comm[: dim - 1, : dim - 1] - np.eye(dim - 1)
    report.add("[a,a_dagger] interior", np.max(np.abs(interior)), 1e-12)
    report.add("[b,b_dagger] interior", np.max(np.abs(interior)), 1e-12)
    edge = comm[dim - 1, dim - 1] - (-(dim - 1))
    report.add("[a,a_dagger] truncation edge = -(N-1)", abs(edge), 1e-12)

    # tensor-factor commutator on a reduced two-mode space (kron growth)
    dt = min(dim, 16)
    at = ladder_matrix("a", dt)
    a_l = np.kron(at, np.eye(dt))
    b_r = np.kron(np.eye(dt), at)
    report.add("[a,b] two-mode", np.max(np.abs(a_l @ b_r - b_r @ a_l)), 1e-12)

    num = np.diag(at.T @ at)
    lz = -(num[:, None] - num[None, :])  # -(n - k) = k - n on |n, k>
    expected = np.arange(dt)[None, :] - np.arange(dt)[:, None]
    report.add("L_z eigenvalue k - n", np.max(np.abs(lz - expected)), 1e-12)
    return report
