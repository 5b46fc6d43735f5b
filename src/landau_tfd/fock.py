"""Truncated-Fock-space oracle.

The dense ladder matrix, the a-sector of the time-evolved TFD state,
brute-force expectation values that cross-check the closed-form
covariance blocks, and the checks of the ladder matrix itself.  Everything
here is deliberately independent of the closed forms it validates.
"""

from __future__ import annotations

import itertools
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


def oracle_covariance_1pm(t, params: PhysicalParams, dim: int = 60):
    """Brute-force covariance blocks of the +/- quadrature pairs.

    Expresses X_{1+-}, P_{1+-} through ladder matrices on the truncated
    two-mode space and takes symmetrized expectation values in the
    a-sector TFD state; returns (G1_plus, G1_minus), real arrays of shape
    (..., 2, 2) over the broadcast shape of t and beta.  omega, mass and
    hbar are scalars, since the quadrature matrices are built from them.
    Each entry is a quadratic form in the amplitudes,

        c^H K+- c = <(U x I +- I x U) psi, (V x I +- I x V) psi> / 2 on psi = sum_n c_n |n>|n>,

    for quadratures U, V in {x, p}.  On the state matrix diag(c), (M x I)
    acts as M diag(c) and (I x M) as diag(c) M^T, so the inner product
    expands to K+- = diag(d) +- C with d = sum_j conj(U_ja) V_ja and
    C = conj(U)^T * V, elementwise.  Both signs share each pair's d and C:
    the diagonal part is one contraction of |c|^2, and the cross part one
    matrix product of every point's amplitudes with C.  So no state matrix
    is ever held, whatever the number of points.
    """
    c, norm_deficit = tfd_a_sector_state(t, params, dim)
    deficits = np.ravel(norm_deficit)
    # one warning per distinct beta whose truncation drops too much norm
    for deficit in dict.fromkeys(deficits[deficits > 1e-10].tolist()):
        warnings.warn(
            f"truncation norm deficit {deficit:.3e} exceeds 1e-10; increase dim or beta*hbar*omega",
            RuntimeWarning,
        )
    shape = c.shape[:-1]
    c = c.reshape(-1, dim)
    prob, w = np.abs(c) ** 2, np.empty_like(c)
    quad = _quadratures(dim, params)
    # (part, i, j, point): the diagonal part and the cross part of each entry
    parts = np.empty((2, 2, 2, len(c)))
    for (i, u), (j, v) in itertools.product(enumerate(quad), repeat=2):
        d = np.einsum("ja,ja->a", u.conj(), v)
        # w = conj(c)^T C at every point, in one product: the conjugate of c conj(C), so no conjugate of c is held
        np.conjugate(np.matmul(c, u.T * v.conj(), out=w), out=w)
        parts[:, i, j] = prob @ d.real, np.einsum("pn,pn->p", w, c).real
    diagonal, cross = parts
    g = 2.0 * np.stack([diagonal + cross, diagonal - cross]) / params.hbar
    g_plus, g_minus = np.moveaxis(g, (1, 2), (-2, -1)).reshape(2, *shape, 2, 2)
    return g_plus, g_minus


def commutator_report(dim: int) -> OracleReport:
    """Verify the ladder matrix a = ladder_matrix(dim) by its commutator and its number operator.

    [a, a^dag] = 1 holds exactly on the interior basis states, and
    a^dag a = diag(0, 1, ..., N-1) on all of them.  Both Landau modes use
    this one matrix, so L_z = hbar(b^dag b - a^dag a) gives hbar(k - n)
    on |n, k> exactly when the number operator holds; and the truncation
    edge of the commutator, -(N-1), is -(a^dag a)[N-1, N-1], which the
    number-operator check reads.
    """
    if not (isinstance(dim, (int, np.integer)) and dim >= 4):
        raise ValueError(f"dim must be an integer of at least 4, got {dim!r}")
    report = OracleReport()
    a = ladder_matrix(dim)
    number = a.T @ a
    comm = a @ a.T - number
    report.add("[a,a_dagger] interior", comm[: dim - 1, : dim - 1] - np.eye(dim - 1), 1e-12)
    report.add("a_dagger a = diag(n)", number - np.diag(np.arange(float(dim))), 1e-12)
    return report
