"""
Brute-force oracle versus closed forms
======================================

Every closed-form expression in the library is backed by an independent
numerical oracle: Landau-level wavefunctions are integrated and
differentiated on Gauss-Legendre nodes in rho (with the differentiation
matrix of their interpolant) and a uniform grid in phi, and the TFD
covariance blocks are recomputed as expectation values in a truncated
Fock space. This script runs the aggregate verification report and
shows one covariance comparison entry by entry. It exits 1 if any
check fails.
"""

import sys

import numpy as np

from landau_tfd import (
    PhysicalParams,
    SweepConfig,
    covariance_g,
    oracle_covariance_1pm,
    run_verify,
)

p = PhysicalParams(omega=0.5, omega_ref=1.0, beta=2.0)
t = 0.25 * p.period

# the oracle builds 60x60 ladder matrices and contracts each covariance
# entry as a quadratic form in the two-mode squeezed state's amplitudes
g_plus, g_minus = oracle_covariance_1pm(t, p, dim=60)
closed_plus, closed_minus, _ = covariance_g(t, p)

print("quarter-period covariance block (oracle vs closed form):")
print("  oracle:\n", np.array2string(g_plus, precision=12, prefix="   "))
print("  closed:\n", np.array2string(closed_plus, precision=12, prefix="   "))
print(f"  max deviation: {np.max(np.abs(g_plus - closed_plus)):.2e}")

# both take arrays: one call covers a whole period at three temperatures
ts = np.linspace(0.0, p.period, 9)[:, None]
grid = p.with_(beta=np.array([1.0, 2.0, 4.0]) / (p.hbar * p.omega))
oracle = np.stack(oracle_covariance_1pm(ts, grid, dim=60))
closed = np.stack(covariance_g(ts, grid)[:2])
print(f"\n9 t x 3 beta grid, both blocks stacked, shape {oracle.shape}:")
print(f"  max deviation: {np.max(np.abs(oracle - closed)):.2e}")

# the full report also covers Laguerre orthogonality, wavefunction
# Gram matrices, ladder coefficients, the ladder matrix's commutator
# and number operator, and the rate
report = run_verify(SweepConfig(mode="verify", params=p))
print("\naggregate verification report:")
for check in report.checks:
    status = "pass" if check.passed else "FAIL"
    print(f"  [{status}] {check.name}: max deviation {check.max_deviation:.2e} (tolerance {check.tolerance:.0e})")
print("all passed" if report.passed else "FAILURES PRESENT")
sys.exit(0 if report.passed else 1)
