"""
Testing the Lloyd bound on the complexity growth rate
=====================================================

Lloyd's bound limits the growth rate of complexity by the internal
energy: |dC/dt|_max <= 2 U / (pi hbar). Here we maximize the analytic
rate over one period at each temperature and compare it against the
bound computed from U = (hbar omega / 2) coth(beta hbar omega / 2).
The script exits 1 if the bound is violated at any temperature.
"""

import sys

import numpy as np

from landau_tfd import PhysicalParams, internal_energy, lloyd_check

omega, omega_ref = 0.1, 1.0

print(f"{'beta':>10s} {'U':>12s} {'max |dC/dt|':>14s} {'2U/(pi hbar)':>14s}  status")
violated = False
for beta in np.logspace(-2, 2, 9):
    p = PhysicalParams(omega=omega, omega_ref=omega_ref, beta=float(beta))
    max_rate, bound, _ = lloyd_check(p)
    ok = max_rate <= bound
    status = "satisfied" if ok else "VIOLATED"
    violated |= not ok
    print(f"{beta:10.3g} {internal_energy(p):12.5f} {max_rate:14.6f} {bound:14.6f}  {status}")

# hotter states have more internal energy, so the bound loosens much
# faster than the actual maximum rate grows: the bound is never tight
p = PhysicalParams(omega=omega, omega_ref=omega_ref, beta=0.01)
max_rate, bound, _ = lloyd_check(p)
print(f"\nslack at the hottest point: bound/max_rate = {bound / max_rate:.1f}x")
sys.exit(1 if violated else 0)
