"""
Half-period complexity and oscillation amplitude versus temperature
===================================================================

Sweeping the inverse temperature shows two limits: toward zero
temperature the half-period complexity settles onto the closed-form
floor sqrt(ln^2 6 + 2 ln^2(omega_ref/omega)) and the oscillation
amplitude is exponentially suppressed; toward infinite temperature the
amplitude saturates at ln((omega_ref^2 + omega^2)/(2 omega_ref omega)).
"""

import io
import math

from landau_tfd import LN6, PhysicalParams, SweepConfig, SweepRange, run_beta_sweep

omega, omega_ref = 2.0, 1.0

config = SweepConfig(
    mode="beta-sweep",
    params=PhysicalParams(omega=omega, omega_ref=omega_ref, beta=1.0),
    range_=SweepRange(1e-4, 1e3, 15, log=True),
)
table = run_beta_sweep(config)

saturation = math.log((omega_ref**2 + omega**2) / (2.0 * omega_ref * omega))
floor = math.sqrt(LN6**2 + 2.0 * math.log(omega_ref / omega) ** 2)
print(f"amplitude saturation (hot limit) = {saturation:.6f}")
print(f"complexity floor (cold limit)    = {floor:.6f}\n")

print(f"{'beta':>12s} {'C(T/2)':>12s} {'amplitude':>12s}")
for beta, comp, amp in zip(*(table.column(n) for n in ("beta", "complexity_half_period", "amplitude"))):
    print(f"{beta:12.4g} {comp:12.6f} {amp:12.3e}")

# the same table serializes to CSV with the full configuration echoed
# in the header, so the output alone reproduces the run
print("\nfirst lines of the CSV emission:")
csv = io.StringIO()
table.to_csv(csv)
for line in csv.getvalue().splitlines()[:3]:
    print(" ", line[:100])
