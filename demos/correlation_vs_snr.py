"""How much should the two encoders correlate their inputs? Below a critical
SNR the best strategy is full cooperation (correlation 1); at high SNR the
correlation settles at a closed-form limit.

Run:  python demos/correlation_vs_snr.py
"""

from fsmac import (
    SolverConfig,
    correlation_profile_numeric,
    rho_infinity,
    snr_critical,
    snr_critical_db,
)

for c in (0.1, 0.3, 0.5):
    print(f"links c12 = c21 = {c}:")
    print(f"   critical SNR: {snr_critical(c, c):.4f} linear "
          f"({snr_critical_db(c, c):.2f} dB)")
    print(f"   infinite-SNR correlation: {rho_infinity(c, c):.4f}")

print("\nnumeric profile at c12 = c21 = 0.3:")
cfg = SolverConfig(max_steps=4000)
grid = [-15.0, -10.0, -5.0, 0.0, 5.0, 10.0, 20.0, 40.0]
profile = correlation_profile_numeric(0.3, 0.3, grid, cfg)
for s_db, rho in zip(profile.snr_db, profile.rho):
    bar = "#" * int(round(40 * rho))
    print(f"   {s_db:6.1f} dB  rho = {rho:.4f}  {bar}")
print(f"   (limit {rho_infinity(0.3, 0.3):.4f})")
