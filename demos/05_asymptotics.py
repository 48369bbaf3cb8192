"""Measuring the asymptotic laws against exact counts.

N(k, k) approaches (6/pi^2) k^4; for m >> n the better estimate is
2((n+1) Psi(n) - Phi(n)) m^2 with the coefficient taken as an exact
rational.  Exact counting turns every error term into a measurable
residual.
"""

import math

from gridthresh import (
    GridSpec,
    anisotropic_coefficient,
    count_total,
    leading_estimate,
    residual_sweep,
    sieve,
)

tables = sieve(100_000)

print("N(k,k) closing in on (6/pi^2) k^4:")
for k in (16, 64, 256, 1024, 4096):
    exact = count_total(GridSpec(k, k), tables)
    ratio = exact * math.pi**2 / (6 * k**4)
    print(f"  k = {k:5d}: ratio = {ratio:.6f}")

print("\nAnisotropic regime (m >> n), exact rational coefficients:")
for n in (1, 2, 4, 8):
    coeff = anisotropic_coefficient(n, tables)
    m = 100_000
    exact = count_total(GridSpec(m, n), tables)
    est = coeff * m * m  # exact until printed
    print(f"  n = {n}: coefficient {coeff} = {float(coeff):.6f}, "
          f"N({m},{n})/estimate = {float(exact / est):.6f}")

print("\nWorst normalized residuals over the default sweep "
      "(|exact - estimate| / error scale):")
rows = residual_sweep(tables)
for family in ("umk", "vmk", "umkC", "vmkC", "total_leading", "total_anisotropic"):
    worst = max(r.normalized_residual for r in rows if r.family == family)
    print(f"  {family:18s} {worst:.4f}")
