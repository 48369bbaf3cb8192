"""Exact counts of two-dimensional threshold functions.

A threshold function on the (m+1) x (n+1) lattice is a 0/1 labelling
separable by a straight line, zeros on the closed side.  The closed
formula counts them exactly:

    N(m, n) = (2m + 1)(2n + 1) + 1 + 4 V(m, n)

with V the weighted coprime-pair sum.  Everything below is exact integer
arithmetic, whatever the size.
"""

import time

from gridthresh import (
    GridSpec,
    breakdown,
    count_p,
    count_p_sequence,
    count_total,
    kernel_sieve_limit,
    sieve,
)

# a sieve to 1000 covers every grid below (and P(1..1001))
tables = sieve(1000)

print("Small grids:")
for m, n in [(0, 0), (1, 0), (1, 1), (2, 2), (2, 3), (5, 6)]:
    print(f"  N({m},{n}) = {count_total(GridSpec(m, n), tables)}")

# P(k, 2) counts threshold functions of two k-valued inputs; the square
# grid of extent k-1 carries them.  A whole run of P values (an OEIS
# b-file, A114146) comes from one pass over the totients
print("\nP(k, 2) for k = 1..8:")
print(" ", count_p_sequence(8, tables))

# the stable/unstable decomposition of the class F (functions vanishing
# at the origin, constant zero excluded): N = 2(|F| + 1)
print("\nBreakdown of the 3 x 3 grid:")
b = breakdown(GridSpec(2, 2), tables)
print(f"  stable {b.stable}, unstable {b.unstable}, |F| = {b.f_class}, "
      f"total {b.total} [{b.provenance}]")

# scale: a million-valued logic, still exact; a single term goes through
# the blocked Moebius kernel, which sieves only to about 8 k^(2/3) and
# gets the weighted Mertens sums above that from a batched recursion,
# computed per call at the block ends alone
started = time.perf_counter()
big_tables = sieve(kernel_sieve_limit(10**6 - 1, 10**6 - 1))
value = count_p(10**6, big_tables)
elapsed = time.perf_counter() - started
print(f"\nP(10^6, 2) has {len(str(value))} digits "
      f"(computed in {elapsed:.2f}s including the sieve):")
print(f"  {value}")
