"""The judges' fast paths against the sums they shortcut.

Up to _U_TABLE_SIDE on both sides u_naive reads U(p, q) from prefix sums
of the gcd == 1 matrix; its judge is the chunked count it used before,
kept below as u_by_gcd_rows.  u_mobius and v_fast sum in int64 when a
bound from their arguments proves that exact; at both sides of that bound
they must equal the same sums taken in Python ints.
"""

import math
import random
import sys
import threading

import numpy as np

from gridthresh import HalfInt, numtheory, sieve, u_mobius, u_naive, v_fast
from gridthresh.numtheory import _U_TABLE_SIDE, _coprime_counts

from conftest import RANDOM_SEED


def u_by_gcd_rows(p: int, q: int) -> int:
    """#{(i, j) in [1, p] x [1, q] : gcd(i, j) = 1}, a block of rows at a time."""
    if p == 0 or q == 0:
        return 0
    b = np.arange(1, q + 1, dtype=np.int64)
    total = 0
    step = max(1, 4_000_000 // q)
    for lo in range(1, p + 1, step):
        a = np.arange(lo, min(lo + step, p + 1), dtype=np.int64)
        total += int(np.count_nonzero(np.gcd.outer(a, b) == 1))
    return total


def test_every_small_pair_equals_the_gcd_count():
    for p in range(81):
        for q in range(81):
            assert u_naive(p, q) == u_by_gcd_rows(p, q), (p, q)


def test_seeded_pairs_equal_the_gcd_count():
    rng = random.Random(RANDOM_SEED)
    for _ in range(12):
        p, q = rng.randint(0, 2000), rng.randint(0, 2000)
        assert u_naive(p, q) == u_by_gcd_rows(p, q), (p, q)


def test_pairs_straddling_the_table_equal_the_gcd_count():
    side = _U_TABLE_SIDE
    assert side == 1024
    for p in (1, side, side + 1):
        for q in (2, side, side + 1):
            assert u_naive(p, q) == u_by_gcd_rows(p, q), (p, q)


def test_table_is_built_once_under_its_lock(monkeypatch):
    built = []
    monkeypatch.setattr(numtheory, "_u_table", built)  # as if never built
    seen = []
    workers = [threading.Thread(target=lambda: seen.append(_coprime_counts()))
               for _ in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(built) == 1 and len(seen) == 4
    assert all(table is built[0] for table in seen)
    assert not built[0].flags.writeable


def test_linear_judges_equal_python_ints_across_their_int64_bound():
    tables = sieve(30)
    mu = tables.mu.tolist()
    for t in (1, 2, 7, 30):
        edge = (2**62 - 1) // (t * t)  # the largest k with min(t, k) t k < 2^62
        for k in (edge, edge + 1, 2**62 // t, 2**63 + 5):
            expected = sum(mu[s] * (t // s) * (k // s) for s in range(1, t + 1))
            assert u_mobius(t, k, tables) == expected, (t, k)

    def doubled_a(T, d):
        q = -(-T // 2) // d
        return q * (T + 2 - d * (q + 1))

    def bound(T, ck):  # v_fast's: ct terms, each within ct (T + 2) ck (2 ck + 2)
        ct = -(-T // 2)
        return ct * ct * (T + 2) * ck * (2 * ck + 2)

    for T in (1, 2, 13, 60):
        ct = -(-T // 2)
        edge = math.isqrt(2**62 // (2 * ct * ct * (T + 2)))  # then the largest ck below it
        while bound(T, edge) >= 2**62:
            edge -= 1
        while bound(T, edge + 1) < 2**62:
            edge += 1
        # past the edge, up to where one side's 2A alone would still fit int64
        for ck in (edge, edge + 1, math.isqrt(2**61) - 1):
            expected = sum(mu[d] * doubled_a(T, d) * doubled_a(2 * ck, d)
                           for d in range(1, ct + 1))
            assert v_fast(HalfInt(T), ck, tables).quadrupled == expected, (T, ck)
