"""The odd-only mu sieve and the base-moment Mertens pass against the code they replaced.

mu_by_full_sieve and mertens_pass_by_static_chunks below are the earlier
numtheory._mu_table and numtheory._mertens_pass, kept as they were: a
sieve over every index with a full-length rad, and a pass whose chunks
shrink to 2^62 // top^2 terms d^j mu(d) so that every in-chunk sum fits
int64.  The production versions must equal them bit for bit: the same
values in the same dtype.
"""

import math
import random

import numpy as np
import pytest

from gridthresh.errors import CapacityError
from gridthresh.numtheory import _SPAN, _mertens_pass, _mu_table, _small_primes

from conftest import RANDOM_SEED

_STATIC_SPAN = 2**16  # the earlier pass's longest chunk
_INT64_SAFE = 2**62


def mu_by_full_sieve(n: int) -> np.ndarray:
    # rad(x) <= x, so int32 holds it below 2^31 and halves the memory traffic
    dtype = np.int32 if n < 2**31 else np.int64
    mu = np.ones(n + 1, dtype=np.int8)
    rad = np.ones(n + 1, dtype=dtype)
    for p in _small_primes(math.isqrt(n)):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        rad[p::p] *= p
    # a factor of -1 where rad < index, with no boolean scatter
    mu *= 1 - 2 * (rad != np.arange(n + 1, dtype=dtype)).view(np.int8)
    mu[0] = 0
    return mu


def mertens_pass_by_static_chunks(mu: np.ndarray, points: np.ndarray) -> np.ndarray:
    top = int(points[-1])
    if top * top >= _INT64_SAFE:
        raise CapacityError(f"weighted Mertens point {top} past 2^31")
    step = min(_STATIC_SPAN, _INT64_SAFE // (top * top))
    total = np.zeros((3, 1), dtype=np.int64)
    parts = []
    for lo in range(1, top + 1, step):
        hi = min(lo + step, top + 1)
        # segments start at lo and one past each point short of hi - 1
        first, inner, last = np.searchsorted(points, (lo, hi - 1, hi))
        starts = np.concatenate(([0], points[first:inner] - (lo - 1)))
        d = np.arange(lo, hi, dtype=np.int64)
        m0 = mu[lo:hi]
        m1 = m0 * d
        sums = np.empty((3, len(starts)), dtype=np.int64)
        np.add.reduceat(m0, starts, dtype=np.int64, out=sums[0])
        np.add.reduceat(m1, starts, out=sums[1])
        np.add.reduceat(m1 * d, starts, out=sums[2])
        np.cumsum(sums, axis=1, out=sums)  # at each point, then the chunk's total
        if total.dtype != object and hi**3 >= _INT64_SAFE:
            if int(np.abs(total).max()) + int(np.abs(sums).max()) >= _INT64_SAFE:
                total = total.astype(object)
        if last > first:
            parts.append(total + sums[:, : last - first])
        total = total + sums[:, -1:]
    return np.concatenate(parts, axis=1)


def assert_same_mu(n: int, mu: np.ndarray) -> None:
    expected = mu_by_full_sieve(n)
    assert mu.dtype == expected.dtype and np.array_equal(mu, expected), n


def assert_same_pass(mu: np.ndarray, points: np.ndarray) -> None:
    got = _mertens_pass(mu, points)
    expected = mertens_pass_by_static_chunks(mu, points)
    assert got.dtype == expected.dtype, (int(points[-1]), got.dtype, expected.dtype)
    assert got.tolist() == expected.tolist(), int(points[-1])


def _odd_primes(limit: int) -> list[int]:
    return [p for p in _small_primes(limit) if p > 2]


# -- the mu sieve -------------------------------------------------------------

def test_mu_equals_the_full_sieve_at_every_limit_up_to_3000():
    for n in range(1, 3001):  # odd and even limits, each odd prime square among them
        assert_same_mu(n, _mu_table(n))


def test_mu_equals_the_full_sieve_around_odd_prime_squares():
    # the sieve's primes are those up to isqrt(n): they change at p^2
    primes = _odd_primes(320) + [997, 1009]
    for p in primes:
        for n in range(p * p - 2, p * p + 3):
            assert_same_mu(n, _mu_table(n))


def test_mu_equals_the_full_sieve_at_a_million():
    assert_same_mu(10**6, _mu_table(10**6))
    assert_same_mu(10**6 + 1, _mu_table(10**6 + 1))


def test_sieved_tables_equal_the_full_sieve_at_ten_million(tables10m):
    assert_same_mu(10**7, tables10m.mu)


# -- the Mertens pass ---------------------------------------------------------

@pytest.mark.parametrize("top", [_SPAN - 1, _SPAN, _SPAN + 1, 2 * _SPAN + 1])
def test_mertens_pass_equals_the_static_chunks_at_the_chunk_edges(top):
    mu = _mu_table(3 * _SPAN)
    rng = random.Random(RANDOM_SEED + 7 + top)
    edges = {1, 2, _SPAN - 1, _SPAN, _SPAN + 1, _SPAN + 2, 2 * _SPAN, 2 * _SPAN + 1, top}
    for extra in (0, 5, 400):
        points = edges | {rng.randrange(1, top + 1) for _ in range(extra)}
        assert_same_pass(mu, np.array(sorted(x for x in points if x <= top), dtype=np.int64))
    assert_same_pass(mu, np.array([top], dtype=np.int64))  # one segment per chunk


def test_mertens_pass_equals_the_static_chunks_on_seeded_points(tables10m):
    # chunks past hi = 1.6 * 10^6 are checked by their extremes, not statically
    rng = random.Random(RANDOM_SEED + 8)
    for top, count in ((10**7, 3000), (10**7, 20), (2 * 10**6, 1000), (3 * 10**5, 300)):
        points = {top} | {rng.randrange(1, top) for _ in range(count)}
        assert_same_pass(tables10m.mu, np.array(sorted(points), dtype=np.int64))


def test_mertens_pass_equals_the_static_chunks_past_int64():
    # with mu = 1 everywhere M_2(x) = x(x+1)(2x+1)/6 passes 2^62 near x = 2.4e6,
    # so the totals, then every chunk's sums, become Python ints
    n = 3_100_000
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    points = np.array([1, 1000, 1_200_000, 2_400_000, 2_500_000, 2_750_000, n], dtype=np.int64)
    assert_same_pass(mu, points)
    assert _mertens_pass(mu, points).dtype == object
    assert_same_pass(mu, points[:3])
    assert _mertens_pass(mu, points[:3]).dtype == np.int64
