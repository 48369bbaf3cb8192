"""Unit tests for the sieves and the exact coprime-pair sums.

Every accelerated path is checked against an oracle written directly from
the definition (pure-Python gcd loops, Fraction arithmetic); the
acceptance suite widens the same equivalences to their full ranges.
"""

import math
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridthresh import QuarterInt, sieve, u_mobius, v_fast, v_naive
from gridthresh.numtheory import _v_prepare

from conftest import RANDOM_SEED
from judges import u_naive


# -- definition-level oracles, independent of the library internals --------

def u_by_definition(p: int, q: int) -> int:
    return sum(1 for i in range(1, p + 1) for j in range(1, q + 1)
               if math.gcd(i, j) == 1)


def v_by_definition(t: Fraction, k: Fraction) -> Fraction:
    total = Fraction(0)
    for i in range(1, math.ceil(t) + 1):
        for j in range(1, math.ceil(k) + 1):
            if math.gcd(i, j) == 1:
                total += (t + 1 - i) * (k + 1 - j)
    return total


def mu_by_definition(x: int) -> int:
    result = 1
    d = 2
    while d * d <= x:
        if x % d == 0:
            x //= d
            if x % d == 0:
                return 0
            result = -result
        d += 1
    if x > 1:
        result = -result
    return result


def phi_by_definition(x: int) -> int:
    return sum(1 for i in range(1, x + 1) if math.gcd(i, x) == 1)


# -- sieve ------------------------------------------------------------------

def test_sieve_rejects_zero():
    with pytest.raises(ValueError):
        sieve(0)


def test_sieve_limit_one():
    t = sieve(1)
    assert t.mu[1] == 1
    assert t.phi[1] == 1
    assert t.Phi[1] == 1
    assert t.psi(1) == 1


def test_mu_squarefree_values():
    t = sieve(10)
    assert t.mu[6] == 1   # two distinct primes
    assert t.mu[4] == 0   # square factor


def test_phi_summatory_small():
    t = sieve(4)
    assert t.Phi[4] == 6
    assert t.psi(4) == Fraction(8, 3)


def test_sieve_matches_definitions():
    t = sieve(400)
    for x in range(1, 401):
        assert t.mu[x] == mu_by_definition(x), x
        assert t.phi[x] == phi_by_definition(x), x


MU_BY_DEFINITION = [0] + [mu_by_definition(x) for x in range(1, 363)]


@pytest.mark.parametrize("limits", [
    range(1, 201),
    # the large-prime fix-up depends on isqrt(limit): straddle p^2 for p = 11, 13, 19
    (120, 121, 122, 168, 169, 170, 360, 361, 362),
])
def test_mu_sieve_matches_definition_at_every_limit(limits):
    for limit in limits:
        assert sieve(limit).mu.tolist() == MU_BY_DEFINITION[: limit + 1], limit


def test_psi_cache_is_thread_safe():
    expected = sieve(3000).psi(3000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            tables = sieve(3000)
            results: list = []

            def work() -> None:
                try:
                    results.append(tables.psi(3000))
                except Exception as exc:  # a corrupted cache raises, e.g. IndexError
                    results.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
            assert tables.psi(2999) + Fraction(int(tables.phi[3000]), 3000) == expected
    finally:
        sys.setswitchinterval(interval)


def test_divisor_sum_identities():
    t = sieve(300)
    for n in range(2, 301):
        divisors = [d for d in range(1, n + 1) if n % d == 0]
        assert sum(int(t.mu[d]) for d in divisors) == 0, n
        assert sum(int(t.phi[d]) for d in divisors) == n, n


def test_prime_entries():
    t = sieve(200)
    primes = [p for p in range(2, 201) if all(p % d for d in range(2, p))]
    for p in primes:
        assert t.mu[p] == -1
        assert t.phi[p] == p - 1


def test_phi_psi_strictly_increasing():
    t = sieve(500)
    assert np.all(np.diff(t.Phi[1:]) > 0)
    previous = Fraction(0)
    for k in range(1, 201):
        current = t.psi(k)
        assert current > previous
        previous = current


def test_psi_argument_range():
    t = sieve(10)
    with pytest.raises(ValueError):
        t.psi(0)
    with pytest.raises(ValueError):
        t.psi(11)


def test_tables_are_read_only():
    t = sieve(50)
    with pytest.raises(ValueError):
        t.mu[3] = 0
    with pytest.raises(ValueError):
        t.phi[3] = 0


# -- U ------------------------------------------------------------------

def test_u_naive_examples():
    assert u_naive(1, 1) == 1
    assert u_naive(2, 2) == 3
    assert u_naive(3, 3) == 7
    assert u_naive(4, 4) == 11   # A018805(4)
    assert u_naive(0, 9) == 0
    assert u_naive(9, 0) == 0


def test_u_naive_matches_definition():
    for p in range(0, 13):
        for q in range(0, 13):
            assert u_naive(p, q) == u_by_definition(p, q)


def test_u_naive_rejects_negative():
    with pytest.raises(ValueError):
        u_naive(-1, 5)


@given(st.integers(0, 60), st.integers(0, 60))
def test_u_symmetry(p, q):
    assert u_naive(p, q) == u_naive(q, p)


def test_u_mobius_examples(tables512):
    assert u_mobius(1, 1, tables512) == 1
    assert u_mobius(3, 3, tables512) == 7
    assert u_mobius(300, 200, tables512) == 36614  # frozen from u_naive
    assert u_naive(300, 200) == 36614


def test_u_mobius_equals_naive_exhaustive_small(tables512):
    for t in range(0, 41):
        for k in range(0, 41):
            assert u_mobius(t, k, tables512) == u_naive(t, k), (t, k)


def test_u_mobius_equals_naive_random_large(tables512):
    rng = random.Random(RANDOM_SEED)
    for _ in range(60):
        t, k = rng.randint(1, 512), rng.randint(1, 512)
        assert u_mobius(t, k, tables512) == u_naive(t, k), (t, k)


def test_u_mobius_insufficient_sieve():
    t = sieve(10)
    with pytest.raises(ValueError):
        u_mobius(100, 50, t)


# -- V ------------------------------------------------------------------

def test_v_naive_examples():
    assert v_naive(0, 0) == QuarterInt(0)
    assert v_naive(2, 2).as_int() == 8
    assert v_naive(Fraction(3, 2), Fraction(3, 2)).value == Fraction(15, 4)
    assert v_naive(Fraction(7, 2), Fraction(5, 2)).value == Fraction(123, 4)


def test_v_naive_matches_definition():
    for dt in range(0, 16):
        for dk in range(0, 16):
            t, k = Fraction(dt, 2), Fraction(dk, 2)
            assert v_naive(t, k).value == v_by_definition(t, k), (t, k)


def test_v_naive_rejects_negative():
    with pytest.raises(ValueError):
        v_naive(-2, 3)
    # -1/2 arises from degenerate grids and is an empty sum
    assert v_naive(Fraction(-1, 2), 10) == QuarterInt(0)


@given(st.integers(0, 40), st.integers(0, 40))
def test_v_symmetry(dt, dk):
    assert v_naive(Fraction(dt, 2), Fraction(dk, 2)) == v_naive(Fraction(dk, 2), Fraction(dt, 2))


def test_v_fast_examples(tables512):
    assert v_fast(1, 1, tables512).as_int() == 1
    assert v_fast(500, 500, tables512) == v_naive(500, 500)
    assert v_fast(500, 500, tables512).as_int() == 9574944776  # frozen from v_naive
    assert v_fast(Fraction(7, 2), Fraction(5, 2), tables512) == v_naive(Fraction(7, 2), Fraction(5, 2))


def test_v_fast_equals_naive_exhaustive_small(tables512):
    for dt in range(0, 61):
        for dk in range(dt, 61):
            th, kh = Fraction(dt, 2), Fraction(dk, 2)
            assert v_fast(th, kh, tables512) == v_naive(th, kh), (dt, dk)


def test_v_fast_equals_naive_random_large(tables512):
    rng = random.Random(RANDOM_SEED)
    for _ in range(40):
        dt, dk = rng.randint(0, 800), rng.randint(0, 800)
        th, kh = Fraction(dt, 2), Fraction(dk, 2)
        assert v_fast(th, kh, tables512) == v_naive(th, kh), (dt, dk)


def test_v_fast_insufficient_sieve():
    t = sieve(10)
    with pytest.raises(ValueError):
        v_fast(100, 100, t)


# -- the V/U identity family (unit-scale; full range in acceptance) ---------

_IDENTITY_TABLES = sieve(64)


def quad(t, k, tables=_IDENTITY_TABLES):
    return v_fast(t, k, tables).quadrupled


@given(st.integers(1, 60), st.integers(1, 60))
def test_vprop1_halves_between_consecutive(t, k):
    lhs = quad(t, k - 1) + quad(t, k)
    rhs = 2 * quad(t, Fraction(2 * k - 1, 2))
    assert lhs == rhs


def test_vprop1_for_half_integer_t():
    # the identity is stated for real t; exercise half-integer t too
    for dt in range(0, 31):
        for k in range(1, 16):
            lhs = quad(Fraction(dt, 2), k - 1) + quad(Fraction(dt, 2), k)
            assert lhs == 2 * quad(Fraction(dt, 2), Fraction(2 * k - 1, 2))


@given(st.integers(1, 25), st.integers(1, 25))
def test_vprop2_v_is_double_prefix_sum_of_u(t, k):
    total = sum(u_mobius(p, q, _IDENTITY_TABLES)
                for p in range(1, t + 1) for q in range(1, k + 1))
    assert v_fast(t, k, _IDENTITY_TABLES).as_int() == total


@given(st.integers(1, 40), st.integers(1, 40))
def test_vprop3_column_sum(t, k):
    lhs = sum(u_mobius(p, k, _IDENTITY_TABLES) for p in range(1, t + 1))
    assert lhs == (v_fast(t, k, _IDENTITY_TABLES).as_int()
                   - v_fast(t, k - 1, _IDENTITY_TABLES).as_int())


@given(st.integers(1, 50), st.integers(1, 50))
def test_vprop4_u_as_second_difference(t, k):
    rhs = (v_fast(t, k, _IDENTITY_TABLES).as_int()
           - v_fast(t, k - 1, _IDENTITY_TABLES).as_int()
           - v_fast(t - 1, k, _IDENTITY_TABLES).as_int()
           + v_fast(t - 1, k - 1, _IDENTITY_TABLES).as_int())
    assert u_mobius(t, k, _IDENTITY_TABLES) == rhs


@given(st.integers(1, 50), st.integers(1, 50))
def test_vprop5_half_shift(t, k):
    # in quadrupled units: 4U + 2(4V(t,k-1) + 4V(t-1,k)) == 4 * (4V(t-1/2,k-1/2))
    u = u_mobius(t, k, _IDENTITY_TABLES)
    q1 = quad(t, k - 1)
    q2 = quad(t - 1, k)
    qh = quad(Fraction(2 * t - 1, 2), Fraction(2 * k - 1, 2))
    assert 4 * u + 2 * (q1 + q2) == 4 * qh


# -- half/quarter integer plumbing ------------------------------------------

def test_halfint_coercion():
    # an int, any integer operator.index accepts, or a Fraction with
    # denominator 1 or 2; the kernels see it doubled
    assert _v_prepare(3, Fraction(7, 2))[:2] == (6, 7)
    assert _v_prepare(np.int64(3), Fraction(6, 2))[:2] == (6, 6)
    assert _v_prepare(np.int32(-1), Fraction(-1, 2))[:2] == (-2, -1)
    assert v_naive(np.int64(5), np.uint8(3)) == v_naive(5, 3)
    assert v_fast(Fraction(7, 2), np.int16(3), _IDENTITY_TABLES) == v_naive(Fraction(7, 2), 3)
    with pytest.raises(ValueError):
        v_naive(Fraction(1, 3), 2)
    with pytest.raises(TypeError):
        v_naive(1.5, 2)
    with pytest.raises(TypeError):
        v_fast(2, 2.0, _IDENTITY_TABLES)


def test_halfint_ceil():
    assert _v_prepare(6, Fraction(7, 2))[2:] == (6, 4)
    assert _v_prepare(Fraction(3, 1), np.int64(3))[2:] == (3, 3)
    assert _v_prepare(Fraction(-1, 2), -1)[2:] == (0, -1)


def test_quarterint_exactness():
    q = QuarterInt(15)
    assert q.value == Fraction(15, 4)
    assert not q.is_integer
    with pytest.raises(ValueError):
        q.as_int()
    assert QuarterInt(32).as_int() == 8

