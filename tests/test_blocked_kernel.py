"""The blocked kernel against the linear kernels and the definitions.

uv_blocked returns U at the ceilings and 4V of one argument pair from one
set of blocks of constant quotients, weighted by the Mertens sums
M_j(x) = sum_{d<=x} d^j mu(d), recorded at the block ends alone: by one
pass over mu within the sieve, by a batched recursion above it.
blocked_u and blocked_v below are its two halves.
Most checks here compare them with an evaluation that shares none of
that machinery: gcd tables straight from the definition, u_naive (in
judges.py) and v_naive,
and the linear kernels u_mobius/v_fast.  The block sums themselves run in
uint64 residues joined by CRT; their judge is the earlier Python-int
block sum over the same blocks, kept below as
u_by_python_ints/v_by_python_ints.
"""

import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from gridthresh import (
    GridSpec,
    QuarterInt,
    breakdown,
    count_p,
    count_total,
    kernel_sieve_limit,
    sieve,
    u_mobius,
    uv_blocked,
    v_fast,
    v_naive,
    weighted_mertens,
)
from gridthresh.cli import COUNT_SIDE_CAP
from gridthresh.errors import CapacityError
import gridthresh.numtheory as numtheory
from gridthresh.numtheory import (
    _CRT_MODULI,
    _RESIDUE_PRIMES,
    KERNEL_SIEVE_C,
    _as_exact,
    _SPAN,
    _block_ends,
    _blocks,
    _dot,
    _mertens_at,
    _mertens_pass,
    _power_sum,
    _v_prepare,
)

from conftest import RANDOM_SEED
from judges import u_naive

SMALL_DOUBLED = 400  # doubled arguments -2..400, ceilings up to 200


def blocked_u(t, k, tables) -> int:
    return uv_blocked(t, k, tables)[0]


def blocked_v(t, k, tables) -> QuarterInt:
    return uv_blocked(t, k, tables)[1]


def definitional_tables(top: int) -> tuple[np.ndarray, np.ndarray]:
    """U(t, k) and 4V at every doubled pair, from the coprimality matrix.

    With C the coprime indicator on [1, top]^2, 4V(t, k) =
    sum_{i<=ceil t, j<=ceil k} C (T + 2 - 2i)(K + 2 - 2j), expanded into
    2-D prefix sums of C, iC, jC and ijC.
    """
    i = np.arange(top + 1, dtype=np.int64)
    coprime = (np.gcd.outer(i, i) == 1).astype(np.int64)
    coprime[0, :] = coprime[:, 0] = 0

    def prefix(weights: np.ndarray) -> np.ndarray:
        return np.cumsum(np.cumsum(weights, axis=0), axis=1)

    s00 = prefix(coprime)
    s10 = prefix(coprime * i[:, None])
    s01 = prefix(coprime * i[None, :])
    s11 = prefix(coprime * np.outer(i, i))
    doubled = np.arange(-2, 2 * top + 1, dtype=np.int64)
    ceil = np.maximum(0, -((-doubled) // 2))
    ct, ck = np.meshgrid(ceil, ceil, indexing="ij")
    tt, kk = np.meshgrid(doubled + 2, doubled + 2, indexing="ij")
    four_v = (tt * kk * s00[ct, ck] - 2 * tt * s01[ct, ck]
              - 2 * kk * s10[ct, ck] + 4 * s11[ct, ck])
    return s00, four_v


def test_blocked_kernels_equal_every_small_doubled_pair():
    top = SMALL_DOUBLED // 2
    # below c^3 the kernel's sieve limit is the argument itself, so this
    # one table is both the full sieve and the one at kernel_sieve_limit
    assert kernel_sieve_limit(top, top) == top
    tables = sieve(top)
    u_table, v_table = definitional_tables(top)
    doubled = range(-2, SMALL_DOUBLED + 1)
    for T in doubled:
        row = v_table[T + 2]
        got = [blocked_v(Fraction(T, 2), Fraction(K, 2), tables).quadrupled for K in doubled]
        assert got == row.tolist(), T
    for t in range(top + 1):
        assert [blocked_u(t, k, tables) for k in range(top + 1)] == u_table[t].tolist(), t
    # the linear kernels on a stride, the naive ones on a coarser one
    for T in range(-2, SMALL_DOUBLED + 1, 13):
        for K in range(-2, SMALL_DOUBLED + 1, 11):
            assert blocked_v(Fraction(T, 2), Fraction(K, 2), tables) == v_fast(Fraction(T, 2), Fraction(K, 2), tables)
    for T in range(-2, SMALL_DOUBLED + 1, 37):
        for K in range(-1, SMALL_DOUBLED + 1, 41):
            assert blocked_v(Fraction(T, 2), Fraction(K, 2), tables) == v_naive(Fraction(T, 2), Fraction(K, 2))
    for t in range(0, top + 1, 3):
        for k in range(0, top + 1, 5):
            assert blocked_u(t, k, tables) == u_mobius(t, k, tables)
    for t in range(0, top + 1, 19):
        for k in range(0, top + 1, 23):
            assert blocked_u(t, k, tables) == u_naive(t, k)


def test_weighted_mertens_recursion_equals_prefix_sums():
    limit = 5000
    mu = sieve(limit).mu.astype(np.int64)
    d = np.arange(limit + 1, dtype=np.int64)
    expected = np.cumsum(np.stack([mu, mu * d, mu * d * d], axis=1), axis=0)
    small = sieve(math.isqrt(limit) + 4)  # every x above 75 goes through the recursion
    for x in range(limit + 1):
        assert weighted_mertens(x, small) == tuple(expected[x].tolist()), x
    with pytest.raises(ValueError):
        weighted_mertens(-1, small)


def test_weighted_mertens_refuses_x_past_its_sieve_before_allocating():
    tiny = sieve(3)
    assert weighted_mertens(15, tiny) == weighted_mertens(15, sieve(15))  # isqrt(15) = 3
    tracemalloc.start()
    try:
        for x in (16, 10**18):  # isqrt(x) > 3: the recursion would read past the sieve
            with pytest.raises(CapacityError):
                weighted_mertens(x, tiny)
        with pytest.raises(CapacityError):  # and the kernel's own entry, before any pass
            _mertens_at(tiny, _block_ends(16, 16))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_mertens_function_equals_the_published_values():
    # M(10^8) = 1928 and M(10^9) = -222 (OEIS A084237; Deleglise & Rivat,
    # Exp. Math. 1996); M(10^10) = -33 722 takes seconds and stays out
    for x, expected in ((10**8, 1928), (10**9, -222)):
        assert weighted_mertens(x, sieve(kernel_sieve_limit(x, x)))[0] == expected, x
    # a sieve at isqrt(10^8) sends every point above 10^4 through the recursion
    assert weighted_mertens(10**8, sieve(10**4))[0] == 1928


def test_mertens_pass_is_exact_past_int64():
    # with mu = 1 everywhere M_2(x) = x(x+1)(2x+1)/6 passes 2^62 near x = 2.4e6
    n = 3_100_000
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    points = np.array([1, 1000, 1_200_000, 2_400_000, 2_500_000, 2_750_000, n], dtype=np.int64)
    values = _mertens_pass(mu, points)
    for x, got in zip(points.tolist(), values.T.tolist()):
        assert got == [x, x * (x + 1) // 2, x * (x + 1) * (2 * x + 1) // 6], x
    assert all(x * (x + 1) * (2 * x + 1) // 6 > 2**62 for x in points[-3:].tolist())


def test_mertens_pass_refuses_a_point_whose_terms_leave_int64():
    # mu(d) d^2 passes 2^62 from d = 2^31; refused before mu is read
    with pytest.raises(CapacityError):
        _mertens_pass(np.ones(4, dtype=np.int8), np.array([1, 2**31], dtype=np.int64))


def _random_pairs(rng: random.Random, count: int) -> list[tuple[Fraction, Fraction]]:
    pairs = []
    for _ in range(count):
        aspect = rng.uniform(1, 8)
        short = int(math.exp(rng.uniform(math.log(10**5), math.log(2 * 10**7 / aspect))))
        long = min(2 * 10**7, int(short * aspect))
        pair = [Fraction(short, 2), Fraction(long, 2)]  # doubled: odd values are half-integers
        rng.shuffle(pair)
        pairs.append((pair[0], pair[1]))
    return pairs


def test_blocked_kernels_through_the_recursion(tables10m):
    rng = random.Random(RANDOM_SEED)
    for t, k in _random_pairs(rng, 10) + [(Fraction(2 * 10**7, 2), Fraction(2 * 10**7 - 1, 2))]:
        at_limit = sieve(kernel_sieve_limit(math.ceil(t), math.ceil(k)))
        assert at_limit.limit < min(math.ceil(t), math.ceil(k))
        assert blocked_v(t, k, at_limit) == v_fast(t, k, tables10m), (t, k)
        if t.denominator == 1 and k.denominator == 1:
            u_args = (t.numerator, k.numerator)
            assert blocked_u(*u_args, at_limit) == u_mobius(*u_args, tables10m), (t, k)


def test_blocked_kernels_at_three_million(tables10m):
    # an unchecked int64 block sum gets P(3e6, 2) wrong
    k = 3 * 10**6
    at_limit = sieve(kernel_sieve_limit(k - 1, k - 1))
    assert blocked_v(k - 1, k - 1, at_limit) == v_fast(k - 1, k - 1, tables10m)
    assert blocked_u(k - 1, k, at_limit) == u_mobius(k - 1, k, tables10m)
    assert count_p(k, at_limit) == count_p(k, sieve(4 * at_limit.limit))


def test_blocked_kernels_full_sieve_equals_limit_sieve():
    full = sieve(20_000)
    rng = random.Random(RANDOM_SEED + 1)
    for _ in range(40):
        T, K = rng.randrange(1100, 40_001), rng.randrange(1100, 40_001)
        at_limit = sieve(kernel_sieve_limit((T + 1) // 2, (K + 1) // 2))
        assert blocked_v(Fraction(T, 2), Fraction(K, 2), at_limit) == blocked_v(Fraction(T, 2), Fraction(K, 2), full)
        m, n = T // 2, K // 2
        assert breakdown(GridSpec(m, n), sieve(kernel_sieve_limit(m, n))) == breakdown(GridSpec(m, n), full)


def test_blocked_kernels_share_one_tables_across_threads():
    t, k = 10**6, 1_234_567
    limit = kernel_sieve_limit(t, k)
    past_limit = (limit + 1, 3 * limit + 7, t, k, 10**8)  # isqrt(10^8) is within the limit

    def calls(tables) -> list:
        return [blocked_v(t, k, tables), blocked_u(t, k, tables),
                blocked_v(Fraction(t - 1, 2), Fraction(k - 1, 2), tables),
                *(weighted_mertens(x, tables) for x in past_limit)]

    expected = calls(sieve(limit))  # serially, on one tables
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            tables = sieve(limit)
            results: list = []

            def work() -> None:
                try:
                    results.append(calls(tables))
                except Exception as exc:  # a half-built table raises, e.g. KeyError
                    results.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
            assert set(tables._built) == {"mu"}
    finally:
        sys.setswitchinterval(interval)


def test_kernel_sieve_limit_rule():
    c3 = KERNEL_SIEVE_C**3
    assert kernel_sieve_limit(0, 0) == 1
    assert kernel_sieve_limit(c3, c3) == c3
    for t, k in [(c3 + 1, c3 + 1), (10**6, 10**6), (10**6, 5 * 10**9), (7, 10**9),
                 (10**9, 10**9), (123_456_789, 987_654_321)]:
        limit = kernel_sieve_limit(t, k)
        assert limit == kernel_sieve_limit(k, t)
        long = max(t, k)
        if limit < min(t, k):  # limit = ceil(c * long^(2/3)), in exact integers
            assert limit**3 >= c3 * long**2 > (limit - 1) ** 3
        else:
            assert limit == min(t, k)


def test_kernel_takes_numpy_integer_arguments():
    tables = sieve(10)
    assert uv_blocked(np.int64(5), 3, tables) == uv_blocked(5, 3, tables)
    assert uv_blocked(np.int32(7), Fraction(9, 2), tables) == uv_blocked(7, Fraction(9, 2), tables)
    with pytest.raises(TypeError):
        uv_blocked(5.0, 3, tables)


def test_kernel_sieve_limit_of_numpy_integers_equals_the_int_one():
    # K^2 = 9 * 10^18 would overflow int64 on the way to the cube root
    side = 3 * 10**9
    assert kernel_sieve_limit(side, side) == 16640671
    assert kernel_sieve_limit(np.int64(side), np.int64(side)) == 16640671
    with pytest.raises(TypeError):
        kernel_sieve_limit(10.0, 10)


def test_blocked_kernels_reject_bad_input():
    tables = sieve(10)
    assert uv_blocked(-1, 5, tables) == (0, QuarterInt(0))
    with pytest.raises(ValueError):
        blocked_v(Fraction(-3, 2), 5, tables)
    with pytest.raises(ValueError):
        blocked_u(100, 100, tables)
    with pytest.raises(ValueError):
        blocked_v(100, 100, tables)
    assert blocked_u(0, 10**12, tables) == 0
    assert blocked_v(Fraction(-1, 2), 10**12, tables).quadrupled == 0


def test_kernel_refuses_a_side_past_int64(monkeypatch):
    tiny = sieve(3)
    built = []
    original = numtheory._blocks

    def recording(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(numtheory, "_blocks", recording)
    for side in (10**19, Fraction(2 * 10**19 - 1, 2)):
        for args in ((side, 3), (3, side)):
            with pytest.raises(CapacityError):
                uv_blocked(*args, tiny)
    assert built == []  # refused before any block is built
    # the largest int64 side still runs: its first quotient plus one is 2^63
    side = 2**63 - 1
    assert uv_blocked(side, 3, tiny) == (u_mobius(side, 3, tiny), v_fast(side, 3, tiny))
    half = Fraction(2 * side - 1, 2)
    assert uv_blocked(half, 3, tiny) == (u_mobius(side, 3, tiny), v_fast(half, 3, tiny))


def test_u_at_half_integer_arguments_is_u_at_the_ceilings():
    tables = sieve(40)
    u_at = [[u_naive(a, b) for b in range(41)] for a in range(41)]
    for T in range(-2, 81):
        for K in range(-2, 81):
            ct, ck = max(0, -(-T // 2)), max(0, -(-K // 2))
            assert uv_blocked(Fraction(T, 2), Fraction(K, 2), tables)[0] == u_at[ct][ck], (T, K)


@given(st.lists(st.tuples(st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62)),
                min_size=0, max_size=200))
def test_dot_is_exact(rows):
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    assert _dot(a, b) == sum(x * y for x, y in rows)


def _progression_weight(t: int, m: int, r: int) -> int:
    """The sum of t + 1 - i over 1 <= i <= t with i = r mod m, for 1 <= r <= t."""
    last = (t - r) // m
    return (last + 1) * (t + 1 - r) - m * last * (last + 1) // 2


def test_linear_kernels_are_exact_past_int64():
    tiny = sieve(3)
    for t in (5 * 10**18, 10**30):  # 3t passes int64, then t itself does
        assert u_mobius(t, 3, tiny) == t + -(-t // 2) + t - t // 3
        # V(t, 3) sums (t + 1 - i)(4 - j) over the i <= t coprime to j <= 3
        v = (3 * _progression_weight(t, 1, 1) + 2 * _progression_weight(t, 2, 1)
             + _progression_weight(t, 3, 1) + _progression_weight(t, 3, 2))
        assert v_fast(t, 3, tiny).quadrupled == 4 * v
    # 2A(5e9, 1) = 5e9 (1e10 + 2 - 5e9 - 1) passes 2^63
    assert 5 * 10**9 * (5 * 10**9 + 1) > 2**63
    for t in (10**12, 5 * 10**9):
        assert v_fast(t, 3, tiny) == blocked_v(t, 3, tiny), t


# distinct ends of the two pairs where repeats are densest (3000 and 3827 with them)
PINNED_END_COUNTS = {(10**6, 10**6): 1999, (10**6, 2 * 10**6): 2826}


@given(st.integers(1, 300), st.integers(0, 10**8))
@example(10**6, 0)
@example(10**6, 10**6)
def test_block_ends_follow_the_short_side(short, extra):
    # every d up to min(short, isqrt(long)), then the quotients n // q <= short,
    # each once and ascending (extra = 0 is a square, where they repeat most)
    long = short + extra
    root = math.isqrt(long)
    expected = list(range(1, min(short, root) + 1))
    if root < short:
        expected = sorted(set(expected + [n // q for n in (short, long)
                                          for q in range(1, math.isqrt(n) + 1) if n // q <= short]))
    for ct, ck in ((short, long), (long, short)):
        ends = _block_ends(ct, ck)
        assert np.all(ends[1:] > ends[:-1])
        assert ends.tolist() == expected
    assert len(ends) == PINNED_END_COUNTS.get((short, long), len(ends))


def test_blocks_of_a_skewed_pair_allocate_for_the_short_side():
    tiny = sieve(3)
    t = 10**14
    tracemalloc.start()
    try:
        u, v = blocked_u(t, 3, tiny), blocked_v(t, 3, tiny)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert u == u_mobius(t, 3, tiny)
    assert v == v_fast(t, 3, tiny)


# -- the Mertens sums at the block ends against dense prefix sums ----------

def dense_mertens(mu: np.ndarray) -> np.ndarray:
    """M_j(x) for j = 0, 1, 2 and every x = 0..len(mu) - 1, by np.cumsum in Python ints."""
    d = np.arange(len(mu), dtype=object)
    m = mu.astype(object)
    return np.stack([np.cumsum(m), np.cumsum(m * d), np.cumsum(m * d * d)])


def mertens_recurse_per_point(x: int, prefix: np.ndarray, memo: dict) -> tuple[int, int, int]:
    """(M_0, M_1, M_2) at x above a dense prefix, one point at a time.

    The recursion as the kernel ran it before it was batched: the d <= r =
    isqrt(x) one by one, x // d above the prefix from the memo
    (d <= x // (top + 1)), the rest from the prefix; the d > r grouped by
    v = x // d <= r, each group weighted by the power sums over its range.
    """
    top = prefix.shape[1] - 1
    r = math.isqrt(x)
    assert r <= top
    n_memo = min(r, x // (top + 1))
    d = np.arange(n_memo + 1, r + 1, dtype=np.int64)
    at_y = prefix[:, x // d]
    v = np.arange(1, x // (r + 1) + 1, dtype=np.int64)
    at_v = prefix[:, v]
    upper, lower = x // v, np.maximum(x // (v + 1), r)
    d_powers = (np.ones_like(d), d, d * d)
    sums = []
    for j in range(3):
        s = sum(q**j * memo[x // q][j] for q in range(2, n_memo + 1))
        s += _dot(d_powers[j], at_y[j])
        s += _dot(at_v[j], _power_sum(upper, j, x) - _power_sum(lower, j, x))
        sums.append(1 - s)
    return sums[0], sums[1], sums[2]


def test_mertens_pass_equals_dense_prefix_at_every_block_end():
    limit = 300_000
    tables = sieve(limit)
    dense = dense_mertens(tables.mu)
    rng = random.Random(RANDOM_SEED + 5)
    # the pass runs in chunks of _SPAN from d = 1: ends on both sides of
    # its first boundaries, then seeded pairs, some past the limit
    pairs = [(_SPAN, _SPAN), (_SPAN + 1, _SPAN + 1), (2 * _SPAN, 3 * _SPAN + 1)]
    while len(pairs) < 200:
        short = rng.randrange(1, limit + 1)
        pairs.append((short, short + rng.randrange(0, 50 * short)))
    for ct, ck in pairs:
        ends = _block_ends(ct, ck)
        low = ends[ends <= limit]
        assert _mertens_at(tables, ends)[0].tolist() == dense[:, low].tolist(), (ct, ck)
    boundaries = np.array([1, _SPAN - 1, _SPAN, _SPAN + 1, 2 * _SPAN, 2 * _SPAN + 1, limit],
                          dtype=np.int64)
    assert _mertens_pass(tables.mu, boundaries).tolist() == dense[:, boundaries].tolist()


@pytest.mark.parametrize("top", [10**5, 10**6, 10**7, 10**8])
def test_batched_recursion_equals_the_per_point_recursion(top):
    rng = random.Random(RANDOM_SEED + 6 + top)
    limit = kernel_sieve_limit(top, top)
    tables = sieve(limit)
    prefix = dense_mertens(tables.mu)
    memo: dict = {}
    pairs = [(top, top)] + [(rng.randrange(limit + 1, top + 1), rng.randrange(limit + 1, top + 1))
                            for _ in range(3)]
    for ct, ck in pairs:
        ends = _block_ends(ct, ck)
        high = ends[ends > limit].tolist()
        assert high
        for x in sorted(set(high)):
            if x not in memo:
                memo[x] = mertens_recurse_per_point(x, prefix, memo)
        assert _mertens_at(tables, ends)[1] == [memo[x] for x in high], (ct, ck)
    assert weighted_mertens(top, tables) == memo[top]


def test_a_breakdown_makes_one_pass_over_mu(monkeypatch):
    passes = []
    original = numtheory._mertens_pass

    def recording(mu, points):
        passes.append(len(points))
        return original(mu, points)

    monkeypatch.setattr(numtheory, "_mertens_pass", recording)
    for m, n in [(30, 12), (1000, 3000), (10**6, 8 * 10**6), (8 * 10**6 + 1, 10**6)]:
        for count in (breakdown, count_total):
            passes.clear()
            count(GridSpec(m, n), sieve(kernel_sieve_limit(m, n)))
            assert len(passes) == 1, (m, n, count)
    # the tables at the limit of a pair past it recurse, and still pass once
    assert kernel_sieve_limit(10**6, 8 * 10**6) < 10**6


def test_a_kernel_call_keeps_nothing_on_its_tables():
    grid = GridSpec(10**6, 8 * 10**6)
    limit = kernel_sieve_limit(grid.m, grid.n)
    tables = sieve(limit)  # mu is sieved before the measurement
    expected = breakdown(grid, sieve(limit))
    # the 27 grids of at most 20 points with both sides >= 1
    small = [(m, n) for m in range(1, 20) for n in range(1, 20) if (m + 1) * (n + 1) <= 20]
    assert len(small) == 27
    tracemalloc.start()
    try:
        assert breakdown(grid, tables) == expected
        retained, peak = tracemalloc.get_traced_memory()
        for m, n in small:
            breakdown(GridSpec(m, n), tables)
        retained_after_small = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert peak < 16 * limit
    # kept, the Mertens sums at the breakdown's 6649 block ends would hold
    # about 180 kB; what stays is a few kB of the interpreter's own caches
    assert retained < 2**14
    assert retained_after_small < 2**14
    assert set(tables._built) == {"mu"}


# -- the residue block sums against the earlier Python-int block sum --------

def _judge_blocks(ct: int, ck: int, tables) -> tuple[np.ndarray, np.ndarray]:
    """Block ends and per-block sums of d^j mu(d), as the earlier kernels held them.

    int64 when every block ends within the Mertens prefix, otherwise an
    object array of Python ints.
    """
    ends, low, high = _blocks(ct, ck, tables)
    if not high:
        return ends, low
    return ends, np.concatenate((low.astype(object), np.array(high, dtype=object).T), axis=1)


def u_by_python_ints(t: int, k: int, tables) -> int:
    """U(t, k) by the earlier block sum: Python ints, or int64 under a checked bound."""
    top = min(t, k)
    if top == 0:
        return 0
    ends, moments = _judge_blocks(t, k, tables)
    # each block's |sum of mu| is at most its length, and the lengths add up to top
    q = _as_exact(t // ends, t * k * top)
    return int(q * (k // ends) @ moments[0])


def v_by_python_ints(t, k, tables) -> QuarterInt:
    """4V(t, k) by the earlier block sum: Python ints, or int64 under a checked bound."""
    T, K, ct, ck = _v_prepare(t, k)
    top = min(ct, ck)
    if top <= 0:
        return QuarterInt(0)
    ends, moments = _judge_blocks(ct, ck, tables)
    # c <= ceil on each side and |sum of d^j mu(d)| <= top^j * length
    # bound every intermediate of the block sum below
    bound = ct * ck * top * ((T + 2) * (K + 2 + (ck + 1) * top)
                             + (ct + 1) * top * ((ck + 1) * top + K + 2))
    m0, m1, m2 = _as_exact(moments, bound)
    qt, qk = _as_exact(ct // ends, bound), ck // ends
    pt, pk = qt + 1, qk + 1
    # 2A(t, d) 2A(k, d) = qt qk (T + 2 - pt d)(K + 2 - pk d) on the block
    inner = (T + 2) * ((K + 2) * m0 - pk * m1) + pt * (pk * m2 - (K + 2) * m1)
    return QuarterInt(int((qt * qk) @ inner))


@pytest.fixture
def residue_passes(monkeypatch):
    """Every residue pass of the kernels, checked to run on uint64 arrays.

    Wraps the pass helpers: the residues they make, and every array the
    arithmetic takes or returns, must be uint64 (numpy would promote a
    mixed uint64/int64 expression to float64).  Returns the list of prime
    counts, one per reconstructed block sum.
    """
    counts: list[int] = []

    def uint64_only(*arrays):
        for a in arrays:
            if isinstance(a, np.ndarray):
                assert a.dtype == np.uint64, a.dtype

    def checked(name, inputs):
        original = getattr(numtheory, name)

        def wrapper(*args):
            if inputs:
                uint64_only(*args)
            result = original(*args)
            uint64_only(result)
            return result

        monkeypatch.setattr(numtheory, name, wrapper)

    checked("_residues", inputs=False)
    checked("_block_moments", inputs=False)
    checked("_mul_mod", inputs=True)
    checked("_dot_mod", inputs=True)
    original = numtheory._from_residues

    def recording(bounds, residue, *args):
        counts.append(numtheory._primes_needed(max(bounds)))
        return original(bounds, residue, *args)

    monkeypatch.setattr(numtheory, "_from_residues", recording)
    return counts


def _assert_kernels_equal_judge(T: int, K: int, tables) -> None:
    t, k = Fraction(T, 2), Fraction(K, 2)
    assert blocked_v(t, k, tables) == v_by_python_ints(t, k, tables), (T, K)
    if T % 2 == 0 and K % 2 == 0 and min(T, K) >= 0:
        u_args = (T // 2, K // 2)
        assert blocked_u(*u_args, tables) == u_by_python_ints(*u_args, tables), (T, K)


def test_residue_kernels_equal_python_ints_on_every_small_pair(residue_passes):
    tables = sieve(40)  # every doubled argument below 80 has a ceiling <= 40
    for T in range(-2, 80):
        for K in range(-2, 80):
            _assert_kernels_equal_judge(T, K, tables)
    assert set(residue_passes) == {0}


def test_residue_kernels_equal_python_ints_up_to_ten_million(residue_passes):
    rng = random.Random(RANDOM_SEED + 2)
    pairs = [(2 * 10**7, 2 * 10**7), (2 * 10**7 - 1, 2 * 10**7)]
    for _ in range(10):
        pairs.append((rng.randrange(2, 2 * 10**7 + 1), rng.randrange(2, 2 * 10**7 + 1)))
    for T, K in pairs:  # doubled: odd values are half-integers
        tables = sieve(kernel_sieve_limit((T + 1) // 2, (K + 1) // 2))
        _assert_kernels_equal_judge(T, K, tables)
    assert max(residue_passes) == 2  # 4V(10^7, 10^7) is bounded by 4e28 > 2^95


def test_residue_kernels_equal_python_ints_up_to_the_side_cap(residue_passes):
    rng = random.Random(RANDOM_SEED + 3)
    tables = sieve(10**6)  # reaches every short side, so no recursion runs
    pairs = [(2 * 10**6, 2 * COUNT_SIDE_CAP), (2 * 10**6 - 1, 2 * COUNT_SIDE_CAP)]
    for _ in range(6):
        short = rng.randrange(2, 2 * 10**6 + 1)
        long = int(math.exp(rng.uniform(math.log(short), math.log(2 * COUNT_SIDE_CAP))))
        pairs.append((short, long) if rng.random() < 0.5 else (long, short))
    for T, K in pairs:
        assert kernel_sieve_limit((T + 1) // 2, (K + 1) // 2) <= tables.limit
        _assert_kernels_equal_judge(T, K, tables)
    assert max(residue_passes) == 2


def _crt_thresholds() -> list[int]:
    """The bounds at which the prime count steps up: 2^64 prod(p) / 2."""
    return [modulus // 2 for modulus in _CRT_MODULI]


def test_residue_primes_are_distinct_primes_below_2_32():
    assert len(set(_RESIDUE_PRIMES)) == len(_RESIDUE_PRIMES)
    for p in _RESIDUE_PRIMES:
        assert 2**31 < p < 2**32
        assert all(p % d for d in range(2, math.isqrt(p) + 1))
    assert _CRT_MODULI[0] == 2**64
    assert _CRT_MODULI[-1] > 2 * (2**63) ** 2 * (2**64 + 2) ** 2  # every int64 argument pair


def test_prime_count_is_the_least_that_covers_twice_the_bound():
    rng = random.Random(RANDOM_SEED + 4)
    bounds = [0, 1, 2**62, 2**63 - 1, 2**63]
    for threshold in _crt_thresholds()[:-1]:
        bounds += [threshold - 1, threshold, threshold + 1, rng.randrange(threshold)]
    for bound in bounds:
        count = numtheory._primes_needed(bound)
        assert _CRT_MODULI[count] > 2 * bound
        assert count == 0 or _CRT_MODULI[count - 1] <= 2 * bound
    assert numtheory._primes_needed(2**63 - 1) == 0
    assert numtheory._primes_needed(2**63) == 1
    with pytest.raises(CapacityError):
        numtheory._primes_needed(_crt_thresholds()[-1])


@pytest.mark.parametrize("step", range(len(_CRT_MODULI) - 1))
@pytest.mark.parametrize("side", [-1, 0])
@given(data=st.data())
def test_residues_reconstruct_every_integer_within_the_bound(step, side, data):
    # B just below (side -1) and at (side 0) the bound where the count steps up
    bound = _crt_thresholds()[step] + side
    count = numtheory._primes_needed(bound)
    assert count == step + 1 + side
    x = data.draw(st.one_of(st.sampled_from([-bound, bound, 0, -1, 1]),
                            st.integers(-bound, bound)))
    asked = []

    def residue(modulus: int) -> tuple[int]:
        asked.append(modulus)
        return (x % modulus,)

    assert numtheory._from_residues((bound,), residue) == (x,)
    assert asked == [2**64, *_RESIDUE_PRIMES[:count]]


def test_residues_outside_the_bound_are_refused():
    # the residues of bound + 1 are not those of any integer within the bound
    with pytest.raises(ArithmeticError):
        numtheory._from_residues((2**63 - 1,), lambda modulus: (2**63 % modulus,))
    # each value is held to its own bound, not to the largest
    assert numtheory._from_residues((5, 2**63 - 1), lambda modulus: (5, 6)) == (5, 6)
    with pytest.raises(ArithmeticError):
        numtheory._from_residues((5, 2**63 - 1), lambda modulus: (6, 5))
