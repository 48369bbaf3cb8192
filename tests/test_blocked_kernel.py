"""The blocked kernels against the linear kernels and the definitions.

u_blocked and v_blocked sum over blocks of constant quotients with the
weighted Mertens sums M_j(x) = sum_{d<=x} d^j mu(d); above the sieve those
come from a memoised recursion.  Most checks here compare them with an
evaluation that shares none of that machinery: gcd tables straight from
the definition, u_naive/v_naive, and the linear kernels u_mobius/v_fast.
The block sums themselves run in uint64 residues joined by CRT; their
judge is the earlier Python-int block sum over the same blocks, kept
below as u_by_python_ints/v_by_python_ints.
"""

import math
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridthresh import (
    GridSpec,
    HalfInt,
    QuarterInt,
    breakdown,
    count_p,
    kernel_sieve_limit,
    sieve,
    u_blocked,
    u_mobius,
    u_naive,
    v_blocked,
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
    _blocks,
    _dot,
    _mertens_prefix,
    _v_prepare,
)

from conftest import RANDOM_SEED

SMALL_DOUBLED = 400  # doubled arguments -2..400, ceilings up to 200


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
        got = [v_blocked(HalfInt(T), HalfInt(K), tables).quadrupled for K in doubled]
        assert got == row.tolist(), T
    for t in range(top + 1):
        assert [u_blocked(t, k, tables) for k in range(top + 1)] == u_table[t].tolist(), t
    # the linear kernels on a stride, the naive ones on a coarser one
    for T in range(-2, SMALL_DOUBLED + 1, 13):
        for K in range(-2, SMALL_DOUBLED + 1, 11):
            assert v_blocked(HalfInt(T), HalfInt(K), tables) == v_fast(HalfInt(T), HalfInt(K), tables)
    for T in range(-2, SMALL_DOUBLED + 1, 37):
        for K in range(-1, SMALL_DOUBLED + 1, 41):
            assert v_blocked(HalfInt(T), HalfInt(K), tables) == v_naive(HalfInt(T), HalfInt(K))
    for t in range(0, top + 1, 3):
        for k in range(0, top + 1, 5):
            assert u_blocked(t, k, tables) == u_mobius(t, k, tables)
    for t in range(0, top + 1, 19):
        for k in range(0, top + 1, 23):
            assert u_blocked(t, k, tables) == u_naive(t, k)


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


def test_mertens_prefix_stops_before_int64_overflow():
    # with mu = 1 everywhere M_2(x) = x(x+1)(2x+1)/6 passes 2^62 near x = 2.4e6
    n = 3_100_000
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    prefix = _mertens_prefix(mu)
    top = prefix.shape[1] - 1
    assert 1_500_000 < top < 2_400_000
    for x in (1, 1000, top // 2, top):
        assert prefix[:, x].tolist() == [x, x * (x + 1) // 2, x * (x + 1) * (2 * x + 1) // 6]
    assert top * (top + 1) * (2 * top + 1) // 6 < 2**62


@pytest.fixture(scope="module")
def tables10m():
    return sieve(10**7)


def _random_pairs(rng: random.Random, count: int) -> list[tuple[HalfInt, HalfInt]]:
    pairs = []
    for _ in range(count):
        aspect = rng.uniform(1, 8)
        short = int(math.exp(rng.uniform(math.log(10**5), math.log(2 * 10**7 / aspect))))
        long = min(2 * 10**7, int(short * aspect))
        pair = [HalfInt(short), HalfInt(long)]  # doubled: odd values are half-integers
        rng.shuffle(pair)
        pairs.append((pair[0], pair[1]))
    return pairs


def test_blocked_kernels_through_the_recursion(tables10m):
    rng = random.Random(RANDOM_SEED)
    for t, k in _random_pairs(rng, 10) + [(HalfInt(2 * 10**7), HalfInt(2 * 10**7 - 1))]:
        at_limit = sieve(kernel_sieve_limit(t.ceil, k.ceil))
        assert at_limit.limit < min(t.ceil, k.ceil)
        assert v_blocked(t, k, at_limit) == v_fast(t, k, tables10m), (t, k)
        if t.is_integer and k.is_integer:
            u_args = (t.doubled // 2, k.doubled // 2)
            assert u_blocked(*u_args, at_limit) == u_mobius(*u_args, tables10m), (t, k)


def test_blocked_kernels_at_three_million(tables10m):
    # an unchecked int64 block sum gets P(3e6, 2) wrong
    k = 3 * 10**6
    at_limit = sieve(kernel_sieve_limit(k - 1, k - 1))
    assert v_blocked(k - 1, k - 1, at_limit) == v_fast(k - 1, k - 1, tables10m)
    assert u_blocked(k - 1, k, at_limit) == u_mobius(k - 1, k, tables10m)
    assert count_p(k, at_limit) == count_p(k, sieve(4 * at_limit.limit))


def test_blocked_kernels_full_sieve_equals_limit_sieve():
    full = sieve(20_000)
    rng = random.Random(RANDOM_SEED + 1)
    for _ in range(40):
        T, K = rng.randrange(1100, 40_001), rng.randrange(1100, 40_001)
        at_limit = sieve(kernel_sieve_limit((T + 1) // 2, (K + 1) // 2))
        assert v_blocked(HalfInt(T), HalfInt(K), at_limit) == v_blocked(HalfInt(T), HalfInt(K), full)
        m, n = T // 2, K // 2
        assert breakdown(GridSpec(m, n), sieve(kernel_sieve_limit(m, n))) == breakdown(GridSpec(m, n), full)


def test_blocked_kernels_share_one_tables_across_threads():
    t, k = 10**6, 1_234_567
    limit = kernel_sieve_limit(t, k)
    expected = [v_blocked(t, k, sieve(limit)), u_blocked(t, k, sieve(limit)),
                v_blocked(HalfInt(t - 1), HalfInt(k - 1), sieve(limit)),
                weighted_mertens(k, sieve(limit))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            tables = sieve(limit)
            results: list = []

            def work() -> None:
                try:
                    results.append([v_blocked(t, k, tables), u_blocked(t, k, tables),
                                    v_blocked(HalfInt(t - 1), HalfInt(k - 1), tables),
                                    weighted_mertens(k, tables)])
                except Exception as exc:  # a half-built table or memo raises, e.g. KeyError
                    results.append(exc)

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
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


def test_blocked_kernels_reject_bad_input():
    tables = sieve(10)
    with pytest.raises(ValueError):
        u_blocked(-1, 5, tables)
    with pytest.raises(ValueError):
        v_blocked(HalfInt(-3), 5, tables)
    with pytest.raises(ValueError):
        u_blocked(100, 100, tables)
    with pytest.raises(ValueError):
        v_blocked(100, 100, tables)
    assert u_blocked(0, 10**12, tables) == 0
    assert v_blocked(HalfInt(-1), 10**12, tables).quadrupled == 0


@given(st.lists(st.tuples(st.integers(-(2**62), 2**62), st.integers(-(2**62), 2**62)),
                min_size=0, max_size=200))
def test_dot_is_exact(rows):
    a = np.array([r[0] for r in rows], dtype=np.int64)
    b = np.array([r[1] for r in rows], dtype=np.int64)
    assert _dot(a, b) == sum(x * y for x, y in rows)


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

    def recording(bound, residue, *args):
        counts.append(numtheory._primes_needed(bound))
        return original(bound, residue, *args)

    monkeypatch.setattr(numtheory, "_from_residues", recording)
    return counts


def _assert_kernels_equal_judge(T: int, K: int, tables) -> None:
    t, k = HalfInt(T), HalfInt(K)
    assert v_blocked(t, k, tables) == v_by_python_ints(t, k, tables), (T, K)
    if T % 2 == 0 and K % 2 == 0 and min(T, K) >= 0:
        u_args = (T // 2, K // 2)
        assert u_blocked(*u_args, tables) == u_by_python_ints(*u_args, tables), (T, K)


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

    def residue(modulus: int) -> int:
        asked.append(modulus)
        return x % modulus

    assert numtheory._from_residues(bound, residue) == x
    assert asked == [2**64, *_RESIDUE_PRIMES[:count]]


def test_residues_outside_the_bound_are_refused():
    # the residues of bound + 1 are not those of any integer within the bound
    with pytest.raises(ArithmeticError):
        numtheory._from_residues(2**63 - 1, lambda modulus: 2**63 % modulus)
