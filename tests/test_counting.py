"""Unit tests for the closed-form counts.

Expected values for small grids were computed with the subset-separability
oracle and frozen here; the oracle-equivalence tests recompute them live.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridthresh import (
    CountBreakdown,
    GridSpec,
    breakdown,
    count_p,
    count_p_sequence,
    count_stable,
    count_total,
    count_unstable,
    enumerate_by_subsets,
    kernel_sieve_limit,
    sieve,
    u_mobius,
    uv_blocked,
    v_fast,
    v_naive,
)
from gridthresh import numtheory, residual_sweep

from conftest import RANDOM_SEED
from judges import u_naive, uv_square_sequence

TABLES = sieve(256)


def test_count_total_frozen_oracle_values():
    assert count_total(GridSpec(0, 0), TABLES) == 2
    assert count_total(GridSpec(1, 0), TABLES) == 4
    assert count_total(GridSpec(1, 1), TABLES) == 14
    assert count_total(GridSpec(2, 2), TABLES) == 58
    assert count_total(GridSpec(2, 3), TABLES) == 100
    assert count_total(GridSpec(3, 3), TABLES) == 174


def test_count_total_matches_subset_oracle_live():
    for m in range(0, 4):
        for n in range(0, 4):
            grid = GridSpec(m, n)
            assert count_total(grid, TABLES) == len(enumerate_by_subsets(grid)), (m, n)


def test_count_p_examples():
    assert count_p(1, TABLES) == 2
    assert count_p(2, TABLES) == 14
    assert count_p(3, TABLES) == 58
    assert [count_p(k, TABLES) for k in range(1, 9)] == [2, 14, 58, 174, 402, 838, 1498, 2566]


def test_count_p_rejects_zero():
    with pytest.raises(ValueError):
        count_p(0, TABLES)


def test_stable_unstable_frozen_oracle_values():
    assert count_unstable(GridSpec(1, 1), TABLES) == 1
    assert count_unstable(GridSpec(2, 2), TABLES) == 7
    assert count_stable(GridSpec(1, 1), TABLES) == 5
    assert count_stable(GridSpec(2, 2), TABLES) == 21
    # degenerate grid: geometric values
    assert count_unstable(GridSpec(1, 0), TABLES) == 0
    assert count_stable(GridSpec(1, 0), TABLES) == 1


def test_breakdown_examples():
    b = breakdown(GridSpec(1, 1), TABLES)
    assert (b.stable, b.unstable, b.f_class, b.total) == (5, 1, 6, 14)
    assert b.provenance == "formula"
    b = breakdown(GridSpec(2, 2), TABLES)
    assert (b.stable, b.unstable, b.f_class, b.total) == (21, 7, 28, 58)
    b = breakdown(GridSpec(0, 0), TABLES)
    assert (b.stable, b.unstable, b.f_class, b.total) == (0, 0, 0, 2)
    assert b.provenance == "geometric"


def test_breakdown_matches_line_oracle_classification():
    from gridthresh import enumerate_by_lines

    for m in range(1, 5):
        for n in range(1, 5):
            grid = GridSpec(m, n)
            enum = enumerate_by_lines(grid)
            b = breakdown(grid, TABLES)
            assert (enum.stable_count, enum.unstable_count) == (b.stable, b.unstable), (m, n)


def test_breakdown_matches_line_oracle_beyond_acceptance_range():
    from gridthresh import enumerate_by_lines

    grid = GridSpec(12, 9)
    enum = enumerate_by_lines(grid)
    b = breakdown(grid, TABLES)
    assert len(enum) == b.total == 10416
    assert (enum.stable_count, enum.unstable_count) == (b.stable, b.unstable) == (3926, 1281)


def test_consistency_identity():
    # 2(stable + unstable + 1) == total, the glue between the split and total formulas
    for m in range(0, 13):
        for n in range(0, 13):
            grid = GridSpec(m, n)
            assert 2 * (count_stable(grid, TABLES) + count_unstable(grid, TABLES) + 1) \
                == count_total(grid, TABLES), (m, n)


def test_symmetry():
    for m in range(0, 12):
        for n in range(0, 12):
            assert count_total(GridSpec(m, n), TABLES) == count_total(GridSpec(n, m), TABLES)


def test_strict_monotonicity_in_each_extent():
    for m in range(0, 12):
        for n in range(0, 12):
            assert count_total(GridSpec(m + 1, n), TABLES) > count_total(GridSpec(m, n), TABLES)


def test_total_is_always_even():
    for m in range(0, 14):
        for n in range(0, 14):
            assert count_total(GridSpec(m, n), TABLES) % 2 == 0


def test_lower_bound_small_range():
    bound = 3 / (8 * math.pi**2)
    for k in range(1, 201):
        assert count_p(k, TABLES) >= bound * k**4, k


def test_insufficient_sieve_raises():
    tiny = sieve(4)
    for count in (count_total, count_unstable, breakdown):
        with pytest.raises(ValueError):
            count(GridSpec(100, 100), tiny)


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec(-1, 2)


def breakdown_from_naive_kernels(m: int, n: int) -> tuple[int, int, int, int]:
    """(stable, unstable, |F|, total) assembled from the paper's formulas."""
    four_v = v_naive(m, n).quadrupled
    total = (2 * m + 1) * (2 * n + 1) + 1 + four_v
    if m == 0 or n == 0:
        stable, unstable = m + n, 0
    else:
        u = u_naive(m, n)
        eight_v_half = 2 * v_naive(Fraction(m - 1, 2), Fraction(n - 1, 2)).quadrupled
        stable = m + n + u + four_v // 2 - eight_v_half
        unstable = 2 * m * n - u + eight_v_half
    return stable, unstable, stable + unstable, total


@given(st.integers(0, 30), st.integers(0, 30))
def test_breakdown_equals_naive_assembly(m, n):
    b = breakdown(GridSpec(m, n), TABLES)
    fields = (b.stable, b.unstable, b.f_class, b.total)
    assert fields == breakdown_from_naive_kernels(m, n)
    t = breakdown(GridSpec(n, m), TABLES)
    assert (t.stable, t.unstable, t.f_class, t.total) == fields
    assert b.total == 2 * (b.f_class + 1)


def test_breakdown_of_numpy_integer_sides_equals_the_int_one():
    # GridSpec stores its sides through operator.index, so 2m n and the
    # kernel's bounds are Python ints and cannot overflow int64
    tables = sieve(kernel_sieve_limit(10**6, 10**6))
    side = np.int64(10**6)
    assert type(GridSpec(side, np.int32(3)).m) is int
    assert breakdown(GridSpec(side, side), tables) == breakdown(GridSpec(10**6, 10**6), tables)


def test_counts_take_numpy_integer_sides():
    tables = sieve(1000)
    assert count_total(GridSpec(np.int64(5), 3), tables) == count_total(GridSpec(5, 3), tables)
    assert count_p(np.int64(1001), tables) == count_p(1001, tables)
    assert count_stable(GridSpec(7, np.uint16(4)), tables) == count_stable(GridSpec(7, 4), tables)


def test_float_sides_are_refused_at_construction():
    for m, n in ((2.0, 3), (2, 3.0), (1.5, 1)):
        with pytest.raises(TypeError):
            GridSpec(m, n)


def test_counting_builds_no_totient_table():
    tables = sieve(1000)
    breakdown(GridSpec(1000, 700), tables)
    count_p(1001, tables)
    assert set(tables._built) == {"mu"}


def test_sequence_kernel_equals_per_term_kernels():
    k_max = 3000
    tables = sieve(k_max)
    u, four_v = uv_square_sequence(k_max, tables)
    assert len(u) == len(four_v) == k_max + 1
    assert u == [u_mobius(j, j, tables) for j in range(k_max + 1)]
    assert four_v == [v_fast(j, j, tables).quadrupled for j in range(k_max + 1)]
    assert count_p_sequence(k_max, tables) == [count_p(k, tables) for k in range(1, k_max + 1)]


def test_sequence_kernel_small_values_and_bounds():
    tables = sieve(5)
    assert uv_square_sequence(0, tables) == ([0], [0])
    assert count_p_sequence(1, tables) == [2]
    assert count_p_sequence(6, tables) == [count_p(k, tables) for k in range(1, 7)]
    with pytest.raises(ValueError):
        uv_square_sequence(-1, tables)
    with pytest.raises(ValueError):
        uv_square_sequence(6, tables)
    with pytest.raises(ValueError):
        count_p_sequence(0, tables)
    with pytest.raises(ValueError):
        count_p_sequence(7, tables)


def test_blocks_are_built_once_per_argument_pair(monkeypatch):
    built = []
    original = numtheory._blocks

    def recording(ct, ck, tables):
        built.append((ct, ck))
        return original(ct, ck, tables)

    monkeypatch.setattr(numtheory, "_blocks", recording)

    def blocks_built(run) -> list:
        built.clear()
        run()
        return list(built)

    # U(m, n), 4V(m, n) and the half-argument 4V share one set of blocks
    assert blocks_built(lambda: breakdown(GridSpec(30, 12), TABLES)) == [(30, 12)]
    assert blocks_built(lambda: breakdown(GridSpec(255, 200), TABLES)) == [(255, 200)]
    # a degenerate grid's sums are empty, so it builds no blocks
    assert blocks_built(lambda: breakdown(GridSpec(30, 0), TABLES)) == []
    assert blocks_built(lambda: count_total(GridSpec(30, 12), TABLES)) == [(30, 12)]
    pairs = [(16, 16), (32, 32), (1000, 1), (3000, 1), (1000, 2), (3000, 2)]
    assert blocks_built(lambda: residual_sweep(TABLES, square_ks=(16, 32), aniso_ns=(1, 2),
                                               aniso_ms=(1000, 3000))) == pairs


def breakdown_by_two_kernel_calls(grid: GridSpec, tables) -> CountBreakdown:
    """The earlier breakdown: one blocked kernel call at (m, n), one at ((m-1)/2, (n-1)/2)."""
    m, n = grid.m, grid.n
    u, four_v = uv_blocked(m, n, tables)
    total = (2 * m + 1) * (2 * n + 1) + 1 + four_v.quadrupled
    unstable = 0
    if not grid.is_degenerate:
        four_v_half = uv_blocked(Fraction(m - 1, 2), Fraction(n - 1, 2), tables)[1].quadrupled
        unstable = 2 * m * n - u + 2 * four_v_half
    f_class = total // 2 - 1
    return CountBreakdown(
        grid=grid,
        stable=f_class - unstable,
        unstable=unstable,
        f_class=f_class,
        total=total,
        provenance="geometric" if grid.is_degenerate else "formula",
    )


def test_breakdown_equals_the_two_call_assembly_on_every_small_grid():
    for m in range(41):
        for n in range(41):
            grid = GridSpec(m, n)
            assert breakdown(grid, TABLES) == breakdown_by_two_kernel_calls(grid, TABLES), (m, n)


def test_breakdown_equals_the_two_call_assembly_up_to_a_billion():
    rng = random.Random(RANDOM_SEED + 9)
    top = 10**9
    tables = sieve(kernel_sieve_limit(top, top))  # reaches every pair below
    pairs = [(top, top), (top - 1, top - 1), (top - 1, top)]
    for _ in range(4):  # odd and even sides of one magnitude
        side = rng.randrange(10**6, top)
        pairs.append((side | 1, (side + rng.randrange(1, 10**6)) | 1))
        pairs.append((side & ~1, (side + rng.randrange(1, 10**6)) & ~1))
    for _ in range(4):  # skewed, the long side on either axis
        short = rng.randrange(1, 10**5)
        long = rng.randrange(10**8, top + 1)
        pairs.append((short, long) if rng.random() < 0.5 else (long, short))
    for m, n in pairs:
        grid = GridSpec(m, n)
        assert breakdown(grid, tables) == breakdown_by_two_kernel_calls(grid, tables), (m, n)
