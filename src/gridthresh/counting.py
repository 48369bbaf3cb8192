"""Closed-form counts of two-dimensional threshold functions.

For the grid [0, m] x [0, n] the total count is

    N(m, n) = (2m + 1)(2n + 1) + 1 + 4 V(m, n),

and within the class F (functions with f(0,0) = 0, excluding the constant
zero) the stable/unstable split is

    unstable(m, n) = 2mn - U(m, n) + 8 V((m-1)/2, (n-1)/2)
    stable(m, n)   = m + n + U(m, n) + 2 V(m, n) - 8 V((m-1)/2, (n-1)/2)

with N = 2(|F| + 1).  The k-valued square case is P(k, 2) = N(k-1, k-1).
_p_chunks gives P(1..K, 2) per chunk of the square-sequence kernel
(numtheory._square_chunks), for whole OEIS b-files: _total runs on each
chunk's arrays, in int64 up to K of about 2.5 10^4 and in Python ints
past it; count_p_sequence flattens them.  A b-file of 10^6 terms
(`oeis --sequence A114146 --count 1000000`, in-process, best of 3 on 2
shared vCPUs) takes about 0.58 s and peaks at 102 MB RSS.  count_p stays
the per-term path and the sequence's oracle.

Each formula is written once: N in _total, the split in breakdown.
On a proper grid breakdown takes U(m, n), 4V(m, n) and the half-argument
4V((m-1)/2, (n-1)/2) from one set of blocks of the blocked kernel
(numtheory._uv_on_blocks): the half pair's quotients floor(floor(m/d)/2)
and floor(floor(n/d)/2) are constant on the blocks of (m, n).  It
assembles N, the unstable formula, |F| = N/2 - 1 and stable =
|F| - unstable, which expands to the stable formula above;
count_stable and count_unstable read their values from that assembly,
and count_total takes 4V(m, n) alone (numtheory.uv_blocked).  On a
degenerate grid the sums are empty and no block is built.  The tables
need only reach kernel_sieve_limit(m, n).

All counts are exact Python integers; V flows through the quadrupled
integer representation so the 2V/4V/8V consumers never see a rational.

The split formulas are derived for proper rectangles (m, n >= 1).  On
degenerate grids the split comes from the geometric argument instead:
every non-constant function on a collinear grid is an anchored run,
stable under the limit-rotation convention (see geometry.classify), so
unstable = 0 and stable = |F| = m + n.  The breakdown records that
provenance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Literal

from .grid import GridSpec
from .numtheory import NTTables, _square_chunks, _uv_on_blocks, uv_blocked
from .numtheory import u_mobius, v_fast  # noqa: F401  (names perfbench/spans.py wraps)

if TYPE_CHECKING:  # numpy loaded ahead of .numtheory raised a cold import's peak RSS by 1 MB
    import numpy as np


@dataclass(frozen=True)
class CountBreakdown:
    """Exact counts for one grid.

    provenance records whether the stable/unstable split came from the
    rectangle formulas ("formula") or from the degenerate-grid geometric
    argument ("geometric").
    """

    grid: GridSpec
    stable: int
    unstable: int
    f_class: int
    total: int
    provenance: Literal["formula", "geometric"]

    def __post_init__(self) -> None:
        if self.f_class != self.stable + self.unstable:
            raise ValueError("|F| must equal stable + unstable")
        if self.total != 2 * (self.f_class + 1):
            raise ValueError("total must equal 2(|F| + 1)")


def _total(m: int, n: int, four_v: int) -> int:
    """N(m, n) from 4V(m, n); elementwise on exact arrays too."""
    return (2 * m + 1) * (2 * n + 1) + 1 + four_v


def count_total(grid: GridSpec, tables: NTTables) -> int:
    """N(m, n), exact; symmetric in m and n."""
    return _total(grid.m, grid.n, uv_blocked(grid.m, grid.n, tables)[1].quadrupled)


def count_p(k: int, tables: NTTables) -> int:
    """P(k, 2) = N(k-1, k-1): threshold functions of k-valued two-input logic."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return count_total(GridSpec(k - 1, k - 1), tables)


def _p_chunks(count: int, tables: NTTables) -> Iterator[tuple[int, np.ndarray]]:
    """(first k, P(k, 2) array) per kernel chunk, k = 1..count, in the kernel's dtype.

    Needs tables.limit >= count - 1.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    for j, _, four_v in _square_chunks(count - 1, tables):
        yield int(j[0]) + 1, _total(j, j, four_v)


def count_p_sequence(count: int, tables: NTTables) -> list[int]:
    """[P(1, 2), ..., P(count, 2)] from one pass; equals count_p term by term."""
    return [p for _, chunk in _p_chunks(count, tables) for p in chunk.tolist()]


# perfbench/spans.py wraps this by name (gridthresh.counting.count_unstable)
def count_unstable(grid: GridSpec, tables: NTTables) -> int:
    """Unstable functions in F; geometric value (0) on degenerate grids."""
    return breakdown(grid, tables).unstable


# perfbench/spans.py wraps this by name (gridthresh.counting.count_stable)
def count_stable(grid: GridSpec, tables: NTTables) -> int:
    """Stable functions in F; geometric value (m + n) on degenerate grids."""
    return breakdown(grid, tables).stable


def breakdown(grid: GridSpec, tables: NTTables) -> CountBreakdown:
    """Stable/unstable/|F|/total for one grid, with provenance."""
    m, n = grid.m, grid.n
    if grid.is_degenerate:  # U and 4V sum over [1, m] x [1, n], empty here
        total, unstable = _total(m, n, 0), 0
    else:
        u, four_v, _, four_v_half = _uv_on_blocks(((2 * m, 2 * n), (m - 1, n - 1)), tables)
        total = _total(m, n, four_v)
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
