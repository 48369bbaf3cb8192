"""Exact lattice-line geometry: threshold functions, the candidate scan, stability.

A threshold function is a dichotomy of the grid that a line realizes,
zeros on its closed side and ones strictly on its open side; it is
stored as a bit-set of its zeros.  All tests here are integer
comparisons on lattice points, with no floating point anywhere.  A
function is *stable* when some defining line passes through at least
two lattice points; otherwise it is *unstable* and all its defining
pointed lines share a single lattice point, the vertex.

The candidate family comes from the lines through two lattice points
(Koplowitz, Lindenbaum & Bruckstein, IEEE Trans. Inf. Theory 36, 1990;
Acketa & Zunic, Inf. Process. Lett. 38, 1991).  Translate a defining
line towards the zeros until it meets a zero r, then rotate it about r
until it meets a second lattice point.  No point crosses it on the way:
the points of the final line on one side of r come from the closed side,
those on the other from the open side, so its zeros run from r to one
end of its points.  A run of all of them is the line's own zero-set, a
stable function; a proper run ending at r is the zero-set of the line
turned slightly about r, through r alone: a pointed line at r.

So the family is read off the primitive directions (dx, dy), |dx| <= m,
|dy| <= n, antipodes giving both orientations: a direction ORs its levels
dy*x - dx*y into a running zero-set in ascending order.  At a level of
k >= 2 points the running set is stable, and the set before the level
plus the level's first or last j points (1 <= j < k) is pointed at the
j-th of them.  Unstable functions have only pointed lines, at the vertex.

scan_candidates runs only the directions d > (0, 0), compared
lexicographically (dx > 0, or dx = 0 < dy), and reads each antipode's
sets off as complements.  The antipode
-d visits the same levels in descending order, and the points of a
level in the same row-major order.  Take a level of points p_1 .. p_k,
with A the points below it and B those above, for d.  The antipode's
set B + {p_1 .. p_j}, pointed at p_j, is the complement of
A + {p_(j+1) .. p_k}, the set of d with the last k - j points, pointed
at p_(j+1).  So each set of d with the first j points (pivot p_j) has
its complement pointed at p_(j+1), and each set with the last j points
(pivot p_(k-j+1)) has its complement pointed at p_(k-j), one point
further in along the level.  The antipode's stable set at the level,
B plus the level, is the complement of A, the set below the level for d.

The scan records each pointed line's pivot against its zero-set, so a
mask pointed at two different points is marked as having no vertex.
When the scan ends it keeps the pivots only of the masks that no line
through two lattice points defines: CandidateScan.vertices maps each of
them to its vertex, or to None for two or more pivots.

scan_candidates evaluates the family once per grid, and its stable masks
and vertex map are the one stable/unstable classification:
CandidateScan.classify reads a single mask, both enumeration oracles
read the split of all their masks by lookup, and so does the
teaching-set rule.  The subset-separability oracle independently
corroborates the family on every grid where both oracles run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Literal, Optional

from .errors import CandidateFamilyError
from .grid import GridSpec, Point


@dataclass(frozen=True)
class ThresholdFn:
    """A grid dichotomy stored as a bit-set of its zeros.

    Bit grid.bit_index(x, y) is set iff f(x, y) = 0.  Instances are
    hashable; identity of functions is extensional equality of zero-sets.
    Realizability (existence of a defining line) is an oracle-level
    property checked by oracle.enumerate_by_subsets, not enforced here.
    """

    grid: GridSpec
    zeros: int

    def __post_init__(self) -> None:
        if not 0 <= self.zeros < (1 << self.grid.point_count):
            raise ValueError("zeros bit-set out of range for grid")

    def value_at(self, x: int, y: int) -> int:
        return 0 if (self.zeros >> self.grid.bit_index(x, y)) & 1 else 1

    @property
    def is_constant(self) -> bool:
        return self.zeros == 0 or self.zeros == (1 << self.grid.point_count) - 1

    def render(self) -> str:
        """ASCII grid of function values, rows top to bottom."""
        rows = []
        for y in range(self.grid.n, -1, -1):
            rows.append("".join(str(self.value_at(x, y)) for x in range(self.grid.m + 1)))
        return "\n".join(rows)


StabilityKind = Literal["stable", "unstable"]


@dataclass(frozen=True)
class StabilityClass:
    kind: StabilityKind
    vertex: Optional[Point] = None

    def __post_init__(self) -> None:
        if (self.kind == "unstable") != (self.vertex is not None):
            raise ValueError("vertex is present exactly for unstable functions")

    @property
    def is_stable(self) -> bool:
        return self.kind == "stable"


def complement_fn(f: ThresholdFn) -> ThresholdFn:
    """The point-reflected complement g(x, y) = 1 - f(m - x, n - y).

    An involution on threshold functions; used by the teaching-set size
    rule.  The reflection maps row-major bit i to bit P - 1 - i, so the
    complement's zero-set is the P-bit reversal of f's one-set.
    """
    return ThresholdFn(f.grid, _complement_mask(f.grid, f.zeros))


# each byte value with its bits in reverse order
_REVERSED_BYTES = bytes(int(f"{i:08b}"[::-1], 2) for i in range(256))


def _complement_mask(grid: GridSpec, zeros: int) -> int:
    """The zero-set of complement_fn: the P-bit reversal of the one-set.

    Bit j of the one-set, little-endian in ``size`` bytes, lands at bit
    8 size - 1 - j once each byte is reversed and the bytes are read
    big-endian; the shift takes it to P - 1 - j.
    """
    count = grid.point_count
    size = (count + 7) // 8
    ones = ~zeros & ((1 << count) - 1)
    reversed_bytes = ones.to_bytes(size, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(reversed_bytes, "big") >> (8 * size - count)


def candidate_directions(grid: GridSpec) -> Iterator[tuple[int, int]]:
    """The primitive directions (dx, dy), |dx| <= m, |dy| <= n, of the
    lines through two lattice points, antipodes included for both
    orientations; scan_candidates runs those above (0, 0)."""
    for dx in range(-grid.m, grid.m + 1):
        for dy in range(-grid.n, grid.n + 1):
            if math.gcd(dx, dy) == 1:
                yield dx, dy


@dataclass(frozen=True)
class CandidateScan:
    """Digest of one pass over the candidate family of a grid.

    masks         every distinct zero bit-set realized
    stable_masks  masks defined by some line through >= 2 lattice points
    vertices      each mask outside stable_masks that a pointed candidate
                  defines -> the point its pointed candidates turn about,
                  or None when they turn about two or more points
    """

    grid: GridSpec
    masks: frozenset[int]
    stable_masks: frozenset[int]
    vertices: dict[int, Optional[Point]]

    def classify(self, mask: int) -> StabilityClass:
        """Stable/unstable class of a non-constant zero-set of this grid.

        Stable iff some candidate line through at least two lattice points
        defines it.  Otherwise unstable, and the defining pointed candidates
        all pass through one point, the vertex.

        On a degenerate grid every non-constant function counts as stable, by
        the singular-line convention: its zeros are a run from one end of the
        carrier line, pinned by two lattice points in the limit of turning
        the carrier about the run's last point.

        A zero-set the family misses, or an unstable one without a unique
        vertex, is a fault of the family and raises CandidateFamilyError
        with the zero-set as witness.
        """
        grid = self.grid
        if mask not in self.masks:
            raise CandidateFamilyError(_witness(
                grid, mask, f"candidate family missed a zero-set on grid ({grid.m}, {grid.n})"))
        if grid.is_degenerate or mask in self.stable_masks:
            return StabilityClass("stable")
        vertex = self.vertices.get(mask)
        if vertex is None:
            raise CandidateFamilyError(_witness(
                grid, mask, f"unstable zero-set on grid ({grid.m}, {grid.n}) lacks a unique vertex"))
        return StabilityClass("unstable", vertex=vertex)


def _bits(grid: GridSpec, mask: int) -> str:
    """The zero bit-set ``mask`` as a string, row-major, bit 0 first."""
    return format(mask, f"0{grid.point_count}b")[::-1]


def _witness(grid: GridSpec, mask: int, label: str) -> str:
    return f"{label}: zeros={_bits(grid, mask)}"


def scan_candidates(grid: GridSpec) -> CandidateScan:
    """Evaluate every candidate line, recording zero-sets, stable sets and
    pivots, as the module docstring sets out: the directions d > (0, 0)
    are scanned, and each set of an antipode is read off as the
    complement of a set of d.  The two constants are seeded, since 0 x 0
    has no direction."""
    pts = grid.points()
    full = (1 << len(pts)) - 1
    bit = [1 << i for i in range(len(pts))]
    stable: set[int] = set()
    # mask -> its pivot, None once a second one turns up; pivots are
    # compared by identity, since each point is one tuple of pts
    vertices: dict[int, Optional[Point]] = {}
    record = vertices.setdefault
    for d in candidate_directions(grid):
        if d < (0, 0):
            continue   # its sets are the complements of its antipode's
        dx, dy = d
        levels: dict[int, list[int]] = {}
        for i, (x, y) in enumerate(pts):
            levels.setdefault(dy * x - dx * y, []).append(i)
        below = 0
        for level in sorted(levels):
            on = levels[level]   # in row-major order (y, then x): along the line
            if len(on) == 1:
                below |= bit[on[0]]
                continue
            first = last = below
            for j in range(len(on) - 1):
                first |= bit[on[j]]
                last |= bit[on[-1 - j]]
                # each set and its complement, a set of the antipode whose
                # pivot is the next point in along the level
                head, tail = pts[on[j]], pts[on[-1 - j]]
                if record(first, head) is not head:
                    vertices[first] = None
                if record(last, tail) is not tail:
                    vertices[last] = None
                head, tail = pts[on[j + 1]], pts[on[-2 - j]]
                mask = full ^ first
                if record(mask, head) is not head:
                    vertices[mask] = None
                mask = full ^ last
                if record(mask, tail) is not tail:
                    vertices[mask] = None
            above = first | bit[on[-1]]
            # the line through the level, oriented either way
            stable.add(above)
            stable.add(full ^ below)
            below = above
    for mask in stable:
        vertices.pop(mask, None)
    masks = frozenset().union(stable, vertices, (0, full))
    return CandidateScan(grid, masks, frozenset(stable), vertices)


def classify(f: ThresholdFn, scan: Optional[CandidateScan] = None) -> StabilityClass:
    """Stable/unstable classification of a non-constant threshold function.

    Reads CandidateScan.classify; ``scan`` may carry a precomputed scan of
    f's grid to avoid rescanning.  Constants and zero-sets that no line
    realizes are rejected with ValueError.
    """
    if f.is_constant:
        raise ValueError("constant functions have no stable/unstable classification")
    if scan is None:
        scan = scan_candidates(f.grid)
    elif scan.grid != f.grid:
        raise ValueError("candidate scan belongs to a different grid")
    if f.zeros not in scan.masks:
        raise ValueError("function is not realized by the candidate family")
    return scan.classify(f.zeros)
