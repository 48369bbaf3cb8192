"""Brute-force ground truth for every closed-form count.

Two independent enumerations of all threshold functions on a grid:

* enumerate_by_subsets keeps the separable dichotomies of the lattice,
  deciding separability by exact convex-hull disjointness (zeros on the
  closed side, ones strictly on the open side, which for compact hulls
  is equivalent to the hulls being disjoint), a separating-axis test in
  integers.  It knows nothing about lines or the closed formulas.

* enumerate_by_lines evaluates the finite candidate-line family described
  in geometry and deduplicates the resulting zero-sets.

Both oracles read the stable/unstable split of F and its vertices from a
candidate scan, by lookup in its stable masks and vertex map, and both
take an optional ``scan``: the scan of the grid that the other oracle
already holds, so one request scans the candidate family once.  An
EnumerationResult holds the zero bit-sets as a frozenset; their
ascending tuple and their ThresholdFn list are built only when read.

Function identity is extensional: zero bit-sets, deduplicated by hash.
The subset oracle is the arbiter wherever it can run; cross_validate
reports any disagreement between the oracles and the formulas with the
disputed bit-sets as witnesses.  A subset function missing from the
candidate family is an internal fault and raises CandidateFamilyError
with its zero-set as witness.

The subset oracle's hull-test candidates are generated, not filtered out
of the 2^P subsets: a half-plane meets each grid row in an interval
anchored at one end (prefix for a > 0, suffix for a < 0), and the
interval lengths, being clamped floors of an affine function of the row
index, are monotone across rows.  So every separable dichotomy is a
staircase, all rows prefixes or all suffixes with monotone lengths, and
the oracle lists those directly from the monotone length sequences: at
most 4 C(m + n + 2, n + 1) of them (484 of the 2^20 subsets of a 4 x 3
grid).  The hull test alone decides membership for the staircases.

It reads one end of each row: of the prefix staircase of L, the right
end (l - 1, y) of a row's zeros and the left end (l, y) of its ones,
for its row length l = L[y], at most 2(n + 1) points instead of
(m + 1)(n + 1).  These two chains decide as the whole sides do.  A line
that separates the sides separates the chains, their subsets.
Conversely, let a x + b y + c be negative on the zeros' chain and
positive on the ones' chain (disjoint hulls are strictly separable):

* some row is proper (0 < l < m + 1): its two ends (l - 1, y) and (l, y)
  straddle the line, so a > 0.  A zero (x, y) of a row has
  x <= l - 1, so a x + b y + c is at most its value at (l - 1, y),
  which is negative; a one has x >= l and a positive value.  The line
  separates the whole sides;
* no row is proper: L is non-decreasing, so its rows of ones (l = 0)
  lie below its rows of zeros (l = m + 1), and a horizontal line between
  them separates the sides, while the chains, x = 0 on the lower rows
  and x = m on the upper, are disjoint segments.  Both tests say
  separable.

It runs once per symmetry orbit of staircases, not once per staircase.
The four renderings of a length sequence L (as given or reversed, every
row a prefix or every row a suffix) are the images of one another under
x -> m - x and y -> n - y, affine bijections of the lattice that preserve
hull disjointness.  The ones of the prefix rendering of L are a rendering
of L' = reversed(m + 1 - L), so L' gets the same verdict, hull
disjointness being symmetric in its two sides.  One hull test of a pair
{L, L'} thus decides all of its (at most eight) staircases: about
C(m + n + 2, n + 1) / 2 tests per grid, 66 for the 484 staircases of a
4 x 3 grid.  Every verdict is still an exact integer hull test, of the
staircase itself or of its image under a lattice symmetry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations_with_replacement
from typing import Iterable, Literal, Optional

from .counting import breakdown
from .errors import CapacityError
from .geometry import CandidateScan, Point, ThresholdFn, _bits, _witness, scan_candidates
from .grid import GridSpec
from .numtheory import NTTables

# the cap bounds hull tests, not memory: a grid has C(m + n + 2, n + 1)
# length sequences and about half as many hull tests, most at 7 x 7 (12 870
# sequences) within the cap, where cross_validate takes about 0.26 s and
# `oracle --m 7 --n 7` 0.16-0.23 s and 31 MB peak RSS (3 fresh processes,
# 2 shared vCPUs, Python 3.11); cross_validate runs the subset oracle on
# every grid within the cap, and past it the line oracle alone
SUBSET_POINT_CAP = 64
# the scan grows with (2m + 1)(2n + 1) / 2 directions times (m + 1)(n + 1)
# points, and the result with its masks: `oracle --method lines` takes
# 0.5-0.7 s and 66 MB peak RSS on 20 x 20, 1.7-1.8 s and 128 MB on 25 x 25,
# and 3.5-3.7 s and 260 MB on 30 x 30, its 561 834 functions (3 fresh
# processes, 2 shared vCPUs, Python 3.11); past the cap it is refused
LINES_EXTENT_CAP = 30

Method = Literal["subsets", "lines"]


def admits(method: Method, grid: GridSpec) -> bool:
    """Whether the oracle ``method`` runs on ``grid`` within its cap."""
    if method == "subsets":
        return grid.point_count <= SUBSET_POINT_CAP
    return max(grid.m, grid.n) <= LINES_EXTENT_CAP


def require_admitted(method: Method, grid: GridSpec) -> None:
    """Raise CapacityError unless the oracle ``method`` admits ``grid``."""
    if method == "subsets" and not admits(method, grid):
        raise CapacityError(f"grid ({grid.m}, {grid.n}) has {grid.point_count} points; "
                            f"subset enumeration is capped at {SUBSET_POINT_CAP}")
    if method == "lines" and not admits(method, grid):
        raise CapacityError(f"grid ({grid.m}, {grid.n}) exceeds the line-enumeration cap "
                            f"of {LINES_EXTENT_CAP}")


@dataclass(frozen=True, eq=False)
class EnumerationResult:
    """All threshold functions of one grid, with the F-class split.

    masks holds the zero bit-sets of the functions.  zero_sets, the same
    bit-sets in ascending order, and functions, their ThresholdFn list,
    are built on first access and then kept.  stable_count and
    unstable_count tally members of F only.  vertices maps the zero
    bit-set of each unstable F-member to its vertex, in ascending order;
    scan is the candidate scan the split was read from.
    """

    grid: GridSpec
    masks: frozenset[int] = field(repr=False)
    stable_count: int
    unstable_count: int
    method: Method
    vertices: dict[int, Point]
    scan: CandidateScan = field(repr=False)

    def __len__(self) -> int:
        return len(self.masks)

    @cached_property
    def zero_sets(self) -> tuple[int, ...]:
        return tuple(sorted(self.masks))

    @cached_property
    def functions(self) -> list[ThresholdFn]:
        return [ThresholdFn(self.grid, zeros) for zeros in self.zero_sets]


# ---------------------------------------------------------------------------
# exact hull predicates (integer arithmetic only)


def _cross(o: Point, a: Point, b: Point) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: list[Point]) -> list[Point]:
    """Convex hull, CCW, collinear interior points dropped.

    Degenerate inputs come back as themselves: a single point or the two
    endpoints of a collinear set.
    """
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    lower: list[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hulls_disjoint(points_a: list[Point], points_b: list[Point]) -> bool:
    """Exact disjointness of the convex hulls of two non-empty point sets.

    A separating-axis test (Gottschalk, Lin & Manocha, SIGGRAPH 1996):
    try the outward normal of every edge of either hull, a two-point hull
    counting as the two edges of a segment, and the direction of a
    two-point hull; they are disjoint iff one of these axes puts them
    strictly apart, so touching counts as intersecting.  On an edge's
    outward normal the edge's own hull tops out on the edge, so only the
    other hull is projected, and it must lie strictly beyond the edge.
    An axis strictly apart is a separating line.  Conversely, the hulls
    HA and HB are disjoint iff 0 is not in D = HA - HB, and every edge of
    D is an edge of HA with its outward normal, or one of -HB, which is
    an edge of HB with its outward normal negated:

    * D is 2-D and 0 is not in D: 0 lies strictly outside the half-plane
      of some edge of D.  If it is an edge of HA with outward normal u,
      max u.HA < min u.HB: HB lies beyond that edge.  If it is one of -HB,
      HA lies beyond the edge of HB with outward normal -u;
    * D is a segment, so each hull is a point or a segment parallel to
      it: a segment's normals separate if 0 is off D's line, its
      direction if 0 is on the line;
    * D is a point: both hulls are points, disjoint iff they differ.
    """
    ha, hb = _hull(points_a), _hull(points_b)
    if len(ha) == len(hb) == 1:
        return ha != hb
    if _beyond_an_edge(ha, hb) or _beyond_an_edge(hb, ha):
        return True
    for hull in (ha, hb):
        if len(hull) == 2:
            (x0, y0), (x1, y1) = hull
            u, v = x1 - x0, y1 - y0
            pa = [u * x + v * y for x, y in ha]
            pb = [u * x + v * y for x, y in hb]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return True
    return False


def _beyond_an_edge(hull: list[Point], other: list[Point]) -> bool:
    """Whether ``other`` lies strictly beyond some edge of ``hull`` (CCW),
    on the side its outward normal points to; a one-point hull has none."""
    if len(hull) < 2:
        return False
    for (x0, y0), (x1, y1) in zip(hull, hull[1:] + hull[:1]):
        u, v = y1 - y0, x0 - x1
        edge = u * x0 + v * y0
        for x, y in other:
            if u * x + v * y <= edge:
                break
        else:
            return True
    return False


def is_separable(zeros: list[Point], ones: list[Point]) -> bool:
    """Can some line put ``zeros`` on its closed side and ``ones`` strictly
    on the open side?  Empty sides are trivially separable."""
    if not zeros or not ones:
        return True
    return hulls_disjoint(zeros, ones)


# ---------------------------------------------------------------------------
# subset enumeration


def _renderings(lengths: tuple[int, ...], width: int) -> tuple[int, ...]:
    """The four staircases of a non-decreasing row-length sequence.

    The sequence is taken as given and reversed (its image under
    y -> n - y), and each is rendered with every row a prefix and with
    every row a suffix (the image under x -> m - x).
    """
    masks = []
    for order in (lengths, lengths[::-1]):
        prefix = suffix = 0
        for r, length in enumerate(order):
            row = (1 << length) - 1
            prefix |= row << (r * width)
            suffix |= row << (r * width + width - length)
        masks += (prefix, suffix)
    return tuple(masks)


def _chains(lengths: tuple[int, ...], m: int) -> tuple[list[Point], list[Point]]:
    """The two sides of the prefix staircase of ``lengths`` as its hull
    test reads them: the right end (l - 1, y) of each row's zeros and
    the left end (l, y) of each row's ones."""
    zeros = [(length - 1, y) for y, length in enumerate(lengths) if length]
    ones = [(length, y) for y, length in enumerate(lengths) if length <= m]
    return zeros, ones


def enumerate_by_subsets(grid: GridSpec, *,
                         scan: Optional[CandidateScan] = None) -> EnumerationResult:
    """Every subset of the lattice, kept iff it is a separable zero-set.

    Ground truth by definition: the subsets that are not staircases are
    not separable, and every staircase is decided by an exact hull test,
    one per symmetry orbit.  For a non-decreasing length sequence L the
    test splits the lattice into the prefix rendering of L (zeros) and
    the rest (ones), each side given by its chain of row ends (_chains,
    module docstring).  Its
    verdict holds for all four renderings of L, since the reflections
    x -> m - x and y -> n - y that map them onto one another are affine
    bijections of the lattice and preserve hull disjointness.  It holds
    for the partner L' = reversed(w - L) too (w = m + 1): the ones of
    prefix(L) are a rendering of L', and hull disjointness is symmetric
    in its two sides.  The sequences come in lexicographic order, so each
    pair is tested once, when its first member comes up, and a separable
    pair keeps the renderings of both.

    Grids of more than SUBSET_POINT_CAP points raise CapacityError.  The
    stable/unstable tallies are read afterwards from a candidate scan
    (classification is a statement about lines), ``scan`` if given; a
    subset function the candidate family misses would be a family gap and
    raises CandidateFamilyError.
    """
    require_admitted("subsets", grid)
    width = grid.m + 1
    kept: set[int] = set()
    for lengths in combinations_with_replacement(range(width + 1), grid.n + 1):
        partner = tuple(width - length for length in reversed(lengths))
        if partner < lengths:
            continue   # decided when the partner came up
        if is_separable(*_chains(lengths, grid.m)):
            kept.update(_renderings(lengths, width))
            kept.update(_renderings(partner, width))
    if scan is None:
        scan = scan_candidates(grid)
    return _classified(grid, kept, "subsets", scan)


def enumerate_by_lines(grid: GridSpec, *,
                       scan: Optional[CandidateScan] = None) -> EnumerationResult:
    """Every function realized by the candidate-line family, classified.

    ``scan``, if given, is the grid's candidate scan and is not redone.
    """
    require_admitted("lines", grid)
    if scan is None:
        scan = scan_candidates(grid)
    return _classified(grid, scan.masks, "lines", scan)


def _classified(grid: GridSpec, masks: Iterable[int], method: Method,
                scan: CandidateScan) -> EnumerationResult:
    """The enumeration result of ``masks``, with F split by lookups in
    the scan, as CandidateScan.classify splits one mask.

    Every mask must be in the scan, and every unstable one in F must have
    a vertex: the first fault in ascending order, a missing mask (in F or
    not) or a vertexless one, raises CandidateFamilyError with its
    zero-set as witness.
    """
    if scan.grid != grid:
        raise ValueError("candidate scan belongs to a different grid")
    masks = frozenset(masks)
    full = (1 << grid.point_count) - 1
    in_f = [m for m in masks if m & 1 and m != full]
    unstable = [] if grid.is_degenerate else sorted(
        m for m in in_f if m not in scan.stable_masks)
    vertices = dict(zip(unstable, map(scan.vertices.get, unstable)))
    if not masks <= scan.masks or None in vertices.values():
        faults = masks - scan.masks
        faults |= {m for m, vertex in vertices.items() if vertex is None}
        scan.classify(min(faults))   # raises the fault with its witness
    return EnumerationResult(
        grid=grid,
        masks=masks,
        stable_count=len(in_f) - len(unstable),
        unstable_count=len(unstable),
        method=method,
        vertices=vertices,
        scan=scan,
    )


# ---------------------------------------------------------------------------
# cross validation


@dataclass(frozen=True)
class CrossValidationReport:
    """Formula counts against oracle counts, with mismatch witnesses."""

    grid: GridSpec
    formula_total: int
    formula_stable: int
    formula_unstable: int
    provenance: str
    subset_total: Optional[int]
    lines_total: Optional[int]
    oracle_stable: Optional[int]
    oracle_unstable: Optional[int]
    total_matches: bool
    split_matches: bool
    oracles_agree: bool
    witnesses: list[str]

    @property
    def all_match(self) -> bool:
        return self.total_matches and self.split_matches and self.oracles_agree


def cross_validate(grid: GridSpec, tables: NTTables, *,
                   subsets: Optional[EnumerationResult] = None,
                   lines: Optional[EnumerationResult] = None) -> CrossValidationReport:
    """Run whichever oracles fit the grid and compare them to the formulas.

    ``subsets`` and ``lines`` are results of enumerate_by_subsets and
    enumerate_by_lines for this grid that the caller already holds; they
    are used as given, and only the oracles not passed in are run, on the
    candidate scan of the first oracle.

    Mismatches are report content, not errors; each carries the disputed
    bit-sets as witnesses.  A passed result of another grid raises
    ValueError.
    """
    if any(r is not None and r.grid != grid for r in (subsets, lines)):
        raise ValueError("oracle result was enumerated for a different grid")
    if subsets is None and admits("subsets", grid):
        subsets = enumerate_by_subsets(grid, scan=lines.scan if lines is not None else None)
    if lines is None and admits("lines", grid):
        lines = enumerate_by_lines(grid, scan=subsets.scan if subsets is not None else None)
    if subsets is None and lines is None:
        raise CapacityError(f"grid ({grid.m}, {grid.n}) is beyond both oracle ranges")

    counts = breakdown(grid, tables)
    witnesses: list[str] = []

    oracles_agree = True
    if subsets is not None and lines is not None:
        diff = subsets.masks.symmetric_difference(lines.masks)
        if diff:
            oracles_agree = False
            witnesses += [_witness(grid, m, "oracle disagreement") for m in sorted(diff)[:8]]

    primary = subsets if subsets is not None else lines
    assert primary is not None
    total_matches = len(primary) == counts.total
    if subsets is not None and lines is not None:
        total_matches = total_matches and len(lines) == counts.total
    if not total_matches:
        witnesses.append(
            f"count mismatch: formula {counts.total}, oracle {len(primary)}"
        )

    oracle_stable = primary.stable_count
    oracle_unstable = primary.unstable_count
    split_matches = (oracle_stable == counts.stable and oracle_unstable == counts.unstable)
    if not split_matches:
        witnesses.append(
            f"split mismatch: formula {counts.stable}/{counts.unstable}, "
            f"oracle {oracle_stable}/{oracle_unstable}"
        )

    return CrossValidationReport(
        grid=grid,
        formula_total=counts.total,
        formula_stable=counts.stable,
        formula_unstable=counts.unstable,
        provenance=counts.provenance,
        subset_total=len(subsets) if subsets is not None else None,
        lines_total=len(lines) if lines is not None else None,
        oracle_stable=oracle_stable,
        oracle_unstable=oracle_unstable,
        total_matches=total_matches,
        split_matches=split_matches,
        oracles_agree=oracles_agree,
        witnesses=witnesses,
    )


def dump_functions(result: EnumerationResult, path: str) -> None:
    """Write one bit-string per function (row-major zeros, bit 0 first)."""
    with open(path, "w", encoding="ascii") as fh:
        for zeros in result.zero_sets:
            fh.write(_bits(result.grid, zeros) + "\n")
