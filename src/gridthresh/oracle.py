"""Brute-force ground truth for every closed-form count.

Two independent enumerations of all threshold functions on a grid:

* enumerate_by_subsets keeps the separable dichotomies of the lattice,
  growing them line by line on the polygon of their cut lines, in exact
  integers.  It knows nothing about the candidate lines or the formulas.

* enumerate_by_lines evaluates the finite candidate-line family described
  in geometry and deduplicates the resulting zero-sets.

Both oracles read the stable/unstable split of F and its vertices from a
candidate scan, by lookup in its stable masks and vertex map.  An oracle
runs iff admits() admits the grid, in cross_validate, which runs every
such oracle on one scan, and in teaching.census alike.  An
EnumerationResult holds the zero bit-sets as a frozenset; their
ascending tuple and their ThresholdFn list are built only when read.

Function identity is extensional: zero bit-sets, deduplicated by hash.
The subset oracle is the arbiter wherever it can run; cross_validate
reports any disagreement between the oracles and the formulas with the
disputed bit-sets as witnesses.  A subset function missing from the
candidate family is an internal fault and raises CandidateFamilyError
with its zero-set as witness.

The subset oracle generates its candidates, not filtering them out of the
2^P subsets: a half-plane meets each grid row in an interval anchored at
one end (prefix for a > 0, suffix for a < 0), and the interval lengths,
being clamped floors of an affine function of the row index, are
monotone across rows.  So every separable dichotomy is a staircase, all
rows prefixes or all suffixes with monotone lengths, and so it is with
columns for rows.  Each staircase is one of the four renderings of a
non-decreasing length sequence L (as given or reversed, every line a
prefix or every line a suffix), images of one another under x -> m - x
and y -> n - y, which preserve separability.

The walk decides L by the preimage of a digital straight segment (Dorst
& Smeulders, IEEE PAMI 6, 1984).  Let a line y hold the points
x = 0..span and L[y] be its length in 0..w, w = span + 1.  The prefix
staircase of L is separable iff some cut x = s·y + t has its zeros
strictly left and its ones strictly right: a separating line with a != 0
solved for x is such a cut; a horizontal one leaves only empty lines
below full ones, and so does the cut x = w·(y - y0) - 1/2, y0 the last
empty line.

* Chain lemma: the cuts of L are those with L[y] - 1 < s·y + t where
  L[y] > 0, at its last zero (L[y] - 1, y), and s·y + t < L[y] where
  L[y] <= span, at its first one (L[y], y); the other zeros of a line
  lie further left and its other ones further right.  They form an open
  convex polygon Q(L), and L is separable iff Q(L) is not empty.
* Interval lemma: s·y + t is linear, so on the open Q it takes exactly
  the values of the open interval (v_min, v_max) of its extremes over the
  closure's vertices.  So Q(L + (l,)) is not empty iff (l - 1, l), each
  end dropped where l = 0 or l = w, meets (v_min, v_max): iff
  floor(v_min) + 1 <= l <= ceil(v_max) within 0..w.  The next line of a
  non-decreasing L after length prev takes exactly the lengths of
  [max(prev, min(w, floor(v_min) + 1)), min(w, max(0, ceil(v_max)))],
  none tested on its own.  The new closure is the old one clipped by the
  closed half-planes, as open convex sets that meet have the
  intersection of their closures as closure; a half-plane that holds
  every vertex is not clipped.
* Box bound: the walk starts from |s|, |t| <= P = w·lines, the point
  count, and the box keeps every non-empty Q(L) non-empty.  The bounds
  lie on lines s·y + t = c with c in 0..span.  If two of them have
  heights y1 != y2, the closure of Q(L) holds no line, so it has a
  vertex where two bound lines of different heights meet:
  |s| = |c1 - c2| / |y1 - y2| <= span and |t| = |c1 - s·y1| <= span·lines
  < P, with points of Q(L) arbitrarily close.  If all lie on one line,
  s = 0 and t within 1/2 of a bound, |t| <= span + 1/2 < P, is in Q(L).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd
from typing import Iterable, Iterator, Literal, Optional

from .counting import breakdown
from .errors import CapacityError
from .geometry import CandidateScan, Point, ThresholdFn, _bits, _witness, scan_candidates
from .grid import GridSpec
from .numtheory import NTTables

# the cap no longer bounds much cost: the walk visits only separable length
# sequences, most within the cap on 7 x 7 and 6 x 8, about 10 ms each after
# the scan; there cross_validate takes about 15 ms and `oracle --m 7 --n 7`
# 16-26 ms and 31 MB peak RSS (5 fresh processes, 2 shared vCPUs, Python
# 3.11).  cross_validate runs the subset oracle on every grid within the
# cap, and past it the line oracle alone
SUBSET_POINT_CAP = 64
# the scan grows with (2m + 1)(2n + 1) / 2 directions times (m + 1)(n + 1)
# points, and the result with its masks: the line oracle takes 0.5-0.7 s
# and 66 MB peak RSS on 20 x 20, 1.7-1.8 s and 128 MB on 25 x 25, and
# `oracle --m 30 --n 30` 3.5-3.7 s and 260 MB, its 561 834 functions (3
# fresh processes, 2 shared vCPUs, Python 3.11); past the cap it is refused
LINES_EXTENT_CAP = 30

Method = Literal["subsets", "lines"]


def admits(method: Method, grid: GridSpec) -> bool:
    """Whether the oracle ``method`` runs on ``grid`` within its cap: the
    one test of which oracles run."""
    if method == "subsets":
        return grid.point_count <= SUBSET_POINT_CAP
    return max(grid.m, grid.n) <= LINES_EXTENT_CAP


def require_an_oracle(grid: GridSpec) -> None:
    """Raise CapacityError unless some oracle admits ``grid``."""
    if not (admits("subsets", grid) or admits("lines", grid)):
        raise CapacityError(f"grid ({grid.m}, {grid.n}) is beyond both oracle ranges: "
                            f"more than {SUBSET_POINT_CAP} points and a side above "
                            f"{LINES_EXTENT_CAP}")


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
# the polygon of cut lines (exact integers only)

Vertex = tuple[int, int, int]   # (X, Y, Z), Z > 0: the cut x = (X / Z)·y + Y / Z


def _box(bound: int) -> list[Vertex]:
    """The cuts with |s|, |t| <= bound, counter-clockwise."""
    return [(-bound, -bound, 1), (bound, -bound, 1), (bound, bound, 1), (-bound, bound, 1)]


def _clip(polygon: list[Vertex], y: int, x: int, left: bool) -> list[Vertex]:
    """The part of a convex ``polygon`` of cuts (s, t) with s·y + t >= x
    (``left``: (x, y) on or left of the cut), or with s·y + t <= x.

    One Sutherland-Hodgman pass: a vertex on the closed side is kept, and
    an edge PQ whose ends lie strictly apart adds the point where it
    crosses, |f(P)|·Q + |f(Q)|·P for f = ±(s·y + t - x) in homogeneous
    form, reduced by its gcd.  A polygon with interior comes back with
    interior and at least three vertices, or else as a point, a segment
    or nothing: at most two vertices.
    """
    sign = 1 if left else -1
    clipped = []
    p = polygon[-1]
    fp = sign * (y * p[0] + p[1] - x * p[2])
    for q in polygon:
        fq = sign * (y * q[0] + q[1] - x * q[2])
        if fp * fq < 0:
            a, b = abs(fp), abs(fq)
            v = (a * q[0] + b * p[0], a * q[1] + b * p[1], a * q[2] + b * p[2])
            g = gcd(*v)
            clipped.append((v[0] // g, v[1] // g, v[2] // g))
        if fq >= 0:
            clipped.append(q)
        p, fp = q, fq
    return clipped


# perfbench/spans.py wraps this by name (gridthresh.oracle.is_separable)
def is_separable(zeros: list[Point], ones: list[Point]) -> bool:
    """Can some line put ``zeros`` on its closed side and ``ones`` strictly
    on the open side?  Empty sides are trivially separable.

    For finite sets that is a line with both sides strictly apart: a
    horizontal one iff the y ranges are apart, and otherwise a cut
    x = s·y + t with either side on its left.  The cuts with zeros left
    form an open polygon, those with s·y + t > x at each zero and < x at
    each one, non-empty iff its closure has interior; it is clipped from
    the box |s|, |t| <= 2C(C + 1) + 1, C the largest |coordinate|.  The
    box is big enough: if the bounds lie on two lines y1 != y2, the
    closure has a vertex where two of them meet, |s| <= 2C and
    |t| <= C + 2C·C, with points of the polygon arbitrarily close; if on
    one line, s = 0 and t within 1/2 of a bound is in it.
    """
    if not zeros or not ones:
        return True
    low0, high0 = min(y for _, y in zeros), max(y for _, y in zeros)
    low1, high1 = min(y for _, y in ones), max(y for _, y in ones)
    if high0 < low1 or high1 < low0:
        return True
    c = max(abs(v) for point in zeros + ones for v in point)
    for left, right in ((zeros, ones), (ones, zeros)):
        polygon = _box(2 * c * (c + 1) + 1)
        for x, y, side in [(x, y, True) for x, y in left] + [(x, y, False) for x, y in right]:
            polygon = _clip(polygon, y, x, side)
            if len(polygon) < 3:
                break
        else:
            return True
    return False


# ---------------------------------------------------------------------------
# subset enumeration


def _walk(span: int, lines: int) -> Iterator[tuple[int, ...]]:
    """Every separable non-decreasing sequence of 1 to ``lines`` lengths in
    0..span + 1, each once and before its extensions (module docstring).

    A sequence's polygon is the box |s|, |t| <= (span + 1)·lines clipped
    at its chain points, (l - 1, y) on the left if l > 0 and (l, y) on the
    right if l <= span; a sequence of all ``lines`` lengths is not clipped.
    """
    width = span + 1
    stack = [((), _box(width * lines), 0)]
    while stack:
        lengths, polygon, prev = stack.pop()
        y = len(lengths)
        values = [(y * s + t, z) for s, t, z in polygon]
        low = min(v // z for v, z in values)           # floor of the minimum
        high = max(-(-v // z) for v, z in values)      # ceiling of the maximum
        for length in range(max(prev, min(width, low + 1)), min(width, max(0, high)) + 1):
            grown = lengths + (length,)
            yield grown
            if y + 1 < lines:
                cut = polygon
                if 0 < length and length - 1 > low:
                    cut = _clip(cut, y, length - 1, True)
                if length <= span and length < high:
                    cut = _clip(cut, y, length, False)
                stack.append((grown, cut, length))


def _renderings(lengths: tuple[int, ...], width: int, line: int, point: int) -> tuple[int, ...]:
    """The four staircases of a non-decreasing length sequence, its lines
    ``line`` bits apart and a line's ``width`` points ``point`` bits apart.

    The sequence is taken as given and reversed (lines in the other
    order), and each is rendered with every line a prefix and with every
    line a suffix (points in the other order).  A run of l points is the
    repunit (2^(l·point) - 1) / (2^point - 1).
    """
    unit = (1 << point) - 1
    masks = []
    for order in (lengths, lengths[::-1]):
        prefix = suffix = 0
        for r, length in enumerate(order):
            run = ((1 << length * point) - 1) // unit
            prefix |= run << (r * line)
            suffix |= run << (r * line + (width - length) * point)
        masks += (prefix, suffix)
    return tuple(masks)


def enumerate_by_subsets(grid: GridSpec, *,
                         scan: Optional[CandidateScan] = None) -> EnumerationResult:
    """Every subset of the lattice, kept iff it is a separable zero-set.

    Ground truth by definition: the subsets that are not staircases are
    not separable, and the walk yields exactly the separable
    non-decreasing length sequences L, each once, in exact integers
    (module docstring); each adds its four renderings.  Lines run along
    the long side: the rows, or the columns when n > m.

    Grids of more than SUBSET_POINT_CAP points raise CapacityError.  The
    stable/unstable tallies are read afterwards from a candidate scan
    (classification is a statement about lines), ``scan`` if given; a
    subset function the candidate family misses would be a family gap and
    raises CandidateFamilyError.
    """
    require_admitted("subsets", grid)
    w = grid.m + 1   # bits per row
    span, lines, line, point = (grid.n, w, 1, w) if grid.n > grid.m else (grid.m, grid.n + 1, w, 1)
    kept: set[int] = set()
    for lengths in _walk(span, lines):
        if len(lengths) == lines:
            kept.update(_renderings(lengths, span + 1, line, point))
    if scan is None:
        scan = scan_candidates(grid)
    return _classified(grid, kept, scan)


def enumerate_by_lines(grid: GridSpec, *,
                       scan: Optional[CandidateScan] = None) -> EnumerationResult:
    """Every function realized by the candidate-line family, classified.

    ``scan``, if given, is the grid's candidate scan and is not redone.
    """
    require_admitted("lines", grid)
    if scan is None:
        scan = scan_candidates(grid)
    return _classified(grid, scan.masks, scan)


def _classified(grid: GridSpec, masks: Iterable[int], scan: CandidateScan) -> EnumerationResult:
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
    oracle_stable: int
    oracle_unstable: int
    total_matches: bool
    split_matches: bool
    oracles_agree: bool
    witnesses: list[str]
    enumeration: EnumerationResult = field(repr=False)  # the line oracle's if it ran

    @property
    def all_match(self) -> bool:
        return self.total_matches and self.split_matches and self.oracles_agree


def cross_validate(grid: GridSpec, tables: NTTables) -> CrossValidationReport:
    """Run every oracle that admits the grid and compare them to the formulas.

    Raises CapacityError before enumerating anything when no oracle admits
    the grid.  The oracles share one candidate scan, and the subset
    oracle, where it runs, gives the split.  Mismatches are report
    content, not errors; each carries the disputed bit-sets as witnesses.
    """
    require_an_oracle(grid)
    subsets = enumerate_by_subsets(grid) if admits("subsets", grid) else None
    lines = None
    if admits("lines", grid):
        lines = enumerate_by_lines(grid, scan=subsets.scan if subsets is not None else None)

    counts = breakdown(grid, tables)
    results = [r for r in (subsets, lines) if r is not None]
    primary = results[0]
    diff = subsets.masks ^ lines.masks if len(results) == 2 else frozenset()
    witnesses = [_witness(grid, m, "oracle disagreement") for m in sorted(diff)[:8]]
    total_matches = all(len(r) == counts.total for r in results)
    if not total_matches:
        witnesses.append(f"count mismatch: formula {counts.total}, oracle {len(primary)}")
    split = primary.stable_count, primary.unstable_count
    split_matches = split == (counts.stable, counts.unstable)
    if not split_matches:
        witnesses.append(f"split mismatch: formula {counts.stable}/{counts.unstable}, "
                         f"oracle {split[0]}/{split[1]}")

    return CrossValidationReport(
        grid=grid,
        formula_total=counts.total,
        formula_stable=counts.stable,
        formula_unstable=counts.unstable,
        provenance=counts.provenance,
        subset_total=len(subsets) if subsets is not None else None,
        lines_total=len(lines) if lines is not None else None,
        oracle_stable=split[0],
        oracle_unstable=split[1],
        total_matches=total_matches,
        split_matches=split_matches,
        oracles_agree=not diff,
        witnesses=witnesses,
        enumeration=results[-1],
    )


def dump_functions(result: EnumerationResult, path: str) -> None:
    """Write one bit-string per function (row-major zeros, bit 0 first)."""
    with open(path, "w", encoding="ascii") as fh:
        for zeros in result.zero_sets:
            fh.write(_bits(result.grid, zeros) + "\n")
