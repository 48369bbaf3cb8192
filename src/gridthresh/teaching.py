"""Minimum teaching sets of threshold functions on small grids.

A teaching set of f is a set T of lattice points such that every other
threshold function of the grid disagrees with f somewhere on T; a minimum
teaching set is one of smallest cardinality.  For non-constant functions
on a proper rectangle (m, n >= 1) the minimum size is 3 or 4, and which
one is predicted by a stability rule: size 3 if f is unstable, or if the
point-reflected complement g(x, y) = 1 - f(m - x, n - y) is unstable;
size 4 when both are stable.
On a degenerate (collinear) grid the rule predicts 2 for every
non-constant function: f is an anchored run, and the two points that
straddle its cut teach it, while no single point does, since a constant
agrees with f there.

A point p is forced for f when flipping f at p gives another function of
the universe.  Only p tells those two apart, so every teaching set holds
the forced set S.  min_teaching_set finds S with P set lookups and checks
that no other function agrees with f on S, in one bit-parallel pass over
the universe: an AND of one |universe|-bit column per point of S.  When
none does, S is the unique minimum teaching set, reported in
lexicographic point order: O(P + |universe|) per function.  Masks are
exact Python ints at every grid size.  On a complete universe the forced
set singles out every function, as the uniqueness of minimal teaching
sets of threshold functions leads one to expect (Shevchenko & Zolotykh,
ALT 1998), and it has done so on every grid the census accepts.  A
function it fails to single out is therefore a fault, of the universe or
of the candidate family behind it, and raises CandidateFamilyError with
f's zero-set as witness.

The census compares every answer against the rule, surfacing
disagreements instead of hiding them.  Constants fall outside the rule;
their sizes are still computed and reported.  It works on zero bit-sets
alone: a CensusResult keeps each function's forced points, as indices
into the lexicographic points, and the rule's size, and reads its
histogram and mismatches off them; the per-function TeachingReport list
is built only when ``reports`` is read.  Its first fault is the one a
function-by-function pass meets first: f's certificate, then f's
vertex, then, when f is stable, its complement's.

The universe is an EnumerationResult; the rule reads the stability of f
and its complement from that result's candidate scan, by lookup in its
stable masks and vertex map, so a census scans its grid once.  A census
costs O(|universe| (P + |universe|)), so grids above TEACH_POINT_CAP
points are refused with CapacityError before anything is enumerated.
A census that enumerates its own universe runs the line oracle, which
also refuses a side above oracle.LINES_EXTENT_CAP = 30 with
CapacityError before it scans: so grid (31, 0), of 32 points, is refused.
"""

from __future__ import annotations

import csv
import io
import threading
import weakref
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .errors import CandidateFamilyError, CapacityError
from .geometry import CandidateScan, Point, ThresholdFn, _complement_mask, _witness
from .geometry import classify, scan_candidates  # noqa: F401  (names perfbench/spans.py wraps)
from .grid import GridSpec
from .oracle import EnumerationResult, enumerate_by_lines

# an 8 x 8 grid (81 points, 4082 functions, the most functions of any grid
# within this cap) takes 0.11-0.13 s and 31 MB peak RSS for `teach --check`
# (3 fresh processes, 2 shared vCPUs, Python 3.11); past the cap a census
# is refused before enumerating
TEACH_POINT_CAP = 81


@dataclass(frozen=True)
class TeachingReport:
    """Minimum teaching set of one function, plus the rule's say.

    predicted_size and rule_agrees are None for constant functions.
    """

    fn: ThresholdFn
    min_size: int
    witness: tuple[Point, ...]
    predicted_size: Optional[int]
    rule_agrees: Optional[bool]


@dataclass(frozen=True)
class CensusResult:
    """Minimum teaching sets and rule sizes of every function of a grid.

    zero_sets are the universe's functions in ascending order, and forced
    and predicted run parallel to them: each function's minimum teaching
    set as indices into the grid's points in lexicographic order, and the
    rule's size (None for a constant).  reports builds the per-function
    TeachingReport list on first access.
    """

    grid: GridSpec
    zero_sets: tuple[int, ...]
    forced: list[list[int]]
    predicted: list[Optional[int]]

    @cached_property
    def reports(self) -> list[TeachingReport]:
        return self._reports(range(len(self.zero_sets)))

    def histogram(self) -> dict[int, int]:
        return dict(sorted(Counter(map(len, self.forced)).items()))

    def mismatches(self) -> list[TeachingReport]:
        return self._reports(i for i, (forced, predicted)
                             in enumerate(zip(self.forced, self.predicted))
                             if predicted is not None and predicted != len(forced))

    def _reports(self, indices: Iterable[int]) -> list[TeachingReport]:
        points, _ = _lexicographic(self.grid)
        reports = []
        for i in indices:
            forced, predicted = self.forced[i], self.predicted[i]
            reports.append(TeachingReport(
                ThresholdFn(self.grid, self.zero_sets[i]), len(forced),
                tuple(points[j] for j in forced), predicted,
                None if predicted is None else predicted == len(forced)))
        return reports

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["grid_m", "grid_n", "min_size", "count"])
        for size, count in self.histogram().items():
            writer.writerow([self.grid.m, self.grid.n, size, count])
        return out.getvalue()


def _check_capacity(grid: GridSpec) -> None:
    if grid.point_count > TEACH_POINT_CAP:
        raise CapacityError(
            f"grid ({grid.m}, {grid.n}) has {grid.point_count} points; "
            f"the teaching-set census is capped at {TEACH_POINT_CAP}"
        )


def _check_member(f: ThresholdFn, universe: EnumerationResult) -> None:
    if universe.grid != f.grid or f.zeros not in universe.masks:
        raise ValueError("function is not a member of the supplied universe")


def _lexicographic(grid: GridSpec) -> tuple[list[Point], list[int]]:
    """The points in lexicographic (x, y) order, with their row-major zero-set bits."""
    points = sorted(grid.points())
    return points, [1 << grid.bit_index(x, y) for x, y in points]


def _forced(zeros: int, bits: list[int], members: frozenset[int]) -> list[int]:
    """Indices of the bits whose flip turns f into another member."""
    return [j for j, bit in enumerate(bits) if zeros ^ bit in members]


class _Teacher:
    """Minimum teaching sets of the functions of one universe.

    Points are held in lexicographic (x, y) order, each with its
    row-major zero-set bit and its column: the |universe|-bit set of the
    functions that are 0 there.  Masks and columns are exact Python ints
    of any width.
    """

    def __init__(self, universe: EnumerationResult):
        grid = self.grid = universe.grid
        self.members = universe.masks
        points, self.bits = _lexicographic(grid)
        # transpose through binary strings: string position k is bit P-1-k
        # of a mask, and string position i of a column is function i
        width = grid.point_count
        rows = [format(zeros, f"0{width}b") for zeros in universe.zero_sets]
        by_bit = [int("".join(col)[::-1], 2) for col in zip(*rows)][::-1]
        self.columns = [by_bit[grid.bit_index(x, y)] for x, y in points]
        self.everyone = (1 << len(rows)) - 1

    def minimum(self, zeros: int) -> list[int]:
        """The minimum teaching set of f: its forced points, as indices
        into the points in lexicographic order."""
        bits, columns = self.bits, self.columns
        forced = _forced(zeros, bits, self.members)
        agree = self.everyone  # the members that agree with f on the forced set
        for j in forced:
            agree &= columns[j] if zeros & bits[j] else ~columns[j]
        # every teaching set holds the forced points; if they alone tell f
        # (itself a member) from every other member, they are the only
        # minimum teaching set; if not, the universe is at fault
        if agree.bit_count() != 1:
            raise CandidateFamilyError(_witness(
                self.grid, zeros,
                f"forced points fail to teach a function on grid ({self.grid.m}, {self.grid.n})"))
        return forced


# one teacher per universe, built on first use: the columns cost
# O(P |universe|), far more than one certificate; the universe is held
# weakly, so an entry lives only as long as its universe
_teachers: "weakref.WeakKeyDictionary[EnumerationResult, _Teacher]" = weakref.WeakKeyDictionary()
_teachers_lock = threading.Lock()


def _teacher(universe: EnumerationResult) -> _Teacher:
    with _teachers_lock:
        teacher = _teachers.get(universe)
        if teacher is None:
            teacher = _teachers[universe] = _Teacher(universe)
        return teacher


def _predict(grid: GridSpec, zeros: int, scan: CandidateScan) -> int:
    """The rule's size for a non-constant zero-set of the grid.

    The stability of f, and of its complement when f is stable, is read
    as CandidateScan.classify reads it, by lookup; an unstable one
    without a vertex is a family fault, raised with its zero-set as
    witness.
    """
    if grid.is_degenerate:
        return 2
    stable = scan.stable_masks
    unstable = zeros
    if zeros in stable:
        unstable = _complement_mask(grid, zeros)
        if unstable in stable:
            return 4
    if scan.vertices.get(unstable) is None:
        scan.classify(unstable)   # raises with the zero-set as witness
    return 3


def min_teaching_set(f: ThresholdFn, universe: EnumerationResult) -> TeachingReport:
    """Minimum teaching set of f within the complete universe.

    The universe's point columns are built on the first call (or census)
    for it and reused by later ones, so each call costs one certificate.
    """
    _check_member(f, universe)
    _check_capacity(f.grid)
    forced = _teacher(universe).minimum(f.zeros)
    predicted = None if f.is_constant else _predict(f.grid, f.zeros, universe.scan)
    # the report of a census of f alone
    return CensusResult(f.grid, (f.zeros,), [forced], [predicted]).reports[0]


def forced_points(f: ThresholdFn, universe: EnumerationResult) -> tuple[Point, ...]:
    """The points where flipping f gives another member of the universe.

    Every teaching set of f contains them; in lexicographic order.
    """
    _check_member(f, universe)
    points, bits = _lexicographic(f.grid)
    return tuple(points[j] for j in _forced(f.zeros, bits, universe.masks))


def predict_size(f: ThresholdFn, universe: EnumerationResult) -> int:
    """The 3-or-4 rule: 3 iff f or its point-reflected complement is unstable.

    On a degenerate grid (m == 0 or n == 0) the prediction is 2: the two
    points straddling the cut of the anchored run.
    """
    if f.is_constant:
        raise ValueError("the size rule does not apply to constant functions")
    _check_member(f, universe)
    return _predict(f.grid, f.zeros, universe.scan)


def census(grid: GridSpec, universe: Optional[EnumerationResult] = None) -> CensusResult:
    """The minimum teaching set and the rule's size of every threshold
    function of the grid.

    ``universe``, if given, is the grid's enumeration and is not redone;
    otherwise enumerate_by_lines builds it.  Raises CapacityError before
    enumerating when the grid has more than TEACH_POINT_CAP points, or,
    with no universe given, a side above LINES_EXTENT_CAP.
    """
    _check_capacity(grid)
    if universe is None:
        universe = enumerate_by_lines(grid)
    elif universe.grid != grid:
        raise ValueError("universe was enumerated for a different grid")
    teacher = _teacher(universe)
    scan, full = universe.scan, (1 << grid.point_count) - 1
    forced, predicted = [], []
    for zeros in universe.zero_sets:
        forced.append(teacher.minimum(zeros))
        predicted.append(None if zeros == 0 or zeros == full else _predict(grid, zeros, scan))
    return CensusResult(grid, universe.zero_sets, forced, predicted)
