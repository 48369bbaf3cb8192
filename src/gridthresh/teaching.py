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

min_teaching_set verifies minimality exhaustively (sizes ascending,
subsets in lexicographic point order so witnesses are reproducible) and
the census compares every exhaustive answer against the rule, surfacing
disagreements instead of hiding them.  Constants fall outside the rule;
their sizes are still computed and reported.

The universe of a search is an EnumerationResult; the rule reads the
stability of f and its complement from that result's candidate scan
through CandidateScan.classify, so a census scans its grid once.  The
exhaustive search holds a C(P, 4) x |universe| matrix for a grid of P
points, so grids above TEACH_POINT_CAP points are refused with
CapacityError before anything is enumerated.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .errors import CapacityError
from .geometry import CandidateScan, Point, ThresholdFn, complement_fn
from .geometry import classify, scan_candidates  # noqa: F401  (names perfbench/spans.py wraps)
from .grid import GridSpec
from .oracle import EnumerationResult, enumerate_by_lines

TEACH_POINT_CAP = 36


@dataclass(frozen=True)
class TeachingReport:
    """Exhaustive minimum teaching set of one function, plus the rule's say.

    predicted_size and rule_agrees are None for constant functions.
    """

    fn: ThresholdFn
    min_size: int
    witness: tuple[Point, ...]
    predicted_size: Optional[int]
    rule_agrees: Optional[bool]


@dataclass(frozen=True)
class CensusResult:
    """Teaching-size histogram of a grid with the per-function reports."""

    grid: GridSpec
    reports: list[TeachingReport]

    def histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for r in self.reports:
            hist[r.min_size] = hist.get(r.min_size, 0) + 1
        return dict(sorted(hist.items()))

    def mismatches(self) -> list[TeachingReport]:
        return [r for r in self.reports if r.rule_agrees is False]

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
            f"the teaching-set search is capped at {TEACH_POINT_CAP}"
        )


def _check_member(f: ThresholdFn, universe: EnumerationResult) -> None:
    if universe.grid != f.grid or f.zeros not in universe.masks:
        raise ValueError("function is not a member of the supplied universe")


class _TeachingSearch:
    """Shared state for exhaustive teaching-set searches on one grid.

    Subset bit-masks per size are built once (lexicographic point order)
    and reused across functions; the per-function test is a vectorised
    "every difference mask hits the subset" check.
    """

    def __init__(self, universe: EnumerationResult):
        grid = universe.grid
        self.scan = universe.scan
        self.all_masks = np.array([f.zeros for f in universe.functions], dtype=np.uint64)
        points = sorted(grid.points())  # lexicographic (x, y)
        self.points = points
        self.bits = [grid.bit_index(x, y) for x, y in points]
        self._combos: dict[int, tuple[list[tuple[int, ...]], np.ndarray]] = {}

    def _subsets(self, size: int) -> tuple[list[tuple[int, ...]], np.ndarray]:
        if size not in self._combos:
            combos = list(combinations(range(len(self.points)), size))
            masks = np.array(
                [sum(1 << self.bits[i] for i in combo) for combo in combos],
                dtype=np.uint64,
            )
            self._combos[size] = (combos, masks)
        return self._combos[size]

    def minimum(self, f: ThresholdFn) -> tuple[int, tuple[Point, ...]]:
        diffs = self.all_masks ^ np.uint64(f.zeros)
        diffs = diffs[diffs != 0]
        for size in range(1, len(self.points) + 1):
            combos, masks = self._subsets(size)
            hits = np.all(diffs[None, :] & masks[:, None], axis=1)
            first = int(np.argmax(hits))
            if hits[first]:
                witness = tuple(self.points[i] for i in combos[first])
                return size, witness
        raise AssertionError("the full lattice is always a teaching set")


def _predict(f: ThresholdFn, scan: CandidateScan) -> int:
    if f.grid.is_degenerate:
        return 2
    if not scan.classify(f.zeros).is_stable:
        return 3
    if not scan.classify(complement_fn(f).zeros).is_stable:
        return 3
    return 4


def min_teaching_set(f: ThresholdFn, universe: EnumerationResult) -> TeachingReport:
    """Exhaustive minimum teaching set of f within the complete universe."""
    _check_member(f, universe)
    _check_capacity(f.grid)
    return _report_for(f, _TeachingSearch(universe))


def _report_for(f: ThresholdFn, search: _TeachingSearch) -> TeachingReport:
    size, witness = search.minimum(f)
    if f.is_constant:
        return TeachingReport(f, size, witness, None, None)
    predicted = _predict(f, search.scan)
    return TeachingReport(f, size, witness, predicted, predicted == size)


def predict_size(f: ThresholdFn, universe: EnumerationResult) -> int:
    """The 3-or-4 rule: 3 iff f or its point-reflected complement is unstable.

    On a degenerate grid (m == 0 or n == 0) the prediction is 2: the two
    points straddling the cut of the anchored run.
    """
    if f.is_constant:
        raise ValueError("the size rule does not apply to constant functions")
    _check_member(f, universe)
    return _predict(f, universe.scan)


def census(grid: GridSpec, universe: Optional[EnumerationResult] = None) -> CensusResult:
    """Teaching reports for every threshold function of the grid.

    ``universe``, if given, is the grid's enumeration and is not redone.
    """
    _check_capacity(grid)
    if universe is None:
        universe = enumerate_by_lines(grid)
    elif universe.grid != grid:
        raise ValueError("universe was enumerated for a different grid")
    search = _TeachingSearch(universe)
    reports = [_report_for(f, search) for f in universe.functions]
    return CensusResult(grid=grid, reports=reports)
