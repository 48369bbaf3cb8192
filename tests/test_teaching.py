"""Unit tests for minimum teaching sets and the 3/4 size rule."""

import dataclasses
import gc
import random
import sys
import threading
import weakref
from itertools import combinations

import numpy as np
import pytest

import gridthresh.oracle
import gridthresh.teaching
from gridthresh import (
    GridSpec,
    ThresholdFn,
    census,
    complement_fn,
    cross_validate,
    enumerate_by_lines,
    enumerate_by_subsets,
    forced_points,
    min_teaching_set,
    predict_size,
    sieve,
)
from gridthresh.errors import CandidateFamilyError
from gridthresh.teaching import TeachingReport

from conftest import RANDOM_SEED


def fn_from_points(grid, points):
    zeros = 0
    for x, y in points:
        zeros |= 1 << grid.bit_index(x, y)
    return ThresholdFn(grid, zeros)


def is_teaching_set(f, functions, subset):
    for g in functions:
        if g.zeros == f.zeros:
            continue
        if all(g.value_at(x, y) == f.value_at(x, y) for x, y in subset):
            return False
    return True


def test_constant_zero_on_3x3_needs_the_four_corners():
    grid = GridSpec(2, 2)
    enum = enumerate_by_lines(grid)
    const0 = ThresholdFn(grid, (1 << grid.point_count) - 1)
    report = min_teaching_set(const0, enum)
    assert report.min_size == 4
    assert set(report.witness) == {(0, 0), (2, 0), (0, 2), (2, 2)}
    assert report.predicted_size is None
    assert report.rule_agrees is None


def test_unstable_corner_singleton_has_size_three():
    grid = GridSpec(1, 1)
    enum = enumerate_by_lines(grid)
    f = fn_from_points(grid, [(0, 0)])
    report = min_teaching_set(f, enum)
    assert report.min_size == 3
    assert report.predicted_size == 3
    assert report.rule_agrees is True


def test_witness_is_teaching_set_and_minimality_verified_independently():
    grid = GridSpec(1, 1)
    enum = enumerate_by_lines(grid)
    for f in enum.functions:
        report = min_teaching_set(f, enum)
        assert is_teaching_set(f, enum.functions, report.witness)
        points = grid.points()
        for size in range(1, report.min_size):
            for subset in combinations(points, size):
                assert not is_teaching_set(f, enum.functions, subset), (f.zeros, subset)


def test_supersets_of_teaching_sets_teach():
    grid = GridSpec(2, 2)
    enum = enumerate_by_lines(grid)
    points = grid.points()
    for f in enum.functions[:10]:
        report = min_teaching_set(f, enum)
        extra = next(p for p in points if p not in report.witness)
        assert is_teaching_set(f, enum.functions, report.witness + (extra,))


def test_min_teaching_set_requires_membership():
    grid = GridSpec(1, 1)
    enum = enumerate_by_lines(grid)
    diagonal = fn_from_points(grid, [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        min_teaching_set(diagonal, enum)


def test_predict_size_rejects_constants():
    grid = GridSpec(2, 2)
    enum = enumerate_by_lines(grid)
    with pytest.raises(ValueError):
        predict_size(ThresholdFn(grid, 0), enum)


def test_census_histogram_3x3():
    result = census(GridSpec(2, 2))
    assert result.histogram() == {3: 40, 4: 18}   # frozen from exhaustive search
    assert result.mismatches() == []


def test_census_histograms_are_flip_symmetric():
    grid = GridSpec(2, 2)
    result = census(grid)
    full = (1 << grid.point_count) - 1
    size_of = {r.fn.zeros: r.min_size for r in result.reports}
    for mask, size in size_of.items():
        assert size_of[mask ^ full] == size


def test_census_rule_agrees_on_small_grids():
    for spec in [(2, 2), (2, 3)]:
        result = census(GridSpec(*spec))
        assert result.mismatches() == [], spec
        for r in result.reports:
            if not r.fn.is_constant:
                assert r.min_size in (3, 4)


def test_census_csv_shape():
    out = census(GridSpec(1, 1)).to_csv()
    lines = out.strip().split("\n")
    assert lines[0] == "grid_m,grid_n,min_size,count"
    assert lines[1:] == ["1,1,3,8", "1,1,4,6"]


def test_census_accepts_explicit_universe():
    grid = GridSpec(1, 1)
    enum = enumerate_by_lines(grid)
    result = census(grid, universe=enum)
    assert sum(result.histogram().values()) == 14


def counted_teacher_builds(monkeypatch):
    builds = []
    original = gridthresh.teaching._Teacher.__init__

    def counted(self, universe):
        builds.append(universe.grid)
        original(self, universe)

    monkeypatch.setattr(gridthresh.teaching._Teacher, "__init__", counted)
    return builds


def test_min_teaching_set_builds_the_columns_once_per_universe(monkeypatch):
    builds = counted_teacher_builds(monkeypatch)
    enum = enumerate_by_lines(GridSpec(3, 2))
    reports = [min_teaching_set(f, enum) for f in enum.functions]
    assert reports == census(enum.grid, universe=enum).reports
    assert len(builds) == 1
    other = enumerate_by_lines(GridSpec(3, 2))   # equal, but another universe
    assert min_teaching_set(other.functions[5], other) == reports[5]
    assert len(builds) == 2
    # the cache holds its universes weakly
    alive = weakref.ref(enum)
    del enum
    gc.collect()
    assert alive() is None


def test_concurrent_first_calls_build_one_teacher(monkeypatch):
    builds = counted_teacher_builds(monkeypatch)
    enum = enumerate_by_lines(GridSpec(3, 3))
    workers = 8
    barrier = threading.Barrier(workers)
    reports = [None] * workers

    def work(i):
        barrier.wait(timeout=10)
        reports[i] = min_teaching_set(enum.functions[i], enum)

    threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(builds) == 1
    assert reports == census(enum.grid, universe=enum).reports[:workers]


def test_teaching_on_tiny_grids():
    # a single point: either function is taught by that point alone
    result = census(GridSpec(0, 0))
    assert result.histogram() == {1: 2}


class DenseTeachingSearch:
    """The exhaustive judge: every C(P, k) subset against every function.

    Subset bit-masks per size are built once (lexicographic point order)
    and reused across functions; the per-function test is a vectorised
    "every difference mask hits the subset" check.  Limited to 64 points.
    """

    def __init__(self, universe):
        grid = universe.grid
        self.all_masks = np.array([f.zeros for f in universe.functions], dtype=np.uint64)
        points = sorted(grid.points())  # lexicographic (x, y)
        self.points = points
        self.bits = [grid.bit_index(x, y) for x, y in points]
        self._combos = {}

    def _subsets(self, size):
        if size not in self._combos:
            combos = list(combinations(range(len(self.points)), size))
            masks = np.array(
                [sum(1 << self.bits[i] for i in combo) for combo in combos],
                dtype=np.uint64,
            )
            self._combos[size] = (combos, masks)
        return self._combos[size]

    def minimum(self, f):
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


def assert_census_matches_judge(universe):
    judge = DenseTeachingSearch(universe)
    result = census(universe.grid, universe=universe)
    assert [r.fn for r in result.reports] == universe.functions
    for report in result.reports:
        assert (report.min_size, report.witness) == judge.minimum(report.fn), report.fn.zeros


@pytest.mark.parametrize("m, n", [(m, n) for m in range(5) for n in range(5)]
                         + [(0, n) for n in range(5, 16)] + [(m, 0) for m in range(5, 16)])
def test_forced_point_certificate_equals_the_dense_judge(universe, m, n):
    assert_census_matches_judge(universe(m, n))


def test_forced_points_are_the_witness_on_complete_universes(universe):
    for spec in [(2, 2), (3, 2), (0, 4)]:
        enum = universe(*spec)
        for f in enum.functions:
            report = min_teaching_set(f, enum)
            assert report.witness == forced_points(f, enum), (spec, f.zeros)


def thinned(universe, rng, share):
    """The universe less every flip neighbour of one function, and less a
    random share of the other non-constant functions.

    The chosen function has no forced point left, and on 3 or more points
    a constant that is not its neighbour remains, so its certificate fails.
    """
    centre = rng.choice(universe.functions)
    neighbours = {centre.zeros ^ (1 << i) for i in range(universe.grid.point_count)}
    keep = [f for f in universe.functions
            if f == centre or (f.zeros not in neighbours
                               and (f.is_constant or rng.random() >= share))]
    return dataclasses.replace(universe, masks=frozenset(f.zeros for f in keep))


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2), (3, 2), (0, 5)])
def test_certificate_failure_on_thinned_universes_is_a_family_fault(universe, m, n):
    rng = random.Random(RANDOM_SEED + 7 * m + n)
    full = universe(m, n)
    for share in (0.2, 0.5, 0.8):
        with pytest.raises(CandidateFamilyError, match="zeros="):
            census(full.grid, universe=thinned(full, rng, share))


def test_census_rule_holds_on_every_grid_up_to_6x6(universe):
    for m in range(1, 7):
        for n in range(1, 7):
            result = census(GridSpec(m, n), universe=universe(m, n))
            assert result.mismatches() == [], (m, n)
            for r in result.reports:
                if not r.fn.is_constant:
                    assert r.min_size in (3, 4), (m, n, r.fn.zeros)


def census_by_function(universe):
    """The census one function at a time, a TeachingReport each: the
    forced points by flips, their certificate by counting the members
    that agree with f on them, and the rule by lookups of f and, when f
    is stable, of its pointwise complement.  The first fault raises, in
    that order."""
    grid, scan, members = universe.grid, universe.scan, universe.masks
    points = sorted(grid.points())

    def unstable(mask):
        if mask in scan.stable_masks:
            return False
        if scan.vertices.get(mask) is None:
            scan.classify(mask)   # raises the fault
        return True

    def complement(f):
        return sum(1 << grid.bit_index(x, y) for x, y in grid.points()
                   if f.value_at(grid.m - x, grid.n - y) == 1)

    reports = []
    for f in universe.functions:
        witness = tuple(p for p in points if f.zeros ^ (1 << grid.bit_index(*p)) in members)
        on = sum(1 << grid.bit_index(*p) for p in witness)
        if sum(1 for g in members if not (g ^ f.zeros) & on) != 1:
            raise CandidateFamilyError(
                f"forced points fail to teach a function on grid ({grid.m}, {grid.n}): "
                f"zeros={format(f.zeros, f'0{grid.point_count}b')[::-1]}")
        if f.is_constant:
            predicted = None
        elif grid.is_degenerate:
            predicted = 2
        else:
            predicted = 3 if unstable(f.zeros) or unstable(complement(f)) else 4
        reports.append(TeachingReport(f, len(witness), witness, predicted,
                                      None if predicted is None else predicted == len(witness)))
    return reports


@pytest.mark.parametrize("m", range(7))
def test_census_equals_the_census_by_function(universe, m):
    for n in range(7):
        enum = universe(m, n)
        result = census(enum.grid, universe=enum)
        assert result.reports == census_by_function(enum), n
        assert result.mismatches() == [r for r in result.reports if r.rule_agrees is False]


def fault_of(run, *args):
    """The type and message of the CandidateFamilyError ``run`` raises, if any."""
    try:
        run(*args)
    except CandidateFamilyError as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("m, n", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (0, 5)])
def test_census_raises_the_first_fault_of_the_census_by_function(universe, m, n):
    # certificate faults from thinned universes, vertex faults of f or of
    # its complement from scans with vertex gaps, and both at once
    rng = random.Random(RANDOM_SEED + 11 * m + n)
    full = universe(m, n)
    scan = full.scan
    pointed = sorted(scan.vertices)
    cases = [thinned(full, rng, share) for share in (0.2, 0.5, 0.8)]
    for gaps in (1, 2, 5, 5):
        victims = set(rng.sample(pointed, min(gaps, len(pointed))))
        lossy = dataclasses.replace(
            scan, vertices={k: v for k, v in scan.vertices.items() if k not in victims})
        cases.append(dataclasses.replace(full, scan=lossy))
        cases.append(dataclasses.replace(thinned(full, rng, 0.5), scan=lossy))
    kinds = set()
    for case in cases:
        expected = fault_of(census_by_function, case)
        assert fault_of(census, case.grid, case) == expected
        kinds.add(expected and ("vertex" if "vertex" in expected[1] else "certificate"))
    # a degenerate grid's rule reads no vertex, so its gaps raise nothing
    assert kinds == ({"certificate", None} if full.grid.is_degenerate
                     else {"certificate", "vertex"})


@pytest.mark.parametrize("m, n", [(3, 2), (2, 3), (3, 3)])
def test_census_meets_a_complement_fault_at_the_stable_function(universe, m, n):
    # f is stable and its complement c unstable; with the vertices of c
    # and of an unstable g between them gone, the first fault is c's,
    # met at f before g's own
    enum = universe(m, n)
    grid, scan = enum.grid, enum.scan
    unstable = sorted(scan.vertices)
    for f in enum.zero_sets:
        c = complement_fn(ThresholdFn(grid, f)).zeros
        between = [g for g in unstable if f < g < c]
        if f in scan.stable_masks and c in scan.vertices and between:
            break
    else:
        raise AssertionError("no stable function with such a complement")
    gone = {c, between[0]}
    lossy = dataclasses.replace(
        scan, vertices={k: v for k, v in scan.vertices.items() if k not in gone})
    case = dataclasses.replace(enum, scan=lossy)
    expected = fault_of(census_by_function, case)
    assert expected[1].endswith("zeros=" + format(c, f"0{grid.point_count}b")[::-1])
    assert fault_of(census, grid, case) == expected


def test_oracles_and_census_build_no_function_objects(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a ThresholdFn")

    monkeypatch.setattr(gridthresh.oracle, "ThresholdFn", refuse)
    monkeypatch.setattr(gridthresh.teaching, "ThresholdFn", refuse)
    grid = GridSpec(3, 2)
    subsets = enumerate_by_subsets(grid)
    lines = enumerate_by_lines(grid, scan=subsets.scan)
    assert cross_validate(grid, sieve(8), subsets=subsets, lines=lines).all_match
    result = census(grid, universe=lines)
    assert result.histogram() == {3: 64, 4: 36} and result.mismatches() == []
    with pytest.raises(AssertionError, match="ThresholdFn"):
        result.reports
