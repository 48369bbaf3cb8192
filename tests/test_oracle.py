"""Unit tests for the brute-force enumerations and cross-validation."""

import dataclasses
import random
from itertools import combinations_with_replacement
from math import gcd

import numpy as np
import pytest

from gridthresh import (
    CapacityError,
    GridSpec,
    complement_fn,
    cross_validate,
    dump_functions,
    enumerate_by_lines,
    enumerate_by_subsets,
    sieve,
)
from gridthresh.errors import CandidateFamilyError
from gridthresh.geometry import Point, scan_candidates
from gridthresh.oracle import (
    LINES_EXTENT_CAP,
    SUBSET_POINT_CAP,
    _classified,
    _renderings,
    _walk,
    is_separable,
)

TABLES = sieve(64)


# -- exact hull predicates: the judges of the polygon walk ---------------------

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


def _chains(lengths: tuple[int, ...], m: int) -> tuple[list[Point], list[Point]]:
    """The two sides of the prefix staircase of ``lengths`` as its hull
    test reads them: the right end (l - 1, y) of each row's zeros and
    the left end (l, y) of each row's ones."""
    zeros = [(length - 1, y) for y, length in enumerate(lengths) if length]
    ones = [(length, y) for y, length in enumerate(lengths) if length <= m]
    return zeros, ones


def hull_separable(zeros, ones):
    """Separability by the hull judge; empty sides are trivially separable."""
    return not zeros or not ones or hulls_disjoint(zeros, ones)


def test_hull_of_collinear_points_is_segment():
    assert _hull([(0, 0), (1, 1), (2, 2), (3, 3)]) == [(0, 0), (3, 3)]


def test_hull_drops_interior_points():
    square = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)]
    assert sorted(_hull(square)) == [(0, 0), (0, 2), (2, 0), (2, 2)]


def test_point_in_hull_boundary_counts():
    square = [(0, 0), (4, 0), (4, 4), (0, 4)]
    assert not hulls_disjoint([(2, 0)], square)
    assert not hulls_disjoint([(2, 2)], square)
    assert hulls_disjoint([(5, 2)], square)


def test_segments_collinear_overlap():
    assert not hulls_disjoint([(0, 0), (3, 0)], [(2, 0), (5, 0)])
    assert hulls_disjoint([(0, 0), (1, 0)], [(2, 0), (3, 0)])


def test_disjoint_collinear_segments():
    # the case plain edge-normal separation misses: all points on one line
    assert hulls_disjoint([(0, 0), (1, 0)], [(3, 0)])
    assert not hulls_disjoint([(0, 0), (2, 0)], [(1, 0)])


def test_touching_hulls_are_not_disjoint():
    assert not hulls_disjoint([(0, 0), (2, 0), (1, 2)], [(1, 2), (3, 3)])


def random_points(rng, box):
    """One to five points of the box, repeats allowed; a third of the
    sets lie on one lattice line."""
    k = rng.randint(1, 5)
    if rng.random() < 1 / 3:
        dx, dy = rng.choice([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)])
        x, y = rng.randrange(box), rng.randrange(box)
        line = [(x + t * dx, y + t * dy) for t in range(-box, box)
                if 0 <= x + t * dx < box and 0 <= y + t * dy < box]
        return [rng.choice(line) for _ in range(k)]
    return [(rng.randrange(box), rng.randrange(box)) for _ in range(k)]


def test_separating_axes_equal_a_direction_search():
    # two finite sets have disjoint hulls iff some direction (a, b) puts
    # max over A strictly below min over B.  Those directions form an open
    # convex cone bounded by normals of differences b - a, whose
    # coordinates are at most 5 in a 6 x 6 box; the sum of its two
    # bounding rays, or a difference itself when the cone is a half-plane,
    # lies inside, so |a|, |b| <= 12 finds every disjoint pair
    box, reach = 6, 12
    directions = np.array([(a, b) for a in range(-reach, reach + 1)
                           for b in range(-reach, reach + 1) if gcd(a, b) == 1])
    points = [(x, y) for x in range(box) for y in range(box)]
    projections = directions @ np.array(points).T
    rng = random.Random(20061)
    disjoint = 0
    for _ in range(10_000):
        a, b = random_points(rng, box), random_points(rng, box)
        ia = [points.index(p) for p in a]
        ib = [points.index(p) for p in b]
        searched = bool((projections[:, ia].max(axis=1) < projections[:, ib].min(axis=1)).any())
        assert hulls_disjoint(a, b) == searched, (a, b)
        assert is_separable(a, b) == searched, (a, b)
        disjoint += searched
    assert 2_000 < disjoint < 8_000
    # far from the origin and on both sides of it, where the clip box of
    # is_separable grows with the coordinates: the two tests agree
    rng = random.Random(20062)
    disjoint = 0
    for _ in range(2_000):
        a, b = ([(x - 50, y - 50) for x, y in random_points(rng, 101)] for _ in range(2))
        assert is_separable(a, b) == hulls_disjoint(a, b), (a, b)
        disjoint += is_separable(a, b)
    assert 200 < disjoint < 1_800


def test_diagonal_dichotomy_is_not_separable():
    assert not is_separable([(0, 0), (1, 1)], [(0, 1), (1, 0)])
    assert is_separable([(0, 0), (0, 1)], [(1, 0), (1, 1)])
    assert is_separable([], [(0, 0)])


# -- subset enumeration -------------------------------------------------------

def test_subsets_two_collinear_points():
    result = enumerate_by_subsets(GridSpec(1, 0))
    assert len(result) == 4   # every dichotomy of two points separates


def test_subsets_2x2_grid_excludes_diagonals():
    grid = GridSpec(1, 1)
    result = enumerate_by_subsets(grid)
    assert len(result) == 14
    diag1 = (1 << grid.bit_index(0, 0)) | (1 << grid.bit_index(1, 1))
    diag2 = (1 << grid.bit_index(1, 0)) | (1 << grid.bit_index(0, 1))
    assert result.masks == frozenset(range(16)) - {diag1, diag2}


def test_subsets_3x3_grid():
    result = enumerate_by_subsets(GridSpec(2, 2))
    assert len(result) == 58
    assert result.stable_count == 21
    assert result.unstable_count == 7


def staircases(grid):
    """The zero-sets whose rows are all prefixes or all suffixes, with
    monotone lengths, in ascending order: the renderings of every
    non-decreasing sequence of row lengths."""
    width = grid.m + 1
    masks = set()
    for lengths in combinations_with_replacement(range(width + 1), grid.n + 1):
        masks.update(_renderings(lengths, width, width, 1))
    return sorted(masks)


@pytest.mark.parametrize("m, n", [(m, n) for m in range(12) for n in range(12)
                                  if (m + 1) * (n + 1) <= 12])
def test_staircases_hold_every_separable_dichotomy(m, n):
    grid = GridSpec(m, n)
    pts = grid.points()
    listed = staircases(grid)
    assert listed == sorted(set(listed))
    generated = set(listed)
    for mask in range(1 << grid.point_count):
        zeros = [p for i, p in enumerate(pts) if (mask >> i) & 1]
        ones = [p for i, p in enumerate(pts) if not (mask >> i) & 1]
        if is_separable(zeros, ones):
            assert mask in generated, mask


def staircase_judge(grid):
    """The subset oracle by definition: one exact hull test per staircase,
    zeros and ones read from the mask bits."""
    pts = grid.points()
    kept = []
    for mask in staircases(grid):
        zeros = [p for i, p in enumerate(pts) if (mask >> i) & 1]
        ones = [p for i, p in enumerate(pts) if not (mask >> i) & 1]
        if hull_separable(zeros, ones):
            kept.append(mask)
    return _classified(grid, kept, "subsets", scan_candidates(grid))


@pytest.mark.parametrize("m, n", [(m, n) for m in range(20) for n in range(20)
                                  if (m + 1) * (n + 1) <= 20]
                         + [(4, 4), (5, 4), (4, 5), (5, 5)])
def test_orbit_hull_tests_equal_the_per_staircase_judge(m, n):
    # the subset oracle, a polygon walk along the long side, against one
    # hull test per staircase
    grid = GridSpec(m, n)
    judge = staircase_judge(grid)
    result = enumerate_by_subsets(grid)
    assert [f.zeros for f in result.functions] == [f.zeros for f in judge.functions]
    assert (result.stable_count, result.unstable_count) == (judge.stable_count,
                                                            judge.unstable_count)
    assert result.vertices == judge.vertices


@pytest.mark.parametrize("m, n", [(m, n) for m in range(20) for n in range(20)
                                  if (m + 1) * (n + 1) <= 20]
                         + [(4, 4), (5, 4), (4, 5), (5, 5), (1, 15), (15, 1)])
def test_the_walk_yields_each_separable_sequence_once(m, n):
    # rows of m + 1 points: every sequence the walk yields, and so every
    # prefix it extends, is separable by the hull test on its chains, and
    # it yields each separable sequence of 1 to n + 1 lengths exactly once
    walked = list(_walk(m, n + 1))
    assert len(walked) == len(set(walked))
    separable = [lengths for k in range(1, n + 2)
                 for lengths in combinations_with_replacement(range(m + 2), k)
                 if hull_separable(*_chains(lengths, m))]
    assert sorted(walked) == sorted(separable)


def four_row_ends(lengths, m):
    """The sides of the prefix staircase of ``lengths`` by both ends of
    every row of zeros and every row of ones."""
    zeros = [(x, y) for y, length in enumerate(lengths) if length for x in (0, length - 1)]
    ones = [(x, y) for y, length in enumerate(lengths) if length <= m for x in (length, m)]
    return zeros, ones


@pytest.mark.parametrize("m", range(SUBSET_POINT_CAP))
def test_chain_ends_decide_as_the_four_row_ends(m):
    # the chain lemma the walk rests on, by the hull judge, on one length
    # sequence per complement pair of every grid within the cap: the
    # zeros' right ends and the ones' left ends give the verdict of all
    # four row ends
    width = m + 1
    for n in range(SUBSET_POINT_CAP // width):
        for lengths in combinations_with_replacement(range(width + 1), n + 1):
            if tuple(width - length for length in reversed(lengths)) < lengths:
                continue
            chains = _chains(lengths, m)
            assert hull_separable(*chains) == hull_separable(*four_row_ends(lengths, m)), (n, lengths)


@pytest.mark.parametrize("m, n", [(7, 7), (8, 6), (6, 8), (15, 3), (3, 15)])
def test_oracles_agree_at_the_subset_cap(m, n):
    # each oracle on its own scan: masks, split and vertices
    grid = GridSpec(m, n)
    subsets, lines = enumerate_by_subsets(grid), enumerate_by_lines(grid)
    assert subsets.scan is not lines.scan
    assert [f.zeros for f in subsets.functions] == [f.zeros for f in lines.functions]
    assert (subsets.stable_count, subsets.unstable_count) == (lines.stable_count,
                                                              lines.unstable_count)
    assert subsets.vertices == lines.vertices


# -- the split read by lookup ----------------------------------------------------

def classified_by_mask(grid, masks, scan):
    """The split of F by one CandidateScan.classify call per mask, with a
    membership check on every mask outside F: (stable, unstable, vertices)."""
    full = (1 << grid.point_count) - 1
    stable = unstable = 0
    vertices = {}
    for m in masks:
        if not (m & 1) or m == full:
            if m not in scan.masks:
                raise CandidateFamilyError(
                    f"candidate family missed a zero-set on grid ({grid.m}, {grid.n}): "
                    f"zeros={format(m, f'0{grid.point_count}b')[::-1]}")
            continue
        kind = scan.classify(m)
        if kind.is_stable:
            stable += 1
        else:
            unstable += 1
            vertices[m] = kind.vertex
    return stable, unstable, vertices


def split_or_fault(classify, grid, masks, scan):
    """The split of ``classify``, or the type and message of its family fault."""
    try:
        return classify(grid, masks, scan)
    except CandidateFamilyError as exc:
        return type(exc), str(exc)


def lookup_split(grid, masks, scan):
    result = _classified(grid, masks, "lines", scan)
    return result.stable_count, result.unstable_count, result.vertices


@pytest.mark.parametrize("m, n", [(m, n) for m in range(9) for n in range(9)])
def test_split_by_lookup_equals_the_per_mask_classifier(m, n):
    grid = GridSpec(m, n)
    scan = scan_candidates(grid)
    masks = sorted(scan.masks)
    expected = classified_by_mask(grid, masks, scan)
    result = lookup_split(grid, masks, scan)
    assert result == expected
    assert list(result[2]) == list(expected[2])   # ascending, as the masks


@pytest.mark.parametrize("m, n", [(1, 1), (2, 2), (3, 2), (3, 3), (0, 3), (4, 3)])
def test_split_by_lookup_raises_the_per_mask_fault_on_lossy_scans(m, n):
    grid = GridSpec(m, n)
    scan = scan_candidates(grid)
    masks = sorted(scan.masks)
    rng = random.Random(1000 * m + n)
    pointed = sorted(scan.vertices)
    unstable = [k for k in pointed if k & 1]

    def without(missing=(), vertexless=()):
        return dataclasses.replace(
            scan, masks=scan.masks - set(missing),
            vertices={k: v for k, v in scan.vertices.items() if k not in vertexless})

    lossy = [without(missing=[victim]) for victim in rng.sample(masks, min(6, len(masks)))]
    lossy += [without(vertexless=[victim]) for victim in rng.sample(pointed, min(6, len(pointed)))]
    for _ in range(6):
        if unstable:
            lossy.append(without(missing=[rng.choice(masks)], vertexless=[rng.choice(unstable)]))
    messages = set()
    for broken in lossy:
        expected = split_or_fault(classified_by_mask, grid, masks, broken)
        assert split_or_fault(lookup_split, grid, masks, broken) == expected
        if expected[0] is CandidateFamilyError:
            messages.add("missed" if "missed" in expected[1] else "vertex")
    assert messages == ({"missed"} if grid.is_degenerate else {"missed", "vertex"})


def test_split_by_lookup_reports_the_first_fault_in_mask_order():
    grid = GridSpec(2, 2)
    scan = scan_candidates(grid)
    masks = sorted(scan.masks)
    unstable = [k for k in scan.vertices if k & 1]
    low, high = min(unstable), max(unstable)
    for missing, vertexless, message in ((low, high, "missed"), (high, low, "unique vertex")):
        broken = dataclasses.replace(
            scan, masks=scan.masks - {missing},
            vertices={k: v for k, v in scan.vertices.items() if k != vertexless})
        bits = format(min(missing, vertexless), f"0{grid.point_count}b")[::-1]
        with pytest.raises(CandidateFamilyError, match=f"{message}.*zeros={bits}"):
            _classified(grid, masks, "lines", broken)
        assert split_or_fault(lookup_split, grid, masks, broken) == split_or_fault(
            classified_by_mask, grid, masks, broken)


def test_subsets_cap_admits_collinear_grids_up_to_the_cap():
    assert SUBSET_POINT_CAP == 64
    assert len(enumerate_by_subsets(GridSpec(0, 63))) == 128
    with pytest.raises(CapacityError, match="capped at 64"):
        enumerate_by_subsets(GridSpec(0, 64))


def test_masks_are_built_once():
    # the masks with the result, the ascending tuple and the functions on
    # first access
    for result in (enumerate_by_subsets(GridSpec(1, 1)), enumerate_by_lines(GridSpec(1, 1)),
                   enumerate_by_subsets(GridSpec(3, 2)), enumerate_by_lines(GridSpec(3, 2))):
        assert result.masks is result.masks
        assert result.masks == frozenset(f.zeros for f in result.functions)
        assert result.zero_sets == tuple(sorted(result.masks))
        assert result.zero_sets is result.zero_sets and result.functions is result.functions
        assert [f.zeros for f in result.functions] == list(result.zero_sets)
        assert list(result.vertices) == sorted(result.vertices)
    scan = scan_candidates(GridSpec(3, 2))
    assert enumerate_by_lines(GridSpec(3, 2), scan=scan).masks is scan.masks


def test_subsets_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_by_subsets(GridSpec(10, 10))


def test_constants_always_enumerated():
    for spec in [(0, 0), (1, 0), (2, 3)]:
        grid = GridSpec(*spec)
        masks = enumerate_by_subsets(grid).masks
        assert 0 in masks
        assert (1 << grid.point_count) - 1 in masks


# -- line enumeration ---------------------------------------------------------

def test_lines_2x2_grid_breakdown():
    result = enumerate_by_lines(GridSpec(1, 1))
    assert len(result) == 14
    assert result.stable_count == 5
    assert result.unstable_count == 1
    assert result.vertices == {1: (0, 0)}   # zeros only at the origin


def test_lines_3x3_grid_breakdown():
    result = enumerate_by_lines(GridSpec(2, 2))
    assert len(result) == 58
    assert result.unstable_count == 7


def test_lines_single_point_grid():
    assert len(enumerate_by_lines(GridSpec(0, 0))) == 2


def test_lines_capacity_error():
    with pytest.raises(CapacityError):
        enumerate_by_lines(GridSpec(LINES_EXTENT_CAP + 1, 2))


def test_lines_at_the_extent_cap_matches_formula():
    from gridthresh import breakdown

    grid = GridSpec(15, 15)
    enum = enumerate_by_lines(grid)
    b = breakdown(grid, TABLES)
    assert len(enum) == b.total == 40150
    assert (enum.stable_count, enum.unstable_count) == (b.stable, b.unstable)


def test_cross_validate_on_the_line_cap_square():
    # formulas, split and line oracle against each other, past the subset cap
    assert LINES_EXTENT_CAP == 30
    grid = GridSpec(LINES_EXTENT_CAP, LINES_EXTENT_CAP)
    report = cross_validate(grid, sieve(LINES_EXTENT_CAP))
    assert report.subset_total is None
    assert report.all_match, report.witnesses


def test_oracles_agree_on_function_sets():
    for spec in [(0, 0), (1, 0), (0, 4), (1, 1), (2, 2), (2, 3), (3, 3), (1, 8)]:
        grid = GridSpec(*spec)
        assert enumerate_by_subsets(grid).masks == enumerate_by_lines(grid).masks, spec


def test_function_set_closed_under_complements():
    for spec in [(2, 2), (2, 3)]:
        grid = GridSpec(*spec)
        result = enumerate_by_lines(grid)
        masks = result.masks
        full = (1 << grid.point_count) - 1
        for f in result.functions:
            assert f.zeros ^ full in masks            # global flip 1 - f(x, y)
            assert complement_fn(f).zeros in masks    # point-reflected complement


def test_flip_bijection_between_f_class_and_its_mirror():
    grid = GridSpec(3, 2)
    result = enumerate_by_lines(grid)
    full = (1 << grid.point_count) - 1
    in_f = {f.zeros for f in result.functions if f.zeros & 1 and f.zeros != full}
    mirrored = {m ^ full for m in in_f}
    outside = {f.zeros for f in result.functions} - in_f - {0, full}
    # f -> 1 - f is a bijection between F and the non-constant functions
    # with f(0,0) = 1, which underpins N = 2(|F| + 1)
    assert mirrored == outside


# -- cross validation ---------------------------------------------------------

def test_cross_validate_small_grids_match():
    for spec in [(1, 1), (2, 3), (0, 5)]:
        report = cross_validate(GridSpec(*spec), TABLES)
        assert report.all_match, spec
        assert report.witnesses == []


def test_cross_validation_sweep_up_to_6x6():
    # formulas' total and split, line oracle and subset oracle, on every
    # grid with m, n <= 6, degenerate ones included
    for m in range(7):
        for n in range(7):
            grid = GridSpec(m, n)
            subsets = enumerate_by_subsets(grid)
            lines = enumerate_by_lines(grid, scan=subsets.scan)
            report = cross_validate(grid, TABLES, subsets=subsets, lines=lines)
            assert report.all_match and report.witnesses == [], (m, n, report.witnesses)
            assert report.subset_total == report.lines_total == report.formula_total, (m, n)
            assert subsets.masks == lines.masks, (m, n)
            split = (report.formula_stable, report.formula_unstable)
            assert (subsets.stable_count, subsets.unstable_count) == split, (m, n)
            assert (lines.stable_count, lines.unstable_count) == split, (m, n)


def test_cross_validate_total_value():
    report = cross_validate(GridSpec(2, 3), TABLES)
    assert report.formula_total == 100
    assert report.subset_total == 100
    assert report.lines_total == 100


def test_cross_validate_degenerate_uses_geometric_path():
    report = cross_validate(GridSpec(0, 5), TABLES)
    assert report.provenance == "geometric"
    assert report.all_match


def test_cross_validate_rejects_results_of_another_grid():
    small = GridSpec(1, 1)
    with pytest.raises(ValueError, match="different grid"):
        cross_validate(GridSpec(2, 2), TABLES, subsets=enumerate_by_subsets(small),
                       lines=enumerate_by_lines(small))
    with pytest.raises(ValueError, match="different grid"):
        cross_validate(GridSpec(2, 2), TABLES, lines=enumerate_by_lines(small))


def test_cross_validate_beyond_both_ranges():
    with pytest.raises(CapacityError):
        cross_validate(GridSpec(LINES_EXTENT_CAP + 1, LINES_EXTENT_CAP + 1), TABLES)


# -- dump ----------------------------------------------------------------------

def test_dump_functions_round_trip(tmp_path):
    grid = GridSpec(1, 1)
    result = enumerate_by_lines(grid)
    path = tmp_path / "functions.txt"
    dump_functions(result, str(path))
    lines = path.read_text().splitlines()
    assert len(lines) == 14
    assert all(len(line) == grid.point_count for line in lines)
    parsed = {int(line[::-1], 2) for line in lines}
    assert parsed == result.masks
