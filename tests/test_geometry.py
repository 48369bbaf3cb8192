"""Unit tests for lines, zero-sets, and stability classification."""

import dataclasses
import math
import random
import tracemalloc
from itertools import permutations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import gridthresh.geometry
from gridthresh import GridSpec, ThresholdFn, classify, complement_fn
from gridthresh.errors import CandidateFamilyError
from gridthresh.geometry import candidate_directions, scan_candidates

from conftest import RANDOM_SEED
from judges import Line, equivalent, lattice_points_on, zero_set


def fn_from_points(grid, points):
    zeros = 0
    for x, y in points:
        zeros |= 1 << grid.bit_index(x, y)
    return ThresholdFn(grid, zeros)


def points_of_mask(grid, mask):
    return {p for i, p in enumerate(grid.points()) if (mask >> i) & 1}


def in_f_class(f):
    """Member of F: f(0, 0) = 0 and f is not the constant zero."""
    return bool(f.zeros & 1) and f.zeros != (1 << f.grid.point_count) - 1


# -- Line --------------------------------------------------------------------

def test_line_rejects_zero_normal():
    with pytest.raises(ValueError):
        Line(0, 0, 5)


def test_line_canonical_scales_down():
    assert Line(2, 4, 6).canonical() == Line(1, 2, 3)
    # odd c2 cannot be reduced without moving the line
    assert Line(2, 2, 1).canonical() == Line(2, 2, 1)
    # orientation is preserved, never flipped
    assert Line(-2, -4, -6).canonical() == Line(-1, -2, -3)


def test_line_through_two_points():
    line = Line.through((0, 0), (2, 2))
    assert (line.a2, line.b2) in ((1, -1), (-1, 1))
    assert line.eval2(1, 1) == 0
    with pytest.raises(ValueError):
        Line.through((1, 1), (1, 1))


# -- zero sets ---------------------------------------------------------------

def test_zero_set_left_column():
    grid = GridSpec(2, 2)
    mask = zero_set(Line(1, 0, 0), grid)   # x <= 0
    assert points_of_mask(grid, mask) == {(0, 0), (0, 1), (0, 2)}


def test_zero_set_half_step_line():
    # -x - y + 1/2 <= 0, i.e. (a2, b2, c2) = (-2, -2, 1): zeros are x + y >= 1/2
    grid = GridSpec(1, 1)
    mask = zero_set(Line(-2, -2, 1), grid)
    assert points_of_mask(grid, mask) == {(1, 0), (0, 1), (1, 1)}


def test_zero_set_orientation_flip_complements_half_step():
    grid = GridSpec(2, 2)
    line = Line(1, -2, 3)   # odd c2: no lattice point on the line
    full = (1 << grid.point_count) - 1
    assert zero_set(line, grid) ^ zero_set(line.flipped(), grid) == full


@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(-30, 30))
def test_orientation_flip_property(a2, b2, c2half):
    if (a2, b2) == (0, 0):
        return
    grid = GridSpec(3, 4)
    line = Line(a2, b2, 2 * c2half + 1)   # force half-step
    full = (1 << grid.point_count) - 1
    assert zero_set(line, grid) ^ zero_set(line.flipped(), grid) == full


# -- equivalence -------------------------------------------------------------

def test_equivalent_reflexive():
    grid = GridSpec(2, 3)
    line = Line(3, -2, 4)
    assert equivalent(line, line, grid)


def test_equivalent_half_step_translate():
    # x <= 0 vs x <= 1/2: no lattice x strictly between
    grid = GridSpec(3, 3)
    assert equivalent(Line(1, 0, 0), Line(1, 0, -1), grid)


def test_not_equivalent_when_point_separates():
    grid = GridSpec(1, 1)
    assert not equivalent(Line(1, 0, 0), Line(1, 0, -2), grid)   # x<=0 vs x<=1


# -- lattice points on a line ------------------------------------------------

def test_lattice_points_on_diagonal():
    grid = GridSpec(2, 2)
    line = Line.through((0, 0), (1, 1))
    assert lattice_points_on(line, grid) == [(0, 0), (1, 1), (2, 2)]


def test_lattice_points_on_half_step_is_empty():
    grid = GridSpec(3, 3)
    assert lattice_points_on(Line(1, 1, -3), grid) == []


def test_lattice_points_on_vertical():
    grid = GridSpec(2, 2)
    assert lattice_points_on(Line(1, 0, -2), grid) == [(1, 0), (1, 1), (1, 2)]


# -- threshold functions -----------------------------------------------------

def test_thresholdfn_validation_and_views():
    grid = GridSpec(1, 1)
    f = fn_from_points(grid, [(0, 0)])
    assert f.value_at(0, 0) == 0
    assert f.value_at(1, 1) == 1
    assert points_of_mask(grid, f.zeros) == {(0, 0)}
    assert not f.is_constant
    assert in_f_class(f)
    with pytest.raises(ValueError):
        ThresholdFn(grid, 1 << 4)


def test_render_rows_top_to_bottom():
    grid = GridSpec(1, 1)
    f = fn_from_points(grid, [(0, 0)])
    assert f.render() == "11\n01"


def test_complement_fn_examples():
    grid = GridSpec(2, 2)
    const0 = ThresholdFn(grid, (1 << grid.point_count) - 1)
    assert complement_fn(const0).zeros == 0
    grid11 = GridSpec(1, 1)
    f = fn_from_points(grid11, [(0, 0)])
    assert points_of_mask(grid11, complement_fn(f).zeros) == {(0, 0), (1, 0), (0, 1)}


def test_complement_fn_is_involution_on_enumerated_functions():
    from gridthresh import enumerate_by_lines

    for f in enumerate_by_lines(GridSpec(2, 2)).functions:
        assert complement_fn(complement_fn(f)).zeros == f.zeros


def complement_by_points(f):
    """g(x, y) = 1 - f(m - x, n - y), point by point."""
    g = f.grid
    zeros = 0
    for y in range(g.n + 1):
        for x in range(g.m + 1):
            source = g.bit_index(g.m - x, g.n - y)
            if not (f.zeros >> source) & 1:
                zeros |= 1 << g.bit_index(x, y)
    return zeros


def test_complement_fn_equals_the_pointwise_reflection(universe):
    for m in range(6):
        for n in range(6):
            for f in universe(m, n).functions:
                assert complement_fn(f).zeros == complement_by_points(f), (m, n, f.zeros)


# -- classification ----------------------------------------------------------

def test_classify_unstable_corner_singleton():
    grid = GridSpec(1, 1)
    f = fn_from_points(grid, [(0, 0)])
    result = classify(f)
    assert result.kind == "unstable"
    assert result.vertex == (0, 0)


def test_classify_stable_column():
    grid = GridSpec(1, 1)
    f = fn_from_points(grid, [(0, 0), (0, 1)])
    result = classify(f)
    assert result.is_stable
    assert result.vertex is None


def test_classify_counts_unstable_on_2x2():
    from gridthresh import enumerate_by_lines

    grid = GridSpec(2, 2)
    enum = enumerate_by_lines(grid)
    unstable = [
        f for f in enum.functions
        if in_f_class(f) and not classify(f, scan=enum.scan).is_stable
    ]
    assert len(unstable) == 7


def test_classify_rejects_constants():
    grid = GridSpec(2, 2)
    with pytest.raises(ValueError):
        classify(ThresholdFn(grid, 0))


def test_classify_validates_universe_membership():
    from gridthresh import enumerate_by_lines

    grid = GridSpec(1, 1)
    enum = enumerate_by_lines(grid)
    diagonal = fn_from_points(grid, [(0, 0), (1, 1)])   # not separable, not in universe
    with pytest.raises(ValueError):
        classify(diagonal, scan=enum.scan)


def test_classify_degenerate_grid_convention():
    # collinear grids: anchored runs are pinned by the carrier line's
    # limit rotation, so every non-constant function counts as stable
    grid = GridSpec(1, 0)
    f = fn_from_points(grid, [(0, 0)])
    assert classify(f).is_stable


def test_classify_degenerate_rejects_gapped_zero_sets():
    grid = GridSpec(0, 3)
    gapped = fn_from_points(grid, [(0, 0), (0, 2)])
    with pytest.raises(ValueError):
        classify(gapped)
    suffix_run = fn_from_points(grid, [(0, 2), (0, 3)])
    assert classify(suffix_run).is_stable


def test_scan_classify_reports_family_faults_with_witness():
    grid = GridSpec(1, 1)
    scan = scan_candidates(grid)
    corner = fn_from_points(grid, [(0, 0)]).zeros
    assert scan.classify(corner) == classify(fn_from_points(grid, [(0, 0)]))
    diagonal = fn_from_points(grid, [(0, 0), (1, 1)]).zeros
    with pytest.raises(CandidateFamilyError, match="missed.*zeros=1001"):
        scan.classify(diagonal)
    vertexless = dataclasses.replace(scan, vertices={})
    with pytest.raises(CandidateFamilyError, match="unique vertex.*zeros=1000"):
        vertexless.classify(corner)


def scan_by_definition(grid):
    """The candidate family evaluated line by line: every line through two
    lattice points, in both orientations, and at each lattice point r on it
    the two lines through r alone turned either way.  A turned line has
    direction K d +- d_perp, K = m^2 + n^2 + 1, so every point off the line
    keeps its side; it counts when it moves one of the line's points to the
    open side.  The pivots of each mask reduce to the scan's vertex map:
    one pivot gives the point, two or more give None, and stable masks
    have no entry."""
    full = (1 << grid.point_count) - 1
    masks, stable, singles = {0, full}, set(), {}
    k = grid.m ** 2 + grid.n ** 2 + 1
    for line in {Line.through(p, q) for p, q in permutations(grid.points(), 2)}:
        below = zero_set(line, grid)
        masks.add(below)
        stable.add(below)
        a, b = line.a2, line.b2   # the normal; the direction is (-b, a)
        for rx, ry in lattice_points_on(line, grid):
            for sign in (1, -1):
                ta, tb = k * a - sign * b, k * b + sign * a
                turned = Line(ta, tb, -2 * (ta * rx + tb * ry))
                assert lattice_points_on(turned, grid) == [(rx, ry)]
                mask = zero_set(turned, grid)
                if mask & below == below:
                    continue   # every point of the line stayed on the closed side
                masks.add(mask)
                singles.setdefault(mask, set()).add((rx, ry))
    vertices = {k: next(iter(v)) if len(v) == 1 else None
                for k, v in singles.items() if k not in stable}
    return masks, stable, vertices


@pytest.mark.parametrize("m, n", [(m, n) for m in range(4) for n in range(4)]
                         + [(0, n) for n in range(4, 8)] + [(m, 0) for m in range(4, 8)])
def test_scan_equals_the_family_evaluated_by_definition(m, n):
    grid = GridSpec(m, n)
    scan = scan_candidates(grid)
    assert (scan.masks, scan.stable_masks, scan.vertices) == scan_by_definition(grid)


def doubled_box_directions(grid):
    """All primitive directions (dx, dy), |dx| <= 2m+1, |dy| <= 2n+1."""
    bx, by = 2 * grid.m + 1, 2 * grid.n + 1
    for dx in range(-bx, bx + 1):
        for dy in range(-by, by + 1):
            if (dx, dy) != (0, 0) and math.gcd(abs(dx), abs(dy)) == 1:
                yield dx, dy


def scan_doubled_box(grid):
    """An independent family: every direction of the doubled box, each
    level's running set recorded, stable at a level of two or more points
    and pointed at the point of a one-point level.  It reaches an unstable
    function through the mediant of the two stable directions adjacent at
    its vertex (components within 2m, 2n, plus one for the axis cases)."""
    pts = grid.points()
    masks: set[int] = {0}
    stable: set[int] = set()
    singles: dict[int, set] = {}
    for dx, dy in doubled_box_directions(grid):
        levels: dict[int, list[int]] = {}
        for i, (x, y) in enumerate(pts):
            levels.setdefault(dy * x - dx * y, []).append(i)
        below = 0
        for level in sorted(levels):
            on = levels[level]
            for i in on:
                below |= 1 << i
            masks.add(below)
            if len(on) >= 2:
                stable.add(below)
            else:
                singles.setdefault(below, set()).add(pts[on[0]])
    return masks, stable, singles


@pytest.mark.parametrize("m, n", [(m, n) for m in range(9) for n in range(9)]
                         + [(12, 12), (15, 7), (15, 15)])
def test_scan_equals_the_doubled_box_family(m, n):
    grid = GridSpec(m, n)
    scan = scan_candidates(grid)
    masks, stable, singles = scan_doubled_box(grid)
    assert scan.masks == masks and scan.stable_masks == stable
    full = (1 << grid.point_count) - 1
    for mask in masks - stable - {0, full}:
        assert {scan.vertices[mask]} == singles[mask], bin(mask)
        assert len(singles[mask]) == 1, bin(mask)


def test_every_nonconstant_mask_has_pointed_defining_candidate():
    for spec in [(2, 2), (2, 3), (3, 3)]:
        grid = GridSpec(*spec)
        scan = scan_candidates(grid)
        full = (1 << grid.point_count) - 1
        pointed = scan.stable_masks | set(scan.vertices)
        for mask in scan.masks:
            if mask not in (0, full):
                assert mask in pointed, (spec, bin(mask))


def test_unstable_masks_have_unique_vertex():
    grid = GridSpec(3, 3)
    scan = scan_candidates(grid)
    full = (1 << grid.point_count) - 1
    for mask in scan.masks:
        if mask in (0, full) or not (mask & 1):
            continue
        if mask not in scan.stable_masks:
            assert scan.vertices[mask] is not None


@pytest.mark.parametrize("m, n", [(m, n) for m in range(7) for n in range(7)] + [(15, 7)])
def test_vertex_map_holds_only_masks_outside_the_stable_ones(m, n):
    scan = scan_candidates(GridSpec(m, n))
    assert scan.vertices.keys().isdisjoint(scan.stable_masks)
    assert scan.vertices.keys() <= scan.masks


def pivot_sets(grid, directions):
    """The scan over ``directions`` with a set of pivots per pointed mask:
    (stable masks, mask -> pivots)."""
    pts = grid.points()
    stable, pivots = set(), {}
    for dx, dy in directions:
        levels = {}
        for i, (x, y) in enumerate(pts):
            levels.setdefault(dy * x - dx * y, []).append(i)
        below = 0
        for level in sorted(levels):
            on = levels[level]
            first = last = below
            for j in range(len(on) - 1):
                first |= 1 << on[j]
                last |= 1 << on[-1 - j]
                pivots.setdefault(first, set()).add(pts[on[j]])
                pivots.setdefault(last, set()).add(pts[on[-1 - j]])
            below = first | 1 << on[-1]
            if len(on) >= 2:
                stable.add(below)
    return stable, pivots


@pytest.mark.parametrize("m, n", [(2, 2), (3, 2), (3, 3), (4, 1)])
def test_vertex_map_marks_masks_pointed_at_two_points(m, n, monkeypatch):
    # without the axis directions the family lacks the lines of the axis
    # cuts, which it then reaches only by lines turned about several points
    grid = GridSpec(m, n)
    directions = [d for d in candidate_directions(grid) if 0 not in d]
    monkeypatch.setattr(gridthresh.geometry, "candidate_directions", lambda grid: directions)
    scan = scan_candidates(grid)
    stable, pivots = pivot_sets(grid, directions)
    assert scan.stable_masks == stable
    assert scan.vertices == {k: next(iter(v)) if len(v) == 1 else None
                             for k, v in pivots.items() if k not in stable}
    twice = min(k for k, v in scan.vertices.items() if v is None)
    bits = format(twice, f"0{grid.point_count}b")[::-1]
    with pytest.raises(CandidateFamilyError, match=f"unique vertex.*zeros={bits}"):
        scan.classify(twice)


def scan_of_every_direction(grid):
    """The scan over every direction and its antipode alike, each set
    recorded as the direction's own running set: (masks, stable masks,
    vertex map)."""
    stable, pivots = pivot_sets(grid, candidate_directions(grid))
    vertices = {k: next(iter(v)) if len(v) == 1 else None
                for k, v in pivots.items() if k not in stable}
    return stable | set(pivots) | {0, (1 << grid.point_count) - 1}, stable, vertices


@pytest.mark.parametrize("m, ns", [(m, range(11)) for m in range(11)] + [(15, [15])],
                         ids=[f"m{m}" for m in range(11)] + ["15x15"])
def test_antipodal_scan_equals_the_scan_of_every_direction(m, ns):
    # the scan reads each antipode's sets off the direction's complements,
    # with pivots shifted one point along the level
    for n in ns:
        grid = GridSpec(m, n)
        scan = scan_candidates(grid)
        assert (scan.masks, scan.stable_masks, scan.vertices) == scan_of_every_direction(grid), n


def test_scan_of_15x15_peaks_under_20_mb():
    # a pivot set per pointed mask, stable ones included, peaked at 32 MB
    tracemalloc.start()
    try:
        scan = scan_candidates(GridSpec(15, 15))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(scan.masks) == 40150
    assert peak < 20_000_000, peak


def test_equivalent_stable_candidates_are_identical_after_canonicalization():
    # operational form of the uniqueness lemma for stable lines: within F,
    # all stable candidate lines defining one function coincide; the stable
    # candidates are the lines through two distinct lattice points, and the
    # ordered pairs give both orientations
    rng = random.Random(RANDOM_SEED)
    for spec in [(3, 3), (2, 4)]:
        grid = GridSpec(*spec)
        full = (1 << grid.point_count) - 1
        by_mask = {}
        for p, q in permutations(grid.points(), 2):
            line = Line.through(p, q)
            mask = zero_set(line, grid)
            if mask not in (0, full) and (mask & 1):
                by_mask.setdefault(mask, set()).add(line.canonical())
        assert by_mask, "no stable candidates found"
        masks = sorted(by_mask)
        for mask in rng.sample(masks, min(40, len(masks))):
            assert len(by_mask[mask]) == 1, (spec, bin(mask), by_mask[mask])
