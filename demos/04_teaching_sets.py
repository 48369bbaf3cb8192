"""Minimum teaching sets.

A teaching set of f is a set of lattice points on which every other
threshold function disagrees with f somewhere.  For non-constant
functions the minimum size is always 3 or 4, decided by stability: size 3
iff f or its point-reflected complement 1 - f(m-x, n-y) is unstable.

A point is forced for f when flipping f there gives another threshold
function: every teaching set must hold it.  When the forced points alone
tell f from every other function, they are the unique minimum teaching
set, which is how the package computes it.

How many functions fall in each class is open; the census below measures
it on every function of desk-scale grids.
"""

from gridthresh import (
    GridSpec,
    ThresholdFn,
    census,
    enumerate_by_lines,
    forced_points,
    min_teaching_set,
)

# teaching the constant-zero function on the 3 x 3 lattice requires all
# four corners: each corner pins down the function that differs only there
grid = GridSpec(2, 2)
enum = enumerate_by_lines(grid)
const0 = ThresholdFn(grid, (1 << grid.point_count) - 1)
report = min_teaching_set(const0, enum)
print("constant 0 on the 3 x 3 lattice: min size", report.min_size,
      "witness", report.witness)

# an unstable function needs only 3 points: its vertex and the two
# witnesses of the adjacent pinned lines
tiny = GridSpec(1, 1)
singleton = ThresholdFn(tiny, 1)
report = min_teaching_set(singleton, enumerate_by_lines(tiny))
print("zeros only at the origin on the 2 x 2 lattice: min size",
      report.min_size, "witness", report.witness)

# a stable function on the 4 x 4 lattice: its forced points are exactly
# its minimum teaching set
grid = GridSpec(3, 3)
enum = enumerate_by_lines(grid)
diagonal = ThresholdFn(grid, 0b0000_0001_0011_0111)
print("\nzeros where x + y <= 2 on the 4 x 4 lattice:")
print(diagonal.render())
print("forced points:", forced_points(diagonal, enum))
print("minimum teaching set:", min_teaching_set(diagonal, enum).witness)

print("\nCensus (min_size -> count), with the 3/4 rule checked per function:")
for spec in [(1, 1), (2, 2), (2, 3), (3, 3)]:
    result = census(GridSpec(*spec))
    disagreements = result.mismatches()
    print(f"  grid {spec}: {result.histogram()}  "
          f"rule disagreements: {len(disagreements)}")

print("\nCSV form of the (3, 3) census:")
print(census(GridSpec(3, 3)).to_csv())
