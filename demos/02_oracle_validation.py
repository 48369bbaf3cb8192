"""Brute-force oracles corroborating the closed formula.

Two enumerations that share nothing with the formula or each other:
subset separability decides every dichotomy by an exact integer polygon
of separating cut lines; the candidate-line family realizes every function by
evaluating integer sign tests.  Their agreement with the formula is the
package's ground truth.
"""

from gridthresh import (
    GridSpec,
    cross_validate,
    enumerate_by_lines,
    enumerate_by_subsets,
    sieve,
)

tables = sieve(64)

grid = GridSpec(1, 1)
subsets = enumerate_by_subsets(grid)
print(f"2 x 2 lattice: {2**grid.point_count} dichotomies, "
      f"{len(subsets)} separable")

# the two non-threshold dichotomies are the diagonal splits
non_threshold = set(range(16)) - subsets.masks
print("non-separable zero-sets (as bit masks):", sorted(non_threshold))

# the line oracle finds exactly the same functions
lines = enumerate_by_lines(grid)
print("oracles agree:", subsets.masks == lines.masks)

print("\nEvery function of the 2 x 2 lattice (zeros shown as 0):")
for i, fn in enumerate(lines.functions):
    rows = fn.render().split("\n")
    print(f"  #{i:2d}  " + "  ".join(rows))

# cross-validation bundles both oracles and the formulas into one report
print("\nCross-validation:")
for spec in [(1, 1), (2, 3), (3, 3), (0, 5)]:
    report = cross_validate(GridSpec(*spec), tables)
    print(f"  grid {spec}: total {report.formula_total}, "
          f"stable {report.formula_stable}, unstable {report.formula_unstable}, "
          f"all match: {report.all_match} [{report.provenance}]")
