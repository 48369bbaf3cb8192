"""The integer grid that threshold functions live on."""

from __future__ import annotations

import operator
from dataclasses import dataclass

Point = tuple[int, int]


@dataclass(frozen=True)
class GridSpec:
    """The rectangle [0, m] x [0, n] and its integer lattice.

    The lattice has (m+1)*(n+1) points.  Grids with m == 0 or n == 0 are
    degenerate (all lattice points collinear); they are supported but some
    results are computed geometrically rather than by the rectangle
    formulas (see counting.breakdown).
    """

    m: int
    n: int

    def __post_init__(self) -> None:
        # sides are stored as Python ints: TypeError for a float, and a
        # numpy integer cannot overflow in the exact arithmetic downstream
        m, n = operator.index(self.m), operator.index(self.n)
        if m < 0 or n < 0:
            raise ValueError(f"grid extents must be non-negative, got ({m}, {n})")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def point_count(self) -> int:
        return (self.m + 1) * (self.n + 1)

    @property
    def is_degenerate(self) -> bool:
        return self.m == 0 or self.n == 0

    def points(self) -> list[Point]:
        """All lattice points in row-major order (y outer, x inner)."""
        return [(x, y) for y in range(self.n + 1) for x in range(self.m + 1)]

    def bit_index(self, x: int, y: int) -> int:
        """Position of (x, y) in the row-major bit order used by ThresholdFn."""
        if not (0 <= x <= self.m and 0 <= y <= self.n):
            raise ValueError(f"({x}, {y}) outside grid ({self.m}, {self.n})")
        return y * (self.m + 1) + x
