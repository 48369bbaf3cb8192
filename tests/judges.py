"""Judges that only the tests use: slow definitional evaluations that the
production paths are checked against.

    u_naive             U(p, q) by the definition, counting gcd(i, j) = 1
                        over [1, p] x [1, q]; judges numtheory.u_mobius and
                        the U of the blocked kernel (uv_blocked, breakdown)
    uv_square_sequence  U(j, j) and 4V(j, j) for j = 0..n: the chunks of
                        numtheory._square_chunks as flat lists, which the
                        tests hold against u_mobius, v_fast and a pass in
                        Python ints
    Line                an oriented lattice line with integer coefficients
    zero_set            the zero bit-set a Line defines on a grid; with
                        Line.through it evaluates the candidate family line
                        by line, the judge of geometry.scan_candidates
    equivalent          whether two lines define the same function
    lattice_points_on   the grid points exactly on a line

A line is stored with doubled coefficients (a2, b2, c2), standing for
a2*x + b2*y + c2/2 <= 0.  The sign test at a lattice point is then the
pure integer comparison 2*(a2*x + b2*y) + c2 <= 0: an odd c2 encodes a
half-step offset whose line misses every lattice point, so no epsilon or
floating point reasoning appears anywhere.

Tests import this module by name, as they import conftest.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from gridthresh.grid import GridSpec, Point
from gridthresh.numtheory import NTTables, _read_only, _square_chunks


# u_naive reads U(p, q) for p, q <= this side from a table of gcd counts:
# (side + 1)^2 int64 counts, 8.4 MB, built once in about 90 ms (2 shared
# vCPUs); a judge's 90 601 calls over p, q <= 300 then take about 0.1 s
_U_TABLE_SIDE = 1024
_u_table_lock = threading.Lock()
_u_table: list[np.ndarray] = []  # the table, once built


def _coprime_counts() -> np.ndarray:
    """U(p, q) for 0 <= p, q <= _U_TABLE_SIDE: 2-D prefix sums of gcd(i, j) == 1."""
    if not _u_table:
        with _u_table_lock:
            if not _u_table:
                a = np.arange(1, _U_TABLE_SIDE + 1, dtype=np.int64)
                counts = np.zeros((_U_TABLE_SIDE + 1,) * 2, dtype=np.int64)
                counts[1:, 1:] = (np.gcd.outer(a, a) == 1).cumsum(axis=0).cumsum(axis=1)
                _u_table.append(_read_only(counts))
    return _u_table[0]


def u_naive(p: int, q: int) -> int:
    """U(p, q) by the definition: count gcd(i, j) = 1 over [1,p] x [1,q].

    Empty ranges give 0.  Up to _U_TABLE_SIDE on both sides the count is
    read from prefix sums of the gcd == 1 matrix, built once under a lock;
    past it, quadratic work, vectorised.  No Moebius function is involved,
    so it stays the independent oracle for u_mobius.
    """
    if p < 0 or q < 0:
        raise ValueError("U is defined for non-negative arguments")
    if p == 0 or q == 0:
        return 0
    if max(p, q) <= _U_TABLE_SIDE:
        return int(_coprime_counts()[p, q])
    b = np.arange(1, q + 1, dtype=np.int64)
    total = 0
    # chunk rows to bound the gcd matrix at ~4e6 entries
    step = max(1, 4_000_000 // q)
    for lo in range(1, p + 1, step):
        a = np.arange(lo, min(lo + step, p + 1), dtype=np.int64)
        total += int(np.count_nonzero(np.gcd.outer(a, b) == 1))
    return total


def uv_square_sequence(n: int, tables: NTTables) -> tuple[list[int], list[int]]:
    """U(j, j) and 4V(j, j) for j = 0..n, in one pass over phi.

    Summed in chunks by _square_chunks, in int64 where a proven bound
    allows it and in Python ints past it, so exact for every n.  Equals
    u_mobius(j, j, tables) and v_fast(j, j, tables).quadrupled.
    """
    u: list[int] = []
    four_v: list[int] = []
    for _, c, v in _square_chunks(n, tables):
        u += c.tolist()
        four_v += v.tolist()
    return u, four_v


@dataclass(frozen=True)
class Line:
    """Oriented line a2*x + b2*y + c2/2 <= 0 with integer coefficients.

    Orientation is significant: negating all three coefficients exchanges
    the open and closed sides.  (a2, b2) must not be (0, 0).
    """

    a2: int
    b2: int
    c2: int

    def __post_init__(self) -> None:
        if self.a2 == 0 and self.b2 == 0:
            raise ValueError("line normal must be non-zero")

    def eval2(self, x: int, y: int) -> int:
        """Twice the affine form at (x, y); zero iff the point lies on the line."""
        return 2 * (self.a2 * x + self.b2 * y) + self.c2

    def canonical(self) -> "Line":
        """Divide out any common positive factor (orientation preserved).

        Only a factor shared by all three coefficients can be removed
        without moving the line, since c2 carries the half-step parity.
        """
        g = math.gcd(self.a2, self.b2, self.c2)
        if g > 1:
            return Line(self.a2 // g, self.b2 // g, self.c2 // g)
        return self

    def flipped(self) -> "Line":
        """The same carrier line with the opposite orientation."""
        return Line(-self.a2, -self.b2, -self.c2)

    @classmethod
    def through(cls, p: Point, q: Point) -> "Line":
        """The line through two distinct lattice points, primitive normal."""
        if p == q:
            raise ValueError("two distinct points required")
        dx, dy = q[0] - p[0], q[1] - p[1]
        g = math.gcd(abs(dx), abs(dy))
        a, b = dy // g, -dx // g
        return cls(a, b, -2 * (a * p[0] + b * p[1]))


def zero_set(line: Line, grid: GridSpec) -> int:
    """Bit-set of M(line) = lattice points with a*x + b*y + c <= 0."""
    mask = 0
    for i, (x, y) in enumerate(grid.points()):
        if line.eval2(x, y) <= 0:
            mask |= 1 << i
    return mask


def equivalent(l1: Line, l2: Line, grid: GridSpec) -> bool:
    """True iff the two lines define the same threshold function on the grid."""
    return zero_set(l1, grid) == zero_set(l2, grid)


def lattice_points_on(line: Line, grid: GridSpec) -> list[Point]:
    """Grid points exactly on the line, sorted lexicographically; none if c2 is odd."""
    pts = [(x, y) for x, y in grid.points() if line.eval2(x, y) == 0]
    pts.sort()
    return pts
