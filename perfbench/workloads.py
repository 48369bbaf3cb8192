"""Seeded request lists for the three benchmark workloads.

A request is a tuple of CLI argument vectors, run back to back through
``gridthresh.cli.main``.  Each workload is a fixed *cycle* of requests:
the factor levels that drive the cost (size band, shape, sequence) are
crossed in full, and the seed moves each size by at most +-3% around its
band centre and picks orientations.  Every seed therefore draws nearly
the same mix of costs, which keeps medians comparable from seed to seed,
while the inputs themselves differ.
"""

from __future__ import annotations

import hashlib
import json
import random

Argv = tuple[str, ...]
Request = tuple[Argv, ...]

WORKLOADS = ("count-large", "bfile", "verify")

WHY = {
    "count-large": "one large N(m, n) breakdown or P(k, 2) per request, min side 1e5-1e6: "
                   "sieve, long U/V kernel sums, count assembly and memory",
    "bfile": "whole OEIS b-files of 1000-3000 terms: thousands of tiny kernel calls, so "
             "per-call overhead and output formatting dominate",
    "verify": "oracle + teaching census on every grid of at most 20 points: candidate scan, "
              "row filter, hull tests and the teaching search",
}

SEQUENCES = ("A114146", "A114043", "A018805")

# Run before the first timed request.  count-large warms up on a grid a
# little larger than any it times: numpy's first arrays of that size are
# fresh mappings, and their page faults would otherwise land on whichever
# timed request comes first.
WARMUP: dict[str, tuple[Request, ...]] = {
    "count-large": ((("count", "--m", "1050000", "--n", "1050000", "--breakdown"),),
                    (("count", "--k", "1000"),)),
    "bfile": tuple(((("oeis", "--sequence", s, "--count", "100"),)) for s in SEQUENCES),
    "verify": ((("oracle", "--m", "1", "--n", "2"), ("teach", "--m", "1", "--n", "2", "--check")),),
}

SIZE_BANDS = 13         # count-large: min side 1e5 .. 1e6, log-spaced band centres; odd,
                        # so the median falls inside the middle band, not between two
BFILE_BANDS = 8         # bfile: term count 1000 .. 3000, evenly spaced band centres
JITTER = 0.03           # relative spread of a seeded value around its band centre
MAX_GRID_POINTS = 20    # verify: (m + 1)(n + 1) <= 20 keeps the subset oracle in range


def _jitter(centre: float, rng: random.Random) -> int:
    return int(centre * (1 + JITTER * (2 * rng.random() - 1)))


def _count_large(rng: random.Random) -> list[Request]:
    requests: list[Request] = []
    for band in range(SIZE_BANDS):
        centre = 10 ** (5 + band / (SIZE_BANDS - 1))
        sizes = [_jitter(centre, rng) for _ in range(4)]
        k_size, square, narrow, wide = sizes
        requests.append((("count", "--k", str(k_size)),))
        requests.append((("count", "--m", str(square), "--n", str(square), "--breakdown"),))
        # aspect 1.2-2.8 and 2.8-8, long side on m or n by coin flip
        for side, (lo, hi) in ((narrow, (1.2, 2.8)), (wide, (2.8, 8.0))):
            long_side = int(side * (lo + (hi - lo) * rng.random()))
            m, n = (side, long_side) if rng.random() < 0.5 else (long_side, side)
            requests.append((("count", "--m", str(m), "--n", str(n), "--breakdown"),))
    return requests


def _bfile(rng: random.Random) -> list[Request]:
    requests: list[Request] = []
    for band in range(BFILE_BANDS):
        for seq in SEQUENCES:
            count = _jitter(1000 + 2000 * band / (BFILE_BANDS - 1), rng)
            requests.append((("oeis", "--sequence", seq, "--count", str(count)),))
    return requests


def verify_grids() -> list[tuple[int, int]]:
    """Every grid with m, n >= 1 and at most MAX_GRID_POINTS lattice points."""
    return [(m, n) for m in range(1, MAX_GRID_POINTS) for n in range(1, MAX_GRID_POINTS)
            if (m + 1) * (n + 1) <= MAX_GRID_POINTS]


def _verify(rng: random.Random) -> list[Request]:
    # the grid is the whole input, so every grid runs in every cycle and the
    # seed only orders them
    del rng
    return [(("oracle", "--m", str(m), "--n", str(n)),
             ("teach", "--m", str(m), "--n", str(n), "--check"))
            for m, n in verify_grids()]


_GENERATORS = {"count-large": _count_large, "bfile": _bfile, "verify": _verify}


def generate(workload: str, seed: int) -> tuple[list[Request], random.Random]:
    """The request cycle of ``workload`` for ``seed``, and the rng that orders each cycle."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng), rng


def digest(requests: list[Request]) -> str:
    """sha256 of the generated argument vectors, in generation order."""
    return hashlib.sha256(json.dumps(requests).encode()).hexdigest()
