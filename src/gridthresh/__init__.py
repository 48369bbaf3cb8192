"""Exact counting of two-dimensional threshold functions on integer grids.

A threshold function on the lattice of [0, m] x [0, n] is a two-valued
function whose zeros and ones are separated by a straight line, zeros on
the closed side.  This package computes their exact number

    N(m, n) = (2m + 1)(2n + 1) + 1 + 4 V(m, n)

and the stable/unstable decomposition through exact coprime-pair sums,
validates every formula against two independent brute-force geometric
oracles, measures the asymptotic laws, and analyses minimum teaching
sets.  All counting is exact integer arithmetic end to end.
"""

from .asymptotics import (
    AsymptoticReport,
    anisotropic_coefficient,
    leading_estimate,
    reports_to_csv,
    residual_sweep,
)
from .counting import (
    CountBreakdown,
    breakdown,
    count_p,
    count_p_sequence,
    count_stable,
    count_total,
    count_unstable,
)
from .errors import CapacityError
from .geometry import (
    StabilityClass,
    ThresholdFn,
    classify,
    complement_fn,
)
from .grid import GridSpec, Point
from .numtheory import (
    NTTables,
    QuarterInt,
    kernel_sieve_limit,
    sieve,
    u_mobius,
    uv_blocked,
    v_fast,
    v_naive,
    weighted_mertens,
)
from .oracle import (
    CrossValidationReport,
    EnumerationResult,
    cross_validate,
    dump_functions,
    enumerate_by_lines,
    enumerate_by_subsets,
)
from .teaching import (
    CensusResult,
    TeachingReport,
    census,
    forced_points,
    min_teaching_set,
)

__version__ = "0.1.0"

__all__ = [
    "AsymptoticReport",
    "CapacityError",
    "CensusResult",
    "CountBreakdown",
    "CrossValidationReport",
    "EnumerationResult",
    "GridSpec",
    "NTTables",
    "Point",
    "QuarterInt",
    "StabilityClass",
    "TeachingReport",
    "ThresholdFn",
    "anisotropic_coefficient",
    "breakdown",
    "census",
    "classify",
    "complement_fn",
    "count_p",
    "count_p_sequence",
    "count_stable",
    "count_total",
    "count_unstable",
    "cross_validate",
    "dump_functions",
    "enumerate_by_lines",
    "enumerate_by_subsets",
    "forced_points",
    "kernel_sieve_limit",
    "leading_estimate",
    "min_teaching_set",
    "reports_to_csv",
    "residual_sweep",
    "sieve",
    "u_mobius",
    "uv_blocked",
    "v_fast",
    "v_naive",
    "weighted_mertens",
]
