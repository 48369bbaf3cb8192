"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Expected values are never invented: totals come from
the subset-separability oracle, splits from the candidate-line oracle,
U/V equivalences from definition-level gcd evaluations, and the
asymptotic bounds are the pinned constants measured at first run.
"""

import math
import random
import time

import numpy as np
import pytest

from gridthresh import (
    GridSpec,
    HalfInt,
    count_p,
    count_stable,
    count_total,
    count_unstable,
    enumerate_by_lines,
    enumerate_by_subsets,
    sieve,
    u_mobius,
    u_naive,
    v_fast,
    v_naive,
)
from gridthresh.asymptotics import max_normalized_residual, residual_sweep
from gridthresh.pins import NORM_RESIDUAL_PINS, TOTAL_RATIO_DEV_AT_4096
from gridthresh.teaching import census

from conftest import RANDOM_SEED

SWEEP_LIMIT = 10_000


def _verdict(number: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] criterion {number}: {description}")
    assert not failures, f"criterion {number}: {failures[:5]}"


@pytest.fixture(scope="module")
def tables2k():
    return sieve(2048)


@pytest.fixture(scope="module")
def p_sweep():
    """P(k, 2) for k = 1..10^4, computed once for criteria 6 and 8."""
    tables = sieve(SWEEP_LIMIT)
    return [0] + [count_p(k, tables) for k in range(1, SWEEP_LIMIT + 1)]


def test_criterion_01_formula_vs_subset_oracle(tables2k):
    started = time.perf_counter()
    failures = []
    for m in range(0, 16):
        for n in range(0, 16):
            if (m + 1) * (n + 1) > 16:
                continue
            grid = GridSpec(m, n)
            oracle_count = len(enumerate_by_subsets(grid))
            formula = count_total(grid, tables2k)
            if oracle_count != formula:
                failures.append((m, n, oracle_count, formula))
    elapsed = time.perf_counter() - started
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict(1, f"count_total == subset oracle on all grids with <= 16 points "
                f"({elapsed:.1f}s)", failures)


def test_criterion_02_formula_vs_line_oracle(tables2k):
    started = time.perf_counter()
    failures = []
    for m in range(0, 9):
        for n in range(0, 9):
            grid = GridSpec(m, n)
            lines = enumerate_by_lines(grid)
            formula = count_total(grid, tables2k)
            if len(lines) != formula:
                failures.append(("lines vs formula", m, n, len(lines), formula))
            if grid.point_count <= 20:
                subsets = enumerate_by_subsets(grid)
                if subsets.masks != lines.masks:
                    failures.append(("oracle disagreement", m, n))
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict(2, f"count_total == line oracle on all 0 <= m,n <= 8, oracles agree "
                f"({elapsed:.1f}s)", failures)


def test_criterion_03_breakdown_vs_split_formulas(tables2k):
    failures = []
    for m in range(1, 7):
        for n in range(1, 7):
            grid = GridSpec(m, n)
            enum = enumerate_by_lines(grid)
            stable = count_stable(grid, tables2k)
            unstable = count_unstable(grid, tables2k)
            if (enum.stable_count, enum.unstable_count) != (stable, unstable):
                failures.append((m, n, enum.stable_count, enum.unstable_count,
                                 stable, unstable))
    sample = (count_stable(GridSpec(2, 2), tables2k),
              count_unstable(GridSpec(2, 2), tables2k),
              count_total(GridSpec(2, 2), tables2k))
    if sample != (21, 7, 58):
        failures.append(("frozen (2,2) values", sample))
    _verdict(3, "stable/unstable tallies equal the split formulas on 1 <= m,n <= 6",
             failures)


def test_criterion_04_vprop_identity_suite(tables2k):
    failures = []

    def check(t, k):
        # (1): V(t, k-1) + V(t, k) == 2 V(t, k - 1/2)
        q1 = v_fast(t, k - 1, tables2k).quadrupled
        q2 = v_fast(t, k, tables2k).quadrupled
        qh = v_fast(t, HalfInt(2 * k - 1), tables2k).quadrupled
        if q1 + q2 != 2 * qh:
            failures.append(("Vprop1", t, k))
        # (4): U(t, k) as the second difference of V
        u = u_mobius(t, k, tables2k)
        v00 = v_fast(t, k, tables2k).as_int()
        v01 = v_fast(t, k - 1, tables2k).as_int()
        v10 = v_fast(t - 1, k, tables2k).as_int()
        v11 = v_fast(t - 1, k - 1, tables2k).as_int()
        if u != v00 - v01 - v10 + v11:
            failures.append(("Vprop4", t, k))
        # (5): U(t,k) + 2(V(t,k-1) + V(t-1,k)) == 4 V(t-1/2, k-1/2)
        qa = v_fast(t, k - 1, tables2k).quadrupled
        qb = v_fast(t - 1, k, tables2k).quadrupled
        qc = v_fast(HalfInt(2 * t - 1), HalfInt(2 * k - 1), tables2k).quadrupled
        if 4 * u + 2 * (qa + qb) != 4 * qc:
            failures.append(("Vprop5", t, k))

    # (2) and (3) against an independent prefix-sum oracle over raw gcds
    bound = 60
    cop = (np.gcd.outer(np.arange(1, bound + 1), np.arange(1, bound + 1)) == 1)
    u_matrix = cop.astype(np.int64).cumsum(axis=0).cumsum(axis=1)
    uu_matrix = u_matrix.cumsum(axis=0).cumsum(axis=1)   # sum of U over the prefix box
    col_prefix = u_matrix.cumsum(axis=0)                 # sum_p U(p, k)

    for t in range(1, bound + 1):
        for k in range(1, bound + 1):
            check(t, k)
            if v_fast(t, k, tables2k).as_int() != int(uu_matrix[t - 1, k - 1]):
                failures.append(("Vprop2", t, k))
            lhs = int(col_prefix[t - 1, k - 1])
            if lhs != (v_fast(t, k, tables2k).as_int()
                       - v_fast(t, k - 1, tables2k).as_int()):
                failures.append(("Vprop3", t, k))

    rng = random.Random(RANDOM_SEED)
    for _ in range(1000):
        check(rng.randint(1, 2000), rng.randint(1, 2000))

    _verdict(4, "Vprop identities (1)-(5): exhaustive t,k <= 60 plus 1000 seeded "
                "pairs <= 2000", failures)


def test_criterion_05_mobius_equivalences():
    failures = []
    tables = sieve(300)

    for t in range(0, 301):
        for k in range(0, 301):
            if u_mobius(t, k, tables) != u_naive(t, k):
                failures.append(("U", t, k))

    # bulk definitional oracle for 4V at every half-integer pair:
    # prefix sums of the raw coprimality matrix, no Moebius anywhere
    bound = 300
    cop = (np.gcd.outer(np.arange(1, bound + 1), np.arange(1, bound + 1)) == 1)
    p0 = np.zeros((bound + 1, bound), dtype=np.int64)
    p1 = np.zeros((bound + 1, bound), dtype=np.int64)
    p0[1:] = cop.astype(np.int64).cumsum(axis=0)
    p1[1:] = (cop.astype(np.int64) * np.arange(1, bound + 1)[:, None]).cumsum(axis=0)
    j_idx = np.arange(1, bound + 1, dtype=np.int64)
    dks = np.arange(0, 2 * bound + 1, dtype=np.int64)
    cks = (dks + 1) // 2
    v4 = np.zeros((2 * bound + 1, 2 * bound + 1), dtype=np.int64)
    for dt in range(0, 2 * bound + 1):
        ct = (dt + 1) // 2
        c_j = (dt + 2) * p0[ct] - 2 * p1[ct]
        c0 = np.concatenate(([0], np.cumsum(c_j)))
        c1 = np.concatenate(([0], np.cumsum(j_idx * c_j)))
        v4[dt] = (dks + 2) * c0[cks] - 2 * c1[cks]
    if not np.array_equal(v4, v4.T):
        failures.append("bulk oracle not symmetric")

    for dt in range(0, 2 * bound + 1):
        for dk in range(0, 2 * bound + 1):
            if v_fast(HalfInt(dt), HalfInt(dk), tables).quadrupled != int(v4[dt, dk]):
                failures.append(("V fast", dt, dk))

    # v_naive against the same oracle: exhaustive small, seeded large
    for dt in range(0, 81):
        for dk in range(0, 81):
            if v_naive(HalfInt(dt), HalfInt(dk)).quadrupled != int(v4[dt, dk]):
                failures.append(("V naive small", dt, dk))
    rng = random.Random(RANDOM_SEED)
    for _ in range(2000):
        dt, dk = rng.randint(0, 2 * bound), rng.randint(0, 2 * bound)
        if v_naive(HalfInt(dt), HalfInt(dk)).quadrupled != int(v4[dt, dk]):
            failures.append(("V naive large", dt, dk))

    _verdict(5, "u_mobius == u_naive for all t,k <= 300; v_fast == v_naive on all "
                "integer and half-integer arguments with ceil <= 300", failures)


def test_criterion_06_oeis_spot_values_and_parity(p_sweep):
    failures = []
    if [p_sweep[k] for k in (1, 2, 3)] != [2, 14, 58]:
        failures.append(("P(1..3, 2)", p_sweep[1:4]))
    if [u_naive(k, k) for k in (1, 2, 3, 4)] != [1, 3, 7, 11]:
        failures.append("U(k, k) spot values")
    odd = [k for k in range(1, SWEEP_LIMIT + 1) if p_sweep[k] % 2 != 0]
    if odd:
        failures.append(("odd P values at", odd[:5]))
    _verdict(6, "OEIS spot values (A114146, A018805) and parity of P(k,2) "
                "for k <= 10^4", failures)


def test_criterion_07_asymptotic_bounds():
    failures = []
    tables = sieve(100_000)
    dev = {}
    for k in (64, 4096):
        n_exact = count_total(GridSpec(k, k), tables)
        dev[k] = abs(n_exact * math.pi**2 / (6 * k**4) - 1)
    if dev[4096] > TOTAL_RATIO_DEV_AT_4096:
        failures.append(f"deviation at 4096 is {dev[4096]:.4f}")
    if not dev[4096] < dev[64]:
        failures.append("no convergence between k = 64 and k = 4096")
    rows = residual_sweep(tables)
    for family, pin in NORM_RESIDUAL_PINS.items():
        worst = max_normalized_residual(rows, family)
        if worst > pin:
            failures.append((family, worst, pin))
    # full-range sanity pins, every k in [16, 4096]
    from gridthresh.pins import PHI_DIRICHLET_PIN, PSI_DIRICHLET_PIN, U_SQUARE_SANITY_PIN

    for k in range(16, 4097):
        u = u_mobius(k, k, tables)
        if abs(u * math.pi**2 / 6 - k * k) / (k * math.log(k)) > U_SQUARE_SANITY_PIN:
            failures.append(("U square sanity", k))
        if abs(int(tables.Phi[k]) - 3 * k * k / math.pi**2) / (k * math.log(k)) \
                > PHI_DIRICHLET_PIN:
            failures.append(("Phi Dirichlet", k))
        if abs(float(tables.psi(k)) - 6 * k / math.pi**2) / math.log(k) > PSI_DIRICHLET_PIN:
            failures.append(("Psi Dirichlet", k))
    _verdict(7, f"N(k,k) within {TOTAL_RATIO_DEV_AT_4096} of (6/pi^2)k^4 at k=4096 "
                f"(measured {dev[4096]:.2e}) and residual pins hold", failures)


def test_criterion_08_lower_bound(p_sweep):
    failures = []
    bound = 3 / (8 * math.pi**2)
    for k in range(1, SWEEP_LIMIT + 1):
        if p_sweep[k] < bound * k**4:
            failures.append(k)
    _verdict(8, "P(k,2) >= (3/(8 pi^2)) k^4 for all k <= 10^4", failures)


def test_criterion_09_performance_budget():
    timings = []
    for _ in range(3):
        started = time.perf_counter()
        tables = sieve(10**6 - 1)
        value = count_p(10**6, tables)
        timings.append(time.perf_counter() - started)
    best = min(timings)
    failures = [] if best < 1.0 else [f"best of 3 runs took {best:.2f}s"]
    digits = len(str(value))
    _verdict(9, f"count_p(10^6) including sieve in {best:.2f}s < 1s "
                f"({digits}-digit result)", failures)


def test_criterion_10_teaching_sets():
    started = time.perf_counter()
    failures = []
    for spec in [(2, 2), (2, 3), (3, 3)]:
        grid = GridSpec(*spec)
        result = census(grid)
        for report in result.reports:
            if report.fn.is_constant:
                continue
            if report.min_size not in (3, 4):
                failures.append((spec, "size", report.min_size, report.fn.render()))
            if report.rule_agrees is not True:
                failures.append((spec, "rule mismatch",
                                 report.predicted_size, report.min_size,
                                 report.fn.render()))
    elapsed = time.perf_counter() - started
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _verdict(10, f"teaching sizes in {{3,4}} and the 3/4 rule agrees on (2,2), "
                 f"(2,3), (3,3) ({elapsed:.1f}s)", failures)
