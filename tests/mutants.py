"""Seeded mutants of the package, each with the tests that must catch it.

Every entry names a module of ``src/gridthresh``, an exact text that must
occur in it once, the text that replaces it, and the test ids that must
fail on the mutated copy.  The file is not a test module (tier-1 collects
``test_*.py`` only); it is run on its own, from the repository root:

    python tests/mutants.py              # every mutant
    python tests/mutants.py NAME ...     # the named ones

The runner copies ``src/`` into a temporary directory once, applies one
entry at a time to the copy and restores the file after it, and runs
that entry's tests sequentially in one pytest process with the copy
first on PYTHONPATH.  A mutant is caught when every one of its tests
fails, and missed otherwise.  An entry whose text does not occur exactly
once fails the run, so the list follows the code.  Exit 0 iff every
mutant is caught.

Where an entry comes from is noted above it: the change that first
reported the mutation by hand, or "re-targeted" where the code it hit has
since moved and the entry now hits the code that took its place.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    module: str       # file name under src/gridthresh
    old: str          # exact text, occurring once
    new: str
    tests: tuple[str, ...]


CLI, ORACLE, KERNEL, JUDGES, NUMTHEORY, COUNTING, GEOMETRY, TEACHING, SQUARES = (
    f"tests/test_{name}.py::" for name in
    ("cli", "oracle", "blocked_kernel", "mu_and_mertens_judges", "numtheory", "counting",
     "geometry", "teaching", "square_sequence"))
WALK = ORACLE + "test_the_walk_yields_each_separable_sequence_once[3-3]"

MUTANTS = (
    # -- one rule picks the oracles ---------------------------------------
    Mutant("census-always-takes-the-line-oracle", "teaching.py",
           '(enumerate_by_lines if admits("lines", grid) else enumerate_by_subsets)(grid)',
           "enumerate_by_lines(grid)",
           (CLI + "test_teach_past_the_line_cap_takes_the_subset_oracles_universe[1-31]",
            CLI + "test_teach_past_the_line_cap_takes_the_subset_oracles_universe[0-63]")),
    Mutant("cross-validate-skips-the-admitted-line-oracle", "oracle.py",
           '    if admits("lines", grid):\n',
           '    if subsets is None and admits("lines", grid):\n',
           (CLI + "test_oracle_match_exit_zero",
            ORACLE + "test_cross_validate_total_value")),
    Mutant("recursion-reads-the-dense-prefix-one-off", "numtheory.py",
           "v[inner] - 1)), axis=1)", "v[inner])), axis=1)",
           (KERNEL + "test_batched_recursion_equals_the_per_point_recursion[100000]",)),
    # -- the subset oracle's walk (57ab953) --------------------------------
    Mutant("walk-lo-without-its-plus-one", "oracle.py",
           "min(width, low + 1)", "min(width, low)",
           (ORACLE + "test_subsets_3x3_grid", WALK)),
    Mutant("walk-hi-as-a-floor", "oracle.py",
           "high = max(-(-v // z) for v, z in values)", "high = max(v // z for v, z in values)",
           (WALK, ORACLE + "test_oracles_agree_at_the_subset_cap[7-7]")),
    Mutant("walk-box-of-side-span-plus-one", "oracle.py",
           "_box(width * lines)", "_box(width)",
           (WALK, ORACLE + "test_orbit_hull_tests_equal_the_per_staircase_judge[4-4]")),
    Mutant("walk-column-steps-swapped", "oracle.py",
           "(grid.n, w, 1, w) if grid.n > grid.m", "(grid.n, w, w, 1) if grid.n > grid.m",
           (ORACLE + "test_oracles_agree_at_the_subset_cap[6-8]",
            ORACLE + "test_orbit_hull_tests_equal_the_per_staircase_judge[1-2]",
            CLI + "test_teach_past_the_line_cap_takes_the_subset_oracles_universe[1-31]")),
    Mutant("walk-upper-clip-dropped", "oracle.py",
           "cut = _clip(cut, y, length, False)", "cut = cut",
           (ORACLE + "test_subsets_3x3_grid", WALK)),
    # -- the odd-only mu sieve, the base-moment pass, one block set (03eab20)
    Mutant("mu-sieve-odd-offset", "numtheory.py",
           "rad[(p - 1) // 2 :: p] *= -p", "rad[(p + 1) // 2 :: p] *= -p",
           (JUDGES + "test_mu_equals_the_full_sieve_at_every_limit_up_to_3000",
            NUMTHEORY + "test_mu_sieve_matches_definition_at_every_limit[limits0]")),
    Mutant("mu-sieve-drops-the-sign-flip-of-mu-2k", "numtheory.py",
           "np.negative(odd[: len(mu[2::4])], out=mu[2::4])", "mu[2::4] = odd[: len(mu[2::4])]",
           (JUDGES + "test_mu_equals_the_full_sieve_around_odd_prime_squares",
            COUNTING + "test_breakdown_examples")),
    # re-targeted: the zeros where 4 divides now come from the initial array
    Mutant("mu-sieve-drops-the-zero-where-4-divides", "numtheory.py",
           "mu = np.zeros(n + 1, dtype=np.int8)", "mu = np.ones(n + 1, dtype=np.int8)",
           (JUDGES + "test_mu_equals_the_full_sieve_at_every_limit_up_to_3000",
            NUMTHEORY + "test_mu_squarefree_values")),
    Mutant("mertens-pass-drops-the-2lo-s1-term", "numtheory.py",
           "[lo * lo, 2 * lo, 1]", "[lo * lo, 0, 1]",
           (JUDGES + "test_mertens_pass_equals_the_static_chunks_at_the_chunk_edges[32769]",
            KERNEL + "test_mertens_pass_equals_dense_prefix_at_every_block_end")),
    Mutant("breakdown-half-pair-at-m-plus-one", "counting.py",
           "(m - 1, n - 1)), tables)", "(m + 1, n - 1)), tables)",
           (COUNTING + "test_breakdown_equals_the_two_call_assembly_on_every_small_grid",
            COUNTING + "test_breakdown_examples",
            CLI + "test_oracle_lines_method")),
    # -- per-call Mertens sums (c0f62c2) -----------------------------------
    # re-targeted: the dedupe of _mertens_at went into _block_ends (c866aa1)
    Mutant("block-ends-keep-repeated-ends", "numtheory.py",
           "ends = ends[np.concatenate(([True], ends[1:] != ends[:-1]))]", "ends = ends",
           (KERNEL + "test_block_ends_follow_the_short_side",
            COUNTING + "test_blocks_are_built_once_per_argument_pair")),
    Mutant("mertens-at-drops-its-capacity-check", "numtheory.py",
           "if high and math.isqrt(high[-1]) > tables.limit:", "if False:",
           (KERNEL + "test_weighted_mertens_refuses_x_past_its_sieve_before_allocating",)),
    # -- the antipodal scan and the census over masks (3089918) -----------
    Mutant("scan-complements-pointed-at-the-unshifted-pivot", "geometry.py",
           "head, tail = pts[on[j + 1]], pts[on[-2 - j]]",
           "head, tail = pts[on[j]], pts[on[-1 - j]]",
           (GEOMETRY + "test_antipodal_scan_equals_the_scan_of_every_direction[m3]",
            GEOMETRY + "test_classify_unstable_corner_singleton")),
    Mutant("scan-drops-the-stable-complement", "geometry.py",
           "            stable.add(full ^ below)\n", "",
           (GEOMETRY + "test_antipodal_scan_equals_the_scan_of_every_direction[m3]",)),
    Mutant("predict-drops-the-complement-vertex-check", "teaching.py",
           "    if scan.vertices.get(unstable) is None:\n", "    if False:\n",
           (TEACHING + "test_census_meets_a_complement_fault_at_the_stable_function[3-2]",)),
    # -- kernel paths and the exit codes -----------------------------------
    Mutant("square-chunks-drop-the-j-1-fix-up", "numtheory.py",
           "grow[1 - lo] = 1", "grow[1 - lo] = 2",
           (SQUARES + "test_every_short_sequence_equals_the_python_ints",
            CLI + "test_oeis_a018805")),
    Mutant("crt-join-subtracts-the-wrong-way", "numtheory.py",
           "modulus * ((r - x) * inverse % p)", "modulus * ((x - r) * inverse % p)",
           (KERNEL + "test_residues_reconstruct_every_integer_within_the_bound[0-2]",
            KERNEL + "test_residue_kernels_equal_python_ints_up_to_ten_million")),
    Mutant("family-fault-exits-internal", "cli.py",
           'print(f"validation mismatch: {exc}", file=sys.stderr)\n        return EXIT_MISMATCH',
           'print(f"validation mismatch: {exc}", file=sys.stderr)\n        return EXIT_INTERNAL',
           (CLI + "test_oracle_family_gap_exits_mismatch",
            CLI + "test_teach_vertex_gap_outside_f_exits_mismatch")),
)


def _failed(output: str) -> set[str]:
    """Test ids on the FAILED and ERROR lines of pytest's short summary."""
    failed = set()
    for line in output.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                failed.add(line[len(tag):].split(" - ")[0].strip())
    return failed


def run(mutants: tuple[Mutant, ...]) -> int:
    started = time.perf_counter()
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        probe = [sys.executable, "-c", "import gridthresh; print(gridthresh.__file__)"]
        found = subprocess.run(probe, cwd=ROOT, env=env, capture_output=True, text=True)
        where = found.stdout.strip()
        if not where.startswith(str(src)):
            print(f"the tests would import gridthresh from {where or 'nowhere'}, not the copy")
            return 1
        for mutant in mutants:
            path = src / "gridthresh" / mutant.module
            original = path.read_text()
            if original.count(mutant.old) != 1 or not mutant.tests:
                print(f"STALE   {mutant.name}: its text occurs {original.count(mutant.old)} "
                      f"times in {mutant.module}, and it names {len(mutant.tests)} tests")
                bad += 1
                continue
            path.write_text(original.replace(mutant.old, mutant.new))
            try:
                begun = time.perf_counter()
                done = subprocess.run(
                    [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--tb=no",
                     "-rfE", *mutant.tests],
                    cwd=ROOT, env=env, capture_output=True, text=True)
            finally:
                path.write_text(original)
            missed = [t for t in mutant.tests if t not in _failed(done.stdout)]
            verdict = "MISSED" if missed else "caught"
            if done.returncode not in (0, 1):   # an unknown test id, or pytest itself failed
                verdict, missed = "ERROR", list(mutant.tests)
            print(f"{verdict:7} {mutant.name} ({time.perf_counter() - begun:.1f} s)")
            for test in missed:
                print(f"          passed or did not run: {test}")
            if verdict == "ERROR":
                print(done.stdout[-2000:] + done.stderr[-2000:])
            bad += verdict != "caught"
    print(f"{len(mutants) - bad} of {len(mutants)} mutants caught "
          f"in {time.perf_counter() - started:.0f} s")
    return 1 if bad else 0


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 2
    return run(tuple(m for m in MUTANTS if not names or m.name in names))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
