"""Command-line frontend.

Subcommands: count, oracle, oeis, teach, asympt, bench.  Big integers are
always rendered as exact decimal strings.  Exit codes: 0 success (and all
checks matched), 1 usage error (bad arguments, or an output path that
cannot be written), 2 capacity error, 3 validation mismatch (a formula or
oracle disagreement, or a gap in the candidate-line family found by
`oracle` or `teach`; the witness goes to stderr), 4 internal error (any
other exception the library raises, a fault of the library and not of
the request, reported on one line).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time
from typing import Iterator, Optional, Sequence

from . import __version__
from .asymptotics import DEFAULT_ANISO_MS, DEFAULT_ANISO_NS, DEFAULT_SQUARE_KS
from .asymptotics import reports_to_csv, residual_sweep
from .counting import breakdown, count_p, count_p_sequence, count_total
from .errors import CandidateFamilyError, CapacityError
from .grid import GridSpec
from .numtheory import NTTables, kernel_sieve_limit, sieve, uv_square_sequence
from .numtheory import u_mobius  # noqa: F401  (names perfbench/spans.py wraps)
from .oracle import cross_validate, dump_functions, enumerate_by_lines, enumerate_by_subsets
from .oracle import require_admitted
from .teaching import census

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_MISMATCH = 3
EXIT_INTERNAL = 4

OEIS_SEQUENCES = ("A114146", "A114043", "A018805")
# the totient table and the output grow with --count; past 10^6 terms the
# request is refused before either is allocated
OEIS_COUNT_CAP = 10**6
# count and bench sieve to kernel_sieve_limit(m, n), about 8 max(m, n)^(2/3)
# but at most min(m, n); at this side a request takes about 4 s and 625 MB
# (a 5e9 square with --breakdown; skewed grids cost less), and past it
# (or past k - 1 = cap) the request is refused before anything is sieved
COUNT_SIDE_CAP = 5 * 10**9


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the CLI contract reserves 2 for
    # capacity problems, so usage errors are rerouted to exit code 1
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _emit(record: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        keys = list(record)
        writer.writerow(keys)
        writer.writerow([record[k] for k in keys])
        sys.stdout.write(out.getvalue())


def _grid(m: int, n: int) -> GridSpec:
    if m < 0 or n < 0:
        raise UsageError(f"grid extents must be non-negative, got ({m}, {n})")
    return GridSpec(m, n)


@contextlib.contextmanager
def _writing(path: str) -> Iterator[None]:
    """Report an output path that cannot be written as a usage error naming it."""
    try:
        yield
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _check_side_cap(grid: GridSpec) -> None:
    if max(grid.m, grid.n) > COUNT_SIDE_CAP:
        raise CapacityError(
            f"grid side {max(grid.m, grid.n)} exceeds the count cap of {COUNT_SIDE_CAP}")


def _cmd_count(args: argparse.Namespace) -> int:
    if (args.k is None) == (args.m is None and args.n is None):
        raise UsageError("give either --k or both --m and --n")
    started = time.perf_counter()
    if args.k is not None:
        if args.k < 1:
            raise UsageError("--k must be >= 1")
        grid = GridSpec(args.k - 1, args.k - 1)
    else:
        if args.m is None or args.n is None:
            raise UsageError("give both --m and --n")
        grid = _grid(args.m, args.n)
    _check_side_cap(grid)
    tables = sieve(kernel_sieve_limit(grid.m, grid.n))
    record: dict = {
        "command": "count",
        "m": grid.m,
        "n": grid.n,
    }
    b = breakdown(grid, tables) if args.breakdown else None
    total = b.total if b is not None else count_total(grid, tables)
    if args.k is not None:
        record["k"] = args.k
        record["P"] = str(total)
    record["total"] = str(total)
    if b is not None:
        record["stable"] = str(b.stable)
        record["unstable"] = str(b.unstable)
        record["f_class"] = str(b.f_class)
        record["provenance"] = b.provenance
    record["elapsed_ms"] = round(1000 * (time.perf_counter() - started), 3)
    _emit(record, args.format)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    grid = _grid(args.m, args.n)
    started = time.perf_counter()
    # refuse past a requested oracle's cap before any work; cross_validate
    # reuses these results and runs any other oracle that fits, on one scan
    methods = ("subsets", "lines") if args.method == "both" else (args.method,)
    for method in methods:
        require_admitted(method, grid)
    subsets = enumerate_by_subsets(grid) if "subsets" in methods else None
    scan = subsets.scan if subsets is not None else None
    lines = enumerate_by_lines(grid, scan=scan) if "lines" in methods else None
    if args.dump:
        with _writing(args.dump):
            dump_functions(lines if lines is not None else subsets, args.dump)
    tables = sieve(kernel_sieve_limit(grid.m, grid.n))
    report = cross_validate(grid, tables, subsets=subsets, lines=lines)
    record = {
        "command": "oracle",
        "m": grid.m,
        "n": grid.n,
        "method": args.method,
        "formula_total": str(report.formula_total),
        "formula_stable": str(report.formula_stable),
        "formula_unstable": str(report.formula_unstable),
        "subset_total": None if report.subset_total is None else str(report.subset_total),
        "lines_total": None if report.lines_total is None else str(report.lines_total),
        "oracle_stable": None if report.oracle_stable is None else str(report.oracle_stable),
        "oracle_unstable": None if report.oracle_unstable is None else str(report.oracle_unstable),
        "provenance": report.provenance,
        "all_match": report.all_match,
        "elapsed_ms": round(1000 * (time.perf_counter() - started), 3),
    }
    _emit(record, args.format)
    for witness in report.witnesses:
        print(witness, file=sys.stderr)
    return EXIT_OK if report.all_match else EXIT_MISMATCH


def _cmd_oeis(args: argparse.Namespace) -> int:
    if args.count < 1:
        raise UsageError("--count must be >= 1")
    if args.count > OEIS_COUNT_CAP:
        raise CapacityError(f"--count {args.count} exceeds the b-file cap of {OEIS_COUNT_CAP} terms")
    tables = NTTables(args.count)  # the sequence kernel reads phi alone
    if args.sequence == "A018805":  # coprime pairs in the k x k square
        values = uv_square_sequence(args.count, tables)[0][1:]
    else:
        values = count_p_sequence(args.count, tables)
        if args.sequence == "A114043":
            assert all(p % 2 == 0 for p in values), "P(k, 2) is always even"
            values = [p // 2 for p in values]
    text = "".join(f"{k} {value}\n" for k, value in enumerate(values, start=1))
    if args.output:
        with _writing(args.output), open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_teach(args: argparse.Namespace) -> int:
    grid = _grid(args.m, args.n)
    result = census(grid)
    if args.format == "json":
        record = {
            "command": "teach",
            "m": grid.m,
            "n": grid.n,
            "histogram": {str(k): v for k, v in result.histogram().items()},
            "mismatches": len(result.mismatches()),
        }
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        sys.stdout.write(result.to_csv())
    mismatches = result.mismatches()
    if mismatches:
        for r in mismatches:
            print(
                f"rule mismatch: predicted {r.predicted_size}, exhaustive {r.min_size}\n"
                + r.fn.render(),
                file=sys.stderr,
            )
        if args.check:
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_asympt(args: argparse.Namespace) -> int:
    ks: tuple[int, ...] = ()
    if args.family != "anisotropic":
        ks = tuple(k for k in DEFAULT_SQUARE_KS if k <= args.max_k)
        if not ks:
            raise UsageError("--max-k too small, no sample points")
    ns, ms = (DEFAULT_ANISO_NS, DEFAULT_ANISO_MS) if args.family != "square" else ((), ())
    # the blocked kernels need kernel_sieve_limit at each pair, the
    # anisotropic coefficients the totient sums up to n
    pairs = [(k, k) for k in ks] + [(m, n) for n in ns for m in ms]
    tables = sieve(max([kernel_sieve_limit(t, k) for t, k in pairs] + list(ns)))
    rows = residual_sweep(tables, square_ks=ks, aniso_ns=ns, aniso_ms=ms)
    sys.stdout.write(reports_to_csv(rows))
    return EXIT_OK


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.k < 1:
        raise UsageError("--k must be >= 1")
    if args.repeat < 1:
        raise UsageError("--repeat must be >= 1")
    grid = GridSpec(args.k - 1, args.k - 1)
    _check_side_cap(grid)
    timings = []
    value = 0
    for _ in range(args.repeat):
        started = time.perf_counter()
        tables = sieve(kernel_sieve_limit(grid.m, grid.n))
        value = count_p(args.k, tables)
        timings.append(time.perf_counter() - started)
    record = {
        "command": "bench",
        "k": args.k,
        "repeat": args.repeat,
        "best_seconds": round(min(timings), 6),
        "P_digits": len(str(value)),
        "P": str(value),
    }
    _emit(record, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gridthresh",
                     description="Exact counts of two-dimensional threshold functions")
    parser.add_argument("--version", action="version", version=f"gridthresh {__version__}")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_count = sub.add_parser("count", help="N(m, n) or P(k, 2), optionally with the breakdown")
    p_count.add_argument("--m", type=int)
    p_count.add_argument("--n", type=int)
    p_count.add_argument("--k", type=int)
    p_count.add_argument("--breakdown", action="store_true")
    p_count.add_argument("--format", choices=("json", "csv"), default="json")
    p_count.set_defaults(run=_cmd_count)

    p_oracle = sub.add_parser("oracle", help="cross-validate formulas against brute force")
    p_oracle.add_argument("--m", type=int, required=True)
    p_oracle.add_argument("--n", type=int, required=True)
    p_oracle.add_argument("--method", choices=("subsets", "lines", "both"), default="both")
    p_oracle.add_argument("--dump", metavar="PATH", help="write enumerated zero bit-strings")
    p_oracle.add_argument("--format", choices=("json", "csv"), default="json")
    p_oracle.set_defaults(run=_cmd_oracle)

    p_oeis = sub.add_parser("oeis", help="emit an OEIS b-file")
    p_oeis.add_argument("--sequence", choices=OEIS_SEQUENCES, required=True)
    p_oeis.add_argument("--count", type=int, default=20)
    p_oeis.add_argument("--output", metavar="PATH")
    p_oeis.set_defaults(run=_cmd_oeis)

    p_teach = sub.add_parser("teach", help="teaching-set census of a grid")
    p_teach.add_argument("--m", type=int, required=True)
    p_teach.add_argument("--n", type=int, required=True)
    p_teach.add_argument("--check", action="store_true",
                         help="exit 3 if the 3/4 rule disagrees with exhaustive search")
    p_teach.add_argument("--format", choices=("csv", "json"), default="csv")
    p_teach.set_defaults(run=_cmd_teach)

    p_asympt = sub.add_parser("asympt", help="residual sweep against the asymptotic laws")
    p_asympt.add_argument("--family", choices=("square", "anisotropic", "all"), default="all")
    p_asympt.add_argument("--max-k", type=int, default=4096)
    p_asympt.set_defaults(run=_cmd_asympt)

    p_bench = sub.add_parser("bench", help="wall-clock of count_p including the sieve")
    p_bench.add_argument("--k", type=int, required=True)
    p_bench.add_argument("--repeat", type=int, default=3)
    p_bench.add_argument("--format", choices=("json", "csv"), default="json")
    p_bench.set_defaults(run=_cmd_bench)
    return parser


_PARSER = build_parser()  # built once: building costs about 20 parses


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    except CandidateFamilyError as exc:
        print(f"validation mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except Exception as exc:  # user input is checked above, so this is a library fault
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
