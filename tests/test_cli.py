"""CLI contract tests: outputs, formats, exit codes."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gridthresh.cli
import gridthresh.oracle
import gridthresh.teaching
from gridthresh import GridSpec, NTTables, count_p, count_total, cross_validate, sieve, u_mobius
from gridthresh.cli import (
    COUNT_SIDE_CAP,
    EXIT_CAPACITY,
    EXIT_INTERNAL,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    OEIS_COUNT_CAP,
    OEIS_SEQUENCES,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_by_k(capsys):
    code, out, _ = run(capsys, "count", "--k", "2")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["P"] == "14"
    assert record["total"] == "14"
    assert record["m"] == 1 and record["n"] == 1


@pytest.mark.parametrize("k", [1, 2, 17, 1000])
@pytest.mark.parametrize("extra", [(), ("--breakdown",)])
def test_count_by_k_reports_p_as_total(capsys, k, extra):
    code, out, _ = run(capsys, "count", "--k", str(k), *extra)
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["P"] == record["total"] == str(count_p(k, sieve(k)))


def test_count_degenerate_grid(capsys):
    code, out, _ = run(capsys, "count", "--m", "0", "--n", "0")
    assert code == EXIT_OK
    assert json.loads(out)["total"] == "2"


def test_count_large_k_exact_decimal(capsys):
    code, out, _ = run(capsys, "count", "--k", "1000000")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["P"] == "607927101897802895986966"   # frozen; 24 exact digits


def test_count_json_round_trips(capsys):
    code, out, _ = run(capsys, "count", "--m", "7", "--n", "5", "--breakdown")
    assert code == EXIT_OK
    record = json.loads(out)
    tables = sieve(16)
    assert int(record["total"]) == count_total(GridSpec(7, 5), tables)
    assert int(record["stable"]) + int(record["unstable"]) == int(record["f_class"])
    assert 2 * (int(record["f_class"]) + 1) == int(record["total"])


def test_count_is_deterministic_modulo_timing(capsys):
    _, out1, _ = run(capsys, "count", "--k", "17", "--breakdown")
    _, out2, _ = run(capsys, "count", "--k", "17", "--breakdown")
    r1, r2 = json.loads(out1), json.loads(out2)
    r1.pop("elapsed_ms")
    r2.pop("elapsed_ms")
    assert r1 == r2


def test_count_csv_format(capsys):
    code, out, _ = run(capsys, "count", "--m", "2", "--n", "2", "--format", "csv")
    assert code == EXIT_OK
    header, row = out.strip().split("\n")
    assert header.split(",")[:4] == ["command", "m", "n", "total"]
    assert row.split(",")[3] == "58"


def test_count_usage_errors(capsys):
    assert run(capsys, "count")[0] == EXIT_USAGE
    assert run(capsys, "count", "--k", "0")[0] == EXIT_USAGE
    assert run(capsys, "count", "--k", "2", "--m", "1", "--n", "1")[0] == EXIT_USAGE
    assert run(capsys, "count", "--m", "3")[0] == EXIT_USAGE
    assert run(capsys, "count", "--m", "-1", "--n", "2")[0] == EXIT_USAGE


def test_unknown_flag_is_usage_error(capsys):
    assert run(capsys, "count", "--bogus")[0] == EXIT_USAGE


def test_oracle_match_exit_zero(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "2", "--n", "2", "--method", "subsets")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["all_match"] is True
    assert record["subset_total"] == "58"


def test_oracle_lines_method(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "6", "--n", "6", "--method", "lines")
    assert code == EXIT_OK
    assert json.loads(out)["all_match"] is True


def test_oracle_default_method_on_6x6_runs_both_oracles(capsys):
    code, out, _ = run(capsys, "oracle", "--m", "6", "--n", "6")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["method"] == "both" and record["all_match"] is True
    assert record["subset_total"] == record["lines_total"] == record["formula_total"] == "1498"


def test_oracle_past_subset_cap_exits_capacity_before_scanning(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("enumerated past the subset cap")

    monkeypatch.setattr(gridthresh.oracle, "scan_candidates", refuse)
    monkeypatch.setattr(gridthresh.oracle, "_walk", refuse)
    code, out, err = run(capsys, "oracle", "--m", "8", "--n", "8", "--method", "subsets")
    assert code == EXIT_CAPACITY
    assert out == "" and "capped at 64" in err


def test_oracle_refuses_every_requested_method_before_enumerating(capsys, monkeypatch):
    # 0 x 40 is within the subset cap and past the line cap; the default
    # method asks for both oracles, so it is refused before either runs
    def refuse(*args):
        raise AssertionError("enumerated or sieved before the capacity check")

    monkeypatch.setattr(gridthresh.oracle, "scan_candidates", refuse)
    monkeypatch.setattr(gridthresh.oracle, "_walk", refuse)
    monkeypatch.setattr(gridthresh.cli, "sieve", refuse)
    code, out, err = run(capsys, "oracle", "--m", "0", "--n", "40")
    assert code == EXIT_CAPACITY
    assert out == "" and "line-enumeration cap" in err


def test_oracle_capacity_exit(capsys):
    code, _, err = run(capsys, "oracle", "--m", "10", "--n", "10", "--method", "subsets")
    assert code == EXIT_CAPACITY
    assert "capacity" in err.lower()


def test_oracle_scans_once_per_oracle_and_ignores_method(capsys, monkeypatch):
    scans = []
    original = gridthresh.oracle.scan_candidates

    def counted(grid):
        scans.append(grid)
        return original(grid)

    monkeypatch.setattr(gridthresh.oracle, "scan_candidates", counted)
    records = {}
    for method in ("subsets", "lines", "both"):
        scans.clear()
        code, out, _ = run(capsys, "oracle", "--m", "3", "--n", "2", "--method", method)
        assert code == EXIT_OK
        assert len(scans) == 1   # both oracles read one scan
        record = json.loads(out)
        record.pop("elapsed_ms")
        assert record.pop("method") == method
        records[method] = record
    assert records["subsets"] == records["lines"] == records["both"]
    scans.clear()
    assert cross_validate(GridSpec(3, 2), sieve(2)).all_match
    assert len(scans) == 1


def test_oracle_family_gap_exits_mismatch(capsys, monkeypatch):
    original = gridthresh.oracle.scan_candidates

    def lossy(grid):
        scan = original(grid)
        victim = min(m for m in scan.masks if m & 1 and m != (1 << grid.point_count) - 1)
        return dataclasses.replace(scan, masks=scan.masks - {victim})

    monkeypatch.setattr(gridthresh.oracle, "scan_candidates", lossy)
    code, _, err = run(capsys, "oracle", "--m", "2", "--n", "2")
    assert code == EXIT_MISMATCH
    assert "candidate family missed" in err and "zeros=" in err


def test_oracle_family_gap_outside_f_exits_mismatch(capsys, monkeypatch):
    original = gridthresh.oracle.scan_candidates

    def lossy(grid):
        scan = original(grid)
        victim = min(m for m in scan.masks if m and not m & 1)
        return dataclasses.replace(scan, masks=scan.masks - {victim})

    monkeypatch.setattr(gridthresh.oracle, "scan_candidates", lossy)
    code, _, err = run(capsys, "oracle", "--m", "2", "--n", "2")
    assert code == EXIT_MISMATCH
    assert "candidate family missed" in err and "zeros=" in err


def test_oracle_dump(capsys, tmp_path):
    path = tmp_path / "fns.txt"
    code, _, _ = run(capsys, "oracle", "--m", "1", "--n", "1", "--dump", str(path))
    assert code == EXIT_OK
    assert len(path.read_text().splitlines()) == 14


def test_oeis_a114146(capsys):
    code, out, _ = run(capsys, "oeis", "--sequence", "A114146", "--count", "3")
    assert code == EXIT_OK
    assert out.splitlines() == ["1 2", "2 14", "3 58"]


def test_oeis_a114043(capsys):
    code, out, _ = run(capsys, "oeis", "--sequence", "A114043", "--count", "2")
    assert code == EXIT_OK
    assert out.splitlines()[1] == "2 7"


def test_oeis_a018805(capsys):
    code, out, _ = run(capsys, "oeis", "--sequence", "A018805", "--count", "4")
    assert code == EXIT_OK
    assert out.splitlines()[3] == "4 11"


def test_oeis_to_file(capsys, tmp_path):
    path = tmp_path / "b114146.txt"
    code, out, _ = run(capsys, "oeis", "--sequence", "A114146", "--count", "5",
                       "--output", str(path))
    assert code == EXIT_OK
    assert out == ""
    assert path.read_text().endswith("5 402\n")


def test_oeis_unknown_sequence_is_usage_error(capsys):
    assert run(capsys, "oeis", "--sequence", "A000001")[0] == EXIT_USAGE


@pytest.mark.parametrize("count", [1, 2, 3, 1000])
def test_oeis_bfiles_equal_per_term_kernels(capsys, count):
    tables = sieve(count)
    expected = {
        "A114146": [count_p(k, tables) for k in range(1, count + 1)],
        "A114043": [count_p(k, tables) // 2 for k in range(1, count + 1)],
        "A018805": [u_mobius(k, k, tables) for k in range(1, count + 1)],
    }
    outputs = {}
    for seq, values in expected.items():
        code, out, _ = run(capsys, "oeis", "--sequence", seq, "--count", str(count))
        assert code == EXIT_OK
        assert out == "".join(f"{k} {v}\n" for k, v in enumerate(values, start=1))
        outputs[seq] = out.splitlines()
    for half, full in zip(outputs["A114043"], outputs["A114146"]):
        k, value = half.split()
        assert full == f"{k} {2 * int(value)}"


@pytest.mark.parametrize("count", [OEIS_COUNT_CAP + 1, 10**9])
def test_oeis_past_count_cap_exits_capacity_before_sieving(capsys, monkeypatch, count):
    def refuse(limit):
        raise AssertionError("sieved past the capacity check")

    monkeypatch.setattr(gridthresh.cli, "sieve", refuse)
    code, out, err = run(capsys, "oeis", "--sequence", "A114146", "--count", str(count))
    assert code == EXIT_CAPACITY
    assert out == "" and "capacity" in err.lower()


def test_teach_census_csv(capsys):
    code, out, _ = run(capsys, "teach", "--m", "2", "--n", "2")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "grid_m,grid_n,min_size,count"
    sizes = {int(line.split(",")[2]) for line in lines[1:]}
    assert sizes == {3, 4}


def test_teach_check_passes(capsys):
    assert run(capsys, "teach", "--m", "2", "--n", "2", "--check")[0] == EXIT_OK


@pytest.mark.parametrize("m, n", [(0, 1), (0, 2), (0, 3), (3, 0)])
def test_teach_check_passes_on_collinear_grids(capsys, m, n):
    code, out, _ = run(capsys, "teach", "--m", str(m), "--n", str(n), "--format", "json", "--check")
    assert code == EXIT_OK
    record = json.loads(out)
    assert record["mismatches"] == 0
    assert record["histogram"] == {"2": 2 * (m + n + 1)}


@pytest.mark.parametrize("side", [9, 10])
def test_teach_past_point_cap_exits_capacity_before_enumerating(capsys, monkeypatch, side):
    def refuse(grid, **kwargs):
        raise AssertionError("the universe was enumerated past the capacity check")

    monkeypatch.setattr(gridthresh.teaching, "enumerate_by_lines", refuse)
    code, _, err = run(capsys, "teach", "--m", str(side), "--n", str(side))
    assert code == EXIT_CAPACITY
    assert "capacity" in err.lower()


def test_teach_past_the_line_extent_cap_exits_capacity(capsys):
    # 32 points are within TEACH_POINT_CAP, but the census takes its universe
    # from the line oracle, which refuses a side past LINES_EXTENT_CAP first
    code, out, err = run(capsys, "teach", "--m", "31", "--n", "0")
    assert code == EXIT_CAPACITY and out == ""
    assert err == "capacity error: grid (31, 0) exceeds the line-enumeration cap of 30\n"
    assert run(capsys, "teach", "--m", "30", "--n", "1", "--check")[0] == EXIT_OK


def test_teach_vertex_gap_outside_f_exits_mismatch(capsys, monkeypatch):
    original = gridthresh.oracle.scan_candidates

    def lossy(grid):
        scan = original(grid)
        victim = min(m for m in scan.vertices
                     if not m & 1 and m not in scan.stable_masks)
        vertices = {k: v for k, v in scan.vertices.items() if k != victim}
        return dataclasses.replace(scan, vertices=vertices)

    monkeypatch.setattr(gridthresh.oracle, "scan_candidates", lossy)
    code, _, err = run(capsys, "teach", "--m", "2", "--n", "2")
    assert code == EXIT_MISMATCH
    assert "lacks a unique vertex" in err and "zeros=" in err


def test_asympt_square_csv(capsys):
    code, out, _ = run(capsys, "asympt", "--family", "square", "--max-k", "64")
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].startswith("theorem_id,")
    assert len(lines) == 1 + 3 * 3   # three families at k = 16, 32, 64


def test_asympt_max_k_bounds_the_square_rows_of_every_family(capsys):
    code, out, _ = run(capsys, "asympt", "--max-k", "64")
    assert code == EXIT_OK
    rows = out.strip().split("\n")[1:]
    square = [row for row in rows if row.split(",")[0] in ("umk", "vmk", "total_leading")]
    assert sorted({int(row.split(",")[1].split()[0]) for row in square}) == [16, 32, 64]
    assert len(rows) > len(square)   # the anisotropic rows are still there


def test_bench(capsys):
    code, out, _ = run(capsys, "bench", "--k", "500", "--repeat", "1")
    assert code == EXIT_OK
    record = json.loads(out)
    tables = sieve(500)
    from gridthresh import count_p

    assert record["P"] == str(count_p(500, tables))
    assert record["best_seconds"] > 0


def test_mismatch_exit_code_is_reserved():
    assert EXIT_MISMATCH == 3


def _refuse_tables(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("built tables past the capacity check")

    monkeypatch.setattr(gridthresh.cli, "sieve", refuse)
    monkeypatch.setattr(gridthresh.cli, "NTTables", refuse)


@pytest.mark.parametrize("argv", [
    ("count", "--k", str(COUNT_SIDE_CAP + 2)),
    ("count", "--m", str(COUNT_SIDE_CAP + 1), "--n", "1"),
    ("count", "--m", "1", "--n", str(COUNT_SIDE_CAP + 1), "--breakdown"),
    ("count", "--m", str(10**15), "--n", str(10**15)),
    ("bench", "--k", str(COUNT_SIDE_CAP + 2), "--repeat", "1"),
])
def test_count_and_bench_past_side_cap_exit_capacity_before_sieving(capsys, monkeypatch, argv):
    _refuse_tables(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == EXIT_CAPACITY
    assert out == "" and "capacity" in err.lower()


@pytest.mark.parametrize("method", ["subsets", "lines", "both"])
def test_oracle_past_caps_exits_capacity_before_sieving(capsys, monkeypatch, method):
    _refuse_tables(monkeypatch)
    code, out, err = run(capsys, "oracle", "--m", str(10**9), "--n", str(10**9),
                         "--method", method)
    assert code == EXIT_CAPACITY
    assert out == "" and "capacity" in err.lower()


@pytest.mark.parametrize("count", [OEIS_COUNT_CAP + 1, 10**9])
def test_oeis_past_count_cap_builds_no_tables(capsys, monkeypatch, count):
    _refuse_tables(monkeypatch)
    code, out, _ = run(capsys, "oeis", "--sequence", "A018805", "--count", str(count))
    assert code == EXIT_CAPACITY and out == ""


def test_count_at_side_cap_sieves_to_the_kernel_limit(capsys, monkeypatch):
    limits = []

    def record(limit):
        limits.append(limit)
        raise gridthresh.cli.CapacityError("stop after recording the limit")

    monkeypatch.setattr(gridthresh.cli, "sieve", record)
    assert run(capsys, "count", "--k", str(COUNT_SIDE_CAP + 1))[0] == EXIT_CAPACITY
    assert run(capsys, "bench", "--k", "1000001")[0] == EXIT_CAPACITY
    assert run(capsys, "count", "--m", "1000000", "--n", "8000000")[0] == EXIT_CAPACITY
    kernel_sieve_limit = gridthresh.cli.kernel_sieve_limit
    assert limits == [kernel_sieve_limit(COUNT_SIDE_CAP, COUNT_SIDE_CAP),
                      kernel_sieve_limit(10**6, 10**6), kernel_sieve_limit(10**6, 8 * 10**6)]
    assert limits[1] < 10**6 and limits[1] < limits[2] < 10**6


def test_oeis_builds_only_the_totient_table(capsys, monkeypatch):
    built = []

    class Recorded(NTTables):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(gridthresh.cli, "NTTables", Recorded)
    monkeypatch.setattr(gridthresh.cli, "sieve", None)  # the b-file path sieves no mu
    for sequence in OEIS_SEQUENCES:
        assert run(capsys, "oeis", "--sequence", sequence, "--count", "500")[0] == EXIT_OK
    assert len(built) == 3
    for tables in built:
        assert set(tables._built) == {"phi"}


def test_main_builds_no_parser_after_import(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    assert run(capsys, "count", "--k", "5")[0] == EXIT_OK
    assert run(capsys, "oracle", "--m", "1", "--n", "1")[0] == EXIT_OK
    assert built == []


def test_no_subcommand_imports_numpy_ma():
    # the first np.unique, np.union1d or np.setdiff1d imports numpy.ma,
    # 12-17 ms that every fresh process would pay in its setup
    script = """
import contextlib, io, sys
from gridthresh.cli import main
for argv in (["count", "--m", "30", "--n", "20", "--breakdown"], ["count", "--k", "100"],
             ["oeis", "--sequence", "A114146", "--count", "30"],
             ["oracle", "--m", "3", "--n", "3"], ["teach", "--m", "3", "--n", "3", "--check"],
             ["asympt", "--max-k", "64"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
print("numpy.ma" in sys.modules)
"""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "False\n"


def test_calls_in_one_process_print_what_a_first_call_prints(capsys):
    # the parser is shared by every main call: each call must print what it
    # prints as the first call of a fresh process
    calls = [("count", "--k", "5"), ("count", "--m", "2", "--n", "3", "--breakdown"),
             ("oracle", "--m", "1", "--n", "1")]
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for argv in calls:
        code, out, err = run(capsys, *argv)
        first = subprocess.run([sys.executable, "-m", "gridthresh", *argv], env=env,
                               capture_output=True, text=True, timeout=60)
        assert (code, err) == (first.returncode, first.stderr) == (EXIT_OK, "")
        record, fresh = json.loads(out), json.loads(first.stdout)
        assert record.pop("elapsed_ms") >= 0 and fresh.pop("elapsed_ms") >= 0
        assert record == fresh


def test_library_fault_is_an_internal_error_not_a_usage_error(capsys, monkeypatch):
    def faulty(grid, tables):
        raise ValueError(f"sieve limit 1 < kernel_sieve_limit({grid.m}, {grid.n}) = 9")

    monkeypatch.setattr(gridthresh.cli, "breakdown", faulty)
    code, out, err = run(capsys, "count", "--m", "9", "--n", "9", "--breakdown")
    assert EXIT_INTERNAL == 4
    assert code == EXIT_INTERNAL
    assert out == ""
    assert err == "internal error: ValueError: sieve limit 1 < kernel_sieve_limit(9, 9) = 9\n"


@pytest.mark.parametrize("argv", [
    ("count", "--m", "-1", "--n", "2"),
    ("count", "--m", "2", "--n", "-3", "--breakdown"),
    ("oracle", "--m", "-1", "--n", "2"),
    ("teach", "--m", "2", "--n", "-1"),
])
def test_negative_grid_extents_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == "" and err.startswith("error: grid extents must be non-negative")


@pytest.mark.parametrize("argv", [
    ("oeis", "--sequence", "A114146", "--count", "5", "--output"),
    ("oracle", "--m", "1", "--n", "1", "--dump"),
])
def test_unwritable_output_path_is_one_line_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "out.txt"
    code, _, err = run(capsys, *argv, str(path))
    assert code == EXIT_USAGE
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not path.parent.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ("count", "--m", "2", "--n", "2"),
    ("oeis", "--sequence", "A114146", "--count", "5"),
    ("oeis", "--sequence", "A018805", "--count", "3000"),  # more than one buffer
    ("teach", "--m", "2", "--n", "2"),
    ("asympt", "--family", "square", "--max-k", "64"),
    ("oracle", "--m", "2", "--n", "2"),
    ("bench", "--k", "5", "--repeat", "1"),
    ("--version",),          # argparse's own output
    ("count", "--help"),
])
def test_unwritable_stdout_is_one_line_usage_error(argv):
    # buffered, the write fails at the flush; unbuffered, at the write itself;
    # either way the process must not end in a traceback and status 120
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    for unbuffered in ((), ("-u",)):
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, *unbuffered, "-m", "gridthresh", *argv],
                                  env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        assert done.returncode == EXIT_USAGE, (unbuffered, done.stderr)
        assert done.stderr.startswith("error: cannot write stdout: No space left on device")
        assert done.stderr.count("\n") == 1
