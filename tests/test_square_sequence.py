"""The chunked square-sequence kernel against the Python-int recurrence.

_square_chunks sums U(j, j) and 4V(j, j) for j = 0..n in chunks of _SPAN
terms, on arrays whose dtype follows a proven bound.  Its judge is the
recurrence it replaced, one Python-int step per term, kept below as
square_sequence_by_python_ints.  The b-file tests run the `oeis` command,
whose lines are formatted one chunk at a time.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gridthresh.cli
from gridthresh import NTTables, count_p_sequence, uv_square_sequence
from gridthresh.cli import EXIT_INTERNAL, EXIT_OK, _bfile_lines, main
from gridthresh.numtheory import _SPAN, _square_chunks

ROOT = Path(__file__).resolve().parent.parent


def square_sequence_by_python_ints(n: int, tables: NTTables) -> tuple[list[int], list[int]]:
    """U(j, j) and 4V(j, j) for j = 0..n, one Python-int step per term."""
    u, four_v = [0], [0]
    c = s = q = 0
    for j, f in enumerate(tables.phi[: n + 1].tolist()[1:], start=1):
        if j == 1:
            c = s = q = 1
        else:
            c += 2 * f
            s += 3 * j * f // 2
            q += j * j * f
        w = j + 1
        u.append(c)
        four_v.append(4 * (w * w * c - 2 * w * s + q))
    return u, four_v


def p_by_python_ints(count: int, tables: NTTables) -> list[int]:
    four_v = square_sequence_by_python_ints(count - 1, tables)[1]
    return [(2 * j + 1) ** 2 + 1 + v for j, v in enumerate(four_v)]


@pytest.fixture(scope="module")
def tables():
    return NTTables(70_000)


def test_every_short_sequence_equals_the_python_ints(tables):
    # covers the j = 0 and j = 1 fix-ups at every length
    for n in range(65):
        assert uv_square_sequence(n, tables) == square_sequence_by_python_ints(n, tables), n
        assert count_p_sequence(n + 1, tables) == p_by_python_ints(n + 1, tables), n


def test_sequence_across_a_chunk_and_past_int64_equals_the_python_ints(tables):
    n = 2 * _SPAN + 2
    expected = square_sequence_by_python_ints(n, tables)
    assert uv_square_sequence(n, tables) == expected
    assert count_p_sequence(n + 1, tables) == p_by_python_ints(n + 1, tables)
    chunks = list(_square_chunks(n, tables))
    assert [len(c) for _, c, _ in chunks] == [_SPAN, _SPAN, 3]
    assert all(v.dtype == object for _, _, v in chunks)
    assert max(expected[1]) >= 2**63


def test_chunks_stay_int64_up_to_the_documented_bound(tables):
    # the largest n with 12 (n + 1)^4 < 2^62; one term more leaves int64
    top = 24_897
    assert 12 * (top + 1) ** 4 < 2**62 <= 12 * (top + 2) ** 4
    (j, c, v), = _square_chunks(top, tables)
    assert j.dtype == c.dtype == v.dtype == np.int64
    (j, c, v), = _square_chunks(top + 1, tables)
    assert v.dtype == object and c.dtype == np.int64
    u_only, = _square_chunks(top + 1, tables, four_v=False)
    assert u_only[2] is None and u_only[1].tolist() == c.tolist()


def test_chunks_check_their_arguments():
    tables = NTTables(5)
    with pytest.raises(ValueError):
        next(_square_chunks(-1, tables))
    with pytest.raises(ValueError):
        next(_square_chunks(6, tables))


def test_bfiles_at_seventy_thousand_terms_equal_the_python_ints(capsys, tables):
    count = 70_000
    u, _ = square_sequence_by_python_ints(count, tables)
    p = p_by_python_ints(count, tables)
    expected = {"A114146": p, "A114043": [x // 2 for x in p], "A018805": u[1:]}
    for sequence, values in expected.items():
        assert main(["oeis", "--sequence", sequence, "--count", str(count)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out == "".join(f"{k} {x}\n" for k, x in enumerate(values, start=1)), sequence


def test_a018805_builds_no_four_v(capsys, monkeypatch):
    yielded = []

    def recorded(*args, **kwargs):
        for chunk in _square_chunks(*args, **kwargs):
            yielded.append(chunk[2])
            yield chunk

    monkeypatch.setattr(gridthresh.cli, "_square_chunks", recorded)
    assert main(["oeis", "--sequence", "A018805", "--count", "100"]) == EXIT_OK
    assert capsys.readouterr().out.endswith("100 6087\n")
    assert yielded == [None]


def test_halving_is_exact_past_int64():
    # a chunk of Python ints below and above 2^63 must not pass through float64
    values = [2, 2**63 + 2, 2**64 + 6, 2**90]
    chunk = np.array(values, dtype=object)
    assert _bfile_lines(7, chunk, halve=True) == "".join(
        f"{k} {x // 2}\n" for k, x in enumerate(values, start=7))
    assert _bfile_lines(1, chunk, halve=False).endswith(f"4 {2**90}\n")
    assert _bfile_lines(3, np.array([2, 2**62], dtype=np.int64), halve=True) == f"3 1\n4 {2**61}\n"
    for odd in ([2, 3], [2, 2**63 + 3], [2**70 + 1]):
        with pytest.raises(ArithmeticError):
            _bfile_lines(1, np.array(odd, dtype=object), halve=True)
    with pytest.raises(ArithmeticError):
        _bfile_lines(1, np.array([2, 3], dtype=np.int64), halve=True)


def test_odd_p_exits_internal_under_python_optimize():
    # the parity check must not be an assert, which -O removes
    script = ("import sys, numpy as np, gridthresh.cli as cli\n"
              "cli._p_chunks = lambda count, tables: iter([(1, np.array([2] * (count - 1) + [3]))])\n"
              "sys.exit(cli.main(['oeis', '--sequence', 'A114043', '--count', '5']))\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_INTERNAL
    assert done.stdout == ""
    assert done.stderr.startswith("internal error: ArithmeticError: ")
    assert done.stderr.count("\n") == 1
