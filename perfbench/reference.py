"""Reference values and output checks for the benchmark, independent of the
functions it times.

Nothing here calls the package's sieve, kernels or counting functions.
The tables come from a textbook Eratosthenes sieve over all primes, and
the sums are evaluated two ways the package does not use:

* squares (``--k`` requests, square grids, all three b-files) use totient
  closed forms.  U(k, k) = 2 Phi(k) - 1, and with C, S, Q the count, sum of
  i and sum of i*j over coprime pairs in [1, c]^2 (increments 2 phi(c),
  (3/2) c phi(c) and c^2 phi(c) for c >= 2),
      4V(t, t) = (T + 2)^2 C_c - 4 (T + 2) S_c + 4 Q_c,   T = 2t, c = ceil(t),
  which covers the half-integer argument (m - 1)/2 as well;
* rectangles use the Moebius sums U = sum mu(s) [p/s][q/s] and
  4V = sum mu(d) 2A(t, d) 2A(k, d) in blocks of d on which both floor
  quotients are constant, with weighted Mertens prefix sums of mu(d) d^j,
  j = 0, 1, 2, accumulated in Python integers.

The verify workload is checked against v_naive, the package's definitional
gcd count, which the timed path never calls.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Optional

import numpy as np

from workloads import Argv, Request

# j^2 phi(j) < j^3 must stay below 2^63 for the int64 prefix sums
MAX_LIMIT = 2_000_000
_LOW32 = (1 << 32) - 1


class Tables:
    """phi, mu and the prefix sums the closed forms and block sums need, up to ``limit``."""

    def __init__(self, limit: int):
        if not 1 <= limit <= MAX_LIMIT:
            raise ValueError(f"reference tables support 1..{MAX_LIMIT}, got {limit}")
        n = limit
        composite = np.zeros(n + 1, dtype=bool)
        for p in range(2, math.isqrt(n) + 1):
            if not composite[p]:
                composite[p * p :: p] = True
        primes = np.flatnonzero(~composite[2:]) + 2
        phi = np.arange(n + 1, dtype=np.int64)
        mu = np.ones(n + 1, dtype=np.int64)
        for p in primes.tolist():
            phi[p::p] -= phi[p::p] // p
            mu[p::p] *= -1
            mu[p * p :: p * p] = 0
        mu[0] = 0
        d = np.arange(n + 1, dtype=np.int64)
        self.limit = n
        self.mertens = [np.cumsum(mu * d**j) for j in range(3)]
        self.Phi = np.cumsum(phi)
        inc_s = 3 * d * phi // 2            # exact: d * phi(d) is even for d >= 2
        inc_q = d * d * phi
        inc_s[1] = inc_q[1] = 1             # the single pair (1, 1)
        self.S = np.cumsum(inc_s)
        self.Q_high = np.cumsum(inc_q >> 32)
        self.Q_low = np.cumsum(inc_q & _LOW32)

    def _need(self, c: int) -> None:
        if c > self.limit:
            raise ValueError(f"reference tables end at {self.limit}, need {c}")

    # -- closed forms on the diagonal ------------------------------------

    def u_square(self, c: int) -> int:
        """U(c, c) = 2 Phi(c) - 1."""
        self._need(c)
        return 2 * int(self.Phi[c]) - 1 if c >= 1 else 0

    def four_v_square(self, doubled: int) -> int:
        """4V(t, t) for t = doubled / 2 >= -1, from C, S and Q at ceil(t)."""
        c = (doubled + 1) // 2
        if c <= 0:
            return 0
        self._need(c)
        w = doubled + 2
        count = 2 * int(self.Phi[c]) - 1
        sum_i = int(self.S[c])
        sum_ij = (int(self.Q_high[c]) << 32) + int(self.Q_low[c])
        return w * w * count - 4 * w * sum_i + 4 * sum_ij

    # -- blocked Moebius sums -------------------------------------------

    def _mertens(self, j: int, lo: int, hi: int) -> int:
        return int(self.mertens[j][hi]) - int(self.mertens[j][lo - 1])

    def u_blocks(self, p: int, q: int) -> int:
        """U(p, q) = sum_s mu(s) [p/s][q/s], one term per block of equal quotients."""
        top = min(p, q)
        self._need(top)
        total, s = 0, 1
        while s <= top:
            qp, qq = p // s, q // s
            hi = min(p // qp, q // qq)
            total += qp * qq * self._mertens(0, s, hi)
            s = hi + 1
        return total

    def four_v_blocks(self, doubled_t: int, doubled_k: int) -> int:
        """4V(t, k) for half-integers t, k >= -1 given doubled.

        2A(t, d) = c (T + 2) - c (c + 1) d with c = [ceil(t)/d] is linear in d
        on each block, so the block's share of sum mu(d) 2A(t, d) 2A(k, d) is a
        quadratic in d weighted by mu.
        """
        ct, ck = (doubled_t + 1) // 2, (doubled_k + 1) // 2
        top = min(ct, ck)
        if top <= 0:
            return 0
        self._need(top)
        total, d = 0, 1
        while d <= top:
            qt, qk = ct // d, ck // d
            hi = min(ct // qt, ck // qk)
            at, bt = qt * (doubled_t + 2), qt * (qt + 1)
            ak, bk = qk * (doubled_k + 2), qk * (qk + 1)
            total += (at * ak * self._mertens(0, d, hi)
                      - (at * bk + ak * bt) * self._mertens(1, d, hi)
                      + bt * bk * self._mertens(2, d, hi))
            d = hi + 1
        return total


def _flags(argv: Argv) -> dict[str, str]:
    return {argv[i][2:]: argv[i + 1] for i in range(1, len(argv) - 1)
            if argv[i].startswith("--") and not argv[i + 1].startswith("--")}


def _counts(m: int, n: int, tables: Tables) -> dict[str, int]:
    """total, stable, unstable and f_class of a proper grid (m, n >= 1)."""
    if m == n:
        u, v4, v4_half = tables.u_square(m), tables.four_v_square(2 * m), tables.four_v_square(m - 1)
    else:
        u = tables.u_blocks(m, n)
        v4 = tables.four_v_blocks(2 * m, 2 * n)
        v4_half = tables.four_v_blocks(m - 1, n - 1)
    total = (2 * m + 1) * (2 * n + 1) + 1 + v4
    unstable = 2 * m * n - u + 2 * v4_half
    stable = m + n + u + v4 // 2 - 2 * v4_half
    if total != 2 * (stable + unstable + 1):
        raise AssertionError(f"reference counts inconsistent at ({m}, {n})")
    return {"total": total, "stable": stable, "unstable": unstable, "f_class": stable + unstable}


def _p(k: int, tables: Tables) -> int:
    """P(k, 2) = N(k - 1, k - 1) by the diagonal closed form."""
    return (2 * k - 1) ** 2 + 1 + tables.four_v_square(2 * (k - 1))


def _bfile_lines(sequence: str, count: int, tables: Tables) -> list[str]:
    if sequence == "A018805":
        values = [tables.u_square(k) for k in range(1, count + 1)]
    else:
        values = [_p(k, tables) for k in range(1, count + 1)]
        if sequence == "A114043":
            values = [v // 2 for v in values]
    return [f"{k} {v}" for k, v in enumerate(values, start=1)]


def _table_limit(requests: list[Request]) -> int:
    need = 1
    for req in requests:
        argv = req[0]
        flags = _flags(argv)
        if argv[0] == "count":
            need = max(need, int(flags["k"]) if "k" in flags else min(int(flags["m"]), int(flags["n"])))
        elif argv[0] == "oeis":
            need = max(need, int(flags["count"]))
    return need


def expected(requests: list[Request]) -> dict[Request, object]:
    """Reference answer of every request, from one table sized for the largest."""
    tables = Tables(_table_limit(requests))
    answers: dict[Request, object] = {}
    for req in requests:
        argv = req[0]
        flags = _flags(argv)
        if argv[0] == "count" and "k" in flags:
            k = int(flags["k"])
            p = _p(k, tables)
            answers[req] = {"m": k - 1, "n": k - 1, "k": k, "P": p, "total": p}
        elif argv[0] == "count":
            m, n = int(flags["m"]), int(flags["n"])
            answers[req] = {"m": m, "n": n, **_counts(m, n, tables)}
        elif argv[0] == "oeis":
            answers[req] = _bfile_lines(flags["sequence"], int(flags["count"]), tables)
        elif argv[0] == "oracle":
            from gridthresh.numtheory import v_naive

            m, n = int(flags["m"]), int(flags["n"])
            answers[req] = (2 * m + 1) * (2 * n + 1) + 1 + v_naive(m, n).quadrupled
        else:
            raise ValueError(f"no reference for {argv!r}")
    return answers


def check(req: Request, codes: tuple, texts: tuple[str, ...], answer: object) -> Optional[str]:
    """None if the request's exit codes and outputs match ``answer``, else why not."""
    if any(code != 0 for code in codes):
        return f"exit codes {codes}"
    kind = req[0][0]
    try:
        if kind == "count":
            record = json.loads(texts[0])
            for key, value in answer.items():
                got = record.get(key)
                if str(got) != str(value):
                    return f"{key}: got {got}, expected {value}"
        elif kind == "oeis":
            lines = texts[0].splitlines()
            if len(lines) != len(answer):
                return f"b-file has {len(lines)} lines, expected {len(answer)}"
            for got, want in zip(lines, answer):
                if got != want:
                    return f"b-file line {got!r}, expected {want!r}"
        else:
            record = json.loads(texts[0])
            if record.get("all_match") is not True:
                return "oracle reports a mismatch"
            for key in ("formula_total", "subset_total", "lines_total"):
                if record.get(key) != str(answer):
                    return f"{key}: got {record.get(key)}, expected {answer}"
            rows = list(csv.DictReader(io.StringIO(texts[1])))
            census_total = sum(int(row["count"]) for row in rows)
            if census_total != answer:
                return f"census covers {census_total} functions, expected {answer}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
    return None
