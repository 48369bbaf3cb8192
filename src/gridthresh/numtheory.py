"""Exact number-theoretic tables and coprime-pair sums.

Provides the arithmetic backbone for the counting formulas:

    mu(s)       Moebius function, sieved by sieve()
    phi(s)      Euler totient, sieved on first use
    Phi(k)   =  sum_{i<=k} phi(i)                 (integer)
    Psi(k)   =  sum_{i<=k} phi(i)/i               (exact rational)
    M_j(x)   =  sum_{d<=x} d^j mu(d), j = 0, 1, 2  (weighted Mertens sums)
    U(p, q)  =  #{(a, b) : 1<=a<=p, 1<=b<=q, gcd(a, b) = 1}
    V(t, k)  =  sum over coprime (i, j), i<=ceil(t), j<=ceil(k),
                of (t + 1 - i)(k + 1 - j)
    U(j, j), 4V(j, j) for j = 0..n    (the square sequence, one pass over phi)

V is defined for half-integer arguments.  Half-integers are carried as
doubled integers (HalfInt) and V is returned as a quadrupled integer
(QuarterInt): the counting formulas only ever consume 2V, 4V and 8V, so
every public count stays an exact integer and no rational type leaks out.

Each quantity has a naive evaluation straight from its definition, a
linear Moebius evaluation, and a blocked one.  The naive and linear forms
are the oracles (u_naive reads U up to 1024 from one table of gcd counts,
built once); the blocked forms are what production counting uses:

    U(t, k) = sum_s mu(s) * floor(t/s) * floor(k/s)
    V(t, k) = sum_d mu(d) * A(t, d) * A(k, d),
              A(t, d) = sum_{i=1}^{floor(ceil(t)/d)} (t + 1 - d*i)

u_mobius and v_fast sum these term by term over d <= min(ceil t, ceil k)
through _dot, in int64 where a bound from their arguments proves that exact
and in Python ints otherwise, so they are exact wherever their sieve
reaches.  The blocked kernel groups d into the O(sqrt(t) + sqrt(k))
blocks on which floor(ceil(t)/d) and floor(ceil(k)/d) are both constant;
uv_blocked returns U and 4V of one argument pair from one set of blocks,
and _uv_on_blocks adds the half-argument pair of a breakdown on the same
blocks.  On a block 2A is linear in d, so a block contributes a
quadratic in d and needs only the differences of M_0, M_1, M_2 at its
ends; U is the M_0 term.  Those sums are computed per kernel call at
the block ends alone, O(sqrt(t) + sqrt(k)) points closed under
x -> x // q, never over the whole sieve, and NTTables keeps none of
them.  The points within the sieve limit take one pass over mu in
chunks of 2^15 terms, each taken about its base lo: the terms
mu(d) (d - lo)^j fit int32, np.add.reduceat sums them between points in
int64, and sum mu(d) d^2 = S_2 + 2 lo S_1 + lo^2 S_0 (with S_j the sums
of mu(d) (d - lo)^j) shifts them back.  The values at the points leave
int64 only where a total's magnitude may reach 2^62 (beyond every sieve
limit of a side the CLI admits).  The points above the limit come from
the Dirichlet identity sum_{d<=x} d^j M_j(x // d) = 1 (Deleglise &
Rivat, Exp. Math. 1996), evaluated for groups of points at once.  So
the kernel needs a sieve only to kernel_sieve_limit(t, k) =
min(D, ceil(8 K^(2/3))), with D and K the shorter and longer ceil
argument, not to D, and holds nothing of the sieve's length but mu.
Its block sums run on uint64 arrays in one pass per modulus, once mod
2^64 and once mod each of as many 32-bit primes as the larger proven
bound needs, and the Chinese remainder theorem joins the residues of U
and of 4V into the exact integers; a bound below 2^63 needs the 2^64
pass alone.  While the sums within the sieve fit int64, as they do at
every side the CLI admits, no object array is built on the way.

The square sequence serves whole OEIS b-files.  With C_j, S_j and Q_j the
count, sum of i and sum of i*j over coprime pairs (i, j) in [1, j]^2,

    U(j, j) = C_j,   4V(j, j) = 4[(j+1)^2 C_j - 2(j+1) S_j + Q_j],

and each of C, S, Q grows from j-1 to j by a multiple of phi(j), so the
whole sequence costs one pass over phi instead of one Moebius sum per term.
_square_chunks runs that pass in chunks of _SPAN terms: np.cumsum of the
increments, plus the Python-int totals of the chunk before, on arrays
whose dtype each follows a proven bound (int64 for every term up to
n = 24 897, Python ints only for the quantities that need them past it),
so no step loops over terms in Python.  The CLI prints its chunks as they
come; uv_square_sequence and counting.count_p_sequence flatten them.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator, Optional, Union

import numpy as np

from .errors import CapacityError

HalfIntLike = Union[int, Fraction, "HalfInt"]

# The blocked kernel sieves to about KERNEL_SIEVE_C * K^(2/3) (see
# kernel_sieve_limit).  On count requests with sides 10^5..10^6, 6, 8, 12
# and 16 were within noise of each other (24 and up slower); at 10^8..10^9
# 8 was fastest and needs about half the memory of 16 (count_p(10^9):
# 1.5 s and 253 MB against 2.2 s and 444 MB).
KERNEL_SIEVE_C = 8

# int64 arithmetic is used only where a checked bound keeps every value
# below this; past it the same expression runs on Python ints
_INT64_SAFE = 2**62

# The Mertens layer and the square-sequence kernel work in vectorised
# steps of at most this many terms: a chunk of the pass over mu, a group of
# points of the batched recursion (a point with more terms is a group of
# its own), or a chunk of _square_chunks.  The pass needs 2^15 or less: its
# terms mu(d) (d - lo)^2 fit int32 only in chunks of at most 46 341.  A
# point x from 10^9 up has about 2 isqrt(x) >= 63 000 terms, a group of
# its own; past the kernel's sieve limit there (at least 8*10^6) every
# point has over 5 000, so a group holds at most six.  Measured on 2
# shared vCPUs: a breakdown of 10^6 x 8*10^6 on a fresh sieve to 320 000
# takes 3.8 ms (best of 15) and peaks at 1.8 MB (tracemalloc), and
# count_p(10^9) without its sieve about 390 ms (best of 3);
# `oeis --count 10^6` takes 0.58, 0.67 and 0.31 s for A114146, A114043
# and A018805, against 0.61, 0.66 and 0.31 s with the square sequence
# in chunks of 2^16 (best of 3 in fresh processes).
_SPAN = 2**15

# The block sums run once mod 2^64 and then once mod each of these primes,
# the six largest below 2^32, as far as their bound needs.  _CRT_MODULI[c]
# is 2^64 times the first c of them; 2^64 times all six exceeds 2^255,
# above twice the bound of any block sum whose arguments fit int64.
_WRAP = 2**64
_RESIDUE_PRIMES = (4294967291, 4294967279, 4294967231, 4294967197, 4294967189, 4294967161)
_CRT_MODULI = tuple(_WRAP * math.prod(_RESIDUE_PRIMES[:c])
                    for c in range(len(_RESIDUE_PRIMES) + 1))
_HALF_MODULI = tuple(modulus // 2 for modulus in _CRT_MODULI)


@dataclass(frozen=True, order=True)
class HalfInt:
    """A number of the form doubled/2, exact.

    Used for the half-integer arguments (m-1)/2, (n-1)/2 of V.  Values down
    to -1 (doubled = -2) are accepted because they arise from degenerate
    grids and make V an empty sum.
    """

    doubled: int

    @classmethod
    def coerce(cls, x: HalfIntLike) -> "HalfInt":
        if isinstance(x, HalfInt):
            return x
        if isinstance(x, int):
            return cls(2 * x)
        if isinstance(x, Fraction):
            twice = 2 * x
            if twice.denominator != 1:
                raise ValueError(f"{x} is not an integer or half-integer")
            return cls(int(twice))
        raise TypeError(f"cannot interpret {x!r} as a half-integer")

    @property
    def value(self) -> Fraction:
        return Fraction(self.doubled, 2)

    @property
    def ceil(self) -> int:
        return -((-self.doubled) // 2)

    @property
    def is_integer(self) -> bool:
        return self.doubled % 2 == 0

    def __repr__(self) -> str:
        if self.is_integer:
            return f"HalfInt({self.doubled // 2})"
        return f"HalfInt({self.doubled}/2)"


@dataclass(frozen=True, order=True)
class QuarterInt:
    """A number of the form quadrupled/4, exact.

    The product of two half-integers has denominator 4; V at half-integer
    arguments is therefore returned in quadrupled units.
    """

    quadrupled: int

    @property
    def value(self) -> Fraction:
        return Fraction(self.quadrupled, 4)

    @property
    def is_integer(self) -> bool:
        return self.quadrupled % 4 == 0

    def as_int(self) -> int:
        if not self.is_integer:
            raise ValueError(f"{self.value} is not an integer")
        return self.quadrupled // 4

    def __repr__(self) -> str:
        if self.is_integer:
            return f"QuarterInt({self.quadrupled // 4})"
        return f"QuarterInt({self.quadrupled}/4)"


@dataclass(frozen=True, eq=False)
class NTTables:
    """Arithmetic tables up to ``limit``, each built on first access.

    mu (which :func:`sieve` builds eagerly), phi, Phi (the cumulative
    totient) and ``psi_float`` (Psi in float64) are each built once, from
    what they derive from: Phi and ``psi_float`` from phi.  A caller that
    reads only phi therefore builds only phi.  Exact Psi is exposed through
    :meth:`psi` as a Fraction, its prefix extended on demand (an eager
    array of exact Psi values is impossible at large limits: the reduced
    denominator of Psi(k) grows like lcm(1..k)).  Arrays are indexed
    1..limit (index 0 is a zero sentinel) and read-only.

    An instance holds tables alone: the weighted Mertens sums M_j are
    computed per kernel call at that call's block ends (see _mertens_at),
    and nothing of them is kept here.  Every lazy build and every
    extension of the Psi prefix happens under one per-instance re-entrant
    lock, so a single instance is safe to share across threads.
    """

    limit: int
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    _built: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _psi_cache: list[Fraction] = field(default_factory=lambda: [Fraction(0)], repr=False)

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"sieve limit must be >= 1, got {self.limit}")

    def _lazy(self, name: str, build: Callable[[], np.ndarray]) -> np.ndarray:
        table = self._built.get(name)  # a table is stored only once fully built
        if table is None:
            with self._lock:
                if name not in self._built:
                    self._built[name] = build()
                table = self._built[name]
        return table

    @property
    def mu(self) -> np.ndarray:
        """Moebius function, sieved on first access."""
        return self._lazy("mu", lambda: _mu_table(self.limit))

    @property
    def phi(self) -> np.ndarray:
        """Euler totient, sieved on first access."""
        return self._lazy("phi", lambda: _phi_table(self.limit))

    @property
    def Phi(self) -> np.ndarray:
        """Cumulative totient sum_{i<=k} phi(i), built on first access."""
        return self._lazy("Phi", lambda: _read_only(np.cumsum(self.phi)))

    @property
    def psi_float(self) -> np.ndarray:
        """Psi(k) = sum_{i<=k} phi(i)/i in float64, built on first access."""

        def build() -> np.ndarray:
            ratios = self.phi.astype(np.float64)
            ratios[1:] /= np.arange(1, self.limit + 1, dtype=np.float64)
            return _read_only(np.cumsum(ratios))

        return self._lazy("psi_float", build)

    def psi(self, k: int) -> Fraction:
        """Exact Psi(k) = sum_{i<=k} phi(i)/i."""
        if not 1 <= k <= self.limit:
            raise ValueError(f"psi argument {k} outside 1..{self.limit}")
        phi = self.phi
        with self._lock:
            cache = self._psi_cache
            while len(cache) <= k:
                i = len(cache)
                cache.append(cache[-1] + Fraction(int(phi[i]), i))
            return cache[k]


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _small_primes(root: int) -> list[int]:
    """The primes <= root, ascending, by an Eratosthenes pass over a boolean array."""
    composite = np.zeros(root + 1, dtype=bool)
    composite[:2] = True
    for p in range(2, math.isqrt(root) + 1):
        if not composite[p]:
            composite[p * p :: p] = True
    return np.flatnonzero(~composite).tolist()


def sieve(limit: int) -> NTTables:
    """Tables up to ``limit`` with mu sieved now; the rest follow lazily.

    mu is sieved on the odd indices alone, in one int32 array ``rad``.
    Each odd prime p <= sqrt(limit) multiplies -p into rad at its odd
    multiples and zeroes rad at the odd multiples of p^2, so rad holds the
    product of the distinct small primes of each odd index and its sign is
    mu over those primes.  A squarefree odd index larger than |rad| has
    exactly one prime factor > sqrt(limit), which flips its sign once
    more in a single vector pass.  The even indices follow in one vector
    step: mu(2k) = -mu(k) for odd k, and 0 where 4 divides the index.
    Takes about 4 ms at limit = 10^6 and 60 ms at 10^7 (best of 7, 2
    shared vCPUs), and peaks near 5 bytes per index.
    """
    tables = NTTables(limit)
    tables.mu  # noqa: B018  (sieve now, not on first use)
    return tables


def _mu_table(n: int) -> np.ndarray:
    # Entry j of rad stands for the odd index 2j + 1, so an odd prime p
    # strides from j = (p - 1) / 2 and p^2 from (p^2 - 1) / 2.  rad is the
    # product of the index's distinct small primes, negated once per prime,
    # and 0 from a square factor on: its sign is mu over the small primes.
    # |rad| is at most its index, so int32 holds it below 2^31.
    dtype = np.int32 if n < 2**31 else np.int64
    rad = np.ones((n + 1) // 2, dtype=dtype)
    for p in _small_primes(math.isqrt(n))[1:]:
        rad[(p - 1) // 2 :: p] *= -p
        rad[(p * p - 1) // 2 :: p * p] = 0
    odd = (rad > 0).view(np.int8) - (rad < 0).view(np.int8)
    # a factor of -1 where |rad| < index, with no boolean scatter
    odd *= 1 - 2 * (np.abs(rad, out=rad) != np.arange(1, n + 1, 2, dtype=dtype)).view(np.int8)
    # mu(2k) = -mu(k) for odd k, and mu(i) = 0 where 4 divides i
    mu = np.zeros(n + 1, dtype=np.int8)
    mu[1::2] = odd
    np.negative(odd[: len(mu[2::4])], out=mu[2::4])
    return _read_only(mu)


def _phi_table(n: int) -> np.ndarray:
    """phi up to n, read-only.

    Primes up to sqrt(n) strip small factors; whatever cofactor remains is
    1 or a single prime > sqrt(n), fixed up in one vector pass.
    """
    phi = np.ones(n + 1, dtype=np.int64)
    small = np.ones(n + 1, dtype=np.int64)  # product of p^a over primes p <= sqrt(n)
    for p in _small_primes(math.isqrt(n)):
        phi[p::p] *= p - 1
        small[p::p] *= p
        pk = p * p
        while pk <= n:
            phi[pk::pk] *= p
            small[pk::pk] *= p
            pk *= p
    cofactor = np.arange(n + 1, dtype=np.int64) // small
    # a cofactor above 1 is the one prime factor > sqrt(n)
    phi *= np.where(cofactor > 1, cofactor - 1, 1)
    phi[0] = 0
    return _read_only(phi)


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


def u_mobius(t: int, k: int, tables: NTTables) -> int:
    """U(t, k) via Moebius inversion: sum_s mu(s) floor(t/s) floor(k/s).

    Linear in min(t, k); equals u_naive exactly.  Each term is within t*k,
    so int64 sums it while min(t, k) t k < 2^62.
    """
    if t < 0 or k < 0:
        raise ValueError("U is defined for non-negative arguments")
    s_max = min(t, k)
    if s_max == 0:
        return 0
    if tables.limit < s_max:
        raise ValueError(f"sieve limit {tables.limit} < min(t, k) = {s_max}")
    s = _as_exact(np.arange(1, s_max + 1, dtype=np.int64), max(t, k))
    return _dot(t // s, (k // s) * tables.mu[1 : s_max + 1], s_max * t * k)


def _v_prepare(t: HalfIntLike, k: HalfIntLike) -> tuple[int, int, int, int]:
    # doubled arguments and their ceilings; ints skip building a HalfInt
    T = 2 * t if type(t) is int else HalfInt.coerce(t).doubled
    K = 2 * k if type(k) is int else HalfInt.coerce(k).doubled
    if T < -2 or K < -2:
        raise ValueError(f"V arguments must be >= -1, got ({Fraction(T, 2)}, {Fraction(K, 2)})")
    return T, K, -(-T // 2), -(-K // 2)


def v_naive(t: HalfIntLike, k: HalfIntLike) -> QuarterInt:
    """V(t, k) straight from the definition, in quadrupled units.

    4*(t + 1 - i)(k + 1 - j) = (T + 2 - 2i)(K + 2 - 2j) with T = 2t, K = 2k,
    so the double loop is pure integer arithmetic.  Symmetric in (t, k);
    the independent oracle for v_fast.
    """
    T, K, ct, ck = _v_prepare(t, k)
    if ct <= 0 or ck <= 0:
        return QuarterInt(0)
    i = np.arange(1, ct + 1, dtype=np.int64)
    j = np.arange(1, ck + 1, dtype=np.int64)
    wt = (T + 2) - 2 * i
    wk = (K + 2) - 2 * j
    total = 0
    step = max(1, 4_000_000 // ck)
    for lo in range(0, ct, step):
        hi = min(lo + step, ct)
        coprime = np.gcd.outer(i[lo:hi], j) == 1
        total += int(np.sum(np.where(coprime, wt[lo:hi, None] * wk[None, :], 0)))
    return QuarterInt(total)


def v_fast(t: HalfIntLike, k: HalfIntLike, tables: NTTables) -> QuarterInt:
    """V(t, k) via Moebius inversion, linear in ceil(min(t, k)).

    4V = sum_d mu(d) * (2A(t, d)) * (2A(k, d)) where
    2A(t, d) = c * (2t + 2 - d*(c + 1)),  c = floor(ceil(t)/d),
    and 2A(t, d) = 0 for d > ceil(t), which caps the summation index.
    """
    T, K, ct, ck = _v_prepare(t, k)
    d_max = min(ct, ck)
    if d_max <= 0:
        return QuarterInt(0)
    if tables.limit < d_max:
        raise ValueError(f"sieve limit {tables.limit} < ceil(min(t, k)) = {d_max}")
    d = np.arange(1, d_max + 1, dtype=np.int64)
    a_t, a_k = _doubled_a(T, ct, d), _doubled_a(K, ck, d)
    bound = d_max * ct * (T + 2) * ck * (K + 2)  # d_max terms, each within both 2A bounds
    return QuarterInt(_dot(a_t * tables.mu[1 : d_max + 1], a_k, bound))


def _doubled_a(T: int, c: int, d: np.ndarray) -> np.ndarray:
    """2A(t, d) = q (T + 2 - d (q + 1)) with q = c // d, c = ceil(t), T = 2t.

    Every intermediate lies in [0, c (T + 2)], which picks the dtype.
    """
    d = _as_exact(d, c * (T + 2))
    q = c // d
    return q * ((T + 2) - d * (q + 1))


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


def _square_chunks(n: int, tables: NTTables, four_v: bool = True
                   ) -> Iterator[tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]]:
    """(j, U(j, j), 4V(j, j)) for j = 0..n, as exact arrays of at most _SPAN terms.

    With C, S and Q the count, sum of i and sum of i*j over the coprime
    pairs (i, j) of [1, j]^2, U(j, j) = C and 4V(j, j) = 4((w C - 2S) w + Q)
    with w = j + 1.  The pairs of [1, j]^2 not in [1, j-1]^2 are (j, i) and
    (i, j) with i < j coprime to j (for j >= 2), and those i sum to
    j*phi(j)/2.  So C, S and Q grow by 2phi(j), floor(3j*phi(j)/2) and
    j^2*phi(j) from 0 at j = 0; at j = 1 the one pair (1, 1) adds 1 to
    each, which the floor gives for S and Q and a fix-up gives for C.  A
    chunk takes np.cumsum of its increments plus the Python-int totals of
    the chunk before.

    Each array's dtype follows its own bound at the chunk's last j, top
    (see _as_exact).  As phi(j) <= j: C <= top^2; S <= top^3 and
    3j*phi(j) <= 3 top^2, so 3 top^3 covers S and 2S; Q <= top^4 and its
    increments j^2*phi(j) <= top^3.  w C <= (top + 1)^3 and
    0 <= 2S <= 2 top^3, so d = w C - 2S is within 2 (top + 1)^3, d w + Q
    within 3 (top + 1)^4, and 4V and every intermediate of it within
    12 (top + 1)^4.  j comes in the dtype that (2j + 1)^2 + 1 <=
    4 (top + 1)^2 needs, for counting._p_chunks; its sum with 4V stays
    within 12 (top + 1)^4 too, as 4V <= 4 top^4 (a sum of
    (w - i)(w - j) <= top^2 over at most top^2 pairs).  A chunk is
    therefore all int64 for every n <= 24 897.  Past that, C, S, the
    increments of Q and d stay int64 up to top ~ 1.15 10^6, beyond the
    b-file cap of 10^6 terms, and only Q, 4V and the products that make it
    are Python ints.  With four_v false, S, Q and 4V are not built, None
    stands for 4V and j is int64.  The checks on n raise at the first step.
    """
    if n < 0:
        raise ValueError(f"sequence length must be >= 0, got {n}")
    if tables.limit < n:
        raise ValueError(f"sieve limit {tables.limit} < n = {n}")
    phi = tables.phi
    c = s = q = 0  # C, S and Q at the last j of the chunk before
    for lo in range(0, n + 1, _SPAN):
        hi = min(lo + _SPAN, n + 1)
        top = hi - 1
        j, f = np.arange(lo, hi, dtype=np.int64), phi[lo:hi]
        grow = 2 * f
        if lo <= 1 < hi:
            grow[1 - lo] = 1
        cs = np.cumsum(_as_exact(grow, top * top)) + c
        c = int(cs[-1])
        if not four_v:
            yield j, cs, None
            continue
        ss = np.cumsum(3 * _as_exact(f, 3 * top**3) * j // 2) + s
        qs = np.cumsum(_as_exact(_as_exact(f, top**3) * j * j, top**4)) + q
        s, q = int(ss[-1]), int(qs[-1])
        w = j + 1
        d = _as_exact(w, 2 * (top + 1) ** 3) * cs - 2 * ss
        four = 4 * (_as_exact(d, 12 * (top + 1) ** 4) * w + qs)
        yield _as_exact(j, 4 * (top + 1) ** 2), cs, four


# -- the blocked kernel: U and 4V from weighted Mertens sums ---------------

def kernel_sieve_limit(t: int, k: int) -> int:
    """How far to sieve for the blocked kernel at ceiling arguments t and k.

    min(D, ceil(KERNEL_SIEVE_C * K^(2/3))) with D = min(t, k) and
    K = max(t, k), in integer arithmetic, and at least 1.  The block ends
    above the limit are the values t // q and k // q in (limit, D]; the
    recursion computes M_j there at a cost of about (t + k) /
    sqrt(limit), against the sieve's O(limit), so the limit follows the
    long side and stops at the short one.  For a square of side D up to
    512 it is D itself.
    """
    short, long = max(1, min(t, k)), max(1, t, k)
    target = KERNEL_SIEVE_C**3 * long * long
    root = round(target ** (1 / 3))  # integer cube root of target, rounded up
    while root**3 < target:
        root += 1
    while (root - 1) ** 3 >= target:
        root -= 1
    return min(short, root)


def _require_kernel_limit(tables: NTTables, t: int, k: int) -> None:
    if tables.limit >= min(t, k):
        return
    need = kernel_sieve_limit(t, k)
    if tables.limit < need:
        raise ValueError(f"sieve limit {tables.limit} < kernel_sieve_limit({t}, {k}) = {need}")


def _as_exact(a: np.ndarray, bound: int) -> np.ndarray:
    """``a`` for arithmetic whose intermediates stay within ``bound``.

    int64 when the caller's bound is below 2^62, otherwise Python ints
    (an object array), so the same expression is exact either way.
    """
    return a if bound < _INT64_SAFE else a.astype(object)


def _int64_exact(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether every product and partial sum of a * b provably stays below 2^62.

    For int64 a and b the float64 sum of |a * b| bounds them all (its
    relative error is below 1e-6 at any feasible length).
    """
    return (a.dtype != object and b.dtype != object
            and np.abs(a, dtype=np.float64) @ np.abs(b, dtype=np.float64) < _INT64_SAFE)


def _dot(a: np.ndarray, b: np.ndarray, bound: Optional[int] = None) -> int:
    """Exact sum(a * b): in int64 where _int64_exact proves it, otherwise in Python ints.

    A caller's ``bound`` on sum |a * b|, below 2^62, proves it without the
    float64 check (a and b are then int64, as _as_exact made them).
    """
    if (bound is not None and bound < _INT64_SAFE) or _int64_exact(a, b):
        return int(a @ b)
    return int(a.astype(object) @ b.astype(object))


def _mertens_at(tables: NTTables, xs: np.ndarray
                ) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
    """M_j at ascending int64 xs >= 1, computed for this call alone.

    Returns (M_0, M_1, M_2) as a (3, s) array for the s xs within the
    limit, and as triples for the xs past it.  xs must be closed under
    x -> x // q (as _block_ends makes them), so that every value the
    recursion reads is among them.  A point past the limit whose isqrt is
    past it too raises CapacityError before any pass.  The distinct
    points within the limit take one _mertens_pass, those past it one
    _mertens_recurse; nothing is kept on ``tables``.
    """
    split = int(np.searchsorted(xs, tables.limit, side="right"))
    high = xs[split:].tolist()
    if high and math.isqrt(high[-1]) > tables.limit:
        raise CapacityError(f"M_j({high[-1]}) needs the sieve to reach "
                            f"{math.isqrt(high[-1])}, it stops at {tables.limit}")
    low = xs[:split]
    first = np.concatenate(([True], low[1:] != low[:-1]))  # the first of each repeated end
    points = low[first]
    values = _mertens_pass(tables.mu, points)
    above: dict[int, tuple[int, int, int]] = {}
    if high:
        above = _mertens_recurse(list(dict.fromkeys(high)), tables.limit, points, values)
    return values[:, np.cumsum(first) - 1], [above[x] for x in high]


def _mertens_pass(mu: np.ndarray, points: np.ndarray) -> np.ndarray:
    """(M_0, M_1, M_2) at sorted distinct points 1 <= x < len(mu), as (3, n) values.

    One pass over mu up to the last point, in chunks of _SPAN = 2^15
    terms, each taken about its base lo.  With d = lo + e and
    0 <= e < 2^15, mu(d) e and mu(d) e^2 lie below 2^30: they are int32
    products of one array of e and two buffers that every chunk reuses.
    np.add.reduceat sums mu(d) e^j in int64 between consecutive points,
    and a chunk's running prefixes S_0, S_1, S_2 stay within 2^15, 2^30
    and 2^45.  The shift identity
        sum mu(d) d = S_1 + lo S_0,   sum mu(d) d^2 = S_2 + 2 lo S_1 + lo^2 S_0
    turns them into in-chunk sums of d^j mu(d).  Those and the running
    totals, which are added at the points only, stay int64 while the
    totals' largest magnitude plus S_2 + lo (2 S_1 + lo S_0), each at its
    largest magnitude, stays below 2^62.  That is checked only past the
    static bound sum_{d<hi} d^2 < hi^3, from hi = 1.6 * 10^6; once it
    fails, both are Python ints, so only the values at the points and a
    chunk's few sums leave int64, never a chunk's terms, and chunks stay
    full at any top.  A point at or past 2^31, where a single term d^2
    may leave int64, raises CapacityError.
    """
    top = int(points[-1])
    if top * top >= _INT64_SAFE:
        raise CapacityError(f"weighted Mertens point {top} past 2^31")
    span = min(_SPAN, top)
    e = np.arange(span, dtype=np.int32)
    m1, m2 = np.empty(span, dtype=np.int32), np.empty(span, dtype=np.int32)
    total = np.zeros((3, 1), dtype=np.int64)
    parts = []
    for lo in range(1, top + 1, _SPAN):
        hi = min(lo + _SPAN, top + 1)
        size = hi - lo
        # segments start at lo and one past each point short of hi - 1
        first, inner, last = np.searchsorted(points, (lo, hi - 1, hi))
        starts = np.concatenate(([0], points[first:inner] - (lo - 1)))
        m0 = mu[lo:hi]
        np.multiply(m0, e[:size], out=m1[:size])
        np.multiply(m1[:size], e[:size], out=m2[:size])
        sums = np.empty((3, len(starts)), dtype=np.int64)
        np.add.reduceat(m0, starts, dtype=np.int64, out=sums[0])
        np.add.reduceat(m1[:size], starts, dtype=np.int64, out=sums[1])
        np.add.reduceat(m2[:size], starts, dtype=np.int64, out=sums[2])
        np.cumsum(sums, axis=1, out=sums)  # at each point, then the chunk's total
        if hi**3 >= _INT64_SAFE:  # past the static bound
            s0, s1, s2 = (int(x) for x in np.abs(sums).max(axis=1))
            if int(np.abs(total).max()) + s2 + lo * (2 * s1 + lo * s0) >= _INT64_SAFE:
                sums, total = sums.astype(object), total.astype(object)
        # the shift identity, one row per power of d
        shift = np.array([[1, 0, 0], [lo, 1, 0], [lo * lo, 2 * lo, 1]], dtype=sums.dtype)
        sums = shift @ sums
        if last > first:
            parts.append(total + sums[:, : last - first])
        total = total + sums[:, -1:]
    return np.concatenate(parts, axis=1)


def _power_sum(n: np.ndarray, j: int, top: int) -> np.ndarray:
    """sum_{i<=n} i^j elementwise for int64 0 <= n <= top, exact."""
    if j == 0:
        return n
    if j == 1:
        n = _as_exact(n, (top + 1) ** 2)
        return n * (n + 1) // 2
    n = _as_exact(n, (top + 1) ** 2 * (2 * top + 1))
    return n * (n + 1) * (2 * n + 1) // 6


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] .. starts[i] + lengths[i] - 1, concatenated."""
    offsets = np.cumsum(lengths) - lengths
    return np.arange(int(lengths.sum()), dtype=np.int64) + np.repeat(starts - offsets, lengths)


def _segment_dots(a: np.ndarray, b: np.ndarray, lengths: np.ndarray) -> list[int]:
    """Exact sum(a * b) over consecutive segments of the given lengths, as Python ints.

    In int64 where _int64_exact proves it over all segments, otherwise in
    Python ints.
    """
    if not _int64_exact(a, b):
        a, b = a.astype(object), b.astype(object)
    sums = np.zeros(len(lengths), dtype=a.dtype)
    filled = lengths > 0
    if filled.any():
        sums[filled] = np.add.reduceat(a * b, (np.cumsum(lengths) - lengths)[filled])
    return sums.tolist()


def _mertens_recurse(xs: list[int], limit: int, points: np.ndarray, values: np.ndarray
                     ) -> dict[int, tuple[int, int, int]]:
    """(M_0, M_1, M_2) at ascending distinct xs past ``limit``, keyed by x.

    From sum_{d<=x} d^j M_j(x // d) = 1, split at r = isqrt(x) <= limit
    (Deleglise & Rivat, Exp. Math. 1996).  The d <= n = x // (limit + 1)
    read x // d past the limit from the xs before; the d in (n, r] read
    x // d from ``points``; the d > r are grouped by v = x // d <= r, each
    v weighted by the power sums over its range of d.  The terms from
    ``points`` are built for a group of xs at once (np.repeat offsets and
    one searchsorted) and summed per x with reduceat, a group holding at
    most _SPAN of them unless one x alone has more.  The few
    terms from the xs before follow in a Python loop in ascending x, so
    each x // q is computed before it is read.  points must hold every
    x // d and v that is read, with their sums in ``values``.
    """
    roots = [math.isqrt(x) for x in xs]
    above: dict[int, tuple[int, int, int]] = {}
    start = size = 0
    for i, (x, r) in enumerate(zip(xs, roots)):
        terms = r - min(r, x // (limit + 1)) + x // (r + 1)
        if i > start and size + terms > _SPAN:
            _recurse_group(xs[start:i], roots[start:i], limit, points, values, above)
            start, size = i, 0
        size += terms
    _recurse_group(xs[start:], roots[start:], limit, points, values, above)
    return above


def _recurse_group(xs: list[int], roots: list[int], limit: int, points: np.ndarray,
                   values: np.ndarray, above: dict[int, tuple[int, int, int]]) -> None:
    """One group of _mertens_recurse: xs with their isqrt ``roots``."""
    x, r = np.array(xs, dtype=np.int64), np.array(roots, dtype=np.int64)
    n = np.minimum(r, x // (limit + 1))
    n_d, n_v = r - n, x // (r + 1)
    d = _ranges(n + 1, n_d)
    # v = 1 .. n_v then one more per x, whose bound x // v is cut to r: the
    # range of d of each v is (bounds after it, its bounds], and d > r
    v = _ranges(np.ones_like(x), n_v + 1)
    bounds = np.maximum(np.repeat(x, n_v + 1) // v, np.repeat(r, n_v + 1))
    inner = np.ones(len(v), dtype=bool)
    inner[np.cumsum(n_v + 1) - 1] = False
    at = values.take(np.searchsorted(points, np.concatenate((np.repeat(x, n_d) // d, v[inner]))),
                     axis=1)
    top = int(x[-1])
    d_powers = (np.ones_like(d), d, d * d)
    sums = []
    for j in range(3):
        power = _power_sum(bounds, j, top)
        weights = (power[:-1] - power[1:])[inner[:-1]]
        sums.append([s + w for s, w in zip(_segment_dots(d_powers[j], at[j, : len(d)], n_d),
                                           _segment_dots(at[j, len(d):], weights, n_v))])
    for k, (y, n_y) in enumerate(zip(xs, n.tolist())):
        s0, s1, s2 = sums[0][k], sums[1][k], sums[2][k]
        for q in range(2, n_y + 1):
            m0, m1, m2 = above[y // q]
            s0 += m0
            s1 += q * m1
            s2 += q * q * m2
        above[y] = (1 - s0, 1 - s1, 1 - s2)


def weighted_mertens(x: int, tables: NTTables) -> tuple[int, int, int]:
    """(M_0(x), M_1(x), M_2(x)) with M_j(x) = sum_{d<=x} d^j mu(d), exact.

    Computed for this call at x and its quotient points, the kernel's
    block ends of (x, x): by one pass over mu within the sieve limit, and
    past it by the batched Dirichlet recursion, which needs isqrt(x)
    within the limit (CapacityError otherwise, before anything is built).
    Nothing is kept on ``tables``.
    """
    if x < 0:
        raise ValueError(f"M_j is defined for x >= 0, got {x}")
    if x == 0:
        return 0, 0, 0
    if math.isqrt(x) > tables.limit:
        raise CapacityError(f"M_j({x}) needs the sieve to reach {math.isqrt(x)}, "
                            f"it stops at {tables.limit}")
    low, high = _mertens_at(tables, _block_ends(x, x))  # x is the last end
    if high:
        return high[-1]
    m0, m1, m2 = low[:, -1].tolist()
    return m0, m1, m2


def _block_ends(ct: int, ck: int) -> np.ndarray:
    """Ends of the blocks of d <= top = min(ct, ck), sorted, as int64.

    Every d <= min(top, isqrt(max(ct, ck))) and, when that stops short of
    top, the values n // q <= top for n = ct, ck and q <= isqrt(n); no q
    with n // q > top is generated, so memory follows the blocks.  That
    includes every point where ct // d or ck // d changes, so both are
    constant on each block (a repeated end is an empty block).  The ends
    are closed under x -> x // q, as the Mertens recursion needs: a
    quotient of a quotient of n is a quotient of n, and one at or below
    isqrt(n) is among the first ends.
    """
    top = min(ct, ck)
    root_t, root_k = math.isqrt(ct), math.isqrt(ck)
    ends = np.arange(1, min(top, max(root_t, root_k)) + 1, dtype=np.int64)
    if len(ends) < top:
        ends = np.sort(np.concatenate((
            ends, ct // np.arange(ct // (top + 1) + 1, root_t + 1, dtype=np.int64),
            ck // np.arange(ck // (top + 1) + 1, root_k + 1, dtype=np.int64))))
    return ends


def _blocks(ct: int, ck: int, tables: NTTables
            ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """Block ends (see _block_ends) and, per block, the sums of d^j mu(d).

    The sums are differences of M_j at consecutive ends, which
    _mertens_at computes for this call.  They come in two parts: rows
    j = 0, 1, 2 for the blocks that end within the sieve limit (int64
    while the M_j there are), and Python-int triples for the blocks after
    them.
    """
    ends = _block_ends(ct, ck)
    low, above = _mertens_at(tables, ends)
    before = low[:, -1].tolist()
    low[:, 1:] = low[:, 1:] - low[:, :-1]  # ends[0] = 1 is within every limit
    high = []
    for after in above:
        high.append((after[0] - before[0], after[1] - before[1], after[2] - before[2]))
        before = after
    return ends, low, high


# -- residue passes: a block sum mod 2^64 and mod 32-bit primes, then CRT ---
# Every array in a pass is uint64 and holds residues, at most the prime in a
# prime pass, so the product of two fits 64 bits.  Scalar factors multiply
# the Python-int sums, and a prime enters numpy as np.uint64: numpy
# computes uint64 with int64 in float64 (before numpy 2, with a negative
# Python int too).

def _residues(a: np.ndarray, modulus: int) -> np.ndarray:
    """int64 or Python-int ``a`` as uint64 residues: int64 bits mod 2^64, otherwise a % modulus."""
    if modulus == _WRAP and a.dtype != object:
        return a.view(np.uint64)
    return (a % modulus).astype(np.uint64)


def _block_moments(low: np.ndarray, high: list[tuple[int, int, int]],
                   modulus: int) -> np.ndarray:
    """The per-block sums from _blocks as uint64 rows j = 0, 1, 2 mod ``modulus``."""
    rows = _residues(low, modulus)
    if high:
        above = np.array([[x % modulus for x in block] for block in high], dtype=np.uint64)
        rows = np.concatenate((rows, above.T), axis=1)
    return rows


def _mul_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> np.ndarray:
    """a * b mod ``modulus`` for uint64 residues."""
    return a * b if modulus == _WRAP else a * b % np.uint64(modulus)


def _dot_mod(a: np.ndarray, b: np.ndarray, modulus: int) -> int:
    """A Python int congruent to sum(a * b) mod ``modulus``, for uint64 residues.

    In a prime pass each reduced product is below 2^32, so a sum of fewer
    than 2^32 of them cannot wrap.
    """
    if modulus == _WRAP:
        return int(a.dot(b))
    return int((a * b % np.uint64(modulus)).sum())


def _primes_needed(bound: int) -> int:
    """The least c with 2^64 times the first c residue primes > 2 * bound."""
    count = bisect.bisect_right(_HALF_MODULI, bound)
    if count == len(_HALF_MODULI):
        raise CapacityError(f"a block sum bounded by {bound} exceeds the residue range")
    return count


def _from_residues(bounds: tuple[int, ...], residue: Callable[..., tuple[int, ...]],
                   *args: Any) -> tuple[int, ...]:
    """The integers x_i with |x_i| <= bounds[i] that residue(modulus, *args) gives mod modulus.

    residue returns one residue per bound.  It is asked mod 2^64 and then
    mod each of the first _primes_needed(max(bounds)) residue primes.
    Their product exceeds twice every bound, so the residues fix each x_i,
    and Garner's mixed-radix form joins them (Garner, "The residue number
    system", IRE Trans. EC-8, 1959).  Bounds below 2^63 need the 2^64 pass
    alone.
    """
    count = _primes_needed(max(bounds))
    xs, modulus = [r % _WRAP for r in residue(_WRAP, *args)], _WRAP
    for p in _RESIDUE_PRIMES[:count]:
        inverse = pow(modulus, -1, p)
        xs = [x + modulus * ((r - x) * inverse % p) for x, r in zip(xs, residue(p, *args))]
        modulus *= p
    xs = [x - modulus if x > _HALF_MODULI[count] else x for x in xs]
    for x, bound in zip(xs, bounds):
        if not -bound <= x <= bound:  # a residue pass or the caller's bound is wrong
            raise ArithmeticError(f"block sum {x} outside its bound {bound}")
    return tuple(xs)


def uv_blocked(t: HalfIntLike, k: HalfIntLike, tables: NTTables) -> tuple[int, QuarterInt]:
    """U(ceil t, ceil k) and 4V(t, k) from one set of blocks and one residue pass.

    With q = floor(ceil(t)/d) constant on a block, 2A(t, d) =
    q(2t + 2 - (q + 1) d) is linear in d there, so the block contributes
    to 4V a quadratic in d: its sums of d^j mu(d), j = 0, 1, 2, weighted
    by the coefficients of the product of the two sides.  The j = 0 sum
    weighted by qt qk alone is U, the coprime pairs of
    [1, ceil t] x [1, ceil k].  The block sums run in residues (see
    _from_residues) against the bounds 0 <= U <= ceil(t) ceil(k) and
    0 <= 4V(t, k) <= ceil(t) ceil(k) (2t + 2)(2k + 2): 4V sums
    (2t + 2 - 2i)(2k + 2 - 2j) over those U pairs, and 2t + 2 - 2i lies in
    [1, 2t] for 1 <= i <= ceil(t).  Arguments from -1 up, half-integers
    included; an empty sum is (0, 0), and a ceiling of 2^63 or more in a
    non-empty one raises CapacityError (the blocks live in int64).
    Needs tables.limit >= kernel_sieve_limit(ceil(t), ceil(k)); equals
    (u_mobius, v_fast) at the ceilings.
    """
    T, K, ct, ck = _v_prepare(t, k)
    if min(ct, ck) <= 0:
        return 0, QuarterInt(0)
    u, four_v = _uv_on_blocks(((T, K),), tables)
    return u, QuarterInt(four_v)


def _uv_on_blocks(pairs: tuple[tuple[int, int], ...], tables: NTTables) -> tuple[int, ...]:
    """U at the ceilings and 4V of each doubled pair (T, K), from the blocks of the first.

    Returns U and 4V of each pair in turn, from one set of blocks and one
    residue pass per modulus.  The first pair's ceilings ct, ck must be
    positive; a later pair's ceilings must be at most ct and ck and give
    quotients constant on ct's and ck's blocks.  floor(ct / 2) and
    floor(ck / 2) do, as floor(floor(ct / 2) / d) = floor(floor(ct / d) / 2):
    so counting.breakdown takes 4V((m-1)/2, (n-1)/2), whose doubled
    arguments are m - 1 and n - 1, from the blocks of (m, n).  Each pair
    is bounded as in uv_blocked; a first ceiling of 2^63 or more raises
    CapacityError before any block is built.
    """
    T, K = pairs[0]
    ct, ck = -(-T // 2), -(-K // 2)
    if max(ct, ck) >= 2**63:
        raise CapacityError(f"kernel side {max(ct, ck)} past int64")
    _require_kernel_limit(tables, ct, ck)
    ends, low, high = _blocks(ct, ck, tables)
    bounds: list[int] = []
    quotients = []
    for T, K in pairs:
        ct, ck = -(-T // 2), -(-K // 2)
        bounds += [ct * ck, ct * ck * (T + 2) * (K + 2)]
        quotients.append((T, K, ct // ends, ck // ends))
    return _from_residues(tuple(bounds), _uv_block_sum, tuple(quotients), low, high)


def _uv_block_sum(modulus: int, pairs: tuple[tuple[int, int, np.ndarray, np.ndarray], ...],
                  low: np.ndarray, high: list[tuple[int, int, int]]) -> tuple[int, ...]:
    """(U, 4V) mod ``modulus`` of each (T, K, qt, qk), in turn, on the blocks of low and high.

    U sums qt qk mu(d) and 4V sums qt qk (T + 2 - pt d)(K + 2 - pk d) mu(d).
    The second is 2A(t, d) 2A(k, d) mu(d) on a block, with p = q + 1;
    expanded in d, it weights the block's sums of d^j mu(d), j = 0, 1, 2,
    and its j = 0 term is (T + 2)(K + 2) times the first.  p is taken as a
    residue plus one, so q = 2^63 - 1 does not overflow.  The block sums
    are reduced once for all pairs.
    """
    m = _block_moments(low, high, modulus)
    one = np.uint64(1)
    sums: list[int] = []
    for T, K, qt, qk in pairs:
        rt, rk = _residues(qt, modulus), _residues(qk, modulus)
        pt = rt + one
        floors = _mul_mod(rt, rk, modulus)
        with_pk = _mul_mod(floors, rk + one, modulus)
        u = _dot_mod(floors, m[0], modulus)
        sums += [u, ((T + 2) * ((K + 2) * u - _dot_mod(with_pk, m[1], modulus))
                     - (K + 2) * _dot_mod(_mul_mod(floors, pt, modulus), m[1], modulus)
                     + _dot_mod(_mul_mod(with_pk, pt, modulus), m[2], modulus))]
    return tuple(sums)
