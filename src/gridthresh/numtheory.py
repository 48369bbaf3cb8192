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
are the oracles; the blocked forms are what production counting uses:

    U(t, k) = sum_s mu(s) * floor(t/s) * floor(k/s)
    V(t, k) = sum_d mu(d) * A(t, d) * A(k, d),
              A(t, d) = sum_{i=1}^{floor(ceil(t)/d)} (t + 1 - d*i)

u_mobius and v_fast sum these term by term over d <= min(ceil t, ceil k),
with the products of doubled A-values in int64 limbs (split + chunked
accumulation into Python ints) and the overflow envelope checked, never
assumed.  u_blocked and v_blocked group d into the O(sqrt(t) + sqrt(k))
blocks on which floor(ceil(t)/d) and floor(ceil(k)/d) are both constant.
On a block 2A is linear in d, so a block contributes a quadratic in d and
needs only the differences of M_0, M_1, M_2 at its ends.  Those come from
prefix sums over mu up to the sieve limit, and above it from the Dirichlet
identity sum_{d<=x} d^j M_j(x // d) = 1, memoised per NTTables (Deleglise &
Rivat, Exp. Math. 1996).  So the blocked kernels need a sieve only to
kernel_sieve_limit(t, k) = min(D, ceil(8 K^(2/3))), with D and K the
shorter and longer ceil argument, not to D.  Their block sums run on
uint64 arrays, once mod 2^64 and once mod each of as many 32-bit primes
as a proven bound on the sum needs, and the Chinese remainder theorem
joins the residues into the exact integer; a bound below 2^63 needs the
2^64 pass alone.  No object array is built on the way.

The square sequence serves whole OEIS b-files.  With C_j, S_j and Q_j the
count, sum of i and sum of i*j over coprime pairs (i, j) in [1, j]^2,

    U(j, j) = C_j,   4V(j, j) = 4[(j+1)^2 C_j - 2(j+1) S_j + Q_j],

and each of C, S, Q grows from j-1 to j by a multiple of phi(j), so the
whole sequence costs one pass over phi instead of one Moebius sum per term.
"""

from __future__ import annotations

import bisect
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Iterator, Union

import numpy as np

from .errors import CapacityError

HalfIntLike = Union[int, Fraction, "HalfInt"]

# v_fast splits doubled A-values into limbs of ceil(bits/2); partial sums of
# limb products must stay below 2^62.  bits <= 56 keeps every chunk >= 32
# elements, which covers arguments up to ~2.6e8.
_MAX_DOUBLED_A_BITS = 56

# The blocked kernels sieve to about KERNEL_SIEVE_C * K^(2/3) (see
# kernel_sieve_limit).  On count requests with sides 10^5..10^6, 6, 8, 12
# and 16 were within noise of each other (24 and up slower); at 10^8..10^9
# 8 was fastest and needs about half the memory of 16 (count_p(10^9):
# 1.5 s and 253 MB against 2.2 s and 444 MB).
KERNEL_SIEVE_C = 8

# int64 arithmetic is used only where a checked bound keeps every value
# below this; past it the same expression runs on Python ints
_INT64_SAFE = 2**62

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
    totient), ``psi_float`` (Psi in float64) and the weighted Mertens
    prefix sums are each built once, from what they derive from: Phi and
    ``psi_float`` from phi, the prefix sums from mu.  A caller that reads
    only phi therefore builds only phi.  Exact Psi is exposed through
    :meth:`psi` as a Fraction, its prefix extended on demand (an eager
    array of exact Psi values is impossible at large limits: the reduced
    denominator of Psi(k) grows like lcm(1..k)).  Weighted Mertens values
    above the prefix are memoised here by the blocked kernels.  Arrays are
    indexed 1..limit (index 0 is a zero sentinel) and read-only.  Every
    lazy build, every extension of the Psi prefix and every memo fill
    happens under one per-instance re-entrant lock, so a single instance
    is safe to share across threads.
    """

    limit: int
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    _sieved: dict[str, Any] = field(default_factory=dict, repr=False)
    _totients: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _psi_cache: list[Fraction] = field(default_factory=lambda: [Fraction(0)], repr=False)
    _mertens_memo: dict[int, tuple[int, int, int]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.limit < 1:
            raise ValueError(f"sieve limit must be >= 1, got {self.limit}")

    def _lazy(self, store: dict, name: str, build: Callable[[], Any]) -> Any:
        table = store.get(name)  # a table is stored only once fully built
        if table is None:
            with self._lock:
                if name not in store:
                    store[name] = build()
                table = store[name]
        return table

    @property
    def mu(self) -> np.ndarray:
        """Moebius function, sieved on first access."""
        return self._lazy(self._sieved, "mu", lambda: _mu_table(self.limit))

    @property
    def phi(self) -> np.ndarray:
        """Euler totient, sieved on first access."""
        return self._lazy(self._totients, "phi", lambda: _phi_table(self.limit))

    @property
    def Phi(self) -> np.ndarray:
        """Cumulative totient sum_{i<=k} phi(i), built on first access."""
        return self._lazy(self._totients, "Phi", lambda: _read_only(np.cumsum(self.phi)))

    @property
    def psi_float(self) -> np.ndarray:
        """Psi(k) = sum_{i<=k} phi(i)/i in float64, built on first access."""

        def build() -> np.ndarray:
            ratios = self.phi.astype(np.float64)
            ratios[1:] /= np.arange(1, self.limit + 1, dtype=np.float64)
            return _read_only(np.cumsum(ratios))

        return self._lazy(self._totients, "psi_float", build)

    @property
    def mertens_prefix(self) -> np.ndarray:
        """Rows M_0, M_1, M_2 at x = 0..top as int64, built on first access.

        top is the limit, unless M_2 would leave int64 below it (see
        _mertens_prefix); weighted_mertens covers every x either way.
        """
        return self._lazy(self._sieved, "mertens", lambda: _mertens_prefix(self.mu))

    def _mertens_above(self, xs: list[int]) -> list[tuple[int, int, int]]:
        """(M_0, M_1, M_2) at ascending xs above the prefix, memoised.

        xs must be closed under x -> x // q above the prefix, so that every
        value the recursion reads is memoised before it is needed.
        """
        prefix = self.mertens_prefix
        with self._lock:
            memo = self._mertens_memo
            for x in xs:
                if x not in memo:
                    memo[x] = _mertens_recurse(x, prefix, memo)
            return [memo[x] for x in xs]

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


def _small_primes(root: int) -> Iterator[int]:
    """The primes <= root, by an Eratosthenes pass over a boolean array."""
    composite = np.zeros(root + 1, dtype=bool)
    for p in range(2, root + 1):
        if not composite[p]:
            composite[p * p :: p] = True
            yield p


def sieve(limit: int) -> NTTables:
    """Tables up to ``limit`` with mu sieved now; the rest follow lazily.

    Each prime p <= sqrt(limit) flips the sign of mu at its multiples,
    zeroes it at the multiples of p^2, and multiplies p into ``rad``, the
    product of the distinct small primes of each index.  A squarefree index
    larger than its rad has exactly one prime factor > sqrt(limit), which
    flips its sign once more in a single vector pass.  Takes about 30 ms
    at limit = 10^6 and 0.4 s at 10^7 (best of 7, 2 shared vCPUs).
    """
    tables = NTTables(limit)
    tables.mu  # noqa: B018  (sieve now, not on first use)
    return tables


def _mu_table(n: int) -> np.ndarray:
    # rad(x) <= x, so int32 holds it below 2^31 and halves the memory traffic
    dtype = np.int32 if n < 2**31 else np.int64
    mu = np.ones(n + 1, dtype=np.int8)
    rad = np.ones(n + 1, dtype=dtype)
    for p in _small_primes(math.isqrt(n)):
        mu[p::p] *= -1
        mu[p * p :: p * p] = 0
        rad[p::p] *= p
    mu[rad != np.arange(n + 1, dtype=dtype)] *= -1
    mu[0] = 0
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
    big = cofactor > 1  # exactly one prime factor > sqrt(n) remains
    phi[big] *= cofactor[big] - 1
    phi[0] = 0
    return _read_only(phi)


def u_naive(p: int, q: int) -> int:
    """U(p, q) by the definition: count gcd(i, j) = 1 over [1,p] x [1,q].

    Empty ranges give 0.  Quadratic work, vectorised; the independent
    oracle for u_mobius.
    """
    if p < 0 or q < 0:
        raise ValueError("U is defined for non-negative arguments")
    if p == 0 or q == 0:
        return 0
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

    Linear in min(t, k); equals u_naive exactly.
    """
    if t < 0 or k < 0:
        raise ValueError("U is defined for non-negative arguments")
    s_max = min(t, k)
    if s_max == 0:
        return 0
    if tables.limit < s_max:
        raise ValueError(f"sieve limit {tables.limit} < min(t, k) = {s_max}")
    if t * k > 4 * 10**18:
        raise CapacityError(f"U({t}, {k}) exceeds the checked int64 envelope")
    s = np.arange(1, s_max + 1, dtype=np.int64)
    terms = (t // s) * (k // s) * tables.mu[1 : s_max + 1]
    return int(terms.sum())


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
    qt = ct // d
    qk = ck // d
    a_t = qt * ((T + 2) - d * (qt + 1))  # doubled A(t, d), always >= 0
    a_k = qk * ((K + 2) - d * (qk + 1))
    mu_d = tables.mu[1 : d_max + 1].astype(np.int64)
    return QuarterInt(_signed_product_sum(mu_d, a_t, a_k))


def _signed_product_sum(sign: np.ndarray, a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum(sign * a * b) for non-negative int64 a, b.

    a*b can exceed int64, so each factor is split into high/low limbs and
    the three partial sums are accumulated per chunk into Python ints.
    Chunk length is chosen so no partial sum can reach 2^62.
    """
    bits = int(max(a.max(), b.max())).bit_length()
    if bits > _MAX_DOUBLED_A_BITS:
        raise CapacityError("arguments exceed the checked int64 envelope of v_fast")
    shift = (bits + 1) // 2
    low_mask = (1 << shift) - 1
    chunk = 1 << (61 - 2 * shift) if shift else len(a)
    total = 0
    for lo in range(0, len(a), chunk):
        sl = slice(lo, lo + chunk)
        sg = sign[sl]
        ah, al = a[sl] >> shift, a[sl] & low_mask
        bh, bl = b[sl] >> shift, b[sl] & low_mask
        s_hh = int(np.sum(sg * (ah * bh)))
        s_mid = int(np.sum(sg * (ah * bl + al * bh)))
        s_ll = int(np.sum(sg * (al * bl)))
        total += (s_hh << (2 * shift)) + (s_mid << shift) + s_ll
    return total


def uv_square_sequence(n: int, tables: NTTables) -> tuple[list[int], list[int]]:
    """U(j, j) and 4V(j, j) for j = 0..n, in one pass over phi.

    The coprime pairs of [1, j]^2 not in [1, j-1]^2 are (j, i) and (i, j)
    with i < j coprime to j (for j >= 2), and the i coprime to j sum to
    j*phi(j)/2.  So C, S and Q grow by 2phi(j), (3/2)j*phi(j) and
    j^2*phi(j), from C_1 = S_1 = Q_1 = 1 (the pair (1, 1)) and 0 at j = 0.
    Accumulated in Python ints: exact for every n, no int64 envelope.
    Equals u_mobius(j, j, tables) and v_fast(j, j, tables).quadrupled.
    """
    if n < 0:
        raise ValueError(f"sequence length must be >= 0, got {n}")
    if tables.limit < n:
        raise ValueError(f"sieve limit {tables.limit} < n = {n}")
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


# -- the blocked kernel: U and 4V from weighted Mertens sums ---------------

def kernel_sieve_limit(t: int, k: int) -> int:
    """How far to sieve for the blocked kernels at ceiling arguments t and k.

    min(D, ceil(KERNEL_SIEVE_C * K^(2/3))) with D = min(t, k) and
    K = max(t, k), in integer arithmetic, and at least 1.  The block ends
    above the limit are the values t // q and k // q in (limit, D]; the
    memoised recursion fills M_j there at a cost of about (t + k) /
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


def _dot(a: np.ndarray, b: np.ndarray) -> int:
    """Exact sum(a * b).

    For int64 a and b the float64 sum of |a * b| bounds every product and
    partial sum (its relative error is below 1e-6 at any feasible length);
    below 2^62 the int64 dot is exact, otherwise it runs on Python ints.
    """
    if a.dtype != object and b.dtype != object:
        bound = np.abs(a, dtype=np.float64) @ np.abs(b, dtype=np.float64)
        if bound < _INT64_SAFE:
            return int(a @ b)
    return int(a.astype(object) @ b.astype(object))


def _mertens_prefix(mu: np.ndarray) -> np.ndarray:
    """M[j, x] = M_j(x) = sum_{d<=x} d^j mu(d) for j = 0, 1, 2, x = 0..top, int64.

    Summed in chunks short enough that no in-chunk partial sum reaches
    2^62 (each term is at most limit^2).  A chunk's running offset is added
    only where the prefix provably stays below 2^62: by the static bound
    len * d_max^2 when that suffices, otherwise by the chunk's actual
    extremes, checked in Python ints.  The table ends before the first
    chunk that fails, so top < limit only where M_2 itself outgrows int64
    (around limit ~ 10^8); the recursion covers everything above top.
    """
    n = len(mu) - 1
    if n >= 2**31:
        raise CapacityError(f"weighted Mertens prefix past 2^31 (limit {n})")
    step = max(1, _INT64_SAFE // max(1, n * n))
    prefix = np.empty((3, n + 1), dtype=np.int64)
    offset = np.zeros((3, 1), dtype=np.int64)
    for lo in range(0, n + 1, step):
        hi = min(lo + step, n + 1)
        d = np.arange(lo, hi, dtype=np.int64)
        chunk = prefix[:, lo:hi]
        chunk[0] = mu[lo:hi]
        chunk[1] = chunk[0] * d
        chunk[2] = chunk[1] * d
        np.cumsum(chunk, axis=1, out=chunk)
        reach = int(np.abs(offset).max())
        if reach + (hi - lo) * (hi - 1) ** 2 >= _INT64_SAFE:
            if reach + int(np.abs(chunk).max()) >= _INT64_SAFE:
                return _read_only(prefix[:, :lo].copy())
        chunk += offset
        offset = chunk[:, -1:].copy()
    return _read_only(prefix)


def _power_sum(n: np.ndarray, j: int, top: int) -> np.ndarray:
    """sum_{i<=n} i^j elementwise for int64 0 <= n <= top, exact."""
    if j == 0:
        return n
    if j == 1:
        n = _as_exact(n, (top + 1) ** 2)
        return n * (n + 1) // 2
    n = _as_exact(n, (top + 1) ** 2 * (2 * top + 1))
    return n * (n + 1) * (2 * n + 1) // 6


def _mertens_recurse(x: int, prefix: np.ndarray,
                     memo: dict[int, tuple[int, int, int]]) -> tuple[int, int, int]:
    """(M_0, M_1, M_2) at x above the prefix, from sum_{d<=x} d^j M_j(x // d) = 1.

    The d <= r = isqrt(x) are summed one by one: x // d above the prefix
    is read from the memo (d <= x // (top + 1)), the rest from the prefix.
    The d > r are grouped by v = x // d <= r, each group weighted by the
    power sums over its range of d (Deleglise & Rivat, Exp. Math. 1996).
    """
    top = prefix.shape[1] - 1
    r = math.isqrt(x)
    if r > top:
        raise CapacityError(f"M_j({x}) needs the prefix to reach {r}, it stops at {top}")
    n_memo = min(r, x // (top + 1))
    d = np.arange(n_memo + 1, r + 1, dtype=np.int64)
    at_y = prefix[:, x // d]
    v = np.arange(1, x // (r + 1) + 1, dtype=np.int64)
    at_v = prefix[:, v]
    upper, lower = x // v, np.maximum(x // (v + 1), r)
    d_powers = (np.ones_like(d), d, d * d)
    sums = []
    for j in range(3):
        s = sum(q**j * memo[x // q][j] for q in range(2, n_memo + 1))
        s += _dot(d_powers[j], at_y[j])
        s += _dot(at_v[j], _power_sum(upper, j, x) - _power_sum(lower, j, x))
        sums.append(1 - s)
    return sums[0], sums[1], sums[2]


def weighted_mertens(x: int, tables: NTTables) -> tuple[int, int, int]:
    """(M_0(x), M_1(x), M_2(x)) with M_j(x) = sum_{d<=x} d^j mu(d), exact.

    From the prefix sums when x is within them, otherwise from the
    memoised Dirichlet recursion, which needs sqrt(x) within the prefix.
    """
    if x < 0:
        raise ValueError(f"M_j is defined for x >= 0, got {x}")
    prefix = tables.mertens_prefix
    top = prefix.shape[1] - 1
    if x <= top:
        m0, m1, m2 = prefix[:, x].tolist()
        return m0, m1, m2
    # the hierarchy x // q above the prefix, closed under x -> x // q
    hierarchy = np.unique(x // np.arange(1, x // (top + 1) + 1, dtype=np.int64))
    return tables._mertens_above(hierarchy.tolist())[-1]


def _blocks(ct: int, ck: int, tables: NTTables
            ) -> tuple[np.ndarray, np.ndarray, list[tuple[int, int, int]]]:
    """Ends of blocks of d <= top = min(ct, ck) and, per block, the sums of d^j mu(d).

    The ends are every d <= min(top, isqrt(max(ct, ck))) and the values
    n // q <= top for n = ct, ck and q <= isqrt(n), sorted.  That includes
    every point where ct // d or ck // d changes, so both are constant on
    each block (a repeated end is an empty block), and the ends above
    isqrt(max(ct, ck)) are quotients of ct or ck, closed under
    x -> x // q as the memoised recursion needs.  The sums come in two
    parts: int64 rows j = 0, 1, 2 for the blocks that end within the
    Mertens prefix, and Python-int triples for the blocks after them.
    """
    top = min(ct, ck)
    root_t, root_k = math.isqrt(ct), math.isqrt(ck)
    q = np.arange(1, max(root_t, root_k) + 1, dtype=np.int64)
    ends = q[:top]
    if len(ends) < top:
        ends = np.sort(np.concatenate((ends, ct // q[ct // (top + 1):root_t],
                                       ck // q[ck // (top + 1):root_k])))
    prefix = tables.mertens_prefix
    stored = prefix.shape[1] - 1
    # the last end is top itself (top // 1)
    split = len(ends) if top <= stored else int(np.searchsorted(ends, stored, side="right"))
    low = prefix.take(ends[:split], axis=1)
    low[:, 1:] = low[:, 1:] - low[:, :-1]
    high = []
    if split < len(ends):
        before = prefix[:, ends[split - 1]].tolist()  # ends[0] = 1 is always stored
        for at in tables._mertens_above(ends[split:].tolist()):
            high.append((at[0] - before[0], at[1] - before[1], at[2] - before[2]))
            before = at
    return ends, low, high


# -- residue passes: a block sum mod 2^64 and mod 32-bit primes, then CRT ---
# Every array in a pass is uint64 and holds residues, below the prime in a
# prime pass, so the product of two fits 64 bits.  Scalar factors multiply
# the Python-int sums, and a prime enters numpy as np.uint64: numpy
# computes uint64 with int64 in float64 (before numpy 2, with a negative
# Python int too).

def _residues(a: np.ndarray, modulus: int) -> np.ndarray:
    """int64 ``a`` as uint64 residues: its bits mod 2^64, otherwise a % modulus."""
    return a.view(np.uint64) if modulus == _WRAP else (a % modulus).astype(np.uint64)


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


def _from_residues(bound: int, residue: Callable[..., int], *args: Any) -> int:
    """The integer x with |x| <= bound that residue(modulus, *args) gives mod modulus.

    residue is asked mod 2^64 and then mod each of the first
    _primes_needed(bound) residue primes.  Their product exceeds 2 * bound,
    so the residues fix x, and Garner's mixed-radix form joins them (Garner,
    "The residue number system", IRE Trans. EC-8, 1959).  A bound below
    2^63 needs the 2^64 pass alone.
    """
    count = _primes_needed(bound)
    x, modulus = residue(_WRAP, *args) % _WRAP, _WRAP
    for p in _RESIDUE_PRIMES[:count]:
        x += modulus * ((residue(p, *args) - x) * pow(modulus, -1, p) % p)
        modulus *= p
    if x > _HALF_MODULI[count]:
        x -= modulus
    if not -bound <= x <= bound:  # a residue pass or the caller's bound is wrong
        raise ArithmeticError(f"block sum {x} outside its bound {bound}")
    return x


def u_blocked(t: int, k: int, tables: NTTables) -> int:
    """U(t, k) = sum_s mu(s) floor(t/s) floor(k/s), one term per block.

    Both floors are constant on the O(sqrt(t) + sqrt(k)) blocks of s, so
    each block contributes floor(t/s) floor(k/s) times its sum of mu.  The
    block sum runs in residues (see _from_residues) against the bound
    0 <= U(t, k) <= t k, which holds because U counts pairs in [1, t] x [1, k].
    Needs tables.limit >= kernel_sieve_limit(t, k); equals u_mobius.
    """
    if t < 0 or k < 0:
        raise ValueError("U is defined for non-negative arguments")
    if min(t, k) == 0:
        return 0
    _require_kernel_limit(tables, t, k)
    ends, low, high = _blocks(t, k, tables)
    return _from_residues(t * k, _u_block_sum, t // ends, k // ends, low, high)


def _u_block_sum(modulus: int, qt: np.ndarray, qk: np.ndarray, low: np.ndarray,
                 high: list[tuple[int, int, int]]) -> int:
    """U mod ``modulus``: the sum over blocks of qt qk times the block's sum of mu."""
    floors = _mul_mod(_residues(qt, modulus), _residues(qk, modulus), modulus)
    return _dot_mod(floors, _block_moments(low, high, modulus)[0], modulus)


def v_blocked(t: HalfIntLike, k: HalfIntLike, tables: NTTables) -> QuarterInt:
    """4V(t, k) = sum_d mu(d) 2A(t, d) 2A(k, d), one term per block.

    With c = floor(ceil(t)/d) constant on a block, 2A(t, d) =
    c(2t + 2 - (c + 1) d) is linear in d there, so the block contributes a
    quadratic in d: its sums of d^j mu(d), j = 0, 1, 2, weighted by the
    coefficients of the product of the two sides.  The block sum runs in
    residues (see _from_residues) against the bound
    0 <= 4V(t, k) <= ceil(t) ceil(k) (2t + 2)(2k + 2): 4V sums
    (2t + 2 - 2i)(2k + 2 - 2j) over at most ceil(t) ceil(k) coprime pairs,
    and 2t + 2 - 2i lies in [1, 2t] for 1 <= i <= ceil(t).
    Needs tables.limit >= kernel_sieve_limit(ceil(t), ceil(k)); equals
    v_fast.
    """
    T, K, ct, ck = _v_prepare(t, k)
    if min(ct, ck) <= 0:
        return QuarterInt(0)
    _require_kernel_limit(tables, ct, ck)
    ends, low, high = _blocks(ct, ck, tables)
    bound = ct * ck * (T + 2) * (K + 2)
    return QuarterInt(_from_residues(bound, _v_block_sum, T, K, ct // ends, ck // ends, low, high))


def _v_block_sum(modulus: int, T: int, K: int, qt: np.ndarray, qk: np.ndarray,
                 low: np.ndarray, high: list[tuple[int, int, int]]) -> int:
    """4V mod ``modulus``: the sum of qt qk (T + 2 - pt d)(K + 2 - pk d) mu(d).

    That is 2A(t, d) 2A(k, d) mu(d) on a block, with p = q + 1; expanded
    in d, it weights the block's sums of d^j mu(d), j = 0, 1, 2.
    """
    m = _block_moments(low, high, modulus)
    pt = _residues(qt + 1, modulus)
    floors = _mul_mod(_residues(qt, modulus), _residues(qk, modulus), modulus)
    with_pk = _mul_mod(floors, _residues(qk + 1, modulus), modulus)
    return ((T + 2) * ((K + 2) * _dot_mod(floors, m[0], modulus)
                       - _dot_mod(with_pk, m[1], modulus))
            - (K + 2) * _dot_mod(_mul_mod(floors, pt, modulus), m[1], modulus)
            + _dot_mod(_mul_mod(with_pk, pt, modulus), m[2], modulus))
