"""Exact number-theoretic tables and coprime-pair sums.

Provides the arithmetic backbone for the counting formulas:

    mu(s)       Moebius function, sieved eagerly
    phi(s)      Euler totient, sieved on first use
    Phi(k)   =  sum_{i<=k} phi(i)                 (integer)
    Psi(k)   =  sum_{i<=k} phi(i)/i               (exact rational)
    U(p, q)  =  #{(a, b) : 1<=a<=p, 1<=b<=q, gcd(a, b) = 1}
    V(t, k)  =  sum over coprime (i, j), i<=ceil(t), j<=ceil(k),
                of (t + 1 - i)(k + 1 - j)
    U(j, j), 4V(j, j) for j = 0..n    (the square sequence, one pass over phi)

V is defined for half-integer arguments.  Half-integers are carried as
doubled integers (HalfInt) and V is returned as a quadrupled integer
(QuarterInt): the counting formulas only ever consume 2V, 4V and 8V, so
every public count stays an exact integer and no rational type leaks out.

Each quantity has a naive evaluation straight from its definition and a
Moebius-accelerated one.  The naive forms are the oracles; the fast forms
are what production counting uses:

    U(t, k) = sum_s mu(s) * floor(t/s) * floor(k/s)
    V(t, k) = sum_d mu(d) * A(t, d) * A(k, d),
              A(t, d) = sum_{i=1}^{floor(ceil(t)/d)} (t + 1 - d*i)

All fast-path arithmetic is exact: products of doubled A-values are
evaluated in int64 limbs (split + chunked accumulation into Python ints)
with the overflow envelope checked, never assumed.

The square sequence serves whole OEIS b-files.  With C_j, S_j and Q_j the
count, sum of i and sum of i*j over coprime pairs (i, j) in [1, j]^2,

    U(j, j) = C_j,   4V(j, j) = 4[(j+1)^2 C_j - 2(j+1) S_j + Q_j],

and each of C, S, Q grows from j-1 to j by a multiple of phi(j), so the
whole sequence costs one pass over phi instead of one Moebius sum per term.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Union

import numpy as np

from .errors import CapacityError

HalfIntLike = Union[int, Fraction, "HalfInt"]

# v_fast splits doubled A-values into limbs of ceil(bits/2); partial sums of
# limb products must stay below 2^62.  bits <= 56 keeps every chunk >= 32
# elements, which covers arguments up to ~2.6e8.
_MAX_DOUBLED_A_BITS = 56


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
    """Sieved arithmetic tables up to ``limit``.

    mu is built eagerly by :func:`sieve`; it is the only table the counting
    formulas read.  phi, Phi (the cumulative totient) and ``psi_float``
    (Psi in float64) are built together on first access to any of them;
    exact Psi is exposed through :meth:`psi` as a Fraction, its prefix
    extended on demand (an eager array of exact Psi values is impossible at
    large limits: the reduced denominator of Psi(k) grows like lcm(1..k)).
    Arrays are indexed 1..limit (index 0 is a zero sentinel) and read-only.
    Every lazy build and every extension of the Psi prefix happens under
    one per-instance lock, so a single instance is safe to share across
    threads.
    """

    limit: int
    mu: np.ndarray
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _totients: dict[str, np.ndarray] = field(default_factory=dict, repr=False)
    _psi_cache: list[Fraction] = field(default_factory=lambda: [Fraction(0)], repr=False)

    def _totient_table(self, name: str) -> np.ndarray:
        with self._lock:
            if not self._totients:
                self._totients.update(_totient_tables(self.limit))
            return self._totients[name]

    @property
    def phi(self) -> np.ndarray:
        """Euler totient, built on first access."""
        return self._totient_table("phi")

    @property
    def Phi(self) -> np.ndarray:
        """Cumulative totient sum_{i<=k} phi(i), built on first access."""
        return self._totient_table("Phi")

    @property
    def psi_float(self) -> np.ndarray:
        """Psi(k) = sum_{i<=k} phi(i)/i in float64, built on first access."""
        return self._totient_table("psi_float")

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


def _small_primes(root: int) -> Iterator[int]:
    """The primes <= root, by an Eratosthenes pass over a boolean array."""
    composite = np.zeros(root + 1, dtype=bool)
    for p in range(2, root + 1):
        if not composite[p]:
            composite[p * p :: p] = True
            yield p


def sieve(limit: int) -> NTTables:
    """Build mu up to ``limit``; phi, Phi and the Psi views follow lazily.

    Each prime p <= sqrt(limit) flips the sign of mu at its multiples,
    zeroes it at the multiples of p^2, and multiplies p into ``rad``, the
    product of the distinct small primes of each index.  A squarefree index
    larger than its rad has exactly one prime factor > sqrt(limit), which
    flips its sign once more in a single vector pass.  Runs in ~25 ms at
    limit = 10^6.
    """
    if limit < 1:
        raise ValueError(f"sieve limit must be >= 1, got {limit}")
    n = limit
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
    mu.flags.writeable = False
    return NTTables(limit=n, mu=mu)


def _totient_tables(n: int) -> dict[str, np.ndarray]:
    """phi, Phi and psi_float up to n, read-only.

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
    Phi = np.cumsum(phi)
    ratios = phi.astype(np.float64)
    ratios[1:] /= np.arange(1, n + 1, dtype=np.float64)
    psi_float = np.cumsum(ratios)
    for arr in (phi, Phi, psi_float):
        arr.flags.writeable = False
    return {"phi": phi, "Phi": Phi, "psi_float": psi_float}


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
    th, kh = HalfInt.coerce(t), HalfInt.coerce(k)
    if th.doubled < -2 or kh.doubled < -2:
        raise ValueError(f"V arguments must be >= -1, got ({th.value}, {kh.value})")
    return th.doubled, kh.doubled, th.ceil, kh.ceil


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
