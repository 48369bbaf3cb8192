"""Empirical verification of the asymptotic laws against exact counts.

The exact machinery makes every residual measurable:

    U(t, k) = (6/pi^2) t k + O(t ln k)                    (square regime)
    V(t, k) = (3/(2 pi^2)) t^2 k^2 + O(t^2 k ln k)
    U(t, k) = Psi(k) t + O(k^2)                therein    (anisotropic, t >> k)
    V(t, k) = ((k+1) Psi(k) - Phi(k))/2 t^2 + O(t k^3)
    N(m, n) = (6/pi^2) m^2 n^2 + O(m^2 n ln n)
    N(m, n) = 2((n+1) Psi(n) - Phi(n)) m^2 + O(m n^3)

Each sweep row reports the exact value, the leading estimate, and the
residual normalized by the stated error scale.  The error terms carry no
constants in theory; the constants pinned in pins.py were measured once
and act as non-regression bounds.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .counting import _total
from .numtheory import NTTables, uv_blocked

DEFAULT_SQUARE_KS = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
DEFAULT_ANISO_NS = tuple(range(1, 9))
DEFAULT_ANISO_MS = (1_000, 3_163, 10_000, 31_623, 100_000)


@dataclass(frozen=True)
class AsymptoticReport:
    """One asymptotic law evaluated at one argument."""

    family: str
    args: tuple[int, ...]
    exact: int
    estimate: float
    residual: float
    scale: float
    normalized_residual: float


def _report(family: str, args: tuple[int, ...], exact: int,
            estimate: float, scale: float) -> AsymptoticReport:
    residual = float(exact) - estimate
    return AsymptoticReport(
        family=family,
        args=args,
        exact=exact,
        estimate=estimate,
        residual=residual,
        scale=scale,
        normalized_residual=abs(residual) / scale,
    )


def leading_estimate(m: int, n: int) -> float:
    """(6/pi^2) m^2 n^2, the same-magnitude estimate of N(m, n)."""
    return (6.0 / math.pi**2) * float(m) * m * n * n


def anisotropic_coefficient(n: int, tables: NTTables) -> Fraction:
    """Exact 2((n+1) Psi(n) - Phi(n)), the m^2 coefficient for m >> n."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if tables.limit < n:
        raise ValueError(f"sieve limit {tables.limit} < n = {n}")
    return 2 * ((n + 1) * tables.psi(n) - Fraction(int(tables.Phi[n])))


def anisotropic_estimate(m: int, n: int, tables: NTTables) -> float:
    """2((n+1) Psi(n) - Phi(n)) m^2 with the coefficient taken exactly."""
    return float(anisotropic_coefficient(n, tables) * m * m)


def residual_sweep(
    tables: NTTables,
    square_ks: Iterable[int] = DEFAULT_SQUARE_KS,
    aniso_ns: Iterable[int] = DEFAULT_ANISO_NS,
    aniso_ms: Iterable[int] = DEFAULT_ANISO_MS,
) -> list[AsymptoticReport]:
    """Evaluate every asymptotic law over its sample grid.

    Square cases cover both U/V laws and the leading N estimate; the
    anisotropic cases (m >> n) cover the Psi/Phi-coefficient laws and the
    anisotropic N estimate.  Each argument pair costs one call of the
    blocked kernel, which gives U and 4V; N is assembled from that 4V.
    """
    rows: list[AsymptoticReport] = []
    six_over_pi2 = 6.0 / math.pi**2
    for k in square_ks:
        u, four_v = uv_blocked(k, k, tables)
        rows.append(_report("umk", (k, k), u, six_over_pi2 * k * k,
                            k * math.log(k)))
        rows.append(_report("vmk", (k, k), four_v.as_int(),
                            (3.0 / (2.0 * math.pi**2)) * float(k)**4,
                            float(k)**3 * math.log(k)))
        rows.append(_report("total_leading", (k, k), _total(k, k, four_v.quadrupled),
                            leading_estimate(k, k), float(k)**3 * math.log(k)))
    for n in aniso_ns:
        psi_n = float(tables.psi(n))
        for m in aniso_ms:
            u, four_v = uv_blocked(m, n, tables)
            rows.append(_report("umkC", (m, n), u, psi_n * m, float(n * n)))
            coeff = anisotropic_coefficient(n, tables) / 4  # V carries N/4
            rows.append(_report("vmkC", (m, n), four_v.as_int(),
                                float(coeff * m * m), float(m) * n**3))
            rows.append(_report("total_anisotropic", (m, n), _total(m, n, four_v.quadrupled),
                                anisotropic_estimate(m, n, tables),
                                float(m) * n**3))
    return rows


def reports_to_csv(reports: list[AsymptoticReport]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["theorem_id", "args", "exact", "estimate",
                     "residual", "normalized_residual"])
    for r in reports:
        writer.writerow([r.family, " ".join(map(str, r.args)), str(r.exact),
                         repr(r.estimate), repr(r.residual),
                         repr(r.normalized_residual)])
    return out.getvalue()


def max_normalized_residual(reports: list[AsymptoticReport],
                            family: Optional[str] = None) -> float:
    picked = [r for r in reports if family is None or r.family == family]
    if not picked:
        raise ValueError(f"no reports for family {family!r}")
    return max(r.normalized_residual for r in picked)
