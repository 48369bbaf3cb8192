"""Unit tests for the asymptotic estimates and residual sweeps."""

import math
from fractions import Fraction

import pytest

from gridthresh import (
    GridSpec,
    anisotropic_coefficient,
    anisotropic_estimate,
    count_total,
    leading_estimate,
    reports_to_csv,
    residual_sweep,
    sieve,
)
from gridthresh.asymptotics import max_normalized_residual
from gridthresh.pins import (
    NORM_RESIDUAL_PINS,
    PHI_DIRICHLET_PIN,
    PSI_DIRICHLET_PIN,
    U_SQUARE_SANITY_PIN,
)


def test_leading_estimate_values():
    assert leading_estimate(1, 1) == pytest.approx(6 / math.pi**2)
    k = 37
    assert leading_estimate(k, k) == pytest.approx((6 / math.pi**2) * k**4)


def test_anisotropic_coefficient_exact_values(tables512):
    assert anisotropic_coefficient(4, tables512) == Fraction(44, 3)
    assert anisotropic_coefficient(1, tables512) == 2


def test_anisotropic_estimate_n1_residual_is_linear(tables512):
    # N(m, 1) = 2m^2 + 8m + 4 exactly, so the n=1 residual is 8m + 4
    for m in (10, 100, 500):
        exact = count_total(GridSpec(m, 1), tables512)
        assert exact == 2 * m * m + 8 * m + 4
        est = anisotropic_estimate(m, 1, tables512)
        assert exact - est == pytest.approx(8 * m + 4)


def test_anisotropic_requires_sieve(tables512):
    with pytest.raises(ValueError):
        anisotropic_coefficient(1000, tables512)
    with pytest.raises(ValueError):
        anisotropic_coefficient(0, tables512)


def test_sweep_families_and_pins(tables4096):
    rows = residual_sweep(
        tables4096,
        square_ks=(16, 64, 256, 512),
        aniso_ns=(1, 2, 4),
        aniso_ms=(1000, 4000),
    )
    families = {r.family for r in rows}
    assert families == {"umk", "vmk", "total_leading", "umkC", "vmkC", "total_anisotropic"}
    for family in families:
        assert max_normalized_residual(rows, family) <= NORM_RESIDUAL_PINS[family], family


def test_sweep_converges_toward_the_estimates(tables4096):
    rows = residual_sweep(tables4096, square_ks=(16, 512), aniso_ns=(), aniso_ms=())
    for family in ("umk", "vmk", "total_leading"):
        picked = [r for r in rows if r.family == family]
        dev = [abs(r.exact / r.estimate - 1) for r in picked]
        assert dev[-1] < dev[0], family


def test_estimates_agree_in_regime_overlap(tables4096):
    # at m = n the anisotropic and leading estimates approach each other
    deviations = []
    for k in (16, 512):
        ratio = anisotropic_estimate(k, k, tables4096) / leading_estimate(k, k)
        deviations.append(abs(ratio - 1))
    assert deviations[-1] < deviations[0]
    assert deviations[-1] < 0.01


def test_u_square_sanity_pin(tables512):
    from gridthresh import u_mobius

    for k in range(16, 513):
        u = u_mobius(k, k, tables512)
        dev = abs(u * math.pi**2 / 6 - k * k) / (k * math.log(k))
        assert dev <= U_SQUARE_SANITY_PIN, k


def test_dirichlet_pins(tables512):
    for k in range(16, 513):
        phi_dev = abs(int(tables512.Phi[k]) - 3 * k * k / math.pi**2) / (k * math.log(k))
        assert phi_dev <= PHI_DIRICHLET_PIN, k
        psi_dev = abs(float(tables512.psi(k)) - 6 * k / math.pi**2) / math.log(k)
        assert psi_dev <= PSI_DIRICHLET_PIN, k


def test_reports_to_csv_header(tables512):
    rows = residual_sweep(tables512, square_ks=(16,), aniso_ns=(), aniso_ms=())
    text = reports_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "theorem_id,args,exact,estimate,residual,normalized_residual"
    assert len(lines) == 4   # umk, vmk, total_leading at one k


def test_report_fields_are_consistent(tables512):
    rows = residual_sweep(tables512, square_ks=(64,), aniso_ns=(), aniso_ms=())
    for r in rows:
        assert r.residual == pytest.approx(float(r.exact) - r.estimate)
        assert r.normalized_residual == pytest.approx(abs(r.residual) / r.scale)


def test_anisotropic_residuals_are_exact_past_float_precision():
    # m = 10^16 and 10^18 leave 1 mod 3 and 4 mod 6, so U(m, 3) - Psi(3) m
    # is exactly 1/3 and the 4V and N residuals have closed forms; rounding
    # the exact count to a float first read 28.4, 10.9 and 43.7 at 10^18
    tables = sieve(3)
    for m in (10**16, 10**18):
        rows = residual_sweep(tables, square_ks=(), aniso_ns=(3,), aniso_ms=(m,))
        expected = {"umkC": Fraction(1, 27), "vmkC": Fraction(19, 162),
                    "total_anisotropic": Fraction(80, 81) * (1 + Fraction(3, m))}
        assert {r.family: r.normalized_residual for r in rows} == {
            family: pytest.approx(float(value), rel=1e-12) for family, value in expected.items()}
