"""Tests for the cavity reflection and transmission coefficients."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import ConstantMedium
from lfvdw import _kernels
from lfvdw.cavity import (
    CavitySpec,
    coeff_C_exact,
    coeff_C_expansion,
    coeff_D_exact,
    coeff_D_leading,
)
from lfvdw.errors import DomainError, GeometryError, InvariantError, PoleError, UnsupportedOrderError
from lfvdw.response import VACUUM, LorentzTerm, MediumResponse

# ----------------------------------------------------------------------
# scaled kernel building blocks against mpmath references
# (tests/oracles/gen_values.py; 50 significant digits)
# ----------------------------------------------------------------------

# t -> (P1, P2, Q1, Q2, S1, S2, T1, T2)
FROZEN_KERNELS = {
    1e-8: (
        3.3333333000000002e-9, 6.666666600000000381e-18,
        6.6666666000000004667e-9, 1.9999999800000001238e-17,
        -10000000100000000.0, -3.0000000300000001e+24,
        10000000100000001.0, 6.0000000600000003e+24,
    ),
    0.01: (
        0.0033001991142762151112, 6.6003793703555913934e-6,
        0.0066004642323461337784, 0.000019801232402050968325,
        -10100.0, -3030100.0, 10101.0, 6060301.0,
    ),
    0.5: (
        0.10363832351432696479, 0.010290617742595889685,
        0.21242195589995187442, 0.031237926271971703023,
        -6.0, -38.0, 7.0, 79.0,
    ),
    1.4999: (
        0.13877129938775380067, 0.03919433858794983892,
        0.33633018722357356473, 0.12975439477579224778,
        -1.1112148237044280406, -2.8892889333377452642,
        2.1112148237044280406, 7.4452889807497621466,
    ),
    1.5001: (
        0.13876988730623930936, 0.039198574832577423425,
        0.33634155671882801159, 0.12977155828293474111,
        -1.1110074162955720735, -2.8884889333289222189,
        2.1110074162955720735, 7.4436000918428321053,
    ),
    10.0: (
        0.045000000113363449234, 0.036499999862933284108,
        0.45499999885605973955, 0.37700000140776792413,
        -0.11, -0.133, 1.11, 1.366,
    ),
    700.0: (
        0.00071326530612244897959, 0.00071122886297376093294,
        0.49928673469387755102, 0.49786325655976676385,
        -0.0014306122448979591837, -0.0014347026239067055394,
        1.0014306122448979592, 1.0042979766763848397,
    ),
}


def _q2(t):
    # Q_2 as _kernels.cavity_c writes it inline
    return t * _kernels.p1(t) - 2.0 * _kernels.p2(t)


@pytest.mark.parametrize("t", sorted(FROZEN_KERNELS))
def test_scaled_kernels_match_reference(t):
    ref = FROZEN_KERNELS[t]
    tt = np.array([t])
    got = (
        _kernels.p1(tt)[0], _kernels.p2(tt)[0],
        _kernels.q1(tt)[0], _q2(tt)[0],
        _kernels.s1(tt)[0], _kernels.s2(tt)[0],
        _kernels.t1(tt)[0], _kernels.t2(tt)[0],
    )
    for g, r in zip(got, ref):
        assert g == pytest.approx(r, rel=2e-15, abs=0.0)


def test_kernels_overflow_free_far_out():
    # the scaling removes every growing exponential; nothing may overflow
    t = np.array([1e4, 1e6])
    for f in (_kernels.p0, _kernels.p1, _kernels.p2, _kernels.q1, _q2,
              _kernels.s1, _kernels.s2, _kernels.t1, _kernels.t2):
        assert np.all(np.isfinite(f(t)))


def test_exponential_kernels_give_libm_bits():
    # numpy's SIMD exp/expm1 differ from libm in the last bit on AVX-512
    # hosts; the kernels must give the scalar libm result node by node
    x = np.geomspace(1e-6, 700.0, 10007)
    scalar = {
        _kernels.kernel_g: lambda v: 2.0 * math.exp(-2.0 * v) * (
            3.0 + v * (6.0 + v * (5.0 + v * (2.0 + v)))
        ),
        _kernels.kernel_h: lambda v: 2.0 * math.exp(-2.0 * v) * (1.0 + v * (2.0 + v)),
        _kernels.kernel_force: lambda v: 4.0 * math.exp(-2.0 * v) * (
            9.0 + v * (18.0 + v * (16.0 + v * (8.0 + v * (3.0 + v))))
        ),
        _kernels.p0: lambda v: -math.expm1(-2.0 * v) / (2.0 * v),
    }
    for kernel, ref in scalar.items():
        got = kernel(x).tolist()
        mismatches = [v for v, g in zip(x.tolist(), got) if g != ref(v)]
        assert not mismatches, (kernel.__name__, len(mismatches), mismatches[:3])


# ----------------------------------------------------------------------
# coefficients against the complex Mie oracle at constant eps, mu
# (tag -> eps, mu, u R_c, C1, C2, C1_magnetic, D)
# ----------------------------------------------------------------------

FROZEN_COEFFS = {
    "weak": (2.0, 1.0, 0.01,
             599936.22254940500912, -112495982439.20740512,
             -98.188145507310958415, 1.2000499522859831566),
    "magnetodielectric": (5.0, 1.5, 0.05,
                          8689.5457196558284731, -67675165.023319194406,
                          2905.6899731656397638, 1.3726982757386566935),
    "strong": (80.0, 1.0, 0.001,
               1472047947.1688805397, -29380153669220408.021,
               -78289.679126883760587, 1.4907414737438832325),
    "large_cavity": (2.0, 3.0, 0.7,
                     0.55294035130050340246, -42.616885485829231225,
                     1.4965394475788907487, 1.8631984866053973416),
}


@pytest.mark.parametrize("tag", sorted(FROZEN_COEFFS))
def test_coefficients_match_complex_mie_oracle(tag):
    eps, mu, t0, c1, c2, c1m, d = FROZEN_COEFFS[tag]
    radius = 0.01
    u = t0 / radius
    spec = CavitySpec(radius=radius, host=ConstantMedium(eps, mu))
    assert coeff_C_exact(spec, 1, u) == pytest.approx(c1, rel=1e-12, abs=0.0)
    assert coeff_C_exact(spec, 2, u) == pytest.approx(c2, rel=1e-12, abs=0.0)
    # the magnetic coefficient of a barely magnetic medium survives a
    # few extra digits of cancellation, hence the looser tolerance
    assert coeff_C_exact(spec, 1, u, kind="magnetic") == pytest.approx(c1m, rel=1e-11, abs=0.0)
    assert coeff_D_exact(spec, u) == pytest.approx(d, rel=1e-12, abs=0.0)


def test_vacuum_coefficients_are_trivial():
    spec = CavitySpec(radius=0.05, host=VACUUM)
    u = np.array([0.2, 1.0, 6.0])
    assert np.all(coeff_C_exact(spec, 1, u) == 0.0)
    assert np.all(coeff_C_exact(spec, 2, u) == 0.0)
    assert np.all(coeff_C_exact(spec, 1, u, kind="magnetic") == 0.0)
    # transmission through no wall: exactly 1 in floating point, not just close
    assert np.all(coeff_D_exact(spec, u) == 1.0)
    assert np.all(coeff_D_leading(VACUUM, u) == 1.0)


def test_magnetic_kind_is_electric_with_swapped_roles():
    u = 2.0
    spec = CavitySpec(radius=0.03, host=ConstantMedium(2.0, 3.0))
    swapped = CavitySpec(radius=0.03, host=ConstantMedium(3.0, 2.0))
    # same refractive index, exchanged eps and mu: bitwise identical
    assert coeff_C_exact(spec, 1, u, kind="magnetic") == coeff_C_exact(swapped, 1, u)
    assert coeff_C_exact(spec, 2, u, kind="magnetic") == coeff_C_exact(swapped, 2, u)


def test_expansion_error_shrinks_linearly_with_radius():
    # the next term beyond the expansion is linear in u R_c, so the
    # deviation relative to the radius-independent constant term must
    # fall with slope about 1 on a log-log grid.
    eps, mu = 2.25, 1.1
    n = np.sqrt(eps * mu)
    const_term = 9.0 * eps * n**3 / (2.0 * eps + 1.0) ** 2 - 1.0
    u = 1.0
    devs = []
    radii = (1e-1, 1e-2, 1e-3)
    for rc in radii:
        spec = CavitySpec(radius=rc, host=ConstantMedium(eps, mu))
        dev = abs(coeff_C_exact(spec, 1, u) - coeff_C_expansion(spec, u))
        devs.append(dev / abs(const_term))
    slopes = np.diff(np.log(devs)) / np.diff(np.log(radii))
    assert np.all(slopes >= 0.9)
    assert devs[-1] < 1e-2


def test_transmission_approaches_leading_form():
    eps, mu = 2.25, 1.1
    lead = 3.0 * eps / (2.0 * eps + 1.0)
    for rc in (1e-1, 1e-2, 1e-3):
        spec = CavitySpec(radius=rc, host=ConstantMedium(eps, mu))
        d = coeff_D_exact(spec, 1.0)
        assert abs(d - lead) < 5.0 * rc


def test_leading_transmission_value():
    m = ConstantMedium(80.0)
    lead = coeff_D_leading(m, 0.0)
    assert lead == pytest.approx(240.0 / 161.0, rel=1e-15, abs=0.0)
    assert lead**2 == pytest.approx(2.2221, abs=1.5e-4)


def test_transmission_exceeds_unity_in_dielectrics():
    m = MediumResponse(eps_terms=(LorentzTerm(plasma_strength=2.0, resonance=1.0),))
    spec = CavitySpec(radius=0.01, host=m)
    u = np.geomspace(0.01, 20.0, 30)
    d = coeff_D_exact(spec, u)
    assert np.all(d >= 1.0)
    assert np.all(d <= 1.5)  # 3 eps/(2 eps + 1) < 3/2 always


def test_pole_at_zero_frequency():
    spec = CavitySpec(radius=0.05, host=ConstantMedium(2.0))
    with pytest.raises(PoleError):
        coeff_C_exact(spec, 1, 0.0)
    with pytest.raises(PoleError):
        coeff_D_exact(spec, np.array([1.0, 0.0]))
    # the leading transmission factor is finite at u = 0
    assert coeff_D_leading(ConstantMedium(2.0), 0.0) == pytest.approx(1.2, abs=0.0)


def test_unsupported_order():
    spec = CavitySpec(radius=0.05, host=ConstantMedium(2.0))
    for l in (0, 3, -1):
        with pytest.raises(UnsupportedOrderError):
            coeff_C_exact(spec, l, 1.0)


def test_domain_and_kind_validation():
    spec = CavitySpec(radius=0.05, host=ConstantMedium(2.0))
    with pytest.raises(DomainError):
        coeff_C_exact(spec, 1, -1.0)
    with pytest.raises(DomainError):
        coeff_D_exact(spec, np.inf)
    with pytest.raises(ValueError):
        coeff_C_exact(spec, 1, 1.0, kind="chiral")
    with pytest.raises(ValueError):
        CavitySpec(radius=0.0, host=VACUUM)
    with pytest.raises(ValueError):
        CavitySpec(radius=-0.1, host=VACUUM)
    for radius in (-0.1, math.nan, math.inf):
        with pytest.raises(GeometryError):
            CavitySpec(radius=radius, host=VACUUM)


def test_transmission_positivity_guard(monkeypatch):
    spec = CavitySpec(radius=0.05, host=ConstantMedium(2.0))
    monkeypatch.setattr(
        _kernels, "cavity_d", lambda t0, n, e, m: np.full_like(t0, -1.0)
    )
    with pytest.raises(InvariantError):
        coeff_D_exact(spec, 1.0)


def test_large_cavity_warning():
    m = MediumResponse(eps_terms=(LorentzTerm(plasma_strength=1.0, resonance=4.0),))
    with pytest.warns(UserWarning):
        CavitySpec(radius=0.2, host=m)


def test_scalar_in_scalar_out():
    spec = CavitySpec(radius=0.05, host=ConstantMedium(2.0))
    assert isinstance(coeff_C_exact(spec, 1, 1.0), float)
    out = coeff_D_exact(spec, np.array([0.5, 1.0]))
    assert isinstance(out, np.ndarray) and out.shape == (2,)
