"""Tests for the bulk Green tensor and the linear-Born scattering trace."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfvdw import _kernels
from lfvdw.errors import DomainError, GeometryError, PoleError, SingularityError
from lfvdw.green import (
    BodyShell,
    born_scatter_trace,
    bulk_dyad,
    pair_kernel_g,
    pair_kernel_h,
)
from lfvdw.quadrature import QuadSpec, integrate_semi_infinite
from lfvdw.response import VACUUM, LorentzTerm, MediumResponse

MEDIUM = MediumResponse(
    eps_terms=(LorentzTerm(plasma_strength=2.0, resonance=1.5, damping=0.05),),
    mu_terms=(LorentzTerm(plasma_strength=0.3, resonance=2.5),),
)

# mpmath radial integrals (tests/oracles/gen_values.py):
# u = 0.8, R_o = 2, chi = 5e-3, zeta = 2e-3
FROZEN_BORN_TRACE = 4.4125179258966931954e-5


def test_vacuum_dyad_matches_explicit_form():
    u, l = 1.3, 2.1
    g = bulk_dyad(VACUUM, np.array([l, 0.0, 0.0]), np.zeros(3), u)
    y = u * l
    a = (1.0 + (1.0 + 1.0 / y) / y) / y
    b = (1.0 + (3.0 + 3.0 / y) / y) / y
    expected = (u / (4.0 * math.pi)) * math.exp(-y) * (
        a * np.eye(3) - b * np.diag([1.0, 0.0, 0.0])
    )
    assert np.allclose(np.real(g.matrix), expected, rtol=1e-14, atol=0.0)


def test_dyad_is_real_on_the_imaginary_axis():
    rng = np.random.default_rng(7)
    for _ in range(10):
        r = rng.uniform(-3, 3, 3)
        rp = rng.uniform(-3, 3, 3)
        g = bulk_dyad(MEDIUM, r, rp, rng.uniform(0.05, 5.0))
        assert np.all(np.imag(g.matrix) == 0.0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    u=st.floats(min_value=0.02, max_value=8.0),
)
def test_reciprocity(seed, u):
    # G(r, r') = G(r', r)^T for any homogeneous medium
    rng = np.random.default_rng(seed)
    r = rng.uniform(-2, 2, 3)
    rp = r + rng.uniform(0.05, 3.0) * _random_direction(rng)
    fwd = bulk_dyad(MEDIUM, r, rp, u).matrix
    bwd = bulk_dyad(MEDIUM, rp, r, u).matrix
    scale = np.max(np.abs(fwd))
    assert np.max(np.abs(fwd - bwd.T)) <= 1e-13 * scale


def _random_direction(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def test_trace_property():
    g = bulk_dyad(VACUUM, np.array([1.0, 0.0, 0.0]), np.zeros(3), 0.7)
    assert g.trace == pytest.approx(np.trace(g.matrix))
    assert np.allclose(g.separation, [1.0, 0.0, 0.0])
    assert g.frequency == 0.7


def test_two_point_trace_identity():
    # u^4 Tr[G(r,r') G(r',r)] = g(n u l) / (16 pi^2 eps^2 l^6)
    rng = np.random.default_rng(11)
    for _ in range(20):
        u = rng.uniform(0.05, 4.0)
        l = rng.uniform(0.2, 6.0)
        d = _random_direction(rng)
        g1 = bulk_dyad(MEDIUM, l * d, np.zeros(3), u).matrix
        g2 = bulk_dyad(MEDIUM, np.zeros(3), l * d, u).matrix
        lhs = u**4 * np.real(np.trace(g1 @ g2))
        eps = MEDIUM.eps_iu(u)
        n = MEDIUM.n_iu(u)
        rhs = pair_kernel_g(n * u * l) / (16.0 * math.pi**2 * eps**2 * l**6)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_transverse_and_longitudinal_eigenvalues():
    # eigenvector along the separation picks a - b, the two transverse
    # directions pick a
    u, l = 0.9, 1.4
    g = bulk_dyad(MEDIUM, np.array([0.0, 0.0, l]), np.zeros(3), u).matrix
    vals = np.linalg.eigvalsh(np.real(g))
    long = np.real(g[2, 2])
    trans = np.real(g[0, 0])
    assert np.count_nonzero(np.isclose(vals, trans, rtol=1e-12)) == 2
    assert np.any(np.isclose(vals, long, rtol=1e-12))


def test_pair_kernels_closed_values():
    assert pair_kernel_g(0.0) == 6.0
    assert pair_kernel_h(0.0) == 2.0
    assert pair_kernel_g(1.0) == pytest.approx(34.0 * math.exp(-2.0), rel=1e-15)
    assert pair_kernel_h(1.0) == pytest.approx(8.0 * math.exp(-2.0), rel=1e-15)
    x = np.array([0.0, 1.0, 3.0])
    assert pair_kernel_g(x).shape == (3,)
    with pytest.raises(DomainError):
        pair_kernel_g(-0.1)
    with pytest.raises(DomainError):
        pair_kernel_h(np.array([1.0, -2.0]))


def test_dyad_argument_validation():
    with pytest.raises(PoleError):
        bulk_dyad(VACUUM, np.ones(3), np.zeros(3), 0.0)
    with pytest.raises(DomainError):
        bulk_dyad(VACUUM, np.ones(3), np.zeros(3), -1.0)
    with pytest.raises(SingularityError):
        bulk_dyad(VACUUM, np.ones(3), np.ones(3), 1.0)
    with pytest.raises(ValueError):
        bulk_dyad(VACUUM, np.ones(4), np.zeros(3), 1.0)


def test_infinite_body_trace_is_exactly_zero():
    shell = BodyShell(
        inner_radius=0.05,
        outer_radius=math.inf,
        chi=lambda u: 0.002 * np.ones_like(u),
    )
    assert born_scatter_trace(shell, 1.0) == 0.0
    out = born_scatter_trace(shell, np.array([0.5, 2.0]))
    assert np.all(out == 0.0)


def test_empty_couplings_give_zero():
    shell = BodyShell(inner_radius=0.05, outer_radius=10.0)
    assert born_scatter_trace(shell, 1.0) == 0.0


def test_born_trace_matches_radial_reference():
    shell = BodyShell(
        inner_radius=0.05,
        outer_radius=2.0,
        chi=lambda u: 0.005 * np.ones_like(u),
        zeta=lambda u: 0.002 * np.ones_like(u),
    )
    val = born_scatter_trace(shell, 0.8, QuadSpec())
    assert val == pytest.approx(FROZEN_BORN_TRACE, rel=1e-13, abs=0.0)


def _radial_born_trace(r_o, u, chi, zeta):
    # the radial integrals done numerically over s = R_o + v, as the
    # closed form's reference
    q = QuadSpec(rel_tol=1e-12)
    scale = r_o + 0.5 / u
    el = integrate_semi_infinite(
        lambda v: _kernels.kernel_g(u * (r_o + v)) / (r_o + v) ** 4, q, scale=scale
    ).value
    mag = integrate_semi_infinite(
        lambda v: _kernels.kernel_h(u * (r_o + v)) / (r_o + v) ** 2, q, scale=scale
    ).value
    return chi * el / (4.0 * math.pi * u * u) - zeta * mag / (4.0 * math.pi)


@pytest.mark.parametrize("chi, zeta", [(4e-3, 0.0), (0.0, 3e-3), (5e-3, -2e-3)],
                         ids=["chi_only", "zeta_only", "mixed"])
def test_born_trace_closed_form_matches_radial_quadrature(chi, zeta):
    for r_o in (0.3, 1.5, 2.0):
        shell = BodyShell(
            inner_radius=0.05,
            outer_radius=r_o,
            chi=lambda u: chi * np.ones_like(u),
            zeta=lambda u: zeta * np.ones_like(u),
        )
        u = np.geomspace(1e-3, 50.0, 9)
        got = born_scatter_trace(shell, u, QuadSpec())
        want = np.array([_radial_born_trace(r_o, ui, chi, zeta) for ui in u])
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


def test_born_trace_sign_structure():
    # missing electric material raises the energy (positive trace),
    # missing magnetic material lowers it
    el = BodyShell(inner_radius=0.05, outer_radius=3.0,
                   chi=lambda u: 1e-3 * np.ones_like(u))
    mag = BodyShell(inner_radius=0.05, outer_radius=3.0,
                    zeta=lambda u: 1e-3 * np.ones_like(u))
    assert born_scatter_trace(el, 0.7) > 0.0
    assert born_scatter_trace(mag, 0.7) < 0.0


def test_born_trace_input_validation():
    shell = BodyShell(inner_radius=0.05, outer_radius=2.0)
    with pytest.raises(DomainError):
        born_scatter_trace(shell, 0.0)
    with pytest.raises(DomainError):
        born_scatter_trace(shell, np.array([1.0, -1.0]))


def test_strong_coupling_warns():
    shell = BodyShell(
        inner_radius=0.05,
        outer_radius=2.0,
        chi=lambda u: 0.5 * np.ones_like(u),
    )
    with pytest.warns(UserWarning, match="Born"):
        born_scatter_trace(shell, 1.0)


def test_shell_geometry_validation():
    with pytest.raises(GeometryError):
        BodyShell(inner_radius=0.0, outer_radius=1.0)
    with pytest.raises(GeometryError):
        BodyShell(inner_radius=1.0, outer_radius=0.5)
    # degenerate empty shell is allowed and contributes the full bulk
    # deficit at the inner radius
    BodyShell(inner_radius=1.0, outer_radius=1.0)
