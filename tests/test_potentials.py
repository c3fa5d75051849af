"""Tests for the potential, force, and stiffness operations."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import ConstantMedium
from lfvdw import _kernels
from lfvdw.cavity import CavitySpec, coeff_C_exact, coeff_D_leading
from lfvdw.errors import ConfigError, DomainError, GeometryError, InvariantError, LfvdwError
from lfvdw.green import bulk_dyad
from lfvdw.oracle import StepPolicy, finite_difference_force
from lfvdw.potentials import (
    SingleAtomResult,
    _ring_setup,
    cavity_center_stiffness,
    coeff_nonretarded,
    coeff_retarded,
    force_pair,
    n_atom_bulk,
    n_atom_orderings,
    pair_bulk,
    pair_free_space,
    single_atom_total,
    u1_exact,
    u1_expanded,
    u1_linearized,
    u2_single,
)
from lfvdw.quadrature import QuadSpec, integrate_finite, integrate_semi_infinite
from lfvdw.response import VACUUM, AtomModel, LorentzTerm, MediumResponse, _host_arrays, scale_hint

# ----------------------------------------------------------------------
# mpmath tanh-sinh references (tests/oracles/gen_values.py)
# glass medium: eps Lorentz (S=1.5, w=1.2, g=0.02), mu Lorentz (S=0.2, w=2)
# atom_a: (w=1, a=0.02); atom_b: (w=1.3, a=0.015), beta (w=2.1, b=0.004)
# ----------------------------------------------------------------------
FROZEN_U_PAIR_VACUUM_L5 = -7.9538138428216805054e-9
FROZEN_U_PAIR_GLASS_L3 = -7.9569568649112071951e-8
FROZEN_U_PAIR_GLASS_L3_UNCORR = -3.9042245370221063926e-8
FROZEN_F_PAIR_GLASS_L3 = -1.8119254953065484171e-7
FROZEN_U1_EXACT_GLASS_R005 = -29.772203205402703512
FROZEN_U1_LIN_RHO0053_R005 = -0.04500720633971207689
FROZEN_K_DIEL_R005 = 66950.239152956043842
FROZEN_K_MAGN_R005 = -36.5300079502946723
FROZEN_C_R_GLASS = 0.00018963238084884510779
FROZEN_C_NR_GLASS = 0.0001526245174441849304
# static triple-ring: U3 = (3/16) a^3 w Tr[MMM] / prod(l^3)
TRACE_MMM_EQUILATERAL = 4.125000000000003
TRACE_MMM_COLLINEAR = -6.0
FROZEN_U3_STATIC_EQ_S0002 = 1.2084960937500007806e19

DIEL = MediumResponse(eps_terms=(LorentzTerm(plasma_strength=1.0, resonance=1.0),))
MAGN = MediumResponse(mu_terms=(LorentzTerm(plasma_strength=1.0, resonance=1.0),))


# ----------------------------------------------------------------------
# single atom
# ----------------------------------------------------------------------

def test_u1_exact_matches_reference(atom_a, glass, quad):
    spec = CavitySpec(radius=0.05, host=glass)
    val = u1_exact(atom_a, spec, quad)
    assert val == pytest.approx(FROZEN_U1_EXACT_GLASS_R005, rel=1e-10, abs=0.0)


def test_u1_expansion_terms(atom_a, glass, quad):
    spec = CavitySpec(radius=0.05, host=glass)
    res = u1_expanded(atom_a, spec, quad)
    assert res.total == res.term_r3 + res.term_r1
    # leading term scales as R^-3 and dominates at small radius
    assert abs(res.term_r3) > 100.0 * abs(res.term_r1)
    assert res.evals > 0


def test_u1_expansion_approaches_exact_as_radius_shrinks(atom_a, glass, quad):
    rel_devs = []
    for rc in (0.2, 0.02):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            spec = CavitySpec(radius=rc, host=glass)
        exact = u1_exact(atom_a, spec, quad)
        approx = u1_expanded(atom_a, spec, quad).total
        rel_devs.append(abs(exact - approx) / abs(exact))
    # dropped terms start at R^0 against an R^-3 lead: error shrinks roughly
    # as R^3 (the larger radius is not yet fully asymptotic)
    assert rel_devs[1] < 5e-3 * rel_devs[0]
    assert rel_devs[1] < 2e-4


def test_u1_vanishes_in_vacuum(atom_a, quad):
    spec = CavitySpec(radius=0.05, host=VACUUM)
    assert u1_exact(atom_a, spec, quad) == 0.0
    assert u1_expanded(atom_a, spec, quad).total == 0.0


def test_u1_linearized_matches_reference(atom_b, quad):
    guest = AtomModel(resonances=((1.0, 0.02),))
    rho = 0.0053
    chi = lambda u: 4.0 * math.pi * rho * atom_b.alpha_iu(u)
    zeta = lambda u: 4.0 * math.pi * rho * atom_b.beta_iu(u)
    val = u1_linearized(guest, 0.05, chi, zeta, quad)
    assert val == pytest.approx(FROZEN_U1_LIN_RHO0053_R005, rel=1e-10, abs=0.0)


def test_u1_linearized_fails_fast_on_non_finite_chi(quad):
    guest = AtomModel(resonances=((1.0, 0.02),))
    chi = lambda u: np.where(u > 3.0, math.nan, 1e-3)
    zeta = lambda u: np.zeros_like(u)
    with pytest.raises(InvariantError, match="non-finite"):
        u1_linearized(guest, 0.05, chi, zeta, quad)


def test_u2_zero_trace_gives_zero(atom_a, glass, quad):
    spec = CavitySpec(radius=0.05, host=glass)
    assert u2_single(atom_a, spec, lambda u: np.zeros_like(u), quad) == 0.0


def test_single_atom_total_is_exact_sum(atom_a, glass, quad):
    spec = CavitySpec(radius=0.05, host=glass)
    res = single_atom_total(atom_a, spec, lambda u: np.zeros_like(u), quad)
    assert res.total == res.U1 + res.U2
    assert res.U1 == pytest.approx(u1_expanded(atom_a, spec, quad).total, abs=0.0)
    assert res.U2 == 0.0


def test_single_atom_result_guards_inconsistent_totals():
    with pytest.raises(InvariantError):
        SingleAtomResult(U1=-1.0, U2=0.5, total=-0.4, term_r3=-1.0, term_r1=0.0)


def test_u2_rejects_transmission_below_unity(atom_a, quad):
    # eps < 1 makes the leading transmission factor drop below 1, which
    # no Lorentz medium can do; the ratio guard must notice
    spec = CavitySpec(radius=0.05, host=ConstantMedium(0.5))
    with pytest.raises(InvariantError):
        u2_single(atom_a, spec, lambda u: np.full_like(u, 1e-6), quad)


# ----------------------------------------------------------------------
# pairs
# ----------------------------------------------------------------------

def test_pair_free_space_reference(atom_a, quad):
    val = pair_free_space(atom_a, atom_a, 5.0, quad)
    assert val == pytest.approx(FROZEN_U_PAIR_VACUUM_L5, rel=1e-10, abs=0.0)


def test_pair_free_space_limits(atom_a, quad):
    c_r = coeff_retarded(atom_a, atom_a, VACUUM)
    c_nr = coeff_nonretarded(atom_a, atom_a, VACUUM, quad)
    far = pair_free_space(atom_a, atom_a, 500.0, quad)
    near = pair_free_space(atom_a, atom_a, 5e-4, quad)
    assert far * 500.0**7 == pytest.approx(-c_r, rel=2e-3, abs=0.0)
    assert near * 5e-4**6 == pytest.approx(-c_nr, rel=1e-5, abs=0.0)


def test_vacuum_pair_coefficients_closed_forms(atom_a, quad):
    # single resonance (w, a): C_r = 23 a^2/(4 pi), C_nr = (3/4) a^2 w
    assert coeff_retarded(atom_a, atom_a, VACUUM) == pytest.approx(
        23.0 * 0.02**2 / (4.0 * math.pi), rel=1e-15, abs=0.0
    )
    assert coeff_nonretarded(atom_a, atom_a, VACUUM, quad) == pytest.approx(
        0.75 * 0.02**2, rel=1e-10, abs=0.0
    )


def test_pair_coefficients_in_medium(atom_a, atom_b, glass, quad):
    assert coeff_retarded(atom_a, atom_b, glass) == pytest.approx(
        FROZEN_C_R_GLASS, rel=1e-13, abs=0.0
    )
    assert coeff_nonretarded(atom_a, atom_b, glass, quad) == pytest.approx(
        FROZEN_C_NR_GLASS, rel=1e-10, abs=0.0
    )


def test_magnetoelectric_pair_is_repulsive(atom_a, atom_b, quad):
    val = pair_free_space(atom_a, atom_b, 40.0, quad, parts="magnetic")
    assert val > 0.0
    # retarded closed form +7 alpha(0) beta(0) / (4 pi l^7)
    far = pair_free_space(atom_a, atom_b, 400.0, quad, parts="magnetic")
    assert far * 400.0**7 == pytest.approx(
        7.0 * 0.02 * 0.004 / (4.0 * math.pi), rel=1e-3, abs=0.0
    )


def test_pair_parts_sum(atom_a, atom_b, quad):
    l = 2.5
    both = pair_free_space(atom_a, atom_b, l, quad)
    el = pair_free_space(atom_a, atom_b, l, quad, parts="electric")
    mag = pair_free_space(atom_a, atom_b, l, quad, parts="magnetic")
    assert both == pytest.approx(el + mag, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        pair_free_space(atom_a, atom_b, l, quad, parts="scalar")


def test_pair_bulk_reference(atom_a, atom_b, glass, quad):
    res = pair_bulk(atom_a, atom_b, glass, 3.0, quad)
    assert res.U == pytest.approx(FROZEN_U_PAIR_GLASS_L3, rel=1e-10, abs=0.0)
    assert res.corrected
    unc = pair_bulk(atom_a, atom_b, glass, 3.0, quad, corrected=False)
    assert unc.U == pytest.approx(FROZEN_U_PAIR_GLASS_L3_UNCORR, rel=1e-10, abs=0.0)
    assert not unc.corrected
    assert res.U < unc.U < 0.0  # the local field correction deepens the well


def test_pair_bulk_vacuum_reduces_to_free_space(atom_a, quad):
    bulk = pair_bulk(atom_a, atom_a, VACUUM, 4.0, quad)
    free = pair_free_space(atom_a, atom_a, 4.0, quad, parts="electric")
    assert bulk.U == free


def test_enhancement_profile_bounds(atom_a, atom_b, glass):
    # the pair's local-field factor W = D^4 over six decades around its scale
    grid = scale_hint(atom_a, atom_b, glass) * np.geomspace(1e-3, 1e3, 41)
    ratios = coeff_D_leading(glass, grid) ** 4
    assert np.all(ratios >= 1.0 - 1e-12)
    assert np.all(ratios <= 81.0 / 16.0 + 1e-12)


def test_pair_separation_guards(atom_a, atom_b, glass, quad):
    with pytest.raises(GeometryError):
        pair_bulk(atom_a, atom_b, glass, 0.01, quad, cavity_radius=0.05)
    with pytest.warns(UserWarning, match="cavity"):
        pair_bulk(atom_a, atom_b, glass, 0.2, quad, cavity_radius=0.05)
    with pytest.raises(GeometryError):
        pair_bulk(atom_a, atom_b, glass, 0.0, quad)
    with pytest.raises(GeometryError):
        pair_free_space(atom_a, atom_b, -1.0, quad)


@pytest.mark.parametrize(
    "limit",
    [
        lambda a, b, m, q: coeff_nonretarded(a, b, m, q),
        lambda a, b, m, q: coeff_retarded(a, b, m),
    ],
    ids=["nonretarded", "retarded"],
)
def test_limit_coefficients_reject_enhancement_below_unity(atom_a, atom_b, quad, limit):
    # eps < 1 gives W = [3 eps/(2 eps + 1)]^4 < 1, as pair_bulk already refuses
    with pytest.raises(InvariantError):
        limit(atom_a, atom_b, ConstantMedium(0.5), quad)


def test_retardation_slopes_in_vacuum(atom_a, quad):
    # log-log slope of |U(l)|: -6 non-retarded, -7 retarded
    def slope(l_lo, l_hi):
        u_lo = pair_free_space(atom_a, atom_a, l_lo, quad)
        u_hi = pair_free_space(atom_a, atom_a, l_hi, quad)
        return (math.log(abs(u_hi)) - math.log(abs(u_lo))) / (
            math.log(l_hi) - math.log(l_lo)
        )

    assert slope(1e-3, 2e-3) == pytest.approx(-6.0, abs=0.02)
    assert slope(100.0, 200.0) == pytest.approx(-7.0, abs=0.05)


# ----------------------------------------------------------------------
# force
# ----------------------------------------------------------------------

def test_force_reference(atom_a, atom_b, glass, quad):
    val = force_pair(atom_a, atom_b, glass, 3.0, quad)
    assert val == pytest.approx(FROZEN_F_PAIR_GLASS_L3, rel=1e-10, abs=0.0)
    assert val < 0.0  # attractive


def test_force_matches_finite_difference(atom_a, atom_b, glass):
    tight = QuadSpec(rel_tol=1e-11)
    l = 3.0
    analytic = force_pair(atom_a, atom_b, glass, l, tight)
    fd = finite_difference_force(
        lambda x: pair_bulk(atom_a, atom_b, glass, x, tight).U,
        l,
        StepPolicy(initial=5e-3 * l, levels=2),
    )
    assert analytic == pytest.approx(fd.value, rel=1e-8, abs=0.0)
    assert fd.err_est < 1e-8 * abs(analytic)


def test_force_cavity_radius_invariance(atom_a, atom_b, glass, quad):
    # the guard parameter must not enter the numbers at all
    f1 = force_pair(atom_a, atom_b, glass, 3.0, quad, cavity_radius=0.01)
    f2 = force_pair(atom_a, atom_b, glass, 3.0, quad, cavity_radius=0.02)
    assert f1 == f2


def test_retarded_force_limit(atom_a, quad):
    # U = -C_r/l^7 gives F = -7 C_r / l^8
    c_r = coeff_retarded(atom_a, atom_a, VACUUM)
    l = 400.0
    f = force_pair(atom_a, atom_a, VACUUM, l, quad)
    assert f == pytest.approx(-7.0 * c_r / l**8, rel=2e-3, abs=0.0)


# ----------------------------------------------------------------------
# N-atom rings
# ----------------------------------------------------------------------

def test_two_atom_ring_reduces_to_pair(atom_a, atom_b, glass, quad):
    l = 3.0
    pair = pair_bulk(atom_a, atom_b, glass, l, quad).U
    ring = n_atom_bulk(
        [(atom_a, [0.0, 0.0, 0.0]), (atom_b, [l, 0.0, 0.0])], glass, quad
    )
    assert ring == pytest.approx(pair, rel=1e-12, abs=0.0)


def test_ring_ordering_enumeration(atom_a, quad):
    pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1]]
    for n, expected in ((2, 1), (3, 1), (4, 3), (5, 12)):
        atoms = [(atom_a, pts[k]) for k in range(n)]
        orderings = n_atom_orderings(atoms, VACUUM, quad)
        assert len(orderings) == expected
        for cycle, _ in orderings:
            assert cycle[0] == 0
            if n > 2:
                assert cycle[1] < cycle[-1]  # reversal representative
        total = math.fsum(e for _, e in orderings)
        assert total == pytest.approx(n_atom_bulk(atoms, VACUUM, quad), rel=1e-12, abs=0.0)


def test_triple_ring_static_limit(atom_a, quad):
    # equilateral triangle, side small against the resonance wavelength:
    # the retardation-free closed form must emerge
    s = 0.002
    atoms = [
        (atom_a, [0.0, 0.0, 0.0]),
        (atom_a, [s, 0.0, 0.0]),
        (atom_a, [s / 2.0, s * math.sqrt(3.0) / 2.0, 0.0]),
    ]
    val = n_atom_bulk(atoms, VACUUM, quad)
    assert val == pytest.approx(FROZEN_U3_STATIC_EQ_S0002, rel=5e-3, abs=0.0)
    assert val > 0.0


def test_triple_ring_signs(atom_a, quad):
    eq = [
        (atom_a, [0.0, 0.0, 0.0]),
        (atom_a, [2.0, 0.0, 0.0]),
        (atom_a, [1.0, math.sqrt(3.0), 0.0]),
    ]
    col = [
        (atom_a, [0.0, 0.0, 0.0]),
        (atom_a, [2.0, 0.0, 0.0]),
        (atom_a, [4.0, 0.0, 0.0]),
    ]
    assert n_atom_bulk(eq, VACUUM, quad) > 0.0
    assert n_atom_bulk(col, VACUUM, quad) < 0.0


def test_ring_validation(atom_a, glass, quad):
    one = [(atom_a, [0.0, 0.0, 0.0])]
    with pytest.raises(ValueError):
        n_atom_bulk(one, glass, quad)
    seven = [(atom_a, [float(k), 0.0, 0.0]) for k in range(7)]
    with pytest.raises(ValueError):
        n_atom_bulk(seven, glass, quad)
    coincident = [(atom_a, [0.0, 0.0, 0.0]), (atom_a, [0.0, 0.0, 0.0])]
    with pytest.raises(GeometryError):
        n_atom_bulk(coincident, glass, quad)
    with pytest.raises(GeometryError):
        n_atom_bulk(
            [(atom_a, [0.0, 0.0, 0.0]), (atom_a, [0.01, 0.0, 0.0])],
            glass,
            quad,
            cavity_radius=0.05,
        )


def _ring_geometry(rng, n):
    # non-planar points at least 0.6 apart
    while True:
        pos = rng.uniform(-1.5, 1.5, (n, 3))
        gaps = np.linalg.norm(pos[:, None] - pos[None, :], axis=2)
        if gaps[np.triu_indices(n, 1)].min() > 0.6:
            return pos


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_stacked_ring_matches_explicit_dyad_products(atom_a, glass, n):
    rng = np.random.default_rng(40 + n)
    pos = _ring_geometry(rng, n)
    _, orderings, dist, vv, legs, _ = _ring_setup(
        [(atom_a, p) for p in pos], None, "test"
    )
    u = np.array([0.03, 0.4, 1.1, 2.7, 9.0])
    _, mu, nr = _host_arrays(glass, u)
    got = _kernels.ring_trace(nr * u, mu, dist, vv, legs)
    assert got.shape == (u.size, len(orderings))
    for k, uk in enumerate(u):
        for o, cycle in enumerate(orderings):
            prod = np.eye(3)
            for a, b in zip(cycle, np.roll(cycle, -1)):
                prod = prod @ bulk_dyad(glass, pos[a], pos[b], uk).matrix
            assert got[k, o] == pytest.approx(np.trace(prod), rel=1e-13, abs=0.0)


def test_ring_rejects_non_finite_positions(atom_a, glass, quad):
    atoms = [(atom_a, [0.0, 0.0, 0.0]), (atom_a, [math.nan, 0.0, 0.0])]
    with pytest.raises(GeometryError, match="atom 1 has a non-finite coordinate"):
        n_atom_bulk(atoms, glass, quad)


# ----------------------------------------------------------------------
# cavity-center stiffness
# ----------------------------------------------------------------------

def test_stiffness_vacuum_is_neutral(atom_a, quad):
    res = cavity_center_stiffness(atom_a, CavitySpec(radius=0.05, host=VACUUM), quad)
    assert abs(res.K) < 1e-12
    assert res.classification == "neutral"


def test_stiffness_dielectric_reference(atom_a, quad):
    res = cavity_center_stiffness(atom_a, CavitySpec(radius=0.05, host=DIEL), quad)
    assert res.K == pytest.approx(FROZEN_K_DIEL_R005, rel=1e-9, abs=0.0)
    assert res.classification == "unstable"


def test_stiffness_magnetic_reference(atom_a, quad):
    res = cavity_center_stiffness(atom_a, CavitySpec(radius=0.05, host=MAGN), quad)
    assert res.K == pytest.approx(FROZEN_K_MAGN_R005, rel=1e-9, abs=0.0)
    assert res.classification == "restoring"


def test_stiffness_small_radius_expansion(atom_a, quad):
    for medium in (DIEL, MAGN):
        res = cavity_center_stiffness(
            atom_a, CavitySpec(radius=0.01, host=medium), quad
        )
        assert math.copysign(1.0, res.K) == math.copysign(1.0, res.K_small_radius)
        assert res.K_small_radius == pytest.approx(res.K, rel=0.1, abs=0.0)


# ----------------------------------------------------------------------
# typed argument errors
# ----------------------------------------------------------------------

_ATOM = AtomModel(resonances=((1.0, 0.02),))
_SPEC = CavitySpec(radius=0.05, host=VACUUM)
_ARGUMENT_ERRORS = {
    "quad_scale": (DomainError, lambda: integrate_semi_infinite(np.exp, scale=0.0)),
    "quad_bounds": (DomainError, lambda: integrate_finite(np.sin, 0.0, math.inf)),
    "quad_order": (DomainError, lambda: integrate_finite(np.sin, 2.0, 1.0)),
    "cavity_kind": (DomainError, lambda: coeff_C_exact(_SPEC, 1, 1.0, "bogus")),
    "pair_parts": (DomainError, lambda: pair_free_space(_ATOM, _ATOM, 2.0, parts="x")),
    "u2_trace_shape": (DomainError, lambda: u2_single(_ATOM, _SPEC, lambda u: np.zeros(u.size + 1))),
    "u2_trace_scalar": (DomainError, lambda: u2_single(_ATOM, _SPEC, lambda u: 0.0)),
    "ring_one_atom": (GeometryError, lambda: n_atom_bulk([(_ATOM, [0.0, 0.0, 0.0])], VACUUM)),
    "ring_seven_atoms": (GeometryError, lambda: n_atom_bulk(
        [(_ATOM, [float(k), 0.0, 0.0]) for k in range(7)], VACUUM)),
    "dyad_vectors": (GeometryError, lambda: bulk_dyad(VACUUM, np.ones(4), np.zeros(3), 1.0)),
    "step_initial": (ConfigError, lambda: StepPolicy(initial=0.0)),
    "step_levels": (ConfigError, lambda: StepPolicy(levels=0)),
}


@pytest.mark.parametrize("site", sorted(_ARGUMENT_ERRORS))
def test_argument_checks_raise_typed_errors(site):
    kind, call = _ARGUMENT_ERRORS[site]
    with pytest.raises(LfvdwError) as err:
        call()
    assert isinstance(err.value, kind)
    assert isinstance(err.value, ValueError)
