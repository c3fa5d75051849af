"""Tests for the potential, force, and stiffness operations."""

from __future__ import annotations

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from conftest import ConstantMedium
from lfvdw import _kernels, potentials, response
from lfvdw.cavity import CavitySpec, coeff_D_leading
from lfvdw.errors import ConfigError, DomainError, GeometryError, InvariantError, LfvdwError
from lfvdw.green import bulk_dyad
from lfvdw.oracle import finite_difference_force
from lfvdw.potentials import (
    _ring_integrand,
    _ring_setup,
    cavity_center_stiffness,
    coeff_nonretarded,
    coeff_retarded,
    force_pair,
    n_atom_bulk,
    n_atom_orderings,
    pair_bulk,
    pair_free_space,
    u1_exact,
    u1_expanded,
    u1_linearized,
    u2_single,
)
from lfvdw.quadrature import QuadSpec, integrate_finite, integrate_semi_infinite
from lfvdw.response import VACUUM, AtomModel, LorentzTerm, MediumResponse, scale_hint

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


@pytest.mark.parametrize("radius", [1e-104, 1e-300])
def test_u1_expanded_past_the_float_range_is_an_invariant_error(atom_a, glass, quad, radius):
    # R_c^-3 used to overflow to -inf, or R_c**3 underflow to a ZeroDivisionError
    spec = CavitySpec(radius=radius, host=glass)
    with pytest.raises(InvariantError, match=f"U1 = -inf is not finite at R_c = {radius:.6g}"):
        u1_expanded(atom_a, spec, quad)


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
    # the magnetic part: atom_b's potential less that of its electric twin
    electric_b = AtomModel(resonances=atom_b.resonances)

    def magnetic(l):
        return (pair_free_space(atom_a, atom_b, l, quad)
                - pair_free_space(atom_a, electric_b, l, quad))

    assert magnetic(40.0) > 0.0
    # retarded closed form +7 alpha(0) beta(0) / (4 pi l^7)
    assert magnetic(400.0) * 400.0**7 == pytest.approx(
        7.0 * 0.02 * 0.004 / (4.0 * math.pi), rel=1e-3, abs=0.0
    )


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
    free = pair_free_space(atom_a, atom_a, 4.0, quad)
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


# ----------------------------------------------------------------------
# separation grids: one vector integral, one component per separation
# ----------------------------------------------------------------------

_GRID = [0.3, 1.0, 2.5, 10.0, 40.0]


def _pair_calls(atom_a, atom_b, glass, q):
    calls = {
        f"pair_bulk(corrected={flag})": lambda l, flag=flag: pair_bulk(
            atom_a, atom_b, glass, l, q, corrected=flag).U
        for flag in (True, False)
    }
    calls["force_pair"] = lambda l: force_pair(atom_a, atom_b, glass, l, q)
    # atom_a has no beta resonances: the electric part alone
    calls["pair_free_space(electric)"] = lambda l: pair_free_space(atom_b, atom_a, l, q)
    calls["pair_free_space"] = lambda l: pair_free_space(atom_a, atom_b, l, q)
    return calls


def test_pair_grid_matches_scalar_calls(atom_a, atom_b, glass, quad):
    # within rel_tol of a longer grid, and bit for bit the one-point grid [l]
    for name, call in _pair_calls(atom_a, atom_b, glass, quad).items():
        grid = call(np.array(_GRID))
        assert isinstance(grid, np.ndarray) and grid.shape == (len(_GRID),), name
        for l, value in zip(_GRID, grid.tolist()):
            assert value == pytest.approx(call(l), rel=quad.rel_tol, abs=0.0), (name, l)
            assert [call(l)] == call(np.array([l])).tolist(), (name, l)


def test_pair_result_types(atom_a, atom_b, glass, quad):
    # a scalar separation gives floats, a grid gives arrays of its shape
    for name, call in _pair_calls(atom_a, atom_b, glass, quad).items():
        assert type(call(2.5)) is float, name
    res = pair_bulk(atom_a, atom_b, glass, 2.5, quad)
    assert type(res.separation) is type(res.err_est) is float
    res = pair_bulk(atom_a, atom_b, glass, np.array(_GRID), quad)
    assert res.separation.tolist() == _GRID
    assert res.U.shape == res.err_est.shape == (len(_GRID),)


@pytest.mark.parametrize("l", [[[1.0, 2.0]], [], [1.0, math.nan], [1.0, -1.0],
                               [1.0, 0.0], [1.0, math.inf]])
def test_pair_grid_rejects_bad_shape_or_entry(atom_a, atom_b, glass, quad, l):
    for call in _pair_calls(atom_a, atom_b, glass, quad).values():
        with pytest.raises(GeometryError):
            call(np.array(l))


def test_pair_grid_warns_once_and_guards_every_entry(atom_a, atom_b, glass, quad):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pair_bulk(atom_a, atom_b, glass, np.array([0.12, 0.2, 0.24, 1.0]), quad,
                  cavity_radius=0.05)
    assert [str(w.message).split(";")[0] for w in caught] == [
        "pair_bulk: 3 of 4 separation(s) within 5 cavity radii, the smallest 0.12"
    ]
    with pytest.raises(GeometryError, match="0.09"):
        force_pair(atom_a, atom_b, glass, np.array([1.0, 0.09]), quad, cavity_radius=0.05)


def test_separation_warning_names_the_callers_line(atom_a, atom_b, glass, quad):
    # the warning points at the call in this file, not inside potentials.py
    ring = [(atom_a, [0.0, 0.0, 0.0]), (atom_b, [0.2, 0.0, 0.0])]
    calls = {
        "pair_bulk": lambda: pair_bulk(atom_a, atom_b, glass, 0.2, quad, cavity_radius=0.05),
        "force_pair": lambda: force_pair(atom_a, atom_b, glass, 0.2, quad, cavity_radius=0.05),
        "n_atom_bulk": lambda: n_atom_bulk(ring, glass, quad, cavity_radius=0.05),
        "n_atom_orderings": lambda: n_atom_orderings(ring, glass, quad, cavity_radius=0.05),
    }
    for name, call in calls.items():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert [str(w.message).split(":")[0] for w in caught] == [name]
        assert caught[0].filename == __file__, name


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


@pytest.mark.parametrize("op", ["pair_bulk", "coeff_nonretarded", "coeff_retarded",
                                "n_atom_bulk", "u2_single"])
def test_nan_host_trips_the_local_field_check(atom_a, atom_b, quad, op):
    # NaN fails every comparison, so the D^2 check names it before the engine does
    host = ConstantMedium(math.nan)
    calls = {
        "pair_bulk": lambda: pair_bulk(atom_a, atom_b, host, 2.5, quad),
        "coeff_nonretarded": lambda: coeff_nonretarded(atom_a, atom_b, host, quad),
        "coeff_retarded": lambda: coeff_retarded(atom_a, atom_b, host),
        "n_atom_bulk": lambda: n_atom_bulk([(atom_a, [0.0, 0.0, 0.0]), (atom_b, [2.0, 0.0, 0.0])],
                                           host, quad),
        "u2_single": lambda: u2_single(atom_a, CavitySpec(radius=0.05, host=host),
                                       lambda u: np.full_like(u, 1e-6), quad),
    }
    with pytest.raises(InvariantError, match=rf"^local-field factor D\^2 nan\.\.nan .* in {op};"):
        calls[op]()


def test_overflowing_retarded_coefficient_is_an_invariant_error():
    # alpha_static = 2e308 overflows to inf; C_r used to come out inf
    huge = AtomModel(resonances=((1.0, 1e308), (2.0, 1e308)))
    with pytest.raises(InvariantError, match="coeff_retarded came out inf"):
        coeff_retarded(huge, huge, VACUUM)


@pytest.mark.parametrize("op, l", [
    (lambda a, b, m, l, q: pair_bulk(a, b, m, l, q).U, 1e-53),
    (lambda a, b, m, l, q: pair_bulk(a, b, m, l, q, corrected=False).U, np.array([1e-60, 1e-3])),
    (lambda a, b, m, l, q: force_pair(a, b, m, l, q), 1e-50),
    (lambda a, b, m, l, q: pair_free_space(a, b, l, q), 1e-60),
    (lambda a, b, m, l, q: n_atom_bulk([(a, (0.0, 0.0, 0.0)), (b, (l, 0.0, 0.0))], m, q), 1e-60),
    (lambda a, b, m, l, q: n_atom_orderings([(a, (0.0, 0.0, 0.0)), (b, (0.0, l, 0.0))],
                                            m, q)[0][1], 1e-60),
], ids=["pair_bulk", "pair_bulk-grid", "force_pair", "pair_free_space", "n_atom_bulk",
        "n_atom_orderings"])
def test_tiny_separation_is_an_invariant_error(atom_a, atom_b, glass, quad, op, l):
    # the l^6 or l^7 of the prefactor underflows: each used to return -inf
    # with only a RuntimeWarning; a ring's 1/l^3 dyads overflow instead, which
    # used to warn from numpy and then fail on a u-node
    smallest = float(np.min(l))
    message = f"not finite at the smallest separation {smallest:.6g}"
    with pytest.raises(InvariantError, match=message):
        op(atom_a, atom_b, glass, l, quad)
    # a separation whose prefactor still fits stays finite
    assert math.isfinite(float(np.min(op(atom_a, atom_b, glass, 1e-40, quad))))


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


@pytest.mark.xfail(
    strict=True,
    reason=(
        "ROADMAP item 3, large separations: the fixed map u = u0 t/(1-t) puts "
        "no initial node below u ~ 1e-4 u0, so once 1/(n l) is smaller the "
        "integral sees only the e^{-2nul} tail and converges on it (-5.3e-51 "
        "at l = 1e5 against -C_r/l^7 = -1.9e-39)"
    ),
)
def test_pair_bulk_meets_retarded_asymptote_at_large_separation(atom_a, atom_b, glass):
    l = 1e5
    u = pair_bulk(atom_a, atom_b, glass, l, QuadSpec(rel_tol=1e-8)).U
    assert u == pytest.approx(-coeff_retarded(atom_a, atom_b, glass) / l**7, rel=1e-3, abs=0.0)


# ----------------------------------------------------------------------
# force
# ----------------------------------------------------------------------

def test_force_reference(atom_a, atom_b, glass, quad):
    val = force_pair(atom_a, atom_b, glass, 3.0, quad)
    assert val == pytest.approx(FROZEN_F_PAIR_GLASS_L3, rel=1e-10, abs=0.0)
    assert val < 0.0  # attractive


def test_force_at_huge_separation_is_an_invariant_error(atom_a, atom_b, glass, quad):
    # the integral underflows to 0 at l = 1e7 (ROADMAP item 3); force_pair
    # used to return -0.0 where pair_bulk raised
    with pytest.raises(InvariantError, match=r"^pair force came out non-negative \(-0\) "
                       r"at separation 1e\+07; "):
        force_pair(atom_a, atom_b, glass, 1e7, quad)


@pytest.mark.parametrize("l", [1e60, 1e200, 1.7e308])
def test_far_separations_fail_typed_with_no_warning(atom_a, atom_b, glass, quad, l):
    # 2 pi l^6 overflows past l ~ 1e51, and x^4 e^{-2x} was inf * 0 past
    # x ~ 1e77: both printed a RuntimeWarning, and the second a nan, before
    # any LfvdwError; at 1.7e308 the products u l, n u l and -2 u l overflowed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvariantError, match=r"^pair potential came out non-negative"):
            pair_bulk(atom_a, atom_b, glass, l, quad)
        with pytest.raises(InvariantError, match=r"^pair force came out non-negative"):
            force_pair(atom_a, atom_b, glass, l, quad)
        assert pair_free_space(atom_a, atom_b, l, quad) == 0.0  # the true underflow


def test_failed_attraction_names_its_separation(atom_a, atom_b, glass, quad):
    # the l = 1e200 point underflows to -0; the message used to name no separation
    with pytest.raises(InvariantError, match=r"^pair potential came out non-negative \(-0\) "
                       r"at separation 1e\+200 \(point 2 of 2\); "):
        pair_bulk(atom_a, atom_b, glass, np.array([2.0, 1e200]), quad)


def test_pair_kernels_are_zero_where_their_exponential_is():
    x = np.array([372.6, 1e3, 1e80, 1e200, 1.7e308, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kernel in (_kernels.kernel_g, _kernels.kernel_h, _kernels.kernel_force):
            assert kernel(x).tolist() == [0.0] * x.size, kernel.__name__


def test_force_matches_finite_difference(atom_a, atom_b, glass):
    tight = QuadSpec(rel_tol=1e-11)
    l = 3.0
    analytic = force_pair(atom_a, atom_b, glass, l, tight)
    fd = finite_difference_force(
        lambda x: pair_bulk(atom_a, atom_b, glass, x, tight).U,
        l,
        initial=5e-3 * l,
        levels=2,
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
        assert math.fsum(e for _, e in orderings) == n_atom_bulk(atoms, VACUUM, quad)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_ring_orderings_match_each_ordering_integrated_alone(atom_a, atom_b, glass, quad, n):
    pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1.5, 0.5, 1.2]]
    atoms = [((atom_a, atom_b)[k % 2], pts[k]) for k in range(n)]
    models, orderings, dist, vv, legs, pref = _ring_setup(atoms, None, "test")
    tight = QuadSpec(rel_tol=1e-12, abs_tol=1e-300)
    scale = scale_hint(glass, *models)
    per = n_atom_orderings(atoms, glass, quad)
    assert len(per) == len(orderings)
    for k, (cycle, energy) in enumerate(per):
        assert cycle == tuple(orderings[k])
        f = _ring_integrand(models, glass, dist, vv, legs[k : k + 1], "test")
        (alone,) = pref * integrate_semi_infinite(f, tight, scale=scale).value
        assert energy == pytest.approx(alone, rel=1e-11, abs=0.0)


def test_one_quadrature_call_per_quantity(monkeypatch, atom_a, atom_b, glass, quad):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return integrate_semi_infinite(*args, **kwargs)

    monkeypatch.setattr(potentials, "integrate_semi_infinite", counting)
    pts = [[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [0, 0, 1], [1.5, 0.5, 1.2]]
    spec = CavitySpec(radius=0.05, host=glass)
    cases = {
        "n_atom_orderings": (lambda: n_atom_orderings([(atom_a, p) for p in pts], glass, quad), 1),
        "n_atom_bulk": (lambda: n_atom_bulk([(atom_a, p) for p in pts], glass, quad), 1),
        "u1_expanded": (lambda: u1_expanded(atom_a, spec, quad), 1),
        "pair_free_space": (lambda: pair_free_space(atom_a, atom_b, 2.5, quad), 1),
        "cavity_center_stiffness": (lambda: cavity_center_stiffness(atom_a, spec, quad), 2),
    }
    for name, (call, expected) in cases.items():
        calls.clear()
        call()
        assert len(calls) == expected, name


@pytest.mark.parametrize("op", ["pair_bulk", "force_pair", "pair_free_space", "coeff_nonretarded",
                                "n_atom_bulk", "u1_exact", "u1_expanded",
                                "cavity_center_stiffness"])
def test_each_integrand_call_checks_nodes_at_most_once(monkeypatch, atom_a, atom_b, glass, quad,
                                                        op):
    # the engine's nodes reach the responses through their node-level forms;
    # the one check left is coeff_C_exact's, whose public u > 0 check stands
    checks, per_call = [0], []
    as_nodes = response._as_nodes

    def counting_check(u):
        checks[0] += 1
        return as_nodes(u)

    def counting_integral(f, *args, **kwargs):
        def g(u):
            before = checks[0]
            out = f(u)
            per_call.append(checks[0] - before)
            return out

        return integrate_semi_infinite(g, *args, **kwargs)

    monkeypatch.setattr(response, "_as_nodes", counting_check)
    monkeypatch.setattr(potentials, "integrate_semi_infinite", counting_integral)
    spec = CavitySpec(radius=0.05, host=glass)
    ring = [(atom_a, [0.0, 0.0, 0.0]), (atom_b, [2.0, 0.0, 0.0]),
            (atom_a, [0.0, 2.5, 0.0]), (atom_b, [1.0, 1.0, 3.0])]
    calls = {
        "pair_bulk": lambda: pair_bulk(atom_a, atom_b, glass, [0.3, 2.5], quad),
        "force_pair": lambda: force_pair(atom_a, atom_b, glass, 2.5, quad),
        "pair_free_space": lambda: pair_free_space(atom_a, atom_b, 2.5, quad),
        "coeff_nonretarded": lambda: coeff_nonretarded(atom_a, atom_b, glass, quad),
        "n_atom_bulk": lambda: n_atom_bulk(ring, glass, quad),
        "u1_exact": lambda: u1_exact(atom_a, spec, quad),
        "u1_expanded": lambda: u1_expanded(atom_a, spec, quad),
        "cavity_center_stiffness": lambda: cavity_center_stiffness(atom_a, spec, quad),
    }
    calls[op]()
    assert per_call
    assert max(per_call) == (1 if op in ("u1_exact", "cavity_center_stiffness") else 0)


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
    _, mu, nr = glass._eps_mu_n(u)
    got = _kernels.ring_trace(nr * u, mu, dist, vv, legs)
    assert got.shape == (u.size, len(orderings))
    for k, uk in enumerate(u):
        for o, cycle in enumerate(orderings):
            prod = np.eye(3)
            for a, b in zip(cycle, np.roll(cycle, -1)):
                prod = prod @ bulk_dyad(glass, pos[a], pos[b], uk)
            assert got[k, o] == pytest.approx(np.trace(prod), rel=1e-13, abs=0.0)


def test_two_atom_ring_must_attract(atom_a, atom_b, glass, quad):
    # the N = 2 ring is the corrected pair potential; 1e7 apart its integral
    # underflows, and n_atom_orderings used to return [((0, 1), -0.0)]
    atoms = [(atom_a, [0.0, 0.0, 0.0]), (atom_b, [1e7, 0.0, 0.0])]
    for ring in (n_atom_bulk, n_atom_orderings):
        with pytest.raises(InvariantError, match=r"^two-atom ring energy came out non-negative "
                           r"\(-0\) at separation 1e\+07; "):
            ring(atoms, glass, quad)


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


def test_stiffness_classifies_by_error_estimate(glass, quad):
    # a weak atom's K (3.7e-14 in glass, -1.8e-17 on MAGN) lies far outside
    # its error estimate, but an absolute |K| <= 1e-12 called both neutral
    weak = AtomModel(resonances=((1.0, 1e-20),))
    for host, classification in ((glass, "unstable"), (MAGN, "restoring")):
        res = cavity_center_stiffness(weak, CavitySpec(radius=0.05, host=host), quad)
        assert abs(res.K) > 1e3 * res.err_est
        assert res.classification == classification


def test_stiffness_small_radius_expansion(atom_a, quad):
    for medium in (DIEL, MAGN):
        res = cavity_center_stiffness(
            atom_a, CavitySpec(radius=0.01, host=medium), quad
        )
        assert math.copysign(1.0, res.K) == math.copysign(1.0, res.K_small_radius)
        assert res.K_small_radius == pytest.approx(res.K, rel=0.1, abs=0.0)


# ----------------------------------------------------------------------
# host-independent bits
# ----------------------------------------------------------------------

# integrand values whose powers numpy's SIMD pow would round per host
_HOST_BITS = """
import lfvdw
from lfvdw.cavity import CavitySpec
from lfvdw.response import AtomModel, LorentzTerm, MediumResponse

glass = MediumResponse(
    eps_terms=(LorentzTerm(plasma_strength=1.5, resonance=1.2, damping=0.02),),
    mu_terms=(LorentzTerm(plasma_strength=0.2, resonance=2.0),),
)
probe = AtomModel(resonances=((1.0, 0.02),))
partner = AtomModel(resonances=((1.3, 0.015),), beta_resonances=((2.1, 0.004),))
spec = CavitySpec(radius=0.05, host=glass)
ring = [(probe, (0.0, 0.0, 0.0)), (partner, (3.0, 0.0, 0.0)), (probe, (0.0, 3.5, 0.0)),
        (partner, (1.0, 1.0, 4.0)), (probe, (2.5, 3.0, 1.5)), (partner, (-2.0, 1.0, 2.5))]
bits = [repr(lfvdw.u1_exact(a, spec)) for a in (probe, partner)]
bits += [repr(lfvdw.cavity_center_stiffness(a, spec).K) for a in (probe, partner)]
bits += [repr(e) for n in (4, 6) for _, e in lfvdw.n_atom_orderings(ring[:n], glass)]
"""
_NO_AVX512 = "AVX512_SPR AVX512_ICL X86_V4"


@pytest.mark.skipif(not np._core._multiarray_umath.__cpu_features__.get("X86_V4"),
                    reason="numpy has no X86_V4 dispatch to turn off on this CPU")
def test_integrand_bits_do_not_depend_on_numpy_simd_dispatch():
    here = {}
    exec(_HOST_BITS, here)
    src = str(Path(potentials.__file__).resolve().parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": _NO_AVX512,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", _HOST_BITS + "print('\\n'.join(bits))"],
                           capture_output=True, text=True, env=env, check=True)
    assert child.stdout.splitlines() == here["bits"]


# ----------------------------------------------------------------------
# typed argument errors
# ----------------------------------------------------------------------

_ATOM = AtomModel(resonances=((1.0, 0.02),))
_SPEC = CavitySpec(radius=0.05, host=VACUUM)
_ARGUMENT_ERRORS = {
    "quad_scale": (DomainError, lambda: integrate_semi_infinite(np.exp, scale=0.0)),
    "quad_bounds": (DomainError, lambda: integrate_finite(np.sin, 0.0, math.inf)),
    "quad_order": (DomainError, lambda: integrate_finite(np.sin, 2.0, 1.0)),
    "pair_free_space_inf": (GeometryError, lambda: pair_free_space(_ATOM, _ATOM, math.inf)),
    "pair_bulk_inf": (GeometryError, lambda: pair_bulk(_ATOM, _ATOM, VACUUM, math.inf)),
    "force_pair_inf": (GeometryError, lambda: force_pair(_ATOM, _ATOM, VACUUM, math.inf)),
    "u2_trace_shape": (DomainError, lambda: u2_single(_ATOM, _SPEC, lambda u: np.zeros(u.size + 1))),
    "u2_trace_scalar": (DomainError, lambda: u2_single(_ATOM, _SPEC, lambda u: 0.0)),
    "ring_one_atom": (GeometryError, lambda: n_atom_bulk([(_ATOM, [0.0, 0.0, 0.0])], VACUUM)),
    "ring_seven_atoms": (GeometryError, lambda: n_atom_bulk(
        [(_ATOM, [float(k), 0.0, 0.0]) for k in range(7)], VACUUM)),
    "dyad_vectors": (GeometryError, lambda: bulk_dyad(VACUUM, np.ones(4), np.zeros(3), 1.0)),
    # a NaN coordinate used to give a NaN matrix silently, an infinite one with a RuntimeWarning
    "dyad_nan": (GeometryError, lambda: bulk_dyad(VACUUM, [1.0, math.nan, 0.0], np.zeros(3), 1.0)),
    "dyad_inf": (GeometryError, lambda: bulk_dyad(VACUUM, np.zeros(3), [math.inf, 0.0, 0.0], 1.0)),
    "step_initial": (ConfigError, lambda: finite_difference_force(np.sin, 1.0, initial=0.0)),
    "step_initial_inf": (ConfigError, lambda: finite_difference_force(np.sin, 1.0, initial=math.inf)),
    "step_levels": (ConfigError, lambda: finite_difference_force(np.sin, 1.0, levels=0)),
}


@pytest.mark.parametrize("site", sorted(_ARGUMENT_ERRORS))
def test_argument_checks_raise_typed_errors(site):
    kind, call = _ARGUMENT_ERRORS[site]
    with pytest.raises(LfvdwError) as err:
        call()
    assert isinstance(err.value, kind)
    assert isinstance(err.value, ValueError)
