"""Tests for the pairwise-sum and finite-difference reference tools."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from lfvdw import oracle, potentials
from lfvdw._kernels import _exp
from lfvdw.errors import ConfigError, DomainError, GeometryError
from lfvdw.green import BodyShell
from lfvdw.oracle import (
    DiluteHost,
    finite_difference_force,
    total_pairwise_sum,
    u1_pairwise_sum,
)
from lfvdw.potentials import pair_free_space, u1_linearized
from lfvdw.quadrature import QuadSpec, integrate_finite, integrate_semi_infinite
from lfvdw.response import AtomModel

HOST_ATOM = AtomModel(resonances=((1.0, 0.02),), beta_resonances=((1.5, 0.008),))


# ----------------------------------------------------------------------
# dilute host model
# ----------------------------------------------------------------------

def test_dilute_host_rejects_negative_density():
    with pytest.raises(DomainError):
        DiluteHost(density=-1e-3, host_atom=HOST_ATOM)
    with pytest.raises(DomainError):
        DiluteHost(density=float("nan"), host_atom=HOST_ATOM)


def test_dilute_host_rejects_dense_gas():
    # |chi(0)| = 4 pi rho alpha(0) must stay below 0.01
    limit = 0.01 / (4.0 * math.pi * 0.02)
    with pytest.raises(DomainError):
        DiluteHost(density=1.01 * limit, host_atom=HOST_ATOM)
    DiluteHost(density=0.99 * limit, host_atom=HOST_ATOM)


def test_to_medium_is_exact_for_single_poles():
    host = DiluteHost(density=0.005, host_atom=HOST_ATOM)
    medium = host.to_medium()
    u = np.geomspace(1e-4, 1e3, 60)
    np.testing.assert_allclose(medium.eps_iu(u), 1.0 + host.chi_iu(u), rtol=1e-15)
    np.testing.assert_allclose(medium.mu_iu(u), 1.0 + host.zeta_iu(u), rtol=1e-15)


def test_to_shell_carries_susceptibilities():
    host = DiluteHost(density=0.005, host_atom=HOST_ATOM)
    shell = host.to_shell(0.05, 8.0)
    assert isinstance(shell, BodyShell)
    assert shell.chi(0.7) == host.chi_iu(0.7)
    assert shell.zeta(0.7) == host.zeta_iu(0.7)


# ----------------------------------------------------------------------
# pairwise sums
# ----------------------------------------------------------------------

@pytest.mark.parametrize("R_c", [0.005, 0.05, 5.0, 50.0])
def test_pairwise_sum_equals_linearized_single_atom(atom_a, atom_b, R_c):
    # summing guest-host pair potentials over an infinite dilute gas must
    # reproduce the linearized cavity result; the two go through entirely
    # different integral representations. A cut-off radius plus a
    # closed-form retarded tail was 1.2e-10 off at R_c = 5 and 2.8e-7 at 50
    q = QuadSpec(rel_tol=1e-11)
    host = DiluteHost(density=1e-3, host_atom=atom_b)
    direct = u1_pairwise_sum(atom_a, host, R_c, q)
    linear = u1_linearized(atom_a, R_c, host.chi_iu, host.zeta_iu, q)
    assert direct == pytest.approx(linear, rel=4.0 * q.rel_tol, abs=0.0)


def test_infinite_body_defers_to_pairwise_sum(atom_a, quad):
    host = DiluteHost(density=0.003, host_atom=HOST_ATOM)
    assert total_pairwise_sum(atom_a, host, 0.05, math.inf, quad) == u1_pairwise_sum(
        atom_a, host, 0.05, quad
    )


def test_empty_body_gives_zero(atom_a, quad):
    host = DiluteHost(density=0.003, host_atom=HOST_ATOM)
    # the body ends at the cavity wall
    assert total_pairwise_sum(atom_a, host, 0.05, 0.05, quad) == 0.0
    zero = DiluteHost(density=0.0, host_atom=HOST_ATOM)
    assert total_pairwise_sum(atom_a, zero, 0.05, 5.0, quad) == 0.0


def test_pairwise_sum_geometry_guards(atom_a, quad):
    host = DiluteHost(density=0.003, host_atom=HOST_ATOM)
    with pytest.raises(GeometryError, match="cavity radius must be finite and > 0"):
        total_pairwise_sum(atom_a, host, 0.0, 5.0, quad)
    # an outer radius inside the cavity used to give 0.0
    for outer in (0.01, math.nan, -math.inf):
        with pytest.raises(GeometryError, match="is below the cavity radius 0.05$"):
            total_pairwise_sum(atom_a, host, 0.05, outer, quad)


def test_pairwise_sum_is_linear_in_density(atom_a, quad):
    thin = DiluteHost(density=0.001, host_atom=HOST_ATOM)
    thick = DiluteHost(density=0.003, host_atom=HOST_ATOM)
    u_lo = total_pairwise_sum(atom_a, thin, 0.05, 6.0, quad)
    u_hi = total_pairwise_sum(atom_a, thick, 0.05, 6.0, quad)
    assert u_hi == pytest.approx(3.0 * u_lo, rel=1e-10, abs=0.0)


def test_pairwise_sum_shells_add(atom_a, quad):
    host = DiluteHost(density=0.003, host_atom=HOST_ATOM)
    inner = total_pairwise_sum(atom_a, host, 0.05, 2.0, quad)
    outer = total_pairwise_sum(atom_a, host, 2.0, 9.0, quad)  # the shell 2 <= s <= 9
    full = total_pairwise_sum(atom_a, host, 0.05, 9.0, quad)
    assert inner + outer == pytest.approx(full, rel=1e-9, abs=0.0)


def test_pairwise_sum_converges_to_infinite_limit(atom_a, quad):
    host = DiluteHost(density=0.003, host_atom=HOST_ATOM)
    infinite = u1_pairwise_sum(atom_a, host, 0.05, quad)
    truncated = total_pairwise_sum(atom_a, host, 0.05, 40.0, quad)
    assert truncated == pytest.approx(infinite, rel=1e-4, abs=0.0)
    assert abs(truncated) < abs(infinite)  # tail of the attraction is missing


# ----------------------------------------------------------------------
# finite differences
# ----------------------------------------------------------------------

def test_finite_difference_exact_on_polynomials():
    est = finite_difference_force(lambda x: 3.0 * x * x, 1.5)
    assert est.value == pytest.approx(-9.0, rel=1e-12, abs=0.0)
    est = finite_difference_force(lambda x: x**4 - 2.0 * x, 2.0, 1e-2, 3)
    assert est.value == pytest.approx(-30.0, rel=1e-10, abs=0.0)


def test_finite_difference_constant_is_zero():
    est = finite_difference_force(lambda x: np.full_like(x, 42.0), 1.0)
    assert est.value == 0.0
    assert est.err_est == 0.0


def test_finite_difference_calls_u_once_with_the_stencil():
    calls = []

    def U(x):
        calls.append(x.copy())
        return x * x

    finite_difference_force(U, 2.0, 0.1, 3)
    assert len(calls) == 1
    steps = [0.1, 0.05, 0.025, 0.0125]
    assert calls[0].tolist() == [2.0 + h for h in steps] + [2.0 - h for h in steps]


@pytest.mark.parametrize("bad", [
    lambda x: 42.0,
    lambda x: x[:-1],
    lambda x: x[:, None],
    lambda x: np.stack([x, x]),
])
def test_finite_difference_rejects_wrong_shape(bad):
    with pytest.raises(DomainError, match="one value per stencil point"):
        finite_difference_force(bad, 1.0, 1e-2, 2)


def test_finite_difference_power_law():
    # the shape of a retarded pair potential
    est = finite_difference_force(lambda x: -1.0 / x**7, 2.0, 1e-2, 3)
    assert est.value == pytest.approx(-7.0 / 2.0**8, rel=1e-10, abs=0.0)
    assert est.err_est < 1e-8 * abs(est.value)


def test_step_policy_validation():
    # the step plan is checked before U is called
    def U(x):
        raise AssertionError("U called with an invalid step plan")

    for initial in (0.0, -1e-3, math.inf, math.nan):
        with pytest.raises(ConfigError, match="initial step must be finite and > 0"):
            finite_difference_force(U, 1.0, initial=initial)
    with pytest.raises(ConfigError, match="at least one halving level"):
        finite_difference_force(U, 1.0, levels=0)


def test_radial_integrand_is_one_u_integral_per_panel(monkeypatch, atom_a, quad):
    # the radial nodes of one call share one vector u-integral, and each
    # node's value is that node's free-space pair potential times s^2
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return integrate_semi_infinite(*args, **kwargs)

    monkeypatch.setattr(potentials, "integrate_semi_infinite", counting)
    host = DiluteHost(density=0.01, host_atom=HOST_ATOM)
    s = np.linspace(0.1, 3.0, 15)
    values = oracle._radial_integrand(atom_a, host, quad)(s)
    assert len(calls) == 1
    tight = replace(quad, rel_tol=1e-12, abs_tol=1e-300)
    for node, value in zip(s.tolist(), values.tolist()):
        pair = pair_free_space(atom_a, HOST_ATOM, node, tight)
        assert value == pytest.approx(node * node * pair, rel=1e-9, abs=0.0)


def test_pairwise_sum_makes_one_u_integral_per_radial_step(monkeypatch, atom_a, quad):
    # every radial integrand call in x = ln(s/R_c) (the 4 initial panels,
    # then each bisection) hands all of its nodes, as s = R_c e^x, to one
    # pair_free_space grid; at rel_tol 1e-12 the engine bisects
    radial, grids, u_integrals = [], [], []

    def finite(f, *args):
        def recorded(x):
            radial.append(x.copy())
            return f(x)

        return integrate_finite(recorded, *args)

    def pair(*args):
        grids.append(np.array(args[2], copy=True))
        return pair_free_space(*args)

    def semi_infinite(*args, **kwargs):
        u_integrals.append(args[0])
        return integrate_semi_infinite(*args, **kwargs)

    monkeypatch.setattr(oracle, "integrate_finite", finite)
    monkeypatch.setattr(oracle, "pair_free_space", pair)
    monkeypatch.setattr(potentials, "integrate_semi_infinite", semi_infinite)
    host = DiluteHost(density=0.01, host_atom=HOST_ATOM)
    for q in (quad, replace(quad, rel_tol=1e-12)):
        del radial[:], grids[:], u_integrals[:]
        total_pairwise_sum(atom_a, host, 0.05, 5.0, q)
        assert [x.size for x in radial] == [60] + [30] * (len(radial) - 1)
        assert len(grids) == len(u_integrals) == len(radial)
        assert all(np.array_equal(g, 0.05 * _exp(x)) for g, x in zip(grids, radial))
    assert len(radial) > 1


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-10])
@pytest.mark.parametrize("R_c, R_o", [(0.001, 10.0), (0.05, 10.0), (0.5, 100.0), (5.0, 10.0)])
@pytest.mark.parametrize("guest, host_atom", [("atom_a", "atom_a"), ("atom_b", "atom_a"),
                                              ("atom_a", "HOST_ATOM")])
def test_body_sum_meets_linearized_difference(request, guest, host_atom, R_c, R_o, rel_tol):
    # the literal sum over R_c <= s <= R_o against the closed radial form
    # u1_linearized(R_c) - u1_linearized(R_o), taken at rel_tol 1e-13;
    # guests with and without a beta pole, and one magnetic host atom
    guest = request.getfixturevalue(guest)
    host_atom = HOST_ATOM if host_atom == "HOST_ATOM" else request.getfixturevalue(host_atom)
    host = DiluteHost(density=1e-3, host_atom=host_atom)
    ref_q = QuadSpec(rel_tol=1e-13)
    reference = (u1_linearized(guest, R_c, host.chi_iu, host.zeta_iu, ref_q)
                 - u1_linearized(guest, R_o, host.chi_iu, host.zeta_iu, ref_q))
    body = total_pairwise_sum(guest, host, R_c, R_o, QuadSpec(rel_tol=rel_tol))
    assert body == pytest.approx(reference, rel=2.0 * rel_tol, abs=0.0)


def test_body_one_ulp_thick_is_finite_and_attractive(atom_b):
    host = DiluteHost(density=1e-3, host_atom=HOST_ATOM)
    for R_c in (0.05, 5.0):
        body = total_pairwise_sum(atom_b, host, R_c, math.nextafter(R_c, math.inf))
        assert math.isfinite(body) and body <= 0.0


def test_body_sum_on_glass_atoms_is_one_radial_step(monkeypatch, atom_a, atom_b, quad):
    # probe in a partner gas (the atoms of glass.yaml), R_c 0.05, R_o 10:
    # in x the s^-4 fall from the wall is e^{-3x}, which the initial panels
    # resolve; integrated in s, the engine bisected toward R_c
    grids = []

    def pair(*args):
        grids.append(np.size(args[2]))
        return pair_free_space(*args)

    monkeypatch.setattr(oracle, "pair_free_space", pair)
    total_pairwise_sum(atom_a, DiluteHost(density=0.03, host_atom=atom_b), 0.05, 10.0, quad)
    assert len(grids) <= 2


def test_infinite_body_hands_pair_free_space_whole_radial_steps(monkeypatch, atom_a, quad):
    # one semi-infinite radial integral: 105 initial nodes, then 30 per
    # bisection, each step one grid; no single-node probes for a cut-off
    grids = []

    def pair(*args):
        grids.append(np.size(args[2]))
        return pair_free_space(*args)

    monkeypatch.setattr(oracle, "pair_free_space", pair)
    host = DiluteHost(density=0.01, host_atom=HOST_ATOM)
    for R_c in (0.05, 5.0):
        grids.clear()
        u1_pairwise_sum(atom_a, host, R_c, quad)
        assert grids == [105] + [30] * (len(grids) - 1)
