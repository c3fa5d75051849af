"""Tests for the Lorentz response models on the imaginary frequency axis."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfvdw.errors import DomainError, LfvdwError
from lfvdw.response import VACUUM, AtomModel, LorentzTerm, MediumResponse, scale_hint


def test_vacuum_is_exactly_one():
    u = np.array([0.0, 0.3, 2.0, 50.0])
    assert np.all(VACUUM.eps_iu(u) == 1.0)
    assert np.all(VACUUM.mu_iu(u) == 1.0)
    assert np.all(VACUUM.n_iu(u) == 1.0)


def test_static_value_single_term():
    # S = w^2 makes eps(0) = 2
    m = MediumResponse(eps_terms=(LorentzTerm(plasma_strength=1.21, resonance=1.1),))
    assert m.eps_iu(0.0) == pytest.approx(2.0, rel=1e-15, abs=0.0)


def test_damped_term_at_unit_frequency():
    m = MediumResponse(
        eps_terms=(LorentzTerm(plasma_strength=3.0, resonance=1.0, damping=0.1),)
    )
    assert m.eps_iu(1.0) == pytest.approx(1.0 + 3.0 / 2.1, rel=1e-15, abs=0.0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    s=st.floats(min_value=1e-6, max_value=100.0),
    w=st.floats(min_value=1e-3, max_value=50.0),
    g=st.floats(min_value=0.0, max_value=5.0),
    u=st.floats(min_value=0.0, max_value=200.0),
)
def test_single_term_identity(s, w, g, u):
    m = MediumResponse(eps_terms=(LorentzTerm(plasma_strength=s, resonance=w, damping=g),))
    expected = 1.0 + s / (w * w + g * u + u * u)
    assert m.eps_iu(u) == pytest.approx(expected, rel=1e-14, abs=0.0)


def test_monotone_decrease_along_imaginary_axis():
    m = MediumResponse(
        eps_terms=(
            LorentzTerm(plasma_strength=2.0, resonance=0.8, damping=0.1),
            LorentzTerm(plasma_strength=0.5, resonance=3.0),
        ),
        mu_terms=(LorentzTerm(plasma_strength=0.3, resonance=1.5),),
    )
    u = np.geomspace(1e-4, 1e4, 200)
    for f in (m.eps_iu, m.mu_iu, m.n_iu):
        vals = f(u)
        assert np.all(np.diff(vals) < 0.0)
        assert np.all(vals > 1.0)
    assert m.n_iu(u)[-1] == pytest.approx(1.0, abs=1e-6)


def test_refractive_index_is_geometric_mean():
    m = MediumResponse(
        eps_terms=(LorentzTerm(plasma_strength=1.0, resonance=1.0),),
        mu_terms=(LorentzTerm(plasma_strength=0.5, resonance=2.0),),
    )
    u = np.linspace(0.0, 10.0, 11)
    assert np.allclose(m.n_iu(u), np.sqrt(m.eps_iu(u) * m.mu_iu(u)), rtol=1e-15)


def test_term_validation():
    with pytest.raises(ValueError):
        LorentzTerm(plasma_strength=1.0, resonance=0.0)
    with pytest.raises(ValueError):
        LorentzTerm(plasma_strength=-1.0, resonance=1.0)
    with pytest.raises(ValueError):
        LorentzTerm(plasma_strength=1.0, resonance=1.0, damping=-0.1)


def test_negative_frequency_rejected():
    with pytest.raises(DomainError):
        VACUUM.eps_iu(-0.5)
    with pytest.raises(DomainError):
        VACUUM.eps_iu(np.array([0.1, -0.1]))
    with pytest.raises(DomainError):
        VACUUM.eps_iu(np.nan)
    # non-finite nodes inside an array, and no nodes at all
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError, match="must be finite and >= 0"):
            VACUUM.eps_iu(np.array([0.1, bad, 2.0]))
    with pytest.raises(DomainError, match="must be finite and >= 0"):
        VACUUM.eps_iu(np.array([]))


def test_atom_polarizability():
    atom = AtomModel(resonances=((1.0, 0.02), (3.0, 0.005)))
    assert atom.alpha_static == pytest.approx(0.025, rel=1e-15, abs=0.0)
    assert atom.alpha_iu(0.0) == pytest.approx(0.025, rel=1e-15, abs=0.0)
    # each pole contributes a w^2/(w^2+u^2)
    expected = 0.02 / 2.0 + 0.005 * 9.0 / 10.0
    assert atom.alpha_iu(1.0) == pytest.approx(expected, rel=1e-15, abs=0.0)
    assert atom.beta_iu(1.0) == 0.0
    assert atom.beta_static == 0.0


def test_atom_with_magnetic_response():
    atom = AtomModel(resonances=((1.0, 0.02),), beta_resonances=((2.0, 0.004),))
    assert atom.beta_static == pytest.approx(0.004, rel=1e-15, abs=0.0)
    assert atom.beta_iu(2.0) == pytest.approx(0.002, rel=1e-15, abs=0.0)


def test_atom_validation():
    with pytest.raises(ValueError):
        AtomModel(resonances=((0.0, 0.02),))
    with pytest.raises(ValueError):
        AtomModel(resonances=((-1.0, 0.02),))


@pytest.mark.parametrize(
    "resonances, message",
    [
        ((), "resonances must not be empty"),
        (((1.0, 0.0),), "static strengths must be > 0"),
        (((1.0, 0.02), (3.0, -0.005)), "static strengths must be > 0"),
        (((1.0, float("nan")),), "static strengths must be > 0"),
    ],
    ids=["empty", "zero", "negative", "nan"],
)
def test_atom_needs_a_positive_polarizability(resonances, message):
    # an atom without polarizability gave -0 pair potentials and nan ratios
    with pytest.raises(DomainError, match=message):
        AtomModel(resonances=resonances, beta_resonances=((2.0, 0.004),))


@pytest.mark.parametrize(
    "make, field",
    [
        (lambda: LorentzTerm(plasma_strength=-1.0, resonance=1.0), "plasma_strength"),
        (lambda: LorentzTerm(plasma_strength=1.0, resonance=0.0), "resonance"),
        (lambda: LorentzTerm(plasma_strength=1.0, resonance=1.0, damping=-0.1), "damping"),
        (lambda: AtomModel(resonances=((0.0, 0.02),)), "resonances"),
        (lambda: AtomModel(resonances=((1.0, 0.02),), beta_resonances=((-2.0, 0.004),)),
         "beta_resonances"),
        # non-finite parameters used to construct, giving inf or nan responses
        (lambda: LorentzTerm(plasma_strength=math.inf, resonance=1.0), "plasma_strength"),
        (lambda: LorentzTerm(plasma_strength=1.0, resonance=math.inf), "resonance"),
        (lambda: LorentzTerm(plasma_strength=1.0, resonance=1.0, damping=math.inf), "damping"),
        (lambda: AtomModel(resonances=((1.0, math.inf),)), "resonances"),
        (lambda: AtomModel(resonances=((math.inf, 0.1),)), "resonances"),
        (lambda: AtomModel(resonances=((1.0, 0.02),), beta_resonances=((math.inf, 0.004),)),
         "beta_resonances"),
        (lambda: AtomModel(resonances=((1.0, 0.02),), beta_resonances=((2.0, math.inf),)),
         "beta_resonances"),
        (lambda: AtomModel(resonances=((1.0, 0.02),), beta_resonances=((2.0, math.nan),)),
         "beta_resonances"),
    ],
    ids=["strength", "resonance", "damping", "alpha-frequency", "beta-frequency",
         "strength-inf", "resonance-inf", "damping-inf", "alpha-strength-inf",
         "alpha-frequency-inf", "beta-frequency-inf", "beta-strength-inf", "beta-strength-nan"],
)
def test_model_validators_raise_domain_error(make, field):
    with pytest.raises(LfvdwError, match=f"^{field}[ :]") as err:
        make()
    assert err.type is DomainError


def test_scale_hint():
    atom = AtomModel(resonances=((1.0, 0.02), (3.0, 0.005)))
    m = MediumResponse(eps_terms=(LorentzTerm(plasma_strength=1.0, resonance=7.0),))
    assert scale_hint(atom, m) == 7.0
    assert scale_hint(VACUUM) == 1.0


def test_scalar_in_scalar_out():
    assert isinstance(VACUUM.eps_iu(1.0), float)
    arr = VACUUM.eps_iu(np.array([1.0, 2.0]))
    assert isinstance(arr, np.ndarray) and arr.shape == (2,)


_TERMS = st.lists(
    st.builds(LorentzTerm,
              plasma_strength=st.floats(min_value=0.0, max_value=50.0),
              resonance=st.floats(min_value=1e-3, max_value=20.0),
              damping=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=5.0))),
    min_size=1, max_size=3,
)
_POLES = st.lists(st.tuples(st.floats(min_value=1e-3, max_value=20.0),
                            st.floats(min_value=1e-6, max_value=1.0)), min_size=1, max_size=3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    eps_terms=_TERMS,
    mu_terms=_TERMS,
    resonances=_POLES,
    beta_resonances=_POLES,
    u=st.lists(st.floats(min_value=0.0, max_value=1e3), min_size=1, max_size=8),
)
def test_public_methods_are_the_node_level_forms(eps_terms, mu_terms, resonances,
                                                 beta_resonances, u):
    # a public method checks its nodes, then gives the node-level form's bits
    m = MediumResponse(eps_terms=eps_terms, mu_terms=mu_terms)
    atom = AtomModel(resonances=resonances, beta_resonances=beta_resonances)
    nodes = np.array([0.0, *u])
    eps, mu, n = m._eps_mu_n(nodes)
    for public, node_level in ((m.eps_iu, eps), (m.mu_iu, mu), (m.n_iu, n),
                               (atom.alpha_iu, atom._alpha(nodes)),
                               (atom.beta_iu, atom._beta(nodes))):
        assert np.array_equal(public(nodes), node_level)
        scalar = public(u[0])
        assert type(scalar) is float
        assert scalar == node_level[1]
