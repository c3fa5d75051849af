"""Tests for the Lorentz response models on the imaginary frequency axis."""

from __future__ import annotations

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
    "make",
    [
        lambda: LorentzTerm(plasma_strength=-1.0, resonance=1.0),
        lambda: LorentzTerm(plasma_strength=1.0, resonance=0.0),
        lambda: LorentzTerm(plasma_strength=1.0, resonance=1.0, damping=-0.1),
        lambda: AtomModel(resonances=((0.0, 0.02),)),
        lambda: AtomModel(resonances=((1.0, 0.02),), beta_resonances=((-2.0, 0.004),)),
    ],
    ids=["strength", "resonance", "damping", "alpha-frequency", "beta-frequency"],
)
def test_model_validators_raise_domain_error(make):
    with pytest.raises(LfvdwError) as err:
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
