"""Shared fixtures and test helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest

from lfvdw.quadrature import QuadSpec
from lfvdw.response import AtomModel, LorentzTerm, MediumResponse


class ConstantMedium:
    """Frequency-independent medium for limit checks.

    Duck-types the response interface; real media built from Lorentz
    terms always satisfy eps, mu >= 1 on the imaginary axis, so this is
    the only way to probe invariant guards with eps < 1.
    """

    def __init__(self, eps: float, mu: float = 1.0):
        self._eps = float(eps)
        self._mu = float(mu)
        self.max_resonance = 0.0

    def eps_iu(self, u):
        return np.full_like(np.asarray(u, dtype=float), self._eps)

    def mu_iu(self, u):
        return np.full_like(np.asarray(u, dtype=float), self._mu)

    def n_iu(self, u):
        return np.full_like(np.asarray(u, dtype=float), math.sqrt(self._eps * self._mu))


@pytest.fixture(scope="session")
def quad() -> QuadSpec:
    return QuadSpec()


@pytest.fixture(scope="session")
def atom_a() -> AtomModel:
    return AtomModel(resonances=((1.0, 0.02),))


@pytest.fixture(scope="session")
def atom_b() -> AtomModel:
    return AtomModel(
        resonances=((1.3, 0.015),),
        beta_resonances=((2.1, 0.004),),
    )


@pytest.fixture(scope="session")
def glass() -> MediumResponse:
    """Weakly magnetic dielectric used across the reference integrals."""
    return MediumResponse(
        eps_terms=(LorentzTerm(plasma_strength=1.5, resonance=1.2, damping=0.02),),
        mu_terms=(LorentzTerm(plasma_strength=0.2, resonance=2.0),),
    )
