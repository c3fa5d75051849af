"""Shared fixtures and test helpers."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from lfvdw.quadrature import QuadSpec
from lfvdw.response import AtomModel, LorentzTerm, MediumResponse

# hypothesis's pytest hook imports this module, and with it libcst, when a
# property test fails. libcst's import warns, which the warnings-as-errors
# filter makes an exception the hook does not catch: the run would end in
# an INTERNALERROR. Imported once here, a failing property test fails alone.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


@dataclass(frozen=True, init=False)
class ConstantMedium(MediumResponse):
    """Frequency-independent medium for limit checks.

    Overrides only the node-level MediumResponse._eps_mu_n, so the public
    methods and every integrand check nodes as for a real host. Real media
    built from Lorentz terms always satisfy eps, mu >= 1 on the imaginary
    axis, so this is the only way to probe invariant guards with eps < 1.
    """

    eps: float = 1.0
    mu: float = 1.0

    def __init__(self, eps: float, mu: float = 1.0):
        super().__init__()
        object.__setattr__(self, "eps", float(eps))
        object.__setattr__(self, "mu", float(mu))

    def _eps_mu_n(self, u):
        n = math.sqrt(self.eps * self.mu)
        return np.full_like(u, self.eps), np.full_like(u, self.mu), np.full_like(u, n)


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
