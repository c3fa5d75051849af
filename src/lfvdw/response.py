"""Material and atomic response functions on the imaginary frequency axis.

All quantities are dimensionless: frequencies in a reference unit w_ref,
lengths in c/w_ref, energies in hbar*w_ref, polarizability volumes in
4*pi*eps0*(c/w_ref)^3 and magnetizability volumes in (4*pi/mu0)*(c/w_ref)^3.
Evaluated at w = iu the Drude-Lorentz permittivity

    eps(iu) = 1 + sum_j S_j / (w_Tj^2 + g_j u + u^2)

is real, >= 1 and monotone decreasing in u, and likewise for mu(iu); the
atomic polarizability is a sum of undamped resonance terms

    alpha(iu) = sum_k a_k w_k^2 / (w_k^2 + u^2).

The model objects are frozen and hashable; every public method accepts a
number or a non-empty 1-D array of u >= 0, each with a finite square
(u <= sqrt(DBL_MAX) = 1.34e154), and returns a matching float or float64
array; any other u is a DomainError.

Nodes are checked once. Each public method checks its u with _as_nodes,
calls one node-level form and unwraps the result with _ret. The
node-level forms are MediumResponse._eps_mu_n (eps, mu and n together) and
AtomModel._alpha and _beta; they take a 1-D float64 array that is already
checked. Integrands call them directly on the quadrature engine's nodes.
A test fake host subclasses MediumResponse and overrides _eps_mu_n alone.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError

__all__ = ["LorentzTerm", "MediumResponse", "AtomModel", "VACUUM"]

_U_MAX = math.sqrt(sys.float_info.max)  # the largest u whose square u * u is finite


def _as_nodes(u):
    """Validate a number or a non-empty 1-D array of nodes 0 <= u <= _U_MAX
    and return (float64 array, was_scalar); the one node check of the package."""
    arr = np.asarray(u, dtype=np.float64)
    scalar = arr.ndim == 0
    if scalar:
        arr = arr.reshape(1)
    # NaN fails both comparisons, so this also rejects it
    if not (arr.ndim == 1 and arr.size and arr.min() >= 0.0 and arr.max() <= _U_MAX):
        raise DomainError(f"imaginary-axis frequency u must be finite and >= 0, with a finite "
                          f"square (u <= {_U_MAX:.6g}), as a number or a non-empty 1-D array")
    return arr, scalar


def _pos_nodes(u):
    """_as_nodes, plus u > 0: the cavity coefficients, the Born trace and
    the bulk dyad have a pole at u = 0."""
    nodes, scalar = _as_nodes(u)
    if nodes.min() == 0.0:
        raise DomainError("u must be > 0: the cavity coefficients, the Born trace "
                          "and the bulk dyad are singular at u = 0")
    return nodes, scalar


def _ret(values: np.ndarray, scalar: bool):
    """Undo _as_nodes: a float for scalar input, else the array."""
    return float(values[0]) if scalar else values


@dataclass(frozen=True)
class LorentzTerm:
    """One Drude-Lorentz oscillator S / (w_T^2 - w^2 - i g w).

    plasma_strength : S, units w_ref^2, >= 0
    resonance       : transverse resonance w_T, units w_ref, > 0
    damping         : g, units w_ref, >= 0
    Each must be finite.
    """

    plasma_strength: float
    resonance: float
    damping: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.plasma_strength < math.inf:
            raise DomainError("plasma_strength must be >= 0 and finite")
        if not 0.0 < self.resonance < math.inf:
            raise DomainError("resonance must be > 0 and finite")
        if not 0.0 <= self.damping < math.inf:
            raise DomainError("damping must be >= 0 and finite")


def _term_arrays(terms: tuple[LorentzTerm, ...]):
    return (
        np.array([t.plasma_strength for t in terms], dtype=np.float64),
        np.array([t.resonance for t in terms], dtype=np.float64),
        np.array([t.damping for t in terms], dtype=np.float64),
    )


def _pole_arrays(poles: tuple[tuple[float, float], ...]):
    """(strengths, frequencies) of (frequency, strength) pairs."""
    return (
        np.array([a for _, a in poles], dtype=np.float64),
        np.array([w for w, _ in poles], dtype=np.float64),
    )


@dataclass(frozen=True)
class MediumResponse:
    """Isotropic magnetoelectric medium as Lorentz sums for eps and mu."""

    eps_terms: tuple[LorentzTerm, ...] = ()
    mu_terms: tuple[LorentzTerm, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "eps_terms", tuple(self.eps_terms))
        object.__setattr__(self, "mu_terms", tuple(self.mu_terms))
        # Parameter arrays for the kernels; plain attributes, not fields,
        # so eq, hash and repr see only the terms.
        object.__setattr__(self, "_eps_arrays", _term_arrays(self.eps_terms))
        object.__setattr__(self, "_mu_arrays", _term_arrays(self.mu_terms))

    def _eps_mu_n(self, u: np.ndarray):
        """eps, mu and n = sqrt(eps mu) on a 1-D array of checked nodes."""
        eps = 1.0 + _kernels.lorentz_sum(u, *self._eps_arrays)
        mu = 1.0 + _kernels.lorentz_sum(u, *self._mu_arrays)
        return eps, mu, np.sqrt(eps * mu)

    def eps_iu(self, u):
        """Relative permittivity eps(iu) >= 1."""
        nodes, scalar = _as_nodes(u)
        return _ret(self._eps_mu_n(nodes)[0], scalar)

    def mu_iu(self, u):
        """Relative permeability mu(iu) >= 1."""
        nodes, scalar = _as_nodes(u)
        return _ret(self._eps_mu_n(nodes)[1], scalar)

    def n_iu(self, u):
        """Refractive index n(iu) = sqrt(eps(iu) mu(iu)) >= 1."""
        nodes, scalar = _as_nodes(u)
        return _ret(self._eps_mu_n(nodes)[2], scalar)

    @property
    def max_resonance(self) -> float:
        freqs = [t.resonance for t in self.eps_terms + self.mu_terms]
        return max(freqs) if freqs else 0.0


VACUUM = MediumResponse()


@dataclass(frozen=True)
class AtomModel:
    """Isotropic ground-state atom: polarizability resonances, optional
    magnetizability resonances of the same single-pole form.

    resonances      : non-empty tuple of (transition_frequency, static_strength),
                      every strength > 0, so that alpha(iu) > 0
    beta_resonances : tuple of (transition_frequency, static_strength),
                      empty for a purely electric atom
    Every frequency is > 0 and every value finite.
    """

    resonances: tuple[tuple[float, float], ...]
    beta_resonances: tuple[tuple[float, float], ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(
            self, "resonances", tuple((float(w), float(a)) for w, a in self.resonances)
        )
        object.__setattr__(
            self,
            "beta_resonances",
            tuple((float(w), float(b)) for w, b in self.beta_resonances),
        )
        if not self.resonances:
            raise DomainError("resonances must not be empty: an atom needs a polarizability")
        for name, poles in (("resonances", self.resonances),
                            ("beta_resonances", self.beta_resonances)):
            if not all(0.0 < w < math.inf for w, _ in poles):
                raise DomainError(f"{name}: transition frequencies must be > 0 and finite")
        if not all(0.0 < a < math.inf for _, a in self.resonances):
            raise DomainError("resonances: static strengths must be > 0 and finite")
        if not all(math.isfinite(b) for _, b in self.beta_resonances):
            raise DomainError("beta_resonances: static strengths must be finite")
        object.__setattr__(self, "_alpha_arrays", _pole_arrays(self.resonances))
        object.__setattr__(self, "_beta_arrays", _pole_arrays(self.beta_resonances))

    def _alpha(self, u: np.ndarray):
        """alpha (beta for _beta) on a 1-D array of checked nodes."""
        return _kernels.alpha_sum(u, *self._alpha_arrays)

    def _beta(self, u: np.ndarray):
        return _kernels.alpha_sum(u, *self._beta_arrays)

    def alpha_iu(self, u):
        """Polarizability alpha(iu), reduced units 4 pi eps0 (c/w_ref)^3."""
        nodes, scalar = _as_nodes(u)
        return _ret(self._alpha(nodes), scalar)

    def beta_iu(self, u):
        """Magnetizability beta(iu), reduced units (4 pi / mu0) (c/w_ref)^3."""
        nodes, scalar = _as_nodes(u)
        return _ret(self._beta(nodes), scalar)

    @property
    def alpha_static(self) -> float:
        return float(sum(a for _, a in self.resonances))

    @property
    def beta_static(self) -> float:
        return float(sum(b for _, b in self.beta_resonances))

    @property
    def max_resonance(self) -> float:
        return max(w for w, _ in self.resonances + self.beta_resonances)


def scale_hint(*models) -> float:
    """Largest resonance frequency among the given atom/medium models.

    Used as the quadrature transform scale so the node distribution covers
    the frequency range where the responses still differ from their static
    and high-frequency limits. Falls back to 1.0 for all-vacuum input.
    """
    top = max((m.max_resonance for m in models), default=0.0)
    return top if top > 0.0 else 1.0
