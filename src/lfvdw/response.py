"""Material and atomic response functions on the imaginary frequency axis.

All quantities are dimensionless: frequencies in a reference unit w_ref,
lengths in c/w_ref, energies in hbar*w_ref, polarizability volumes in
4*pi*eps0*(c/w_ref)^3 and magnetizability volumes in (4*pi/mu0)*(c/w_ref)^3.
Evaluated at w = iu the Drude-Lorentz permittivity

    eps(iu) = 1 + sum_j S_j / (w_Tj^2 + g_j u + u^2)

is real, >= 1 and monotone decreasing in u, and likewise for mu(iu); the
atomic polarizability is a sum of undamped resonance terms

    alpha(iu) = sum_k a_k w_k^2 / (w_k^2 + u^2).

The model objects are frozen and hashable; every method accepts a scalar or
a 1-D array of u >= 0 and returns a matching float or float64 array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import DomainError

__all__ = ["LorentzTerm", "MediumResponse", "AtomModel", "VACUUM", "scale_hint"]


def _as_nodes(u, name: str = "imaginary-axis frequency u"):
    """Validate finite nodes >= 0 and return (float64 array, was_scalar).

    The one node check of the package; ``name`` says what the nodes are in
    the error message.
    """
    arr = np.asarray(u, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if arr.size and (not np.all(np.isfinite(arr)) or arr.min() < 0.0):
        raise DomainError(f"{name} must be finite and >= 0")
    return arr, scalar


def _ret(values: np.ndarray, scalar: bool):
    """Undo _as_nodes: a float for scalar input, else the array."""
    return float(values[0]) if scalar else values


def _host_arrays(host, u: np.ndarray):
    """eps, mu and n = sqrt(eps mu) of a host medium on a 1-D node array.

    Goes through the host's eps_iu/mu_iu, so any object with those
    methods serves as a host.
    """
    eps = host.eps_iu(u)
    mu = host.mu_iu(u)
    return eps, mu, np.sqrt(eps * mu)


@dataclass(frozen=True)
class LorentzTerm:
    """One Drude-Lorentz oscillator S / (w_T^2 - w^2 - i g w).

    plasma_strength : S, units w_ref^2, >= 0
    resonance       : transverse resonance w_T, units w_ref, > 0
    damping         : g, units w_ref, >= 0
    """

    plasma_strength: float
    resonance: float
    damping: float = 0.0

    def __post_init__(self):
        if not self.plasma_strength >= 0.0:
            raise DomainError("plasma_strength must be >= 0")
        if not self.resonance > 0.0:
            raise DomainError("resonance must be > 0")
        if not self.damping >= 0.0:
            raise DomainError("damping must be >= 0")


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

    def eps_iu(self, u):
        """Relative permittivity eps(iu) >= 1."""
        nodes, scalar = _as_nodes(u)
        return _ret(1.0 + _kernels.lorentz_sum(nodes, *self._eps_arrays), scalar)

    def mu_iu(self, u):
        """Relative permeability mu(iu) >= 1."""
        nodes, scalar = _as_nodes(u)
        return _ret(1.0 + _kernels.lorentz_sum(nodes, *self._mu_arrays), scalar)

    def n_iu(self, u):
        """Refractive index n(iu) = sqrt(eps(iu) mu(iu)) >= 1."""
        nodes, scalar = _as_nodes(u)
        return _ret(_host_arrays(self, nodes)[2], scalar)

    @property
    def max_resonance(self) -> float:
        freqs = [t.resonance for t in self.eps_terms + self.mu_terms]
        return max(freqs) if freqs else 0.0


VACUUM = MediumResponse()


@dataclass(frozen=True)
class AtomModel:
    """Isotropic ground-state atom: polarizability resonances, optional
    magnetizability resonances of the same single-pole form.

    resonances      : tuple of (transition_frequency, static_strength)
    beta_resonances : tuple of (transition_frequency, static_strength),
                      empty for a purely electric atom
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
        for w, _ in self.resonances + self.beta_resonances:
            if not w > 0.0:
                raise DomainError("transition frequencies must be > 0")
        object.__setattr__(self, "_alpha_arrays", _pole_arrays(self.resonances))
        object.__setattr__(self, "_beta_arrays", _pole_arrays(self.beta_resonances))

    def alpha_iu(self, u):
        """Polarizability alpha(iu), reduced units 4 pi eps0 (c/w_ref)^3."""
        nodes, scalar = _as_nodes(u)
        return _ret(_kernels.alpha_sum(nodes, *self._alpha_arrays), scalar)

    def beta_iu(self, u):
        """Magnetizability beta(iu), reduced units (4 pi / mu0) (c/w_ref)^3."""
        nodes, scalar = _as_nodes(u)
        return _ret(_kernels.alpha_sum(nodes, *self._beta_arrays), scalar)

    @property
    def alpha_static(self) -> float:
        return float(sum(a for _, a in self.resonances))

    @property
    def beta_static(self) -> float:
        return float(sum(b for _, b in self.beta_resonances))

    @property
    def max_resonance(self) -> float:
        freqs = [w for w, _ in self.resonances + self.beta_resonances]
        return max(freqs) if freqs else 0.0


def scale_hint(*models) -> float:
    """Largest resonance frequency among the given atom/medium models.

    Used as the quadrature transform scale so the node distribution covers
    the frequency range where the responses still differ from their static
    and high-frequency limits. Falls back to 1.0 for all-vacuum input.
    """
    top = max((m.max_resonance for m in models), default=0.0)
    return top if top > 0.0 else 1.0
