"""Brute-force cross-checks: pairwise summation and numerical forces.

For a dilute host (number density rho of identical atoms, susceptibilities
chi = 4 pi rho alpha and zeta = 4 pi rho beta in reduced units) the
single-atom potential must equal the plain sum of two-atom potentials over
all host atoms outside the cavity,

    U1 = rho int_{R_c}^inf 4 pi s^2 [U_el(s) + U_mag(s)] ds,

with no reference to cavity coefficients. This module computes that sum
literally, truncating the radial integral once the integrand is
negligible and adding the closed-form retarded tail, and provides a
Richardson-extrapolated finite-difference force as an independent check
on the analytic force integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .errors import ConfigError, DomainError, GeometryError
from .green import BodyShell
from .potentials import pair_free_space
from .quadrature import QuadSpec, integrate_finite
from .response import AtomModel, LorentzTerm, MediumResponse, scale_hint

__all__ = [
    "DiluteHost",
    "StepPolicy",
    "ForceEstimate",
    "u1_pairwise_sum",
    "total_pairwise_sum",
    "finite_difference_force",
]

_DILUTE_LIMIT = 0.01
_S_MAX_CAP = 1e7


@dataclass(frozen=True)
class DiluteHost:
    """Dilute gas of identical host atoms, rho per (c/w_ref)^3.

    The dilute invariant |chi(iu)| < 0.01 is enforced at construction
    (chi peaks at u = 0 for undamped resonances).
    """

    density: float
    host_atom: AtomModel

    def __post_init__(self):
        if not self.density >= 0.0:
            raise DomainError("density must be >= 0")
        chi0 = 4.0 * math.pi * self.density * self.host_atom.alpha_static
        if abs(chi0) >= _DILUTE_LIMIT:
            raise DomainError(
                f"|chi(0)| = {abs(chi0):.3g} is not dilute (needs < {_DILUTE_LIMIT})"
            )

    def chi_iu(self, u):
        """Electric density-susceptibility 4 pi rho alpha(iu)."""
        return 4.0 * math.pi * self.density * self.host_atom.alpha_iu(u)

    def zeta_iu(self, u):
        """Magnetic density-susceptibility 4 pi rho beta(iu)."""
        return 4.0 * math.pi * self.density * self.host_atom.beta_iu(u)

    def to_medium(self) -> MediumResponse:
        """Equivalent homogeneous medium, eps = 1 + chi and mu = 1 + zeta.

        Exact for the single-pole resonance model: each atomic resonance
        (w_k, a_k) becomes a Lorentz term with plasma strength
        4 pi rho a_k w_k^2 at the same resonance.
        """
        pref = 4.0 * math.pi * self.density
        eps_terms = tuple(
            LorentzTerm(plasma_strength=pref * a * w * w, resonance=w)
            for w, a in self.host_atom.resonances
        )
        mu_terms = tuple(
            LorentzTerm(plasma_strength=pref * b * w * w, resonance=w)
            for w, b in self.host_atom.beta_resonances
        )
        return MediumResponse(eps_terms=eps_terms, mu_terms=mu_terms)

    def to_shell(self, inner_radius: float, outer_radius: float) -> BodyShell:
        """Concentric body of this host material around a central atom."""
        return BodyShell(
            inner_radius=inner_radius,
            outer_radius=outer_radius,
            chi=self.chi_iu,
            zeta=self.zeta_iu,
        )


def _inner_spec(q: QuadSpec) -> QuadSpec:
    """Tighter tolerances for the pair potentials inside radial sums, so
    inner quadrature noise stays below the outer error estimate."""
    return replace(q, rel_tol=q.rel_tol * 1e-2, abs_tol=q.abs_tol * 1e-2)


def _radial_integrand(guest: AtomModel, host: DiluteHost, q: QuadSpec) -> Callable:
    inner = _inner_spec(q)

    def f(s_nodes):
        s_nodes = np.atleast_1d(np.asarray(s_nodes, dtype=np.float64))
        out = np.empty_like(s_nodes)
        for i, s in enumerate(s_nodes):
            out[i] = s * s * pair_free_space(
                guest, host.host_atom, float(s), inner, parts="both"
            )
        return out

    return f


def _retarded_tail(guest: AtomModel, host: DiluteHost, s_max: float) -> float:
    """Closed-form remainder of the radial sum beyond s_max.

    Uses the retarded asymptotes U_el -> -23 a_A a_h/(4 pi s^7) and
    U_mag -> +7 a_A b_h/(4 pi s^7), valid once s_max is deep in the
    retarded regime (enforced by the truncation criterion).
    """
    a = guest.alpha_static
    return (
        host.density
        * (-23.0 * a * host.host_atom.alpha_static + 7.0 * a * host.host_atom.beta_static)
        / (4.0 * s_max**4)
    )


def u1_pairwise_sum(
    guest: AtomModel, host: DiluteHost, R_c: float, q: QuadSpec = QuadSpec()
) -> float:
    """Literal sum of guest-host pair potentials outside the cavity."""
    if not R_c > 0.0:
        raise GeometryError("cavity radius must be > 0")
    if host.density == 0.0:
        return 0.0
    f = _radial_integrand(guest, host, q)
    pref = 4.0 * math.pi * host.density

    s_max = max(4.0 * R_c, 8.0 / scale_hint(guest, host.host_atom))
    while (
        abs(pref * f(np.array([s_max]))[0]) > q.abs_tol * 1e-2 and s_max < _S_MAX_CAP
    ):
        s_max *= 2.0
    body = integrate_finite(f, R_c, s_max, q).value
    return pref * body + _retarded_tail(guest, host, s_max)


def total_pairwise_sum(
    guest: AtomModel,
    host: DiluteHost,
    body: BodyShell,
    R_c: float,
    q: QuadSpec = QuadSpec(),
) -> float:
    """Pairwise sum over a finite concentric body, cavity excluded.

    The material occupies max(R_c, inner_radius) <= s <= outer_radius;
    an empty range gives exactly zero, an infinite body reduces to
    u1_pairwise_sum's truncated-plus-tail form.
    """
    if not R_c > 0.0:
        raise GeometryError("cavity radius must be > 0")
    lo = max(R_c, body.inner_radius)
    if math.isinf(body.outer_radius):
        if lo > R_c:
            raise GeometryError("infinite body with inner radius beyond the "
                                "cavity is not a supported geometry")
        return u1_pairwise_sum(guest, host, R_c, q)
    if body.outer_radius <= lo or host.density == 0.0:
        return 0.0
    f = _radial_integrand(guest, host, q)
    pref = 4.0 * math.pi * host.density
    return pref * integrate_finite(f, lo, body.outer_radius, q).value


@dataclass(frozen=True)
class StepPolicy:
    """Central-difference step plan: start at ``initial``, halve ``levels``
    times, Richardson-extrapolate the table."""

    initial: float = 1e-3
    levels: int = 3

    def __post_init__(self):
        if not self.initial > 0.0:
            raise ConfigError("initial step must be > 0")
        if self.levels < 1:
            raise ConfigError("need at least one halving level")


class ForceEstimate(NamedTuple):
    value: float
    err_est: float


def finite_difference_force(
    U: Callable[[float], float], point: float, step_policy: StepPolicy = StepPolicy()
) -> ForceEstimate:
    """Numerical force -dU/dx at ``point`` with a Richardson error bar."""
    h = step_policy.initial
    diffs = []
    for _ in range(step_policy.levels + 1):
        diffs.append((U(point + h) - U(point - h)) / (2.0 * h))
        h *= 0.5
    table = [diffs]
    for j in range(1, len(diffs)):
        fac = 4.0**j
        prev = table[-1]
        table.append([(fac * prev[k + 1] - prev[k]) / (fac - 1.0) for k in range(len(prev) - 1)])
    best = table[-1][0]
    prior = table[-2][-1] if len(table) > 1 else best
    return ForceEstimate(value=-best, err_est=abs(best - prior))
