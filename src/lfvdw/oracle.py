"""Brute-force cross-checks: pairwise summation and numerical forces.

For a dilute host (number density rho of identical atoms, susceptibilities
chi = 4 pi rho alpha and zeta = 4 pi rho beta in reduced units) the
single-atom potential must equal the plain sum of two-atom potentials over
all host atoms outside the cavity,

    U1 = rho int_{R_c}^inf 4 pi s^2 [U_el(s) + U_mag(s)] ds,

with no reference to cavity coefficients. This module computes that sum
literally, as one adaptive radial integral over s = R_c + v, v in (0, inf),
with no cut-off and no asymptotic tail (over x = ln(s/R_c) for a body up to
R_o), and provides a Richardson-extrapolated finite-difference force as an
independent check on the analytic force integrands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import _kernels
from .errors import ConfigError, DomainError, GeometryError, _check_radius
from .green import BodyShell
from .potentials import pair_free_space
from .quadrature import QuadSpec, integrate_finite, integrate_semi_infinite
from .response import AtomModel, LorentzTerm, MediumResponse, scale_hint

__all__ = [
    "DiluteHost",
    "ForceEstimate",
    "u1_pairwise_sum",
    "total_pairwise_sum",
    "finite_difference_force",
]

_DILUTE_LIMIT = 0.01


@dataclass(frozen=True)
class DiluteHost:
    """Dilute gas of identical host atoms, rho per (c/w_ref)^3.

    The dilute invariants are enforced at construction: |chi(0)| < 0.01
    (chi peaks at u = 0 for undamped resonances) and 4 pi rho sum |b_k|
    < 0.01, which bounds |zeta(iu)| at every u.
    """

    density: float
    host_atom: AtomModel

    def __post_init__(self):
        if not self.density >= 0.0:
            raise DomainError("density must be >= 0")
        pref, atom = 4.0 * math.pi * self.density, self.host_atom
        for name, value in (("|chi(0)|", abs(pref * atom.alpha_static)),
                            ("|zeta(iu)| <= 4 pi rho sum|b_k|",
                             pref * sum(abs(b) for _, b in atom.beta_resonances))):
            if value >= _DILUTE_LIMIT:
                raise DomainError(f"{name} = {value:.3g} is not dilute (needs < {_DILUTE_LIMIT})")

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


def _radial_integrand(guest: AtomModel, host: DiluteHost, q: QuadSpec) -> Callable:
    """s^2 [U_el(s) + U_mag(s)] on the radial nodes, all from one vector u-integral."""
    # tighter inner tolerances keep u-quadrature noise below the radial error estimate
    inner = replace(q, rel_tol=q.rel_tol * 1e-2, abs_tol=q.abs_tol * 1e-2)

    def f(s):
        return s * s * pair_free_space(guest, host.host_atom, s, inner)

    return f


def u1_pairwise_sum(
    guest: AtomModel, host: DiluteHost, R_c: float, q: QuadSpec = QuadSpec()
) -> float:
    """Literal sum of guest-host pair potentials over every host atom
    outside the cavity: one semi-infinite radial integral in v = s - R_c,
    mapped with the larger of R_c and the retardation length 1/w_max."""
    _check_radius("cavity", R_c)
    if host.density == 0.0:
        return 0.0
    f = _radial_integrand(guest, host, q)
    scale = max(R_c, 1.0 / scale_hint(guest, host.host_atom))
    body = integrate_semi_infinite(lambda v: f(R_c + v), q, scale=scale).value
    return 4.0 * math.pi * host.density * body


def total_pairwise_sum(
    guest: AtomModel, host: DiluteHost, R_c: float, outer_radius: float, q: QuadSpec = QuadSpec()
) -> float:
    """Pairwise sum over the host atoms at R_c <= s <= outer_radius, in x = ln(s/R_c),
    where the s^-4 fall from the wall is e^{-3x}: a body from the cavity wall out.
    outer_radius == R_c gives exactly zero; an infinite one is u1_pairwise_sum."""
    _check_radius("cavity", R_c)
    if not outer_radius >= R_c:  # NaN too
        raise GeometryError(f"outer radius {outer_radius} is below the cavity radius {R_c}")
    if math.isinf(outer_radius):
        return u1_pairwise_sum(guest, host, R_c, q)
    if outer_radius == R_c or host.density == 0.0:
        return 0.0
    f = _radial_integrand(guest, host, q)

    def g(x):  # s = R_c e^x, ds = s dx
        s = R_c * _kernels._exp(x)
        return s * f(s)

    upper = math.log1p((outer_radius - R_c) / R_c)  # > 0 even one ulp past R_c
    return 4.0 * math.pi * host.density * integrate_finite(g, 0.0, upper, q).value


class ForceEstimate(NamedTuple):
    value: float
    err_est: float


def finite_difference_force(
    U: Callable[[np.ndarray], np.ndarray], point: float, initial: float = 1e-3, levels: int = 3
) -> ForceEstimate:
    """Numerical force -dU/dx at ``point`` with a Richardson error bar. U is
    called once, on the stencil point + h then point - h for the steps
    h = initial * 0.5**k, k = 0..levels, and returns one value per point;
    the table of central differences is Richardson-extrapolated."""
    if not 0.0 < initial < math.inf:
        raise ConfigError(f"initial step must be finite and > 0, got {initial}")
    if levels < 1:
        raise ConfigError("need at least one halving level")
    steps = [initial * 0.5**k for k in range(levels + 1)]
    stencil = np.array([point + h for h in steps] + [point - h for h in steps])
    values = np.asarray(U(stencil), dtype=np.float64)
    if values.shape != stencil.shape:
        raise DomainError(f"U must return one value per stencil point, got shape {values.shape}")
    plus, minus = values.reshape(2, -1).tolist()
    diffs = [(p - m) / (2.0 * h) for p, m, h in zip(plus, minus, steps)]
    table = [diffs]
    for j in range(1, len(diffs)):
        fac = 4.0**j
        prev = table[-1]
        table.append([(fac * prev[k + 1] - prev[k]) / (fac - 1.0) for k in range(len(prev) - 1)])
    best, prior = table[-1][0], table[-2][-1]
    return ForceEstimate(value=-best, err_est=abs(best - prior))
