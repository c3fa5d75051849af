"""Real-cavity coefficients: reflection C_l(iu) and transmission D(iu).

An atom sits at the center of a small vacuum sphere of radius R_c carved
out of the host medium. The Mie-type coefficient C_l describes the field
reflected back onto the atom by the cavity wall, D the field transmitted
into the medium. On the imaginary axis both are real; here they are built
from exponentially scaled modified spherical Bessel combinations so no
complex arithmetic or overflow appears anywhere (see _kernels). An
independent test oracle evaluates the raw complex Mie expressions with
ordinary spherical Bessel functions at high precision and must agree.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, InvariantError, _check_radius
from .response import MediumResponse, _pos_nodes, _ret

__all__ = [
    "CavitySpec",
    "coeff_C_exact",
    "coeff_C_expansion",
    "coeff_D_exact",
    "coeff_D_leading",
]


@dataclass(frozen=True)
class CavitySpec:
    """Cavity radius (units c/w_ref) around an atom embedded in ``host``."""

    radius: float
    host: MediumResponse

    def __post_init__(self):
        _check_radius("cavity", self.radius)
        if self.radius * self.host.max_resonance > 0.5:
            warnings.warn(
                "cavity radius is not small against c/w_max; the real-cavity "
                "small-radius regime is questionable",
                stacklevel=2,
            )


def _d_leading(eps):
    """Local-field factor D = 3 eps/(2 eps + 1) of the small real cavity."""
    return 3.0 * eps / (2.0 * eps + 1.0)


def _finite(name: str, spec: CavitySpec, nodes, kernel, *args):
    """kernel(*args), numpy's float warnings silenced, if every value is
    finite; else an InvariantError naming the first bad node's u and R_c."""
    with np.errstate(all="ignore"):
        c = kernel(*args)
    if not np.isfinite(c).all():
        k = int(np.argmin(np.isfinite(c)))
        raise InvariantError(f"cavity coefficient {name} = {c[k]} at u = {nodes[k]:.6g}, R_c = "
                             f"{spec.radius:.6g} is not finite: outside the kernels' float range")
    return c


def coeff_C_exact(spec: CavitySpec, l: int, u):
    """Exact electric cavity reflection coefficient C_l(iu), l in {1, 2}.

    The magnetic coefficient is this one on the host with eps and mu
    interchanged; n = sqrt(eps mu) is the same, so it comes out bit for bit.
    Returns the real number C_l(iu); u may be a scalar or an array.
    """
    if l not in (1, 2):
        raise DomainError(f"cavity coefficient order l={l} not in {{1, 2}}")
    nodes, scalar = _pos_nodes(u)
    eps, _, n = spec.host._eps_mu_n(nodes)
    return _ret(_finite(f"C_{l}", spec, nodes, _kernels.cavity_c, spec.radius * nodes, n, eps, l),
                scalar)


def coeff_C_expansion(spec: CavitySpec, u):
    """Three-term small-radius form of C_1(iu) (electric, dipole order).

    Leading term 3(eps-1)/((2 eps + 1) (u R_c)^3); the neglected remainder
    is O(u R_c).
    """
    nodes, scalar = _pos_nodes(u)
    eps, mu, n = spec.host._eps_mu_n(nodes)
    t0 = spec.radius * nodes
    return _ret(_finite("C_1 expansion", spec, nodes, _kernels.cavity_c1_expansion, t0, eps, mu, n),
                scalar)


def coeff_D_exact(spec: CavitySpec, u):
    """Exact cavity-to-medium transmission factor D(iu).

    Real and positive in the regimes treated here; a non-finite or
    non-positive value, or a factor e^{(n-1) u R_c} beyond the float range,
    means the model left its domain of validity and raises rather than
    being silently accepted.
    """
    nodes, scalar = _pos_nodes(u)
    eps, mu, n = spec.host._eps_mu_n(nodes)
    t0 = spec.radius * nodes
    try:
        d = _finite("D", spec, nodes, _kernels.cavity_d, t0, n, eps, mu)
    except OverflowError:
        k = int(np.argmax((n - 1.0) * t0))
        raise InvariantError(
            f"transmission factor D(iu) overflows at u = {nodes[k]:.6g}, "
            f"R_c = {spec.radius:.6g}: e^((n-1) u R_c) is past the float range"
        ) from None
    if not d.min() > 0.0:
        k = int(np.argmin(d))
        raise InvariantError(
            f"transmission factor D(iu) = {d[k]:.6g} <= 0 at u = {nodes[k]:.6g}, "
            f"R_c = {spec.radius:.6g}; outside the model's validity range"
        )
    return _ret(d, scalar)


def coeff_D_leading(m: MediumResponse, u):
    """Small-radius limit of the transmission factor, 3 eps(iu)/(2 eps(iu) + 1).

    Independent of mu and of the cavity radius; defined for u >= 0.
    """
    return _d_leading(m.eps_iu(u))
