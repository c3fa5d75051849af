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

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import DomainError, GeometryError, InvariantError, PoleError, UnsupportedOrderError
from .response import MediumResponse, _as_nodes, _host_arrays, _ret

__all__ = [
    "CavitySpec",
    "coeff_C_exact",
    "coeff_C_expansion",
    "coeff_D_exact",
    "coeff_D_leading",
]

_KINDS = ("electric", "magnetic")


@dataclass(frozen=True)
class CavitySpec:
    """Cavity radius (units c/w_ref) around an atom embedded in ``host``."""

    radius: float
    host: MediumResponse

    def __post_init__(self):
        if not 0.0 < self.radius < math.inf:
            raise GeometryError("cavity radius must be finite and > 0")
        if self.radius * self.host.max_resonance > 0.5:
            warnings.warn(
                "cavity radius is not small against c/w_max; the real-cavity "
                "small-radius regime is questionable",
                stacklevel=2,
            )


def _pos_nodes(u):
    """_as_nodes, plus the pole of the cavity coefficients at u = 0."""
    nodes, scalar = _as_nodes(u)
    if nodes.size and nodes.min() == 0.0:
        raise PoleError("cavity coefficients are singular at u = 0; "
                        "supply the analytic limit instead")
    return nodes, scalar


def _d_leading(eps):
    """Local-field factor D = 3 eps/(2 eps + 1) of the small real cavity."""
    return 3.0 * eps / (2.0 * eps + 1.0)


def coeff_C_exact(spec: CavitySpec, l: int, u, kind: str = "electric"):
    """Exact cavity reflection coefficient C_l(iu), l in {1, 2}.

    The magnetic kind is the electric one with eps and mu interchanged.
    Returns the real number C_l(iu); u may be a scalar or an array.
    """
    if l not in (1, 2):
        raise UnsupportedOrderError(f"cavity coefficient order l={l} not in {{1, 2}}")
    if kind not in _KINDS:
        raise DomainError(f"kind must be one of {_KINDS}, got {kind!r}")
    nodes, scalar = _pos_nodes(u)
    eps, mu, n = _host_arrays(spec.host, nodes)
    e_like = eps if kind == "electric" else mu
    t0 = spec.radius * nodes
    return _ret(_kernels.cavity_c(t0, n, e_like, l), scalar)


def coeff_C_expansion(spec: CavitySpec, u):
    """Three-term small-radius form of C_1(iu) (electric, dipole order).

    Leading term 3(eps-1)/((2 eps + 1) (u R_c)^3); the neglected remainder
    is O(u R_c).
    """
    nodes, scalar = _pos_nodes(u)
    eps, mu, n = _host_arrays(spec.host, nodes)
    t0 = spec.radius * nodes
    return _ret(_kernels.cavity_c1_expansion(t0, eps, mu, n), scalar)


def coeff_D_exact(spec: CavitySpec, u):
    """Exact cavity-to-medium transmission factor D(iu).

    Real and positive in the regimes treated here; a non-positive value
    means the model left its domain of validity and raises rather than
    being silently accepted.
    """
    nodes, scalar = _pos_nodes(u)
    eps, mu, n = _host_arrays(spec.host, nodes)
    t0 = spec.radius * nodes
    d = _kernels.cavity_d(t0, n, eps, mu)
    if d.size and d.min() <= 0.0:
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
    nodes, scalar = _as_nodes(u)
    return _ret(_d_leading(m.eps_iu(nodes)), scalar)
