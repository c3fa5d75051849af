"""Dyadic Green tensors of the homogeneous magnetoelectric bulk.

The bulk dyad between two points at distance L, evaluated at w = iu in
reduced units, is

    G(iu) = (mu n u / 4 pi) e^{-y} [ a(y) I - b(y) vv ],    y = n u L,
    a(y) = 1/y + 1/y^2 + 1/y^3,    b(y) = 1/y + 3/y^2 + 3/y^3,

with v the unit separation vector. This is the complex form
(mu k / 4 pi) e^{ikL} [(1/x + i/x^2 - 1/x^3) I - ...] with k = i n u and
x = kL, which is real on the imaginary axis, so bulk_dyad returns a real
float64 matrix. It calls _kernels.pair_dyads, the kernel that also builds
the legs of the N-atom ring.

The traced two-point kernels are

    g(x) = 2 e^{-2x} (3 + 6x + 5x^2 + 2x^3 + x^4)      (electric)
    h(x) = 2 e^{-2x} (1 + 2x + x^2)                    (magnetic)

so that Tr[G G] = mu^2 g(y) / (16 pi^2 n^4 u^4 L^6).

born_scatter_trace gives the linear-Born scattering trace Tr G^(1)(r_A,
r_A, iu) for an atom centered in a homogeneous dilute sphere: zero for an
infinite body, and for a finite sphere of outer radius R_o the signed
radial integrals of g and h over the material missing beyond R_o. Both
have closed forms; with X = u R_o,

    int_X^inf g(x)/x^4 dx = e^{-2X} (2/X^3 + 4/X^2 + 2/X + 1)
    int_X^inf h(x)/x^2 dx = e^{-2X} (2/X + 1)

so that

    Tr G^(1) = u/(4 pi) e^{-2X} [(2/X^3 + 4/X^2 + 2/X + 1) chi - (2/X + 1) zeta].
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .errors import DomainError, GeometryError, PoleError, SingularityError
from .quadrature import QuadSpec
from .response import MediumResponse, _as_nodes, _host_arrays, _ret

__all__ = [
    "GreenDyad",
    "BodyShell",
    "bulk_dyad",
    "pair_kernel_g",
    "pair_kernel_h",
    "born_scatter_trace",
]


@dataclass(frozen=True)
class GreenDyad:
    """3x3 bulk Green tensor sample at imaginary frequency u (real float64)."""

    matrix: np.ndarray
    separation: np.ndarray
    frequency: float

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix))


def bulk_dyad(m: MediumResponse, r, rp, u: float) -> GreenDyad:
    """Bulk Green tensor G(r, rp, iu) of the infinite homogeneous medium."""
    r = np.asarray(r, dtype=np.float64)
    rp = np.asarray(rp, dtype=np.float64)
    if r.shape != (3,) or rp.shape != (3,):
        raise GeometryError("r and rp must be 3-vectors")
    if u == 0.0:
        raise PoleError("bulk dyad is singular at u = 0")
    if not u > 0.0:
        raise DomainError("bulk dyad requires u > 0")
    sep = r - rp
    dist = float(np.linalg.norm(sep))
    if dist == 0.0:
        raise SingularityError("bulk dyad is singular at coincident points")
    v = sep / dist

    nodes = np.array([u], dtype=np.float64)
    _, mu, n = _host_arrays(m, nodes)
    mat = _kernels.pair_dyads(n * nodes, mu, np.array([dist]), np.outer(v, v)[None])[0, 0]
    return GreenDyad(matrix=mat, separation=sep, frequency=float(u))


def pair_kernel_g(x):
    """Traced electric pair kernel g(x); g(0) = 6."""
    nodes, scalar = _as_nodes(x, "kernel argument x")
    return _ret(_kernels.kernel_g(nodes), scalar)


def pair_kernel_h(x):
    """Traced magnetic pair kernel h(x); h(0) = 2."""
    nodes, scalar = _as_nodes(x, "kernel argument x")
    return _ret(_kernels.kernel_h(nodes), scalar)


@dataclass(frozen=True)
class BodyShell:
    """Concentric dilute body around an atom at the origin.

    inner_radius is the cavity radius R_c, outer_radius the body radius
    (math.inf for infinite bulk). chi and zeta are the electric and
    magnetic density-susceptibilities chi(iu), zeta(iu) as callables of u.
    """

    inner_radius: float
    outer_radius: float
    chi: Callable = lambda u: np.zeros_like(np.asarray(u, dtype=np.float64))
    zeta: Callable = lambda u: np.zeros_like(np.asarray(u, dtype=np.float64))

    def __post_init__(self):
        if not self.inner_radius > 0.0:
            raise GeometryError("inner radius must be > 0")
        if not self.outer_radius >= self.inner_radius:
            raise GeometryError("outer radius must not be below inner radius")


def born_scatter_trace(shell: BodyShell, u, q: QuadSpec = QuadSpec()):
    """Linear-Born scattering trace Tr G^(1)(r_A, r_A, iu), atom at center.

    For an infinite body the unperturbed reference is the bulk itself and
    the trace is exactly zero. For a finite sphere of outer radius R_o the
    deviation from bulk is the missing material at s > R_o, giving

        chi(u)/(4 pi u^2) * I[g(us)/s^4] - zeta(u)/(4 pi) * I[h(us)/s^2]

    with I[.] the radial integral over [R_o, inf), evaluated in closed form
    (see the module docstring). Scalar or array u. ``q`` is not used, since
    nothing is integrated numerically; it stays in the signature because
    callers pass it positionally.
    """
    nodes, scalar = _as_nodes(u)
    if nodes.size and nodes.min() == 0.0:
        raise DomainError("born_scatter_trace requires u > 0")

    if math.isinf(shell.outer_radius):
        return _ret(np.zeros_like(nodes), scalar)

    chi = np.atleast_1d(np.asarray(shell.chi(nodes), dtype=np.float64))
    zeta = np.atleast_1d(np.asarray(shell.zeta(nodes), dtype=np.float64))
    big = np.abs(chi) > 0.1
    if big.any():
        k = int(np.argmax(big))
        warnings.warn(
            f"|chi(iu)| = {abs(chi[k]):.3g} at u = {nodes[k]:.3g} exceeds 0.1; "
            "the linear Born trace loses accuracy",
            stacklevel=2,
        )

    bracket = _kernels.born_bracket(nodes * shell.outer_radius, chi, zeta)
    return _ret(nodes / (4.0 * math.pi) * bracket, scalar)
