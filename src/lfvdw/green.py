"""Dyadic Green tensors of the homogeneous magnetoelectric bulk.

The bulk dyad between two points at distance L, evaluated at w = iu in
reduced units, is

    G(iu) = (mu n u / 4 pi) e^{-y} [ a(y) I - b(y) vv ],    y = n u L,
    a(y) = 1/y + 1/y^2 + 1/y^3,    b(y) = 1/y + 3/y^2 + 3/y^3,

with v the unit separation vector. This is the complex form
(mu k / 4 pi) e^{ikL} [(1/x + i/x^2 - 1/x^3) I - ...] with k = i n u and
x = kL, which is real on the imaginary axis, so bulk_dyad returns it as
a real 3x3 float64 matrix. It calls _kernels.pair_dyads, the kernel that
also builds the legs of the N-atom ring, on the checked pair distances L
and dyads vv of _pair_geometry, the one builder of both pair geometries.

The traced two-point kernels (_kernels.kernel_g and kernel_h) are

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

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from .errors import DomainError, GeometryError, InvariantError, _check_radius
from .quadrature import QuadSpec
from .response import MediumResponse, _pos_nodes, _ret

__all__ = ["BodyShell", "bulk_dyad", "born_scatter_trace"]


def bulk_dyad(m: MediumResponse, r, rp, u: float) -> np.ndarray:
    """Bulk Green tensor G(r, rp, iu) of the infinite homogeneous medium,
    as a 3x3 float64 matrix; an entry past the float range is an InvariantError."""
    _, _, dist, vv = _pair_geometry((r, rp))
    nodes, scalar = _pos_nodes(u)
    if not scalar:
        raise DomainError("bulk dyad takes one frequency u")
    _, mu, n = m._eps_mu_n(nodes)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
        g = _kernels.pair_dyads(n * nodes, mu, dist, vv)[0, 0]
    if not np.isfinite(g).all():
        raise InvariantError(f"bulk dyad is not finite at separation {float(dist[0]):.6g}, "
                             f"u = {float(nodes[0]):.6g}: its 1/l^3 terms overflow")
    return g


def _pair_geometry(positions):
    """(first, second, dist, vv) of the P pairs of N points, atom k the k-th: index
    arrays, distances > 0 with a finite square, and (P, 3, 3) unit-vector dyads."""
    try:
        rows = [np.asarray(p, dtype=np.float64) for p in positions]
    except (TypeError, ValueError) as exc:
        raise GeometryError(f"positions must be 3-vectors of numbers: {exc}") from None
    for k, row in enumerate(rows):
        if row.shape != (3,):
            raise GeometryError(f"positions must be 3-vectors; atom {k} has shape {row.shape}")
        if not np.isfinite(row).all():
            raise GeometryError(f"atom {k} has a non-finite coordinate")
    pos = np.array(rows)
    first, second = np.array(list(itertools.combinations(range(len(rows)), 2)), dtype=np.intp).T
    with np.errstate(over="ignore"):  # checked below, so finite distances keep their bits
        sep = pos[second] - pos[first]
        dist = np.linalg.norm(sep, axis=1)
    for bad, what in ((dist == 0.0, "coincide"),
                      (dist == math.inf, "are too far apart: their squared distance overflows")):
        if bad.any():
            k = int(np.argmax(bad))
            raise GeometryError(f"atoms {first[k]} and {second[k]} {what}")
    v = sep / dist[:, None]
    return first, second, dist, v[:, :, None] * v[:, None, :]


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
        _check_radius("inner", self.inner_radius)
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
    nodes, scalar = _pos_nodes(u)

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
