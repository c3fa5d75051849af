"""Ground-state van der Waals potentials, coefficients and forces.

Reduced units throughout: energies in hbar*w_ref, lengths in c/w_ref,
frequencies in w_ref, polarizabilities in 4*pi*eps0*(c/w_ref)^3. The
integrals below are the imaginary-frequency forms; with alpha-hat the
reduced polarizability, W = [3 eps/(2 eps + 1)]^4 the local-field factor
and y = n(iu) u l:

    single atom   U1 = -(1/pi) int u^3 C_1(iu) alpha du
    pair, bulk    U  = -(1/(2 pi l^6)) int (alpha_A alpha_B / eps^2) W g(y) du
    retarded      U -> -C_r / l^7,  non-retarded U -> -C_nr / l^6

All quadratures go through the adaptive engine in quadrature.py with the
map scale set to the largest resonance frequency of the models
involved. Every corrected op takes the local-field factor D^2 per atom
from _local_field, which asserts D^2 in [1, 9/4] on every node.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cavity import CavitySpec, _d_leading, coeff_C_exact
from .errors import DomainError, GeometryError, InvariantError, _check_radius
from .green import _pair_geometry
from .quadrature import QuadSpec, integrate_semi_infinite
from .response import AtomModel, MediumResponse, _ret, scale_hint

__all__ = [
    "U1Expansion",
    "PairResult",
    "StiffnessResult",
    "u1_exact",
    "u1_expanded",
    "u1_linearized",
    "u2_single",
    "pair_free_space",
    "pair_bulk",
    "coeff_retarded",
    "coeff_nonretarded",
    "n_atom_bulk",
    "n_atom_orderings",
    "force_pair",
    "cavity_center_stiffness",
]

_BOUND_SLACK = 1e-9
_MAX_RING_ATOMS = 6


@dataclass(frozen=True)
class U1Expansion:
    """Small-radius cavity shift split into its R_c^-3 and R_c^-1 terms."""

    term_r3: float
    term_r1: float
    err_est: float
    evals: int

    @property
    def total(self) -> float:
        return self.term_r3 + self.term_r1


@dataclass(frozen=True)
class PairResult:
    """Two-atom potential with its quadrature error estimate; separation, U
    and err_est are arrays, one entry per separation, for a grid."""

    separation: float | np.ndarray
    U: float | np.ndarray
    corrected: bool
    err_est: float | np.ndarray
    evals: int


@dataclass(frozen=True)
class StiffnessResult:
    """Force constant K of the linear restoring/expelling force at the
    cavity center, with the small-radius two-term estimate alongside."""

    K: float
    K_small_radius: float
    classification: str
    err_est: float


def _local_field(eps, context: str):
    """D^2, the local-field factor each embedded atom's polarizability
    gains at leading order, D = 3 eps/(2 eps + 1); every value must lie in
    [1, 9/4], so a pair carries D^4 in [1, 81/16]. NaN fails the test too."""
    d2 = np.square(_d_leading(eps))
    if not (d2.min() >= 1.0 - _BOUND_SLACK and d2.max() <= 2.25 + _BOUND_SLACK):
        raise InvariantError(
            f"local-field factor D^2 {d2.min():.6g}..{d2.max():.6g} leaves [1, 9/4] in "
            f"{context}; the host response is outside the model's domain (eps below 1?)"
        )
    return d2


def _pair_weight(atom_a, atom_b, m, u: np.ndarray, corrected: bool, context: str):
    """(alpha_A alpha_B W / eps^2, n) on the nodes, with W = D^4 when
    corrected, else W = 1."""
    eps, _, n = m._eps_mu_n(u)
    phi = atom_a._alpha(u) * atom_b._alpha(u) / (eps * eps)
    if corrected:
        d2 = _local_field(eps, context)
        phi = phi * (d2 * d2)
    return phi, n


def _pair_integrand(atom_a, atom_b, m, l: np.ndarray, corrected: bool, kernel, context: str):
    """Bulk pair u-integrand, one column per separation in l: pair weight
    times kernel(n u l)."""

    def f(u):
        phi, n = _pair_weight(atom_a, atom_b, m, u, corrected, context)
        y = np.multiply.outer(n * u, l)  # an overflowed n u l is inf, where each kernel is 0
        return phi[:, None] * kernel(y)

    return f


def u1_exact(atom: AtomModel, spec: CavitySpec, q: QuadSpec = QuadSpec()) -> float:
    """Cavity-reflection shift U1 via the exact dipole coefficient C_1(iu)."""
    scale = scale_hint(atom, spec.host)

    def f(u):
        return -(1.0 / math.pi) * u * u * u * coeff_C_exact(spec, 1, u) * atom._alpha(u)

    return integrate_semi_infinite(f, q, scale=scale).value


def _small_radius_integrals(atom: AtomModel, spec: CavitySpec, q: QuadSpec, c: float, bracket):
    """int (eps-1)/d alpha du and int u^2 bracket(eps, mu)/d^2 alpha du with
    d = c eps + c - 1, as one two-component integral."""

    def f(u):
        eps, mu, _ = spec.host._eps_mu_n(u)
        alpha = atom._alpha(u)
        d = c * eps + (c - 1.0)
        return np.column_stack([(eps - 1.0) / d * alpha, u * u * bracket(eps, mu) / (d * d) * alpha])

    return integrate_semi_infinite(f, q, scale=scale_hint(atom, spec.host))


def u1_expanded(atom: AtomModel, spec: CavitySpec, q: QuadSpec = QuadSpec()) -> U1Expansion:
    """U1 from the two displayed small-radius terms, kept separate.

    The R_c^-3 term integrates (eps-1)/(2 eps+1) alpha; the R_c^-1 term
    integrates u^2 [eps^2(1-5 mu) + 3 eps + 1]/(2 eps+1)^2 alpha. A vacuum
    host makes both brackets vanish identically. A radius so small that
    U1 or its error estimate leaves the float range raises.
    """
    r = spec.radius
    res = _small_radius_integrals(
        atom, spec, q, 2.0, lambda eps, mu: eps * eps * (1.0 - 5.0 * mu) + 3.0 * eps + 1.0
    )
    (i3, i1), (e3, e1) = res.value.tolist(), res.err_est.tolist()
    pi_r3 = math.pi * r**3
    a3, a1 = (3.0 / pi_r3 if pi_r3 else math.inf), 9.0 / (5.0 * math.pi * r)
    out = U1Expansion(term_r3=-a3 * i3, term_r1=-a1 * i1, err_est=a3 * e3 + a1 * e1,
                      evals=res.evals)
    if not (math.isfinite(out.total) and math.isfinite(out.err_est)):
        raise InvariantError(f"u1_expanded: U1 = {out.total} is not finite at R_c = {r:.6g}; "
                             "the R_c^-3 term is past the float range")
    return out


def u1_linearized(
    atom: AtomModel,
    radius: float,
    chi,
    zeta,
    q: QuadSpec = QuadSpec(),
    scale: float | None = None,
) -> float:
    """U1 for a dilute host given directly by its susceptibilities.

    Linear in chi and zeta and valid at any u R_c, it keeps the full
    exponential cutoff:

        -(1/pi) int u^3 alpha e^{-2t} [ (1/t^3 + 2/t^2 + 1/t + 1/2) chi
                                       - (1/t + 1/2) zeta ] du,  t = u R_c,

    the bracket being half of _kernels.born_bracket at x = t.

    It equals the radial pairwise sum over host atoms identically, and the
    two-term small-radius form up to O(u R_c) and O(chi^2) differences.
    """
    _check_radius("cavity", radius)
    if scale is None:
        scale = scale_hint(atom)

    def f(u):
        xv = np.atleast_1d(np.asarray(chi(u), dtype=np.float64))
        zv = np.atleast_1d(np.asarray(zeta(u), dtype=np.float64))
        return -(0.5 / math.pi) * u * u * u * atom._alpha(u) * (
            _kernels.born_bracket(radius * u, xv, zv)
        )

    return integrate_semi_infinite(f, q, scale=scale).value


def u2_single(atom: AtomModel, spec: CavitySpec, scatter_trace, q: QuadSpec = QuadSpec()) -> float:
    """Scattering shift U2 = 2 int u^2 D^2 alpha Tr G^(1)(r_A, r_A, iu) du.

    scatter_trace maps an array of u > 0 nodes to the reduced scattering
    Green trace at the atom's position; D is the leading-order
    transmission factor, whose square is asserted to stay in [1, 9/4].
    In infinite bulk G^(1) and so U2 vanish.
    """
    scale = scale_hint(atom, spec.host)

    def f(u):
        d2 = _local_field(spec.host._eps_mu_n(u)[0], "u2_single")
        tr = np.asarray(scatter_trace(u), dtype=np.float64)
        if tr.shape != np.shape(u):
            raise DomainError("scatter_trace must return one value per node")
        return 2.0 * u * u * d2 * atom._alpha(u) * tr

    return integrate_semi_infinite(f, q, scale=scale).value


def pair_free_space(
    atom_a: AtomModel,
    atom_b: AtomModel,
    l: float | np.ndarray,
    q: QuadSpec = QuadSpec(),
) -> float | np.ndarray:
    """Two-atom potential in free space at separation l (a float), or at
    each separation of a 1-D grid l (an array).

    electric: -(1/(2 pi l^6)) int alpha_A alpha_B g(ul) du
    magnetic: +(1/(2 pi l^4)) int u^2 alpha_A beta_B h(ul) du

    The magnetic part couples atom A's polarizability to atom B's
    magnetizability; it is left out when atom B has no beta resonances.
    Both parts at every separation are one vector integral.
    """
    l, scalar = _guard_separation(l, None, "pair_free_space")
    mag = bool(atom_b.beta_resonances)

    def f(u):
        x = np.multiply.outer(u, l)  # an overflowed u l is inf, where both kernels are 0
        alpha = atom_a._alpha(u)
        cols = [(alpha * atom_b._alpha(u))[:, None] * _kernels.kernel_g(x)]
        if mag:
            cols.append((u * u * alpha * atom_b._beta(u))[:, None] * _kernels.kernel_h(x))
        return np.hstack(cols)

    res = integrate_semi_infinite(f, q, scale=scale_hint(atom_a, atom_b))
    raw = res.value.reshape(1 + mag, -1)  # one row per part
    total = -_over_power(raw[0], lambda: 2.0 * math.pi * (l * l) * (l * l) * (l * l), l,
                         "pair_free_space")
    if mag:
        total = total + _over_power(raw[1], lambda: 2.0 * math.pi * (l * l) * (l * l), l,
                                    "pair_free_space")
    return _ret(total, scalar)


def _over_power(raw: np.ndarray, norm, l: np.ndarray, context: str) -> np.ndarray:
    """raw / norm(), norm() the 2 pi l^n prefactor of the separations l, formed here
    with no RuntimeWarning: a quotient that is not finite (an l so small that its l^6
    or l^7 underflows) raises; an l so large that the prefactor overflows gives 0."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = raw / norm()
    if not np.isfinite(out).all():
        raise InvariantError(f"{context}: the result is not finite at the smallest separation "
                             f"{float(l.min()):.6g}: its 1/l^n prefactor overflows")
    return out


def _guard_separation(l, cavity_radius: float | None, context: str, stacklevel: int = 3):
    """Check a separation, or a 1-D grid of them, and return it as a 1-D
    float64 array with a flag for a scalar l, as response._as_nodes does.
    Below twice the cavity radius raises; within 5 cavity radii warns, once
    per call; stacklevel counts frames from this guard as warnings.warn does,
    so the default 3 names the caller of a public function that calls it."""
    arr = np.asarray(l, dtype=np.float64)
    if arr.ndim > 1 or arr.size == 0 or not np.all((arr > 0.0) & (arr < math.inf)):
        raise GeometryError(f"{context}: separation must be finite and > 0, as a number "
                            f"or a non-empty 1-D grid; got {l!r}")
    if cavity_radius is not None:
        smallest = float(arr.min())
        if smallest < 2.0 * cavity_radius:
            raise GeometryError(
                f"{context}: separation {smallest:.6g} is below twice the cavity radius "
                f"{cavity_radius:.6g}; the real-cavity picture does not apply"
            )
        near = int(np.count_nonzero(arr <= 5.0 * cavity_radius))
        if near:
            warnings.warn(
                f"{context}: {near} of {arr.size} separation(s) within 5 cavity radii, "
                f"the smallest {smallest:.6g}; local-field factors are only marginally local",
                stacklevel=stacklevel,
            )
    return np.atleast_1d(arr), arr.ndim == 0


def pair_bulk(
    atom_a: AtomModel,
    atom_b: AtomModel,
    m: MediumResponse,
    l: float | np.ndarray,
    q: QuadSpec = QuadSpec(),
    corrected: bool = True,
    cavity_radius: float | None = None,
) -> PairResult:
    """Two ground-state atoms embedded in a magnetoelectric bulk medium at
    separation l, or at each separation of a 1-D grid l as one vector integral.

    U = -(1/(2 pi l^6)) int (alpha_A alpha_B / eps^2) W g(n u l) du with
    W = [3 eps/(2 eps+1)]^4 when corrected, else W = 1. The pointwise
    ratio of corrected to uncorrected integrand is asserted to stay in
    [1, 81/16].
    """
    l, scalar = _guard_separation(l, cavity_radius, "pair_bulk")
    f = _pair_integrand(atom_a, atom_b, m, l, corrected, _kernels.kernel_g, "pair_bulk")
    res = integrate_semi_infinite(f, q, scale=scale_hint(atom_a, atom_b, m))

    def norm():
        return 2.0 * math.pi * (l * l * l) * (l * l * l)

    u_val = _attractive(-_over_power(res.value, norm, l, "pair_bulk"), "pair potential", l, scalar)
    return PairResult(
        separation=_ret(l, scalar),
        U=_ret(u_val, scalar),
        corrected=corrected,
        err_est=_ret(res.err_est / norm(), scalar),  # norm() is finite once U is
        evals=res.evals,
    )


def _attractive(values: np.ndarray, what: str, l: np.ndarray, scalar: bool) -> np.ndarray:
    """values, once every one is < 0: every factor of the pair integrands is
    positive. -0.0 raises too, as an underflowed integral attracts with nothing;
    the message names the first failing separation of l, and its index on a grid."""
    bad = values >= 0.0
    if bad.any():
        k = int(np.argmax(bad))
        point = "" if scalar else f" (point {k + 1} of {l.size})"
        raise InvariantError(f"{what} came out non-negative ({values[k]:.6g}) at separation "
                             f"{l[k]:.6g}{point}; ground-state atoms in an eps, mu >= 1 "
                             "medium must attract")
    return values


def coeff_retarded(atom_a: AtomModel, atom_b: AtomModel, m: MediumResponse) -> float:
    """Retarded coefficient C_r with U -> -C_r / l^7 for large l.

    Closed form in the static responses:
    C_r = (23/(4 pi)) alpha_A(0) alpha_B(0) / (n(0) eps(0)^2) W(0),
    with W(0) asserted to stay in [1, 81/16].
    """
    eps0, _, n0 = (float(v[0]) for v in m._eps_mu_n(np.zeros(1)))
    d2 = float(_local_field(eps0, "coeff_retarded"))
    return _positive_coeff(
        23.0 / (4.0 * math.pi) * atom_a.alpha_static * atom_b.alpha_static / (n0 * (eps0 * eps0))
        * (d2 * d2), "coeff_retarded")


def coeff_nonretarded(
    atom_a: AtomModel, atom_b: AtomModel, m: MediumResponse, q: QuadSpec = QuadSpec()
) -> float:
    """Non-retarded coefficient C_nr with U -> -C_nr / l^6 for small l.

    C_nr = (3/pi) int alpha_A alpha_B [3 eps/(2 eps+1)]^4 / eps^2 du, the
    local-field factor asserted to stay in [1, 81/16].
    """
    scale = scale_hint(atom_a, atom_b, m)

    def f(u):
        return _pair_weight(atom_a, atom_b, m, u, True, "coeff_nonretarded")[0]

    return _positive_coeff((3.0 / math.pi) * integrate_semi_infinite(f, q, scale=scale).value,
                           "coeff_nonretarded")


def _positive_coeff(c: float, context: str) -> float:
    if not 0.0 < c < math.inf:  # 0.0 once alpha_A alpha_B underflows, inf once it overflows
        raise InvariantError(f"{context} came out {c!r}, not finite and > 0: atoms must attract")
    return c


def _ring_setup(atoms, cavity_radius: float | None, context: str):
    """Validate an N-atom arrangement and precompute its pair geometry.

    Returns (models, orderings, dist, vv, legs, prefactor): the distinct
    atom cycles up to rotation and reflection, anchored at 0, as an
    (orderings, N) array; the P = N(N-1)/2 pair distances and vv outer
    products; and the (orderings, N) table of the pair index of every leg.
    """
    entries = list(atoms)
    n_atoms = len(entries)
    if n_atoms < 2:
        raise GeometryError(f"{context} needs at least two atoms; "
                            "use the single-atom operations for one")
    if n_atoms > _MAX_RING_ATOMS:
        raise GeometryError(f"ring symmetrization grows factorially; N <= {_MAX_RING_ATOMS}")
    models = [a for a, _ in entries]
    first, second, dist, vv = _pair_geometry([p for _, p in entries])
    _guard_separation(dist, cavity_radius, context, 5)  # 5 frames up: the public caller

    pair_index = np.empty((n_atoms, n_atoms), dtype=np.intp)
    pair_index[first, second] = pair_index[second, first] = np.arange(len(dist))
    perms = np.array(list(itertools.permutations(range(1, n_atoms))))
    perms = perms[perms[:, 0] <= perms[:, -1]]  # equal only for the one N = 2 cycle
    orderings = np.column_stack([np.zeros(len(perms), dtype=perms.dtype), perms])
    legs = pair_index[orderings, np.roll(orderings, -1, axis=1)]

    sign = -1.0 if n_atoms % 2 == 0 else 1.0
    pref = sign * (4.0 * math.pi) ** n_atoms / ((2.0 if n_atoms == 2 else 1.0) * math.pi)
    return models, orderings, dist, vv, legs, pref


def _ring_integrand(models, m: MediumResponse, dist, vv, legs, context: str):
    """Integrand of the orderings whose legs are the rows of legs, one
    column per ordering."""

    def f(u):
        eps, mu, n = m._eps_mu_n(u)
        d2 = _local_field(eps, context)
        weight = 1.0
        for model in models:  # (u^2 D^2)^N prod alpha_k; ** is a per-CPU SIMD pow
            weight = weight * u * u * d2 * model._alpha(u)
        out = weight[:, None] * _kernels.ring_trace(n * u, mu, dist, vv, legs)
        if not np.isfinite(out).all():
            raise InvariantError(f"{context}: the ring integrand is not finite at the smallest "
                                 f"separation {float(dist.min()):.6g}: its 1/l^3 dyads overflow")
        return out

    return f


def _ring_energies(atoms, m: MediumResponse, q: QuadSpec, cavity_radius, context: str):
    """(ordering, energy) of each distinct ring ordering, one component of a
    single vector integral with its own tolerance; context names the public
    function in errors and warnings, whose caller the separation warning names."""
    models, orderings, dist, vv, legs, pref = _ring_setup(atoms, cavity_radius, context)
    f = _ring_integrand(models, m, dist, vv, legs, context)
    energies = pref * integrate_semi_infinite(f, q, scale=scale_hint(m, *models)).value
    if len(models) == 2:  # the one N = 2 ring is the corrected pair potential
        _attractive(energies, "two-atom ring energy", dist, True)
    return [(tuple(o), e) for o, e in zip(orderings.tolist(), energies.tolist())]


def n_atom_bulk(
    atoms,
    m: MediumResponse,
    q: QuadSpec = QuadSpec(),
    cavity_radius: float | None = None,
) -> float:
    """N-atom ring potential in bulk medium, N in [2, 6].

    atoms is a sequence of (AtomModel, position). The fsum of the
    n_atom_orderings energies: the dyadic ring traces of all (N-1)!/2
    distinct orderings (one for N = 2) with the (-1)^(N-1) alternation and
    the double-counting factor 2 at N = 2.
    """
    return math.fsum(e for _, e in _ring_energies(atoms, m, q, cavity_radius, "n_atom_bulk"))


def n_atom_orderings(
    atoms,
    m: MediumResponse,
    q: QuadSpec = QuadSpec(),
    cavity_radius: float | None = None,
) -> list[tuple[tuple[int, ...], float]]:
    """Energy contribution of each distinct ring ordering, one component
    of a single vector integral with its own tolerance; their fsum is the
    N-atom potential."""
    return _ring_energies(atoms, m, q, cavity_radius, "n_atom_orderings")


def force_pair(
    atom_a: AtomModel,
    atom_b: AtomModel,
    m: MediumResponse,
    l: float | np.ndarray,
    q: QuadSpec = QuadSpec(),
    cavity_radius: float | None = None,
) -> float | np.ndarray:
    """Radial force -dU/dl on the corrected bulk pair potential, a float for
    one separation l, an array for a 1-D grid.

    Differentiates the integrand analytically. Every value pulls the atoms
    together, so one that is not negative, -0.0 included, raises.
    The cavity radius never enters the value, only the separation guard.
    """
    l, scalar = _guard_separation(l, cavity_radius, "force_pair")
    f = _pair_integrand(atom_a, atom_b, m, l, True, _kernels.kernel_force, "force_pair")
    res = integrate_semi_infinite(f, q, scale=scale_hint(atom_a, atom_b, m))
    force = -_over_power(res.value, lambda: 2.0 * math.pi * (l * l * l) * (l * l * l) * l, l,
                         "force_pair")
    return _ret(_attractive(force, "pair force", l, scalar), scalar)


def cavity_center_stiffness(
    atom: AtomModel, spec: CavitySpec, q: QuadSpec = QuadSpec()
) -> StiffnessResult:
    """Force constant of the linear force on an atom displaced from the
    cavity center, K = -(1/(3 pi)) int u^5 alpha C_2(iu) du.

    Positive K pushes the atom away from the center (unstable, purely
    dielectric hosts); negative K restores it (purely magnetic hosts).
    The small-radius two-term estimate is returned alongside; the exact
    quadrupole coefficient is authoritative for the classification, which
    is "neutral" only when |K| is within its error estimate.
    """
    scale = scale_hint(atom, spec.host)
    r = spec.radius

    def f(u):
        return u * u * u * u * u * coeff_C_exact(spec, 2, u) * atom._alpha(u)

    res = integrate_semi_infinite(f, q, scale=scale)
    k_exact = -res.value / (3.0 * math.pi)

    i5, i3 = _small_radius_integrals(
        atom, spec, q, 3.0, lambda eps, mu: eps * eps * (7.0 * mu + 3.0) - 6.0 * eps - 4.0
    ).value.tolist()
    k_small = (90.0 / r**5 * i5 - 75.0 / (7.0 * r**3) * i3) / (3.0 * math.pi)

    err = res.err_est / (3.0 * math.pi)
    kind = "neutral" if abs(k_exact) <= err else "unstable" if k_exact > 0.0 else "restoring"
    return StiffnessResult(K=k_exact, K_small_radius=k_small, classification=kind, err_est=err)
