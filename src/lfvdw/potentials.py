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
involved, and every corrected integrand asserts its local-field
enhancement bounds pointwise while it is being integrated.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .cavity import CavitySpec, _d_leading, coeff_C_exact, coeff_D_leading
from .errors import DomainError, GeometryError, InvariantError
from .quadrature import QuadSpec, integrate_semi_infinite
from .response import AtomModel, MediumResponse, _host_arrays, scale_hint

__all__ = [
    "U1Expansion",
    "SingleAtomResult",
    "PairResult",
    "StiffnessResult",
    "u1_exact",
    "u1_expanded",
    "u1_linearized",
    "u2_single",
    "single_atom_total",
    "pair_free_space",
    "pair_bulk",
    "coeff_retarded",
    "coeff_nonretarded",
    "n_atom_bulk",
    "n_atom_orderings",
    "force_pair",
    "cavity_center_stiffness",
]

_SINGLE_BOUND = 9.0 / 4.0
_PAIR_BOUND = 81.0 / 16.0
_BOUND_SLACK = 1e-9
_MAX_RING_ATOMS = 6
_PARTS = ("electric", "magnetic", "both")


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
class SingleAtomResult:
    """Single embedded atom: cavity part U1, scattering part U2."""

    U1: float
    U2: float
    total: float
    term_r3: float
    term_r1: float

    def __post_init__(self):
        if self.total != self.U1 + self.U2:
            raise InvariantError("total must equal U1 + U2 exactly")


@dataclass(frozen=True)
class PairResult:
    """Two-atom potential sample with its quadrature error estimate."""

    separation: float
    U: float
    corrected: bool
    err_est: float
    evals: int


@dataclass(frozen=True)
class StiffnessResult:
    """Force constant K of the linear restoring/expelling force at the
    cavity center, with the small-radius two-term estimate alongside."""

    K: float
    K_small_radius: float
    classification: str
    err_est: float


def _check_ratio(w: np.ndarray, bound: float, context: str):
    if w.size == 0:
        return
    if w.min() < 1.0 - _BOUND_SLACK or w.max() > bound + _BOUND_SLACK:
        raise InvariantError(
            f"local-field enhancement {w.min():.6g}..{w.max():.6g} leaves "
            f"[1, {bound:.6g}] in {context}; the host response is outside "
            "the model's domain (eps or mu below 1?)"
        )


def _pair_weight(atom_a, atom_b, m, u: np.ndarray, corrected: bool, context: str):
    """(alpha_A alpha_B W / eps^2, n) on the nodes, with W = D^4 asserted
    to stay in [1, 81/16] when corrected, else W = 1."""
    eps, _, n = _host_arrays(m, u)
    phi = atom_a.alpha_iu(u) * atom_b.alpha_iu(u) / eps**2
    if corrected:
        w = _d_leading(eps) ** 4
        _check_ratio(w, _PAIR_BOUND, context)
        phi = phi * w
    return phi, n


def u1_exact(atom: AtomModel, spec: CavitySpec, q: QuadSpec = QuadSpec()) -> float:
    """Cavity-reflection shift U1 via the exact dipole coefficient C_1(iu)."""
    scale = scale_hint(atom, spec.host)

    def f(u):
        return -(1.0 / math.pi) * u**3 * coeff_C_exact(spec, 1, u) * atom.alpha_iu(u)

    return integrate_semi_infinite(f, q, scale=scale).value


def u1_expanded(atom: AtomModel, spec: CavitySpec, q: QuadSpec = QuadSpec()) -> U1Expansion:
    """U1 from the two displayed small-radius terms, kept separate.

    The R_c^-3 term integrates (eps-1)/(2 eps+1) alpha; the R_c^-1 term
    integrates u^2 [eps^2(1-5 mu) + 3 eps + 1]/(2 eps+1)^2 alpha. A vacuum
    host makes both brackets vanish identically.
    """
    scale = scale_hint(atom, spec.host)
    r = spec.radius

    def f3(u):
        eps, _, _ = _host_arrays(spec.host, u)
        return (eps - 1.0) / (2.0 * eps + 1.0) * atom.alpha_iu(u)

    def f1(u):
        eps, mu, _ = _host_arrays(spec.host, u)
        bracket = eps * eps * (1.0 - 5.0 * mu) + 3.0 * eps + 1.0
        return u**2 * bracket / (2.0 * eps + 1.0) ** 2 * atom.alpha_iu(u)

    i3 = integrate_semi_infinite(f3, q, scale=scale)
    i1 = integrate_semi_infinite(f1, q, scale=scale)
    return U1Expansion(
        term_r3=-(3.0 / (math.pi * r**3)) * i3.value,
        term_r1=-(9.0 / (5.0 * math.pi * r)) * i1.value,
        err_est=(3.0 / (math.pi * r**3)) * i3.err_est
        + (9.0 / (5.0 * math.pi * r)) * i1.err_est,
        evals=i3.evals + i1.evals,
    )


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
    if not radius > 0.0:
        raise GeometryError("cavity radius must be > 0")
    if scale is None:
        scale = scale_hint(atom)

    def f(u):
        xv = np.atleast_1d(np.asarray(chi(u), dtype=np.float64))
        zv = np.atleast_1d(np.asarray(zeta(u), dtype=np.float64))
        return -(0.5 / math.pi) * u * u * u * atom.alpha_iu(u) * (
            _kernels.born_bracket(radius * u, xv, zv)
        )

    return integrate_semi_infinite(f, q, scale=scale).value


def u2_single(atom: AtomModel, spec: CavitySpec, scatter_trace, q: QuadSpec = QuadSpec()) -> float:
    """Scattering shift U2 = 2 int u^2 D^2 alpha Tr G^(1)(r_A, r_A, iu) du.

    scatter_trace maps an array of u > 0 nodes to the reduced scattering
    Green trace at the atom's position; D is the leading-order
    transmission factor, whose square is asserted to stay in [1, 9/4].
    """
    scale = scale_hint(atom, spec.host)

    def f(u):
        d2 = coeff_D_leading(spec.host, u) ** 2
        _check_ratio(d2, _SINGLE_BOUND, "u2_single")
        tr = np.asarray(scatter_trace(u), dtype=np.float64)
        if tr.shape != np.shape(u):
            raise DomainError("scatter_trace must return one value per node")
        return 2.0 * u**2 * d2 * atom.alpha_iu(u) * tr

    return integrate_semi_infinite(f, q, scale=scale).value


def single_atom_total(
    atom: AtomModel, spec: CavitySpec, scatter_trace, q: QuadSpec = QuadSpec()
) -> SingleAtomResult:
    """U1 + U2 for one embedded atom, with the U1 term breakdown attached."""
    expansion = u1_expanded(atom, spec, q)
    u1 = expansion.total
    u2 = u2_single(atom, spec, scatter_trace, q)
    return SingleAtomResult(
        U1=u1,
        U2=u2,
        total=u1 + u2,
        term_r3=expansion.term_r3,
        term_r1=expansion.term_r1,
    )


def pair_free_space(
    atom_a: AtomModel,
    atom_b: AtomModel,
    l: float,
    q: QuadSpec = QuadSpec(),
    parts: str = "both",
) -> float:
    """Two-atom potential in free space at separation l.

    electric: -(1/(2 pi l^6)) int alpha_A alpha_B g(ul) du
    magnetic: +(1/(2 pi l^4)) int u^2 alpha_A beta_B h(ul) du

    The magnetic part couples atom A's polarizability to atom B's
    magnetizability; it vanishes when atom B has no beta resonances.
    """
    if not l > 0.0:
        raise GeometryError("separation must be > 0")
    if parts not in _PARTS:
        raise DomainError(f"parts must be one of {_PARTS}, got {parts!r}")
    scale = scale_hint(atom_a, atom_b)
    total = 0.0
    if parts in ("electric", "both"):

        def f_el(u):
            return atom_a.alpha_iu(u) * atom_b.alpha_iu(u) * _kernels.kernel_g(u * l)

        total -= integrate_semi_infinite(f_el, q, scale=scale).value / (
            2.0 * math.pi * l**6
        )
    if parts in ("magnetic", "both") and atom_b.beta_resonances:

        def f_mag(u):
            return u**2 * atom_a.alpha_iu(u) * atom_b.beta_iu(u) * _kernels.kernel_h(u * l)

        total += integrate_semi_infinite(f_mag, q, scale=scale).value / (
            2.0 * math.pi * l**4
        )
    return total


def _guard_separation(l: float, cavity_radius: float | None, context: str):
    if cavity_radius is None:
        return
    if l < 2.0 * cavity_radius:
        raise GeometryError(
            f"{context}: separation {l:.6g} is below twice the cavity radius "
            f"{cavity_radius:.6g}; the real-cavity picture does not apply"
        )
    if l <= 5.0 * cavity_radius:
        warnings.warn(
            f"{context}: separation {l:.6g} is within 5 cavity radii; "
            "local-field factors are only marginally local",
            stacklevel=3,
        )


def pair_bulk(
    atom_a: AtomModel,
    atom_b: AtomModel,
    m: MediumResponse,
    l: float,
    q: QuadSpec = QuadSpec(),
    corrected: bool = True,
    cavity_radius: float | None = None,
) -> PairResult:
    """Two ground-state atoms embedded in a magnetoelectric bulk medium.

    U = -(1/(2 pi l^6)) int (alpha_A alpha_B / eps^2) W g(n u l) du with
    W = [3 eps/(2 eps+1)]^4 when corrected, else W = 1. The pointwise
    ratio of corrected to uncorrected integrand is asserted to stay in
    [1, 81/16].
    """
    if not l > 0.0:
        raise GeometryError("separation must be > 0")
    _guard_separation(l, cavity_radius, "pair_bulk")
    scale = scale_hint(atom_a, atom_b, m)

    def f(u):
        phi, n = _pair_weight(atom_a, atom_b, m, u, corrected, "pair_bulk")
        return phi * _kernels.kernel_g(n * u * l)

    res = integrate_semi_infinite(f, q, scale=scale)
    u_val = -res.value / (2.0 * math.pi * l**6)
    if u_val > 0.0:
        raise InvariantError(
            f"pair potential came out positive ({u_val:.6g}); ground-state "
            "atoms in an eps, mu >= 1 medium must attract"
        )
    return PairResult(
        separation=l,
        U=u_val,
        corrected=corrected,
        err_est=res.err_est / (2.0 * math.pi * l**6),
        evals=res.evals,
    )


def coeff_retarded(atom_a: AtomModel, atom_b: AtomModel, m: MediumResponse) -> float:
    """Retarded coefficient C_r with U -> -C_r / l^7 for large l.

    Closed form in the static responses:
    C_r = (23/(4 pi)) alpha_A(0) alpha_B(0) / (n(0) eps(0)^2) W(0),
    with W(0) asserted to stay in [1, 81/16].
    """
    eps0 = m.eps_iu(0.0)
    n0 = m.n_iu(0.0)
    w0 = _d_leading(eps0) ** 4
    _check_ratio(np.asarray(w0), _PAIR_BOUND, "coeff_retarded")
    return (
        23.0
        / (4.0 * math.pi)
        * atom_a.alpha_static
        * atom_b.alpha_static
        / (n0 * eps0**2)
        * w0
    )


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

    return (3.0 / math.pi) * integrate_semi_infinite(f, q, scale=scale).value


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
        raise GeometryError(
            f"ring symmetrization grows factorially; N <= {_MAX_RING_ATOMS}"
        )
    models = [a for a, _ in entries]
    pos = np.array([np.asarray(p, dtype=np.float64) for _, p in entries])
    if pos.shape != (n_atoms, 3):
        raise GeometryError("positions must be 3-vectors")
    bad = ~np.isfinite(pos).all(axis=1)
    if bad.any():
        raise GeometryError(f"atom {int(np.argmax(bad))} has a non-finite coordinate")
    first, second = np.triu_indices(n_atoms, 1)
    sep = pos[second] - pos[first]
    dist = np.linalg.norm(sep, axis=1)
    for i, j, d in zip(first.tolist(), second.tolist(), dist.tolist()):
        if d == 0.0:
            raise GeometryError(f"atoms {i} and {j} coincide")
        _guard_separation(d, cavity_radius, context)
    v = sep / dist[:, None]
    vv = v[:, :, None] * v[:, None, :]

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
    """Integrand summed over the orderings whose legs are the rows of legs."""
    n_atoms = len(models)

    def f(u):
        eps, mu, n = _host_arrays(m, u)
        d2 = _d_leading(eps) ** 2
        _check_ratio(d2, _SINGLE_BOUND, context)
        weight = (u**2 * d2) ** n_atoms
        for model in models:
            weight = weight * model.alpha_iu(u)
        return weight * _kernels.ring_trace(n * u, mu, dist, vv, legs).sum(axis=1)

    return f


def n_atom_bulk(
    atoms,
    m: MediumResponse,
    q: QuadSpec = QuadSpec(),
    cavity_radius: float | None = None,
) -> float:
    """N-atom ring potential in bulk medium, N in [2, 6].

    atoms is a sequence of (AtomModel, position). Sums the dyadic ring
    traces over all (N-1)!/2 distinct orderings (one for N = 2) with the
    (-1)^(N-1) alternation and the double-counting factor 2 at N = 2.
    """
    models, _, dist, vv, legs, pref = _ring_setup(atoms, cavity_radius, "n_atom_bulk")
    f = _ring_integrand(models, m, dist, vv, legs, "n_atom_bulk")
    scale = scale_hint(m, *models)
    return pref * integrate_semi_infinite(f, q, scale=scale).value


def n_atom_orderings(
    atoms,
    m: MediumResponse,
    q: QuadSpec = QuadSpec(),
    cavity_radius: float | None = None,
) -> list[tuple[tuple[int, ...], float]]:
    """Energy contribution of each distinct ring ordering, separately
    integrated; their sum is the N-atom potential."""
    models, orderings, dist, vv, legs, pref = _ring_setup(
        atoms, cavity_radius, "n_atom_orderings"
    )
    scale = scale_hint(m, *models)
    out = []
    for k, ordering in enumerate(orderings.tolist()):
        f = _ring_integrand(models, m, dist, vv, legs[k : k + 1], "n_atom_orderings")
        out.append((tuple(ordering), pref * integrate_semi_infinite(f, q, scale=scale).value))
    return out


def force_pair(
    atom_a: AtomModel,
    atom_b: AtomModel,
    m: MediumResponse,
    l: float,
    q: QuadSpec = QuadSpec(),
    cavity_radius: float | None = None,
) -> float:
    """Radial force -dU/dl on the corrected bulk pair potential.

    Differentiates the integrand analytically; negative values pull the
    atoms together. The cavity radius never enters the value, only the
    separation guard.
    """
    if not l > 0.0:
        raise GeometryError("separation must be > 0")
    _guard_separation(l, cavity_radius, "force_pair")
    scale = scale_hint(atom_a, atom_b, m)

    def f(u):
        phi, n = _pair_weight(atom_a, atom_b, m, u, True, "force_pair")
        return phi * _kernels.kernel_force(n * u * l)

    return -integrate_semi_infinite(f, q, scale=scale).value / (2.0 * math.pi * l**7)


def cavity_center_stiffness(
    atom: AtomModel, spec: CavitySpec, q: QuadSpec = QuadSpec()
) -> StiffnessResult:
    """Force constant of the linear force on an atom displaced from the
    cavity center, K = -(1/(3 pi)) int u^5 alpha C_2(iu) du.

    Positive K pushes the atom away from the center (unstable, purely
    dielectric hosts); negative K restores it (purely magnetic hosts).
    The small-radius two-term estimate is returned alongside; the exact
    quadrupole coefficient is authoritative for the classification.
    """
    scale = scale_hint(atom, spec.host)
    r = spec.radius

    def f(u):
        return u**5 * coeff_C_exact(spec, 2, u) * atom.alpha_iu(u)

    res = integrate_semi_infinite(f, q, scale=scale)
    k_exact = -res.value / (3.0 * math.pi)

    def f5(u):
        eps, _, _ = _host_arrays(spec.host, u)
        return (eps - 1.0) / (3.0 * eps + 2.0) * atom.alpha_iu(u)

    def f3(u):
        eps, mu, _ = _host_arrays(spec.host, u)
        bracket = eps * eps * (7.0 * mu + 3.0) - 6.0 * eps - 4.0
        return u**2 * bracket / (3.0 * eps + 2.0) ** 2 * atom.alpha_iu(u)

    i5 = integrate_semi_infinite(f5, q, scale=scale).value
    i3 = integrate_semi_infinite(f3, q, scale=scale).value
    k_small = (90.0 / r**5 * i5 - 75.0 / (7.0 * r**3) * i3) / (3.0 * math.pi)

    tol = 1e-12
    if k_exact > tol:
        classification = "unstable"
    elif k_exact < -tol:
        classification = "restoring"
    else:
        classification = "neutral"
    return StiffnessResult(
        K=k_exact,
        K_small_radius=k_small,
        classification=classification,
        err_est=res.err_est / (3.0 * math.pi),
    )
