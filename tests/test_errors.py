"""One exception type per bad-input condition, whichever function meets it."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from conftest import ConstantMedium
from lfvdw.cavity import CavitySpec, coeff_C_exact, coeff_C_expansion, coeff_D_exact
from lfvdw.errors import DomainError, GeometryError, InvariantError
from lfvdw.green import BodyShell, born_scatter_trace, bulk_dyad
from lfvdw.oracle import DiluteHost, total_pairwise_sum, u1_pairwise_sum
from lfvdw.potentials import n_atom_bulk, u1_linearized
from lfvdw.response import VACUUM, AtomModel

SPEC = CavitySpec(radius=0.05, host=ConstantMedium(2.0))
SHELL = BodyShell(inner_radius=0.05, outer_radius=10.0)
ATOM = AtomModel(resonances=((1.0, 0.02),))
HOST = DiluteHost(density=1e-3, host_atom=ATOM)
CAVITY = "^cavity radius must be finite and > 0$"
AT_ZERO = "^u must be > 0: the cavity coefficients, the Born trace and the bulk dyad are singular at u = 0$"
NODES = (r"^imaginary-axis frequency u must be finite and >= 0, with a finite square "
         r"\(u <= 1\.34078e\+154\), as a number or a non-empty 1-D array$")


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: coeff_C_exact(SPEC, 1, 0.0), DomainError, AT_ZERO),
        (lambda: coeff_C_expansion(SPEC, np.array([1.0, 0.0])), DomainError, AT_ZERO),
        (lambda: coeff_D_exact(SPEC, 0.0), DomainError, AT_ZERO),
        (lambda: born_scatter_trace(SHELL, np.array([0.0, 1.0])), DomainError, AT_ZERO),
        (lambda: bulk_dyad(VACUUM, np.ones(3), np.zeros(3), 0.0), DomainError, AT_ZERO),
        (lambda: bulk_dyad(VACUUM, np.ones(3), np.ones(3), 1.0), GeometryError,
         "^atoms 0 and 1 coincide$"),
        (lambda: n_atom_bulk([(ATOM, [1.0, 0.0, 0.0]), (ATOM, [1.0, 0.0, 0.0])], VACUUM),
         GeometryError, "atoms 0 and 1 coincide"),
        # bulk_dyad printed numpy's "overflow encountered in dot" and returned zeros
        (lambda: bulk_dyad(VACUUM, [1e200, 0.0, 0.0], np.zeros(3), 1.0), GeometryError,
         "^atoms 0 and 1 are too far apart: their squared distance overflows$"),
        # the ring's np.array of the positions raised a raw "inhomogeneous shape" ValueError
        (lambda: n_atom_bulk([(ATOM, [0.0, 0.0, 0.0]), (ATOM, [1.0, 0.0])], VACUUM),
         GeometryError, r"^positions must be 3-vectors; atom 1 has shape \(2,\)$"),
        (lambda: bulk_dyad(VACUUM, [1.0, 0.0], np.zeros(3), 1.0), GeometryError,
         r"^positions must be 3-vectors; atom 0 has shape \(2,\)$"),
        # both raised numpy's raw ValueError
        (lambda: n_atom_bulk([(ATOM, [0.0, 0.0, 0.0]), (ATOM, ["x", 0.0, 0.0])], VACUUM),
         GeometryError, "^positions must be 3-vectors of numbers: could not convert string"),
        (lambda: bulk_dyad(VACUUM, np.zeros(3), ["x", 0.0, 0.0], 1.0), GeometryError,
         "^positions must be 3-vectors of numbers: could not convert string"),
        # u * u overflowed in the kernels: a RuntimeWarning and eps = 1, alpha = 0
        (lambda: VACUUM.eps_iu(1e200), DomainError, NODES),
        (lambda: ATOM.alpha_iu(1e200), DomainError, NODES),
        # a (2, 2) u gave a (2, 2) eps, and D at R_c = 1e-300 a raw TypeError
        (lambda: VACUUM.eps_iu(np.ones((2, 2))), DomainError, NODES),
        (lambda: coeff_D_exact(CavitySpec(radius=1e-300, host=ConstantMedium(2.0)),
                               np.ones((2, 2))), DomainError, NODES),
        # four RuntimeWarnings and a matrix of nan
        (lambda: bulk_dyad(VACUUM, [1e-120, 0.0, 0.0], np.zeros(3), 1.0), InvariantError,
         "^bulk dyad is not finite at separation 1e-120, u = 1: its 1/l\\^3 terms overflow$"),
        (lambda: coeff_C_exact(SPEC, 3, 1.0), DomainError, r"order l=3 not in \{1, 2\}"),
        # an infinite radius used to pass, giving 0.0 or an error about separations
        (lambda: CavitySpec(radius=math.inf, host=VACUUM), GeometryError, CAVITY),
        (lambda: u1_linearized(ATOM, math.inf, np.zeros_like, np.zeros_like), GeometryError,
         CAVITY),
        (lambda: u1_pairwise_sum(ATOM, HOST, math.inf), GeometryError, CAVITY),
        (lambda: total_pairwise_sum(ATOM, HOST, R_c=math.inf, outer_radius=math.inf),
         GeometryError, CAVITY),
        (lambda: BodyShell(inner_radius=math.inf, outer_radius=math.inf), GeometryError,
         "^inner radius must be finite and > 0$"),
        # zeta(0) = 0.063 passed when only |chi(0)| < 0.01 was checked
        (lambda: DiluteHost(density=0.01, host_atom=AtomModel(
            resonances=((1.0, 0.001),), beta_resonances=((1.0, 0.5),))), DomainError,
         r"^\|zeta\(iu\)\| <= 4 pi rho sum\|b_k\| = 0.0628 is not dilute \(needs < 0.01\)$"),
    ],
    ids=["C_exact-u0", "C_expansion-u0", "D_exact-u0", "born_trace-u0", "bulk_dyad-u0",
         "bulk_dyad-coincident", "n_atom_bulk-coincident", "bulk_dyad-far",
         "n_atom_bulk-2-vector", "bulk_dyad-2-vector", "n_atom_bulk-non-numeric",
         "bulk_dyad-non-numeric", "eps_iu-huge", "alpha_iu-huge", "eps_iu-2d", "D_exact-2d",
         "bulk_dyad-tiny", "C_exact-order3",
         "cavity_spec-inf", "u1_linearized-inf", "u1_pairwise_sum-inf", "total_pairwise_sum-inf",
         "body_shell-inf", "dilute_host-zeta"],
)
def test_each_bad_input_raises_its_one_error_type(call, error, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy warning in place of the error fails
        with pytest.raises(error, match=message) as exc_info:
            call()
    assert exc_info.type is error
