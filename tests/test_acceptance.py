"""Acceptance gate: one verdict line per stated guarantee.

Each test prints ``criterion N: PASS/FAIL - detail`` (visible with -s or
in captured output) and asserts the same condition, so a plain pytest run
gives exactly one pass/fail per criterion.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lfvdw.cavity import CavitySpec, coeff_C_exact, coeff_C_expansion, coeff_D_exact, coeff_D_leading
from lfvdw.green import bulk_dyad, born_scatter_trace
from lfvdw.oracle import DiluteHost, StepPolicy, finite_difference_force, total_pairwise_sum
from lfvdw.potentials import (
    cavity_center_stiffness,
    coeff_retarded,
    force_pair,
    n_atom_bulk,
    pair_bulk,
    u1_expanded,
    u2_single,
)
from lfvdw.quadrature import QuadSpec
from lfvdw.response import VACUUM, AtomModel, LorentzTerm, MediumResponse, scale_hint
from oracles.specfun import riccati_deriv, sph_h1, sph_j

DATA = Path(__file__).parent / "data"
CONFIG = str(DATA / "glass.yaml")

Q = QuadSpec()
ATOM_A = AtomModel(resonances=((1.0, 0.02),))
ATOM_B = AtomModel(resonances=((1.3, 0.015),), beta_resonances=((2.1, 0.004),))
GLASS = MediumResponse(
    eps_terms=(LorentzTerm(1.5, 1.2, 0.02),), mu_terms=(LorentzTerm(0.2, 2.0),)
)
# static values eps(0) = 2.25, mu(0) = 1.1
MEDIUM_225 = MediumResponse(
    eps_terms=(LorentzTerm(1.25, 1.2),), mu_terms=(LorentzTerm(0.1, 2.0),)
)
DIEL_2 = MediumResponse(eps_terms=(LorentzTerm(1.0, 1.0),))
MAGN_2 = MediumResponse(mu_terms=(LorentzTerm(1.0, 1.0),))


def verdict(label: str, ok: bool, detail: str):
    print(f"criterion {label}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {label}: {detail}"


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # run the main code paths once (imports, first-call set-up) before anything is timed
    pair_bulk(ATOM_A, ATOM_B, GLASS, 3.0, Q)
    u1_expanded(ATOM_A, CavitySpec(radius=0.05, host=GLASS), Q)


def static_eps(value: float) -> MediumResponse:
    return MediumResponse(eps_terms=(LorentzTerm(value - 1.0, 1.0),))


def loglog_slope(x, y) -> float:
    return float(np.polyfit(np.log(np.asarray(x)), np.log(np.abs(y)), 1)[0])


def test_criterion_01_retarded_constant():
    start = time.monotonic()
    l = 200.0
    u_pair = pair_bulk(ATOM_A, ATOM_B, VACUUM, l, Q).U
    c_r = coeff_retarded(ATOM_A, ATOM_B, VACUUM)
    dev = abs(u_pair * l**7 / c_r + 1.0)
    elapsed = time.monotonic() - start
    verdict(
        "1",
        dev < 0.01 and elapsed < 5.0,
        f"|U l^7/C_r + 1| = {dev:.2e} (< 0.01), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_02_power_laws():
    start = time.monotonic()
    details = []
    ok = True
    for name, medium in (("vacuum", VACUUM), ("eps2.25/mu1.1", MEDIUM_225)):
        n0 = float(medium.n_iu(0.0))
        l_ret = np.geomspace(20.0, 200.0, 4) / n0
        l_nr = np.geomspace(1e-3, 1e-2, 4) / n0
        u_ret = [pair_bulk(ATOM_A, ATOM_B, medium, l, Q).U for l in l_ret]
        u_nr = [pair_bulk(ATOM_A, ATOM_B, medium, l, Q).U for l in l_nr]
        s_ret = loglog_slope(l_ret, u_ret)
        s_nr = loglog_slope(l_nr, u_nr)
        ok = ok and abs(s_ret + 7.0) < 0.14 and abs(s_nr + 6.0) < 0.12
        details.append(f"{name}: retarded {s_ret:+.3f}, non-retarded {s_nr:+.3f}")
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 30.0
    verdict("2", ok, "; ".join(details) + f", {elapsed:.1f}s (< 30s)")


def test_criterion_03_enhancement_factors():
    factor_80 = float(coeff_D_leading(static_eps(80.0), 0.0)) ** 2
    in_window = abs(factor_80 - 2.22) < 0.01
    in_band = True
    for eps in (5.0, 10.0, 20.0, 40.0):
        f = float(coeff_D_leading(static_eps(eps), 0.0)) ** 2
        in_band = in_band and 1.85 <= f <= 2.20
    grid = scale_hint(ATOM_A, ATOM_B, GLASS) * np.geomspace(1e-3, 1e3, 41)
    ratios = coeff_D_leading(GLASS, grid) ** 4
    bounded = bool(
        np.all(ratios >= 1.0 - 1e-12) and np.all(ratios <= 81.0 / 16.0 + 1e-12)
    )
    verdict(
        "3",
        in_window and in_band and bounded,
        f"[3e/(2e+1)]^2(80) = {factor_80:.4f}, node ratios in "
        f"[{ratios.min():.3f}, {ratios.max():.3f}]",
    )


def test_criterion_04_cavity_coefficient_consistency():
    u = 1.0
    radii = (1e-1, 1e-2, 1e-3)
    eps = float(MEDIUM_225.eps_iu(u))
    n = float(MEDIUM_225.n_iu(u))
    constant_term = 9.0 * eps * n**3 / (2.0 * eps + 1.0) ** 2 - 1.0
    devs, d_ok = [], True
    for r in radii:
        spec = CavitySpec(radius=r, host=MEDIUM_225)
        c_ex = float(coeff_C_exact(spec, 1, u))
        c_ap = float(coeff_C_expansion(spec, u))
        devs.append(abs(c_ex - c_ap) / abs(constant_term))
        d_dev = abs(float(coeff_D_exact(spec, u)) - float(coeff_D_leading(MEDIUM_225, u)))
        d_ok = d_ok and d_dev < 5.0 * u * r
    slope = loglog_slope(radii, devs)
    verdict(
        "4",
        slope >= 0.9 and d_ok,
        f"deviation slope {slope:.3f} (>= 0.9), leading transmission within 5 u R_c",
    )


def test_criterion_05_born_oracle_equivalence():
    start = time.monotonic()
    host_atom = AtomModel(resonances=((1.0, 0.02),))
    density = 1e-3 / (4.0 * math.pi * 0.02)  # chi(0) = 1e-3
    host = DiluteHost(density=density, host_atom=host_atom)
    r_c, outer = 0.05, 10.0
    spec = CavitySpec(radius=r_c, host=host.to_medium())
    shell = host.to_shell(r_c, outer)
    module_value = u1_expanded(ATOM_A, spec, Q).total + u2_single(
        ATOM_A, spec, lambda u: born_scatter_trace(shell, u, Q), Q
    )
    oracle_value = total_pairwise_sum(ATOM_A, host, shell, r_c, Q)
    dev = abs(module_value - oracle_value) / abs(oracle_value)
    elapsed = time.monotonic() - start
    verdict(
        "5", dev < 0.01 and elapsed < 60.0, f"relative deviation {dev:.2e} (< 1e-2), {elapsed:.1f}s (< 60s)"
    )


def test_criterion_06_randomized_invariants():
    rng = np.random.default_rng(20260825)
    worst_w = 0.0
    for _ in range(60):
        l = int(rng.integers(1, 5))
        x = complex(rng.uniform(0.05, 30.0), rng.uniform(-4.0, 4.0))
        w = (x * sph_j(l, x)) * riccati_deriv(sph_h1, l, x) - riccati_deriv(
            sph_j, l, x
        ) * (x * sph_h1(l, x))
        worst_w = max(worst_w, abs(w - 1j))
    worst_r = 0.0
    for _ in range(60):
        r1 = rng.uniform(-3.0, 3.0, 3)
        r2 = rng.uniform(-3.0, 3.0, 3)
        if np.linalg.norm(r1 - r2) < 0.3:
            r2 = r1 + np.array([0.7, 0.0, 0.0])
        u = rng.uniform(0.05, 3.0)
        g_ab = bulk_dyad(GLASS, r1, r2, u).matrix
        g_ba = bulk_dyad(GLASS, r2, r1, u).matrix
        scale = np.max(np.abs(g_ab))
        worst_r = max(worst_r, np.max(np.abs(g_ab - g_ba.T)) / scale)
    verdict(
        "6",
        worst_w < 1e-10 and worst_r < 1e-13,
        f"60 Wronskian cases worst {worst_w:.1e} (< 1e-10), "
        f"60 reciprocity cases worst {worst_r:.1e} (< 1e-13)",
    )


def test_criterion_07_stiffness_signs():
    k_vac = cavity_center_stiffness(ATOM_A, CavitySpec(radius=0.05, host=VACUUM), Q).K
    signs_ok = abs(k_vac) < 1e-12
    small_ok = True
    details = [f"vacuum |K| = {abs(k_vac):.1e}"]
    for name, medium, want in (("dielectric", DIEL_2, 1.0), ("magnetic", MAGN_2, -1.0)):
        res = cavity_center_stiffness(ATOM_A, CavitySpec(radius=0.01, host=medium), Q)
        signs_ok = signs_ok and math.copysign(1.0, res.K) == want
        rel = abs(res.K - res.K_small_radius) / abs(res.K)
        small_ok = small_ok and math.copysign(1.0, res.K_small_radius) == want and rel <= 0.10
        details.append(f"{name} K = {res.K:.3e}, small-R dev {rel:.1%}")
    verdict("7", signs_ok and small_ok, "; ".join(details))


def test_criterion_08_force_consistency():
    tight = QuadSpec(rel_tol=1e-11)
    worst = 0.0
    for l in np.geomspace(1.5, 15.0, 10):
        analytic = force_pair(ATOM_A, ATOM_B, GLASS, l, tight)
        fd = finite_difference_force(
            lambda x: pair_bulk(ATOM_A, ATOM_B, GLASS, x, tight).U,
            float(l),
            StepPolicy(initial=5e-3 * float(l), levels=2),
        )
        worst = max(worst, abs(analytic - fd.value) / abs(analytic))
    f1 = force_pair(ATOM_A, ATOM_B, GLASS, 3.0, Q, cavity_radius=0.01)
    f2 = force_pair(ATOM_A, ATOM_B, GLASS, 3.0, Q, cavity_radius=0.02)
    inv = abs(f1 - f2) / abs(f1)
    verdict(
        "8",
        worst < 1e-6 and inv < 1e-12,
        f"worst FD deviation {worst:.1e} (< 1e-6) over 10 separations, "
        f"cavity-radius invariance {inv:.1e} (< 1e-12)",
    )


def test_criterion_09_two_atom_reduction():
    l = 3.0
    pair = pair_bulk(ATOM_A, ATOM_B, GLASS, l, Q).U
    ring = n_atom_bulk(
        [(ATOM_A, [0.0, 0.0, 0.0]), (ATOM_B, [l, 0.0, 0.0])], GLASS, Q
    )
    dev = abs(ring - pair) / abs(pair)
    verdict("9 (N=2)", dev < 1e-10, f"ring vs pair deviation {dev:.1e} (< 1e-10)")


def collinear_triple(s: float) -> float:
    atoms = [
        (ATOM_A, [0.0, 0.0, 0.0]),
        (ATOM_A, [s, 0.0, 0.0]),
        (ATOM_A, [2.0 * s, 0.0, 0.0]),
    ]
    return n_atom_bulk(atoms, VACUUM, Q)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the three-body ring energy of a collinear non-retarded triple is "
        "negative, not positive: the angular factor 3(1 + 3 cos g1 cos g2 "
        "cos g3) is -6 for collinear geometry (it is +33/8 for equilateral, "
        "where the energy is indeed positive), and the brute-force static "
        "closed form agrees with the module to 0.2%"
    ),
)
def test_criterion_09_collinear_positive():
    val = collinear_triple(0.002)
    verdict("9 (N=3)", val > 0.0, f"collinear triple energy {val:.3e}")


def test_criterion_09_collinear_brute_force_agreement():
    # the truthful companion check: the module matches the independent
    # static closed form, which is negative for collinear geometry
    s = 0.002
    a0, w0 = 0.02, 1.0
    closed_form = (3.0 / 16.0) * a0**3 * w0 * (-6.0) / (2.0 * s**3) ** 3
    val = collinear_triple(s)
    dev = abs(val - closed_form) / abs(closed_form)
    verdict(
        "9 (N=3 sign)",
        val < 0.0 and dev < 5e-3,
        f"module {val:.4e} vs static closed form {closed_form:.4e} "
        f"(deviation {dev:.1e}); both negative",
    )


def run_cli(*argv) -> bytes:
    proc = subprocess.run(
        [sys.executable, "-m", "lfvdw.cli", *argv], capture_output=True
    )
    assert proc.returncode in (0, 1), proc.stderr.decode()
    return proc.stdout


def test_criterion_10_cli_determinism(tmp_path):
    positions = tmp_path / "pair.txt"
    positions.write_text("probe 0 0 0\npartner 3 0 0\n")
    commands = [
        ("coeffs", "--config", CONFIG, "--material", "glass"),
        ("single", "--config", CONFIG, "--atom", "probe", "--material", "glass"),
        ("pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
         "--material", "glass"),
        ("nbody", "--config", CONFIG, "--positions", str(positions),
         "--material", "glass"),
        ("limits", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
         "--material", "glass"),
        ("born-check", "--config", CONFIG, "--guest", "probe",
         "--host-atom", "partner", "--density", "0.05",
         "--outer-radius", "10", "--cavity-radius", "0.05"),
        ("force-check", "--config", CONFIG, "--atom-a", "probe",
         "--atom-b", "partner", "--material", "glass", "--separation", "3.0"),
    ]
    stable = all(run_cli(*cmd) == run_cli(*cmd) for cmd in commands)
    verdict("10", stable, f"{len(commands)} commands byte-identical across reruns")
