"""The benchmark workloads: seeded inputs, ops, references and checks.

A workload is one pass: a fixed list of ops that the timed loop repeats.
Each op either calls ``lfvdw.cli.main(argv)`` on generated files, with
stdout captured, or calls a public ``lfvdw`` function on models parsed
from a generated config. Ops look up every lfvdw function at call time,
so the tracer's wrappers on module attributes are seen.

Every op has a check. Besides the physics invariants, each value is
compared with a reference computed before timing starts at rel_tol 1e-12
and a negligible abs_tol; the allowed distance is TOL_FACTOR times the
op's own rel_tol times the magnitude of the parts that were integrated.
A change that resolves integrals more coarsely than the config asks for
therefore fails its ops instead of looking faster.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import lfvdw
import lfvdw.cli
import lfvdw.oracle
import lfvdw.potentials
from lfvdw import CavitySpec, ConvergenceError, QuadSpec
from lfvdw.response import scale_hint

import gen

REF_REL_TOL = 1e-12
# Allowed distance from the reference, in units of the op's rel_tol. The
# engine stops once its error estimate is below rel_tol, and the true error
# has been seen at up to 1.3 times that estimate (pair_bulk at l ~ 0.05,
# 105 evals), so a factor of 4 leaves room without letting an integral
# resolved several times more coarsely than requested pass.
TOL_FACTOR = 4.0
# The "tight" cavity variants. At rel_tol 1e-12 (and 1e-11, rarely)
# u1_expanded and cavity_center_stiffness raise ConvergenceError on
# magnetic-only hosts: their small-radius brackets cancel to ~1e-16 noise,
# which stalls the error estimate near 1e-10 relative.
TIGHT_REL_TOL = 1e-9
EXACT_REL = 1e-12
# The configs' rel_tol, fixed per input slot: a drawn tolerance would make
# the cost of a pass, and the op at each latency percentile, vary by seed.
# Nothing tighter than 1e-8 for pair_bulk: near l ~ 0.1 the engine can
# return a value 5 to 7 times rel_tol away from the truth at rel_tol 1e-9
# or 2e-9 (seed 11, pair slot 6, l = 0.0847: the same 5e-9 relative error
# for every rel_tol from 1e-7 down to 1e-9; seed 10, l = 0.1007), which
# fails the TOL_FACTOR check.
PAIR_REL_TOLS = (1e-8, 3e-8, 1e-7)  # pair, limits, force-check and ring inputs
CAVITY_REL_TOLS = (1e-7, 3e-7, 1e-6)
PAIR_BOUND = 81.0 / 16.0

Problems = list[str]


@dataclass
class CliCommand:
    argv: list[str]
    check: Callable[[tuple[int, str]], Problems]

    @property
    def config(self) -> str:
        return self.argv[self.argv.index("--config") + 1]


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Problems]
    cli: CliCommand | None = None


@dataclass
class Workload:
    ops: list[Op]  # one pass
    cold: CliCommand  # the cold-start command; its config also times set-up


# A workload's references, in the order its builder asks for them:
# ``record_references`` collects them (in a child process), ``build`` hands
# them back to ``reference`` instead of computing them again.
_replay: Iterator | None = None
_recorded: list = []


def reference(fn: Callable[[QuadSpec], object], q: QuadSpec):
    """``fn`` evaluated at rel_tol 1e-12 and a negligible abs_tol.

    Integrands whose value comes from cancelling O(1) terms (dilute or
    magnetic-only hosts) hit the rounding floor before 1e-12; the tolerance
    is then relaxed by decades, but never above a tenth of the op's own
    rel_tol.
    """
    if _replay is not None:
        return next(_replay)
    rel = REF_REL_TOL
    while True:
        try:
            value = fn(replace(q, rel_tol=rel, abs_tol=1e-300, max_subdivisions=400))
            break
        except ConvergenceError:
            if rel * 10.0 > max(0.1 * q.rel_tol, REF_REL_TOL):
                raise
            rel *= 10.0
    _recorded.append(value)
    return value


def record_references(name: str, work: Path, seed: int, tiny: bool) -> list:
    _recorded.clear()
    BUILDERS[name](work, seed, tiny)
    return list(_recorded)


def build(name: str, work: Path, seed: int, tiny: bool, refs: list) -> Workload:
    """Build workload ``name`` with the references from ``record_references``."""
    global _replay
    _replay = iter(refs)
    try:
        wl = BUILDERS[name](work, seed, tiny)
        if next(_replay, None) is not None:
            raise RuntimeError(f"{name}: more references recorded than the build used")
    finally:
        _replay = None
    return wl


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lfvdw.cli.main(argv)
    return code, buf.getvalue()


def cli_op(kind: str, cmd: CliCommand) -> Op:
    return Op(kind, lambda: run_cli(cmd.argv), cmd.check, cmd)


def close(problems: Problems, label: str, got, ref: float, bound: float):
    if not (isinstance(got, (int, float)) and math.isfinite(got) and abs(got - ref) <= bound):
        problems.append(f"{label}={got!r} is not within {bound:.3g} of reference {ref!r}")


def expect(problems: Problems, ok: bool, message: str):
    if not ok:
        problems.append(message)


def parse_json(out: tuple[int, str], problems: Problems) -> dict | None:
    code, text = out
    expect(problems, code == 0, f"exit code {code}: {text.strip()[:200]}")
    try:
        doc = json.loads(text)
    except ValueError:
        problems.append(f"output is not JSON: {text[:200]!r}")
        return None
    if "error" in doc:
        problems.append(f"error document: {doc['error']}")
        return None
    return doc


def parse_csv(out: tuple[int, str], columns: list[str], problems: Problems):
    code, text = out
    expect(problems, code == 0, f"exit code {code}: {text.strip()[:200]}")
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0].split(",") != columns:
        problems.append(f"unexpected CSV header {lines[:1]!r}")
        return []
    try:
        return [[float(v) for v in ln.split(",")] for ln in lines[1:]]
    except ValueError:
        problems.append("non-numeric CSV field")
        return []


# ----------------------------------------------------------------------
# pair ops
# ----------------------------------------------------------------------

PAIR_COLUMNS = ["l", "U", "U_uncorrected", "ratio", "local_slope"]


def _pair_config(work: Path, seed: int, slot: str, points: int, k: int):
    rng = gen.slot_rng("pair-sweep", seed, slot)
    medium = gen.gen_medium(rng, 1 + k % 3, 1 + (k + 1) % 3)
    atoms = {"a": gen.gen_atom(rng, 1 + k % 2, False), "b": gen.gen_atom(rng, 2 - k % 2, True)}
    rel_tol = PAIR_REL_TOLS[k % 3]
    l_lo, l_hi = rng.uniform(0.05, 0.1), rng.uniform(20.0, 40.0)
    sweep = {"l": gen.log_grid(l_lo, l_hi, points), "R_c": l_lo / rng.uniform(6.0, 10.0)}
    path = gen.write(work / f"{slot}.yaml", gen.config_yaml({"host": medium}, atoms, rel_tol, sweep))
    return rng, path


def _pair_op(work: Path, seed: int, k: int, points: int) -> Op:
    slot = f"pair{k}"
    _, path = _pair_config(work, seed, slot, points, k)
    cfg = lfvdw.load_config(path)
    a, b, m = cfg.atom("a"), cfg.atom("b"), cfg.material("host")
    q, r_c = cfg.quadrature, cfg.sweep.cavity_radius[0]
    grid = list(cfg.sweep.l)
    ref = [
        tuple(
            reference(lambda rq: lfvdw.pair_bulk(a, b, m, l, rq, corrected=c, cavity_radius=r_c).U, q)
            for c in (True, False)
        )
        for l in grid
    ]

    def check(out) -> Problems:
        problems: Problems = []
        rows = parse_csv(out, PAIR_COLUMNS, problems)
        if len(rows) != len(grid):
            return problems + [f"{len(rows)} rows for {len(grid)} separations"]
        for row, l, (u_ref, unc_ref) in zip(rows, grid, ref):
            l_out, u, unc, ratio, slope = row
            expect(problems, l_out == l, f"row l={l_out!r} but grid has {l!r}")
            expect(problems, u < 0.0 and unc < 0.0, f"l={l}: U={u}, U_unc={unc} not attractive")
            expect(problems, 1.0 - 1e-12 <= ratio <= PAIR_BOUND + 1e-12,
                   f"l={l}: ratio {ratio} outside [1, 81/16]")
            expect(problems, math.isfinite(slope), f"l={l}: local slope {slope}")
            close(problems, f"U(l={l})", u, u_ref, TOL_FACTOR * q.rel_tol * abs(u_ref))
            close(problems, f"U_unc(l={l})", unc, unc_ref, TOL_FACTOR * q.rel_tol * abs(unc_ref))
        return problems

    argv = ["pair", "--config", path, "--atom-a", "a", "--atom-b", "b",
            "--material", "host", "--threads", "1"]
    return cli_op(f"pair{points}", CliCommand(argv, check))


def _limits_op(work: Path, seed: int, k: int) -> Op:
    slot = f"limits{k}"
    _, path = _pair_config(work, seed, slot, 2, k)
    cfg = lfvdw.load_config(path)
    a, b, m, q = cfg.atom("a"), cfg.atom("b"), cfg.material("host"), cfg.quadrature
    c_r = lfvdw.coeff_retarded(a, b, m)
    c_nr = reference(lambda rq: lfvdw.coeff_nonretarded(a, b, m, rq), q)

    def check(out) -> Problems:
        problems: Problems = []
        doc = parse_json(out, problems)
        if doc is None:
            return problems
        expect(problems, doc["C_r"] > 0.0 and doc["C_nr"] > 0.0, "limit coefficients must be > 0")
        close(problems, "C_r", doc["C_r"], c_r, EXACT_REL * c_r)
        close(problems, "C_nr", doc["C_nr"], c_nr, TOL_FACTOR * q.rel_tol * c_nr)
        close(problems, "crossover", doc["crossover_length_estimate"], doc["C_r"] / doc["C_nr"],
              EXACT_REL * abs(doc["C_r"] / doc["C_nr"]))
        return problems

    argv = ["limits", "--config", path, "--atom-a", "a", "--atom-b", "b", "--material", "host"]
    return cli_op("limits", CliCommand(argv, check))


def _force_op(work: Path, seed: int, k: int) -> Op:
    slot = f"force{k}"
    rng, path = _pair_config(work, seed, slot, 2, k)
    sep = gen.log_uniform(rng, 0.3, 10.0)
    cfg = lfvdw.load_config(path)
    a, b, m, q = cfg.atom("a"), cfg.atom("b"), cfg.material("host"), cfg.quadrature
    ref = reference(lambda rq: lfvdw.force_pair(a, b, m, sep, rq), q)

    def check(out) -> Problems:
        problems: Problems = []
        doc = parse_json(out, problems)
        if doc is None:
            return problems
        expect(problems, doc["pass"] is True, f"force-check failed: {doc['relative_deviation']}")
        expect(problems, doc["analytic"] < 0.0, "force must pull the atoms together")
        close(problems, "analytic force", doc["analytic"], ref, TOL_FACTOR * q.rel_tol * abs(ref))
        return problems

    argv = ["force-check", "--config", path, "--atom-a", "a", "--atom-b", "b",
            "--material", "host", "--separation", gen.fnum(sep)]
    return cli_op("force-check", CliCommand(argv, check))


def pair_sweep(work: Path, seed: int, tiny: bool) -> list[Op]:
    """CLI pair on log-spaced l grids of 20 (x5), 50 and 200 points, five
    limits and seven force-check runs.

    The twelve short limits and force-check runs put the pair-born median
    in the middle of the five 20-point sweeps, whose cost barely changes
    with the seed. With three of them it fell between the 20-point sweeps
    (~60 ms) and the born-checks (~100 ms, +-10% from seed to seed) and
    jumped from one to the other from run to run.
    """
    sizes = [4] * 5 + [6, 8] if tiny else [20] * 5 + [50, 200]
    pairs = [_pair_op(work, seed, k, n) for k, n in enumerate(sizes)]
    lim = [_limits_op(work, seed, k) for k in range(5)]
    f = [_force_op(work, seed, k) for k in range(7)]
    return [pairs[0], f[0], lim[0], f[1], pairs[6], pairs[1], lim[1], f[2], lim[2], pairs[5],
            pairs[2], f[3], lim[3], f[4], pairs[3], lim[4], f[5], f[6], pairs[4]]


# ----------------------------------------------------------------------
# ring ops
# ----------------------------------------------------------------------


def _ring_input(work: Path, seed: int, k: int, n_atoms: int):
    slot = f"ring{k}"
    rng = gen.slot_rng("ring-nbody", seed, slot)
    medium = gen.gen_medium(rng, 1 + k % 3, 1 + (k + 1) % 3)
    species = {"s0": gen.gen_atom(rng, 1 + k % 2, False), "s1": gen.gen_atom(rng, 2 - k % 2, True)}
    rel_tol = PAIR_REL_TOLS[k % 3]
    cfg_path = gen.write(
        work / f"{slot}.yaml",
        gen.config_yaml({"host": medium}, species, rel_tol, {"R_c": 0.02}),
    )
    points = gen.gen_positions(rng, n_atoms, rng.uniform(1.5, 2.5), 0.6)
    lines = [f"s{i % 2} " + " ".join(gen.fnum(c) for c in p) for i, p in enumerate(points)]
    pos_path = gen.write(work / f"{slot}.xyz", "\n".join(lines) + "\n")
    cfg = lfvdw.load_config(cfg_path)
    atoms = [(cfg.atom(f"s{i % 2}"), list(p)) for i, p in enumerate(points)]
    return cfg, cfg_path, pos_path, atoms


def _ring_op(work: Path, seed: int, k: int, n_atoms: int, via_cli: bool) -> Op:
    cfg, cfg_path, pos_path, atoms = _ring_input(work, seed, k, n_atoms)
    m, q, r_c = cfg.material("host"), cfg.quadrature, cfg.sweep.cavity_radius[0]
    ref = reference(lambda rq: lfvdw.n_atom_bulk(atoms, m, rq, cavity_radius=r_c), q)
    n_orderings = 1 if n_atoms == 2 else math.factorial(n_atoms - 1) // 2

    if via_cli:

        def check(out) -> Problems:
            problems: Problems = []
            doc = parse_json(out, problems)
            if doc is None:
                return problems
            parts = [o["energy"] for o in doc["orderings"]]
            expect(problems, doc["n_atoms"] == n_atoms, f"n_atoms {doc['n_atoms']} != {n_atoms}")
            expect(problems, len(parts) == n_orderings,
                   f"{len(parts)} orderings, expected {n_orderings}")
            expect(problems, doc["energy"] == math.fsum(parts),
                   "energy is not the fsum of its orderings")
            bound = TOL_FACTOR * q.rel_tol * math.fsum(abs(e) for e in parts)
            close(problems, "nbody energy vs n_atom_bulk", doc["energy"], ref, bound)
            return problems

        argv = ["nbody", "--config", cfg_path, "--positions", pos_path, "--material", "host"]
        return cli_op(f"nbody{n_atoms}", CliCommand(argv, check))

    def call():
        return lfvdw.potentials.n_atom_bulk(atoms, m, q, cavity_radius=r_c)

    def check_lib(value) -> Problems:
        problems: Problems = []
        close(problems, "n_atom_bulk", value, ref, TOL_FACTOR * q.rel_tol * abs(ref))
        return problems

    return Op(f"n_atom_bulk{n_atoms}", call, check_lib)


def ring_nbody(work: Path, seed: int, tiny: bool) -> list[Op]:
    """CLI nbody and library n_atom_bulk on N = 4 (x3), 5 (x4, library) and
    6 (x3) geometries."""
    small, mid, big = (3, 3, 4) if tiny else (4, 5, 6)
    plan = [(small, True), (mid, False), (big, True), (small, False), (mid, False),
            (big, False), (small, True), (mid, False), (big, True), (mid, False)]
    return [_ring_op(work, seed, k, n, via_cli=cli) for k, (n, cli) in enumerate(plan)]


# ----------------------------------------------------------------------
# born ops
# ----------------------------------------------------------------------


def _born_input(seed: int, slot: str, guest_beta: bool, host_beta: bool, radius: float):
    """Guest, dilute host and geometry for one born slot.

    ``radius`` is R_c times the largest resonance: at 0.08 the small-radius
    expansion stays within 0.5% of the pairwise sum, well inside
    born-check's 1% criterion.
    """
    rng = gen.slot_rng("born-oracle", seed, slot)
    guest = gen.gen_atom(rng, 1, guest_beta)
    host_atom = gen.gen_atom(rng, 1, host_beta)
    chi0 = rng.uniform(0.002, 0.008)
    density = chi0 / (4.0 * math.pi * host_atom.alpha_static)
    w_max = max(guest.max_resonance, host_atom.max_resonance)
    r_c = radius / w_max
    r_o, rel_tol = 1.5, 1e-5
    text = gen.config_yaml({}, {"g": guest, "h": host_atom}, rel_tol)
    return text, density, r_c, r_o


def _born_models(path: str, density: float):
    cfg = lfvdw.load_config(path)
    guest = cfg.atom("g")
    host = lfvdw.DiluteHost(density=density, host_atom=cfg.atom("h"))
    return cfg.quadrature, guest, host


def _linearized(guest, host, radius: float, q: QuadSpec) -> float:
    return lfvdw.u1_linearized(guest, radius, host.chi_iu, host.zeta_iu, q,
                               scale=scale_hint(guest, host.host_atom))


def _born_check_op(work: Path, seed: int, k: int, host_beta: bool) -> Op:
    slot = f"born{k}"
    text, density, r_c, r_o = _born_input(seed, slot, k % 2 == 1, host_beta, 0.08)
    path = gen.write(work / f"{slot}.yaml", text)
    q, guest, host = _born_models(path, density)
    spec = CavitySpec(radius=r_c, host=host.to_medium())
    shell = host.to_shell(r_c, r_o)
    expansion = reference(lambda rq: lfvdw.u1_expanded(guest, spec, rq), q)
    u2 = reference(
        lambda rq: lfvdw.u2_single(
            guest, spec, lambda u: lfvdw.born_scatter_trace(shell, u, rq), rq
        ),
        q,
    )
    module_ref = expansion.total + u2
    module_scale = abs(expansion.term_r3) + abs(expansion.term_r1) + abs(u2)
    # The pairwise sum over r_c < s < r_o is the linearized cavity shift at
    # r_c minus the one at r_o: a single u integral, independent of the
    # oracle's nested radial quadrature.
    oracle_ref = reference(
        lambda rq: _linearized(guest, host, r_c, rq) - _linearized(guest, host, r_o, rq), q
    )

    def check(out) -> Problems:
        problems: Problems = []
        doc = parse_json(out, problems)
        if doc is None:
            return problems
        expect(problems, doc["pass"] is True,
               f"born-check failed: deviation {doc['relative_deviation']}")
        close(problems, "module_value", doc["module_value"], module_ref,
              TOL_FACTOR * q.rel_tol * module_scale)
        close(problems, "oracle_value", doc["oracle_value"], oracle_ref,
              TOL_FACTOR * q.rel_tol * abs(oracle_ref))
        return problems

    argv = ["born-check", "--config", path, "--guest", "g", "--host-atom", "h",
            "--density", gen.fnum(density), "--outer-radius", gen.fnum(r_o),
            "--cavity-radius", gen.fnum(r_c)]
    return cli_op("born-check", CliCommand(argv, check))


def _pairwise_op(work: Path, seed: int, k: int) -> Op:
    slot = f"pairwise{k}"
    text, density, r_c, _ = _born_input(seed, slot, k % 2 == 1, False, 0.2)
    path = gen.write(work / f"{slot}.yaml", text)
    q, guest, host = _born_models(path, density)
    ref = reference(lambda rq: _linearized(guest, host, r_c, rq), q)

    def call():
        return lfvdw.oracle.u1_pairwise_sum(guest, host, r_c, q)

    def check(value) -> Problems:
        problems: Problems = []
        expect(problems, value < 0.0, f"u1_pairwise_sum {value} must be < 0")
        close(problems, "u1_pairwise_sum vs u1_linearized", value, ref,
              TOL_FACTOR * q.rel_tol * abs(ref))
        return problems

    return Op("u1_pairwise_sum", call, check)


def born_oracle(work: Path, seed: int, tiny: bool) -> list[Op]:
    """CLI born-check on dilute hosts and library u1_pairwise_sum.

    Half of the guests carry a magnetizability pole. A host's beta pole
    doubles the nested work (zeta inner integrals, magnetic pair parts), so
    it is confined to two of the eight born-checks.
    """
    n_electric, n_magnetic, n_pairwise = (2, 1, 1) if tiny else (6, 2, 2)
    checks = [_born_check_op(work, seed, k, host_beta=k >= n_electric)
              for k in range(n_electric + n_magnetic)]
    pairwise = [_pairwise_op(work, seed, k) for k in range(n_pairwise)]
    return checks[:3] + pairwise[:1] + checks[3:6] + checks[6:] + pairwise[1:]


# ----------------------------------------------------------------------
# cavity ops
# ----------------------------------------------------------------------

COEFF_COLUMNS = ["u", "eps", "mu", "n", "D_leading", "D_exact", "C1_exact", "C1_expansion", "C2"]


def _cavity_config(work: Path, seed: int, slot: str, k: int, u_points: int) -> str:
    rng = gen.slot_rng("cavity-single", seed, slot)
    diel = gen.Medium(eps=gen.gen_terms(rng, 1 + k % 3, (0.3, 2.0)))
    mag = gen.Medium(mu=gen.gen_terms(rng, 1 + (k + 1) % 3, (0.05, 0.4)))
    atom = gen.gen_atom(rng, 1 + k % 2, False)
    rel_tol = CAVITY_REL_TOLS[k % 3]
    sweep = {
        "u": gen.log_grid(rng.uniform(0.01, 0.05), rng.uniform(20.0, 50.0), u_points),
        "R_c": rng.uniform(0.02, 0.05),
    }
    return gen.write(
        work / f"{slot}.yaml",
        gen.config_yaml({"diel": diel, "mag": mag}, {"a": atom}, rel_tol, sweep),
    )


def _cavity_lib_ops(path: str) -> list[Op]:
    """u1_exact, u1_expanded and the centre stiffness on both hosts, at the
    config's tolerance and at TIGHT_REL_TOL."""
    cfg = lfvdw.load_config(path)
    atom, r_c = cfg.atom("a"), cfg.sweep.cavity_radius[0]
    ops = []
    for host in ("diel", "mag"):
        spec = CavitySpec(radius=r_c, host=cfg.material(host))
        for q in (cfg.quadrature, replace(cfg.quadrature, rel_tol=TIGHT_REL_TOL)):
            tol = TOL_FACTOR * q.rel_tol
            exact_ref = reference(lambda rq: lfvdw.u1_exact(atom, spec, rq), q)
            exp_ref = reference(lambda rq: lfvdw.u1_expanded(atom, spec, rq), q)
            k_ref = reference(lambda rq: lfvdw.cavity_center_stiffness(atom, spec, rq), q)
            sign = 1.0 if host == "diel" else -1.0

            def check_exact(v, ref=exact_ref, tol=tol) -> Problems:
                problems: Problems = []
                close(problems, "u1_exact", v, ref, tol * abs(ref))
                return problems

            def check_expanded(v, ref=exp_ref, tol=tol) -> Problems:
                problems: Problems = []
                scale = abs(ref.term_r3) + abs(ref.term_r1)
                close(problems, "term_r3", v.term_r3, ref.term_r3, tol * scale)
                close(problems, "term_r1", v.term_r1, ref.term_r1, tol * scale)
                return problems

            def check_stiffness(v, ref=k_ref, tol=tol, sign=sign) -> Problems:
                problems: Problems = []
                expect(problems, sign * v.K > 0.0, f"stiffness K={v.K} has the wrong sign")
                expect(problems, v.classification == ("unstable" if sign > 0 else "restoring"),
                       f"classification {v.classification!r}")
                close(problems, "K", v.K, ref.K, tol * abs(ref.K))
                close(problems, "K_small_radius", v.K_small_radius, ref.K_small_radius,
                      tol * abs(ref.K_small_radius))
                return problems

            ops += [
                Op("u1_exact", lambda s=spec, q=q: lfvdw.potentials.u1_exact(atom, s, q),
                   check_exact),
                Op("u1_expanded", lambda s=spec, q=q: lfvdw.potentials.u1_expanded(atom, s, q),
                   check_expanded),
                Op("cavity_center_stiffness",
                   lambda s=spec, q=q: lfvdw.potentials.cavity_center_stiffness(atom, s, q),
                   check_stiffness),
            ]
    return ops


def _single_op(path: str, host: str) -> Op:
    cfg = lfvdw.load_config(path)
    q, atom, r_c = cfg.quadrature, cfg.atom("a"), cfg.sweep.cavity_radius[0]
    spec = CavitySpec(radius=r_c, host=cfg.material(host))
    ref = reference(lambda rq: lfvdw.u1_expanded(atom, spec, rq), q)
    scale = abs(ref.term_r3) + abs(ref.term_r1)

    def check(out) -> Problems:
        problems: Problems = []
        doc = parse_json(out, problems)
        if doc is None:
            return problems
        expect(problems, doc["U2"] == 0.0, f"bulk U2={doc['U2']} must be 0")
        expect(problems, doc["total"] == doc["U1"] + doc["U2"], "total != U1 + U2")
        close(problems, "U1", doc["U1"], ref.total, TOL_FACTOR * q.rel_tol * scale)
        close(problems, "term_r3", doc["term_r3"], ref.term_r3, TOL_FACTOR * q.rel_tol * scale)
        return problems

    argv = ["single", "--config", path, "--atom", "a", "--material", host]
    return cli_op("single", CliCommand(argv, check))


def _coeffs_op(path: str, host: str, u_points: int) -> Op:
    cfg = lfvdw.load_config(path)
    m = cfg.material(host)
    u = np.array(cfg.sweep.u)
    spec = CavitySpec(radius=cfg.sweep.cavity_radius[0], host=m)
    ref = np.column_stack([
        m.eps_iu(u), m.mu_iu(u), m.n_iu(u),
        lfvdw.coeff_D_leading(m, u), lfvdw.coeff_D_exact(spec, u),
        lfvdw.coeff_C_exact(spec, 1, u), lfvdw.coeff_C_expansion(spec, u),
        lfvdw.coeff_C_exact(spec, 2, u),
    ])

    def check(out) -> Problems:
        problems: Problems = []
        rows = parse_csv(out, COEFF_COLUMNS, problems)
        if len(rows) != len(u):
            return problems + [f"{len(rows)} rows for {len(u)} frequencies"]
        table = np.array(rows)
        eps, mu, d_lead, d_exact = table[:, 1], table[:, 2], table[:, 4], table[:, 5]
        expect(problems, np.array_equal(table[:, 0], u), "u column differs from sweep.u")
        expect(problems, eps.min() >= 1.0 and mu.min() >= 1.0, "eps or mu below 1")
        expect(problems, d_lead.min() >= 1.0 and d_lead.max() <= 1.5 and d_exact.min() > 0.0,
               "D_leading outside [1, 3/2] or D_exact <= 0")
        off = ~(np.abs(table[:, 1:] - ref) <= EXACT_REL * np.abs(ref))
        if off.any():
            i, j = np.argwhere(off)[0]
            problems.append(f"{COEFF_COLUMNS[j + 1]}(u={u[i]})={table[i, j + 1]!r} differs "
                            f"from reference {ref[i, j]!r}")
        return problems

    argv = ["coeffs", "--config", path, "--material", host]
    return cli_op(f"coeffs{u_points}", CliCommand(argv, check))


def cavity_single(work: Path, seed: int, tiny: bool) -> list[Op]:
    """Library u1_exact, u1_expanded and cavity_center_stiffness, CLI single
    (x6) and CLI coeffs on 300, 600 and 2000 (x4) u points."""
    grids = [20, 30, 60, 60, 60, 60] if tiny else [300, 600, 2000, 2000, 2000, 2000]
    lib = _cavity_lib_ops(_cavity_config(work, seed, "lib", 0, 2))
    hosts = ("diel", "mag")
    singles = [_single_op(_cavity_config(work, seed, f"single{k}", k + 1, 2), hosts[k % 2])
               for k in range(6)]
    coeffs = [_coeffs_op(_cavity_config(work, seed, f"coeffs{k}", k, n), hosts[k % 2], n)
              for k, n in enumerate(grids)]
    ops = []
    for k in range(6):
        ops += lib[2 * k: 2 * k + 2] + [singles[k], coeffs[k]]
    return ops


# ----------------------------------------------------------------------
# The two workloads
# ----------------------------------------------------------------------
# Each workload joins two of the op sets above into one pass, so that one
# run can loop long enough to average over the CPU-speed swings of a shared
# host, within the benchmark's time budget.


def pair_born(work: Path, seed: int, tiny: bool) -> Workload:
    """Quadrature, flat and nested: everything except ring_trace and the Mie kernels."""
    cold = _pair_op(work, seed, 9, 6 if tiny else 50).cli
    return Workload(pair_sweep(work, seed, tiny) + born_oracle(work, seed, tiny), cold)


def ring_cavity(work: Path, seed: int, tiny: bool) -> Workload:
    """ring_trace and Mie kernels, config parsing and rendering; no green or oracle."""
    grid = 60 if tiny else 2000
    cold = _coeffs_op(_cavity_config(work, seed, "cold", 3, grid), "diel", grid).cli
    return Workload(ring_nbody(work, seed, tiny) + cavity_single(work, seed, tiny), cold)


BUILDERS = {
    "pair-born": pair_born,
    "ring-cavity": ring_cavity,
}
