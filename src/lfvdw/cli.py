"""Command line interface.

Subcommands: coeffs, single, pair, nbody, limits, born-check, force-check;
each runs the cmd_* function of its name, dashes as underscores. Every
command reads one YAML config (--config), the only source of quadrature
tolerances, and returns its payload in reduced units; main() alone renders
it, writes it (--out) and picks the exit code. A table (coeffs, pair) prints
as CSV and a document (the other five) as JSON, unless --format asks for the
other; an SI config adds SI twins, as table columns or a document's "SI"
block. Output is stamped with the package version and a hash of the config
file so identical inputs give byte-identical files. A pair sweep over
sweep.l is one vector integral per corrected flag, one component per
separation; U, ratio and local_slope are the corrected potential's.
force-check's finite-difference stencil is one more. Every command runs in
the calling thread; --threads is still accepted for old scripts and changes
nothing. The argument parser is built once per process and shared by every
main() call: it depends on no input, and parsing keeps no state between
calls. Nothing else is kept; each call reads its config and computes its
results afresh.

Exit codes: 0 success, 1 a requested consistency check failed its
tolerance (the payload's "pass" is false), 2 configuration/usage error
(an --out path that cannot be written included), 3 a physics invariant
tripped. Failures are reported as a machine-readable JSON error document.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from ._kernels import _libm
from .cavity import CavitySpec, _d_leading, coeff_C_exact, coeff_C_expansion, coeff_D_exact
from .config import RunConfig, UnitSystem, load_config
from .errors import ConfigError, ConvergenceError, DomainError, LfvdwError
from .green import born_scatter_trace
from .oracle import DiluteHost, finite_difference_force, total_pairwise_sum
from .potentials import (
    _MAX_RING_ATOMS,
    coeff_nonretarded,
    coeff_retarded,
    force_pair,
    n_atom_orderings,
    pair_bulk,
    u1_expanded,
    u2_single,
)
from .response import AtomModel, _as_nodes

__all__ = ["main"]

_FD_REL_TOL = 1e-10
_BORN_TOL = 1e-2
_FORCE_TOL = 1e-6


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _render(cfg: RunConfig, payload: dict, si, fmt: str | None) -> str:
    """payload as stamped text, with the SI twins (name, reduced field, conversion)
    of si under an SI config. A {"columns", "rows"} table gets them as columns and
    is CSV unless fmt is "json"; any other payload, a document, gets an "SI" block
    and is JSON unless fmt is "csv", one row of the document's scalar fields."""
    unit, stamp = cfg.unit, f"# lfvdw {__version__} config={cfg.config_hash}"
    si = si if unit.is_si else []  # a reduced config has no SI twins
    if "columns" in payload:
        columns, rows = payload["columns"], payload["rows"]
        if si:
            cols = [columns.index(field) for _, field, _ in si]
            columns = columns + [name for name, _, _ in si]
            rows = [row + [to_si(unit, row[k]) for k, (_, _, to_si) in zip(cols, si)]
                    for row in rows]
        if fmt != "json":
            row_fmt = ",".join(["%.17g"] * len(columns))  # the bytes of _fmt, one % per row
            lines = [stamp, ",".join(columns), *(row_fmt % tuple(row) for row in rows)]
            return "\n".join(lines) + "\n"
        # a NaN cell (a one-point grid's local_slope) is null
        doc = {"rows": [dict(zip(columns, [None if x != x else x for x in row])) for row in rows]}
    elif fmt == "csv":
        flat = {k: v for k, v in payload.items() if isinstance(v, (int, float, str, bool))}
        return "\n".join([stamp, ",".join(flat), ",".join(map(_fmt, flat.values()))]) + "\n"
    else:
        twins = {name: to_si(unit, payload[field]) for name, field, to_si in si}
        doc = {**payload, "SI": twins} if twins else payload
    meta = {"version": __version__, "config_hash": cfg.config_hash}
    return json.dumps({"meta": meta, **doc}, indent=2, allow_nan=False) + "\n"


def _positive(flag: str, value: float, allow_zero: bool = False) -> float:
    if not (value >= 0.0 if allow_zero else value > 0.0) or value == math.inf:
        raise ConfigError(f"{flag} must be finite and {'>=' if allow_zero else '>'} 0, got {value}")
    return value


def _sweep_cavity_radius(cfg: RunConfig) -> float | None:
    """sweep.R_c, or None when the config sets none."""
    return cfg.sweep.cavity_radius[0] if cfg.sweep.cavity_radius else None


def _cavity_radius(cfg: RunConfig, args) -> float:
    if getattr(args, "cavity_radius", None) is not None:
        return cfg.unit.length_in(_positive("--cavity-radius", args.cavity_radius))
    if (r_c := _sweep_cavity_radius(cfg)) is None:
        raise ConfigError("no cavity radius: pass --cavity-radius or set sweep.R_c")
    return r_c


def _pair_models(cfg: RunConfig, args):
    return cfg.atom(args.atom_a), cfg.atom(args.atom_b), cfg.material(args.material)


def _local_slopes(l_grid: np.ndarray, u_vals: np.ndarray) -> np.ndarray:
    if l_grid.size < 2:
        return np.full_like(l_grid, math.nan)
    # libm logs for host-independent bits
    log = functools.partial(_libm, math.log)
    return np.gradient(log(np.abs(u_vals)), log(l_grid))


def cmd_coeffs(cfg: RunConfig, args) -> dict:
    material = cfg.material(args.material)
    if not cfg.sweep.u:
        raise ConfigError("coeffs needs a sweep.u grid in the config")
    u, _ = _as_nodes(cfg.sweep.u)
    eps, mu, n = material._eps_mu_n(u)  # one checked evaluation for four columns
    spec = CavitySpec(radius=_cavity_radius(cfg, args), host=material)
    columns = ["u", "eps", "mu", "n", "D_leading", "D_exact", "C1_exact", "C1_expansion", "C2"]
    table = np.column_stack([
        u, eps, mu, n, _d_leading(eps),
        coeff_D_exact(spec, u),
        coeff_C_exact(spec, 1, u),
        coeff_C_expansion(spec, u),
        coeff_C_exact(spec, 2, u),
    ])
    return {"columns": columns, "rows": table.tolist()}


def cmd_single(cfg: RunConfig, args) -> dict:
    atom = cfg.atom(args.atom)
    material = cfg.material(args.material)
    r_c = _cavity_radius(cfg, args)
    spec = CavitySpec(radius=r_c, host=material)
    expansion = u1_expanded(atom, spec, cfg.quadrature)
    u1, u2 = expansion.total, 0.0  # the scattering Green tensor vanishes in infinite bulk
    return {
        "atom": args.atom,
        "material": args.material,
        "cavity_radius": r_c,
        "U1": u1,
        "U2": u2,
        "total": u1 + u2,
        "term_r3": expansion.term_r3,
        "term_r1": expansion.term_r1,
    }


def cmd_pair(cfg: RunConfig, args) -> dict:
    atom_a, atom_b, material = _pair_models(cfg, args)
    if not cfg.sweep.l:
        raise ConfigError("pair needs a sweep.l grid in the config")
    l_grid = np.array(cfg.sweep.l)
    r_c = _sweep_cavity_radius(cfg)

    u_corr, u_unc = (pair_bulk(atom_a, atom_b, material, l_grid, cfg.quadrature,
                               corrected=flag, cavity_radius=r_c).U for flag in (True, False))
    ratio = u_corr / u_unc  # pair_bulk returns U < 0 or raises
    slopes = _local_slopes(l_grid, u_corr)

    return {"columns": ["l", "U", "U_uncorrected", "ratio", "local_slope"],
            "rows": np.column_stack([l_grid, u_corr, u_unc, ratio, slopes]).tolist()}


def _read_positions(path: str, cfg: RunConfig) -> list[tuple[AtomModel, list[float]]]:
    entries = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                body = line.split("#", 1)[0].strip()
                if not body:
                    continue
                parts = body.split()
                if len(parts) != 4:
                    raise ConfigError(
                        f"{path}:{ln}: expected 'name x y z', got {line.strip()!r}"
                    )
                name, *coords = parts
                try:
                    xyz = [cfg.unit.length_in(float(c)) for c in coords]
                except ValueError:
                    raise ConfigError(f"{path}:{ln}: non-numeric coordinate") from None
                if not all(map(math.isfinite, xyz)):
                    raise ConfigError(f"{path}:{ln}: non-finite coordinate")
                entries.append((cfg.atom(name), xyz))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read positions file {path}: {exc}") from None
    if not entries:
        raise ConfigError(f"positions file {path} contains no atoms")
    return entries


def cmd_nbody(cfg: RunConfig, args) -> dict:
    material = cfg.material(args.material)
    atoms = _read_positions(args.positions, cfg)
    if not 2 <= len(atoms) <= _MAX_RING_ATOMS:
        raise ConfigError(f"positions file {args.positions} has {len(atoms)} atoms; "
                          f"need 2 to {_MAX_RING_ATOMS}")
    r_c = _sweep_cavity_radius(cfg)
    per_ordering = n_atom_orderings(atoms, material, cfg.quadrature, cavity_radius=r_c)
    return {
        "material": args.material,
        "n_atoms": len(atoms),
        "energy": math.fsum(e for _, e in per_ordering),
        "orderings": [
            {"cycle": list(ordering), "energy": e} for ordering, e in per_ordering
        ],
    }


def cmd_limits(cfg: RunConfig, args) -> dict:
    atom_a, atom_b, material = _pair_models(cfg, args)
    c_r = coeff_retarded(atom_a, atom_b, material)
    c_nr = coeff_nonretarded(atom_a, atom_b, material, cfg.quadrature)
    return {
        "atom_a": args.atom_a,
        "atom_b": args.atom_b,
        "material": args.material,
        "C_r": c_r,
        "C_nr": c_nr,
        "crossover_length_estimate": c_r / c_nr,
    }


def cmd_born_check(cfg: RunConfig, args) -> dict:
    guest = cfg.atom(args.guest)
    host_atom = cfg.atom(args.host_atom)
    density = cfg.unit.density_in(_positive("--density", args.density, allow_zero=True))
    outer = cfg.unit.length_in(_positive("--outer-radius", args.outer_radius))
    r_c = _cavity_radius(cfg, args)
    if not outer > r_c:  # the body R_c <= s <= R_o must not be empty
        raise ConfigError(f"--outer-radius must exceed the cavity radius, got {args.outer_radius}")
    try:
        host = DiluteHost(density=density, host_atom=host_atom)
    except DomainError as exc:
        raise ConfigError(f"--density: {exc}") from None
    spec = CavitySpec(radius=r_c, host=host.to_medium())
    shell = host.to_shell(r_c, outer)
    q = cfg.quadrature

    module_value = (u1_expanded(guest, spec, q).total
                    + u2_single(guest, spec, lambda u: born_scatter_trace(shell, u, q), q))
    oracle_value = total_pairwise_sum(guest, host, r_c, outer, q)
    deviation = abs(module_value - oracle_value) / max(abs(oracle_value), 1e-300)
    return {
        "guest": args.guest,
        "host_atom": args.host_atom,
        "density": density,
        "outer_radius": outer,
        "cavity_radius": r_c,
        "module_value": module_value,
        "oracle_value": oracle_value,
        "relative_deviation": deviation,
        "pass": deviation < _BORN_TOL,
    }


def cmd_force_check(cfg: RunConfig, args) -> dict:
    atom_a, atom_b, material = _pair_models(cfg, args)
    l = cfg.unit.length_in(_positive("--separation", args.separation))
    q = cfg.quadrature
    r_c = _sweep_cavity_radius(cfg)
    analytic = force_pair(atom_a, atom_b, material, l, q, cavity_radius=r_c)

    fd_spec = dataclasses.replace(q, rel_tol=min(q.rel_tol, _FD_REL_TOL))
    numerical = finite_difference_force(
        lambda x: pair_bulk(atom_a, atom_b, material, x, fd_spec, cavity_radius=r_c).U,
        l, initial=5e-3 * l, levels=2)
    deviation = abs(analytic - numerical.value) / max(abs(analytic), 1e-300)
    return {
        "atom_a": args.atom_a,
        "atom_b": args.atom_b,
        "material": args.material,
        "separation": l,
        "analytic": analytic,
        "numerical": numerical.value,
        "fd_err_est": numerical.err_est,
        "relative_deviation": deviation,
        "pass": deviation < _FORCE_TOL,
    }


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    U = UnitSystem  # si: the (name, reduced field, conversion) of each SI twin
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML config file")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; changes nothing")

    parser = argparse.ArgumentParser(
        prog="lfvdw",
        description="Local-field-corrected van der Waals potentials in media",
    )
    parser.add_argument("--version", action="version", version=f"lfvdw {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", parents=[common], help="cavity coefficient table over sweep.u")
    p.add_argument("--material", required=True)
    p.add_argument("--cavity-radius", type=float)
    p.set_defaults(si=[("u_SI", "u", U.freq_out)])

    p = sub.add_parser("single", parents=[common], help="single embedded atom in infinite bulk")
    p.add_argument("--atom", required=True)
    p.add_argument("--material", required=True)
    p.add_argument("--cavity-radius", type=float)
    p.set_defaults(si=[("cavity_radius_m", "cavity_radius", U.length_out),
                       ("U1_J", "U1", U.energy_out), ("U2_J", "U2", U.energy_out),
                       ("total_J", "total", U.energy_out)])

    pair_args = argparse.ArgumentParser(add_help=False, parents=[common])
    for flag in ("--atom-a", "--atom-b", "--material"):
        pair_args.add_argument(flag, required=True)

    p = sub.add_parser("pair", parents=[pair_args], help="two-atom potential over sweep.l")
    p.set_defaults(si=[("l_m", "l", U.length_out), ("U_J", "U", U.energy_out)])

    p = sub.add_parser("nbody", parents=[common], help="N-atom ring potential from a positions file")
    p.add_argument("--positions", required=True, help="file with 'name x y z' lines")
    p.add_argument("--material", required=True)
    p.set_defaults(si=[("energy_J", "energy", U.energy_out)])

    p = sub.add_parser("limits", parents=[pair_args], help="retarded/non-retarded coefficients")
    p.set_defaults(si=[("C_r_J_m7", "C_r", U.c_r_out), ("C_nr_J_m6", "C_nr", U.c_nr_out),
                       ("crossover_length_m", "crossover_length_estimate", U.length_out)])

    p = sub.add_parser("born-check", parents=[common],
                       help="module path vs pairwise-summation oracle")
    p.add_argument("--guest", required=True)
    p.add_argument("--host-atom", required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--outer-radius", type=float, required=True)
    p.add_argument("--cavity-radius", type=float)
    p.set_defaults(si=[])  # no SI block

    p = sub.add_parser("force-check", parents=[pair_args],
                       help="analytic force vs finite differences")
    p.add_argument("--separation", type=float, required=True)
    p.set_defaults(si=[("analytic_N", "analytic", U.force_out)])
    return parser


def _error_doc(exc: LfvdwError) -> tuple[str, int]:
    """The JSON error document of exc and its exit code."""
    if isinstance(exc, ConfigError):
        return json.dumps({"error": {"type": "config", "message": str(exc)}}) + "\n", 2
    error = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConvergenceError):  # the partial result, per component
        error.update(value=np.asarray(exc.value).tolist(),
                     err_est=np.asarray(exc.err_est).tolist(), evals=exc.evals)
    return json.dumps({"error": error}) + "\n", 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # cmd_<command> is looked up at call time, so a wrapper set on the module runs
        payload = globals()[f"cmd_{args.command.replace('-', '_')}"](cfg, args)
        text = _render(cfg, payload, args.si, args.format)
        code = 0 if payload.get("pass", True) else 1
    except LfvdwError as exc:
        text, code = _error_doc(exc)
    if not args.out:
        sys.stdout.write(text)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        text, code = _error_doc(ConfigError(f"cannot write --out {args.out}: {exc}"))
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
