"""Command line interface.

Subcommands: coeffs, single, pair, nbody, limits, born-check, force-check.
Every command reads one YAML config (--config), writes CSV or JSON
(--out, --format), and stamps its output with the package version and a
hash of the config file so identical inputs give byte-identical files.
Grid sweeps evaluate their points in order in the calling thread; --threads
is still accepted for old scripts and changes nothing.

Exit codes: 0 success, 1 a requested consistency check failed its
tolerance, 2 configuration/usage error, 3 a physics invariant tripped.
Failures are reported as a machine-readable JSON error document.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from .cavity import CavitySpec, coeff_C_exact, coeff_C_expansion, coeff_D_exact, coeff_D_leading
from .config import RunConfig, load_config
from .errors import ConfigError, LfvdwError
from .green import born_scatter_trace
from .oracle import DiluteHost, StepPolicy, finite_difference_force, total_pairwise_sum
from .potentials import (
    coeff_nonretarded,
    coeff_retarded,
    force_pair,
    n_atom_orderings,
    pair_bulk,
    single_atom_total,
    u2_single,
    u1_expanded,
)
from .response import AtomModel

__all__ = ["main"]

_FD_REL_TOL = 1e-10
_BORN_TOL = 1e-2
_FORCE_TOL = 1e-6


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _meta(cfg: RunConfig) -> dict:
    return {"version": __version__, "config_hash": cfg.config_hash}


def _render_table(cfg: RunConfig, columns: list[str], rows: list[list], fmt: str) -> str:
    if fmt == "json":
        payload = {
            "meta": _meta(cfg),
            "rows": [dict(zip(columns, row)) for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"# lfvdw {__version__} config={cfg.config_hash}", ",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_doc(cfg: RunConfig, payload: dict, fmt: str) -> str:
    doc = {"meta": _meta(cfg), **payload}
    if fmt == "csv":
        flat = {k: v for k, v in payload.items() if isinstance(v, (int, float, str, bool))}
        lines = [
            f"# lfvdw {__version__} config={cfg.config_hash}",
            ",".join(flat),
            ",".join(_fmt(v) for v in flat.values()),
        ]
        return "\n".join(lines) + "\n"
    return json.dumps(doc, indent=2) + "\n"


def _cavity_radius(cfg: RunConfig, args) -> float:
    if getattr(args, "cavity_radius", None) is not None:
        if not 0.0 < args.cavity_radius < math.inf:
            raise ConfigError(
                f"--cavity-radius must be finite and > 0, got {args.cavity_radius}"
            )
        return cfg.unit.length_in(args.cavity_radius)
    if cfg.sweep.cavity_radius:
        return cfg.sweep.cavity_radius[0]
    raise ConfigError("no cavity radius: pass --cavity-radius or set sweep.R_c")


def _local_slopes(l_grid: np.ndarray, u_vals: np.ndarray) -> np.ndarray:
    if l_grid.size < 2:
        return np.full_like(l_grid, math.nan)
    return np.gradient(np.log(np.abs(u_vals)), np.log(l_grid))


def cmd_coeffs(cfg: RunConfig, args) -> int:
    material = cfg.material(args.material)
    if not cfg.sweep.u:
        raise ConfigError("coeffs needs a sweep.u grid in the config")
    u = np.array(cfg.sweep.u)
    spec = CavitySpec(radius=_cavity_radius(cfg, args), host=material)
    columns = ["u", "eps", "mu", "n", "D_leading", "D_exact", "C1_exact", "C1_expansion", "C2"]
    table = np.column_stack(
        [
            u,
            material.eps_iu(u),
            material.mu_iu(u),
            material.n_iu(u),
            coeff_D_leading(material, u),
            coeff_D_exact(spec, u),
            coeff_C_exact(spec, 1, u),
            coeff_C_expansion(spec, u),
            coeff_C_exact(spec, 2, u),
        ]
    )
    rows = [list(map(float, row)) for row in table]
    if cfg.unit.is_si:
        columns.append("u_SI")
        for row in rows:
            row.append(cfg.unit.freq_out(row[0]))
    _emit(_render_table(cfg, columns, rows, args.format or "csv"), args.out)
    return 0


def cmd_single(cfg: RunConfig, args) -> int:
    atom = cfg.atom(args.atom)
    material = cfg.material(args.material)
    r_c = _cavity_radius(cfg, args)
    spec = CavitySpec(radius=r_c, host=material)
    res = single_atom_total(
        atom, spec, lambda u: np.zeros_like(u), cfg.quadrature
    )
    payload = {
        "atom": args.atom,
        "material": args.material,
        "cavity_radius": r_c,
        "U1": res.U1,
        "U2": res.U2,
        "total": res.total,
        "term_r3": res.term_r3,
        "term_r1": res.term_r1,
    }
    if cfg.unit.is_si:
        payload["SI"] = {
            "cavity_radius_m": cfg.unit.length_out(r_c),
            "U1_J": cfg.unit.energy_out(res.U1),
            "U2_J": cfg.unit.energy_out(res.U2),
            "total_J": cfg.unit.energy_out(res.total),
        }
    _emit(_render_doc(cfg, payload, args.format or "json"), args.out)
    return 0


def cmd_pair(cfg: RunConfig, args) -> int:
    atom_a = cfg.atom(args.atom_a)
    atom_b = cfg.atom(args.atom_b)
    material = cfg.material(args.material)
    if not cfg.sweep.l:
        raise ConfigError("pair needs a sweep.l grid in the config")
    l_grid = np.array(cfg.sweep.l)
    r_c = cfg.sweep.cavity_radius[0] if cfg.sweep.cavity_radius else None
    corrected = not args.uncorrected

    u_corr, u_unc = np.array([
        [
            pair_bulk(atom_a, atom_b, material, l, cfg.quadrature,
                      corrected=flag, cavity_radius=r_c).U
            for flag in (True, False)
        ]
        for l in l_grid
    ]).T
    u_main = u_corr if corrected else u_unc
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(u_unc != 0.0, u_main / u_unc, math.nan)
    slopes = _local_slopes(l_grid, u_main)

    columns = ["l", "U", "U_uncorrected", "ratio", "local_slope"]
    rows = [
        [float(l), float(u), float(uu), float(r), float(s)]
        for l, u, uu, r, s in zip(l_grid, u_main, u_unc, ratio, slopes)
    ]
    if cfg.unit.is_si:
        columns.extend(["l_m", "U_J"])
        for row in rows:
            row.extend([cfg.unit.length_out(row[0]), cfg.unit.energy_out(row[1])])
    _emit(_render_table(cfg, columns, rows, args.format or "csv"), args.out)
    return 0


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
    except OSError as exc:
        raise ConfigError(f"cannot read positions file {path}: {exc}") from None
    if not entries:
        raise ConfigError(f"positions file {path} contains no atoms")
    return entries


def cmd_nbody(cfg: RunConfig, args) -> int:
    material = cfg.material(args.material)
    atoms = _read_positions(args.positions, cfg)
    if not 2 <= len(atoms) <= 6:
        raise ConfigError(
            f"positions file {args.positions} has {len(atoms)} atoms; need 2 to 6"
        )
    r_c = cfg.sweep.cavity_radius[0] if cfg.sweep.cavity_radius else None
    per_ordering = n_atom_orderings(atoms, material, cfg.quadrature, cavity_radius=r_c)
    energy = math.fsum(e for _, e in per_ordering)
    payload = {
        "material": args.material,
        "n_atoms": len(atoms),
        "energy": energy,
        "orderings": [
            {"cycle": list(ordering), "energy": e} for ordering, e in per_ordering
        ],
    }
    if cfg.unit.is_si:
        payload["SI"] = {"energy_J": cfg.unit.energy_out(energy)}
    _emit(_render_doc(cfg, payload, args.format or "json"), args.out)
    return 0


def cmd_limits(cfg: RunConfig, args) -> int:
    atom_a = cfg.atom(args.atom_a)
    atom_b = cfg.atom(args.atom_b)
    material = cfg.material(args.material)
    c_r = coeff_retarded(atom_a, atom_b, material)
    c_nr = coeff_nonretarded(atom_a, atom_b, material, cfg.quadrature)
    crossover = c_r / c_nr if c_nr != 0.0 else math.inf
    payload = {
        "atom_a": args.atom_a,
        "atom_b": args.atom_b,
        "material": args.material,
        "C_r": c_r,
        "C_nr": c_nr,
        "crossover_length_estimate": crossover,
    }
    if cfg.unit.is_si:
        payload["SI"] = {
            "C_r_J_m7": cfg.unit.c_r_out(c_r),
            "C_nr_J_m6": cfg.unit.c_nr_out(c_nr),
            "crossover_length_m": cfg.unit.length_out(crossover),
        }
    _emit(_render_doc(cfg, payload, args.format or "json"), args.out)
    return 0


def cmd_born_check(cfg: RunConfig, args) -> int:
    guest = cfg.atom(args.guest)
    host_atom = cfg.atom(args.host_atom)
    density = cfg.unit.density_in(args.density)
    outer = cfg.unit.length_in(args.outer_radius)
    r_c = _cavity_radius(cfg, args)
    host = DiluteHost(density=density, host_atom=host_atom)
    medium = host.to_medium()
    spec = CavitySpec(radius=r_c, host=medium)
    shell = host.to_shell(r_c, outer)
    q = cfg.quadrature

    u1 = u1_expanded(guest, spec, q).total
    u2 = u2_single(guest, spec, lambda u: born_scatter_trace(shell, u, q), q)
    module_value = u1 + u2
    oracle_value = total_pairwise_sum(guest, host, shell, r_c, q)
    denom = max(abs(oracle_value), 1e-300)
    deviation = abs(module_value - oracle_value) / denom
    ok = deviation < _BORN_TOL
    payload = {
        "guest": args.guest,
        "host_atom": args.host_atom,
        "density": density,
        "outer_radius": outer,
        "cavity_radius": r_c,
        "module_value": module_value,
        "oracle_value": oracle_value,
        "relative_deviation": deviation,
        "pass": ok,
    }
    _emit(_render_doc(cfg, payload, args.format or "json"), args.out)
    return 0 if ok else 1


def cmd_force_check(cfg: RunConfig, args) -> int:
    atom_a = cfg.atom(args.atom_a)
    atom_b = cfg.atom(args.atom_b)
    material = cfg.material(args.material)
    l = cfg.unit.length_in(args.separation)
    q = cfg.quadrature
    analytic = force_pair(atom_a, atom_b, material, l, q)

    fd_spec = dataclasses.replace(q, rel_tol=min(q.rel_tol, _FD_REL_TOL))

    def energy(x: float) -> float:
        return pair_bulk(atom_a, atom_b, material, x, fd_spec).U

    numerical = finite_difference_force(
        energy, l, StepPolicy(initial=5e-3 * l, levels=2)
    )
    denom = max(abs(analytic), 1e-300)
    deviation = abs(analytic - numerical.value) / denom
    ok = deviation < _FORCE_TOL
    payload = {
        "atom_a": args.atom_a,
        "atom_b": args.atom_b,
        "material": args.material,
        "separation": l,
        "analytic": analytic,
        "numerical": numerical.value,
        "fd_err_est": numerical.err_est,
        "relative_deviation": deviation,
        "pass": ok,
    }
    if cfg.unit.is_si:
        payload["SI"] = {"analytic_N": cfg.unit.force_out(analytic)}
    _emit(_render_doc(cfg, payload, args.format or "json"), args.out)
    return 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="YAML config file")
    common.add_argument("--out", help="output file (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"))
    common.add_argument("--tol", type=float, help="override quadrature rel_tol")
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

    p = sub.add_parser("single", parents=[common], help="single embedded atom in infinite bulk")
    p.add_argument("--atom", required=True)
    p.add_argument("--material", required=True)
    p.add_argument("--cavity-radius", type=float)

    p = sub.add_parser("pair", parents=[common], help="two-atom potential over sweep.l")
    p.add_argument("--atom-a", required=True)
    p.add_argument("--atom-b", required=True)
    p.add_argument("--material", required=True)
    p.add_argument("--uncorrected", action="store_true",
                   help="report the uncorrected potential in the U column")

    p = sub.add_parser("nbody", parents=[common], help="N-atom ring potential from a positions file")
    p.add_argument("--positions", required=True, help="file with 'name x y z' lines")
    p.add_argument("--material", required=True)

    p = sub.add_parser("limits", parents=[common], help="retarded/non-retarded coefficients")
    p.add_argument("--atom-a", required=True)
    p.add_argument("--atom-b", required=True)
    p.add_argument("--material", required=True)

    p = sub.add_parser("born-check", parents=[common],
                       help="module path vs pairwise-summation oracle")
    p.add_argument("--guest", required=True)
    p.add_argument("--host-atom", required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--outer-radius", type=float, required=True)
    p.add_argument("--cavity-radius", type=float)

    p = sub.add_parser("force-check", parents=[common],
                       help="analytic force vs finite differences")
    p.add_argument("--atom-a", required=True)
    p.add_argument("--atom-b", required=True)
    p.add_argument("--material", required=True)
    p.add_argument("--separation", type=float, required=True)
    return parser


_DISPATCH = {
    "coeffs": cmd_coeffs,
    "single": cmd_single,
    "pair": cmd_pair,
    "nbody": cmd_nbody,
    "limits": cmd_limits,
    "born-check": cmd_born_check,
    "force-check": cmd_force_check,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = getattr(args, "out", None)
    try:
        cfg = load_config(args.config, tol_override=args.tol)
        return _DISPATCH[args.command](cfg, args)
    except ConfigError as exc:
        _emit(json.dumps({"error": {"type": "config", "message": str(exc)}}) + "\n", out)
        return 2
    except LfvdwError as exc:
        _emit(
            json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}) + "\n",
            out,
        )
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
