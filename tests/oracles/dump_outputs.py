"""Print a fixed set of library values and CLI outputs, one per line.

Run it once on each of two source trees and diff the results to see
which bits a change moved:

    PYTHONPATH=<old>/src python3 tests/oracles/dump_outputs.py > old.txt
    PYTHONPATH=src python3 tests/oracles/dump_outputs.py > new.txt
    python3 tests/oracles/dump_outputs.py --compare old.txt new.txt

``--counts`` prints instead, for each library key, how many integrand
calls and evaluations its quadrature took and how many node checks
(calls of ``response._as_nodes``) it made
(``key: calls=<n> evals=<n> checks=<n>``), summed over every integral the
key starts, nested ones included, and for each CLI invocation the
integrals it starts as well
(``cli <name> <format>: integrals=<n> calls=<n> evals=<n> checks=<n>``,
``default`` for the run with no --format);
two such files compare the same way.

Every line reads ``key: value``. The library values are the reprs of the
integrated quantities on a dielectric-magnetic (glass), a dielectric-only
and a magnetic-only host at rel_tol 1e-8 and 1e-10, then the nine entries
of ``bulk_dyad``, row by row, on glass and in vacuum, and three edge inputs
(eps at u = 1e200, ``bulk_dyad`` 1e-120 apart and eps on a 2 x 2 u), each
an error's type and message where the package rejects it; the CLI lines are the
stdout of 24 invocations on tests/data/glass.yaml and of the same 24 on
its SI twin tests/data/glass_si.yaml, with the flags in SI units: each of
8 command lines with --format csv, with --format json and with no
--format; one key per output line. ``--compare`` prints, for every key
whose value differs, the largest relative deviation over the numbers on
that line (or "text" when the lines differ in anything but numbers), and
the keys present in only one file. The script writes nothing into the
repository.
"""

from __future__ import annotations

import contextlib
import functools
import io
import math
import re
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "data"
# (key prefix, config, length unit of its flags and positions in reduced
# units); glass_si.yaml is glass.yaml at omega_ref = 1e15 rad/s
CONFIGS = (
    ("cli", DATA / "glass.yaml", 1.0),
    ("cli-si", DATA / "glass_si.yaml", 2.99792458e-7),
)

TOLS = (1e-8, 1e-10)
SEPARATIONS = (0.01, 0.3, 2.5, 10.0)
# probe and partner alternate around the ring
RING_POSITIONS = (
    (0.0, 0.0, 0.0),
    (3.0, 0.0, 0.0),
    (0.0, 3.5, 0.0),
    (1.0, 1.0, 4.0),
    (2.5, 3.0, 1.5),
    (-2.0, 1.0, 2.5),
)
# (r, rp) of bulk_dyad: on an axis, the same swapped, a skew pair, and a
# separation whose 1-D norm and row-wise norm differ in the last bit
DYAD_POINTS = (
    ((0.0, 0.0, 0.0), (3.0, 0.0, 0.0)),
    ((3.0, 0.0, 0.0), (0.0, 0.0, 0.0)),
    ((1.0, 1.0, 4.0), (2.5, 3.0, 1.5)),
    ((0.1, 0.4, 1.7), (0.0, 0.0, 0.0)),
)
DYAD_U = (0.3, 2.0)
# edge inputs that each end in a typed error: a u whose square overflows,
# points whose dyad's 1/l^3 terms overflow, and a u of two dimensions
EDGE_U = 1e200
EDGE_DYAD = ((1e-120, 0.0, 0.0), (0.0, 0.0, 0.0))
EDGE_U_2D = [[0.5, 1.0], [2.0, 5.0]]
R_C = 0.05
OUTER = 10.0
DENSITY = 0.03


def _entries(key, fn):
    """(key, repr) lines of fn(), one per element when it returns a list."""
    from lfvdw import LfvdwError

    try:
        value = fn()
    except LfvdwError as exc:
        yield key, f"{type(exc).__name__}({exc})"
        return
    if isinstance(value, list):
        for k, v in enumerate(value):
            yield f"{key}#{k}", repr(v)
    else:
        yield key, repr(value)


def library_lines():
    # lfvdw is imported here and in cli_lines and counts, so that --compare
    # runs without the package on the path
    import lfvdw
    from lfvdw.cavity import CavitySpec
    from lfvdw.green import born_scatter_trace, bulk_dyad
    from lfvdw.oracle import DiluteHost, total_pairwise_sum, u1_pairwise_sum
    from lfvdw.quadrature import QuadSpec
    from lfvdw.response import VACUUM, AtomModel, LorentzTerm, MediumResponse

    probe = AtomModel(resonances=((1.0, 0.02),))
    partner = AtomModel(resonances=((1.3, 0.015),), beta_resonances=((2.1, 0.004),))
    hosts = {
        "glass": MediumResponse(
            eps_terms=(LorentzTerm(plasma_strength=1.5, resonance=1.2, damping=0.02),),
            mu_terms=(LorentzTerm(plasma_strength=0.2, resonance=2.0),),
        ),
        "dielectric": MediumResponse(
            eps_terms=(LorentzTerm(plasma_strength=1.5, resonance=1.2, damping=0.02),),
        ),
        "magnetic": MediumResponse(
            mu_terms=(LorentzTerm(plasma_strength=0.3, resonance=1.5),),
        ),
    }
    # the dilute host atoms standing in for each host in the pairwise sums
    dilute_atoms = {"glass": partner, "dielectric": probe, "magnetic": partner}
    ring = [((probe, partner)[k % 2], pos) for k, pos in enumerate(RING_POSITIONS)]
    for host_name, host in hosts.items():
        for rel in TOLS:
            q = QuadSpec(rel_tol=rel)
            tag = f"[{host_name},{rel:g}]"
            spec = CavitySpec(radius=R_C, host=host)
            dilute = DiluteHost(density=DENSITY, host_atom=dilute_atoms[host_name])
            shell = dilute.to_shell(R_C, OUTER)
            born_spec = CavitySpec(radius=R_C, host=dilute.to_medium())

            def trace(u):
                return born_scatter_trace(shell, u)

            for l in SEPARATIONS:
                for flag in (True, False):
                    yield (f"pair_bulk{tag}(l={l},corrected={flag})",
                           lambda: lfvdw.pair_bulk(probe, partner, host, l, q, corrected=flag).U)
                yield (f"force_pair{tag}(l={l})",
                       lambda: lfvdw.force_pair(probe, partner, host, l, q))
                # "both": the electric and the magnetic part, the key of older dumps
                yield (f"pair_free_space{tag}(l={l},both)",
                       lambda: lfvdw.pair_free_space(probe, partner, l, q))
            yield f"coeff_nonretarded{tag}", lambda: lfvdw.coeff_nonretarded(probe, partner, host, q)
            for atom_name, atom in (("probe", probe), ("partner", partner)):
                at = f"{tag}({atom_name})"
                yield f"u1_exact{at}", lambda: lfvdw.u1_exact(atom, spec, q)
                yield f"u1_expanded.term_r3{at}", lambda: lfvdw.u1_expanded(atom, spec, q).term_r3
                yield f"u1_expanded.term_r1{at}", lambda: lfvdw.u1_expanded(atom, spec, q).term_r1
                yield f"stiffness.K{at}", lambda: lfvdw.cavity_center_stiffness(atom, spec, q).K
                yield f"stiffness.K_small_radius{at}", lambda: lfvdw.cavity_center_stiffness(atom, spec, q).K_small_radius
                yield (f"u1_linearized{at}",
                       lambda: lfvdw.u1_linearized(atom, R_C, dilute.chi_iu, dilute.zeta_iu, q))
                yield f"u2_single{at}", lambda: lfvdw.u2_single(atom, born_spec, trace, q)
                yield (f"u1_pairwise_sum{at}",
                       lambda: u1_pairwise_sum(atom, dilute, R_C, q))
                yield (f"total_pairwise_sum{at}",
                       lambda: total_pairwise_sum(atom, dilute, R_C, OUTER, q))
            # deep in the retarded regime, where an asymptotic tail in place
            # of the far radial integral shows at 1e-10
            yield (f"u1_pairwise_sum{tag}(probe,R_c=5)",
                   lambda: u1_pairwise_sum(probe, dilute, 5.0, q))
            for n in range(2, 7):
                yield f"n_atom_bulk{tag}(N={n})", lambda: lfvdw.n_atom_bulk(ring[:n], host, q)
                yield (f"n_atom_orderings{tag}(N={n})",
                       lambda: [e for _, e in lfvdw.n_atom_orderings(ring[:n], host, q)])
    for host_name, host in (("glass", hosts["glass"]), ("vacuum", VACUUM)):
        for r, rp in DYAD_POINTS:
            for u in DYAD_U:
                yield (f"bulk_dyad[{host_name}](r={r},rp={rp},u={u})",
                       lambda: bulk_dyad(host, r, rp, u).ravel().tolist())
    yield f"eps_iu[glass](u={EDGE_U})", lambda: hosts["glass"].eps_iu(EDGE_U)
    yield (f"bulk_dyad[vacuum](r={EDGE_DYAD[0]},rp={EDGE_DYAD[1]},u=1.0)",
           lambda: bulk_dyad(VACUUM, *EDGE_DYAD, 1.0).ravel().tolist())
    yield f"eps_iu[glass](u={EDGE_U_2D})", lambda: hosts["glass"].eps_iu(EDGE_U_2D).tolist()


def cli_runs():
    """(key, run) of each CLI invocation; run() returns its exit code and its
    stdout, with the positions file's path replaced by <positions>. As with
    library_lines, call each run before taking the next one."""
    from lfvdw import cli

    for prefix, config, length in CONFIGS:
        yield from _cli_runs(cli, prefix, str(config), length)


def _cli_runs(cli, prefix, config, length):
    with tempfile.TemporaryDirectory() as tmp:
        positions = Path(tmp) / "ring4.txt"
        positions.write_text("".join(
            f"{'probe' if k % 2 == 0 else 'partner'} {x * length!r} {y * length!r} {z * length!r}\n"
            for k, (x, y, z) in enumerate(RING_POSITIONS[:4])
        ))
        pair = ["--atom-a", "probe", "--atom-b", "partner", "--material", "glass"]
        commands = {
            "coeffs": ["coeffs", "--material", "glass"],
            "pair": ["pair", *pair],
            "limits": ["limits", *pair],
            "single": ["single", "--atom", "probe", "--material", "glass"],
            "nbody": ["nbody", "--positions", str(positions), "--material", "glass"],
            "force-check": ["force-check", *pair, "--separation", repr(3 * length)],
            "force-check-0.5": ["force-check", *pair, "--separation", repr(0.5 * length)],
            "born-check": ["born-check", "--guest", "probe", "--host-atom", "partner",
                           "--density", repr(0.05 / length**3),
                           "--outer-radius", repr(10 * length)],
        }

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            return code, buf.getvalue().replace(str(positions), "<positions>")

        for name, argv in commands.items():
            for fmt in ("csv", "json"):
                yield (f"{prefix} {name} {fmt}",
                       functools.partial(run, [*argv, "--config", config, "--format", fmt]))
            # no --format: the command's own default, table CSV or document JSON
            yield f"{prefix} {name} default", functools.partial(run, [*argv, "--config", config])


def dump(out=sys.stdout):
    # each callable runs as soon as it is yielded, so the loop variables
    # it closes over still hold the values named in its key
    for key, fn in library_lines():
        for entry, value in _entries(key, fn):
            out.write(f"{entry}: {value}\n")
    for key, run in cli_runs():
        code, text = run()
        out.write(f"{key} exit: {code}\n")
        for k, line in enumerate(text.splitlines()):
            out.write(f"{key} {k:03d}: {line}\n")


def _counting(adaptive, tally):
    """adaptive, adding its integrals, integrand calls and evaluations to tally."""

    def wrapped(f, *args, **kwargs):
        def g(x):
            tally["calls"] += 1
            return f(x)

        tally["integrals"] += 1
        res = adaptive(g, *args, **kwargs)
        tally["evals"] += res.evals
        return res

    return wrapped


def _checking(as_nodes, tally):
    """as_nodes, adding one to tally's checks per call."""

    def wrapped(u):
        tally["checks"] += 1
        return as_nodes(u)

    return wrapped


def counts(out=sys.stdout):
    from lfvdw import LfvdwError, quadrature, response

    # every integral of the package goes through the engine's _adaptive;
    # every module that imports the node check by name (lfvdw imports them
    # all) gets the counting one
    tally = {}
    adaptive, as_nodes = quadrature._adaptive, response._as_nodes
    holders = [m for name, m in sys.modules.items()
               if name.startswith("lfvdw") and getattr(m, "_as_nodes", None) is as_nodes]
    quadrature._adaptive = _counting(adaptive, tally)
    for module in holders:
        module._as_nodes = _checking(as_nodes, tally)
    try:
        for key, fn in library_lines():
            tally.update(integrals=0, calls=0, evals=0, checks=0)
            try:
                fn()
            except LfvdwError as exc:
                key = f"{key} ({type(exc).__name__})"
            out.write(f"{key}: calls={tally['calls']} evals={tally['evals']} "
                      f"checks={tally['checks']}\n")
        for key, run in cli_runs():
            tally.update(integrals=0, calls=0, evals=0, checks=0)
            run()
            out.write(f"{key}: integrals={tally['integrals']} calls={tally['calls']} "
                      f"evals={tally['evals']} checks={tally['checks']}\n")
    finally:
        quadrature._adaptive = adaptive
        for module in holders:
            module._as_nodes = as_nodes


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def _read(path):
    entries = {}
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition(": ")
        entries[key] = value
    return entries


def _deviation(old: str, new: str) -> str:
    if _NUMBER.sub("#", old) != _NUMBER.sub("#", new):
        return "text"
    worst = 0.0
    for a, b in zip(_NUMBER.findall(old), _NUMBER.findall(new)):
        x, y = float(a), float(b)
        if x != y and not (math.isnan(x) and math.isnan(y)):
            worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
    return f"{worst:.3g}"


def compare(old_path, new_path, out=sys.stdout) -> int:
    old, new = _read(old_path), _read(new_path)
    changed = 0
    keys = list(old) + [key for key in new if key not in old]
    for key in keys:
        if key not in old or key not in new:
            out.write(f"{key}: only in {'old' if key in old else 'new'}\n")
            changed += 1
        elif old[key] != new[key]:
            out.write(f"{key}: {_deviation(old[key], new[key])}\n")
            changed += 1
    out.write(f"# {changed} of {len(keys)} keys differ\n")
    return 1 if changed else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--compare"] and len(sys.argv) == 4:
        raise SystemExit(compare(sys.argv[2], sys.argv[3]))
    if sys.argv[1:] == ["--counts"]:
        counts()
    elif len(sys.argv) > 1:
        raise SystemExit(__doc__)
    else:
        dump()
