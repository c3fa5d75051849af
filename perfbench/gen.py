"""Seeded input generation for the lfvdw benchmark.

Everything the program under test sees is written here as plain files:
YAML configs in the format ``lfvdw.load_config`` reads and ``name x y z``
positions files for ``nbody``. Each input slot draws from its own
``random.Random`` seeded with a string of (op set, seed, slot), so the
same seed always gives byte-identical files, and one slot's draws do not
shift when another slot changes.

Structural sizes (grid points, atom count, which atoms carry beta poles,
how many Lorentz terms a medium has) and the quadrature tolerance are
fixed per slot; the seed only draws the physical parameters. That keeps
the cost of a pass over the inputs nearly the same from seed to seed, so
run-to-run spread measures the program rather than the draw.

All parameters stay inside the model's validity range: eps, mu >= 1 by
construction, cavity radius times the largest resonance well below 0.5,
separations beyond five cavity radii, and dilute hosts with
|chi(0)| < 0.01.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path


def slot_rng(op_set: str, seed: int, slot: str) -> random.Random:
    return random.Random(f"lfvdw-bench:{op_set}:{seed}:{slot}")


def fnum(x: float) -> str:
    """Shortest round-trip float text that YAML and float() both read back."""
    text = repr(float(x))
    if "e" in text and "." not in text.split("e")[0]:
        mant, exp = text.split("e")
        text = f"{mant}.0e{exp}"
    return text


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def log_grid(lo: float, hi: float, n: int) -> list[float]:
    if n == 1:
        return [lo]
    step = math.log(hi / lo) / (n - 1)
    return [lo * math.exp(k * step) for k in range(n)]


@dataclass
class Medium:
    eps: list[tuple[float, float, float]] = field(default_factory=list)
    mu: list[tuple[float, float, float]] = field(default_factory=list)


@dataclass
class Atom:
    alpha: list[tuple[float, float]]
    beta: list[tuple[float, float]] = field(default_factory=list)

    @property
    def max_resonance(self) -> float:
        return max(w for w, _ in self.alpha + self.beta)

    @property
    def alpha_static(self) -> float:
        return sum(a for _, a in self.alpha)


def gen_terms(rng: random.Random, n: int, strength: tuple[float, float]):
    terms = []
    for _ in range(n):
        s = rng.uniform(*strength)
        w = log_uniform(rng, 0.8, 3.0)
        g = rng.choice((0.0, rng.uniform(0.005, 0.1)))
        terms.append((s, w, g))
    return terms


def gen_medium(rng: random.Random, n_eps: int, n_mu: int) -> Medium:
    return Medium(
        eps=gen_terms(rng, n_eps, (0.3, 2.0)),
        mu=gen_terms(rng, n_mu, (0.05, 0.4)),
    )


def gen_atom(rng: random.Random, n_alpha: int, with_beta: bool) -> Atom:
    alpha = [(log_uniform(rng, 0.6, 2.5), rng.uniform(0.005, 0.05)) for _ in range(n_alpha)]
    beta = [(log_uniform(rng, 1.0, 3.0), rng.uniform(0.001, 0.005))] if with_beta else []
    return Atom(alpha=alpha, beta=beta)


def _terms_yaml(key: str, terms) -> list[str]:
    if not terms:
        return []
    lines = [f"    {key}:"]
    for s, w, g in terms:
        lines.append(
            f"      - {{plasma_strength: {fnum(s)}, resonance: {fnum(w)}, damping: {fnum(g)}}}"
        )
    return lines


def _pairs(values) -> str:
    return "[" + ", ".join(f"[{fnum(w)}, {fnum(a)}]" for w, a in values) + "]"


def _list(values) -> str:
    return "[" + ", ".join(fnum(v) for v in values) + "]"


def config_yaml(
    materials: dict[str, Medium],
    atoms: dict[str, Atom],
    rel_tol: float,
    sweep: dict[str, list[float] | float] | None = None,
) -> str:
    lines = ["unit_system: reduced", "materials:"]
    for name, med in materials.items():
        lines.append(f"  {name}:")
        lines += _terms_yaml("eps_terms", med.eps)
        lines += _terms_yaml("mu_terms", med.mu)
    lines.append("atoms:")
    for name, atom in atoms.items():
        lines.append(f"  {name}:")
        lines.append(f"    resonances: {_pairs(atom.alpha)}")
        if atom.beta:
            lines.append(f"    beta_resonances: {_pairs(atom.beta)}")
    lines += ["quadrature:", f"  rel_tol: {fnum(rel_tol)}", "  abs_tol: 1.0e-14"]
    if sweep:
        lines.append("sweep:")
        for key, val in sweep.items():
            text = _list(val) if isinstance(val, list) else fnum(val)
            lines.append(f"  {key}: {text}")
    return "\n".join(lines) + "\n"


def write(path: Path, text: str) -> str:
    path.write_text(text, encoding="utf-8")
    return str(path)


def gen_positions(rng: random.Random, n: int, box: float, min_dist: float):
    """n points in a cube of side ``box``, pairwise at least ``min_dist`` apart."""
    pts: list[tuple[float, float, float]] = []
    while len(pts) < n:
        p = tuple(rng.uniform(0.0, box) for _ in range(3))
        if all(math.dist(p, q) >= min_dist for q in pts):
            pts.append(p)
    return pts
