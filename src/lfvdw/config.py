"""Run configuration: strict schema, unit boundary, reproducible hashing.

One YAML file defines named materials and atoms, the unit system, the
quadrature settings and the sweep grids. Unknown keys anywhere are hard
errors; a typo in a physics config must never be silently ignored.

Unit systems, UnitSystem(omega_ref) with omega_ref None for reduced:
  reduced        all quantities dimensionless (frequencies in w_ref,
                 lengths in c/w_ref, polarizability volumes in
                 4 pi eps0 (c/w_ref)^3); no conversion happens.
  SI(omega_ref)  the file carries SI values: frequencies in rad/s,
                 lengths in m, polarizability and magnetizability
                 volumes in m^3, densities in m^-3. They are converted
                 to reduced units on load, and command outputs are
                 reported in both unit systems.
"""

from __future__ import annotations

import hashlib
import math
import operator
import re
from dataclasses import dataclass

import yaml
from yaml.events import (AliasEvent, MappingEndEvent, MappingStartEvent, ScalarEvent,
                         SequenceEndEvent, SequenceStartEvent)

from .errors import ConfigError
from .quadrature import QuadSpec
from .response import AtomModel, LorentzTerm, MediumResponse, VACUUM

__all__ = ["UnitSystem", "RunConfig", "load_config"]

HBAR_SI = 1.054571817e-34  # J s
C_SI = 299792458.0  # m/s

# libyaml's parser is about ten times faster; PyYAML may lack it
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_TAGS = {None, "!"} | {f"tag:yaml.org,2002:{t}" for t in "map seq str null bool int float".split()}
_PLAIN = {"": None, "~": None, "null": None, "Null": None, "NULL": None}
# digits with a leading zero: YAML 1.1 reads 010 as 8 and float() as 10, so neither may
_LEADING_ZERO = re.compile(r"\n[-+]?0[0-9_]+(?=\n)")
_INT = re.compile(r"[-+]?(0|[1-9][0-9]*)")  # max_subdivisions, decimal


@dataclass(frozen=True)
class UnitSystem:
    """Unit conversions around the dimensionless core: SI at omega_ref rad/s, reduced if None."""

    omega_ref: float | None = None

    def __post_init__(self):
        if self.omega_ref is not None and not 0.0 < self.omega_ref < math.inf:
            raise ConfigError("SI unit system needs omega_ref > 0 in rad/s")

    @property
    def is_si(self) -> bool:
        return self.omega_ref is not None

    @property
    def length_unit_m(self) -> float:
        return C_SI / self.omega_ref

    # input conversions (SI file values -> reduced)
    def freq_in(self, w: float) -> float:
        return w / self.omega_ref if self.is_si else w

    def freq_sq_in(self, w2: float) -> float:
        return w2 / self.omega_ref**2 if self.is_si else w2

    def length_in(self, x: float) -> float:
        return x / self.length_unit_m if self.is_si else x

    def volume_in(self, v: float) -> float:
        return v / self.length_unit_m**3 if self.is_si else v

    def density_in(self, rho: float) -> float:
        return rho * self.length_unit_m**3 if self.is_si else rho

    # output conversions (reduced -> SI)
    def energy_out(self, e: float) -> float:
        return e * HBAR_SI * self.omega_ref

    def force_out(self, f: float) -> float:
        return f * HBAR_SI * self.omega_ref**2 / C_SI

    def length_out(self, l: float) -> float:
        return l * self.length_unit_m

    def freq_out(self, u: float) -> float:
        return u * self.omega_ref

    def c_r_out(self, c: float) -> float:
        return c * HBAR_SI * self.omega_ref * self.length_unit_m**7

    def c_nr_out(self, c: float) -> float:
        return c * HBAR_SI * self.omega_ref * self.length_unit_m**6


@dataclass(frozen=True)
class Sweep:
    """Parameter grids; all in reduced units after loading. sweep.R_c is
    one number, so cavity_radius holds it as (R_c,), or () when unset."""

    u: tuple[float, ...] = ()
    l: tuple[float, ...] = ()
    cavity_radius: tuple[float, ...] = ()


@dataclass(frozen=True)
class RunConfig:
    materials: dict[str, MediumResponse]
    atoms: dict[str, AtomModel]
    unit: UnitSystem
    quadrature: QuadSpec
    sweep: Sweep
    config_hash: str

    def material(self, name: str) -> MediumResponse:
        if name == "vacuum" and name not in self.materials:
            return VACUUM
        try:
            return self.materials[name]
        except KeyError:
            raise ConfigError(f"material {name!r} is not defined in the config") from None

    def atom(self, name: str) -> AtomModel:
        try:
            return self.atoms[name]
        except KeyError:
            raise ConfigError(f"atom {name!r} is not defined in the config") from None


def _mapping(items: list, frames) -> dict:
    """The dict of a mapping's [key, value, ...] items. frames hold, for every
    collection around it from the document down, its items and the event
    class and anchor of the collection opened inside it."""
    keys = items[::2]
    out = dict(zip(keys, items[1::2])) if all(type(k) not in (list, dict) for k in keys) else {}
    if len(out) < len(keys):
        dup = next((k for i, k in enumerate(keys) if k in keys[:i]), None)
        where = "".join(f".{outer[-1]}" if kind is MappingStartEvent else f"[{len(outer)}]"
                        for (_, kind, _), (outer, _, _) in zip(frames, frames[1:])).lstrip(".")
        raise yaml.YAMLError(("a non-scalar key" if dup is None else f"duplicate key {dup!r}")
                             + f" in {where or 'the top level'}")
    return out


def _read_yaml(raw: bytes):
    """The one document of raw as dicts, lists, None and scalar text, for the
    schema to type; the rules are in the README's "Configuration file" section."""
    anchors, frames, node = {}, [], []  # node: the open collection's items, or the documents
    loader = _LOADER(raw)
    try:  # yaml.parse's event stream, without its generator
        for ev in iter(loader.get_event, None):
            cls = type(ev)
            if cls is ScalarEvent and ev.implicit[0]:
                value, anchor = ev.value, ev.anchor
                if value in _PLAIN:
                    value = _PLAIN[value]
                elif value == "<<":  # YAML 1.1's merge key; YAML 1.2 has none
                    raise ConfigError("merge keys (a plain <<) are not supported; quote '<<'")
            elif getattr(ev, "tag", None) not in _TAGS:
                raise yaml.YAMLError(f"tag {ev.tag} is not one of YAML's core tags")
            elif cls is ScalarEvent:
                value, anchor = ev.value, ev.anchor
            elif cls is MappingStartEvent or cls is SequenceStartEvent:
                frames.append((node, cls, ev.anchor))
                node = []
                continue
            elif cls is MappingEndEvent or cls is SequenceEndEvent:
                value = _mapping(node, frames) if cls is MappingEndEvent else node
                node, _, anchor = frames.pop()
            elif cls is AliasEvent:
                if ev.anchor not in anchors:
                    raise yaml.YAMLError(f"found undefined alias {ev.anchor!r}")
                value, anchor = anchors[ev.anchor], None
            else:  # the stream's and the documents' start and end
                continue
            if anchor is not None:
                anchors[anchor] = value
            node.append(value)
        if len(node) > 1:
            raise yaml.YAMLError("expected a single document, found a second one")
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    finally:
        loader.dispose()
    return node[0] if node else None


def _as_mapping(node, context: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{context} must be a mapping")
    return node


def _section(node, allowed: tuple[str, ...], context: str) -> dict:
    """A mapping whose keys all come from allowed; None reads as {}."""
    node = _as_mapping(node, context)
    unknown = sorted(set(node) - set(allowed), key=str)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}")
    return node


def _records(node, context: str, what: str) -> list:
    """The (item, context[i]) of a list of what; None reads as no items."""
    if node is None:
        return []
    if not isinstance(node, (list, tuple)):
        raise ConfigError(f"{context} must be a list of {what}")
    return [(raw, f"{context}[{i}]") for i, raw in enumerate(node)]


def _as_float(value, context: str) -> float:
    """A number: text that float() reads, YAML's .inf or .nan (not finite), or a number."""
    if isinstance(value, str):
        if _LEADING_ZERO.search(f"\n{value}\n"):
            raise ConfigError(f"{context} must be a number without a leading zero, got {value!r}")
        try:
            value = math.nan if value.lstrip("+-").lower() in (".inf", ".nan") else float(value)
        except ValueError:
            raise ConfigError(f"{context} must be a number, got {value!r}") from None
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{context} must be finite")
    return out


def _grid(node, context: str, convert=None) -> tuple[float, ...]:
    if node is None:
        return ()
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{context} must be a non-empty list")
    try:  # the whole grid in one pass; _as_float per value only to name a bad one
        vals = list(map(float, node))
        # only an integral value can hide a leading zero: 010 reads as 10.0
        text = any(map(float.is_integer, vals)) and "\n%s\n" % "\n".join(node)
        if not all(map(math.isfinite, vals)) or text and _LEADING_ZERO.search(text):
            raise ValueError
    except (TypeError, ValueError):
        vals = [_as_float(v, context) for v in node]
    vals = tuple(map(convert, vals) if convert else vals)
    if any(map(operator.ge, vals, vals[1:])):
        raise ConfigError(f"{context} must be strictly increasing")
    if vals[0] <= 0.0:
        raise ConfigError(f"{context} must hold values > 0")
    return vals


def _parse_unit(node) -> UnitSystem:
    if node is None or node == "reduced":
        return UnitSystem()
    if isinstance(node, dict):
        si = _section(node, ("SI",), "unit_system").get("SI")
        si = _section(si, ("omega_ref",), "unit_system.SI")
        return UnitSystem(_as_float(si.get("omega_ref"), "omega_ref"))
    raise ConfigError("unit_system must be 'reduced' or {SI: {omega_ref: ...}}")


def _parse_terms(node, unit: UnitSystem, context: str) -> tuple[LorentzTerm, ...]:
    terms = []
    for raw, tctx in _records(node, context, "terms"):
        term = _section(raw, ("plasma_strength", "resonance", "damping"), tctx)
        if "plasma_strength" not in term or "resonance" not in term:
            raise ConfigError(f"{tctx} needs plasma_strength and resonance")
        try:
            terms.append(LorentzTerm(
                plasma_strength=unit.freq_sq_in(
                    _as_float(term["plasma_strength"], f"{tctx}.plasma_strength")),
                resonance=unit.freq_in(_as_float(term["resonance"], f"{tctx}.resonance")),
                damping=unit.freq_in(_as_float(term.get("damping", 0.0), f"{tctx}.damping"))))
        except ValueError as exc:
            raise ConfigError(f"{tctx}: {exc}") from None
    return tuple(terms)


def _parse_resonances(node, unit: UnitSystem, context: str):
    out = []
    for raw, rctx in _records(node, context, "[frequency, strength] pairs"):
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ConfigError(f"{rctx} must be a [frequency, strength] pair")
        out.append((unit.freq_in(_as_float(raw[0], f"{rctx} frequency")),
                    unit.volume_in(_as_float(raw[1], f"{rctx} strength"))))
    return tuple(out)


def load_config(path: str) -> RunConfig:
    """Parse and validate a config file; returns reduced-unit models."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    config_hash = hashlib.sha256(raw).hexdigest()[:12]
    data = _section(_read_yaml(raw), ("unit_system", "materials", "atoms", "quadrature", "sweep"),
                    "config")

    unit = _parse_unit(data.get("unit_system"))

    materials: dict[str, MediumResponse] = {}
    for name, node in _as_mapping(data.get("materials"), "materials").items():
        ctx = f"materials.{name}"
        body = _section(node, ("eps_terms", "mu_terms"), ctx)
        materials[str(name)] = MediumResponse(
            eps_terms=_parse_terms(body.get("eps_terms"), unit, f"{ctx}.eps_terms"),
            mu_terms=_parse_terms(body.get("mu_terms"), unit, f"{ctx}.mu_terms"),
        )

    atoms: dict[str, AtomModel] = {}
    for name, node in _as_mapping(data.get("atoms"), "atoms").items():
        ctx = f"atoms.{name}"
        body = _section(node, ("resonances", "beta_resonances"), ctx)
        if "resonances" not in body:
            raise ConfigError(f"{ctx} needs a resonances list")
        try:
            atoms[str(name)] = AtomModel(
                resonances=_parse_resonances(body["resonances"], unit, f"{ctx}.resonances"),
                beta_resonances=_parse_resonances(
                    body.get("beta_resonances"), unit, f"{ctx}.beta_resonances"
                ),
            )
        except ValueError as exc:
            raise ConfigError(f"{ctx}: {exc}") from None

    quad_node = _section(data.get("quadrature"), ("rel_tol", "abs_tol", "max_subdivisions"),
                         "quadrature")
    quad_kwargs = {
        key: _as_float(quad_node[key], f"quadrature.{key}")
        for key in ("rel_tol", "abs_tol") if key in quad_node
    }
    if "max_subdivisions" in quad_node:
        value = quad_node["max_subdivisions"]
        if not _INT.fullmatch(str(value)):
            raise ConfigError(f"quadrature.max_subdivisions must be an integer, got {value!r}")
        quad_kwargs["max_subdivisions"] = int(value)
    try:
        quadrature = QuadSpec(**quad_kwargs)
    except ValueError as exc:
        raise ConfigError(f"quadrature: {exc}") from None

    sweep_node = _section(data.get("sweep"), ("u", "l", "R_c"), "sweep")
    r_c_node = sweep_node.get("R_c")
    if isinstance(r_c_node, (list, tuple)):
        raise ConfigError(f"sweep.R_c must be one number, got the list {r_c_node!r}")
    if r_c_node is not None:  # checked and converted as a one-value grid
        r_c_node = [r_c_node]
    # reduced grids need no conversion, and a call per value costs about as much as float()
    freq_in, length_in = (unit.freq_in, unit.length_in) if unit.is_si else (None, None)
    sweep = Sweep(
        u=_grid(sweep_node.get("u"), "sweep.u", freq_in),
        l=_grid(sweep_node.get("l"), "sweep.l", length_in),
        cavity_radius=_grid(r_c_node, "sweep.R_c", length_in),
    )

    return RunConfig(
        materials=materials,
        atoms=atoms,
        unit=unit,
        quadrature=quadrature,
        sweep=sweep,
        config_hash=config_hash,
    )
