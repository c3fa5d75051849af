"""Run configuration: strict schema, unit boundary, reproducible hashing.

One YAML file defines named materials and atoms, the unit system, the
quadrature settings and the sweep grids. Unknown keys anywhere are hard
errors; a typo in a physics config must never be silently ignored.

Unit systems:
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
from dataclasses import dataclass, field

import yaml

from .errors import ConfigError
from .quadrature import QuadSpec
from .response import AtomModel, LorentzTerm, MediumResponse, VACUUM

__all__ = ["UnitSystem", "Sweep", "RunConfig", "load_config", "HBAR_SI", "C_SI"]

HBAR_SI = 1.054571817e-34  # J s
C_SI = 299792458.0  # m/s


@dataclass(frozen=True)
class UnitSystem:
    """Input/output unit conversions around the dimensionless core."""

    name: str
    omega_ref: float | None = None

    def __post_init__(self):
        if self.name not in ("reduced", "SI"):
            raise ConfigError(f"unit_system must be 'reduced' or 'SI', got {self.name!r}")
        if self.name == "SI" and not (self.omega_ref and self.omega_ref > 0.0):
            raise ConfigError("SI unit system needs omega_ref > 0 in rad/s")

    @property
    def is_si(self) -> bool:
        return self.name == "SI"

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
    """Parameter grids; all in reduced units after loading."""

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


def _as_mapping(node, context: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"{context} must be a mapping")
    return node


def _check_keys(mapping: dict, allowed: tuple[str, ...], context: str):
    unknown = sorted(set(mapping) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {context}")


def _as_float(value, context: str) -> float:
    # YAML 1.1 reads "1.0e15" (unsigned exponent) as a string, so accept
    # strings that parse cleanly as floats.
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise ConfigError(f"{context} must be a number, got {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{context} must be a number, got {value!r}")
    out = float(value)
    if not math.isfinite(out):
        raise ConfigError(f"{context} must be finite")
    return out


def _grid(node, context: str, convert) -> tuple[float, ...]:
    if node is None:
        return ()
    if not isinstance(node, (list, tuple)) or not node:
        raise ConfigError(f"{context} must be a non-empty list")
    vals = tuple(convert(_as_float(v, context)) for v in node)
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{context} must be strictly increasing")
    if vals[0] <= 0.0:
        raise ConfigError(f"{context} must hold values > 0")
    return vals


def _parse_unit(node) -> UnitSystem:
    if node is None or node == "reduced":
        return UnitSystem("reduced")
    if isinstance(node, dict):
        _check_keys(node, ("SI",), "unit_system")
        si = _as_mapping(node.get("SI"), "unit_system.SI")
        _check_keys(si, ("omega_ref",), "unit_system.SI")
        return UnitSystem("SI", omega_ref=_as_float(si.get("omega_ref"), "omega_ref"))
    raise ConfigError("unit_system must be 'reduced' or {SI: {omega_ref: ...}}")


def _parse_terms(node, unit: UnitSystem, context: str) -> tuple[LorentzTerm, ...]:
    if node is None:
        return ()
    if not isinstance(node, (list, tuple)):
        raise ConfigError(f"{context} must be a list of terms")
    terms = []
    for i, raw in enumerate(node):
        tctx = f"{context}[{i}]"
        term = _as_mapping(raw, tctx)
        _check_keys(term, ("plasma_strength", "resonance", "damping"), tctx)
        if "plasma_strength" not in term or "resonance" not in term:
            raise ConfigError(f"{tctx} needs plasma_strength and resonance")
        try:
            terms.append(
                LorentzTerm(
                    plasma_strength=unit.freq_sq_in(
                        _as_float(term["plasma_strength"], f"{tctx}.plasma_strength")
                    ),
                    resonance=unit.freq_in(_as_float(term["resonance"], f"{tctx}.resonance")),
                    damping=unit.freq_in(_as_float(term.get("damping", 0.0), f"{tctx}.damping")),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"{tctx}: {exc}") from None
    return tuple(terms)


def _parse_resonances(node, unit: UnitSystem, context: str):
    if node is None:
        return ()
    if not isinstance(node, (list, tuple)):
        raise ConfigError(f"{context} must be a list of [frequency, strength] pairs")
    out = []
    for i, raw in enumerate(node):
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ConfigError(f"{context}[{i}] must be a [frequency, strength] pair")
        out.append(
            (
                unit.freq_in(_as_float(raw[0], f"{context}[{i}] frequency")),
                unit.volume_in(_as_float(raw[1], f"{context}[{i}] strength")),
            )
        )
    return tuple(out)


def load_config(path: str, tol_override: float | None = None) -> RunConfig:
    """Parse and validate a config file; returns reduced-unit models."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    config_hash = hashlib.sha256(raw).hexdigest()[:12]
    try:
        data = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from None
    data = _as_mapping(data, "config")
    _check_keys(data, ("unit_system", "materials", "atoms", "quadrature", "sweep"), "config")

    unit = _parse_unit(data.get("unit_system"))

    materials: dict[str, MediumResponse] = {}
    for name, node in _as_mapping(data.get("materials"), "materials").items():
        ctx = f"materials.{name}"
        body = _as_mapping(node, ctx)
        _check_keys(body, ("eps_terms", "mu_terms"), ctx)
        materials[str(name)] = MediumResponse(
            eps_terms=_parse_terms(body.get("eps_terms"), unit, f"{ctx}.eps_terms"),
            mu_terms=_parse_terms(body.get("mu_terms"), unit, f"{ctx}.mu_terms"),
        )

    atoms: dict[str, AtomModel] = {}
    for name, node in _as_mapping(data.get("atoms"), "atoms").items():
        ctx = f"atoms.{name}"
        body = _as_mapping(node, ctx)
        _check_keys(body, ("resonances", "beta_resonances"), ctx)
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

    quad_node = _as_mapping(data.get("quadrature"), "quadrature")
    _check_keys(quad_node, ("rel_tol", "abs_tol", "max_subdivisions"), "quadrature")
    quad_kwargs = {}
    if "rel_tol" in quad_node:
        quad_kwargs["rel_tol"] = _as_float(quad_node["rel_tol"], "quadrature.rel_tol")
    if "abs_tol" in quad_node:
        quad_kwargs["abs_tol"] = _as_float(quad_node["abs_tol"], "quadrature.abs_tol")
    if "max_subdivisions" in quad_node:
        if not isinstance(quad_node["max_subdivisions"], int):
            raise ConfigError("quadrature.max_subdivisions must be an integer")
        quad_kwargs["max_subdivisions"] = quad_node["max_subdivisions"]
    if tol_override is not None:
        quad_kwargs["rel_tol"] = tol_override
    try:
        quadrature = QuadSpec(**quad_kwargs)
    except ValueError as exc:
        raise ConfigError(f"quadrature: {exc}") from None

    sweep_node = _as_mapping(data.get("sweep"), "sweep")
    _check_keys(sweep_node, ("u", "l", "R_c"), "sweep")
    r_c_node = sweep_node.get("R_c")
    if r_c_node is not None and not isinstance(r_c_node, (list, tuple)):
        r_c_node = [r_c_node]
    sweep = Sweep(
        u=_grid(sweep_node.get("u"), "sweep.u", unit.freq_in),
        l=_grid(sweep_node.get("l"), "sweep.l", unit.length_in),
        cavity_radius=_grid(r_c_node, "sweep.R_c", unit.length_in),
    )

    return RunConfig(
        materials=materials,
        atoms=atoms,
        unit=unit,
        quadrature=quadrature,
        sweep=sweep,
        config_hash=config_hash,
    )
