"""Tests for config parsing, validation, and unit conversion."""

from __future__ import annotations

import textwrap
from pathlib import Path

import pytest
import yaml

from lfvdw import config
from lfvdw.config import C_SI, HBAR_SI, UnitSystem, load_config
from lfvdw.errors import ConfigError
from lfvdw.response import VACUUM

GLASS = Path(__file__).parent / "data" / "glass.yaml"

FULL = """\
unit_system: reduced
materials:
  glass:
    eps_terms:
      - {plasma_strength: 1.5, resonance: 1.2, damping: 0.02}
    mu_terms:
      - {plasma_strength: 0.2, resonance: 2.0}
  plain:
    eps_terms:
      - {plasma_strength: 1.0, resonance: 1.0}
atoms:
  probe:
    resonances: [[1.0, 0.02]]
  partner:
    resonances: [[1.3, 0.015]]
    beta_resonances: [[2.1, 0.004]]
quadrature:
  rel_tol: 1.0e-9
  abs_tol: 1.0e-15
  max_subdivisions: 500
sweep:
  u: [0.1, 1.0, 10.0]
  l: [2.0, 3.0]
  R_c: 0.05
"""


def write(tmp_path, text, name="run.yaml"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return str(path)


def test_full_config_parses(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    glass = cfg.material("glass")
    assert glass.eps_terms[0].plasma_strength == 1.5
    assert glass.eps_terms[0].damping == 0.02
    assert glass.mu_terms[0].resonance == 2.0
    probe = cfg.atom("probe")
    assert probe.resonances == ((1.0, 0.02),)
    assert probe.beta_resonances == ()
    partner = cfg.atom("partner")
    assert partner.beta_resonances == ((2.1, 0.004),)
    assert cfg.quadrature.rel_tol == 1e-9
    assert cfg.quadrature.max_subdivisions == 500
    assert cfg.sweep.u == (0.1, 1.0, 10.0)
    assert cfg.sweep.l == (2.0, 3.0)
    assert cfg.sweep.cavity_radius == (0.05,)
    assert not cfg.unit.is_si
    assert len(cfg.config_hash) == 12
    int(cfg.config_hash, 16)  # hex digest prefix


def test_vacuum_material_is_implicit(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    assert cfg.material("vacuum") is VACUUM


def test_unknown_material_and_atom(tmp_path):
    cfg = load_config(write(tmp_path, FULL))
    with pytest.raises(ConfigError, match="water"):
        cfg.material("water")
    with pytest.raises(ConfigError, match="ghost"):
        cfg.atom("ghost")


def test_hash_tracks_content(tmp_path):
    first = load_config(write(tmp_path, FULL, "a.yaml"))
    again = load_config(write(tmp_path, FULL, "b.yaml"))
    assert first.config_hash == again.config_hash
    changed = load_config(write(tmp_path, FULL.replace("0.05", "0.06"), "c.yaml"))
    assert changed.config_hash != first.config_hash


def test_tol_override(tmp_path):
    path = write(tmp_path, FULL)
    cfg = load_config(path, tol_override=1e-6)
    assert cfg.quadrature.rel_tol == 1e-6
    assert cfg.quadrature.abs_tol == 1e-15  # untouched


# YAML 1.1 reads "1.0e15" (no sign on the exponent) as a string
STRING_FLOATS = """\
unit_system: {SI: {omega_ref: 1.0e15}}
atoms:
  probe:
    resonances: [[1.0e15, 4.5e-30]]
"""

SI = """\
unit_system: {SI: {omega_ref: 1.0e+15}}
materials:
  slab:
    eps_terms:
      - {plasma_strength: 2.0e+30, resonance: 1.2e+15}
atoms:
  probe:
    resonances: [[1.0e+15, 4.5e-30]]
sweep:
  l: [5.0e-9]
"""


def test_string_floats_accepted(tmp_path):
    cfg = load_config(write(tmp_path, STRING_FLOATS))
    assert cfg.unit.omega_ref == 1e15


def test_si_conversions(tmp_path):
    omega_ref = 1e15
    cfg = load_config(write(tmp_path, SI))
    length_unit = C_SI / omega_ref
    assert cfg.material("slab").eps_terms[0].plasma_strength == pytest.approx(2.0, abs=0.0)
    assert cfg.material("slab").eps_terms[0].resonance == pytest.approx(1.2, abs=0.0)
    w, a = cfg.atom("probe").resonances[0]
    assert w == pytest.approx(1.0, abs=0.0)
    assert a == pytest.approx(4.5e-30 / length_unit**3, abs=0.0)
    assert cfg.sweep.l[0] == pytest.approx(5e-9 / length_unit, abs=0.0)
    # output conversions round-trip the length and scale the energy
    assert cfg.unit.length_out(cfg.sweep.l[0]) == pytest.approx(5e-9, abs=0.0)
    assert cfg.unit.energy_out(1.0) == pytest.approx(HBAR_SI * omega_ref, abs=0.0)
    assert cfg.unit.freq_out(1.2) == pytest.approx(1.2e15, abs=0.0)


INVALID = [
    ("bogus: 1\n", "unknown key"),
    ("materials:\n  m:\n    eps_terms: []\n    color: red\n", "unknown key"),
    (
        "materials:\n  m:\n    eps_terms:\n      - {plasma_strength: 1, resonance: 1, q: 2}\n",
        "unknown key",
    ),
    ("quadrature:\n  speed: fast\n", "unknown key"),
    ("sweep:\n  radius: [1]\n", "unknown key"),
    ("atoms:\n  a:\n    beta_resonances: [[1, 0.1]]\n", "resonances"),
    ("atoms:\n  a:\n    resonances: [[1, 0.1], [0.5]]\n", "pair"),
    ("materials:\n  m:\n    eps_terms:\n      - {resonance: 1}\n", "plasma_strength"),
    ("sweep:\n  u: [1.0, 0.5]\n", "increasing"),
    ("sweep:\n  u: []\n", "non-empty"),
    ("sweep:\n  u: [1.0, .inf]\n", "finite"),
    ("sweep:\n  u: [0.0, 1.0]\n", "sweep.u must hold values > 0"),
    ("sweep:\n  l: [-2.0, 3.0]\n", "sweep.l must hold values > 0"),
    ("sweep:\n  R_c: -1\n", "sweep.R_c must hold values > 0"),
    ("quadrature:\n  max_subdivisions: 10.5\n", "integer"),
    ("quadrature:\n  rel_tol: true\n", "number"),
    ("quadrature:\n  transform: exp_map\n", "unknown key"),
    ("unit_system: imperial\n", "unit_system"),
    ("unit_system: {SI: {}}\n", "omega_ref"),
    (
        "materials:\n  m:\n    eps_terms:\n      - {plasma_strength: 1, resonance: -1}\n",
        "materials.m",
    ),
    ("atoms:\n  a:\n    resonances: [[-1, 0.1]]\n", "atoms.a"),
    ("sweep:\n  R_c: [0.05, 0.5]\n", "sweep.R_c must be one number"),
]


@pytest.mark.parametrize("snippet, fragment", INVALID)
def test_invalid_configs(tmp_path, snippet, fragment):
    with pytest.raises(ConfigError, match=fragment):
        load_config(write(tmp_path, snippet))


@pytest.mark.parametrize("resonances", ["[]", "[[1.0, 0.0]]", "[[1.0, -0.02]]"])
def test_atom_without_polarizability_is_a_config_error(tmp_path, resonances):
    path = write(tmp_path, GLASS.read_text().replace(
        "probe:\n    resonances: [[1.0, 0.02]]", f"probe:\n    resonances: {resonances}"))
    with pytest.raises(ConfigError, match="atoms.probe: resonance"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/run.yaml")


NOT_YAML = "unit_system: [unclosed\n"
LIST_ROOT = "- just\n- a\n- list\n"
EMPTY = "{}\n"


def test_not_yaml(tmp_path):
    with pytest.raises(ConfigError, match="YAML"):
        load_config(write(tmp_path, NOT_YAML))


def test_non_mapping_root(tmp_path):
    with pytest.raises(ConfigError, match="mapping"):
        load_config(write(tmp_path, LIST_ROOT))


def test_empty_config_is_minimal_but_valid(tmp_path):
    cfg = load_config(write(tmp_path, EMPTY))
    assert cfg.materials == {}
    assert cfg.sweep.u == ()
    assert cfg.quadrature.rel_tol == 1e-8  # defaults apply


def test_unit_system_direct_validation():
    with pytest.raises(ConfigError):
        UnitSystem("natural")
    with pytest.raises(ConfigError):
        UnitSystem("SI", omega_ref=0.0)
    assert UnitSystem("SI", omega_ref=2e15).length_unit_m == pytest.approx(
        C_SI / 2e15, abs=0.0
    )


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_config_loads_through_libyaml():
    assert config._LOADER is yaml.CSafeLoader


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize(
    "text",
    [GLASS.read_text(), FULL, STRING_FLOATS, SI, LIST_ROOT, EMPTY] + [s for s, _ in INVALID],
    ids=["glass", "full", "string_floats", "si", "list_root", "empty"]
    + [f"invalid{k}" for k in range(len(INVALID))],
)
def test_libyaml_and_python_loaders_parse_alike(text):
    raw = text.encode()
    assert yaml.load(raw, Loader=yaml.CSafeLoader) == yaml.load(raw, Loader=yaml.SafeLoader)
