"""Tests for config parsing, validation, and unit conversion."""

from __future__ import annotations

import dataclasses
import math
import textwrap
from pathlib import Path
from typing import NamedTuple

import pytest
import yaml
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lfvdw import config
from lfvdw.config import C_SI, HBAR_SI, UnitSystem, load_config
from lfvdw.errors import ConfigError
from lfvdw.response import VACUUM

GLASS = Path(__file__).parent / "data" / "glass.yaml"
GLASS_SI = Path(__file__).parent / "data" / "glass_si.yaml"

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


# YAML 1.1 reads "1.0e15" (no sign on the exponent) as a string; the
# config reader takes every number as text, so it is an ordinary number
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
    # YAML 1.1 integer spellings (SafeLoader read 010 as 8, 0x10 as 16) and other non-decimal text
    ("sweep:\n  u: [010, 0x10]\n", "sweep.u must be a number without a leading zero, got '010'"),
    ("sweep:\n  u: [1.0, 0x10]\n", "sweep.u must be a number, got '0x10'"),
    ("sweep:\n  l: [0b10, 3.0]\n", "sweep.l must be a number, got '0b10'"),
    ("sweep:\n  R_c: 1:30\n", "sweep.R_c must be a number, got '1:30'"),
    ("sweep:\n  u: [-0_1, 0.5]\n", "sweep.u must be a number without a leading zero"),
    ("quadrature:\n  rel_tol: 00\n", "quadrature.rel_tol must be a number without a leading zero"),
    ("quadrature:\n  max_subdivisions: 0500\n", "quadrature.max_subdivisions must be an integer"),
    ("quadrature:\n  max_subdivisions: 0x10\n", "quadrature.max_subdivisions must be an integer"),
    ("quadrature:\n  abs_tol: -.inf\n", "quadrature.abs_tol must be finite"),
    ("unit_system: {SI: {omega_ref: .NaN}}\n", "omega_ref must be finite"),
    ("~: 1\nbogus: 2\n", r"unknown key\(s\) \[None, 'bogus'\] in config"),  # a null key among texts
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
    for omega_ref in (0.0, -1e15, math.nan, math.inf):
        with pytest.raises(ConfigError, match="SI unit system needs omega_ref > 0"):
            UnitSystem(omega_ref)
    assert UnitSystem(2e15).is_si
    assert UnitSystem(2e15).length_unit_m == pytest.approx(C_SI / 2e15, abs=0.0)


def test_reduced_units_are_omega_ref_none(tmp_path):
    # one field: no omega_ref, no conversion
    reduced = UnitSystem()
    assert reduced == UnitSystem(None) == UnitSystem(omega_ref=None)
    assert not reduced.is_si
    assert [f.name for f in dataclasses.fields(UnitSystem)] == ["omega_ref"]
    assert (reduced.freq_in(2.5), reduced.length_in(2.5), reduced.density_in(2.5)) == (2.5,) * 3
    assert load_config(write(tmp_path, FULL)).unit == reduced
    assert load_config(write(tmp_path, STRING_FLOATS)).unit == UnitSystem(1e15)


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_config_loads_through_libyaml():
    assert config._LOADER is yaml.CSafeLoader


# one text that takes every rule of the config reader
READER_RULES = """\
nulls: [~, null, Null, NULL, '', 'null', "~", nULL]
empty:
texts: [1, 1.0, 1.0e15, .inf, true, 0x10, 'quoted', "double", !!str 2.5, ! plain]
base: &base {a: '1', b: '2'}
alias: *base
quoted_merge_key: {'<<': *base, <<x: '3'}
grid: &grid [1, 2]
grid_alias: {u: *grid}
block:
  - &item {x: [1, 2]}
  - *item
"""


@pytest.mark.parametrize("name, expected", [
    ("nulls", [None, None, None, None, "", "null", "~", "nULL"]),
    ("empty", None),
    ("texts", ["1", "1.0", "1.0e15", ".inf", "true", "0x10", "quoted", "double", "2.5", "plain"]),
    ("alias", {"a": "1", "b": "2"}),
    ("quoted_merge_key", {"<<": {"a": "1", "b": "2"}, "<<x": "3"}),  # texts, not merges
    ("grid_alias", {"u": ["1", "2"]}),
    ("block", [{"x": ["1", "2"]}, {"x": ["1", "2"]}]),
])
def test_reader_gives_text_none_and_anchored_values(name, expected):
    assert config._read_yaml(READER_RULES.encode())[name] == expected


@pytest.mark.parametrize("text, fragment", [
    # the repeated key used to override silently: rel_tol loaded as 1e-3
    ("quadrature:\n  rel_tol: 1.0e-8\n  rel_tol: 1.0e-3\n",
     "duplicate key 'rel_tol' in quadrature"),
    ("atoms:\n  a:\n    resonances: [[1.0, 0.1]]\n  a: {resonances: [[2.0, 0.1]]}\n",
     "duplicate key 'a' in atoms"),
    ("materials:\n  m:\n    eps_terms:\n      - {resonance: 1, resonance: 2}\n",
     r"duplicate key 'resonance' in materials.m.eps_terms\[0\]"),
    ("sweep: {u: *grid}\n", "undefined alias 'grid'"),
    ("sweep: {R_c: 0.05}\n---\nsweep: {R_c: 0.06}\n", "a single document"),
    ("sweep:\n  ? [u]\n  : [1.0]\n", "a non-scalar key in sweep"),
    ("? {a: 1}\n: 2\n", "a non-scalar key in the top level"),
    ("sweep: {R_c: !!binary MC4wNQ==}\n", "tag:yaml.org,2002:binary is not one of YAML's core"),
    ("sweep: !!omap [{u: [1.0]}]\n", "tag:yaml.org,2002:omap is not one of YAML's core"),
    ("unit_system: [unclosed\n", "did not find expected"),
])
def test_reader_errors_are_config_errors(tmp_path, text, fragment):
    with pytest.raises(ConfigError, match="(?s)config is not valid YAML: .*" + fragment):
        load_config(write(tmp_path, text))


@pytest.mark.parametrize("text", [
    "materials: {<<: {glass: {eps_terms: []}}}\n",  # as text, a material named <<
    "atoms:\n  probe: &p {resonances: [[1.0, 0.02]]}\n  partner:\n    <<: *p\n",
    "sweep: {u: [<<]}\n",
], ids=["materials", "atoms-alias", "value"])
def test_merge_key_is_a_config_error(tmp_path, text):
    # YAML 1.1's merge key; YAML 1.2 has none, and a plain << is no text either
    message = r"^merge keys \(a plain <<\) are not supported; quote '<<'$"
    with pytest.raises(ConfigError, match=message) as exc_info:
        load_config(write(tmp_path, text))
    assert exc_info.type is ConfigError


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize(
    "text",
    [GLASS.read_text(), FULL, STRING_FLOATS, SI, LIST_ROOT, EMPTY, READER_RULES]
    + [s for s, _ in INVALID],
    ids=["glass", "full", "string_floats", "si", "list_root", "empty", "reader_rules"]
    + [f"invalid{k}" for k in range(len(INVALID))],
)
def test_libyaml_and_python_loaders_parse_alike(monkeypatch, text):
    # the reader gives the same document through libyaml's parser and PyYAML's own
    docs = []
    for loader in (yaml.CSafeLoader, yaml.SafeLoader):
        monkeypatch.setattr(config, "_LOADER", loader)
        docs.append(config._read_yaml(text.encode()))
    assert docs[0] == docs[1]


# ----------------------------------------------------------------------
# The reader and the schema against SafeLoader's typed values
# ----------------------------------------------------------------------

_FLOAT_TEXT = (
    repr,
    lambda x: "%.17g" % x,
    lambda x: ("%.16e" % x).replace("e+", "e"),  # 1.0e15 style, a string to YAML 1.1
)


class _Anchor(NamedTuple):
    name: str
    node: object


class _Alias(NamedTuple):
    name: str


def _emit(node, flow: bool, indent: int = 0) -> str:
    """YAML text of node: dicts, lists, anchors and aliases of them, and
    scalar text; mappings in block style unless flow, lists always in flow."""
    if isinstance(node, str):
        return node
    if isinstance(node, _Alias):
        return f"*{node.name}"
    if isinstance(node, _Anchor):
        return f"&{node.name} " + _emit(node.node, flow, indent)
    if isinstance(node, list):
        return "[" + ", ".join(_emit(v, True) for v in node) + "]"
    if flow:
        return "{" + ", ".join(f"{k}: {_emit(v, True)}" for k, v in node.items()) + "}"
    pad = "  " * indent
    lines = []
    for key, value in node.items():
        target = value.node if isinstance(value, _Anchor) else value
        if isinstance(target, dict) and target:
            head = f"&{value.name}" if isinstance(value, _Anchor) else ""
            lines.append(f"{pad}{key}: {head}".rstrip())
            lines.append(_emit(target, False, indent + 1))
        else:
            lines.append(f"{pad}{key}: {_emit(value, True)}")
    return "\n".join(lines)


@st.composite
def _configs(draw) -> str:
    fmt = draw(st.sampled_from(_FLOAT_TEXT))
    positive = st.floats(min_value=1e-12, max_value=1e12).map(fmt)

    def grid(size):
        values = sorted(draw(st.sets(st.floats(min_value=1e-3, max_value=1e3),
                                     min_size=1, max_size=size)))
        # an SI unit conversion must not merge two neighbours
        assume(all(b > a * (1.0 + 1e-12) for a, b in zip(values, values[1:])))
        return [fmt(v) for v in values]

    def term():
        body = {"plasma_strength": draw(positive), "resonance": draw(positive)}
        if draw(st.booleans()):
            body["damping"] = draw(positive)
        return body

    glass = {"eps_terms": [term() for _ in range(draw(st.integers(1, 2)))]}
    if draw(st.booleans()):
        glass["mu_terms"] = [term()]
    probe = {"resonances": _Anchor("r", [[draw(positive), draw(positive)]])}
    doc = {
        "unit_system": "reduced",
        "materials": {"glass": _Anchor("m", glass), "copy": _Alias("m")},
        "atoms": {
            "probe": probe,
            # an aliased list: resonances from probe, beta_resonances its own
            "partner": {"resonances": _Alias("r"),
                        "beta_resonances": [[draw(positive), draw(positive)]]},
        },
        "quadrature": {"rel_tol": fmt(draw(st.floats(1e-12, 1e-3))),
                       "max_subdivisions": str(draw(st.integers(8, 5000)))},
        "sweep": {"u": grid(8), "l": grid(4), "R_c": fmt(draw(st.floats(1e-3, 1e-2)))},
    }
    if draw(st.booleans()):
        doc["unit_system"] = {"SI": {"omega_ref": fmt(draw(st.floats(1e13, 1e16)))}}
    return _emit(doc, draw(st.booleans())) + "\n"


def _load_both(monkeypatch, path):
    """load_config of path through the reader, and through SafeLoader's typed values."""
    new = load_config(path)
    with monkeypatch.context() as m:
        m.setattr(config, "_read_yaml", lambda raw: yaml.load(raw, Loader=yaml.CSafeLoader))
        old = load_config(path)
    return new, old


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@pytest.mark.parametrize("text", [GLASS.read_text(), GLASS_SI.read_text(), FULL, STRING_FLOATS,
                                  SI, EMPTY], ids=["glass", "glass_si", "full", "string_floats",
                                                   "si", "empty"])
def test_reader_loads_what_safeloader_loads(tmp_path, monkeypatch, text):
    new, old = _load_both(monkeypatch, write(tmp_path, text))
    assert new == old


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
@settings(max_examples=50, deadline=None, derandomize=True)
@given(text=_configs())
def test_reader_loads_what_safeloader_loads_on_generated_configs(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("generated") / "run.yaml"
    path.write_text(text)
    with pytest.MonkeyPatch.context() as monkeypatch:
        new, old = _load_both(monkeypatch, str(path))
    assert new == old
    assert new.material("copy") == new.material("glass")
    assert new.atom("partner").resonances == new.atom("probe").resonances
