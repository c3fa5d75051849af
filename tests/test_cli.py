"""End-to-end CLI tests run through a subprocess."""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lfvdw import __version__, cli, quadrature
from lfvdw.config import UnitSystem, load_config

DATA = Path(__file__).parent / "data"
CONFIG = str(DATA / "glass.yaml")
SI_CONFIG = str(DATA / "glass_si.yaml")  # glass.yaml at omega_ref = 1e15 rad/s
GOLDEN = DATA / "coeffs_golden.csv"


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "lfvdw.cli", *argv],
        capture_output=True,
        text=True,
        **kwargs,
    )


def data_section(text: str) -> str:
    return "".join(
        line + "\n" for line in text.splitlines() if not line.startswith("#")
    )


# ----------------------------------------------------------------------
# coeffs
# ----------------------------------------------------------------------

def test_coeffs_matches_golden_file():
    proc = run_cli("coeffs", "--config", CONFIG, "--material", "glass")
    assert proc.returncode == 0
    assert data_section(proc.stdout) == data_section(GOLDEN.read_text())


def test_csv_rows_format_every_float_as_17g():
    # one %-format per row must give the bytes of f"{x:.17g}" per value
    values = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2250738585072014e-308,
              -1.5e-310, 1e300, -1e-300, 1.0 / 3.0, 123456789.0, 1e16, 0.1]
    rows = [values, values[::-1]]
    cfg = load_config(CONFIG)
    columns = [f"c{k}" for k in range(len(values))]
    text = cli._render(cfg, {"columns": columns, "rows": rows}, [], "csv")
    assert text.splitlines()[2:] == [",".join(f"{x:.17g}" for x in row) for row in rows]


def test_coeffs_reruns_are_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    for out in (out_a, out_b):
        proc = run_cli(
            "coeffs", "--config", CONFIG, "--material", "glass", "--out", str(out)
        )
        assert proc.returncode == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_coeffs_header_carries_config_hash():
    proc = run_cli("coeffs", "--config", CONFIG, "--material", "glass")
    header = proc.stdout.splitlines()[0]
    assert header.startswith("# lfvdw ")
    assert "config=" in header


def test_coeffs_json_format():
    proc = run_cli(
        "coeffs", "--config", CONFIG, "--material", "glass", "--format", "json"
    )
    doc = json.loads(proc.stdout)
    assert set(doc) == {"meta", "rows"}
    assert doc["meta"]["version"]
    row = doc["rows"][0]
    assert row["u"] == 0.2
    assert row["D_exact"] > row["D_leading"] > 1.0


# ----------------------------------------------------------------------
# single / pair / nbody / limits
# ----------------------------------------------------------------------

def test_single_json_payload():
    proc = run_cli(
        "single", "--config", CONFIG, "--atom", "probe", "--material", "glass"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["total"] == doc["U1"] + doc["U2"]
    assert doc["U2"] == 0.0  # infinite bulk has no scattering correction
    assert doc["total"] < 0.0
    assert doc["cavity_radius"] == 0.05


def test_pair_table_structure():
    proc = run_cli(
        "pair",
        "--config",
        CONFIG,
        "--atom-a",
        "probe",
        "--atom-b",
        "partner",
        "--material",
        "glass",
    )
    assert proc.returncode == 0
    lines = [l for l in proc.stdout.splitlines() if not l.startswith("#")]
    assert lines[0] == "l,U,U_uncorrected,ratio,local_slope"
    rows = [list(map(float, l.split(","))) for l in lines[1:]]
    assert len(rows) == 3  # sweep.l has three entries
    for l, u, u_unc, ratio, slope in rows:
        assert u < u_unc < 0.0
        assert ratio == pytest.approx(u / u_unc, abs=0.0)
        assert 1.0 < ratio < 81.0 / 16.0
        assert -7.5 < slope < -5.5


def test_one_point_pair_sweep_has_a_null_slope_in_json(tmp_path):
    # the local slope of a one-point sweep.l is undefined; JSON used to get a bare NaN
    config = tmp_path / "one.yaml"
    config.write_text(Path(CONFIG).read_text().replace("l: [2.0, 3.0, 5.0]", "l: [2.0]"))
    argv = ("pair", "--config", str(config), "--atom-a", "probe", "--atom-b", "partner",
            "--material", "glass")

    def reject(name):
        raise ValueError(f"{name} is not JSON")

    proc = run_cli(*argv, "--format", "json")
    assert proc.returncode == 0
    (row,) = json.loads(proc.stdout, parse_constant=reject)["rows"]
    assert row["local_slope"] is None and row["U"] < 0.0
    csv = run_cli(*argv)
    assert csv.returncode == 0
    assert csv.stdout.splitlines()[-1].endswith(",nan")


# Each command's SI twins: (SI column or key, reduced field, conversion).
SI_TWINS = {
    "coeffs": [("u_SI", "u", UnitSystem.freq_out)],
    "pair": [("l_m", "l", UnitSystem.length_out), ("U_J", "U", UnitSystem.energy_out)],
    "single": [("cavity_radius_m", "cavity_radius", UnitSystem.length_out),
               ("U1_J", "U1", UnitSystem.energy_out), ("U2_J", "U2", UnitSystem.energy_out),
               ("total_J", "total", UnitSystem.energy_out)],
    "nbody": [("energy_J", "energy", UnitSystem.energy_out)],
    "limits": [("C_r_J_m7", "C_r", UnitSystem.c_r_out), ("C_nr_J_m6", "C_nr", UnitSystem.c_nr_out),
               ("crossover_length_m", "crossover_length_estimate", UnitSystem.length_out)],
    "force-check": [("analytic_N", "analytic", UnitSystem.force_out)],
    "born-check": [],
}


def _csv_cell(v) -> str:
    """The CSV bytes of a value parsed back from the JSON form (null a NaN cell)."""
    return "nan" if v is None else f"{v:.17g}" if isinstance(v, float) else str(v)


@pytest.mark.parametrize("config, length", [(CONFIG, 1.0), (SI_CONFIG, 2.99792458e-7)],
                         ids=["reduced", "SI"])
def test_si_view_converts_each_reduced_field(tmp_path, capsys, config, length):
    # length: the config's length unit, c/omega_ref in m for the SI twin. Each
    # command runs with no --format, with csv and with json: a table (coeffs,
    # pair) prints as CSV by default, a document (the other five) as JSON
    cfg = load_config(config)
    unit = cfg.unit
    positions = tmp_path / "pair.txt"
    positions.write_text(f"probe 0 0 0\npartner {3.0 * length!r} 0 0\n")
    pair = ["--atom-a", "probe", "--atom-b", "partner", "--material", "glass"]
    argvs = {
        "coeffs": ["--material", "glass"],
        "pair": pair,
        "single": ["--atom", "probe", "--material", "glass"],
        "nbody": ["--positions", str(positions), "--material", "glass"],
        "limits": pair,
        "force-check": [*pair, "--separation", repr(3.0 * length)],
        "born-check": ["--guest", "probe", "--host-atom", "partner",
                       "--density", repr(0.05 / length**3), "--outer-radius", repr(10.0 * length)],
    }
    for command, argv in argvs.items():
        out = {}
        for fmt in (None, "csv", "json"):
            flags = [] if fmt is None else ["--format", fmt]
            assert cli.main([command, *argv, "--config", config, *flags]) == 0, (command, fmt)
            out[fmt] = capsys.readouterr().out
        assert out[None] == out["csv" if command in ("coeffs", "pair") else "json"], command
        doc = json.loads(out["json"])
        assert doc["meta"] == {"version": __version__, "config_hash": cfg.config_hash}, command
        stamp, header, *rows = out["csv"].splitlines()
        assert stamp == f"# lfvdw {__version__} config={cfg.config_hash}", command
        # a table: one CSV row per row; a document: one CSV row of its scalar fields
        records = doc["rows"] if "rows" in doc else [
            {k: v for k, v in doc.items() if not isinstance(v, (dict, list))}]
        assert header.split(",") == list(records[0]), command
        assert rows == [",".join(map(_csv_cell, record.values())) for record in records], command
        twins = SI_TWINS[command]
        names = [name for name, _, _ in twins]
        if not unit.is_si or not twins:  # no SI column or key, and no empty "SI" block
            assert "SI" not in doc and not set(names) & set(doc.get("rows", [{}])[0]), command
        elif "rows" in doc:  # a table: the SI columns appended to each row
            for row in doc["rows"]:
                assert list(row)[-len(names):] == names, command
                for name, field, to_si in twins:
                    assert row[name] == to_si(unit, row[field]), (command, name)
        else:
            assert list(doc["SI"]) == names, command
            for name, field, to_si in twins:
                assert doc["SI"][name] == to_si(unit, doc[field]), (command, name)


def test_pair_threads_do_not_change_output():
    base = run_cli(
        "pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass",
    )
    threaded = run_cli(
        "pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass", "--threads", "4",
    )
    assert base.stdout == threaded.stdout
    assert base.stderr == threaded.stderr == ""


def test_pair_sweep_is_one_pair_bulk_call_per_flag(monkeypatch, capsys):
    calls = []
    original = cli.pair_bulk

    def counting(*args, **kwargs):
        calls.append(kwargs["corrected"])
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "pair_bulk", counting)
    code = cli.main(["pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
                     "--material", "glass"])
    assert code == 0
    assert calls == [True, False]
    assert len(capsys.readouterr().out.splitlines()) == 2 + 3  # header lines + sweep.l


def test_one_parser_serves_every_call_in_a_process(capsys):
    # the shared parser keeps nothing from one main() call to the next: each
    # call prints what a fresh process prints for the same argv
    pair = ["pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
            "--material", "glass"]
    sequence = [
        (pair + ["--format", "json"], 0),
        (pair, 0),
        (["limits", *pair[1:]], 0),
        (pair[:-2], 2),  # no --material: a usage error
        (pair, 0),
    ]
    for argv, code in sequence:
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            got = exc.value.code
        else:
            got = cli.main(argv)
        proc = run_cli(*argv)
        assert got == proc.returncode == code, argv
        assert capsys.readouterr().out == proc.stdout, argv
    assert cli._build_parser() is cli._build_parser()


def test_pair_sweep_warns_once_for_near_separations(tmp_path):
    config = tmp_path / "near.yaml"
    config.write_text(Path(CONFIG).read_text().replace(
        "l: [2.0, 3.0, 5.0]", "l: [0.12, 0.15, 0.2, 0.24, 0.3, 1.0]"))
    proc = run_cli("pair", "--config", str(config), "--atom-a", "probe", "--atom-b", "partner",
                   "--material", "glass")
    assert proc.returncode == 0
    near = [line for line in proc.stderr.splitlines() if "within 5 cavity radii" in line]
    assert len(near) == 1
    assert "4 of 6" in near[0] and "smallest 0.12" in near[0]


def test_local_slopes_take_libm_logs():
    # numpy's SIMD log differs from libm in the last bit on some hosts
    l_grid = np.geomspace(1e-3, 1e3, 10_001)
    u_vals = -np.geomspace(1e3, 1e-3, 10_001) ** 3
    expected = np.gradient(np.array([math.log(-u) for u in u_vals.tolist()]),
                           np.array([math.log(l) for l in l_grid.tolist()]))
    assert np.array_equal(cli._local_slopes(l_grid, u_vals), expected)


def test_nbody_two_atoms_match_pair(tmp_path):
    positions = tmp_path / "line.txt"
    positions.write_text("# guest pair\nprobe 0 0 0\npartner 3 0 0\n")
    nbody = run_cli(
        "nbody", "--config", CONFIG, "--positions", str(positions),
        "--material", "glass",
    )
    assert nbody.returncode == 0
    doc = json.loads(nbody.stdout)
    assert doc["n_atoms"] == 2
    assert len(doc["orderings"]) == 1
    pair = run_cli(
        "pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass",
    )
    rows = [l for l in pair.stdout.splitlines() if not l.startswith("#")][1:]
    u_at_3 = float(rows[1].split(",")[1])
    assert doc["energy"] == pytest.approx(u_at_3, rel=1e-10, abs=0.0)


def test_nbody_triangle(tmp_path):
    positions = tmp_path / "triangle.txt"
    positions.write_text(
        "probe 0 0 0\nprobe 2 0 0\nprobe 1 1.7320508075688772 0\n"
    )
    proc = run_cli(
        "nbody", "--config", CONFIG, "--positions", str(positions),
        "--material", "vacuum",
    )
    doc = json.loads(proc.stdout)
    assert doc["n_atoms"] == 3
    assert doc["energy"] > 0.0  # equilateral triple ring is repulsive


def test_nbody_rejects_single_atom(tmp_path):
    positions = tmp_path / "one.txt"
    positions.write_text("probe 0 0 0\n")
    proc = run_cli(
        "nbody", "--config", CONFIG, "--positions", str(positions),
        "--material", "glass",
    )
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"]["type"] == "config"


def test_nbody_rejects_more_atoms_than_a_ring_takes(tmp_path, capsys):
    positions = tmp_path / "seven.txt"
    positions.write_text("".join(f"probe {k} 0 0\n" for k in range(7)))
    assert cli.main(["nbody", "--config", CONFIG, "--positions", str(positions),
                     "--material", "glass"]) == 2
    assert "has 7 atoms; need 2 to 6" in json.loads(capsys.readouterr().out)["error"]["message"]


def test_limits_payload():
    proc = run_cli(
        "limits", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass",
    )
    doc = json.loads(proc.stdout)
    assert doc["C_r"] == pytest.approx(1.8963238084884511e-4, rel=1e-9, abs=0.0)
    assert doc["C_nr"] == pytest.approx(1.5262451744418493e-4, rel=1e-8, abs=0.0)
    assert doc["crossover_length_estimate"] == pytest.approx(
        doc["C_r"] / doc["C_nr"], abs=0.0
    )


# ----------------------------------------------------------------------
# checks and exit codes
# ----------------------------------------------------------------------

def test_born_check_passes():
    proc = run_cli(
        "born-check", "--config", CONFIG, "--guest", "probe",
        "--host-atom", "partner", "--density", "0.05",
        "--outer-radius", "10", "--cavity-radius", "0.05",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["relative_deviation"] < 0.01


def test_born_check_fails_outside_validity():
    # a cavity this large breaks the small-radius expansion, and the
    # command must say so through its exit code
    proc = run_cli(
        "born-check", "--config", CONFIG, "--guest", "probe",
        "--host-atom", "partner", "--density", "0.05",
        "--outer-radius", "10", "--cavity-radius", "0.2",
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["pass"] is False


def test_force_check_passes():
    proc = run_cli(
        "force-check", "--config", CONFIG, "--atom-a", "probe",
        "--atom-b", "partner", "--material", "glass", "--separation", "3.0",
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["pass"] is True
    assert doc["relative_deviation"] < 1e-6
    assert doc["analytic"] == pytest.approx(-1.8119254953065484e-7, rel=1e-9, abs=0.0)


def _integrals_started(monkeypatch, argv) -> int:
    """How many quadrature._adaptive calls cli.main(argv) makes; it must exit 0."""
    calls = []
    original = quadrature._adaptive

    def counting(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_adaptive", counting)
    assert cli.main(argv) == 0
    return len(calls)


def test_force_check_is_two_integrals(monkeypatch, capsys):
    # the analytic force, and the whole finite-difference stencil as one grid
    assert _integrals_started(monkeypatch, [*_FORCE, "--separation", "0.5"]) == 2
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_single_is_one_integral(monkeypatch, capsys):
    # u1_expanded; U2 is 0 in infinite bulk and is not integrated
    argv = ["single", "--config", CONFIG, "--atom", "probe", "--material", "glass"]
    assert _integrals_started(monkeypatch, argv) == 1
    assert json.loads(capsys.readouterr().out)["U2"] == 0.0


def test_main_runs_the_command_function_the_module_holds_at_call_time(monkeypatch, capsys):
    # a wrapper set on the module after the parser is built still runs
    cli._build_parser()
    seen = []
    original = cli.cmd_limits

    def wrapped(cfg, args):
        seen.append(args.command)
        return original(cfg, args)

    monkeypatch.setattr(cli, "cmd_limits", wrapped)
    assert cli.main(["limits", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
                     "--material", "glass"]) == 0
    assert seen == ["limits"]
    assert json.loads(capsys.readouterr().out)["C_r"] > 0.0


def test_force_check_honours_the_cavity_radius():
    # glass.yaml sets R_c = 0.05, so 0.01 is below twice the cavity radius
    proc = run_cli(*_FORCE, "--separation", "0.01")
    assert proc.returncode == 3
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "GeometryError"
    assert "below twice the cavity radius" in err["message"]


@pytest.mark.parametrize("argv, components", [
    (("limits",), None),
    (("pair",), 3),
], ids=["scalar", "sweep"])
def test_convergence_error_document_keeps_partial_result(tmp_path, capsys, argv, components):
    config = tmp_path / "starved.yaml"
    config.write_text(Path(CONFIG).read_text().replace(
        "rel_tol: 1.0e-8", "rel_tol: 1.0e-300\n  abs_tol: 1.0e-300\n  max_subdivisions: 8"))
    docs = []
    for _ in range(2):
        code = cli.main([*argv, "--config", str(config), "--atom-a", "probe",
                         "--atom-b", "partner", "--material", "glass"])
        assert code == 3
        docs.append(capsys.readouterr().out)
    assert docs[0] == docs[1]
    err = json.loads(docs[0])["error"]
    assert err["type"] == "ConvergenceError"
    assert "no convergence after 8 subdivisions" in err["message"]
    assert err["evals"] == 15 * (7 + 2 * 8)
    for key in ("value", "err_est"):
        if components is None:
            assert isinstance(err[key], float)
        else:
            assert len(err[key]) == components and all(isinstance(v, float) for v in err[key])


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("sweep:\n  u: [2.0, 1.0]\n")
    proc = run_cli("coeffs", "--config", str(bad), "--material", "glass")
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert "increasing" in err["message"]


def test_non_positive_sweep_grid_is_a_config_error(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text(Path(CONFIG).read_text().replace("R_c: 0.05", "R_c: [-1]"))
    proc = run_cli("coeffs", "--config", str(bad), "--material", "glass")
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert "sweep.R_c" in err["message"]


@pytest.mark.parametrize("value", ["[0.05, 0.5, 3.0]", "[0.05]"])
def test_sweep_cavity_radius_list_is_a_config_error(tmp_path, value):
    # sweep.R_c is one number; a list used to run on its first value, silently
    bad = tmp_path / "bad.yaml"
    bad.write_text(Path(CONFIG).read_text().replace("R_c: 0.05", f"R_c: {value}"))
    proc = run_cli("single", "--config", str(bad), "--atom", "probe", "--material", "glass")
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert "sweep.R_c must be one number" in err["message"]


@pytest.mark.parametrize("radius", ["-1", "nan"])
def test_bad_cavity_radius_is_a_config_error(radius):
    proc = run_cli(
        "coeffs", "--config", CONFIG, "--material", "glass",
        "--cavity-radius", radius,
    )
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert "--cavity-radius" in err["message"]


_FORCE = ("force-check", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
          "--material", "glass")
_BORN = ("born-check", "--config", CONFIG, "--guest", "probe", "--host-atom", "partner")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (_FORCE + ("--separation", "-2"), "--separation"),
        (_FORCE + ("--separation", "inf"), "--separation"),
        (_BORN + ("--density", "-1", "--outer-radius", "10"), "--density"),
        (_BORN + ("--density", "0.05", "--outer-radius", "nan"), "--outer-radius"),
        # an infinite body ran, and its outer_radius inf then broke the JSON output, exit 1
        (_BORN + ("--density", "0.05", "--outer-radius", "inf"), "--outer-radius"),
        (_BORN + ("--density", "0.05", "--outer-radius", "0.01"), "--outer-radius"),
        # an empty body: its oracle value is exactly 0, and the deviation read 4.7e297, exit 1
        (_BORN + ("--density", "0.05", "--outer-radius", "0.05"), "--outer-radius"),
        # |chi(0)| >= 0.01 used to be a DomainError, exit 3, that did not name the flag
        (_BORN + ("--density", "100", "--outer-radius", "10", "--cavity-radius", "0.05"),
         "--density"),
        # zeta(0) = 0.063 passed the |chi(0)| check; the comparison then failed, exit 1
        (("born-check", "--config", CONFIG, "--guest", "probe", "--host-atom", "magnet",
          "--density", "0.01", "--outer-radius", "10"), "--density"),
    ],
    ids=["separation-negative", "separation-inf", "density-negative", "outer-nan", "outer-inf",
         "outer-inside-cavity", "outer-at-cavity", "density-not-dilute",
         "density-not-dilute-zeta"],
)
def test_bad_numeric_flag_is_a_config_error(argv, flag, tmp_path):
    # every case runs on glass.yaml plus one weakly polarizable, strongly
    # magnetizable atom
    config = tmp_path / "magnet.yaml"
    magnet = "  magnet:\n    resonances: [[1.0, 0.001]]\n    beta_resonances: [[1.0, 0.5]]\n"
    config.write_text(Path(CONFIG).read_text().replace("atoms:\n", "atoms:\n" + magnet))
    proc = run_cli(*(str(config) if a == CONFIG else a for a in argv))
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert flag in err["message"]
    assert proc.stderr == ""


def test_overflowing_transmission_exits_3():
    # e^{(n-1) u R_c} past the float range used to end in an OverflowError traceback, exit 1
    proc = run_cli("coeffs", "--config", CONFIG, "--material", "glass", "--cavity-radius", "1e4")
    assert proc.returncode == 3
    assert "cavity radius is not small" in proc.stderr
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InvariantError"
    assert "u = 1, R_c = 10000" in err["message"]


@pytest.mark.parametrize("argv, message", [
    (("coeffs", "--material", "glass"), "cavity coefficient D = nan at u = 0.2, R_c = 1e-300"),
    (("single", "--atom", "probe", "--material", "glass"), "U1 = -inf is not finite"),
], ids=["coeffs", "single"])
def test_tiny_cavity_radius_exits_3(argv, message):
    # coeffs used to print nan/inf rows with exit 0, single a ZeroDivisionError traceback
    proc = run_cli(*argv, "--config", CONFIG, "--cavity-radius", "1e-300")
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InvariantError"
    assert message in err["message"]


def test_non_finite_position_is_a_config_error(tmp_path):
    positions = tmp_path / "nan.txt"
    positions.write_text("probe 0 0 0\nprobe nan 0 0\n")
    proc = run_cli(
        "nbody", "--config", CONFIG, "--positions", str(positions),
        "--material", "glass",
    )
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert f"{positions}:2" in err["message"]


def test_positions_file_that_is_not_utf8_is_a_config_error(tmp_path):
    # the decode error used to escape as a UnicodeDecodeError traceback, exit 1
    positions = tmp_path / "latin1.txt"
    positions.write_bytes(b"probe 0 0 0\npartner 3 0 \xff\n")
    proc = run_cli("nbody", "--config", CONFIG, "--positions", str(positions),
                   "--material", "glass")
    assert proc.returncode == 2
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert err["message"].startswith(f"cannot read positions file {positions}: ")


def test_physics_error_exit_code(tmp_path):
    positions = tmp_path / "overlap.txt"
    positions.write_text("probe 0 0 0\nprobe 0 0 0\n")
    proc = run_cli(
        "nbody", "--config", CONFIG, "--positions", str(positions),
        "--material", "glass",
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["type"] == "GeometryError"


def test_infinite_tol_is_a_config_error(tmp_path):
    # quadrature.rel_tol is the one way to set the tolerance
    config = tmp_path / "inf_tol.yaml"
    config.write_text(Path(CONFIG).read_text().replace("rel_tol: 1.0e-8", "rel_tol: .inf"))
    proc = run_cli(
        "pair", "--config", str(config), "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass",
    )
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert "quadrature.rel_tol must be finite" in err["message"]


@pytest.mark.parametrize("argv", [
    ("pair", "--tol", "1e-2"),
    ("limits", "--tol", "1e-2"),
    ("pair", "--uncorrected"),
], ids=["pair-tol", "limits-tol", "pair-uncorrected"])
def test_removed_flags_are_usage_errors(argv):
    # the config sets rel_tol, and pair's U_uncorrected column holds the
    # uncorrected potential; neither has a second way in
    proc = run_cli(argv[0], "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
                   "--material", "glass", *argv[1:])
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert f"unrecognized arguments: {argv[1]}" in proc.stderr


def test_version_flag():
    proc = run_cli("--version")
    assert proc.returncode == 0
    assert proc.stdout.startswith("lfvdw ")


def test_out_file_and_stdout_agree(tmp_path):
    out = tmp_path / "limits.json"
    run_cli(
        "limits", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass", "--out", str(out),
    )
    direct = run_cli(
        "limits", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass",
    )
    assert out.read_text() == direct.stdout


def test_unwritable_out_path_is_a_config_error(tmp_path):
    # the command's work is done; the failed write is a usage error, not a traceback
    out = tmp_path / "missing" / "limits.json"
    proc = run_cli(
        "limits", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass", "--out", str(out),
    )
    assert proc.returncode == 2
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert f"--out {out}" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["pair", "limits"])
def test_atom_without_polarizability_exits_2(tmp_path, command):
    # it used to print -0 rows with nan ratios, or a non-JSON Infinity
    config = tmp_path / "empty.yaml"
    config.write_text(Path(CONFIG).read_text().replace(
        "probe:\n    resonances: [[1.0, 0.02]]", "probe:\n    resonances: []"))
    proc = run_cli(command, "--config", str(config), "--atom-a", "probe", "--atom-b", "partner",
                   "--material", "glass")
    assert proc.returncode == 2
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert "atoms.probe" in err["message"]


@pytest.mark.parametrize("command, message", [
    ("pair", "pair potential came out non-negative"),
    ("limits", "coeff_retarded came out 0.0"),
])
def test_underflowed_polarizability_exits_3(tmp_path, command, message):
    # alpha_A alpha_B = 1e-340 underflows: pair used to print -0 rows with nan
    # ratios and slopes, limits a non-JSON Infinity, both with exit 0
    config = tmp_path / "underflow.yaml"
    config.write_text(Path(CONFIG).read_text()
                      .replace("[[1.0, 0.02]]", "[[1.0, 1.0e-170]]")
                      .replace("[[1.3, 0.015]]", "[[1.3, 1.0e-170]]"))
    proc = run_cli(command, "--config", str(config), "--atom-a", "probe", "--atom-b", "partner",
                   "--material", "glass")
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InvariantError"
    assert message in err["message"]


@pytest.mark.parametrize("argv, smallest", [
    (("pair", "--format", "csv"), "1e-60"),
    (("pair", "--format", "json"), "1e-60"),
    (("force-check", "--separation", "1e-50"), "1e-50"),
], ids=["pair-csv", "pair-json", "force-check"])
def test_tiny_separation_exits_3(tmp_path, argv, smallest):
    # l^6 or l^7 underflows: pair used to print -inf,-inf,nan,-inf with exit 0,
    # and in JSON, as force-check, to die on a non-JSON -inf with exit 1
    config = tmp_path / "no_cavity.yaml"  # no sweep.R_c, so no separation guard
    config.write_text(Path(CONFIG).read_text().replace("  R_c: 0.05\n", "")
                      .replace("l: [2.0, 3.0, 5.0]", "l: [1.0e-60, 1.0e-3]"))
    proc = run_cli(argv[0], "--config", str(config), "--atom-a", "probe", "--atom-b", "partner",
                   "--material", "glass", *argv[1:])
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InvariantError"
    assert f"not finite at the smallest separation {smallest}" in err["message"]


def test_tiny_ring_separation_exits_3(tmp_path):
    # the ring's 1/l^3 dyads overflow: nbody used to print numpy RuntimeWarnings
    # and then fail on a quadrature u-node instead of the separation
    config = tmp_path / "no_cavity.yaml"  # no sweep.R_c, so no separation guard
    config.write_text(Path(CONFIG).read_text().replace("  R_c: 0.05\n", ""))
    positions = tmp_path / "tiny.txt"
    positions.write_text("probe 0 0 0\npartner 1e-60 0 0\n")
    proc = run_cli("nbody", "--config", str(config), "--positions", str(positions),
                   "--material", "glass")
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InvariantError"
    assert "the ring integrand is not finite at the smallest separation 1e-60" in err["message"]


def test_force_check_at_huge_separation_exits_3():
    # force_pair's integral underflows at l = 1e7; it used to return -0.0
    proc = run_cli("force-check", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
                   "--material", "glass", "--separation", "1e7")
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InvariantError"
    assert err["message"].startswith("pair force came out non-negative")


def test_far_pair_sweep_exits_3_with_empty_stderr(tmp_path):
    # x^4 e^{-2x} used to be inf * 0 at l = 1e200: four RuntimeWarning lines on
    # stderr, then an error naming a u-node's nan
    config = tmp_path / "far.yaml"
    config.write_text(Path(CONFIG).read_text().replace("l: [2.0, 3.0, 5.0]", "l: [1e200]"))
    proc = run_cli("pair", "--config", str(config), "--atom-a", "probe", "--atom-b", "partner",
                   "--material", "glass")
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InvariantError"
    assert err["message"].startswith("pair potential came out non-negative")


def test_coeffs_at_a_frequency_whose_square_overflows_exits_3_with_empty_stderr(tmp_path):
    # u * u overflowed in the Lorentz sums: a RuntimeWarning on stderr and exit 0
    config = tmp_path / "huge_u.yaml"
    config.write_text(Path(CONFIG).read_text().replace("u: [0.2, 0.5, 1.0, 2.0, 5.0]",
                                                        "u: [0.2, 1.0e200]"))
    proc = run_cli("coeffs", "--config", str(config), "--material", "glass")
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "DomainError"
    assert "must be finite and >= 0, with a finite square (u <= 1.34078e+154)" in err["message"]


def test_far_pair_sweep_names_the_failing_point(tmp_path):
    config = tmp_path / "far.yaml"
    config.write_text(Path(CONFIG).read_text().replace("l: [2.0, 3.0, 5.0]", "l: [2.0, 1e200]"))
    proc = run_cli("pair", "--config", str(config), "--atom-a", "probe", "--atom-b", "partner",
                   "--material", "glass")
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InvariantError"
    assert err["message"].startswith(
        "pair potential came out non-negative (-0) at separation 1e+200 (point 2 of 2); ")


def test_far_two_atom_ring_exits_3(tmp_path):
    # the N = 2 ring integral underflows 1e7 apart (ROADMAP item 3); nbody used
    # to exit 0 and print energy 0.0
    positions = tmp_path / "far2.txt"
    positions.write_text("probe 0 0 0\npartner 1e7 0 0\n")
    proc = run_cli("nbody", "--config", CONFIG, "--positions", str(positions),
                   "--material", "glass")
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "InvariantError"
    assert err["message"].startswith(
        "two-atom ring energy came out non-negative (-0) at separation 1e+07; ")


def test_ring_distance_overflow_exits_3(tmp_path):
    # finite coordinates whose squared distance overflows: nbody used to print a
    # numpy RuntimeWarning, then fail on "separation ... got array([inf])"
    positions = tmp_path / "far.txt"
    positions.write_text("probe 0 0 0\npartner 1 0 0\nprobe 0 1e200 0\n")
    proc = run_cli("nbody", "--config", CONFIG, "--positions", str(positions),
                   "--material", "glass")
    assert proc.returncode == 3
    assert proc.stderr == ""
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "GeometryError"
    assert err["message"] == "atoms 0 and 2 are too far apart: their squared distance overflows"
