"""End-to-end CLI tests run through a subprocess."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
CONFIG = str(DATA / "glass.yaml")
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


def test_pair_uncorrected_flag():
    proc = run_cli(
        "pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass", "--uncorrected",
    )
    lines = [l for l in proc.stdout.splitlines() if not l.startswith("#")]
    corrected = run_cli(
        "pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass",
    )
    ref = [l for l in corrected.stdout.splitlines() if not l.startswith("#")]
    # the U column now holds the uncorrected value
    first = lines[1].split(",")
    ref_first = ref[1].split(",")
    assert first[1] == ref_first[2]


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


def test_physics_error_exit_code(tmp_path):
    positions = tmp_path / "overlap.txt"
    positions.write_text("probe 0 0 0\nprobe 0 0 0\n")
    proc = run_cli(
        "nbody", "--config", CONFIG, "--positions", str(positions),
        "--material", "glass",
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["error"]["type"] == "GeometryError"


def test_tol_flag_loosens_quadrature():
    args = (
        "pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass",
    )
    tight = run_cli(*args)
    loose = run_cli(*args, "--tol", "1e-2")
    row_tight = data_section(tight.stdout).splitlines()[1]
    row_loose = data_section(loose.stdout).splitlines()[1]
    u_tight = float(row_tight.split(",")[1])
    u_loose = float(row_loose.split(",")[1])
    assert u_loose == pytest.approx(u_tight, rel=1e-2, abs=0.0)
    assert row_loose != row_tight  # the override reached the integrator


def test_infinite_tol_is_a_config_error():
    proc = run_cli(
        "pair", "--config", CONFIG, "--atom-a", "probe", "--atom-b", "partner",
        "--material", "glass", "--tol", "inf",
    )
    assert proc.returncode == 2
    err = json.loads(proc.stdout)["error"]
    assert err["type"] == "config"
    assert "tolerances" in err["message"]


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
