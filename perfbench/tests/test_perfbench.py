"""Tests of the benchmark itself: metric names, seeded inputs, failure counting.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

import lfvdw.cli  # noqa: E402
import lfvdw.potentials  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=600,
    )


def test_workloads_match_benchmark_json():
    assert WORKLOADS == list(workloads.BUILDERS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0.2",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def _files(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path):
    dirs = [tmp_path / name for name in ("a", "b", "other")]
    for d, seed in zip(dirs, (5, 5, 6)):
        d.mkdir()
        workloads.BUILDERS[workload](d, seed, tiny=True)
    same, again, other = (_files(d) for d in dirs)
    assert same and same == again
    assert same.keys() == other.keys() and same != other


def _run_pass(workload: str, tmp_path: Path) -> tuple[run.Tally, dict[str, int]]:
    wl = workloads.BUILDERS[workload](tmp_path, 7, tiny=True)
    tally = run.Tally()
    for op in wl.ops:
        run.run_op(op, tally)
    kinds: dict[str, int] = {}
    for op in wl.ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    return tally, kinds


def test_corrupted_library_result_is_counted_as_failed(tmp_path, monkeypatch):
    original = lfvdw.potentials.u1_exact
    monkeypatch.setattr(lfvdw.potentials, "u1_exact",
                        lambda *args, **kwargs: original(*args, **kwargs) * (1.0 + 1e-4))
    tally, kinds = _run_pass("ring-cavity", tmp_path)
    assert tally.attempted == sum(kinds.values())
    assert tally.failed == kinds["u1_exact"] > 0


def test_corrupted_cli_output_is_counted_as_failed(tmp_path, monkeypatch):
    original = lfvdw.cli.pair_bulk

    def skewed(*args, **kwargs):
        res = original(*args, **kwargs)
        return dataclasses.replace(res, U=res.U * (1.0 + 1e-4))

    monkeypatch.setattr(lfvdw.cli, "pair_bulk", skewed)
    tally, kinds = _run_pass("pair-born", tmp_path)
    # force-check differentiates pair_bulk too, so its check trips as well.
    hit = sum(n for kind, n in kinds.items() if kind.startswith("pair") or kind == "force-check")
    assert tally.attempted == sum(kinds.values())
    assert tally.failed == hit > kinds["force-check"]


def _boom():
    raise RuntimeError("no")


def test_op_that_raises_is_counted_as_failed():
    tally = run.Tally()
    dt, passed = run.run_op(workloads.Op("boom", _boom, lambda out: []), tally)
    assert dt > 0.0 and not passed
    assert (tally.attempted, tally.failed) == (1, 1)


def test_timed_loop_ends_and_reports_when_every_op_fails():
    cold = workloads.CliCommand(["pair", "--config", "unused.yaml"], lambda out: [])
    wl = workloads.Workload([workloads.Op("boom", _boom, lambda out: [])] * 3, cold)
    tally = run.Tally()
    passes, passed = run.run_passes(wl, 0.05, tally)
    assert tally.attempted > 1 and tally.failed == tally.attempted
    assert not any(map(any, passed))
    metrics = run.summarize([0.5], [0.5], passes, passed, [30.0])
    assert metrics["ops_per_s"][0] == 0.0
    assert all(math.isfinite(value) for value, _ in metrics.values())


def test_worker_results_are_merged_into_the_tally():
    tally = run.Tally()
    tally.record("pair20", ["off"])
    tally.merge(5, 2, ["born-check: off", "limits: off"])
    assert (tally.attempted, tally.failed) == (6, 3)
    assert tally.messages == ["pair20: off", "born-check: off", "limits: off"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work", "out"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
