"""Benchmark for lfvdw: seeded workloads, checked ops, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pair-born --seed 1 --seconds 50 --trace 0

--trace 0 measures the end-to-end metrics for --seconds: a closed loop
with one client that repeats the workload's pass of ops in a series of
short-lived worker processes (worker.py), one at a time, with a set-up
sample and a cold CLI command, each in a fresh interpreter, before every
worker. It goes on past --seconds until 100 op samples are collected.
--trace 1 repeats the pass in this process for --seconds,
running each op under one tracer, untraced and under a second tracer, and
reports the per-layer split. Every op's output is checked, against
references computed in a child process first. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics; the
lines before it give the same numbers for reading, plus the run's metadata.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import shutil
import subprocess
import sys
import traceback
import warnings
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
OUT = HERE / "out"

SETUP_REPS = 7  # least set-up and cold-CLI samples per run, one before each worker
WORKER_SECONDS = 3.0  # loop time of one worker process
MIN_TAIL = 10  # samples required beyond a reported percentile
SUBPROCESS_TIMEOUT = 120

REFS_CODE = (
    "import pickle, sys\n"
    "from pathlib import Path\n"
    "import workloads\n"
    "name, work, seed, tiny, out = sys.argv[1:]\n"
    "refs = workloads.record_references(name, Path(work), int(seed), tiny == '1')\n"
    "Path(out).write_bytes(pickle.dumps(refs))\n"
)
SETUP_CODE = (
    "import sys, lfvdw.cli, lfvdw.config\n"
    "lfvdw.config.load_config(sys.argv[1])\n"
    "sys.stdout.write('ready\\n')\n"
    "sys.stdout.flush()\n"
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrink every input and repeat set-up once (for the benchmark's own tests)")
    return p.parse_args(argv)


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def record(self, kind: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{kind}: {'; '.join(problems[:3])}")
        return not problems

    def merge(self, attempted: int, failed: int, messages: list[str]):
        self.attempted += attempted
        self.failed += failed
        self.messages += messages[: 20 - len(self.messages)]


def run_op(op, tally: Tally, runner=None) -> tuple[float, bool]:
    """Run one op, check it, and return its latency in seconds and whether it passed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = perf_counter()
        try:
            out = runner(op.kind, op.call) if runner else op.call()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            error = f"raised {type(exc).__name__}: {exc}"
        dt = perf_counter() - t0
    if error:
        problems = [error]
    else:
        try:
            problems = op.check(out)
        except Exception as exc:
            problems = [f"check raised {type(exc).__name__}: {exc}"]
    problems += [f"warning: {w.message}" for w in caught]
    return dt, tally.record(op.kind, problems)


def percentile(sorted_vals: list[float], q: float) -> float:
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def median(vals: list[float]) -> float:
    return percentile(sorted(vals), 0.5)


def child_env(*paths: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), *map(str, paths),
                                                      env.get("PYTHONPATH")]))
    return env


def build_workload(args, work: Path):
    """Write the inputs and build the ops. The references are computed in a
    child process and saved, so that their tight-tolerance work stays out of
    the measured processes' peak RSS; this process and the workers replay
    them. Returns the workload and the path of the saved references."""
    import workloads

    refs_path = work / "references.pickle"
    proc = subprocess.run(
        [sys.executable, "-c", REFS_CODE, args.workload, str(work), str(args.seed),
         str(int(args.tiny)), str(refs_path)],
        capture_output=True, text=True, env=child_env(HERE), cwd=work, timeout=SUBPROCESS_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference child failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    refs = pickle.loads(refs_path.read_bytes())
    return workloads.build(args.workload, work, args.seed, args.tiny, refs), refs_path


def time_setup(config: str, work: Path) -> float:
    """Fresh interpreter start until ``import lfvdw.cli`` and one load_config are done."""
    t0 = perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE, config],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), cwd=work,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        _, err = proc.communicate(timeout=SUBPROCESS_TIMEOUT)
    if line != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {err.strip()[-500:]}")
    return elapsed


def time_cold(cmd, work: Path, tally: Tally) -> float:
    """One CLI command in a fresh process, from start until it exits."""
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "lfvdw.cli", *cmd.argv],
        capture_output=True, text=True, env=child_env(), cwd=work, timeout=SUBPROCESS_TIMEOUT,
    )
    elapsed = perf_counter() - t0
    problems = cmd.check((proc.returncode, proc.stdout))
    if proc.stderr.strip():
        problems.append(f"stderr: {proc.stderr.strip()[-300:]}")
    tally.record(f"cold {cmd.argv[0]}", problems)
    return elapsed


def source_revision() -> dict[str, str]:
    digest = hashlib.sha256()
    for path in sorted((SRC / "lfvdw").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = "unknown"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or "unknown"
        except OSError:
            pass
    return {"git_revision": rev, "src_sha256": digest.hexdigest()[:16]}


def metadata(args) -> dict:
    import lfvdw._backend
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **source_revision(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": lfvdw._backend.BACKEND,
        "nproc": os.cpu_count(),
        "threads": 1,
        "worker_seconds": WORKER_SECONDS,
    }


def run_passes(wl, seconds: float, tally: Tally) -> tuple[list[list[float]], list[list[bool]]]:
    """One untimed call of the first op, then whole passes of the workload
    until ``seconds`` of wall time are used, at least one. Returns each
    op's latency and whether it passed, pass by pass."""
    run_op(wl.ops[0], tally)  # warm-up: the first in-process call, checked but not timed
    passes, passed = [], []
    t0 = perf_counter()
    while not passes or perf_counter() - t0 < seconds:
        results = [run_op(op, tally) for op in wl.ops]
        passes.append([dt for dt, _ in results])
        passed.append([ok for _, ok in results])
    return passes, passed


def run_worker(args, work: Path, refs_path: Path, seconds: float, index: int) -> dict:
    """One worker process (worker.py) running passes for ``seconds``; waits for it."""
    spec, out = work / f"worker-{index}.json", work / f"worker-{index}-result.json"
    spec.write_text(json.dumps({
        "workload": args.workload, "work": str(work), "seed": args.seed, "tiny": args.tiny,
        "refs": str(refs_path), "seconds": seconds, "out": str(out),
    }), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec)],
        capture_output=True, text=True, env=child_env(HERE), cwd=work, timeout=SUBPROCESS_TIMEOUT,
    )
    if proc.returncode != 0 or not out.is_file():
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(args, wl, work: Path, refs_path: Path, tally: Tally, raw: dict) -> dict[str, tuple[float, str]]:
    """Workers one after another until --seconds have passed, each preceded
    by a set-up sample and a cold-CLI sample, so that all three spread over
    the whole run."""
    reps, min_samples = (1, 1) if args.tiny else (SETUP_REPS, 10 * MIN_TAIL)
    setup, cold, passes, passed, rss = [], [], [], [], []
    deadline = perf_counter() + args.seconds
    while (perf_counter() < deadline or len(setup) < reps
           or sum(map(len, passes)) < min_samples):
        setup.append(time_setup(wl.cold.config, work))
        cold.append(time_cold(wl.cold, work, tally))
        res = run_worker(args, work, refs_path, min(WORKER_SECONDS, args.seconds), len(rss))
        tally.merge(res["attempted"], res["failed"], res["messages"])
        passes += res["passes"]
        passed += res["passed"]
        rss.append(res["peak_rss_mb"])
    raw.update(setup=setup, cold=cold, passes=passes, peak_rss_mb=rss)
    print(f"# loop: {len(rss)} workers, {len(passes)} passes of {len(wl.ops)} ops, "
          f"{sum(map(sum, passed))} passed, {sum(map(sum, passes)):.3f} s in ops")
    return summarize(setup, cold, passes, passed, rss)


def summarize(setup, cold, passes, passed, rss) -> dict[str, tuple[float, str]]:
    every = [dt for row in passes for dt in row]
    ok = [dt for row, oks in zip(passes, passed) for dt, good in zip(row, oks) if good]
    # Latencies of the ops that passed; of every op when none did, so that a
    # broken run still reports (with correct false) instead of crashing.
    timed = sorted(ok or every)
    if len(ok) < 10 * MIN_TAIL:
        print(f"warning: {len(ok)} latency samples; p90 needs {10 * MIN_TAIL}", file=sys.stderr)
    return {
        "setup_s": (median(setup), "s"),
        "cold_cli_s": (median(cold), "s"),
        "ops_per_s": (len(ok) / sum(every), "1/s"),
        "op_p50_ms": (1e3 * percentile(timed, 0.5), "ms"),
        "op_p90_ms": (1e3 * percentile(timed, 0.9), "ms"),
        "peak_rss_mb": (max(rss), "MB"),
    }


def traced(args, wl, tally: Tally) -> dict[str, tuple[float, str]]:
    from tracer import Tracer

    def run_under(t, op) -> float:
        if t is None:
            return run_op(op, tally)[0]
        t.install()
        try:
            return run_op(op, tally, t.op)[0]
        finally:
            t.uninstall()

    run_op(wl.ops[0], tally)  # warm-up
    a, b = Tracer(keep_spans=True), Tracer(keep_spans=False)
    variants = (a, None, b)
    spent = [0.0, 0.0, 0.0]  # op time under a, untraced, under b
    passes = turn = 0
    t0 = perf_counter()
    # Every op runs three times in a row: under tracer a, untraced and under
    # tracer b, in an order that rotates from op to op. All three see the
    # same stretch of machine time, so trace.overhead_frac compares like with like.
    while passes == 0 or perf_counter() - t0 < args.seconds:
        for op in wl.ops:
            for k in range(3):
                v = (turn + k) % 3
                spent[v] += run_under(variants[v], op)
            turn += 1
        a.keep_spans = False  # one pass is enough for the span file
        passes += 1
    if a.deterministic_counts() != b.deterministic_counts():
        diff = {k for k in set(a.deterministic_counts()) | set(b.deterministic_counts())
                if a.deterministic_counts().get(k) != b.deterministic_counts().get(k)}
        raise RuntimeError(f"deterministic counts differ between two traced runs: {sorted(diff)}")
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-{args.seed}.csv"
    a.write_spans(spans_path)
    print(f"# traced: {passes} passes x 3, {len(a.spans)} spans written to {spans_path}")
    overhead = (spent[0] + spent[2]) / (2.0 * spent[1]) - 1.0
    return layer_metrics(a, b, overhead)


def layer_metrics(a, b, overhead: float) -> dict[str, tuple[float, str]]:
    """Per-op layer metrics: counts from one traced run, times averaged over both."""
    from tracer import LAYERS

    ops = a.counts["ops"]
    c = a.counts

    def ms(ns_a: int, ns_b: int) -> float:
        return (ns_a + ns_b) / 2.0 / 1e6 / ops

    def per_call(ns_a: int, ns_b: int, calls: int, scale: float) -> float:
        return (ns_a + ns_b) / 2.0 / scale / calls if calls else 0.0

    sa, sb = a.layer_self_ns(), b.layer_self_ns()
    total = (a.layer_ns["bench"] + b.layer_ns["bench"]) / 2.0
    ring = "_kernels.ring_trace"
    mie = [f"_kernels.{k}" for k in ("cavity_c", "cavity_d", "cavity_c1_expansion")]
    m = {
        "quadrature.integrals_per_op": (c["quadrature.integrals"] / ops, "count"),
        "quadrature.integrand_calls_per_op": (c["integrand.calls"] / ops, "count"),
        "quadrature.evals_per_op": (c["quadrature.evals"] / ops, "count"),
        "quadrature.nodes_per_call": (
            c["integrand.nodes"] / c["integrand.calls"] if c["integrand.calls"] else 0.0, "count"),
        "quadrature.self_ms_per_op": (ms(sa["quadrature"], sb["quadrature"]), "ms"),
        "quadrature.self_us_per_call": (
            per_call(sa["quadrature"], sb["quadrature"], c["integrand.calls"], 1e3), "us"),
        "integrand.self_ms_per_op": (ms(sa["integrand"], sb["integrand"]), "ms"),
        "response.calls_per_op": (a.calls_in("response") / ops, "count"),
        "response.nodes_per_op": (c["response.nodes"] / ops, "count"),
        "response.us_per_call": (
            per_call(a.layer_ns["response"], b.layer_ns["response"], a.calls_in("response"), 1e3),
            "us"),
        "response.unique_frac": (
            c["response.unique"] / a.calls_in("response") if a.calls_in("response") else 1.0,
            "frac"),
        "_kernels.ring_trace.ms_per_op": (ms(a.self_ns[ring], b.self_ns[ring]), "ms"),
        "_kernels.ring_trace.nodes_per_op": (c[f"{ring}.nodes"] / ops, "count"),
        "green.calls_per_op": (a.calls_in("green") / ops, "count"),
        "green.inner_integrals_per_op": (c["green.inner_integrals"] / ops, "count"),
        "green.ms_per_op": (ms(a.layer_ns["green"], b.layer_ns["green"]), "ms"),
        "oracle.pair_calls_per_op": (c["oracle.pair_calls"] / ops, "count"),
        "oracle.ms_per_op": (ms(a.layer_ns["oracle"], b.layer_ns["oracle"]), "ms"),
        "cavity.calls_per_op": (a.calls_in("cavity") / ops, "count"),
        "cavity.self_ms_per_op": (ms(sa["cavity"], sb["cavity"]), "ms"),
        "_kernels.calls_per_op": (a.calls_in("_kernels") / ops, "count"),
        "_kernels.ms_per_op": (ms(a.layer_ns["_kernels"], b.layer_ns["_kernels"]), "ms"),
        "_kernels.mie_ms_per_op": (
            ms(sum(a.self_ns[k] for k in mie), sum(b.self_ns[k] for k in mie)), "ms"),
        "_kernels.ns_per_node": (
            per_call(a.layer_ns["_kernels"], b.layer_ns["_kernels"], c["_kernels.nodes"], 1.0),
            "ns"),
        "potentials.self_ms_per_op": (ms(sa["potentials"], sb["potentials"]), "ms"),
        "cli.self_ms_per_op": (ms(sa["cli"], sb["cli"]), "ms"),
        "config.load_ms_per_op": (ms(a.layer_ns["config"], b.layer_ns["config"]), "ms"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.spans_per_op": (sum(a.calls.values()) / ops, "count"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_frac"] = ((sa[layer] + sb[layer]) / 2.0 / total, "frac")
    m[f"{ring}.self_frac"] = ((a.self_ns[ring] + b.self_ns[ring]) / 2.0 / total, "frac")
    # Metric names start with a letter: the _kernels module reports as "kernels".
    return {name.lstrip("_"): value for name, value in m.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lfvdw" / "cli.py").is_file():
        print(f"error: lfvdw sources not found under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.BUILDERS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.BUILDERS)}", file=sys.stderr)
        return 2
    meta = metadata(args)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    raw: dict = {}
    try:
        t0 = perf_counter()
        wl, refs_path = build_workload(args, work)
        print(f"# inputs and references built in {perf_counter() - t0:.2f} s")
        if args.trace:
            metrics = traced(args, wl, tally)
        else:
            metrics = end_to_end(args, wl, work, refs_path, tally, raw)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# meta {json.dumps(meta, sort_keys=True)}")
    for msg in tally.messages:
        print(f"# FAILED {msg}")
    print(f"# fail_frac {tally.failed / tally.attempted:.6g} ({tally.failed} of {tally.attempted} ops)")
    for name, (value, unit) in metrics.items():
        print(f"# {name} {value:.6g} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, **result, "raw": raw}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
