"""One process of the timed loop.

    python3 perfbench/worker.py SPEC.json

``run.py`` starts these one after another and waits for each, so the loop
keeps one client. A worker rebuilds the workload from the generated files
and the references recorded before timing, makes one untimed call, runs
whole passes for the spec's seconds (at least one pass), and writes its
latencies, check results and peak RSS to the spec's output file as JSON.
Splitting the loop over fresh processes averages out what a single
process's memory layout and hash seed do to its speed.
"""

from __future__ import annotations

import json
import pickle
import resource
import sys
from pathlib import Path

import run
import workloads


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    refs = pickle.loads(Path(spec["refs"]).read_bytes())
    wl = workloads.build(spec["workload"], Path(spec["work"]), spec["seed"], spec["tiny"], refs)
    tally = run.Tally()
    passes, passed = run.run_passes(wl, spec["seconds"], tally)
    result = {
        "passes": passes,
        "passed": passed,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "messages": tally.messages,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(spec["out"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
