#!/usr/bin/env python3
"""Re-measure the long single-command reference points and record them.

    python3 perfbench/baseline.py

These commands are too long for a benchmark run (each run must end within
three minutes and the whole series within an hour), so they are measured
here once per baseline instead: the full ``lemma_coh5`` solve under the
tracer (its exact candidate and vertex counts), ``bound -k 5 -g 104 --case
H_circ`` end to end against its golden file, symbolic kappa_5 at k = 5,
the g = 200 stratum table, and the tier-1 test suite.  Each point is set
beside the figure the project roadmap quotes; counts must match exactly,
times are reported as a ratio.  Writes ``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import oracles
import run

# What the roadmap quotes for each point (2 CPUs, Python 3.11.7).
QUOTED = {
    "lemma_coh5_solve": {"seconds": 48.0, "candidates": 98234, "feasible_vertices": 33819},
    "bound_k5_g104_H_circ": {"seconds": 53.0},
    "kappa5_k5_symbolic": {"seconds": 3.0},
    "strata_g200_all": {"seconds": 27.0, "rows": 346836},
    "tier1_suite": {"seconds": 134.0, "passed": 147, "failed": 1},
}


def machine() -> dict:
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    runner = run.Runner(perf_counter() + 3600)
    points: dict = {}
    try:
        runner.cecalc(run.SETUP_ARGV)  # compile bytecode first

        trace_file = run.WORK / "coh5.json"
        r = runner.launch([sys.executable, str(run.BENCH / "child.py"), "--trace", str(trace_file),
                           "cli", "minimize", "--preset", "lemma_coh5"])
        t = json.loads(trace_file.read_text())
        points["lemma_coh5_solve"] = {
            "seconds": t["span_s"]["plmin.solve"],
            "process_seconds": r.wall,
            "candidates": t["counts"]["plmin.candidates"],
            "feasible_vertices": t["counts"]["plmin.eval"],
            "output_ok": r.rc == 0 and r.out.startswith("min = 1/5 at ["),
        }

        golden = (run.ROOT / "tests" / "golden" / "bound_k5_g104.json").read_text()
        r = runner.cecalc(["bound", "-k", "5", "-g", "104", "--case", "H_circ", "--json"])
        points["bound_k5_g104_H_circ"] = {"seconds": r.wall, "output_ok": r.rc == 0 and r.out == golden}

        r = runner.cecalc(["kappa", "-k", "5", "-i", "5", "--symbolic"])
        points["kappa5_k5_symbolic"] = {"seconds": r.wall, "output_ok": r.rc == 0 and r.out.startswith("kappa_5 = ")}

        r = runner.cecalc(["strata", "-k", "4", "-g", "200", "--filter", "all"])
        points["strata_g200_all"] = {
            "seconds": r.wall,
            "rows": r.out.count("\n") - 2,
            "output_lines": r.out.count("\n"),
            "peak_rss_mb": r.rss_kb / 1024,
            "output_ok": r.rc == 0 and oracles.check_strata(r.out, 200, "all"),
        }

        r = runner.launch([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"])
        summary = r.out.strip().splitlines()[-1] if r.out.strip() else ""
        counts = {word: int(n) for n, word in
                  (part.split()[:2] for part in summary.split(" in ")[0].split(", ") if part[:1].isdigit())}
        points["tier1_suite"] = {"seconds": r.wall, "passed": counts.get("passed", 0),
                                 "failed": counts.get("failed", 0), "summary": summary}
    finally:
        shutil.rmtree(run.WORK, ignore_errors=True)

    for name, point in points.items():
        quoted = QUOTED[name]
        point["quoted"] = quoted
        point["time_ratio"] = point["seconds"] / quoted["seconds"]
        point["counts_match"] = all(point[k] == v for k, v in quoted.items() if k != "seconds")
    record = {"machine": machine(), "points": points}
    (run.BENCH / "baseline.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps(record, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
