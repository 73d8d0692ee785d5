#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``cecalc`` tool.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from anywhere inside a checkout; the library is taken from the
checkout's ``src/``.  One client runs one child process at a time in a
closed loop.  A pass runs the workload's whole operation list once; there
are at least two passes, and more until the next one would end after
``--seconds`` of measuring.
Every output is checked (see ``oracles.py``), and a self-check confirms
that a corrupted output or exit code is caught.

Time metrics are calibrated: between two launches the client times a fixed
pure-Python loop, and each launch's times are scaled by ``CAL_REF_S``
over the mean of the loops just before and after it.  The machine's speed
drifts by 40-50 % for seconds to minutes; the scaling cancels that drift,
which the program under test cannot influence.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a
traced pass, each op under ``child.py --trace``, between two untraced
ones, and reports the per-layer metrics.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from time import perf_counter

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"

RUN_LIMIT_S = 170.0  # a run must end inside 180 s; ops past this are killed
SETUP_ARGV = ["ce-rank", "-k", "5", "-i", "2"]  # a command that does no real work
SETUP_OUT = "rank(F_2) = 5\n"
SETUP_LAUNCHES = 15
WARMUP_LAUNCHES = 2  # first launches compile bytecode and fill the page cache
CAL_ITERS = 1500
CAL_REF_S = 0.004  # the calibration loop on the reference machine (see README.md)


def calibration_loop() -> dict:
    """Fraction arithmetic on tuple-keyed dicts, like the library's own hot
    loops; each iteration does the same work."""
    acc: dict = {}
    for i in range(CAL_ITERS):
        key = (i % 13, i % 7)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 17 + 1, i % 11 + 2)
    return acc


def calibrate() -> float:
    """Median time of three calibration loops."""
    times = []
    for _ in range(3):
        start = perf_counter()
        calibration_loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


@dataclass
class Result:
    rc: int
    out: str
    wall: float  # as measured
    cpu: float
    rss_kb: int
    scale: float  # CAL_REF_S / the calibration time around the launch

    @property
    def cal_wall(self) -> float:
        return self.wall * self.scale

    @property
    def cal_cpu(self) -> float:
        return self.cpu * self.scale


@dataclass
class Pass:
    wall: float = 0.0
    results: list = field(default_factory=list)
    traces: list = field(default_factory=list)

    @property
    def cal_wall(self) -> float:
        return sum(r.cal_wall for r in self.results)


class Runner:
    """Launches children one at a time and records their resource use."""

    def __init__(self, deadline: float) -> None:
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.deadline = deadline
        self.peak_rss_kb = 0
        self.cal_s = calibrate()  # the latest calibration time
        self._child = None

    def _expire(self, signum, frame) -> None:
        if self._child is not None:
            self._child.kill()

    def launch(self, cmd: list[str]) -> Result:
        remaining = self.deadline - perf_counter()
        if remaining <= 0:
            raise TimeoutError("run time limit reached")
        old = signal.signal(signal.SIGALRM, self._expire)
        try:
            with open(WORK / "stdout", "w+b") as out, open(WORK / "stderr", "w+b") as err:
                start = perf_counter()
                self._child = subprocess.Popen(
                    cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=self.env
                )
                signal.setitimer(signal.ITIMER_REAL, remaining)
                _, status, usage = os.wait4(self._child.pid, 0)
                wall = perf_counter() - start
                signal.setitimer(signal.ITIMER_REAL, 0)
                rc = self._child.returncode = os.waitstatus_to_exitcode(status)
                out.seek(0)
                text = out.read().decode(errors="replace")
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
            self._child = None
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        before, self.cal_s = self.cal_s, calibrate()
        scale = CAL_REF_S / ((before + self.cal_s) / 2)
        return Result(rc, text, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, scale)

    def cecalc(self, argv: list[str]) -> Result:
        return self.launch([sys.executable, "-m", "cecalc", *argv])


def _command(op: workloads.Op, index: int, trace: bool) -> list[str]:
    child = [sys.executable, str(BENCH / "child.py")]
    if trace:
        child += ["--trace", str(WORK / f"trace_{index}.json")]
    if op.spec is not None:
        return child + ["lib", str(WORK / f"lib_{index}.json")]
    if trace:
        return child + ["cli", *op.argv]
    return [sys.executable, "-m", "cecalc", *op.argv]


def prepare(ops: list[workloads.Op]) -> None:
    for index, op in enumerate(ops):
        for path, doc in op.files.items():
            Path(path).write_text(json.dumps(doc))
        if op.spec is not None:
            (WORK / f"lib_{index}.json").write_text(json.dumps(op.spec))


def run_pass(runner: Runner, ops: list[workloads.Op], trace: bool) -> Pass:
    p = Pass()
    start = perf_counter()
    for index, op in enumerate(ops):
        p.results.append(runner.launch(_command(op, index, trace)))
    p.wall = perf_counter() - start
    if trace:
        for index in range(len(ops)):
            path = WORK / f"trace_{index}.json"
            p.traces.append(json.loads(path.read_text()) if path.exists() else None)
            path.unlink(missing_ok=True)
    return p


def failures(ops: list[workloads.Op], results: list[Result], verdicts: dict) -> list[str]:
    """Labels whose oracle rejects the pass's output.  ``verdicts`` caches
    each verdict by the outputs it depends on."""
    outs = {op.label: r.out for op, r in zip(ops, results)}
    bad = []
    for op, r in zip(ops, results):
        key = (op.label, r.rc, r.out, *(outs.get(d) for d in op.deps))
        if key not in verdicts:
            verdicts[key] = op.check(r.rc, r.out, outs)
        if not verdicts[key]:
            bad.append(op.label)
    return bad


def _corrupt(text: str) -> str:
    """Bump the last digit, or append a character when there is none."""
    for i in range(len(text) - 1, -1, -1):
        if text[i].isdigit():
            return text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:]
    return text + "!"


def self_check(ops: list[workloads.Op], results: list[Result]) -> list[str]:
    """Labels whose corrupted output or exit code no oracle catches."""
    outs = {op.label: r.out for op, r in zip(ops, results)}
    by_label = {op.label: (op, r) for op, r in zip(ops, results)}
    missed = []
    for op, r in zip(ops, results):
        bad = dict(outs)
        bad[op.label] = _corrupt(r.out)
        caught = not op.check(r.rc, bad[op.label], bad) or any(
            not dep.check(dep_r.rc, dep_r.out, bad)
            for dep, dep_r in by_label.values()
            if op.label in dep.deps
        )
        if not caught or op.check(r.rc + 1, r.out, outs):
            missed.append(op.label)
    return missed


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(traces: list, wall_untraced: float, wall_traced: float) -> dict:
    """Aggregate the child traces of one pass into the per-layer metrics."""
    span_s, span_n, self_s, counts, busy = Counter(), Counter(), Counter(), Counter(), Counter()
    imports, out_bytes = [], 0
    for t in traces:
        if t is None:
            continue
        span_s.update(t["span_s"])
        span_n.update(t["span_calls"])
        self_s.update(t["self_s"])
        counts.update(t["counts"])
        busy.update(t["busy_s"])
        if "cli_import_s" in t:
            imports.append(t["cli_import_s"])
            out_bytes += t["cli_output_bytes"]
    rows, candidates = counts["splitting.strata_rows"], counts["splitting.constraints_4"]
    strata_s = span_s["splitting.enumerate_strata4"]
    vertices, examined = counts["plmin.eval"], counts["plmin.candidates"]
    solve_s, sample_s = span_s["plmin.solve"], span_s["plmin.sample_check"]
    trials = counts["plmin.sample_trials"]
    m = {
        "cli.import_s": (_median(imports), "s"),
        "cli.self_s": (self_s["cli"], "s"),
        "cli.output_bytes": (out_bytes, "bytes"),
        "hurwitz.kappa_calls": (span_n["hurwitz.kappa"], "count"),
        "hurwitz.kappa_s": (span_s["hurwitz.kappa"], "s"),
        "hurwitz.curve_class_s": (span_s["hurwitz.curve_class"], "s"),
        "hurwitz.ce_setup_s": (span_s["hurwitz.ce_setup"], "s"),
        "hurwitz.kappa_terms": (counts["hurwitz.kappa_terms"], "count"),
        "hurwitz.self_s": (self_s["hurwitz"], "s"),
        "bundles.zeta_mul_calls": (counts["bundles.zeta_mul"], "count"),
        "bundles.zeta_mul_s": (busy["bundles.zeta_mul"], "s"),
        "bundles.zeta_reduce_calls": (counts["bundles.zeta_reduce"], "count"),
        "bundles.zeta_reduce_s": (busy["bundles.zeta_reduce"], "s"),
        "bundles.fiber_mul_calls": (counts["bundles.fiber_mul"], "count"),
        "bundles.fiber_mul_s": (busy["bundles.fiber_mul"], "s"),
        "bundles.twisted_ch_s": (span_s["bundles.zeta_twisted_ch"], "s"),
        "gring.mul_calls": (counts["gring.mul"], "count"),
        "gring.mul_s": (busy["gring.mul"], "s"),
        "gring.mul_term_pairs": (counts["gring.mul_term_pairs"], "count"),
        "gring.ctor_calls": (counts["gring.ctor"], "count"),
        "gring.ctor_terms_in": (counts["gring.ctor_terms_in"], "count"),
        "gring.ctor_terms_kept": (counts["gring.ctor_terms_kept"], "count"),
        "gring.ctor_keep_ratio": (_ratio(counts["gring.ctor_terms_kept"], counts["gring.ctor_terms_in"]), "ratio"),
        "gring.weighted_degree_calls": (counts["gring.weighted_degree"], "count"),
        "splitting.strata_s": (strata_s, "s"),
        "splitting.strata_rows": (rows, "count"),
        "splitting.strata_candidates": (candidates, "count"),
        "splitting.row_keep_ratio": (_ratio(rows, candidates), "ratio"),
        "splitting.us_per_row": (_ratio(strata_s * 1e6, rows), "us"),
        "splitting.constraints_5_calls": (counts["splitting.constraints_5"], "count"),
        "splitting.sweep_s": (span_s["splitting.sweep"], "s"),
        "splitting.self_s": (self_s["splitting"], "s"),
        "plmin.solve_calls": (span_n["plmin.solve"], "count"),
        "plmin.solve_s": (solve_s, "s"),
        "plmin.candidates": (examined, "count"),
        "plmin.feasible_vertices": (vertices, "count"),
        "plmin.feasible_ratio": (_ratio(vertices, examined), "ratio"),
        "plmin.us_per_candidate": (_ratio(solve_s * 1e6, examined), "us"),
        "plmin.eval_s": (busy["plmin.eval"], "s"),
        "plmin.sample_calls": (span_n["plmin.sample_check"], "count"),
        "plmin.sample_s": (sample_s, "s"),
        "plmin.sample_trials": (trials, "count"),
        "plmin.sample_ms_per_trial": (_ratio(sample_s * 1e3, trials), "ms"),
        "plmin.errors": (counts["plmin.errors"], "count"),
        "plmin.self_s": (self_s["plmin"], "s"),
        "trace.overhead_ratio": (_ratio(wall_traced, wall_untraced), "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + RUN_LIMIT_S
    runner = Runner(deadline)
    ops = workloads.WORKLOADS[name](Random(f"{name}:{seed}"), ROOT, WORK)
    prepare(ops)
    attempted = failed = 0

    for _ in range(WARMUP_LAUNCHES):
        runner.cecalc(SETUP_ARGV)
    setup_runs: list[Result] = []

    def measure_setup(launches: int) -> None:
        nonlocal attempted, failed
        for _ in range(launches):
            r = runner.cecalc(SETUP_ARGV)
            setup_runs.append(r)
            attempted += 1
            failed += r.rc != 0 or r.out != SETUP_OUT

    passes: list[Pass] = []
    bad_labels: set[str] = set()
    measured = 0.0
    # A traced run brackets its traced pass with two untraced ones, so that
    # warm-up and drift do not land on one side of trace.overhead_ratio.
    while True:
        # Set-up launches are spread over the first three slots between
        # passes, so that they sample the machine as the passes do.
        if not trace and len(setup_runs) < SETUP_LAUNCHES:
            measure_setup(SETUP_LAUNCHES // 3)
        passes.append(run_pass(runner, ops, trace=trace and len(passes) == 1))
        measured += passes[-1].wall
        if len(passes) < 2 or (trace and len(passes) < 3):
            continue
        if trace or measured + measured / len(passes) > seconds:
            break
    if not trace:
        measure_setup(SETUP_LAUNCHES - len(setup_runs))
    verdicts: dict = {}  # passes mostly repeat outputs; check each once
    for p in passes:
        bad = failures(ops, p.results, verdicts)
        bad_labels.update(bad)
        attempted += len(ops)
        failed += len(bad)
    missed = self_check(ops, passes[0].results)

    walls = [r.cal_wall for p in passes for r in p.results]
    scales = [r.scale for p in passes for r in p.results]
    print(f"workload {name}, seed {seed}: {len(ops)} ops x {len(passes)} passes, "
          f"{attempted} attempted, {failed} failed (fail_ratio {failed / attempted:.6g})")
    for label in sorted(bad_labels):
        print(f"  FAILED: {label}")
    for label in missed:
        print(f"  SELF-CHECK: corrupting {label} went unnoticed")
    if trace:
        metrics = layer_metrics(
            passes[1].traces, (passes[0].cal_wall + passes[2].cal_wall) / 2, passes[1].cal_wall
        )
    else:
        print(f"  op_p50_s over {len(walls)} ops; setup_s over {len(setup_runs)} launches")
        print(f"  calibration scale: median {_median(scales):.4f}, range {min(scales):.4f}-{max(scales):.4f}; "
              f"uncalibrated: wall {sum(p.wall for p in passes) / len(passes):.4f} s a pass, "
              f"op p50 {_median(r.wall for p in passes for r in p.results):.4f} s, "
              f"setup {_median(r.wall for r in setup_runs):.4f} s")
        for kind in sorted({op.kind for op in ops}):
            times = [p.results[i].cal_wall for p in passes for i, op in enumerate(ops) if op.kind == kind]
            print(f"    {kind:20s} {len(times):4d} ops, median {_median(times):.4f} s, max {max(times):.4f} s")
        # One pass rebuilt from each op's median over the passes, so that a
        # burst of load from outside hits one sample, not the figure.
        metrics = {
            "wall_s": {"value": sum(_median(p.results[i].cal_wall for p in passes) for i in range(len(ops))), "unit": "s"},
            "cpu_s": {"value": sum(_median(p.results[i].cal_cpu for p in passes) for i in range(len(ops))), "unit": "s"},
            "op_p50_s": {"value": _median(walls), "unit": "s"},
            "setup_s": {"value": _median(r.cal_wall for r in setup_runs), "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss_kb / 1024, "unit": "MB"},
        }
    for metric, v in metrics.items():
        print(f"  {metric:30s} {v['value']:>16.6g} {v['unit']}")
    return {
        "correct": failed == 0 and not missed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/cecalc/__init__.py", "tests/golden") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a cecalc checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.workload == "all":
            results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in workloads.WORKLOADS}
            print(json.dumps(results))
            return 0 if all(r["correct"] for r in results.values()) else 1
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
