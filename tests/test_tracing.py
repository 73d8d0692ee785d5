"""The benchmark tracer still finds every library name it wraps.

``perfbench/tracing.py`` patches layer functions by attribute name, so a
renamed or deleted name breaks ``--trace 1`` runs; these tests run its
child driver in a fresh process on one command per layer and on each of
its two library drivers.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def child(tmp_path, *argv):
    """Run ``perfbench/child.py --trace`` on argv; return its stdout and trace."""
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--trace", str(out), *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(out.read_text())


def traced(tmp_path, argv):
    """The trace of ``perfbench/child.py`` on a cecalc command."""
    return child(tmp_path, "cli", *argv)[1]


def library_driver(tmp_path, spec):
    """Stdout and trace of ``perfbench/child.py`` on a library driver spec."""
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    return child(tmp_path, "lib", str(path))


@pytest.mark.parametrize(
    "argv,span",
    [
        (["kappa", "-k", "5", "-i", "2", "--genus", "9"], "hurwitz.kappa"),
        (["bound", "-k", "5", "-g", "104", "--case", "H_circ"], "plmin.solve"),
    ],
    ids=["kappa", "bound"],
)
def test_trace_records_the_layer_span(tmp_path, argv, span):
    trace = traced(tmp_path, argv)
    assert trace["span_calls"][span] >= 1
    assert trace["span_calls"]["cli.main"] == 1


def test_trace_counts_the_quartic_constraint_calls(tmp_path):
    # At g = 8 there are 10 sorted e and 5 sorted f; the irreducible view
    # visits only the 8 pairs inside the pencil bounds and keeps 6.
    for filter, visited, rows in (("all", 50, 50), ("irreducible", 8, 6)):
        trace = traced(tmp_path, ["strata", "-k", "4", "-g", "8", "--filter", filter])
        assert trace["counts"]["splitting.constraints_4"] == visited
        assert trace["counts"]["splitting.strata_rows"] == rows


def test_trace_wraps_the_class_stack_names(tmp_path):
    trace = traced(tmp_path, ["curve-class", "-k", "5", "--symbolic"])
    assert trace["span_calls"]["hurwitz.curve_class"] == 1
    assert trace["span_calls"]["bundles.zeta_twisted_ch"] == 3


def test_trace_runs_the_sampler_driver(tmp_path):
    center = ["1/4", "3/8", "3/8", "1/2", "1/2"]
    spec = {"op": "sample", "preset": "lemma_b4", "trials": 50, "seed": 1, "center": center}
    out, trace = library_driver(tmp_path, spec)
    assert out == '{"value": "1/4"}\n'
    assert trace["span_calls"]["plmin.sample_check"] == 1
    assert trace["counts"]["plmin.sample_trials"] == 50


def test_trace_runs_the_pfaffian_sweep_driver(tmp_path):
    out, trace = library_driver(tmp_path, {"op": "sweep", "genera": [10]})
    assert json.loads(out) == {"pairs": 401, "max": 21, "witness": [10, [1, 1, 3, 9], [5, 5, 6, 6, 6]]}
    assert trace["counts"]["splitting.constraints_5"] == 12420
