"""The benchmark tracer still finds every library name it wraps.

``perfbench/tracing.py`` patches layer functions by attribute name, so a
renamed or deleted name breaks ``--trace 1`` runs; these tests run its
child driver in a fresh process on one command per layer.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent


def traced(tmp_path, argv):
    """Run ``perfbench/child.py --trace`` on a cecalc command; return its trace."""
    out = tmp_path / "trace.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "--trace", str(out), "cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out.read_text())


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
    trace = traced(tmp_path, ["strata", "-k", "4", "-g", "8", "--filter", "all"])
    assert trace["counts"]["splitting.constraints_4"] > 0
    assert trace["counts"]["splitting.strata_rows"] > 0


def test_trace_wraps_the_class_stack_names(tmp_path):
    trace = traced(tmp_path, ["curve-class", "-k", "5", "--symbolic"])
    assert trace["span_calls"]["hurwitz.curve_class"] == 1
    assert trace["span_calls"]["bundles.zeta_twisted_ch"] == 3
