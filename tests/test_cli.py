"""Command-line surface: golden outputs, JSON mode, exit codes, determinism."""

import argparse
import json
import random
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from cecalc.cli import build_parser, main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"


def run_cli(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


GOLDEN_CASES = [
    ("kappa_k3_i0_g7.txt", ["kappa", "-k", "3", "-i", "0", "--genus", "7"]),
    ("kappa_k4_symbolic.txt", ["kappa", "-k", "4", "-i", "0", "--symbolic"]),
    ("minimize_b4.txt", ["minimize", "--preset", "lemma_b4"]),
    ("strata_g6.txt", ["strata", "-k", "4", "-g", "6", "--filter", "irreducible"]),
    ("splitting_codim_k4.txt", ["splitting-codim", "-k", "4", "--e", "1,4,4", "--f", "2,7"]),
    ("bound_k5_g104.json", ["bound", "-k", "5", "-g", "104", "--case", "H_circ", "--json"]),
    ("curve_class_k4.txt", ["curve-class", "-k", "4", "--symbolic"]),
    ("curve_class_k5_g9.txt", ["curve-class", "-k", "5", "--genus", "9"]),
    ("curve_class_k5_g9.json", ["curve-class", "-k", "5", "--genus", "9", "--json"]),
    ("presentation_k4_g6.txt", ["presentation", "-k", "4", "-g", "6"]),
    ("ce_rank_k5_i2.txt", ["ce-rank", "-k", "5", "-i", "2"]),
]


@pytest.mark.parametrize("fname,argv", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_golden_outputs_reproduce_byte_for_byte(capsys, fname, argv):
    code, out = run_cli(capsys, argv)
    assert code == 0
    assert out == (GOLDEN / fname).read_text()


def test_output_is_deterministic(capsys):
    _, first = run_cli(capsys, ["strata", "-k", "4", "-g", "8"])
    _, second = run_cli(capsys, ["strata", "-k", "4", "-g", "8"])
    assert first == second


def test_json_contains_the_same_numbers_as_text(capsys):
    args = ["splitting-codim", "-k", "5", "--e", "2,4,4,5", "--f", "5,6,6,6,7", "-g", "11"]
    code, text = run_cli(capsys, args)
    assert code == 0
    code, raw = run_cli(capsys, args + ["--json"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["command"] == "splitting-codim"
    assert f"codim = {doc['output']['codim']}\n" == text
    assert doc["citations"] == ["quintic-codim-formula"]


def formula_register():
    """The backticked identifiers of the README's "Formula register" section."""
    section = README.read_text().split("### Formula register", 1)[1].split("\n#", 1)[0]
    return set(re.findall(r"`([^`]+)`", section))


ENVELOPE_CASES = [
    ["kappa", "-k", "3", "-i", "0", "--genus", "7"],
    ["curve-class", "-k", "3", "--symbolic"],
    ["strata", "-k", "4", "-g", "4"],
    ["splitting-codim", "-k", "4", "--e", "1,4,4", "--f", "2,7"],
    ["minimize", "--preset", "lemma_b4"],
    ["bound", "-k", "4", "-g", "10", "--case", "B_circ"],
    ["presentation", "-k", "4", "-g", "6"],
    ["ce-rank", "-k", "5", "-i", "2"],
]


def test_envelope_cases_cover_every_command():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv in ENVELOPE_CASES) == sorted(sub.choices)


@pytest.mark.parametrize("argv", ENVELOPE_CASES, ids=lambda argv: argv[0])
def test_json_envelope_names_the_command_and_registered_formulas(capsys, argv):
    code, raw = run_cli(capsys, argv + ["--json"])
    assert code == 0
    doc = json.loads(raw)
    assert set(doc) == {"command", "inputs", "output", "citations"}
    assert doc["command"] == argv[0]
    assert doc["citations"] and set(doc["citations"]) <= formula_register()


@pytest.mark.parametrize("filter", ["all", "irreducible", "non_factoring"])
def test_strata_text_rows_render_the_json_rows(capsys, filter):
    args = ["strata", "-k", "4", "-g", "8", "--filter", filter]
    code, text = run_cli(capsys, args)
    assert code == 0
    code, raw = run_cli(capsys, args + ["--json"])
    assert code == 0
    rows = json.loads(raw)["output"]["strata"]
    yes = {True: "yes", False: "no"}
    want = [
        f"{r['e']} | {r['f']} | {r['codim']} | {yes[r['irreducible']]} | "
        f"{yes[r['non_factoring']]} | {yes[r['in_H_prime']]} | {yes[r['in_H_circ']]}"
        for r in rows
    ]
    lines = text.splitlines()
    assert lines[0] == f"degree-4 strata at genus 8 (filter: {filter})"
    assert lines[2:] == want and len(want) > 0


def test_kappa_json_round_trips(capsys):
    code, raw = run_cli(capsys, ["kappa", "-k", "4", "-i", "0", "--symbolic", "--json"])
    assert code == 0
    doc = json.loads(raw)
    assert doc["inputs"]["genus"] == "symbolic"
    assert doc["output"]["text"] == "-2 + 2 * g"
    assert json.loads(json.dumps(doc)) == doc


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["kappa", "-k", "6", "-i", "0", "--genus", "5"])  # k out of range
    assert exc.value.code == 2
    capsys.readouterr()
    assert main(["strata", "-k", "5", "-g", "6"]) == 2  # strata only for k = 4
    capsys.readouterr()
    assert main(["kappa", "-k", "3", "-i", "0"]) == 2  # neither genus nor symbolic
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["ce-rank", "-k", "5", "-i", "2"],
        ["presentation", "-k", "4", "-g", "6"],
        ["strata", "-k", "4", "-g", "6"],
        ["splitting-codim", "-k", "4", "--e", "1,4,4", "--f", "2,7"],
        ["minimize", "--preset", "lemma_b4"],
        ["bound", "-k", "4", "-g", "10", "--case", "B_circ"],
    ],
    ids=lambda argv: argv[0],
)
def test_truncation_is_rejected_where_nothing_reads_it(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--truncation", "9"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --truncation 9" in capsys.readouterr().err


def test_truncation_is_echoed_and_does_not_change_the_output(capsys):
    _, plain = run_cli(capsys, ["kappa", "-k", "4", "-i", "2", "--genus", "9", "--json"])
    _, wide = run_cli(
        capsys, ["kappa", "-k", "4", "-i", "2", "--genus", "9", "--json", "--truncation", "11"]
    )
    plain, wide = json.loads(plain), json.loads(wide)
    assert plain["inputs"]["truncation"] == 8 and wide["inputs"]["truncation"] == 11
    assert plain["output"] == wide["output"]
    assert main(["kappa", "-k", "4", "-i", "2", "--genus", "9", "--truncation", "5"]) == 2
    assert "truncation 5 too small for kappa_2 at degree 4 (needs > 5)" in capsys.readouterr().err


@pytest.mark.parametrize("truncation", ["0", "1"])
@pytest.mark.parametrize(
    "argv",
    [["kappa", "-k", "3", "-i", "0", "--genus", "7"], ["curve-class", "-k", "4", "--symbolic"]],
    ids=lambda argv: argv[0],
)
def test_truncation_below_2_exits_2(capsys, argv, truncation):
    assert main(argv + ["--truncation", truncation, "--json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: truncation must be >= 2, got {truncation}" in err


def test_infeasible_program_exits_3(tmp_path, capsys):
    spec = {
        "vars": 1,
        "eq": [],
        "le": [["1", "0"], ["-1", "-1"]],  # x <= 0 and x >= 1
        "obj": {"lin": ["1"], "const": "0", "hinges": []},
    }
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps(spec))
    assert main(["minimize", "--spec-file", str(path)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize(
    "spec,key",
    [
        ({}, "'vars'"),
        ([1], "'vars', got list"),
        ({"vars": 1, "le": [["-1", "0"]], "obj": []}, "'obj' has the wrong type list"),
        ({"vars": 1, "obj": {"hinges": [{"coeffs": ["1"], "rhs": "0"}]}}, "missing key 'sign'"),
        (
            {"vars": 1.7, "obj": {"hinges": [{"sign": 1.9, "coeffs": ["1"], "rhs": "0"}]}},
            "'vars' must be an integer, got 1.7",
        ),
        ({"vars": True, "le": [["-1", "0"]], "obj": {"lin": ["1"]}}, "'vars' must be an integer"),
        ({"vars": "3/2", "le": [["-1", "0"]]}, "'vars' must be an integer, got '3/2'"),
        (
            {"vars": 1, "obj": {"hinges": [{"sign": 1.9, "coeffs": ["1"], "rhs": "0"}]}},
            "'sign' must be an integer, got 1.9",
        ),
        ({"vars": 1, "le": [["-1", "0"]], "obj": {"const": "x"}}, "'const' must be a number, got 'x'"),
        (
            {"vars": 1, "le": [["-1", "0"], ["abc", "2"]]},
            "constraint row ['abc', '2'] must be a number, got 'abc'",
        ),
        (
            {"vars": 1, "obj": {"hinges": [{"sign": 1, "coeffs": ["q"], "rhs": "0"}]}},
            "'coeffs' must be a number, got 'q'",
        ),
        ({"vars": 1, "le": [["-1", "0"]], "obj": {"lin": [True]}}, "'lin' must be a number, got True"),
        (
            {"vars": 1, "obj": {"hinges": [{"sign": 1, "coeffs": ["1"], "rhs": False}]}},
            "'rhs' must be a number, got False",
        ),
    ],
    ids=[
        "no_vars",
        "not_an_object",
        "obj_not_an_object",
        "hinge_without_sign",
        "fractional_vars_and_sign",
        "boolean_vars",
        "ratio_vars",
        "fractional_sign",
        "text_const",
        "text_row_entry",
        "text_hinge_coeff",
        "boolean_lin",
        "boolean_rhs",
    ],
)
def test_malformed_spec_file_exits_2(tmp_path, capsys, spec, key):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(spec))
    assert main(["minimize", "--spec-file", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def test_unbounded_program_exits_3(tmp_path, capsys):
    spec = {"vars": 1, "le": [["-1", "0"]], "obj": {"lin": ["1"]}}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(spec))
    assert main(["minimize", "--spec-file", str(path)]) == 3
    capsys.readouterr()


def test_oversized_program_exits_2_fast(tmp_path, capsys):
    # 9 variables, a box and 42 cuts: C(60, 8) boundedness subsets
    rng = random.Random(9)
    rows = []
    for i in range(9):
        unit = [str(int(j == i)) for j in range(9)]
        rows += [[v.replace("1", "-1") for v in unit] + ["0"], unit + ["1"]]
    rows += [[str(rng.randint(-3, 3)) for _ in range(9)] + ["5"] for _ in range(42)]
    path = tmp_path / "large.json"
    path.write_text(json.dumps({"vars": 9, "le": rows, "obj": {"lin": ["1"] * 9}}))
    start = time.perf_counter()
    assert main(["minimize", "--spec-file", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "60 inequality planes in dimension m = 9 give 2558620845 subsets" in err


def test_many_variable_program_exits_3_fast(tmp_path, capsys):
    # nothing of size vars x vars is built before the boundedness check
    path = tmp_path / "wide.json"
    path.write_text(json.dumps({"vars": 5000}))
    start = time.perf_counter()
    assert main(["minimize", "--spec-file", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert "no inequality constrains the affine subspace" in capsys.readouterr().err


def test_unconstrained_program_exits_3_before_building_its_objective(tmp_path, capsys):
    # no rows: the region is all of R^n, refused before anything of size n
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"vars": 1000000}))
    start = time.perf_counter()
    assert main(["minimize", "--spec-file", str(path)]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: no inequality constrains the affine subspace\n"
    # a malformed document still exits 2 first
    path.write_text(json.dumps({"vars": 1000000, "obj": {"lin": ["1"]}}))
    assert main(["minimize", "--spec-file", str(path)]) == 2
    assert "objective has length 1, expected 1000000" in capsys.readouterr().err


def test_oversized_strata_table_exits_2_fast(capsys):
    start = time.perf_counter()
    assert main(["strata", "-k", "4", "-g", "100000"]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert "genus 100000 has 41670000083334 candidate strata, more than the limit" in err


@pytest.mark.parametrize("filter", ["all", "irreducible", "non_factoring"])
def test_strata_limit_counts_every_candidate_whatever_the_filter(capsys, filter):
    # the filtered views visit fewer pairs, but the limit counts them all
    start = time.perf_counter()
    assert main(["strata", "-k", "4", "-g", "619", "--filter", filter]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "genus 619 has 10026640 candidate strata, more than the limit" in captured.err


def test_splitting_codim_k4_prints_the_raw_formula_for_unequal_degrees(capsys):
    # deg f = 72 is not deg e = 9: -k 4 does not check degrees (see the README)
    code, out = run_cli(capsys, ["splitting-codim", "-k", "4", "--e", "1,4,4", "--f", "2,70"])
    assert (code, out) == (0, "codim = -307\n")


@pytest.mark.parametrize(
    "flag,value",
    [("--e", "1,,4"), ("--e", "1.5,4,4"), ("--e", ""), ("--f", "2,x")],
)
def test_malformed_splitting_type_names_the_flag_and_the_input(capsys, flag, value):
    args = {"--e": "1,4,4", "--f": "2,7", flag: value}
    argv = ["splitting-codim", "-k", "4", f"--e={args['--e']}", f"--f={args['--f']}"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag}: {value!r} is not a comma-separated list of integers\n"


def test_minimize_json_reports_solver_counts(capsys):
    code, raw = run_cli(capsys, ["minimize", "--preset", "lemma_coh4", "--json"])
    assert code == 0
    out = json.loads(raw)["output"]
    assert out["subsets"] == comb(out["planes"], 3)
    assert out["subsets"] == out["singular"] + out["infeasible"] + out["feasible"]
    assert out["candidates_examined"] == out["infeasible"] + out["feasible"]
    assert out["feasible"] > 0 and out["infeasible"] > 0 and out["singular"] > 0


def test_spec_file_solves_like_preset(tmp_path, capsys):
    from cecalc.plmin import preset, program_to_json

    path = tmp_path / "b4.json"
    path.write_text(json.dumps(program_to_json(preset("lemma_b4"))))
    _, from_file = run_cli(capsys, ["minimize", "--spec-file", str(path)])
    _, from_preset = run_cli(capsys, ["minimize", "--preset", "lemma_b4"])
    assert from_file == from_preset


@pytest.mark.parametrize("spell", [str, float], ids=["string", "float"])
def test_spec_file_accepts_integral_vars_and_sign_in_any_spelling(tmp_path, capsys, spell):
    from cecalc.plmin import preset, program_to_json

    doc = program_to_json(preset("lemma_coh4"))  # two -1 hinges
    doc["vars"] = spell(doc["vars"])
    for hinge in doc["obj"]["hinges"]:
        hinge["sign"] = spell(hinge["sign"])
    path = tmp_path / "coh4.json"
    path.write_text(json.dumps(doc))
    _, from_file = run_cli(capsys, ["minimize", "--spec-file", str(path)])
    _, from_preset = run_cli(capsys, ["minimize", "--preset", "lemma_coh4"])
    assert from_file == from_preset


def test_console_entry_point_via_module():
    proc = subprocess.run(
        [sys.executable, "-m", "cecalc", "ce-rank", "-k", "5", "-i", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "rank(F_2) = 5\n"


# -- start-up: each command loads only the layers it runs ------------------------

_LAUNCH = """
import sys
from cecalc.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
watched = {"dataclasses", "json"}
print(" ".join(sorted(m for m in sys.modules if m.startswith("cecalc.") or m in watched)))
sys.exit(code)
"""


def launch(argv):
    """Run the command in a fresh interpreter.

    Returns (exit code, loaded modules, stderr); the loaded modules are the
    cecalc layers plus ``dataclasses`` and ``json``, which no text command
    needs.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, *argv], capture_output=True, text=True
    )
    return proc.returncode, set(proc.stdout.splitlines()[-1].split()), proc.stderr


def test_kappa_launch_loads_no_solver_and_no_splitting():
    code, loaded, _ = launch(["kappa", "-k", "4", "-i", "1", "--genus", "7"])
    assert code == 0
    assert {"cecalc.gring", "cecalc.bundles", "cecalc.hurwitz"} <= loaded
    assert not loaded & {"cecalc.plmin", "cecalc.splitting"}


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "-k", "4", "-i", "1", "--genus", "7"],
        ["strata", "-k", "4", "-g", "6"],
        ["minimize", "--preset", "lemma_b4"],
    ],
    ids=lambda argv: argv[0],
)
def test_text_launch_loads_no_dataclasses_and_no_json(argv):
    code, loaded, _ = launch(argv)
    assert code == 0
    assert not loaded & {"dataclasses", "json"}


def test_json_launch_loads_json():
    code, loaded, _ = launch(["ce-rank", "-k", "5", "-i", "2", "--json"])
    assert code == 0
    assert "json" in loaded


def test_minimize_launch_loads_no_class_calculus():
    code, loaded, _ = launch(["minimize", "--preset", "lemma_b4"])
    assert code == 0
    assert "cecalc.plmin" in loaded
    assert not loaded & {"cecalc.hurwitz", "cecalc.bundles"}


def test_fresh_launch_exit_codes_for_bad_and_unsolvable_programs(tmp_path):
    code, _, err = launch(["minimize", "--preset", "no_such_program"])
    assert code == 2
    assert "unknown preset 'no_such_program'" in err
    infeasible = {"vars": 1, "le": [["1", "0"], ["-1", "-1"]], "obj": {"lin": ["1"]}}
    unbounded = {"vars": 1, "le": [["-1", "0"]], "obj": {"lin": ["1"]}}
    for name, spec in (("infeasible", infeasible), ("unbounded", unbounded)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(spec))
        code, _, err = launch(["minimize", "--spec-file", str(path)])
        assert code == 3, err
        assert err.startswith("error: ")
