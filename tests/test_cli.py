"""Command-line surface: golden outputs, JSON mode, exit codes, determinism."""

import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from cecalc.cli import arguments, build_parser, main, read_plain

ROOT = Path(__file__).parent.parent
GOLDEN = ROOT / "tests" / "golden"
README = ROOT / "README.md"
# Subprocesses import the cecalc of this checkout, not an installed copy.
CHECKOUT_ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


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


def _exit_and_streams(capsys, parse, argv):
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return exc.value.code, capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "-k", "4", "-i", "1", "--genus", "3", "extra"],
        ["bound", "-k", "4", "-g", "10", "--case", "A"],
        ["strata", "-k", "4"],
        ["kappa", "-h"],
        [],
        ["kapa", "-k", "4"],
        ["-h"],
        ["--json", "minimize"],
        # forms the plain reader leaves to argparse
        ["kappa", "-k", "4", "--gen", "7"],
        ["kappa", "-k4", "-i", "x", "--genus", "7"],
        ["kappa", "-k", "4", "-k", "5", "-i", "1", "--genus", "7", "extra"],
        ["kappa", "-k", "4", "-i", "1", "--genus", "7", "--json=1"],
        ["splitting-codim", "-k", "4", "--e", "-1,4,4", "--f", "2,7"],
    ],
    ids=[
        "extra", "invalid_choice", "missing", "command_help", "none", "unknown", "help", "option_first",
        "abbreviation", "attached_value", "repeated_flag", "switch_with_value", "dash_value",
    ],
)
def test_one_command_parser_reads_as_the_full_parser(capsys, argv):
    # main builds only the subparser argv[0] names; its texts must not show it
    want = _exit_and_streams(capsys, build_parser().parse_args, argv)
    assert _exit_and_streams(capsys, main, argv) == want


def _word(keywords):
    """A valid value of an option, as a command-line word."""
    if "choices" in keywords:
        return str(keywords["choices"][-1])
    return "7" if keywords.get("type") is int else "1,4,4"


def command_lines(command):
    """(argv, plain) pairs for ``command``: every flag in every spelling, and
    the forms the plain reader must leave to argparse; ``plain`` says
    whether ``read_plain`` must read the line."""
    _, rows = arguments(command)

    def without(left_out):
        return [command] + [
            word
            for flags, keywords in rows
            if keywords.get("required") and flags != left_out
            for word in (flags[0], _word(keywords))
        ]

    base = without(None)
    yield base, True
    yield base + ["extra"], False
    yield base + ["--"], False
    yield base + ["-h"], False
    yield base + ["--no-such-flag"], False
    for flags, keywords in rows:
        rest = without(flags)
        if keywords.get("required"):
            yield rest, False
        if keywords.get("action") == "store_true":
            (flag,) = flags
            yield rest + [flag], True
            yield rest + [flag + "=1"], False
            yield rest + [flag, flag], False
            yield rest + [flag[:-1]], False
            continue
        word = _word(keywords)
        for flag in flags:
            yield rest + [flag, word], True
            yield rest + [flag, word, flag, word], False
            yield rest + [flag], False
            yield rest + [flag, "-1"], False
            if flag.startswith("--"):
                yield rest + [f"{flag}={word}"], True
                yield rest + [f"{flag}=-1"], "choices" not in keywords
                yield rest + [f"{flag}="], keywords.get("type") is not int and "choices" not in keywords
                if len(flag) > 3:
                    yield rest + [flag[:-1], word], False
            else:
                yield rest + [flag + word], False
                yield rest + [f"{flag}={word}"], False
            if keywords.get("type") is int:
                yield rest + [flag, "x"], False
                yield rest + [flag, "1.5"], False
            if "choices" in keywords:
                yield rest + [flag, "6" if keywords.get("type") is int else "nope"], False


def _argparse_reads(parser, argv):
    """vars of the full parser's namespace for argv, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parser.parse_args(argv))
        except SystemExit:
            return None


@pytest.mark.parametrize("command", [argv[0] for argv in ENVELOPE_CASES])
def test_plain_reader_reads_as_argparse_or_declines(command):
    parser = build_parser()
    lines = list(command_lines(command))
    assert sum(plain for _, plain in lines) >= 2 and sum(not plain for _, plain in lines) >= 5
    for argv, plain in lines:
        got = read_plain(argv)
        assert (got is not None) == plain, argv
        if plain:
            assert vars(got) == _argparse_reads(parser, argv), argv


def _workload_command_lines(tmp_path):
    """Every cecalc command line of the benchmark's four workloads at one seed."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [
        op.argv
        for make in WORKLOADS.values()
        for op in make(random.Random(20261017), ROOT, tmp_path)
        if op.argv
    ]


def test_every_envelope_golden_and_benchmark_command_line_is_plain(tmp_path):
    bench = _workload_command_lines(tmp_path)
    spellings = {word.partition("=")[0] for argv in bench for word in argv if word.startswith("--")}
    assert {"--e", "--f", "--truncation", "--spec-file"} <= spellings
    assert any(word.startswith("--e=-") for argv in bench for word in argv)
    parser = build_parser()
    for argv in ENVELOPE_CASES + [argv for _, argv in GOLDEN_CASES] + bench:
        got = read_plain(argv)
        assert got is not None, argv
        assert vars(got) == _argparse_reads(parser, argv), argv


@pytest.mark.parametrize(
    "argv",
    [[], ["-h"], ["kapa", "-k", "4"], ["--json", "minimize"], ["KAPPA"], ["kappa=1"]],
    ids=["none", "help", "unknown", "option_first", "case", "equals"],
)
def test_plain_reader_leaves_anything_but_a_command_first_to_argparse(argv):
    assert read_plain(argv) is None


@pytest.mark.parametrize(
    "argv,plain",
    [
        (["kappa", "-k4", "-i", "1", "--gen", "7"], ["kappa", "-k", "4", "-i", "1", "--genus", "7"]),
        (
            ["kappa", "-k", "5", "-k", "4", "-i", "1", "--genus", "7"],
            ["kappa", "-k", "4", "-i", "1", "--genus", "7"],
        ),
        (["ce-rank", "-k", "5", "--ind", "2", "--json", "--json"], ["ce-rank", "-k", "5", "-i", "2", "--json"]),
    ],
    ids=["abbreviated", "repeated", "repeated_switch"],
)
def test_forms_left_to_argparse_run_as_their_plain_spelling(capsys, argv, plain):
    assert read_plain(argv) is None and read_plain(plain) is not None
    assert run_cli(capsys, argv) == run_cli(capsys, plain)


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
    for argv, text in [
        (["minimize"], "provide exactly one of --preset or --spec-file"),
        (
            ["minimize", "--preset", "lemma_b4", "--spec-file", "spec.json"],
            "provide exactly one of --preset or --spec-file",
        ),
        (["splitting-codim", "-k", "5", "--e", "2,4,4,5", "--f", "5,6,6,6,7"], "k = 5 needs --genus"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {text}\n")


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
        ({"vars": "1/0", "le": [["-1", "0"]]}, "'vars' must be an integer, got '1/0'"),
        ({"vars": 1, "le": [["-1", "0"]], "obj": {"const": "1/0"}}, "'const' must be a number, got '1/0'"),
        ({"vars": 1, "le": [["-1", "0"]], "objective": {}}, "unknown key 'objective'"),
        (
            # "hinges" misspelt: read as no hinges, this would print min = 0, not -4
            {
                "vars": 1,
                "le": [["-1", "0"], ["1", "2"]],
                "obj": {"lin": ["1"], "hinge": [{"sign": -1, "coeffs": ["3"], "rhs": "0"}]},
            },
            "unknown key 'hinge'",
        ),
        (
            {"vars": 1, "obj": {"hinges": [{"sign": 1, "coeffs": ["1"], "rhs": "0", "scale": 2}]}},
            "unknown key 'scale'",
        ),
        ({"vars": 0, "le": [["0"]]}, "need at least one variable, got 0"),
        (
            {"vars": 1, "le": [["-1", "0"]], "obj": {"hinges": [{"sign": 2, "coeffs": ["1"], "rhs": "0"}]}},
            "hinge sign must be +1 or -1, got 2",
        ),
        # far beyond Python's 4 300-digit limit: refused before any integer is built
        (
            {"vars": 1, "le": [["-1", "0"], ["1", "1e10000000"]]},
            "constraint row ['1', '1e10000000'] must be a number, got '1e10000000'",
        ),
        ({"vars": "1e10000000", "le": [["-1", "0"]]}, "'vars' must be an integer, got '1e10000000'"),
        # within the exponent limit, but past Python's 4 300 digits once printed
        (
            {"vars": 1, "le": [["1", "0"], ["-1", "1e4300"]], "obj": {"lin": ["1"]}},
            "error: the minimum has more than 4300 digits",
        ),
        (
            {"vars": 1, "le": [["-1", "1e3000"], ["1", "0"]], "obj": {"lin": ["1e3000"]}},
            "error: the minimum has more than 4300 digits",
        ),
        (
            {"vars": 1, "le": [["-1", "1e4300"], ["1", "0"]], "obj": {"lin": ["1e-4300"]}},
            "error: an argmin coordinate has more than 4300 digits",
        ),
        (
            {"vars": "1e4300", "le": [["-1", "0"]]},
            "error: spec: the row length vars + 1 has more than 4300 digits",
        ),
        (
            {
                "vars": 1,
                "le": [["-1", "0"]],
                "obj": {"hinges": [{"sign": "1e4300", "coeffs": ["1"], "rhs": "0"}]},
            },
            "error: a hinge sign has more than 4300 digits",
        ),
        ({"vars": "-1e4300"}, "error: the number of variables has more than 4300 digits"),
        (
            '{"vars": 1, "le": [[-1, 0], [1, ' + "9" * 4301 + "]]}",
            "error: spec: an integer literal has more than 4300 digits\n",
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
        "zero_denominator_vars",
        "zero_denominator_const",
        "unknown_program_key",
        "unknown_objective_key",
        "unknown_hinge_key",
        "no_variables",
        "hinge_sign_2",
        "huge_exponent_row_entry",
        "huge_exponent_vars",
        "minimum_past_the_digit_limit",
        "product_past_the_digit_limit",
        "argmin_past_the_digit_limit",
        "row_length_past_the_digit_limit",
        "hinge_sign_past_the_digit_limit",
        "variable_count_past_the_digit_limit",
        "integer_literal_past_the_digit_limit",
    ],
)
def test_malformed_spec_file_exits_2(tmp_path, capsys, spec, key):
    path = tmp_path / "malformed.json"
    path.write_text(spec if isinstance(spec, str) else json.dumps(spec))  # a str is JSON text
    start = time.perf_counter()
    assert main(["minimize", "--spec-file", str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


@pytest.mark.parametrize(
    "entry,code,text",
    [
        (
            "0.1234567890123456789012345",
            0,
            "min = -246913578024691357802469/2000000000000000000000000 at "
            "[(246913578024691357802469/2000000000000000000000000)]\n",
        ),
        ("1e400", 0, f"min = -{10**400} at [({10**400})]\n"),
        ("1e5000", 2, "error: spec: entry of constraint row [1, 1e5000] must be a number, got 1e5000\n"),
        ("0." + "9" * 4300, 2, "error: spec: a number literal has more than 4300 digits\n"),
    ],
    ids=["many_decimals", "past_a_double", "past_the_exponent_limit", "past_the_digit_limit"],
)
def test_spec_decimals_are_read_exactly(tmp_path, capsys, entry, code, text):
    # max -x over 0 <= x <= entry, the entry a JSON number literal, not a string
    path = tmp_path / "decimal.json"
    path.write_text('{"vars": 1, "le": [[-1, 0], [1, ' + entry + ']], "obj": {"lin": [-1]}}')
    assert main(["minimize", "--spec-file", str(path)]) == code
    captured = capsys.readouterr()
    assert (captured.out if code == 0 else captured.err) == text


def test_unbounded_program_exits_3(tmp_path, capsys):
    spec = {"vars": 1, "le": [["-1", "0"]], "obj": {"lin": ["1"]}}
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(spec))
    assert main(["minimize", "--spec-file", str(path)]) == 3
    capsys.readouterr()


def test_recession_ray_past_the_digit_limit_exits_3(tmp_path, capsys):
    # y >= 10^4300 x, y <= 10^4300 x and x >= 0: the cone is the one ray (1, 10^4300)
    spec = {"vars": 2, "le": [["1e4300", "-1", "0"], ["-1e4300", "1", "0"], ["-1", "0", "0"]]}
    path = tmp_path / "steep.json"
    path.write_text(json.dumps(spec))
    assert main(["minimize", "--spec-file", str(path)]) == 3
    err = capsys.readouterr().err
    assert err == "error: recession ray with an entry of more than 4300 digits detected\n"


def test_recession_ray_behind_many_subsets_exits_3_fast(tmp_path, capsys):
    # x1 >= 0 on 20 random rows and -1 <= x_j <= 1 for j = 2..6: the cone is
    # the one ray e_1, lying only on the null lines of the last 10 rows, so a
    # walk over the C(30, 5) subsets of normals reaches it late
    rng = random.Random(1)
    rows = [
        [str(rng.randint(-3, -1))] + [str(rng.randint(-3, 3)) for _ in range(5)] + [str(rng.randint(0, 5))]
        for _ in range(20)
    ]
    for j in range(1, 6):
        for sign in (1, -1):
            rows.append([str(sign * int(i == j)) for i in range(6)] + ["1"])
    path = tmp_path / "ray.json"
    path.write_text(json.dumps({"vars": 6, "le": rows, "obj": {"lin": ["1"] * 6}}))
    start = time.perf_counter()
    assert main(["minimize", "--spec-file", str(path)]) == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == "error: recession ray (1, 0, 0, 0, 0, 0) detected\n"


def test_oversized_program_exits_2_fast(tmp_path, capsys):
    # 9 variables, a box and 42 cuts: C(60, 9) subsets to enumerate
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
    assert "60 distinct boundary and +1 breakpoint planes in dimension m = 9 give 14783142660 subsets" in err


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


def test_strata_refuses_any_genus_at_once(capsys):
    # the candidates are counted in closed form, not by a loop over the genus
    start = time.perf_counter()
    assert main(["strata", "-k", "4", "-g", "1000000000000"]) == 2
    assert time.perf_counter() - start < 1.0
    assert "41666666667000000000000833333333334 candidate strata" in capsys.readouterr().err


@pytest.mark.parametrize("filter", ["all", "irreducible", "non_factoring"])
def test_strata_limit_counts_every_candidate_whatever_the_filter(capsys, filter):
    # the filtered views visit fewer pairs, but the limit counts them all
    start = time.perf_counter()
    assert main(["strata", "-k", "4", "-g", "619", "--filter", filter]) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "genus 619 has 10026640 candidate strata, more than the limit" in captured.err


@pytest.mark.parametrize("json_mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize(
    "argv,what",
    [
        (["kappa", "-k", "3", "-i", "4", "-g", "9" * 1000], "kappa_4"),
        (["curve-class", "-k", "5", "-g", "9" * 4300], "[C]"),
    ],
    ids=["kappa", "curve-class"],
)
def test_coefficient_past_the_digit_limit_exits_2(capsys, argv, what, json_mode):
    assert main(argv + json_mode) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {what} has a coefficient of more than 4300 digits\n"


def test_coefficient_within_the_digit_limit_prints(capsys):
    code, out = run_cli(capsys, ["kappa", "-k", "3", "-i", "1", "-g", "9" * 2000])
    assert code == 0 and out.startswith("kappa_1 = ") and len(out) > 2000


NINES = "9" * 4300  # the largest genus or part a command reads
# e = (1, 1, 1, g + 1) and f = (1, 1, a, a, t - 2a) have the degrees (g + 4, 2g + 8)
EDGE_G = 10**4300 - 10
EDGE_T = 2 * EDGE_G + 6
EDGE_A = EDGE_T // 3
# A dict stands for a spec file.  bound is absent: every preset minimum is at
# most 1, so each bound is below its genus.
DIGIT_EDGE_CASES = {
    "presentation": ["presentation", "-k", "5", "-g", NINES],
    "codim-k4": ["splitting-codim", "-k", "4", "--e", "0,0,0", "--f", "0," + NINES],
    "codim-k5": [
        "splitting-codim", "-k", "5", "--e", f"1,1,1,{EDGE_G + 1}",
        "--f", f"1,1,{EDGE_A},{EDGE_A},{EDGE_T - 2 * EDGE_A}", "-g", str(EDGE_G),
    ],
    "codim-k5-degrees": [
        "splitting-codim", "-k", "5", "--e", "1,1,1," + NINES, "--f", "1,1,1,1,1", "-g", NINES,
    ],
    "strata": ["strata", "-k", "4", "-g", "9" * 1500],
    "kappa": ["kappa", "-k", "3", "-i", "4", "-g", NINES],
    "curve-class": ["curve-class", "-k", "5", "-g", NINES],
    "ce-rank": ["ce-rank", "-k", "14300", "-i", "7149"],
    "minimize": [
        "minimize", "--spec-file",
        {"vars": 1, "le": [["1", "0"], ["-1", "1e4300"]], "obj": {"lin": ["1"]}},
    ],
    "minimize-vars": ["minimize", "--spec-file", {"vars": "1e4300", "obj": {"lin": ["1"]}}],
}


@pytest.mark.parametrize("json_mode", [[], ["--json"]], ids=["text", "json"])
@pytest.mark.parametrize("argv", DIGIT_EDGE_CASES.values(), ids=DIGIT_EDGE_CASES)
def test_every_command_refuses_a_number_past_the_digit_limit(tmp_path, capsys, argv, json_mode):
    spec = tmp_path / "spec.json"
    for arg in argv:
        if isinstance(arg, dict):
            spec.write_text(json.dumps(arg))
    argv = [str(spec) if isinstance(arg, dict) else arg for arg in argv]
    assert main(argv + json_mode) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "4300" in captured.err
    assert "Exceeds the limit" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [["kappa", "-k", "3", "-i", "1"], ["curve-class", "-k", "3", "--json"]],
    ids=["kappa", "curve-class"],
)
def test_genus_and_symbolic_together_exit_2(capsys, argv):
    assert main([*argv, "--genus", "5", "--symbolic"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: give --genus G or --symbolic, not both\n"


@pytest.mark.parametrize(
    "argv,genus",
    [
        (["kappa", "-k", "3", "-i", "1"], "-5"),
        (["curve-class", "-k", "3"], "0"),
        (["kappa", "-k", "5", "-i", "0"], "1"),
        (["splitting-codim", "-k", "5", "--e", "0,0,0,3", "--f", "0,0,0,0,6"], "-1"),
    ],
    ids=["kappa", "curve-class", "kappa-genus-1", "splitting-codim-k5"],
)
def test_genus_below_2_exits_2(capsys, argv, genus):
    assert main([*argv, "--genus", genus]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: genus must be >= 2, got {genus}\n"


def test_splitting_codim_k4_refuses_a_genus(capsys):
    argv = ["splitting-codim", "-k", "4", "--e", "1,4,4", "--f", "2,7"]
    assert main([*argv, "-g", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k = 4 takes no --genus\n"
    assert run_cli(capsys, argv) == (0, "codim = 2\n")


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
    from cecalc.plmin import preset
    from conftest import program_to_json

    path = tmp_path / "b4.json"
    path.write_text(json.dumps(program_to_json(preset("lemma_b4"))))
    _, from_file = run_cli(capsys, ["minimize", "--spec-file", str(path)])
    _, from_preset = run_cli(capsys, ["minimize", "--preset", "lemma_b4"])
    assert from_file == from_preset


@pytest.mark.parametrize("spell", [str, float], ids=["string", "float"])
def test_spec_file_accepts_integral_vars_and_sign_in_any_spelling(tmp_path, capsys, spell):
    from cecalc.plmin import preset
    from conftest import program_to_json

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
        env=CHECKOUT_ENV,
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


# The command module of each command, in help order; a launch loads its own alone.
COMMAND_MODULES = {
    "kappa": "cecalc.cli_hurwitz",
    "curve-class": "cecalc.cli_hurwitz",
    "strata": "cecalc.cli_splitting",
    "splitting-codim": "cecalc.cli_splitting",
    "minimize": "cecalc.cli_plmin",
    "bound": "cecalc.cli_plmin",
    "presentation": "cecalc.cli_hurwitz",
    "ce-rank": "cecalc.cli_hurwitz",
}


def launch(argv):
    """Run the command in a fresh interpreter.

    Returns (exit code, loaded modules, stderr); the loaded modules are the
    cecalc layers plus ``dataclasses`` and ``json``, which no text command
    needs.  Checks that the launch loaded the command module of its command
    and neither of the other two.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, *argv], capture_output=True, text=True, env=CHECKOUT_ENV
    )
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert loaded & set(COMMAND_MODULES.values()) == {COMMAND_MODULES[argv[0]]}, loaded
    return proc.returncode, loaded, proc.stderr


@pytest.mark.parametrize("argv", ENVELOPE_CASES, ids=lambda argv: argv[0])
def test_launch_loads_its_own_command_module_alone(argv):
    code, _, err = launch(argv)
    assert code == 0, err


def test_help_lists_every_command():
    proc = subprocess.run(
        [sys.executable, "-m", "cecalc", "-h"], capture_output=True, text=True, env=CHECKOUT_ENV
    )
    assert proc.returncode == 0
    listed = re.findall(r"^    (\S+) +\S", proc.stdout, re.MULTILINE)
    assert listed == list(COMMAND_MODULES) == [argv[0] for argv in ENVELOPE_CASES]


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


def test_ce_rank_refuses_ranks_over_the_digit_cap_fast(capsys):
    start = time.perf_counter()
    code, _, err = launch(["ce-rank", "-k", "1000000", "-i", "500000"])
    assert time.perf_counter() - start < 1
    assert code == 2
    assert "k = 1000000, i = 500000" in err
    code, _, _ = launch(["ce-rank", "-k", "14000", "-i", "6999"])
    assert code == 0
    # 4231 digits: below the cap, printed in full
    rank = 6999 * 6999 * comb(14000, 7000) // 13999
    assert run_cli(capsys, ["ce-rank", "-k", "14000", "-i", "6999"]) == (0, f"rank(F_6999) = {rank}\n")


def imported(argv):
    """Exit code and the modules a fresh ``python -m cecalc`` launch imports,
    read from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "cecalc", *argv],
        capture_output=True,
        text=True,
        env=CHECKOUT_ENV,
    )
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in lines}


PARSER_STACK = {"argparse", "gettext", "locale"}


@pytest.mark.parametrize(
    "argv",
    [
        ["kappa", "-k", "4", "-i", "3", "--genus", "7"],
        ["splitting-codim", "-k", "4", "--e=1,4,4", "--f=2,7"],
    ],
    ids=lambda argv: argv[0],
)
def test_plain_launch_loads_no_argparse(argv):
    code, modules = imported(argv)
    assert code == 0
    assert f"cecalc.{COMMAND_MODULES[argv[0]].split('.')[1]}" in modules
    assert not modules & PARSER_STACK


@pytest.mark.parametrize("argv", [["-h"], ["kappa", "-k", "4", "--gen", "7"]], ids=["help", "abbreviation"])
def test_help_and_fallback_launches_load_argparse(argv):
    code, modules = imported(argv)
    assert code in (0, 2)
    assert PARSER_STACK <= modules


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
