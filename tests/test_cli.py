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

from cecalc import PLError, cli_hurwitz
from cecalc.cli import arguments, build_parser, main, read_plain
from cecalc.splitting import enumerate_strata4

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


FALLBACK_CASES = {
    "extra": ["kappa", "-k", "4", "-i", "1", "--genus", "3", "extra"],
    "invalid_choice": ["bound", "-k", "4", "-g", "10", "--case", "A"],
    "missing": ["strata", "-k", "4"],
    "none": [],
    "unknown": ["kapa", "-k", "4"],
    "help": ["-h"],
    "option_first": ["--json", "minimize"],
    # forms the plain reader leaves to argparse
    "abbreviation": ["kappa", "-k", "4", "--gen", "7"],
    "attached_value": ["kappa", "-k4", "-i", "x", "--genus", "7"],
    "repeated_flag": ["kappa", "-k", "4", "-k", "5", "-i", "1", "--genus", "7", "extra"],
    "switch_with_value": ["kappa", "-k", "4", "-i", "1", "--genus", "7", "--json=1"],
    "dash_value": ["splitting-codim", "-k", "4", "--e", "-1,4,4", "--f", "2,7"],
    **{f"{argv[0]}_help": [argv[0], "-h"] for argv in ENVELOPE_CASES},
}


@pytest.mark.parametrize("argv", FALLBACK_CASES.values(), ids=FALLBACK_CASES)
def test_main_fallback_prints_what_the_parser_prints(capsys, argv):
    # the plain reader leaves each of these to the parser, and main exits
    # with its code and its help, usage or error text, nothing added
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


def test_strata_table_of_many_blocks_is_the_joined_lines(capsys):
    # main writes a text report in blocks of 2^14 lines; this table needs two
    genus, filter = 75, "all"
    code, text = run_cli(capsys, ["strata", "-k", "4", "-g", str(genus), "--filter", filter])
    assert code == 0
    yes = {True: "yes", False: "no"}
    lines = [
        f"degree-4 strata at genus {genus} (filter: {filter})",
        "e | f | codim | irreducible | non_factoring | H_prime | H_circ",
    ] + [
        f"{r.e.text()} | {r.f.text()} | {r.codim} | {yes[r.flags.irreducible_ok]} | "
        f"{yes[r.flags.non_factoring_ok]} | {yes[r.flags.in_h_prime]} | {yes[r.flags.in_h_circ]}"
        for r in enumerate_strata4(genus, filter)
    ]
    assert len(lines) > 1 << 14
    assert text == "\n".join(lines) + "\n"


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


@pytest.mark.parametrize(
    "error,code,prefix",
    [(PLError, 3, "error"), (ValueError, 2, "error"), (ArithmeticError, 1, "internal error")],
    ids=["PLError", "ValueError", "ArithmeticError"],
)
def test_a_handler_error_exits_with_its_code_without_loading_the_solver(monkeypatch, capsys, error, code, prefix):
    def fail(args):
        raise error("no answer")

    monkeypatch.setitem(cli_hurwitz.ARGUMENTS, "kappa", (fail, cli_hurwitz.ARGUMENTS["kappa"][1]))
    monkeypatch.delitem(sys.modules, "cecalc.plmin", raising=False)
    assert main(["kappa", "-k", "4", "-i", "3", "--genus", "7"]) == code
    assert capsys.readouterr() == ("", f"{prefix}: no answer\n")
    # the root PLError is caught without the solver's module
    assert "cecalc.plmin" not in sys.modules


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


@pytest.mark.parametrize(
    "argv,text",
    [
        (
            ["kappa", "-k", "3", "-i", "100000000000", "-g", "5"],
            "i = 100000000000 at k = 3 is past the limit of 30",
        ),
        (["kappa", "-k", "5", "-i", "18", "--symbolic"], "i = 18 at k = 5 is past the limit of 16"),
        (["kappa", "-k", "4", "-i", "21", "-g", "9", "--json"], "i = 21 at k = 4 is past the limit of 20"),
    ],
    ids=["k3-huge", "k5-symbolic", "k4-json"],
)
def test_kappa_refuses_an_index_past_its_limit_fast(argv, text):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cecalc", *argv], capture_output=True, text=True, env=CHECKOUT_ENV, timeout=5
    )
    assert time.perf_counter() - start < 1
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: kappa index {text}\n")


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
    # the fallback builds the parser of every command, from every command module
    assert set(COMMAND_MODULES.values()) <= modules


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


# -- the launch: a fresh process ends at its answer ------------------------------

# The launch before ``cli.run``: return from ``main`` through normal shutdown.
_SHUTDOWN_LAUNCH = "import sys; from cecalc.cli import main; sys.exit(main())"
STRATA_JSON = ["strata", "-k", "4", "-g", "60", "--filter", "all", "--json"]


def launch_env(unbuffered):
    env = {k: v for k, v in CHECKOUT_ENV.items() if k != "PYTHONUNBUFFERED"}
    return {**env, "PYTHONUNBUFFERED": "1"} if unbuffered else env


def cecalc(*argv, unbuffered=False):
    return subprocess.run(
        [sys.executable, "-m", "cecalc", *argv], capture_output=True, text=True, env=launch_env(unbuffered)
    )


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_launch_through_a_pipe_prints_what_main_prints(capsys, unbuffered):
    code, out = run_cli(capsys, STRATA_JSON)
    assert code == 0
    proc = cecalc(*STRATA_JSON, unbuffered=unbuffered)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


def test_launch_exit_codes_arrive_unchanged(tmp_path, capsys):
    proc = cecalc("presentation", "-k", "4", "-g", "6")
    golden = (GOLDEN / "presentation_k4_g6.txt").read_text()
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, golden, "")
    bad_k = ["kappa", "-k", "6", "-i", "0", "--genus", "5"]  # argparse's SystemExit
    proc = cecalc(*bad_k)
    assert (proc.returncode, proc.stdout) == (2, "")
    with pytest.raises(SystemExit) as exc:
        main(bad_k)
    assert exc.value.code == 2
    assert proc.stderr == capsys.readouterr().err and "invalid choice" in proc.stderr
    proc = cecalc("minimize", "--preset", "no_such_program")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert main(["minimize", "--preset", "no_such_program"]) == 2
    assert proc.stderr == capsys.readouterr().err
    path = tmp_path / "infeasible.json"
    path.write_text(json.dumps({"vars": 1, "le": [["1", "0"], ["-1", "-1"]], "obj": {"lin": ["1"]}}))
    proc = cecalc("minimize", "--spec-file", str(path))
    assert (proc.returncode, proc.stdout) == (3, "")
    assert main(["minimize", "--spec-file", str(path)]) == 3
    assert proc.stderr == capsys.readouterr().err


def failing_stdout_launch(launcher, argv, unbuffered, sink):
    """Exit code and stderr of a launch whose stdout refuses every write:
    a pipe with no reader, or /dev/full."""
    if sink == "closed-pipe":
        read, write = os.pipe()
        os.close(read)
    else:
        write = os.open("/dev/full", os.O_WRONLY)
    try:
        proc = subprocess.run(
            [sys.executable, *launcher, *argv], stdout=write, stderr=subprocess.PIPE, text=True,
            env=launch_env(unbuffered),
        )
    finally:
        os.close(write)
    return proc.returncode, proc.stderr


@pytest.mark.parametrize(
    "sink,error",
    [("closed-pipe", "[Errno 32] Broken pipe"), ("dev-full", "[Errno 28] No space")],
    ids=["closed-pipe", "dev-full"],
)
@pytest.mark.parametrize(
    "argv,unbuffered,code",
    [
        (STRATA_JSON, True, 2),
        (STRATA_JSON, False, 2),  # the document overflows the buffer inside main
        (["ce-rank", "-k", "5", "-i", "2"], True, 2),
        (["ce-rank", "-k", "5", "-i", "2"], False, 120),  # shutdown's flush fails
    ],
    ids=["strata-unbuffered", "strata-buffered", "ce-rank-unbuffered", "ce-rank-buffered"],
)
def test_failing_stdout_exits_as_through_normal_shutdown(argv, unbuffered, code, sink, error):
    launched = failing_stdout_launch(["-m", "cecalc"], argv, unbuffered, sink)
    assert launched == failing_stdout_launch(["-c", _SHUTDOWN_LAUNCH], argv, unbuffered, sink)
    assert launched[0] == code
    if code == 2:
        assert launched[1].startswith(f"error: {error}")
    else:
        assert launched[1].startswith("Exception ignored") and error in launched[1]


def test_profiled_launch_prints_its_profile_after_the_answer():
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "cecalc", "ce-rank", "-k", "5", "-i", "2"],
        capture_output=True, text=True, env=CHECKOUT_ENV,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rank(F_2) = 5\n")
    assert re.search(r"^ +\d+ function calls", proc.stdout, re.MULTILINE)


# A module global whose finalizer interpreter teardown runs.  ``run``'s launch
# ends before teardown, unless a trace hook watches it.
_RUNPY_LAUNCH = """
import atexit, os, runpy, sys
atexit.register(print, "atexit handler ran")
class Torn:
    def __del__(self, write=os.write):  # teardown may clear os first
        write(2, b"torn down")
torn = Torn()
if sys.argv[1] == "traced":
    sys.settrace(lambda *args: None)
sys.argv = ["cecalc", "ce-rank", "-k", "5", "-i", "2"]
runpy.run_module("cecalc", run_name="__main__")
"""


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_launch_runs_the_atexit_handlers_and_skips_teardown(unbuffered):
    proc = subprocess.run(
        [sys.executable, "-c", _RUNPY_LAUNCH, "plain"], capture_output=True, text=True,
        env=launch_env(unbuffered),
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "rank(F_2) = 5\natexit handler ran\n", "")


def test_traced_launch_exits_through_normal_shutdown():
    proc = subprocess.run(
        [sys.executable, "-c", _RUNPY_LAUNCH, "traced"], capture_output=True, text=True, env=CHECKOUT_ENV
    )
    want = (0, "rank(F_2) = 5\natexit handler ran\n", "torn down")
    assert (proc.returncode, proc.stdout, proc.stderr) == want


def test_console_script_runs_the_launch_of_python_m_cecalc():
    # Read as text: Python 3.10 has no tomllib.
    scripts = (ROOT / "pyproject.toml").read_text().split("[project.scripts]\n", 1)[1]
    target = re.match(r'cecalc = "cecalc\.cli:(\w+)"\n', scripts).group(1)
    source = ROOT / "src" / "cecalc"
    assert (source / "__main__.py").read_text() == (
        f'from .cli import {target}\n\nif __name__ == "__main__":\n    {target}()\n'
    )
    assert (source / "cli.py").read_text().endswith(f'\n\nif __name__ == "__main__":\n    {target}()\n')
