"""The solver commands: minimize and bound."""

from __future__ import annotations

from types import SimpleNamespace

from . import MAX_DIGITS, check_digits
from .cli import JSON, Report


def _cmd_minimize(args: SimpleNamespace) -> Report:
    from . import plmin

    if bool(args.preset) == bool(args.spec_file):
        raise ValueError("provide exactly one of --preset or --spec-file")
    if args.preset:
        prog = plmin.preset(args.preset)
    else:
        import json

        def literal(kind: str, make: type):
            def read(text: str):
                if sum(map(str.isdigit, text.lower().partition("e")[0])) > MAX_DIGITS:
                    raise ValueError(f"spec: {kind} literal has more than {MAX_DIGITS} digits")
                return make(text)

            return read

        # A number with a fraction or exponent keeps its literal text, which
        # plmin reads exactly; named float, it reads as before in a type error.
        decimal = type("float", (str,), {"__repr__": str.__str__})
        with open(args.spec_file) as fh:
            prog = plmin.program_from_json(json.load(
                fh, parse_int=literal("an integer", int), parse_float=literal("a number", decimal)
            ))
    solution = plmin.solve(prog)
    check_digits("the minimum", solution.min_value)
    check_digits("an argmin coordinate", *(v for pt in solution.argmin_points for v in pt))
    output = {
        "min": str(solution.min_value),
        "argmin": [[str(v) for v in pt] for pt in solution.argmin_points],
        "candidates_examined": solution.candidates_examined,
        "planes": solution.planes,
        "subsets": solution.subsets,
        "singular": solution.singular,
        "infeasible": solution.infeasible,
        "feasible": solution.feasible,
    }
    pts = ", ".join("(" + ", ".join(point) + ")" for point in output["argmin"])
    return {"source": args.preset or args.spec_file}, output, [f"min = {output['min']} at [{pts}]"]


def _cmd_bound(args: SimpleNamespace) -> Report:
    from . import plmin

    value = plmin.bound(args.k, args.genus, args.case)
    inputs = {"k": args.k, "genus": args.genus, "case": args.case}
    return inputs, {"bound": str(value)}, [f"bound = {value}"]


# Each command's handler and argument table, whose rows are the flags and
# keywords of argparse's add_argument; ``cli`` reads it (see ``cli.arguments``).
ARGUMENTS = {
    "minimize": (_cmd_minimize, [
        # Checked by plmin.preset, so that parsing does not load the solver.
        (("--preset",), {"help": "name of a bundled program, e.g. lemma_b4"}),
        (("--spec-file",), {"help": "JSON problem description"}),
        JSON,
    ]),
    "bound": (_cmd_bound, [
        (("-k",), {"type": int, "choices": (4, 5), "required": True}),
        (("-g", "--genus"), {"type": int, "required": True}),
        (("--case",), {"choices": ("B_circ", "H_circ"), "required": True}),
        JSON,
    ]),
}
