"""Command-line surface: every computation as a reproducible command.

Each command prints a deterministic text report, or with --json a single
JSON document {"command", "inputs", "output", "citations"} whose numbers
are exact "p/q" strings.  Identical inputs give byte-identical output.

Exit codes: 0 success, 2 invalid arguments, 3 mathematically infeasible or
unbounded program, 1 any other computation failure.

Each handler imports the layers it uses, so a command loads only those.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional, Sequence

# Stable identifiers for the formula each number comes from; the README's
# "formula register" section spells out what each one computes.
CITE = {
    "kappa": ["kappa-pushforward", "curve-class-expansion"],
    "curve_class": ["curve-class-expansion"],
    "strata": ["quartic-codim-formula", "quartic-cover-constraints"],
    "codim4": ["quartic-codim-formula"],
    "codim5": ["quintic-codim-formula"],
    "minimize": ["pl-vertex-minimum"],
    "bound": ["pl-vertex-minimum", "codim-bound-assembly"],
    "presentation": ["ce-generators", "free-truncation-bound"],
    "ce_rank": ["ce-resolution-ranks"],
}


def _result(command: str, inputs: dict, output: dict, citations: list[str]) -> dict:
    return {
        "command": command,
        "inputs": inputs,
        "output": output,
        "citations": citations,
    }


def _emit(result: dict, lines: list[str], as_json: bool) -> None:
    if as_json:
        import json

        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


def _point_text(point: Sequence[Fraction]) -> str:
    return "(" + ", ".join(str(v) for v in point) + ")"


# -- command handlers ----------------------------------------------------------


def _cmd_kappa(args: argparse.Namespace) -> int:
    from . import hurwitz

    genus = None if args.symbolic else args.genus
    if not args.symbolic and genus is None:
        raise ValueError("provide --genus G or --symbolic")
    truncation = args.truncation or (args.index + args.k + 2)
    poly = hurwitz.kappa_value(args.k, args.index, genus, truncation)
    inputs = {
        "k": args.k,
        "i": args.index,
        "genus": "symbolic" if genus is None else genus,
        "truncation": truncation,
    }
    text = poly.text()
    output = {"text": text, "terms": poly.json_terms()}
    _emit(
        _result("kappa", inputs, output, CITE["kappa"]),
        [f"kappa_{args.index} = {text}"],
        args.json,
    )
    return 0


def _cmd_curve_class(args: argparse.Namespace) -> int:
    from . import hurwitz

    genus = None if args.symbolic else args.genus
    if not args.symbolic and genus is None:
        raise ValueError("provide --genus G or --symbolic")
    truncation = args.truncation or (args.k + 2)
    # [C] has degree k-2 and the zeta relation needs truncation > k-1, so
    # truncation k holds it; a smaller one raises the setup's own error.
    setup = hurwitz.ce_setup(args.k, genus, min(truncation, args.k))
    c_class = hurwitz.curve_class(setup)
    inputs = {
        "k": args.k,
        "genus": "symbolic" if genus is None else genus,
        "truncation": truncation,
    }
    coeffs = {f"zeta^{j}": c.text() for j, c in enumerate(c_class.coeffs)}
    lines = [f"[C] for degree {args.k} covers:"]
    lines += [f"  {name}: {text}" for name, text in reversed(coeffs.items())]
    _emit(
        _result("curve-class", inputs, {"coefficients": coeffs}, CITE["curve_class"]),
        lines,
        args.json,
    )
    return 0


def _cmd_strata(args: argparse.Namespace) -> int:
    from . import splitting

    if args.k != 4:
        raise ValueError("strata enumeration is implemented for k = 4 only")
    records = splitting.enumerate_strata4(args.genus, args.filter)
    inputs = {"k": 4, "genus": args.genus, "filter": args.filter}
    rows = [
        {
            "e": r.e.text(),
            "f": r.f.text(),
            "codim": r.codim,
            "irreducible": r.flags.irreducible_ok,
            "non_factoring": r.flags.non_factoring_ok,
            "in_H_prime": r.flags.in_h_prime,
            "in_H_circ": r.flags.in_h_circ,
        }
        for r in records
    ]
    lines = [
        f"degree-4 strata at genus {args.genus} (filter: {args.filter})",
        "e | f | codim | irreducible | non_factoring | H_prime | H_circ",
    ]
    if not args.json:
        yes = {True: "yes", False: "no"}
        lines += [
            f"{row['e']} | {row['f']} | {row['codim']} | {yes[row['irreducible']]} | "
            f"{yes[row['non_factoring']]} | {yes[row['in_H_prime']]} | {yes[row['in_H_circ']]}"
            for row in rows
        ]
    _emit(_result("strata", inputs, {"strata": rows}, CITE["strata"]), lines, args.json)
    return 0


def _cmd_splitting_codim(args: argparse.Namespace) -> int:
    from . import splitting

    e = splitting.SplittingType.parse(args.e)
    f = splitting.SplittingType.parse(args.f)
    if args.k == 4:
        codim = splitting.codim_hurwitz4(e, f)
        cite = CITE["codim4"]
    elif args.k == 5:
        if args.genus is None:
            raise ValueError("k = 5 needs --genus")
        codim = splitting.codim_hurwitz5(e, f, args.genus)
        cite = CITE["codim5"]
    else:
        raise ValueError("splitting-codim is defined for k in (4, 5)")
    inputs = {"k": args.k, "e": e.text(), "f": f.text()}
    if args.k == 5:
        inputs["genus"] = args.genus
    _emit(
        _result("splitting-codim", inputs, {"codim": codim}, cite),
        [f"codim = {codim}"],
        args.json,
    )
    return 0


def _cmd_minimize(args: argparse.Namespace) -> int:
    from . import plmin

    if bool(args.preset) == bool(args.spec_file):
        raise ValueError("provide exactly one of --preset or --spec-file")
    if args.preset:
        prog = plmin.preset(args.preset)
        source = args.preset
    else:
        import json

        with open(args.spec_file) as fh:
            prog = plmin.program_from_json(json.load(fh))
        source = args.spec_file
    solution = plmin.solve(prog)
    inputs = {"source": source}
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
    pts = ", ".join(_point_text(pt) for pt in solution.argmin_points)
    _emit(
        _result("minimize", inputs, output, CITE["minimize"]),
        [f"min = {solution.min_value} at [{pts}]"],
        args.json,
    )
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    from . import plmin

    value = plmin.bound(args.k, args.genus, args.case)
    inputs = {"k": args.k, "genus": args.genus, "case": args.case}
    _emit(
        _result("bound", inputs, {"bound": str(value)}, CITE["bound"]),
        [f"bound = {value}"],
        args.json,
    )
    return 0


def _cmd_presentation(args: argparse.Namespace) -> int:
    from . import hurwitz

    generators, degree_bound = hurwitz.presentation(args.k, args.genus)
    inputs = {"k": args.k, "genus": args.genus}
    output = {
        "generators": [{"name": n, "degree": d} for n, d in generators],
        "free_below_degree": degree_bound,
    }
    gen_text = ", ".join(f"{n}:{d}" for n, d in generators)
    _emit(
        _result("presentation", inputs, output, CITE["presentation"]),
        [
            f"generators: {gen_text}",
            f"no relations below degree {degree_bound}",
        ],
        args.json,
    )
    return 0


def _cmd_ce_rank(args: argparse.Namespace) -> int:
    from . import hurwitz

    rank = hurwitz.ce_rank(args.index, args.k)
    inputs = {"k": args.k, "i": args.index}
    _emit(
        _result("ce-rank", inputs, {"rank": rank}, CITE["ce_rank"]),
        [f"rank(F_{args.index}) = {rank}"],
        args.json,
    )
    return 0


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cecalc",
        description="Exact class calculus for low-degree covers of P^1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    def add_truncation(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--truncation",
            type=int,
            default=None,
            help="ring truncation order: a checked lower bound, the output does not depend on it",
        )

    p = sub.add_parser("kappa", help="kappa class in the cover-class generators")
    p.add_argument("-k", type=int, choices=(3, 4, 5), required=True)
    p.add_argument("-i", "--index", type=int, required=True)
    p.add_argument("-g", "--genus", type=int)
    p.add_argument("--symbolic", action="store_true", help="keep the genus symbolic")
    add_common(p)
    add_truncation(p)
    p.set_defaults(handler=_cmd_kappa)

    p = sub.add_parser("curve-class", help="universal curve class in P(E^v)")
    p.add_argument("-k", type=int, choices=(3, 4, 5), required=True)
    p.add_argument("-g", "--genus", type=int)
    p.add_argument("--symbolic", action="store_true")
    add_common(p)
    add_truncation(p)
    p.set_defaults(handler=_cmd_curve_class)

    p = sub.add_parser("strata", help="degree-4 splitting strata table")
    p.add_argument("-k", type=int, default=4)
    p.add_argument("-g", "--genus", type=int, required=True)
    p.add_argument(
        "--filter", choices=("all", "irreducible", "non_factoring"), default="irreducible"
    )
    add_common(p)
    p.set_defaults(handler=_cmd_strata)

    p = sub.add_parser("splitting-codim", help="stratum codimension for a type pair")
    p.add_argument("-k", type=int, choices=(4, 5), required=True)
    p.add_argument("--e", required=True, help="comma-separated integers, e.g. 1,4,4")
    p.add_argument("--f", required=True, help="comma-separated integers, e.g. 2,7")
    p.add_argument("-g", "--genus", type=int)
    add_common(p)
    p.set_defaults(handler=_cmd_splitting_codim)

    p = sub.add_parser("minimize", help="solve a piecewise-linear program exactly")
    # Checked by plmin.preset, so that parsing does not load the solver.
    p.add_argument("--preset", help="name of a bundled program, e.g. lemma_b4")
    p.add_argument("--spec-file", help="JSON problem description")
    add_common(p)
    p.set_defaults(handler=_cmd_minimize)

    p = sub.add_parser("bound", help="codimension lower bound from the solver")
    p.add_argument("-k", type=int, choices=(4, 5), required=True)
    p.add_argument("-g", "--genus", type=int, required=True)
    p.add_argument("--case", choices=("B_circ", "H_circ"), required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("presentation", help="free generators and truncation bound")
    p.add_argument("-k", type=int, choices=(3, 4, 5), required=True)
    p.add_argument("-g", "--genus", type=int, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_presentation)

    p = sub.add_parser("ce-rank", help="rank of a resolution bundle")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-i", "--index", type=int, required=True)
    add_common(p)
    p.set_defaults(handler=_cmd_ce_rank)

    return parser


def _no_solution_errors() -> tuple:
    """plmin's infeasible and unbounded errors, once a command has loaded it."""
    plmin = sys.modules.get(f"{__package__}.plmin")
    return (plmin.InfeasibleError, plmin.UnboundedError) if plmin else ()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except _no_solution_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # computation failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
