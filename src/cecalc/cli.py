"""Command-line surface: every computation as a reproducible command.

Each command prints a deterministic text report, or with --json a single
JSON document {"command", "inputs", "output", "citations"} whose numbers
are exact "p/q" strings.  Identical inputs give byte-identical output.

Exit codes: 0 success, 2 invalid arguments, 3 mathematically infeasible or
unbounded program, 1 any other computation failure.

Each handler maps the parsed arguments to its report ``(inputs, output,
lines)``: the JSON document's two dicts and the text report's lines.  Only
``main`` prints, and it alone builds the JSON document.  Each handler
imports the layers it uses, so a command loads only those.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from typing import Optional, Sequence

from . import MAX_DIGITS, check_digits, fits

# Stable identifiers for the formula each number comes from, by command (and k
# for splitting-codim); the README's "formula register" spells each one out.
CITE = {
    "kappa": ["kappa-pushforward", "curve-class-expansion"],
    "curve-class": ["curve-class-expansion"],
    "strata": ["quartic-codim-formula", "quartic-cover-constraints"],
    ("splitting-codim", 4): ["quartic-codim-formula"],
    ("splitting-codim", 5): ["quintic-codim-formula"],
    "minimize": ["pl-vertex-minimum"],
    "bound": ["pl-vertex-minimum", "codim-bound-assembly"],
    "presentation": ["ce-generators", "free-truncation-bound"],
    "ce-rank": ["ce-resolution-ranks"],
}

Report = tuple[dict, dict, list[str]]


def _genus(args: argparse.Namespace) -> Optional[int]:
    """The --genus value, or None (a symbolic genus) under --symbolic."""
    if args.symbolic:
        if args.genus is not None:
            raise ValueError("give --genus G or --symbolic, not both")
        return None
    if args.genus is None:
        raise ValueError("provide --genus G or --symbolic")
    return args.genus


# -- command handlers ----------------------------------------------------------


def _cmd_kappa(args: argparse.Namespace) -> Report:
    from . import hurwitz

    genus = _genus(args)
    poly = hurwitz.kappa_value(args.k, args.index, genus, args.truncation)
    if not fits(*poly.terms.values()):
        raise ValueError(f"kappa_{args.index} has a coefficient of more than {MAX_DIGITS} digits")
    inputs = {
        "k": args.k,
        "i": args.index,
        "genus": "symbolic" if genus is None else genus,
        "truncation": poly.ring.truncation,
    }
    text = poly.text()
    output = {"text": text, "terms": poly.json_terms()}
    return inputs, output, [f"kappa_{args.index} = {text}"]


def _cmd_curve_class(args: argparse.Namespace) -> Report:
    from . import hurwitz
    from .bundles import fiber_text

    genus = _genus(args)
    truncation = args.k + 2 if args.truncation is None else args.truncation
    c_class = hurwitz.curve_class_value(args.k, genus, truncation)
    if not fits(*(c for poly in c_class.coeffs for c in poly.terms.values())):
        raise ValueError(f"[C] has a coefficient of more than {MAX_DIGITS} digits")
    inputs = {
        "k": args.k,
        "genus": "symbolic" if genus is None else genus,
        "truncation": truncation,
    }
    coeffs = {f"zeta^{j}": fiber_text(c) for j, c in enumerate(c_class.coeffs)}
    lines = [f"[C] for degree {args.k} covers:"]
    lines += [f"  {name}: {text}" for name, text in reversed(coeffs.items())]
    return inputs, {"coefficients": coeffs}, lines


def _cmd_strata(args: argparse.Namespace) -> Report:
    from . import splitting

    if args.k != 4:
        raise ValueError("strata enumeration is implemented for k = 4 only")
    records = splitting.enumerate_strata4(args.genus, args.filter)
    inputs = {"k": 4, "genus": args.genus, "filter": args.filter}
    # A table repeats each type in many rows, so render each type once.
    text = {t: t.text() for t in {r.e for r in records} | {r.f for r in records}}
    lines = [
        f"degree-4 strata at genus {args.genus} (filter: {args.filter})",
        "e | f | codim | irreducible | non_factoring | H_prime | H_circ",
    ]
    if args.json:
        rows = [
            {
                "e": text[r.e],
                "f": text[r.f],
                "codim": r.codim,
                "irreducible": r.flags.irreducible_ok,
                "non_factoring": r.flags.non_factoring_ok,
                "in_H_prime": r.flags.in_h_prime,
                "in_H_circ": r.flags.in_h_circ,
            }
            for r in records
        ]
        return inputs, {"strata": rows}, lines
    # main prints only the lines of a text report, so it gets no rows.
    yes = {True: "yes", False: "no"}
    lines += [
        f"{text[r.e]} | {text[r.f]} | {r.codim} | {yes[r.flags.irreducible_ok]} | "
        f"{yes[r.flags.non_factoring_ok]} | {yes[r.flags.in_h_prime]} | {yes[r.flags.in_h_circ]}"
        for r in records
    ]
    return inputs, {}, lines


def _cmd_splitting_codim(args: argparse.Namespace) -> Report:
    from . import splitting

    def parse(flag: str, text: str) -> splitting.SplittingType:
        try:
            return splitting.SplittingType.parse(text)
        except ValueError:
            raise ValueError(f"{flag}: {text!r} is not a comma-separated list of integers") from None

    e, f = parse("--e", args.e), parse("--f", args.f)
    inputs = {"k": args.k, "e": e.text(), "f": f.text()}
    if args.k == 4:
        if args.genus is not None:
            raise ValueError("k = 4 takes no --genus")
        codim = splitting.codim_hurwitz4(e, f)
    else:
        if args.genus is None:
            raise ValueError("k = 5 needs --genus")
        codim = splitting.codim_hurwitz5(e, f, args.genus)
        inputs["genus"] = args.genus
    check_digits("the codimension", codim)
    return inputs, {"codim": codim}, [f"codim = {codim}"]


def _cmd_minimize(args: argparse.Namespace) -> Report:
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


def _cmd_bound(args: argparse.Namespace) -> Report:
    from . import plmin

    value = plmin.bound(args.k, args.genus, args.case)
    inputs = {"k": args.k, "genus": args.genus, "case": args.case}
    return inputs, {"bound": str(value)}, [f"bound = {value}"]


def _cmd_presentation(args: argparse.Namespace) -> Report:
    from . import hurwitz

    generators, degree_bound = hurwitz.presentation(args.k, args.genus)
    check_digits(f"the degree bound g + {args.k}", degree_bound)
    inputs = {"k": args.k, "genus": args.genus}
    output = {
        "generators": [{"name": n, "degree": d} for n, d in generators],
        "free_below_degree": degree_bound,
    }
    gen_text = ", ".join(f"{n}:{d}" for n, d in generators)
    lines = [f"generators: {gen_text}", f"no relations below degree {degree_bound}"]
    return inputs, output, lines


def _cmd_ce_rank(args: argparse.Namespace) -> Report:
    from . import hurwitz

    rank = hurwitz.ce_rank(args.index, args.k)
    return {"k": args.k, "i": args.index}, {"rank": rank}, [f"rank(F_{args.index}) = {rank}"]


# -- parser ----------------------------------------------------------------


COMMANDS = (
    "kappa", "curve-class", "strata", "splitting-codim",
    "minimize", "bound", "presentation", "ce-rank",
)


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.

    A launch names its command first, so ``main`` builds only that one
    subparser.  Its metavar lists every command, so that the usage line
    of an error stays the one the full parser prints.
    """
    parser = argparse.ArgumentParser(
        prog="cecalc",
        description="Exact class calculus for low-degree covers of P^1.",
    )
    names = {"metavar": "{" + ",".join(COMMANDS) + "}"} if command else {}
    sub = parser.add_subparsers(dest="command", required=True, **names)

    def add(name: str, text: str) -> Optional[argparse.ArgumentParser]:
        return sub.add_parser(name, help=text) if command in (None, name) else None

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="emit a JSON document")

    def add_truncation(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--truncation",
            type=int,
            default=None,
            help="ring truncation order: a checked lower bound, the output does not depend on it",
        )

    if p := add("kappa", "kappa class in the cover-class generators"):
        p.add_argument("-k", type=int, choices=(3, 4, 5), required=True)
        p.add_argument("-i", "--index", type=int, required=True)
        p.add_argument("-g", "--genus", type=int)
        p.add_argument("--symbolic", action="store_true", help="keep the genus symbolic")
        add_common(p)
        add_truncation(p)
        p.set_defaults(handler=_cmd_kappa)

    if p := add("curve-class", "universal curve class in P(E^v)"):
        p.add_argument("-k", type=int, choices=(3, 4, 5), required=True)
        p.add_argument("-g", "--genus", type=int)
        p.add_argument("--symbolic", action="store_true")
        add_common(p)
        add_truncation(p)
        p.set_defaults(handler=_cmd_curve_class)

    if p := add("strata", "degree-4 splitting strata table"):
        p.add_argument("-k", type=int, default=4)
        p.add_argument("-g", "--genus", type=int, required=True)
        p.add_argument(
            "--filter", choices=("all", "irreducible", "non_factoring"), default="irreducible"
        )
        add_common(p)
        p.set_defaults(handler=_cmd_strata)

    if p := add("splitting-codim", "stratum codimension for a type pair"):
        p.add_argument("-k", type=int, choices=(4, 5), required=True)
        p.add_argument("--e", required=True, help="comma-separated integers, e.g. 1,4,4")
        p.add_argument("--f", required=True, help="comma-separated integers, e.g. 2,7")
        p.add_argument("-g", "--genus", type=int)
        add_common(p)
        p.set_defaults(handler=_cmd_splitting_codim)

    if p := add("minimize", "solve a piecewise-linear program exactly"):
        # Checked by plmin.preset, so that parsing does not load the solver.
        p.add_argument("--preset", help="name of a bundled program, e.g. lemma_b4")
        p.add_argument("--spec-file", help="JSON problem description")
        add_common(p)
        p.set_defaults(handler=_cmd_minimize)

    if p := add("bound", "codimension lower bound from the solver"):
        p.add_argument("-k", type=int, choices=(4, 5), required=True)
        p.add_argument("-g", "--genus", type=int, required=True)
        p.add_argument("--case", choices=("B_circ", "H_circ"), required=True)
        add_common(p)
        p.set_defaults(handler=_cmd_bound)

    if p := add("presentation", "free generators and truncation bound"):
        p.add_argument("-k", type=int, choices=(3, 4, 5), required=True)
        p.add_argument("-g", "--genus", type=int, required=True)
        add_common(p)
        p.set_defaults(handler=_cmd_presentation)

    if p := add("ce-rank", "rank of a resolution bundle"):
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
    argv = sys.argv[1:] if argv is None else list(argv)
    # Anything but a command first (no argument, -h, an unknown word) needs them all.
    args = build_parser(argv[0] if argv and argv[0] in COMMANDS else None).parse_args(argv)
    try:
        inputs, output, lines = args.handler(args)
        if args.json:
            import json

            doc = {
                "command": args.command,
                "inputs": inputs,
                "output": output,
                "citations": CITE.get(args.command) or CITE[args.command, args.k],
            }
            # Encode piece by piece, written in blocks, so that a large
            # document is never held as one string.
            chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(doc)
            for block in iter(lambda: "".join(islice(chunks, 1 << 16)), ""):
                sys.stdout.write(block)
            sys.stdout.write("\n")
        else:
            print("\n".join(lines))
        return 0
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
