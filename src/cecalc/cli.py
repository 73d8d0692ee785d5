"""Command-line surface: every computation as a reproducible command.

Each command prints a deterministic text report, or with --json a single
JSON document {"command", "inputs", "output", "citations"} whose numbers
are exact "p/q" strings.  Identical inputs give byte-identical output.

Exit codes: 0 success, 2 invalid arguments, 3 mathematically infeasible or
unbounded program, 1 any other computation failure.

This module is the core: ``main``, the parser and its command names, the
citations and the exit codes.  Each command's arguments and handler live
in the command module of its layer: ``cli_hurwitz`` (kappa, curve-class,
presentation, ce-rank), ``cli_splitting`` (strata, splitting-codim) and
``cli_plmin`` (minimize, bound).  A launch names its command first, so it
loads this core and that one module, and the handler imports the layers it
uses.  A handler maps the parsed arguments to its report ``(inputs,
output, lines)``: the JSON document's two dicts and the text report's
lines.  Only ``main`` prints, and it alone builds the JSON document.
"""

from __future__ import annotations

import argparse
import sys
from itertools import islice
from typing import Optional, Sequence

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

# Each command's module and help line, in the order the help lists them.
COMMANDS = {
    "kappa": ("cli_hurwitz", "kappa class in the cover-class generators"),
    "curve-class": ("cli_hurwitz", "universal curve class in P(E^v)"),
    "strata": ("cli_splitting", "degree-4 splitting strata table"),
    "splitting-codim": ("cli_splitting", "stratum codimension for a type pair"),
    "minimize": ("cli_plmin", "solve a piecewise-linear program exactly"),
    "bound": ("cli_plmin", "codimension lower bound from the solver"),
    "presentation": ("cli_hurwitz", "free generators and truncation bound"),
    "ce-rank": ("cli_hurwitz", "rank of a resolution bundle"),
}


def add_json(p: argparse.ArgumentParser) -> None:
    """The --json flag of every command."""
    p.add_argument("--json", action="store_true", help="emit a JSON document")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or of ``command`` alone.

    A launch names its command first, so ``main`` builds only that one
    subparser, from the one command module that holds it.  Its metavar
    lists every command, so that the usage line of an error stays the one
    the full parser prints.
    """
    parser = argparse.ArgumentParser(
        prog="cecalc",
        description="Exact class calculus for low-degree covers of P^1.",
    )
    names = {"metavar": "{" + ",".join(COMMANDS) + "}"} if command else {}
    sub = parser.add_subparsers(dest="command", required=True, **names)
    for name, (module, text) in COMMANDS.items():
        if command in (None, name):
            # __import__, unlike importlib, shows in ``python -X importtime``.
            commands = __import__(f"{__package__}.{module}", fromlist=["add_arguments"])
            commands.add_arguments(name, sub.add_parser(name, help=text))
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
