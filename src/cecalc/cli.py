"""Command-line surface: every computation as a reproducible command.

Each command prints a deterministic text report, or with --json a single
JSON document {"command", "inputs", "output", "citations"} whose numbers
are exact "p/q" strings.  Identical inputs give byte-identical output.

Exit codes: 0 success, 2 invalid arguments, 3 mathematically infeasible or
unbounded program (the package root's ``PLError``, which ``main`` catches
without loading the solver), 1 any other computation failure.

This module is the core: ``main``, the two readers of a command line, the
command names, the citations and the exit codes.  Each command's handler
and the table of its arguments live in the command module of its layer:
``cli_hurwitz`` (kappa, curve-class, presentation, ce-rank),
``cli_splitting`` (strata, splitting-codim) and ``cli_plmin`` (minimize,
bound).  A plain launch names its command first, so it loads this core
and that one module, and the handler imports the layers it uses.

The table is the only declaration of the arguments, and both readers read
it.  ``read_plain`` reads a plain command line (exact flags, each given at
most once, every value valid) without argparse; anything else, and every
help, usage and error text, goes to the argparse parser that
``build_parser`` builds from the tables of all eight commands.  So a plain
launch never loads argparse, and only a fallback launch loads all three
command modules (about 4 ms more than one of them).  A handler maps the
parsed arguments to its report ``(inputs, output, lines)``: the JSON
document's two dicts and the text report's lines, any iterable of them.
Only ``main`` prints, and it alone builds the JSON document.  It writes
either report in blocks, so that a large one is never held as one string.
"""

from __future__ import annotations

import os
import sys
from itertools import islice
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from . import PLError

if TYPE_CHECKING:
    import argparse

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

Report = tuple[dict, dict, Iterable[str]]

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


# The --json flag of every command, as a row of an argument table.
JSON = (("--json",), {"action": "store_true", "help": "emit a JSON document"})


def arguments(command: str) -> tuple:
    """``(handler, rows)`` of ``command`` from its command module's table.

    Each row is ``(flags, keywords)``: the flags and keywords of argparse's
    ``add_argument``, in the order the help lists them.  A keyword is one of
    type (int), choices, required, default, action (store_true) and help.
    """
    # __import__, unlike importlib, shows in ``python -X importtime``.
    module = __import__(f"{__package__}.{COMMANDS[command][0]}", fromlist=["ARGUMENTS"])
    return module.ARGUMENTS[command]


def _dest(flags: Sequence[str]) -> str:
    """argparse's dest of an option: its first long flag, else its first
    flag, without the leading dashes and with "-" read as "_"."""
    flag = next((f for f in flags if f.startswith("--")), flags[0])
    return flag.lstrip("-").replace("-", "_")


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built from the three command modules' tables."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="cecalc",
        description="Exact class calculus for low-degree covers of P^1.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in COMMANDS.items():
        handler, rows = arguments(name)
        p = sub.add_parser(name, help=text)
        for flags, keywords in rows:
            p.add_argument(*flags, **keywords)
        p.set_defaults(handler=handler)
    return parser


def read_plain(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The arguments of a plain command line, as argparse reads them, or None.

    A plain command line is a command name, then flags of its table, each
    spelt in full: a flag and its value as two words, the value not starting
    with "-"; "--long=value", the value kept as it is; or a store_true flag
    alone.  Each option is given at most once, by any of its flags, every
    value converts to its type and lies in its choices, and every required
    option is given.  The
    namespace holds ``command``, ``handler`` and every dest, defaults filled
    in.  Anything else (help, an abbreviation, "-k4", a repeated or unknown
    flag, a value starting with "-", a bad value, a missing argument) gives
    None, and argparse reads it, with its own texts.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    handler, rows = arguments(argv[0])
    by_flag = {flag: row for row in rows for flag in row[0]}
    given = {}  # by the flags of the row
    words = iter(argv[1:])
    for word in words:
        flag, inline, value = word.partition("=") if word.startswith("--") else (word, "", "")
        if flag not in by_flag or by_flag[flag][0] in given:
            return None
        flags, keywords = by_flag[flag]
        if "action" in keywords:  # store_true
            if inline:
                return None
            given[flags] = True
            continue
        if not inline:
            value = next(words, "-")  # a missing value reads as "-", refused
            if value.startswith("-"):
                return None
        try:
            value = keywords.get("type", str)(value)
        except ValueError:
            return None
        if value not in keywords.get("choices", [value]):
            return None
        given[flags] = value
    dests = {}
    for flags, keywords in rows:
        if flags not in given and keywords.get("required"):
            return None
        default = keywords.get("default", False if "action" in keywords else None)
        dests[_dest(flags)] = given.get(flags, default)
    return SimpleNamespace(command=argv[0], handler=handler, **dests)


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = read_plain(argv)
    if args is None:
        args = SimpleNamespace(**vars(build_parser().parse_args(argv)))
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
            # The same for the lines, each block ending in a newline.
            lines = iter(lines)
            while block := list(islice(lines, 1 << 14)):
                block.append("")
                sys.stdout.write("\n".join(block))
        return 0
    except (PLError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, PLError) else 2
    except Exception as exc:  # computation failure
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Run ``main`` as a program and end the process at its answer.

    The launch of ``python -m cecalc``, ``python -m cecalc.cli`` and the
    ``cecalc`` script.  It does what interpreter shutdown does that a
    caller can see: it runs the atexit handlers, as shutdown does first,
    and flushes stdout and stderr.  Then it ends the process with
    ``os._exit``, which skips the rest of shutdown: clearing the modules,
    the last garbage collection and freeing every object.  Under a trace
    or profile hook (cProfile, trace, pdb, coverage), or if a flush fails,
    it raises ``SystemExit`` instead, so the process exits through normal
    shutdown, which writes the hook's report or the flush error as it
    always has.  A ``SystemExit`` from argparse takes the normal path too.
    """
    code = main()
    # From Python 3.12 on, cProfile hooks in through sys.monitoring (tools 0-5).
    monitoring = getattr(sys, "monitoring", None)
    if sys.gettrace() or sys.getprofile() or (monitoring and any(map(monitoring.get_tool, range(6)))):
        raise SystemExit(code)
    import atexit

    atexit._run_exitfuncs()  # shutdown's own call; it clears the handlers
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (AttributeError, OSError, ValueError):  # no stream, a closed pipe, a full disk
        raise SystemExit(code) from None  # shutdown flushes again and reports it
    os._exit(code)


if __name__ == "__main__":
    run()
