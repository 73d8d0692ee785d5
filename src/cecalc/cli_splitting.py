"""The splitting-type commands: strata and splitting-codim."""

from __future__ import annotations

from types import SimpleNamespace

from . import check_digits
from .cli import JSON, Report


def _cmd_strata(args: SimpleNamespace) -> Report:
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


def _cmd_splitting_codim(args: SimpleNamespace) -> Report:
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


# Each command's handler and argument table, whose rows are the flags and
# keywords of argparse's add_argument; ``cli`` reads it (see ``cli.arguments``).
ARGUMENTS = {
    "strata": (_cmd_strata, [
        (("-k",), {"type": int, "default": 4}),
        (("-g", "--genus"), {"type": int, "required": True}),
        (
            ("--filter",),
            {"choices": ("all", "irreducible", "non_factoring"), "default": "irreducible"},
        ),
        JSON,
    ]),
    "splitting-codim": (_cmd_splitting_codim, [
        (("-k",), {"type": int, "choices": (4, 5), "required": True}),
        (("--e",), {"required": True, "help": "comma-separated integers, e.g. 1,4,4"}),
        (("--f",), {"required": True, "help": "comma-separated integers, e.g. 2,7"}),
        (("-g", "--genus"), {"type": int}),
        JSON,
    ]),
}
