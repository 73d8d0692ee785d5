"""The class-calculus commands: kappa, curve-class, presentation and ce-rank."""

from __future__ import annotations

from types import SimpleNamespace
from typing import Optional

from . import MAX_DIGITS, check_digits, fits
from .cli import JSON, Report


def _genus(args: SimpleNamespace) -> Optional[int]:
    """The --genus value, or None (a symbolic genus) under --symbolic."""
    if args.symbolic:
        if args.genus is not None:
            raise ValueError("give --genus G or --symbolic, not both")
        return None
    if args.genus is None:
        raise ValueError("provide --genus G or --symbolic")
    return args.genus


def _cmd_kappa(args: SimpleNamespace) -> Report:
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


def _cmd_curve_class(args: SimpleNamespace) -> Report:
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


def _cmd_presentation(args: SimpleNamespace) -> Report:
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


def _cmd_ce_rank(args: SimpleNamespace) -> Report:
    from . import hurwitz

    rank = hurwitz.ce_rank(args.index, args.k)
    return {"k": args.k, "i": args.index}, {"rank": rank}, [f"rank(F_{args.index}) = {rank}"]


# Each command's handler and argument table, whose rows are the flags and
# keywords of argparse's add_argument; ``cli`` reads it (see ``cli.arguments``).
_DEGREE = ("-k",), {"type": int, "choices": (3, 4, 5), "required": True}
_INDEX = ("-i", "--index"), {"type": int, "required": True}
_GENUS = ("-g", "--genus"), {"type": int}
_TRUNCATION = ("--truncation",), {
    "type": int,
    "default": None,
    "help": "ring truncation order: a checked lower bound, the output does not depend on it",
}
ARGUMENTS = {
    "kappa": (_cmd_kappa, [
        _DEGREE,
        _INDEX,
        _GENUS,
        (("--symbolic",), {"action": "store_true", "help": "keep the genus symbolic"}),
        JSON,
        _TRUNCATION,
    ]),
    "curve-class": (_cmd_curve_class, [
        _DEGREE, _GENUS, (("--symbolic",), {"action": "store_true"}), JSON, _TRUNCATION,
    ]),
    "presentation": (_cmd_presentation, [
        _DEGREE, (("-g", "--genus"), {"type": int, "required": True}), JSON,
    ]),
    "ce-rank": (_cmd_ce_rank, [(("-k",), {"type": int, "required": True}), _INDEX, JSON]),
}
