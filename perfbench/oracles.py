"""Independent output checks for the benchmark.

Nothing here imports ``cecalc``: every expected value is either known in
closed form, recounted from first principles, or recomputed with plain
``fractions.Fraction`` code, so a defect in the library cannot hide behind
the same defect in its checker.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional, Sequence


# -- piecewise-linear programs in the spec-file format ---------------------------


def spec_objective(spec: dict, x: Sequence[Fraction]) -> Fraction:
    """Objective of a ``--spec-file`` program at ``x``, recomputed exactly."""
    obj = spec["obj"]
    value = Fraction(obj.get("const", "0")) + sum(
        Fraction(c) * xi for c, xi in zip(obj["lin"], x)
    )
    for h in obj.get("hinges", []):
        excess = sum(Fraction(c) * xi for c, xi in zip(h["coeffs"], x)) - Fraction(h["rhs"])
        if excess > 0:
            value += int(h["sign"]) * excess
    return value


def spec_feasible(spec: dict, x: Sequence[Fraction]) -> bool:
    n = spec["vars"]

    def lhs(row):
        return sum(Fraction(c) * xi for c, xi in zip(row[:n], x))

    return all(lhs(r) == Fraction(r[n]) for r in spec.get("eq", [])) and all(
        lhs(r) <= Fraction(r[n]) for r in spec.get("le", [])
    )


_MIN_LINE = re.compile(r"^min = (\S+) at \[(.*)\]$")


def parse_minimize(stdout: str) -> Optional[tuple[Fraction, list[tuple[Fraction, ...]]]]:
    """Parse ``min = v at [(..), (..)]``; None when the text is malformed."""
    lines = stdout.split("\n")
    if len(lines) != 2 or lines[1] != "":
        return None
    m = _MIN_LINE.match(lines[0])
    if not m or not m.group(2).startswith("(") or not m.group(2).endswith(")"):
        return None
    try:
        points = [
            tuple(Fraction(v) for v in chunk.split(", "))
            for chunk in m.group(2)[1:-1].split("), (")
        ]
        return Fraction(m.group(1)), points
    except (ValueError, ZeroDivisionError):
        return None


def check_minimize(spec: dict, stdout: str, want_min: Fraction, must_contain=()) -> bool:
    """The reported minimum is the recorded one, and every reported argmin is
    feasible and attains it under this module's own evaluation."""
    parsed = parse_minimize(stdout)
    if parsed is None:
        return False
    value, points = parsed
    if value != want_min or not points:
        return False
    if any(tuple(p) not in points for p in must_contain):
        return False
    return all(
        len(p) == spec["vars"] and spec_feasible(spec, p) and spec_objective(spec, p) == value
        for p in points
    )


# -- splitting types: recounts straight from the h^1 definition ------------------


def _h1_line(d: int) -> int:
    return max(0, -d - 1)


def recount_codim4(e: Sequence[int], f: Sequence[int]) -> int:
    """h1(End e) + h1(End f) - h1(Hom(f, Sym^2 e)), summand by summand."""
    ends = sum(_h1_line(v - u) for seq in (e, f) for u in seq for v in seq)
    mixed = sum(
        _h1_line(e[i] + e[j] - fl) for i in range(3) for j in range(i, 3) for fl in f
    )
    return ends - mixed


def recount_codim5(e: Sequence[int], f: Sequence[int], g: int) -> int:
    ends = sum(_h1_line(v - u) for seq in (e, f) for u in seq for v in seq)
    mixed = sum(
        _h1_line(ei + f[j] + f[k] - (g + 4))
        for ei in e
        for j in range(5)
        for k in range(j + 1, 5)
    )
    return ends - mixed


def quartic_flags(e: Sequence[int], f: Sequence[int]) -> tuple[bool, bool, bool, bool]:
    """(irreducible, non_factoring, H_prime, H_circ) for sorted e, f."""
    u = [e[i] + e[j] - fl for i in range(3) for j in range(i, 3) for fl in f]
    irreducible = (
        sum(e) == sum(f)
        and e[0] >= 1
        and 2 * e[0] >= f[0]
        and 2 * e[1] >= f[1]
        and not (e[0] + e[2] < f[1] and 2 * e[2] <= f[1])
    )
    non_factoring = irreducible and e[0] + e[2] >= f[1]
    return irreducible, non_factoring, min(u) >= -1, min(u) >= 1


def strata_candidates(genus: int):
    """Every sorted (e, f) pair the degree-4 table ranges over."""
    d = genus + 3
    for e1 in range(1, d // 3 + 1):
        for e2 in range(e1, (d - e1) // 2 + 1):
            for f1 in range(1, d // 2 + 1):
                yield (e1, e2, d - e1 - e2), (f1, d - f1)


def check_strata(stdout: str, genus: int, filt: str) -> bool:
    """Header, filter, sort order, row count, every codim and every flag."""
    lines = stdout.split("\n")
    if lines[-1] != "" or lines[:2] != [
        f"degree-4 strata at genus {genus} (filter: {filt})",
        "e | f | codim | irreducible | non_factoring | H_prime | H_circ",
    ]:
        return False
    rows = lines[2:-1]
    yes = {True: "yes", False: "no"}
    keys = []
    for line in rows:
        cells = line.split(" | ")
        if len(cells) != 7:
            return False
        try:
            e = tuple(int(v) for v in cells[0].split(","))
            f = tuple(int(v) for v in cells[1].split(","))
            codim = int(cells[2])
        except ValueError:
            return False
        if len(e) != 3 or len(f) != 2 or list(e) != sorted(e) or list(f) != sorted(f):
            return False
        if sum(e) != genus + 3 or sum(f) != genus + 3 or e[0] < 1 or f[0] < 1:
            return False
        flags = quartic_flags(e, f)
        if codim != recount_codim4(e, f) or cells[3:] != [yes[b] for b in flags]:
            return False
        if (filt == "irreducible" and not flags[0]) or (filt == "non_factoring" and not flags[1]):
            return False
        keys.append((codim, e, f))
    if keys != sorted(keys) or len(set(keys)) != len(keys):
        return False
    index = {"all": None, "irreducible": 0, "non_factoring": 1}[filt]
    want = sum(
        1 for e, f in strata_candidates(genus) if index is None or quartic_flags(e, f)[index]
    )
    return len(rows) == want


# -- graded polynomials in the library's text form --------------------------------


def parse_poly(text: str) -> Optional[dict[tuple[tuple[str, int], ...], Fraction]]:
    """``coef * x^2 * y + ...`` -> {((x, 2), (y, 1)): coef}; None if malformed."""
    if text == "0":
        return {}
    out: dict[tuple[tuple[str, int], ...], Fraction] = {}
    for term in text.split(" + "):
        factors = term.split(" * ")
        try:
            coeff = Fraction(factors[0])
            mono = []
            for fac in factors[1:]:
                name, _, power = fac.partition("^")
                mono.append((name, int(power) if power else 1))
        except (ValueError, ZeroDivisionError):
            return None
        key = tuple(sorted(mono))
        if coeff == 0 or key in out:
            return None
        out[key] = coeff
    return out


def substitute_genus(poly: dict, genus: int) -> dict:
    """Evaluate the symbolic generator ``g`` at an integer genus."""
    out: dict = {}
    for mono, coeff in poly.items():
        rest = tuple((n, e) for n, e in mono if n != "g")
        power = sum(e for n, e in mono if n == "g")
        out[rest] = out.get(rest, Fraction(0)) + coeff * genus**power
    return {m: c for m, c in out.items() if c != 0}


def parse_fiber(text: str) -> Optional[tuple[dict, dict]]:
    """``base + (zpart) * z`` (either part may be absent) -> two polynomials."""
    base, zpart = text, "0"
    if text.endswith(") * z"):
        cut = text.find("(")
        if cut != 0 and not text[:cut].endswith(" + "):
            return None
        base = text[: cut - 3] if cut else "0"
        zpart = text[cut + 1 : -len(") * z")]
    parsed = parse_poly(base), parse_poly(zpart)
    return None if None in parsed else parsed


def parse_curve_class(stdout: str, k: int) -> Optional[list[tuple[dict, dict]]]:
    """The ``curve-class`` report as (base, zpart) pairs, top power first."""
    lines = stdout.split("\n")
    if lines[0] != f"[C] for degree {k} covers:" or lines[-1] != "" or len(lines) != k + 1:
        return None
    out = []
    for j, line in zip(range(k - 2, -1, -1), lines[1:-1]):
        prefix = f"  zeta^{j}: "
        parsed = parse_fiber(line[len(prefix):]) if line.startswith(prefix) else None
        if parsed is None:
            return None
        out.append(parsed)
    return out


def json_line(stdout: str) -> dict:
    """The single JSON object a library driver prints; ValueError otherwise."""
    if stdout.count("\n") != 1 or not stdout.endswith("\n"):
        raise ValueError("expected one line")
    doc = json.loads(stdout)
    if not isinstance(doc, dict):
        raise ValueError("expected a JSON object")
    return doc


def kappa_body(stdout: str, index: int) -> Optional[str]:
    prefix = f"kappa_{index} = "
    if not stdout.startswith(prefix) or not stdout.endswith("\n") or stdout.count("\n") != 1:
        return None
    return stdout[len(prefix):-1]
