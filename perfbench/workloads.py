"""Seeded operation lists for the four workloads, each op with its oracle.

A workload is a list of operations; each operation is one fresh process,
either a ``cecalc`` command (``argv``) or a one-call library driver
(``spec``) for work that has no command.  The seed chooses values that do
not change how much work an operation does (genera, sampler seeds,
program coefficients, order), while the shape of each list (which
commands, covering degrees, indices, truncations, program sizes) is fixed
by the workload.  That keeps the work per run the same across seeds, so the
run-to-run spread measures the program and not the draw.

Each oracle takes ``(rc, stdout, outputs)``, where ``outputs`` maps every
op label of the pass to its stdout, so pairs of ops can check each other.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import oracles

Check = Callable[[int, str, dict], bool]


@dataclass
class Op:
    label: str
    kind: str  # the command or driver name; op times are also reported per kind
    check: Check
    argv: Optional[list[str]] = None  # cecalc arguments
    spec: Optional[dict] = None  # library-driver spec, written to a file
    files: dict = field(default_factory=dict)  # spec files the argv names
    deps: tuple = ()  # labels of other ops whose output this check reads


def _golden(root: Path, name: str, argv: list[str]) -> Op:
    want = (root / "tests" / "golden" / name).read_text()
    return Op(f"golden:{name}", argv[0], lambda rc, out, _: rc == 0 and out == want, argv=argv)


# -- classes: kappa and curve classes ---------------------------------------------

# Every (k, i) cell with k in 3..5 and i in 0..5 runs at a seeded genus and
# default truncation T, and again at T+2, where it must read the same.  The
# two costliest cells, kappa_4 and kappa_5 at k = 5 (2-3 s each), are left
# out: ops that long spoil the calibration of the time metrics (see run.py).
# Numeric kappa_5 at k = 4 is also checked against the symbolic one.
_CELLS = [(k, i) for k in (3, 4, 5) for i in range(6) if (k, i) not in ((5, 4), (5, 5))]


def classes(rng: random.Random, root: Path, work: Path) -> list[Op]:
    ops = [
        _golden(root, "kappa_k3_i0_g7.txt", ["kappa", "-k", "3", "-i", "0", "--genus", "7"]),
        _golden(root, "kappa_k4_symbolic.txt", ["kappa", "-k", "4", "-i", "0", "--symbolic"]),
        _golden(root, "curve_class_k4.txt", ["curve-class", "-k", "4", "--symbolic"]),
        _golden(root, "presentation_k4_g6.txt", ["presentation", "-k", "4", "-g", "6"]),
        _golden(root, "ce_rank_k5_i2.txt", ["ce-rank", "-k", "5", "-i", "2"]),
    ]

    def numeric(k, i, g, t, check):
        argv = ["kappa", "-k", str(k), "-i", str(i), "--genus", str(g)]
        if t != i + k + 2:
            argv += ["--truncation", str(t)]
        return Op(f"kappa:{k}:{i}:{g}:{t}", "kappa", check, argv=argv)

    def well_formed(rc, out, outs, i, g):
        body = oracles.kappa_body(out, i)
        if rc != 0 or body is None or oracles.parse_poly(body) is None:
            return False
        return i != 0 or body == str(2 * g - 2)

    bases = {}
    for k, i in _CELLS:
        g, t = rng.randint(2, 99), i + k + 2
        base = numeric(k, i, g, t, lambda rc, out, outs, i=i, g=g: well_formed(rc, out, outs, i, g))
        twin = numeric(k, i, g, t + 2, lambda rc, out, outs, b=base.label: rc == 0 and out == outs.get(b))
        twin.deps = (base.label,)
        ops += [base, twin]
        bases[k, i] = base.label, g
    num_label, g45 = bases[4, 5]

    def check_symbolic(rc, out, outs):
        sym = oracles.kappa_body(out, 5)
        num = oracles.kappa_body(outs.get(num_label, ""), 5)
        if rc != 0 or sym is None or num is None:
            return False
        parsed = oracles.parse_poly(sym)
        return parsed is not None and oracles.substitute_genus(parsed, g45) == oracles.parse_poly(num)

    ops.append(
        Op("kappa:4:5:sym", "kappa", check_symbolic,
           argv=["kappa", "-k", "4", "-i", "5", "--symbolic"], deps=(num_label,))
    )
    for k in (3, 5):
        ops.append(
            Op(
                f"kappa:{k}:0:sym",
                "kappa",
                lambda rc, out, outs: rc == 0 and out == "kappa_0 = -2 + 2 * g\n",
                argv=["kappa", "-k", str(k), "-i", "0", "--symbolic"],
            )
        )
    # Curve classes: symbolic, and at a seeded genus checked by substitution.
    for k in (3, 5):
        g = rng.randint(2, 99)
        sym_label = f"curve-class:{k}:sym"

        def check_sym(rc, out, outs, k=k):
            parsed = oracles.parse_curve_class(out, k)
            return rc == 0 and parsed is not None and parsed[0] == ({(): Fraction(k)}, {})

        def check_num(rc, out, outs, k=k, g=g, sym_label=sym_label):
            num = oracles.parse_curve_class(out, k)
            sym = oracles.parse_curve_class(outs.get(sym_label, ""), k)
            if rc != 0 or num is None or sym is None:
                return False
            subst = [tuple(oracles.substitute_genus(p, g) for p in pair) for pair in sym]
            return num == subst

        ops.append(Op(sym_label, "curve-class", check_sym, argv=["curve-class", "-k", str(k), "--symbolic"]))
        ops.append(
            Op(f"curve-class:{k}:{g}", "curve-class", check_num,
               argv=["curve-class", "-k", str(k), "--genus", str(g)], deps=(sym_label,))
        )
    rng.shuffle(ops)
    return ops


# -- bounds: the codimension bounds, certificates and lemma_coh5 faces ------------

B4_POINT = ("1/4", "3/8", "3/8", "1/2", "1/2")
B5_POINT = ("1/5", "4/15", "4/15", "4/15", "2/5", "2/5", "2/5", "2/5", "2/5")
_PRESETS = {  # name: (published argmin, known minimum, sampler trials)
    "lemma_b4": (B4_POINT, Fraction(1, 4), 2000),
    "lemma_coh4": (B4_POINT, Fraction(1, 4), 400),
    "lemma_b5circ": (B5_POINT, Fraction(1, 5), 200),
    "lemma_coh5": (B5_POINT, Fraction(1, 5), 200),
}
# Coordinates of B5_POINT pinned by each lemma_coh5 face (x1..x4 = 0..3,
# y1..y5 = 4..8).  Fixed: the enumeration cost depends strongly on the face.
# Each face examines 2 000-3 300 candidates (0.3-0.6 s), so that no op is
# long enough to spoil the calibration of the time metrics (see run.py).
_FACES = ((0, 3, 8), (2, 3, 8), (1, 4, 7), (0, 2, 8), (0, 3, 4), (2, 3, 4), (0, 3, 6), (1, 5, 7))


def _row(n: int, entries: dict, rhs) -> list[str]:
    row = ["0"] * n + [str(rhs)]
    for j, v in entries.items():
        row[j] = str(v)
    return row


def lemma_coh5_spec() -> dict:
    """The lemma_coh5 preset in spec-file form, written out here rather than
    read from ``plmin.preset`` so that the oracle shares no data with the
    solver it checks."""
    le = [_row(9, {0: -1}, 0)] + [_row(9, {i: 1, i + 1: -1}, 0) for i in range(3)]
    le += [_row(9, {4: -1}, 0)] + [_row(9, {i: 1, i + 1: -1}, 0) for i in range(4, 8)]
    le += [
        _row(9, {0: 1, 4: 1, 5: 1}, 1),  # x1 + y1 + y2 <= 1
        _row(9, {3: -1, 4: -1, 6: -1}, -1),  # y1 + y3 + x4 >= 1
        _row(9, {2: -1, 4: -1, 7: -1}, -1),  # y1 + y4 + x3 >= 1
        _row(9, {2: -1, 5: -1, 6: -1}, -1),  # y2 + y3 + x3 >= 1
    ]
    hinges = []
    for (j, k), count in (((0, 1), 4), ((0, 2), 3), ((0, 3), 2), ((1, 2), 2)):
        for i in range(count):  # -max(0, 1 - y_j - y_k - x_i)
            coeffs = ["0"] * 9
            coeffs[i] = "-1"
            coeffs[4 + j] = "-1"
            coeffs[4 + k] = "-1"
            hinges.append({"sign": -1, "coeffs": coeffs, "rhs": "-1"})
    return {
        "vars": 9,
        "eq": [_row(9, {0: 1, 1: 1, 2: 1, 3: 1}, 1), _row(9, {j: 1 for j in range(4, 9)}, 2)],
        "le": le,
        "obj": {"lin": [str(v) for v in (-3, -1, 1, 3, -4, -2, 0, 2, 4)], "const": "0", "hinges": hinges},
    }


def _bound_value(k: int, g: int) -> Fraction:
    return Fraction(g + 3, 4) - 4 if k == 4 else Fraction(g + 4, 5) - 16


def bounds(rng: random.Random, root: Path, work: Path) -> list[Op]:
    ops = [_golden(root, "minimize_b4.txt", ["minimize", "--preset", "lemma_b4"])]
    for k, case in ((4, "B_circ"), (4, "H_circ"), (5, "B_circ")):
        for _ in range(4):
            g = int(10 ** rng.uniform(0.4, 5))
            want = f"bound = {_bound_value(k, g)}\n"
            ops.append(
                Op(
                    f"bound:{k}:{case}:{g}",
                    "bound",
                    lambda rc, out, outs, want=want: rc == 0 and out == want,
                    argv=["bound", "-k", str(k), "-g", str(g), "--case", case],
                )
            )
    for name, (center, minimum, trials) in _PRESETS.items():
        spec = {"op": "sample", "preset": name, "trials": trials, "seed": rng.randrange(2**31), "center": list(center)}

        def check(rc, out, outs, minimum=minimum):
            try:
                return rc == 0 and Fraction(oracles.json_line(out)["value"]) >= minimum
            except (ValueError, KeyError, TypeError, ZeroDivisionError):
                return False

        ops.append(Op(f"sample:{name}", "sample_check", check, spec=spec))
    base = lemma_coh5_spec()
    for fixed in _FACES:
        spec = dict(base, eq=base["eq"] + [_row(9, {j: 1}, B5_POINT[j]) for j in fixed])
        path = work / f"coh5_face_{'_'.join(map(str, fixed))}.json"
        point = tuple(Fraction(v) for v in B5_POINT)
        ops.append(
            Op(
                f"coh5-face:{fixed}",
                "minimize-face",
                lambda rc, out, outs, spec=spec, point=point: rc == 0
                and oracles.check_minimize(spec, out, Fraction(1, 5), [point]),
                argv=["minimize", "--spec-file", str(path)],
                files={path: spec},
            )
        )
    rng.shuffle(ops)
    return ops


# -- programs: seeded --spec-file programs with a minimum known by construction ---

# (variables, status) per program; fixed so every seed does the same work.
# A 6-variable program with a minimum takes about 2 s, too long for the
# calibration of the time metrics (see run.py), so only the unbounded one,
# which fails early, has 6 variables.  The 5-variable programs are most of
# the list, so that op_p50_s falls in their midst: their cost varies with
# the draw, and an order statistic at the edge of a group varies most.
_PROGRAMS = (
    (4, "ok"), (5, "ok"), (5, "ok"), (5, "ok"), (5, "ok"), (5, "ok"), (5, "ok"), (5, "ok"), (5, "ok"),
    (5, "ok"), (5, "ok"), (5, "ok"), (4, "infeasible"), (5, "infeasible"), (5, "unbounded"), (6, "unbounded"),
)


def _unimodular(rng: random.Random, n: int) -> tuple[list[list[int]], list[list[int]]]:
    """A = P U and its integer inverse: U unit upper triangular with +-1
    above the diagonal, P a row permutation, so every draw is equally dense."""
    a = [[int(i == j) if j <= i else rng.choice((-1, 1)) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for i in range(n - 1, -1, -1):  # back substitution: U^-1 is unit upper triangular
        for j in range(i + 1, n):
            inv[i] = [x - a[i][j] * y for x, y in zip(inv[i], inv[j])]
    order = list(range(n))
    rng.shuffle(order)
    return [a[i] for i in order], [[int(row[i]) for i in order] for row in inv]


def random_program(rng: random.Random, n: int, status: str) -> tuple[dict, Fraction, tuple]:
    """A program in x, with u = A (x - v), whose minimum is known from its u form.

    In u the region is a box and the objective is separable: a linear term
    and one hinge of random sign per coordinate, redrawn until each
    coordinate has a unique minimiser.  Two +1 hinges through that
    minimiser and one -1 hinge that vanishes on the box add non-separable
    planes without moving the minimum.  A random unimodular A and shift v
    then hide the structure.  ``infeasible`` adds u1 + u2 <= -1;
    ``unbounded`` drops the upper bound on u1.
    """
    upper = [rng.randint(1, 4) for _ in range(n)]
    lin, hinges, best_u, minimum = [], [], [], Fraction(0)
    for j in range(n):
        while True:
            c, s = rng.randint(-3, 3), rng.choice((1, -1))
            b = Fraction(rng.randint(1, 2 * upper[j] - 1), 2)
            values = {t: c * t + s * max(Fraction(0), t - b) for t in (Fraction(0), b, Fraction(upper[j]))}
            low = min(values.values())
            argmin = [t for t, v in values.items() if v == low]
            if len(argmin) == 1:
                break
        lin.append(c)
        hinges.append((s, [int(i == j) for i in range(n)], b))
        best_u.append(argmin[0])
        minimum += low
    for sign in (1, 1, -1):
        w = [rng.choice((-2, -1, 1, 2)) for _ in range(n)]
        if sign == 1:
            rhs = sum(wi * ui for wi, ui in zip(w, best_u))
        else:
            rhs = sum(max(0, wi) * ui for wi, ui in zip(w, upper))
        hinges.append((sign, w, Fraction(rhs)))
    rows = []
    for j in range(n):
        rows.append(([-int(i == j) for i in range(n)], Fraction(0)))
        if not (status == "unbounded" and j == 0):
            rows.append(([int(i == j) for i in range(n)], Fraction(upper[j])))
    if status == "infeasible":
        rows.append(([1, 1] + [0] * (n - 2), Fraction(-1)))

    fwd, inv = _unimodular(rng, n)
    shift = [Fraction(rng.randint(-2, 2), 2) for _ in range(n)]

    def to_x(a):  # u = fwd (x - v), so a . u = (a fwd) . x - (a fwd) . v
        ax = [sum(a[r] * fwd[r][c] for r in range(n)) for c in range(n)]
        return ax, sum(Fraction(v) * s for v, s in zip(ax, shift))

    def num(v):
        return str(Fraction(v))

    le, obj_hinges = [], []
    for a, rhs in rows:
        ax, off = to_x(a)
        le.append([num(v) for v in ax] + [num(rhs + off)])
    for s, a, rhs in hinges:
        ax, off = to_x(a)
        obj_hinges.append({"sign": s, "coeffs": [num(v) for v in ax], "rhs": num(rhs + off)})
    lx, loff = to_x(lin)
    spec = {
        "vars": n,
        "eq": [],
        "le": le,
        "obj": {"lin": [num(v) for v in lx], "const": num(-loff), "hinges": obj_hinges},
    }
    best_x = tuple(sum(inv[r][c] * best_u[c] for c in range(n)) + shift[r] for r in range(n))
    return spec, minimum, best_x


def programs(rng: random.Random, root: Path, work: Path) -> list[Op]:
    ops = []
    for idx, (n, status) in enumerate(_PROGRAMS):
        spec, minimum, best_x = random_program(rng, n, status)
        path = work / f"program_{idx}.json"
        if status == "ok":

            def check(rc, out, outs, spec=spec, minimum=minimum, best_x=best_x):
                # The minimiser is unique by construction, so it is the only argmin.
                parsed = oracles.parse_minimize(out)
                return (
                    rc == 0
                    and parsed is not None
                    and parsed[1] == [best_x]
                    and oracles.check_minimize(spec, out, minimum, [best_x])
                )

        else:

            def check(rc, out, outs):
                return rc == 3 and out == ""

        ops.append(
            Op(f"program:{idx}:{n}:{status}", f"minimize-{status}", check,
               argv=["minimize", "--spec-file", str(path)], files={path: spec})
        )
    rng.shuffle(ops)
    return ops


# -- strata: stratum tables, codimensions, the Pfaffian sweep ---------------------

# (filter, centre genus) of the seeded table ops; each genus is drawn within
# one of its centre, so the table size, not the draw, sets the work.  Each
# table takes at most about 0.6 s, so that no op is long enough to spoil the
# calibration of the time metrics (see run.py).
_TABLES = (
    ("all", 46), ("all", 52), ("irreducible", 68), ("irreducible", 76),
    ("non_factoring", 60), ("non_factoring", 70),
)


def _random_type(rng: random.Random, rank: int, degree: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(-3, degree) for _ in range(rank - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
    return tuple(sorted(parts))


def strata(rng: random.Random, root: Path, work: Path) -> list[Op]:
    ops = [
        _golden(root, "strata_g6.txt", ["strata", "-k", "4", "-g", "6", "--filter", "irreducible"]),
        _golden(root, "splitting_codim_k4.txt", ["splitting-codim", "-k", "4", "--e", "1,4,4", "--f", "2,7"]),
    ]
    for filt, centre in _TABLES:
        g = centre + rng.randint(-1, 1)
        ops.append(
            Op(
                f"strata:{filt}:{g}",
                "strata",
                lambda rc, out, outs, g=g, filt=filt: rc == 0 and oracles.check_strata(out, g, filt),
                argv=["strata", "-k", "4", "-g", str(g), "--filter", filt],
            )
        )
    for _ in range(5):
        e = tuple(sorted(rng.randint(-5, 9) for _ in range(3)))
        f = tuple(sorted(rng.randint(-5, 9) for _ in range(2)))
        want = f"codim = {oracles.recount_codim4(e, f)}\n"
        ops.append(
            Op(f"codim4:{e}:{f}", "splitting-codim",
               lambda rc, out, outs, want=want: rc == 0 and out == want,
               argv=["splitting-codim", "-k", "4", f"--e={','.join(map(str, e))}", f"--f={','.join(map(str, f))}"])
        )
    for _ in range(5):
        g = rng.randint(2, 60)
        e, f = _random_type(rng, 4, g + 4), _random_type(rng, 5, 2 * g + 8)
        want = f"codim = {oracles.recount_codim5(e, f, g)}\n"
        ops.append(
            Op(f"codim5:{e}:{f}:{g}", "splitting-codim",
               lambda rc, out, outs, want=want: rc == 0 and out == want,
               argv=["splitting-codim", "-k", "5", f"--e={','.join(map(str, e))}",
                     f"--f={','.join(map(str, f))}", "-g", str(g)])
        )

    # The sweep runs one genus per op; together they must give 949 pairs
    # with maximum 21 at the g = 10 witness, and each op's witness must be
    # a sorted, degree-matched pair that recounts to its own maximum.
    sweeps = {g: f"pfaffian-sweep:{g}" for g in (10, 11)}

    def check_sweep(rc, out, outs, g):
        try:
            docs = {h: oracles.json_line(out if h == g else outs.get(label, "")) for h, label in sweeps.items()}
            for h, doc in docs.items():
                e, f = doc["witness"][1], doc["witness"][2]
                negative = sum(1 for ei in e for j in range(5) for k in range(j + 1, 5) if ei + f[j] + f[k] < h + 4)
                degrees_ok = sum(e) == h + 4 and sum(f) == 2 * h + 8 and e == sorted(e) and f == sorted(f)
                if doc["witness"][0] != h or not degrees_ok or e[0] < 1 or f[0] < 0 or negative != doc["max"]:
                    return False
            return (
                rc == 0
                and sum(doc["pairs"] for doc in docs.values()) == 949
                and max(doc["max"] for doc in docs.values()) == 21
                and docs[10]["witness"] == [10, [1, 1, 3, 9], [5, 5, 6, 6, 6]]
            )
        except (ValueError, KeyError, IndexError, TypeError):
            return False

    for g, label in sweeps.items():
        ops.append(Op(label, "pfaffian-sweep", lambda rc, out, outs, g=g: check_sweep(rc, out, outs, g),
                      spec={"op": "sweep", "genera": [g]}, deps=tuple(l for h, l in sweeps.items() if h != g)))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"classes": classes, "bounds": bounds, "programs": programs, "strata": strata}
