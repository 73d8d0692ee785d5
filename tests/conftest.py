import time
from fractions import Fraction
from typing import Sequence

import pytest

from cecalc import plmin
from cecalc.plmin import _dot, _vec


@pytest.fixture(scope="session")
def preset_results():
    """Solve each bundled instance once, recording wall-clock seconds.

    ``preset_solution`` is process-cached, so later callers (the bound
    assembly, the CLI tests) reuse these solves.
    """
    out = {}
    for name in plmin.PRESET_NAMES:
        start = time.perf_counter()
        solution = plmin.preset_solution(name)
        elapsed = time.perf_counter() - start
        out[name] = (plmin.preset(name), solution, elapsed)
    return out


def make_random_program(rng):
    """Feasible, bounded program: a coordinate box plus cuts through an
    interior point, with a random linear-plus-hinge objective."""
    n = rng.randint(1, 3)
    inequalities = []
    interior = []
    for i in range(n):
        hi = rng.randint(1, 4)
        row_lo = [0] * n
        row_lo[i] = -1
        row_hi = [0] * n
        row_hi[i] = 1
        inequalities += [(row_lo, 0), (row_hi, hi)]
        interior.append(Fraction(hi, 2))
    for _ in range(rng.randint(0, 2)):
        row = [rng.randint(-3, 3) for _ in range(n)]
        slack = sum(r * x for r, x in zip(row, interior)) + rng.randint(1, 3)
        inequalities.append((row, slack))
    hinges = []
    for _ in range(rng.randint(0, 2)):
        row = [rng.randint(-2, 2) for _ in range(n)]
        hinges.append((rng.choice([1, -1]), row, rng.randint(-2, 2)))
    return plmin.program(
        num_vars=n,
        inequalities=inequalities,
        objective_linear=[rng.randint(-4, 4) for _ in range(n)],
        objective_const=rng.randint(-3, 3),
        hinges=hinges,
    )


@pytest.fixture(scope="session")
def random_program_factory():
    return make_random_program


def program_to_json(p: plmin.PLProgram) -> dict:
    """The spec-file document of a program, numbers as "p/q" strings."""
    return {
        "vars": p.num_vars,
        "eq": [[str(v) for v in a] + [str(b)] for a, b in p.equalities],
        "le": [[str(v) for v in a] + [str(b)] for a, b in p.inequalities],
        "obj": {
            "lin": [str(v) for v in p.objective_linear],
            "const": str(p.objective_const),
            "hinges": [
                {
                    "sign": h.sign,
                    "coeffs": [str(v) for v in h.coeffs],
                    "rhs": str(h.rhs),
                }
                for h in p.hinges
            ],
        },
    }


def is_feasible(p: plmin.PLProgram, x: Sequence[plmin.Scalar]) -> bool:
    """Whether x meets every row of p, in Fractions: the solver tests' reference."""
    x = _vec(x, p.num_vars, "point")
    return all(_dot(a, x) == b for a, b in p.equalities) and all(
        _dot(a, x) <= b for a, b in p.inequalities
    )
