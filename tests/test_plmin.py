"""Exact piecewise-linear minimization: solver, presets, oracles, invariances."""

import random
import re
import sys
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from cecalc.plmin import (
    PRESET_NAMES,
    InfeasibleError,
    UnboundedError,
    bound,
    objective_value,
    preset,
    program,
    program_from_json,
    sample_check,
    solve,
    _check_bounded,
    _region,
    _stiemke,
)
from conftest import is_feasible, program_to_json

B4_POINT = (
    Fraction(1, 4),
    Fraction(3, 8),
    Fraction(3, 8),
    Fraction(1, 2),
    Fraction(1, 2),
)
B5_POINT = (
    Fraction(1, 5),
    Fraction(4, 15),
    Fraction(4, 15),
    Fraction(4, 15),
    Fraction(2, 5),
    Fraction(2, 5),
    Fraction(2, 5),
    Fraction(2, 5),
    Fraction(2, 5),
)
COH5_EDGE_POINT = (Fraction(0),) + (Fraction(1, 3),) * 3 + (Fraction(2, 5),) * 5


def box_program(upper=1):
    return program(
        num_vars=1,
        inequalities=[([-1], 0), ([1], upper)],
        objective_linear=[1],
    )


# -- basic solving -------------------------------------------------------------


def test_minimize_coordinate_on_unit_interval():
    sol = solve(box_program())
    assert sol.min_value == 0
    assert sol.argmin_points == ((Fraction(0),),)


def test_solution_reevaluates_exactly_at_every_argmin():
    for name in ("lemma_b4", "lemma_coh4"):
        p = preset(name)
        sol = solve(p)
        for pt in sol.argmin_points:
            assert is_feasible(p, pt)
            assert objective_value(p, pt) == sol.min_value


def test_equalities_pinning_a_single_point():
    p = program(
        num_vars=2,
        equalities=[([1, 0], 2), ([0, 1], 3)],
        inequalities=[([1, 1], 6)],
        objective_linear=[1, 1],
    )
    sol = solve(p)
    assert sol.min_value == 5
    assert sol.argmin_points == ((Fraction(2), Fraction(3)),)
    # m = 0: the enumeration is the one empty subset
    assert sol[2:] == (0, 1, 0, 0, 1)
    bad = program(
        num_vars=2,
        equalities=[([1, 0], 2), ([0, 1], 3)],
        inequalities=[([1, 1], 4)],
    )
    with pytest.raises(InfeasibleError, match="inequality violated on the equality subspace"):
        solve(bad)
    with pytest.raises(InfeasibleError, match="inequality violated on the equality subspace"):
        sample_check(bad, trials=5, seed=0, center=[2, 3])


def test_hinge_terms_shift_the_minimizer():
    # minimize x + max(0, 1 - 2x) on [0, 1]: best at x = 1/2, value 1/2
    p = program(
        num_vars=1,
        inequalities=[([-1], 0), ([1], 1)],
        objective_linear=[1],
        hinges=[(1, [-2], -1)],
    )
    sol = solve(p)
    assert sol.min_value == Fraction(1, 2)
    assert (Fraction(1, 2),) in sol.argmin_points


def test_unbounded_region_is_reported():
    with pytest.raises(UnboundedError):
        solve(program(num_vars=1, inequalities=[([-1], 0)], objective_linear=[1]))
    with pytest.raises(UnboundedError):
        solve(program(num_vars=2, inequalities=[([1, 0], 1)], objective_linear=[1, 1]))


def test_a_program_without_rows_is_refused_as_unbounded():
    with pytest.raises(UnboundedError, match="no inequality constrains the affine subspace"):
        program(num_vars=3, hinges=[(1, [1, 0, 0], 0)])
    with pytest.raises(ValueError, match="hinge has length 1"):
        program(num_vars=3, hinges=[(1, [1], 0)])  # malformed input is reported first
    assert solve(program(num_vars=1, equalities=[([1], 2)])).min_value == 0


def test_recession_ray_found_through_a_subset_in_four_variables():
    # u_i = x_i - w >= 0 for i < 3, u_1 + u_2 + u_3 <= 1, w >= 0: a simplex
    # swept along (1, 1, 1, 1).  The normals span R^4, so only the null
    # space of three of them exposes that ray, and it is the only one.
    p = program(
        num_vars=4,
        inequalities=[
            ([-1, 0, 0, 1], 0),
            ([0, -1, 0, 1], 0),
            ([0, 0, -1, 1], 0),
            ([1, 1, 1, -3], 1),
            ([0, 0, 0, -1], 0),
        ],
        objective_linear=[1, -1, 0, 0],
    )
    with pytest.raises(UnboundedError, match=r"recession ray \(1, 1, 1, 1\)"):
        solve(p)


def test_bounded_three_simplex_is_solved():
    p = program(
        num_vars=3,
        inequalities=[([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, -1], 0), ([1, 1, 1], 1)],
        objective_linear=[1, -2, 1],
        hinges=[(1, [0, 3, 0], 1)],
    )
    sol = solve(p)
    assert sol.min_value == Fraction(-2, 3)
    assert sol.argmin_points == ((0, Fraction(1, 3), 0),)


def test_subset_limit_counts_only_enumerated_planes():
    # 10 box rows and 40 hinges in 5 variables: as +1 hinges the planes give
    # C(50, 5) > MAX_SUBSETS subsets, as -1 hinges only C(10, 5) = 252.
    rng = random.Random(5)
    box = []
    for i in range(5):
        box += [([-int(j == i) for j in range(5)], 0), ([int(j == i) for j in range(5)], 1)]
    rows = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(40)]
    for sign in (1, -1):
        p = program(
            num_vars=5,
            inequalities=box,
            objective_linear=[1, -1, 1, -1, 1],
            hinges=[(sign, row, k % 3) for k, row in enumerate(rows)],
        )
        if sign > 0:
            with pytest.raises(ValueError, match=r"50 distinct .* m = 5 give 2118760 subsets"):
                solve(p)
        else:
            assert solve(p).subsets == 252


def test_infeasible_region_is_reported():
    with pytest.raises(InfeasibleError, match="no intersection point satisfies all constraints"):
        solve(
            program(
                num_vars=1,
                inequalities=[([1], 0), ([-1], -1)],  # x <= 0 and x >= 1
                objective_linear=[1],
            )
        )
    with pytest.raises(InfeasibleError, match="equality constraints are inconsistent"):
        solve(
            program(
                num_vars=2,
                equalities=[([1, 1], 1), ([2, 2], 3)],
                objective_linear=[1, 0],
            )
        )


# (program, error of solve, its text); sample_check raises the same
REGION_ERRORS = [
    (  # x + 2y + z = 3 less x + y = 1 and y + z = 1 reads 0 = 1
        dict(num_vars=3, equalities=[([1, 1, 0], 1), ([0, 1, 1], 1), ([1, 2, 1], 3)]),
        InfeasibleError,
        "equality constraints are inconsistent",
    ),
    (
        dict(num_vars=2, equalities=[([1, 1], 1)]),
        UnboundedError,
        "no inequality constrains the affine subspace",
    ),
    (
        dict(num_vars=2, inequalities=[([1, 1], 1), ([-1, -1], 1)]),
        UnboundedError,
        "constraint normals do not span; region contains a line",
    ),
    (  # x = y, x >= 0 and x >= -1/2
        dict(num_vars=2, equalities=[([1, -1], 0)], inequalities=[([-1, 0], 0), ([-2, 0], 1)]),
        UnboundedError,
        "feasible interval is a half line",
    ),
]


@pytest.mark.parametrize(
    "spec, error, text", REGION_ERRORS, ids=["inconsistent", "unconstrained", "line", "half_line"]
)
def test_region_error_texts(spec, error, text):
    p = program(**spec)
    with pytest.raises(error, match=f"^{text}$"):
        solve(p)
    with pytest.raises(error, match=f"^{text}$"):  # the region fails before the center is read
        sample_check(p, trials=5, seed=0, center=[0] * p.num_vars)


# -- presets ----------------------------------------------------------------------


def test_preset_shapes():
    b4 = preset("lemma_b4")
    assert b4.num_vars == 5
    assert len(b4.equalities) == 2
    assert len(b4.hinges) == 0

    coh4 = preset("lemma_coh4")
    assert len(coh4.hinges) == 2
    assert all(h.sign == -1 for h in coh4.hinges)

    b5 = preset("lemma_b5circ")
    assert b5.num_vars == 9
    assert len(b5.hinges) == 0

    coh5 = preset("lemma_coh5")
    assert coh5.num_vars == 9
    assert len(coh5.hinges) == 11
    assert all(h.sign == -1 for h in coh5.hinges)
    assert len(coh5.inequalities) == 13

    with pytest.raises(ValueError, match="unknown preset"):
        preset("lemma_nope")


def test_published_minimizers_are_feasible():
    assert is_feasible(preset("lemma_b4"), B4_POINT)
    assert is_feasible(preset("lemma_coh4"), B4_POINT)
    assert is_feasible(preset("lemma_b5circ"), B5_POINT)
    assert is_feasible(preset("lemma_coh5"), B5_POINT)


def test_coh5_argmins_are_the_two_published_points(preset_results):
    _, sol, _ = preset_results["lemma_coh5"]
    assert sol.min_value == Fraction(1, 5)
    assert sol.argmin_points == (COH5_EDGE_POINT, B5_POINT)


def test_quartic_presets_solve_to_one_quarter(preset_results):
    for name in ("lemma_b4", "lemma_coh4"):
        _, sol, _ = preset_results[name]
        assert sol.min_value == Fraction(1, 4)
        assert B4_POINT in sol.argmin_points


# -- bound assembly ------------------------------------------------------------------


def test_bound_examples(preset_results):
    assert bound(4, 19, "B_circ") == Fraction(3, 2)
    assert bound(4, 19, "H_circ") == Fraction(3, 2)
    assert bound(5, 104, "H_circ") == Fraction(28, 5)
    with pytest.raises(ValueError):
        bound(3, 10, "B_circ")
    with pytest.raises(ValueError):
        bound(4, 1, "B_circ")
    with pytest.raises(ValueError):
        bound(4, 10, "nope")


# -- exact outputs pinned from the earlier Fraction-based solver --------------
#
# Recorded from the solver and sampler this module had before its integer
# core (rational elimination and back-substitution, Fraction objective): the
# full PLSolution, counts included, and the exact value of walks that start
# away from the minimum, so that the steps of the walk show in the value.


def _point(text):
    return tuple(Fraction(v) for v in text.split())


def _coh5_face(fixed):
    """lemma_coh5 with the coordinates ``fixed`` of B5_POINT pinned by equalities."""
    p = preset("lemma_coh5")
    pins = [([int(j == i) for j in range(9)], B5_POINT[i]) for i in fixed]
    return program(
        num_vars=9,
        equalities=list(p.equalities) + pins,
        inequalities=p.inequalities,
        objective_linear=p.objective_linear,
        objective_const=p.objective_const,
        hinges=[(h.sign, h.coeffs, h.rhs) for h in p.hinges],
    )


_B4 = "1/4 3/8 3/8 1/2 1/2"
_B5 = "1/5 4/15 4/15 4/15 2/5 2/5 2/5 2/5 2/5"
# (preset, pinned coordinates of B5_POINT or None, (minimum, argmins, counts));
# the counts are planes, subsets, singular, infeasible, feasible
PINNED_SOLUTIONS = [
    ("lemma_b4", None, ("1/4", (_B4,), (6, 20, 7, 5, 8))),
    ("lemma_coh4", None, ("1/4", (_B4,), (8, 56, 7, 34, 15))),
    ("lemma_b5circ", None, ("1/5", (_B5,), (10, 120, 57, 37, 26))),
    ("lemma_coh5", None, ("1/5", ("0 1/3 1/3 1/3 2/5 2/5 2/5 2/5 2/5", _B5), (13, 1716, 585, 821, 310))),
    ("lemma_coh5", (0, 3, 8), ("1/5", (_B5,), (11, 330, 121, 200, 9))),
    ("lemma_coh5", (2, 3, 8), ("1/5", (_B5,), (12, 495, 259, 223, 13))),
    ("lemma_coh5", (1, 4, 7), ("1/5", (_B5,), (12, 495, 212, 250, 33))),
    ("lemma_coh5", (0, 2, 8), ("1/5", (_B5,), (11, 330, 156, 156, 18))),
    ("lemma_coh5", (0, 3, 4), ("1/5", (_B5,), (9, 126, 41, 81, 4))),
    ("lemma_coh5", (2, 3, 4), ("1/5", (_B5,), (11, 330, 178, 141, 11))),
    ("lemma_coh5", (0, 3, 6), ("1/5", (_B5,), (11, 330, 159, 142, 29))),
    ("lemma_coh5", (1, 5, 7), ("1/5", (_B5,), (12, 495, 209, 260, 26))),
]


@pytest.mark.parametrize(
    "name, face, want",
    [pytest.param(*case, id=case[0] + ("" if case[1] is None else "-" + "".join(map(str, case[1]))))
     for case in PINNED_SOLUTIONS],
)
def test_pinned_solutions(name, face, want):
    p = preset(name) if face is None else _coh5_face(face)
    value, points, counts = want
    assert tuple(solve(p)) == (Fraction(value), tuple(_point(x) for x in points), *counts)


# feasible, not minimising starts; each pinned value is first reached at the
# last of ``trials`` draws, so a walk one draw shorter gives another value
WALK_CENTERS = {
    5: "1/5 2/5 2/5 2/5 3/5",
    9: "1/10 1/5 3/10 2/5 3/10 7/20 2/5 9/20 1/2",
}
PINNED_WALKS = [
    ("lemma_b4", 1, 78, "15/32"),
    ("lemma_b4", 2, 155, "23/80"),
    ("lemma_coh4", 1, 134, "5/16"),
    ("lemma_coh4", 2, 151, "23/80"),
    ("lemma_b5circ", 1, 7, "593/320"),
    ("lemma_b5circ", 2, 8, "215/128"),
    ("lemma_coh5", 1, 147, "239/320"),
    ("lemma_coh5", 2, 7, "453/640"),
]


@pytest.mark.parametrize("name, seed, trials, want", PINNED_WALKS)
def test_pinned_walk_values(name, seed, trials, want):
    p = preset(name)
    center = _point(WALK_CENTERS[p.num_vars])
    assert sample_check(p, trials=trials, seed=seed, center=center) == Fraction(want)
    assert sample_check(p, trials=trials - 1, seed=seed, center=center) > Fraction(want)


# -- JSON format ----------------------------------------------------------------------


def test_json_round_trip():
    p = preset("lemma_coh4")
    data = program_to_json(p)
    assert data["vars"] == 5
    assert data["obj"]["hinges"][0]["sign"] == -1
    assert program_from_json(data) == p


@pytest.mark.parametrize(
    "spelling", [2, "2", 2.0, "2e0", "200e-2"], ids=["int", "string", "float", "exponent", "negative_exponent"]
)
def test_json_numbers_parse_in_any_spelling(spelling):
    p = program_from_json({"vars": 1, "le": [["-1", spelling]], "obj": {"lin": [1.5], "const": "3/2"}})
    assert p.inequalities == (((Fraction(-1),), Fraction(2)),)
    assert p.objective_linear == (Fraction(3, 2),)
    assert p.objective_const == Fraction(3, 2)


def test_json_rejects_ragged_rows():
    with pytest.raises(ValueError, match="entries"):
        program_from_json({"vars": 2, "eq": [["1", "2"]], "obj": {"lin": ["1", "0"]}})


# -- sampling oracle -------------------------------------------------------------------


def test_sample_check_trivial_program_is_nonnegative():
    p = box_program()
    value = sample_check(p, trials=200, seed=5, center=[Fraction(1, 2)])
    assert value >= 0


def test_sample_check_with_argmin_center_returns_the_minimum(preset_results):
    p, sol, _ = preset_results["lemma_b4"]
    value = sample_check(p, trials=500, seed=1, center=sol.argmin_points[0])
    assert value == sol.min_value


def test_sample_check_rejects_infeasible_center():
    with pytest.raises(ValueError, match="not feasible"):
        sample_check(box_program(), trials=10, seed=0, center=[5])
    # x1 is a pivot coordinate: the walk's slacks read only x2, x3 and y2, so
    # only the lift shows that x1 + x2 + x3 = 1 fails
    off_subspace = (Fraction(1, 5),) + B4_POINT[1:]
    with pytest.raises(ValueError, match="not feasible"):
        sample_check(preset("lemma_b4"), trials=10, seed=0, center=off_subspace)


def test_sample_check_error_when_region_is_empty():
    p = program(
        num_vars=1,
        inequalities=[([1], 0), ([-1], -1)],
        objective_linear=[1],
    )
    with pytest.raises(ValueError, match="supplied center is not feasible"):  # no start is feasible
        sample_check(p, trials=10, seed=0, center=[0])


def test_sample_check_never_undercuts_random_programs(random_program_factory):
    rng = random.Random(2718)
    for _ in range(300):
        p = random_program_factory(rng)
        # the first 2n rows are the box 0 <= x_i <= hi_i; the cuts keep its midpoint
        mid = [p.inequalities[2 * i + 1][1] / 2 for i in range(p.num_vars)]
        value = sample_check(p, trials=200, seed=rng.randrange(2**31), center=mid)
        assert value >= solve(p).min_value


def test_sample_check_unbounded_region_raises():
    p = program(num_vars=1, inequalities=[([-1], 0)], objective_linear=[1])  # x >= 0
    with pytest.raises(UnboundedError, match="^feasible interval is a half line$"):
        sample_check(p, trials=2, seed=0, center=[0])


def test_sample_check_refuses_a_cone_no_walk_direction_follows():
    # x >= 2y, x <= 3y, y >= 1: the recession rays lie between (2, 1) and
    # (3, 1), so no direction in {-1, 0, 1}^2 has a chord open on one side;
    # unchecked, the walk drifted off to -9145096579/32 (trials 2000, seed 1).
    p = program(
        num_vars=2,
        inequalities=[([-1, 2], 0), ([1, -3], 0), ([0, -1], -1)],
        objective_linear=[-1, 0],
    )
    with pytest.raises(UnboundedError, match=r"recession ray \(2, 1\)"):
        solve(p)
    with pytest.raises(UnboundedError, match=r"^recession ray \(2, 1\) detected$"):
        sample_check(p, trials=2000, seed=1, center=[5, 2])


def test_sample_check_from_a_center_off_the_origin():
    p = program(num_vars=1, inequalities=[([-1], -1), ([1], 2)], objective_linear=[1])
    assert 1 <= sample_check(p, trials=10, seed=0, center=[Fraction(3, 2)]) <= Fraction(3, 2)


def test_sample_check_same_seed_same_value(preset_results):
    p, _, _ = preset_results["lemma_coh4"]
    first = sample_check(p, trials=300, seed=11, center=B4_POINT)
    assert sample_check(p, trials=300, seed=11, center=B4_POINT) == first


def test_sample_check_draws_the_start_first_then_walks():
    p = box_program()
    assert sample_check(p, trials=1, seed=3, center=[1]) == 1
    assert 0 <= sample_check(p, trials=50, seed=3, center=[1]) < 1


def test_sample_check_on_a_single_point_region():
    p = program(
        num_vars=2,
        equalities=[([1, 0], Fraction(1, 3)), ([1, 1], 1)],
        inequalities=[([1, 0], 1)],
        objective_linear=[3, 1],
    )
    assert sample_check(p, trials=20, seed=0, center=[Fraction(1, 3), Fraction(2, 3)]) == Fraction(5, 3)


# -- random-program invariances ----------------------------------------------------------


def test_presets_lower_bound_splitting_codimensions(preset_results):
    """Cross-module link: solver minima bound stratum codimensions.

    For random integer splitting types satisfying each instance's
    constraints, the codimension count from the splitting module is at
    least scale * min - offset, and the scaled type is a feasible point of
    the corresponding program whose objective value is at least the
    solver's minimum.  The codimension-side inequality is asserted for the
    pair instances and the quartic cover instance; for the quintic cover
    instance only the objective-level statement holds over the three
    stated constraints (see the README's "Known limitation" note on the
    negative-summand cap), so that is what is checked.
    """
    from cecalc.splitting import codim_hurwitz4, constraints_5, h1

    def codim_pair(e, f):
        """h1(End e) + h1(End f): the codimension where a pair degenerates to (e, f)."""
        return sum(h1(b - a for a in t for b in t) for t in (e, f))

    rng = random.Random(1234)
    min_b4 = preset_results["lemma_b4"][1].min_value
    min_coh4 = preset_results["lemma_coh4"][1].min_value
    min_b5 = preset_results["lemma_b5circ"][1].min_value
    coh5_prog, coh5_sol, _ = preset_results["lemma_coh5"]

    def sorted_nonneg(rank, degree):
        while True:
            cuts = sorted(rng.randint(0, degree) for _ in range(rank - 1))
            parts = [b - a for a, b in zip([0] + cuts, cuts + [degree])]
            if min(parts) >= 0:
                return tuple(sorted(parts))

    checked = 0
    while checked < 100:
        g = rng.randint(4, 60)
        e = sorted_nonneg(3, g + 3)
        f = sorted_nonneg(2, g + 3)
        if 2 * e[0] > f[1]:
            continue  # outside the degeneracy region
        assert codim_pair(e, f) >= (g + 3) * min_b4 - 4
        checked += 1

    checked = 0
    while checked < 100:
        g = rng.randint(4, 60)
        e = sorted_nonneg(3, g + 3)
        lo = max(2 * e[0], (g + 3) - 2 * e[0], (g + 4) // 2)
        hi = min(2 * e[1], e[0] + e[2])
        if lo > hi:
            continue
        f2 = rng.randint(lo, hi)
        f = (g + 3 - f2, f2)
        assert codim_hurwitz4(e, f) >= (g + 3) * min_coh4 - 4
        checked += 1

    checked = 0
    while checked < 100:
        g = rng.randint(4, 60)
        e = sorted_nonneg(4, g + 4)
        f = sorted_nonneg(5, 2 * g + 8)
        if e[0] + f[0] + f[1] > g + 4:
            continue
        assert codim_pair(e, f) >= (g + 4) * min_b5 - 16
        checked += 1

    checked = 0
    while checked < 100:
        g = rng.randint(4, 60)
        e = sorted_nonneg(4, g + 4)
        f = sorted_nonneg(5, 2 * g + 8)
        if e[0] + f[0] + f[1] > g + 4:
            continue
        if not constraints_5(e, f, g).pfaffian_ok:
            continue
        point = [Fraction(v, g + 4) for v in e + f]
        assert is_feasible(coh5_prog, point)
        assert objective_value(coh5_prog, point) >= coh5_sol.min_value
        checked += 1


def test_redundant_constraints_and_positive_scaling(random_program_factory):
    rng = random.Random(17)
    for _ in range(25):
        p = random_program_factory(rng)
        sol = solve(p)

        # doubling an existing inequality adds nothing
        a, b = p.inequalities[rng.randrange(len(p.inequalities))]
        redundant = program(
            num_vars=p.num_vars,
            inequalities=list(p.inequalities) + [([2 * v for v in a], 2 * b)],
            objective_linear=p.objective_linear,
            objective_const=p.objective_const,
            hinges=[(h.sign, h.coeffs, h.rhs) for h in p.hinges],
        )
        assert solve(redundant).min_value == sol.min_value

        # scaling the objective by a positive rational scales the minimum
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = program(
            num_vars=p.num_vars,
            inequalities=p.inequalities,
            objective_linear=[lam * v for v in p.objective_linear],
            objective_const=lam * p.objective_const,
            hinges=[(h.sign, [lam * v for v in h.coeffs], lam * h.rhs) for h in p.hinges],
        )
        scaled_sol = solve(scaled)
        assert scaled_sol.min_value == lam * sol.min_value
        assert scaled_sol.argmin_points == sol.argmin_points


def test_equalities_embedding_a_program_change_nothing(random_program_factory):
    """New variables pinned by equalities leave the solve as it was.

    Each random program in x gets k = 1-3 leading variables y, with
    d_i y_i - M_i . x = v_i, d_i in {1, 2, 3}, and a doubled copy of one of
    those rows, so the equality subspace is parametrised by x itself.  The
    minimum, the five counts and the x-parts of the argmins are those of the
    program in x.
    """
    rng = random.Random(20261020)
    for _ in range(300):
        p = random_program_factory(rng)
        n, k = p.num_vars, rng.randint(1, 3)
        pad = [0] * k
        eqs = [
            (
                [rng.randint(1, 3) * int(j == i) for j in range(k)] + [rng.randint(-3, 3) for _ in range(n)],
                Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
            )
            for i in range(k)
        ]
        a, b = rng.choice(eqs)
        eqs.insert(rng.randint(0, k), ([2 * v for v in a], 2 * b))
        embedded = program(
            num_vars=k + n,
            equalities=eqs,
            inequalities=[(pad + list(a), b) for a, b in p.inequalities],
            objective_linear=pad + list(p.objective_linear),
            objective_const=p.objective_const,
            hinges=[(h.sign, pad + list(h.coeffs), h.rhs) for h in p.hinges],
        )
        sol, got = solve(p), solve(embedded)
        assert got.min_value == sol.min_value and got[2:] == sol[2:]
        assert sorted(x[k:] for x in got.argmin_points) == list(sol.argmin_points)
        assert all(is_feasible(embedded, x) for x in got.argmin_points)


# -- the concavity shortcut against the full arrangement -----------------------------


def _det(rows):
    """Determinant by cofactor expansion along the first row."""
    if not rows:
        return 1
    return sum(
        (-1) ** j * rows[0][j] * _det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j in range(len(rows))
        if rows[0][j]
    )


def _null_generator(rows, n):
    """Signed maximal minors of n - 1 rows: spans their null space, or is 0."""
    return [(-1) ** j * _det([row[:j] + row[j + 1 :] for row in rows]) for j in range(n)]


def _full_arrangement_minimum(p):
    """Brute force over every vertex of the full arrangement.

    Enumerates n-subsets of the inequality planes and of every hinge
    breakpoint plane, -1 hinges included, solving each by Cramer's rule.
    The region is unbounded when the recession cone {d : A d <= 0} holds
    a nonzero d: a line when no n - 1 normals are independent, otherwise
    a ray spanned by the null generator of some n - 1 of them.  Plane
    coefficients must be integers, as ``make_random_program`` draws them.
    """
    n = p.num_vars

    def integral(a, b):  # a . x <= b scaled to integers
        return [int(v) * b.denominator for v in a], b.numerator

    ineq = [integral(a, b) for a, b in p.inequalities]
    normals = [a for a, _ in ineq if any(a)]
    generators = [_null_generator(list(s), n) for s in combinations(normals, n - 1)]
    nonzero = [d for d in generators if any(d)]
    if not nonzero:
        raise UnboundedError("line")
    for d in nonzero:
        for ray in (d, [-v for v in d]):
            if all(sum(a_i * r_i for a_i, r_i in zip(a, ray)) <= 0 for a in normals):
                raise UnboundedError("ray")
    planes = ineq + [integral(h.coeffs, h.rhs) for h in p.hinges]
    planes = [(a, b) for a, b in planes if any(a)]
    values = {}
    for subset in combinations(planes, n):
        den = _det([a for a, _ in subset])
        if den == 0:
            continue
        num = [_det([a[:j] + [b] + a[j + 1 :] for a, b in subset]) for j in range(n)]
        if den < 0:
            den, num = -den, [-v for v in num]
        if all(sum(a_i * v for a_i, v in zip(a, num)) <= b * den for a, b in ineq):
            x = tuple(Fraction(v, den) for v in num)
            value = p.objective_const + sum(c * x_i for c, x_i in zip(p.objective_linear, x))
            for h in p.hinges:
                excess = sum(c * x_i for c, x_i in zip(h.coeffs, x)) - h.rhs
                value += h.sign * max(excess, 0)
            values[x] = value
    if not values:
        raise InfeasibleError("no vertex")
    low = min(values.values())
    return low, {x for x, v in values.items() if v == low}


def _outcome(fn, p):
    try:
        return fn(p)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc)


def test_reduced_arrangement_matches_full_arrangement(random_program_factory):
    """Dropping the -1 breakpoint planes keeps the minimum and the errors.

    Each random program is compared as drawn, and once more either with
    one box row dropped (often unbounded) or with a cut past its box
    (infeasible).  The solver's argmins must be brute-force argmins.
    """
    rng = random.Random(20261018)
    tally = {"mixed": 0, InfeasibleError: 0, UnboundedError: 0}
    for i in range(3000):
        p = random_program_factory(rng)
        signs = {h.sign for h in p.hinges}
        tally["mixed"] += signs == {1, -1}
        n = p.num_vars
        rows = [(a, b) for a, b in p.inequalities]
        j = rng.randrange(n)
        if i % 2:
            del rows[2 * j + rng.randrange(2)]
        else:
            rows.append(([-int(k == j) for k in range(n)], -rows[2 * j + 1][1] - 1))
        variant = program(
            num_vars=n,
            inequalities=rows,
            objective_linear=p.objective_linear,
            objective_const=p.objective_const,
            hinges=[(h.sign, h.coeffs, h.rhs) for h in p.hinges],
        )
        for q in (p, variant):
            got = _outcome(solve, q)
            want = _outcome(_full_arrangement_minimum, q)
            if isinstance(want, tuple):
                assert got.min_value == want[0]
                assert got.argmin_points and set(got.argmin_points) <= want[1]
            else:
                assert got is want
                tally[want] += 1
    assert tally["mixed"] > 200
    assert tally[InfeasibleError] > 500 and tally[UnboundedError] > 300


# -- solve's counts and rays against a recount --------------------------------------


def _box_cut_program(rng, n):
    """A box in n variables, a cut through its centre and a hinge objective.

    Half the boxes are sheared: they bound u_i = x_i - x_{i+1} (i < n - 1)
    and u_{n-1} = x_{n-1} instead of x_i.  The cut comes with a repeated
    copy (scaled by 2) or a parallel one, so many subsets of planes are
    singular.  Two programs in three lose the upper bound of one or two
    coordinates, which often leaves the region unbounded, with one or more
    extreme rays.
    """
    shear = rng.randrange(2)
    rows, centre = [], [0] * n
    for i in reversed(range(n)):
        hi = 2 * rng.randint(1, 2)
        e = [int(j == i) - shear * int(j == i + 1) for j in range(n)]
        rows[:0] = [([-v for v in e], 0), (e, hi)]
        centre[i] = hi // 2 + (shear * centre[i + 1] if i + 1 < n else 0)
    a = [rng.randint(-2, 2) for _ in range(n)]
    b = sum(v * x for v, x in zip(a, centre)) + rng.randint(0, 2)
    rows += [(a, b), rng.choice([([2 * v for v in a], 2 * b), (a, b + 1)])]
    for i in sorted(rng.sample(range(n), rng.randrange(3)), reverse=True):
        del rows[2 * i + 1]  # the upper bound of x_i or u_i
    return program(
        num_vars=n,
        inequalities=rows,
        objective_linear=[rng.randint(-3, 3) for _ in range(n)],
        hinges=[
            (rng.choice([1, -1]), [rng.randint(-1, 1) for _ in range(n)], rng.randint(-1, 1))
            for _ in range(rng.randint(0, 1))
        ],
    )


def _recount(p):
    """(planes, subsets, singular, infeasible, feasible) of ``solve``, by brute
    force over every n-subset of the distinct boundary and +1 breakpoint
    planes, each solved by Cramer's rule.  Integer coefficients only."""
    n = p.num_vars
    rows = [([int(v) for v in a], int(b)) for a, b in p.inequalities]
    lines = rows + [([int(v) for v in h.coeffs], int(h.rhs)) for h in p.hinges if h.sign > 0]
    planes = {}
    for a, b in lines:
        if any(a):
            lead = next(v for v in a if v)
            planes.setdefault(tuple(Fraction(v, lead) for v in a + [b]), (a, b))
    counts = [len(planes), 0, 0, 0, 0]
    for subset in combinations(planes.values(), n):
        counts[1] += 1
        den = _det([a for a, _ in subset])
        if den == 0:
            counts[2] += 1
            continue
        num = [_det([a[:j] + [b] + a[j + 1 :] for a, b in subset]) for j in range(n)]
        if den < 0:
            den, num = -den, [-v for v in num]
        inside = all(sum(a_i * v for a_i, v in zip(a, num)) <= b * den for a, b in rows)
        counts[4 if inside else 3] += 1
    return tuple(counts)


def _extreme_rays(normals, n):
    """The primitive +-null generators of n - 1 of the nonzero integer normals
    with W . ray <= 0, the extreme rays of the recession cone when the
    normals span, up to the second found: enough to tell none, one or more."""
    rays = set()
    for subset in combinations(normals, n - 1):
        d = _null_generator(list(subset), n)
        if any(d):
            g = gcd(*d)
            for ray in (tuple(v // g for v in d), tuple(-v // g for v in d)):
                if all(sum(a_i * r_i for a_i, r_i in zip(a, ray)) <= 0 for a in normals):
                    rays.add(ray)
            if len(rays) > 1:
                break
    return rays


def _assert_names_a_ray(text, normals, rays):
    """``text`` names a primitive d != 0 with w . d <= 0 for every normal, and
    names the one extreme ray when ``rays`` holds exactly one; whether it did."""
    match = re.fullmatch(r"recession ray \((.*)\) detected", text)
    assert match, text
    d = tuple(int(v) for v in match[1].split(", "))
    assert any(d) and gcd(*d) == 1
    assert all(sum(a_i * r_i for a_i, r_i in zip(a, d)) <= 0 for a in normals)
    if len(rays) == 1:
        assert {d} == rays
    return len(rays) == 1


def test_solve_counts_and_rays_match_a_recount():
    rng = random.Random(20261019)
    singular = unbounded = 0
    for n in [4, 5, 6] * 4:
        p = _box_cut_program(rng, n)
        normals = [[int(v) for v in a] for a, _ in p.inequalities if any(a)]
        rays = _extreme_rays(normals, n)
        if not rays:
            counts = _recount(p)
            assert solve(p)[2:] == counts
            singular += counts[2]
        else:
            with pytest.raises(UnboundedError) as exc:
                solve(p)
            _assert_names_a_ray(str(exc.value), normals, rays)
            unbounded += 1
    assert singular > 0 and unbounded > 0


# -- the boundedness certificate against a recount ------------------------------------


def _rank(rows):
    """Rank of integer rows, by Fraction elimination."""
    rows = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is not None:
            rows.remove(pivot)
            rows = [[v - r[col] / pivot[col] * w for v, w in zip(r, pivot)] for r in rows]
            rank += 1
    return rank


def _unbounded_text(normals, m):
    """What ``_check_bounded`` must raise for these nonzero normals in m
    coordinates, by rank and by ``_extreme_rays``: None when they are
    bounded, the text of a line or a half line, or ``_extreme_rays``."""
    if _rank(normals) < m:
        return "constraint normals do not span; region contains a line"
    if m == 1:
        return None if len({w[0] > 0 for w in normals}) == 2 else "feasible interval is a half line"
    return _extreme_rays(normals, m) or None


def _normal_system(rng, m):
    """Nonzero integer normals in m coordinates: random ones, often too few
    to bound the region, sometimes all in one hyperplane; or the orthant
    t >= 0 with a far side whose normal is nonnegative, which bounds it only
    when every entry is positive, and at most one random normal."""
    rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(rng.randint(1, m + 2))]
    if rng.random() < 0.4:
        far = [rng.randint(rng.randrange(2), 3) for _ in range(m)]
        rows = [[-int(j == i) for j in range(m)] for i in range(m)] + [far] + rows[: rng.randrange(2)]
    elif m > 1 and rng.random() < 0.2:  # rank deficient: the last coordinate is unseen
        rows = [row[:-1] + [0] for row in rows]
    return [tuple(row) for row in rows if any(row)]


def test_boundedness_certificate_matches_a_recount():
    """``_check_bounded`` returns exactly when no recession ray exists, and
    otherwise raises the text of a recount, or names a ray of the cone."""
    rng = random.Random(20261023)
    tally = {"bounded": 0, "line": 0, "half line": 0, "ray": 0, "the one ray": 0}
    for _ in range(2400):
        m = rng.randint(1, 6)
        normals = _normal_system(rng, m)
        if not normals:
            continue
        want = _unbounded_text(normals, m)
        if want is None:
            _check_bounded(normals, m)
            tally["bounded"] += 1
            continue
        with pytest.raises(UnboundedError) as exc:
            _check_bounded(normals, m)
        if isinstance(want, set):
            tally["ray"] += 1
            tally["the one ray"] += _assert_names_a_ray(str(exc.value), normals, want)
        else:
            assert str(exc.value) == want
            tally["half line" if "half" in want else "line"] += 1
    assert tally["bounded"] > 500 and tally["ray"] > 500 and tally["the one ray"] > 100
    assert tally["line"] > 100 and tally["half line"] > 100
    # the presets are certified by the certificate alone
    for name in PRESET_NAMES:
        r = _region(preset(name))
        assert _stiemke([w for w, _ in r.ineq], len(r.free)) is None


def test_simplex_in_many_variables_solves_fast():
    # x >= 0 and sum x <= 1 in 70 variables: 70 normals and their sum
    n = 70
    spec = {
        "vars": n,
        "le": [[-int(j == i) for j in range(n)] + [0] for i in range(n)] + [[1] * n + [1]],
        "obj": {"lin": [(-1) ** i * (i + 1) for i in range(n)]},
    }
    start = time.perf_counter()
    sol = solve(program_from_json(spec))
    assert time.perf_counter() - start < 0.6
    assert sol.min_value == -n and sol[2:] == (n + 1, n + 1, 0, 0, n + 1)


# -- the direction walk against a recount ---------------------------------------------


def _parallel_program(rng, n):
    """A box in n variables whose planes lie in few normal directions.

    Each coordinate direction holds the box's two sides and a +1 breakpoint
    of e_i, 2 e_i or 3 e_i; each random form f (two at most, one at n = 4,
    to keep the recount short) holds a cut by f, a cut by 2 f and hinges
    of f, 2 f and 3 f, most of sign +1.  So most directions hold three or
    more planes, normals such as (1, 2) and (2, 4) are parallel, and both
    cuts keep the origin feasible.
    """
    rows, hinges = [], []
    for i in range(n):
        e = [int(j == i) for j in range(n)]
        hi = rng.randint(2, 4)
        s = rng.randint(1, 3)
        rows += [([-v for v in e], 0), (e, hi)]
        hinges.append((1, [s * v for v in e], rng.randint(1, s * hi - 1)))
    for _ in range(rng.randint(1, 2) if n < 4 else 1):
        f = [rng.randint(-2, 2) for _ in range(n)]
        rows += [(f, rng.randint(0, 3)), ([2 * v for v in f], rng.randint(0, 7))]
        for s in (1, 2, 3):
            hinges.append((rng.choice([1, 1, -1]), [s * v for v in f], rng.randint(-2, 2 * s)))
    return program(
        num_vars=n,
        inequalities=rows,
        objective_linear=[rng.randint(-3, 3) for _ in range(n)],
        hinges=hinges,
    )


def _reduced_minimum(p):
    """(min, argmins) over the feasible vertices of the boundary and +1
    breakpoint planes, each n-subset solved by Cramer's rule.  Integer
    coefficients only."""
    n = p.num_vars
    rows = [([int(v) for v in a], int(b)) for a, b in p.inequalities]
    lines = rows + [([int(v) for v in h.coeffs], int(h.rhs)) for h in p.hinges if h.sign > 0]
    values = {}
    for subset in combinations([(a, b) for a, b in lines if any(a)], n):
        den = _det([a for a, _ in subset])
        if den == 0:
            continue
        x = tuple(Fraction(_det([a[:j] + [b] + a[j + 1 :] for a, b in subset]), den) for j in range(n))
        if all(sum(a_i * x_i for a_i, x_i in zip(a, x)) <= b for a, b in rows):
            values[x] = objective_value(p, x)
    low = min(values.values())
    return low, tuple(sorted(x for x, v in values.items() if v == low))


def test_direction_walk_matches_a_recount_over_plane_subsets():
    """Solving parallel planes together keeps the minimum, the argmins and
    every count of a walk over all m-subsets of planes."""
    rng = random.Random(20261022)
    # the three-simplex with a +1 breakpoint: every plane has its own direction
    distinct = program(
        num_vars=3,
        inequalities=[([-1, 0, 0], 0), ([0, -1, 0], 0), ([0, 0, -1], 0), ([1, 1, 1], 1)],
        objective_linear=[1, -2, 1],
        hinges=[(1, [1, 2, 3], 1)],
    )
    # m = 1: every plane is parallel to every other
    line = program(
        num_vars=1,
        inequalities=[([-1], 0), ([2], 7), ([-3], 1)],
        objective_linear=[-1],
        hinges=[(1, [2], 3), (1, [3], 2), (1, [4], 6), (-1, [1], 1)],
    )
    singular = 0
    for p in [distinct, line] + [_parallel_program(rng, n) for n in [1, 2, 3, 4] * 5]:
        sol = solve(p)
        counts = _recount(p)
        assert sol[2:] == counts
        assert (sol.min_value, sol.argmin_points) == _reduced_minimum(p)
        singular += counts[2]
    assert singular > 0


def test_pinned_edge_counts():
    # m = 0: the equalities pin the point, the one empty subset is its vertex
    # and the +1 breakpoint is constant on the subspace, so it adds no plane
    point = program(
        num_vars=2,
        equalities=[([1, 1], 3), ([1, -1], 1)],
        inequalities=[([1, 0], 5)],
        hinges=[(1, [1, 0], 1)],
    )
    assert tuple(solve(point)) == (1, ((2, 1),), 0, 1, 0, 0, 1)
    # 0 <= x <= 1 with +1 breakpoints at 1/2, at 3 (outside) and at 1 (the
    # boundary again), and a -1 breakpoint at 1/4, which is not enumerated
    interval = program(
        num_vars=1,
        inequalities=[([-1], 0), ([1], 1)],
        objective_linear=[1],
        hinges=[(1, [-2], -1), (1, [1], 3), (1, [2], 2), (-1, [4], 1)],
    )
    assert tuple(solve(interval)) == (-2, ((1,),), 4, 4, 0, 1, 3)


def test_walk_depth_is_not_bounded_by_the_recursion_limit():
    # a 30-variable simplex: every vertex is a subset of 30 planes
    n = 30
    p = program(
        num_vars=n,
        inequalities=[([-int(j == i) for j in range(n)], 0) for i in range(n)] + [([1] * n, 1)],
        objective_linear=[(-1) ** i * (i + 1) for i in range(n)],
    )
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 25)
    try:
        sol = solve(p)
    finally:
        sys.setrecursionlimit(limit)
    assert sol[2:] == (31, 31, 0, 0, 31)
    assert sol.min_value == -30
    assert sol.argmin_points == (tuple(int(i == 29) for i in range(n)),)
