"""Splitting-type combinatorics, codimension formulas, strata enumeration."""

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import itemgetter

import pytest

from cecalc import MAX_DIGITS, hurwitz, plmin
from cecalc.gring import RingSpec
from cecalc.splitting import (
    MAX_STRATA_CANDIDATES,
    SplittingType,
    codim_hurwitz4,
    codim_hurwitz5,
    constraints_4,
    constraints_5,
    enumerate_strata4,
    h1,
    negative_summand_count5,
    sym2_type,
    tensor_type,
    wedge2_type,
)


def balanced_type(rank, degree):
    """The most balanced splitting type of the given rank and degree."""
    q, r = divmod(degree, rank)
    return SplittingType([q] * (rank - r) + [q + 1] * r)


def h0(t):
    """h^0 = sum of max(0, e_i + 1), written out to check h1 against."""
    return sum(max(0, e + 1) for e in SplittingType(t).parts)


def random_type(rng, rank, lo=-5, hi=9):
    return SplittingType(rng.randint(lo, hi) for _ in range(rank))


def random_type_of_degree(rng, rank, degree, lo=-3):
    cuts = [rng.randint(lo, degree) for _ in range(rank - 1)]
    parts = []
    prev = 0
    for c in sorted(cuts):
        parts.append(c - prev)
        prev = c
    parts.append(degree - prev)
    return SplittingType(parts)


# -- cohomology ----------------------------------------------------------------


def test_h0_h1_line_bundle_values():
    assert h0([3]) == 4 and h1([3]) == 0
    assert h1([-3]) == 2
    assert h0([-1]) == 0 and h1([-1]) == 0
    assert h1(d for d in (-3, 0, -1, -2)) == 3  # any iterable, in any order


def test_riemann_roch_on_random_types():
    rng = random.Random(31)
    for _ in range(200):
        t = random_type(rng, rng.randint(1, 6))
        assert h0(t) - h1(t) == sum(t) + len(t)


# -- summand-wise constructions --------------------------------------------------


def test_constructors_sort_and_enumerate():
    assert SplittingType([4, 1, 3]).parts == (1, 3, 4)
    assert sym2_type([2, 3, 4]).parts == (4, 5, 6, 6, 7, 8)
    assert len(wedge2_type([1, 2, 3, 4, 5])) == 10
    assert tensor_type([1, 2], [0, 5]).parts == (1, 2, 6, 7)
    assert tensor_type(iter([2, 1]), iter([5, 0])).parts == (1, 2, 6, 7)


def test_splitting_type_is_the_sorted_tuple():
    t = SplittingType([3, 1, 2])
    assert t == (1, 2, 3) and (1, 2, 3) == t
    assert hash(t) == hash((1, 2, 3))
    assert {(1, 2, 3): "x"}[t] == "x" and {t: "y"}[(1, 2, 3)] == "y"
    assert t != [1, 2, 3]
    assert type(t.parts) is tuple and t.parts == (1, 2, 3)
    assert (1, 2) < t < (1, 2, 4) < SplittingType([9, 2, 1])
    assert sorted([SplittingType([2, 2]), t, (0, 5)]) == [(0, 5), (1, 2, 3), (2, 2)]
    for parts in ([3, 1, 2], [-4, 0, -1, 7], [-2]):
        s = SplittingType(parts)
        assert SplittingType.parse(s.text()) == s
        assert type(SplittingType.parse(s.text())) is SplittingType
    assert SplittingType([-4, 0, -1, 7]).text() == "-4,-1,0,7"


@pytest.mark.parametrize("part", [1.7, "1", 2.9])
def test_a_part_that_is_not_an_integer_is_refused_by_name(part):
    # int() would truncate 1.7 to 1 or parse '1', and answer for another type
    message = f"splitting type part {part!r} is not an integer"
    calls = [
        lambda: SplittingType([part, 4, 4]),
        lambda: SplittingType(iter([4, part])),
        lambda: codim_hurwitz4([part, 4, 4], [2, 7]),
        lambda: codim_hurwitz4([1, 4, 4], [2, part]),
        lambda: constraints_4((1, 4, part), (2, 7)),
        lambda: codim_hurwitz5([1, 1, 1, part], [1, 1, 2, 2, 4], 2),
        lambda: constraints_5((1, 1, 1, 3), (1, 1, 2, 2, part), 2),
        lambda: negative_summand_count5([part, 1, 1, 3], (1, 1, 2, 2, 4), 2),
        lambda: sym2_type([part, 2]),
        lambda: tensor_type([part, 2], [1]),
        lambda: tensor_type([1], [2, part]),
        lambda: wedge2_type([2, part, 3]),
    ]
    for call in calls:
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message
    # a bool is an int, as operator.index reads it
    assert SplittingType([2, True]) == (1, 2)
    assert codim_hurwitz4([True, 4, 4], [2, 7]) == codim_hurwitz4([1, 4, 4], [2, 7])


_BOX = plmin.program(1, inequalities=[([1], 1), ([-1], 0)], objective_linear=[1])

# Every integer argument of the layers: what its refusal calls it, a call
# that passes a value in its place, and whether it has a lower bound.
INTEGER_ARGUMENTS = {
    "presentation k": ("covering degree", lambda v: hurwitz.presentation(v, 7), False),
    "presentation genus": ("genus", lambda v: hurwitz.presentation(4, v), True),
    "ce_setup k": ("covering degree", lambda v: hurwitz.ce_setup(v, 7), False),
    "ce_setup genus": ("genus", lambda v: hurwitz.ce_setup(4, v), True),
    "ce_setup truncation": ("truncation", lambda v: hurwitz.ce_setup(4, 7, v), True),
    "ce_rank k": ("covering degree", lambda v: hurwitz.ce_rank(1, v), True),
    "ce_rank i": ("index", lambda v: hurwitz.ce_rank(v, 5), False),
    "kappa index": ("kappa index", lambda v: hurwitz.kappa(hurwitz.ce_setup(3, 2, 4), v), True),
    "kappa_value k": ("covering degree", lambda v: hurwitz.kappa_value(v, 2, 7), False),
    "kappa_value index": ("kappa index", lambda v: hurwitz.kappa_value(4, v, 7), False),
    "bound k": ("covering degree", lambda v: plmin.bound(v, 7, "H_circ"), False),
    "bound genus": ("genus", lambda v: plmin.bound(4, v, "H_circ"), True),
    "sample_check trials": ("trials", lambda v: plmin.sample_check(_BOX, v, 0, [0]), True),
    "program num_vars": ("the number of variables", lambda v: plmin.program(v), True),
    "RingSpec degree": ("degree of generator 'x'", lambda v: RingSpec([("x", v)], 3), False),
    "RingSpec truncation": ("truncation order", lambda v: RingSpec([("x", 1)], v), True),
    "codim_hurwitz5 genus": (
        "genus", lambda v: codim_hurwitz5([1, 1, 1, 3], [1, 1, 2, 2, 6], v), True
    ),
    "enumerate_strata4 genus": ("genus", lambda v: enumerate_strata4(v), True),
}


@pytest.mark.parametrize("name", INTEGER_ARGUMENTS)
def test_an_integer_argument_that_is_not_an_integer_is_refused_by_name(name):
    # as for a part: 6.5 is not truncated to 6, nor '7' or Fraction(7) read as 7,
    # so bound(4, 6.5, "H_circ") is refused rather than answered with a float
    what, call, bounded = INTEGER_ARGUMENTS[name]
    for value in (6.5, "7", Fraction(7)):
        with pytest.raises(ValueError) as exc:
            call(value)
        assert str(exc.value) == f"{what} {value!r} is not an integer"
    if bounded:  # a value below the bound too long to print is refused by name
        with pytest.raises(ValueError) as exc:
            call(-(10**5000))
        assert str(exc.value) == f"{what} has more than {MAX_DIGITS} digits"


def test_sym2_and_wedge2_partition_the_square():
    rng = random.Random(8)
    for _ in range(100):
        t = random_type(rng, rng.randint(1, 5))
        square = sorted(tensor_type(t, t).parts)
        split = sorted(sym2_type(t).parts + wedge2_type(t).parts)
        assert split == square


# -- codimension formulas ---------------------------------------------------------


def test_codim_quartic_examples_from_genus_six():
    assert codim_hurwitz4([3, 3, 3], [4, 5]) == 0
    assert codim_hurwitz4([2, 3, 4], [4, 5]) == 1
    assert codim_hurwitz4([1, 4, 4], [2, 7]) == 2  # 4 + 4 - 6


def test_codim_quartic_validates_ranks():
    with pytest.raises(ValueError, match="ranks"):
        codim_hurwitz4([1, 2], [3, 4])


def _recount_quartic(e, f):
    """Independent oracle: raw double loops over summand degrees."""
    e, f = sorted(e), sorted(f)
    ends = 0
    for u in e:
        for v in e:
            ends += max(0, u - v - 1)
    for u in f:
        for v in f:
            ends += max(0, u - v - 1)
    mixed = 0
    for i in range(3):
        for j in range(i, 3):
            for fl in f:
                mixed += max(0, fl - e[i] - e[j] - 1)
    return ends - mixed


def _recount_quintic(e, f, g):
    e, f = sorted(e), sorted(f)
    ends = 0
    for seq in (e, f):
        for u in seq:
            for v in seq:
                ends += max(0, u - v - 1)
    mixed = 0
    for ei in e:
        for j in range(5):
            for k in range(j + 1, 5):
                mixed += max(0, (g + 4) - ei - f[j] - f[k] - 1)
    return ends - mixed


def test_codim_formulas_match_independent_recount():
    rng = random.Random(99)
    for _ in range(300):
        e = random_type(rng, 3)
        f = random_type(rng, 2)
        assert codim_hurwitz4(e, f) == _recount_quartic(e.parts, f.parts)
    for _ in range(300):
        g = rng.randint(2, 25)
        e = random_type_of_degree(rng, 4, g + 4)
        f = random_type_of_degree(rng, 5, 2 * g + 8)
        assert codim_hurwitz5(e, f, g) == _recount_quintic(e.parts, f.parts, g)


def test_codim_quintic_balanced_types_are_generic():
    for g in (16, 20, 36, 40):
        e = balanced_type(4, g + 4)
        f = balanced_type(5, 2 * g + 8)
        assert codim_hurwitz5(e, f, g) == 0


def test_codim_quintic_validates_degrees():
    with pytest.raises(ValueError, match="degrees"):
        codim_hurwitz5([1, 4, 4, 4], [5, 5, 6, 6, 6], 9)  # degree mismatch at g=9
    with pytest.raises(ValueError, match="genus must be >= 2, got -1"):
        codim_hurwitz5([0, 0, 0, 3], [0, 0, 0, 0, 6], -1)  # degrees match g = -1


# -- constraint predicates ----------------------------------------------------------


def test_quartic_constraints_examples():
    flags = constraints_4([1, 3, 5], [4, 5])
    assert not flags.pencil_bound_f1  # 2 e1 = 2 < 4
    assert not flags.irreducible_ok

    flags = constraints_4([2, 3, 4], [3, 6])
    assert flags.pencil_bound_f1 and flags.pencil_bound_f2
    assert flags.non_factoring  # e1 + e3 - f2 = 0 passes
    assert flags.irreducible_ok and flags.non_factoring_ok


def test_quartic_constant_quadric_case_is_not_irreducible():
    # passes both pencil bounds but the lower quadric is a constant binary
    # form in the top coordinates, so no irreducible cover exists
    flags = constraints_4([1, 4, 4], [1, 8])
    assert flags.pencil_bound_f1 and flags.pencil_bound_f2
    assert not flags.second_quadric_varies
    assert not flags.irreducible_ok


def test_quintic_constraints_balanced_and_memberships():
    g = 16
    e = balanced_type(4, g + 4)
    f = balanced_type(5, 2 * g + 8)
    flags = constraints_5(e, f, g)
    assert flags.degrees_match
    assert flags.pfaffian_ok
    assert flags.in_h_prime and flags.in_h_circ


def test_quintic_membership_thresholds():
    g = 10
    e = SplittingType([1, 1, 6, 6])
    f = SplittingType([5, 5, 6, 6, 6])
    flags = constraints_5(e, f, g)
    assert flags.pfaffian_ok  # all three stated inequalities hold ...
    assert not flags.in_h_prime  # ... yet the type is deep in the bad locus
    assert negative_summand_count5(e, f, g) == 20


def test_quintic_u_bundle_has_forty_summands():
    g = 9
    e = random_type_of_degree(random.Random(1), 4, g + 4)
    f = random_type_of_degree(random.Random(2), 5, 2 * g + 8)
    assert negative_summand_count5(e, f, 3 * g + 30) == 40  # every summand negative
    assert negative_summand_count5(balanced_type(4, 20), balanced_type(5, 40), 16) == 0


def _hom_f_sym2_e(e, f):
    """The 12 summand degrees e_a + e_b - f_l of Hom(f, Sym^2 e), a <= b."""
    return [e[a] + e[b] - fl for a in range(3) for b in range(a, 3) for fl in f]


def _quintic_summands(e, f, g):
    """The 40 summand degrees e_i + f_j + f_k - (g+4), j < k."""
    return [ei + f[j] + f[k] - (g + 4) for ei in e for j in range(5) for k in range(j + 1, 5)]


def test_flags_match_their_all_summand_definitions():
    rng = random.Random(77)
    seen = set()
    for _ in range(400):
        e = [rng.randint(-5, 8) for _ in range(3)]  # unsorted, with negative parts
        f = [rng.randint(-5, 8) for _ in range(2)]
        u = _hom_f_sym2_e(e, f)
        flags = constraints_4(e, f)
        assert flags.in_h_prime == all(d >= -1 for d in u)
        assert flags.in_h_circ == all(d >= 1 for d in u)
        seen.add(("4", flags.in_h_prime, flags.in_h_circ))
    for _ in range(400):
        g = rng.randint(2, 20)
        base = (g + 4) // 3
        e = [base + rng.randint(-4, 4) for _ in range(4)]
        f = [base + rng.randint(-4, 4) for _ in range(5)]
        u = _quintic_summands(e, f, g)
        flags = constraints_5(e, f, g)
        assert flags.in_h_prime == all(d >= -1 for d in u)
        assert flags.in_h_circ == (all(d >= 1 for d in u) and min(f) >= 0)
        assert negative_summand_count5(e, f, g) == sum(1 for d in u if d < 0)
        seen.add(("5", flags.in_h_prime, flags.in_h_circ))
    # every reachable combination of the two flags was exercised
    assert seen == {(k, p, c) for k in "45" for p, c in ((False, False), (True, False), (True, True))}


def _forms(parts, rng):
    """The parts as a SplittingType, an unsorted list, a reversed tuple and a
    generator (each form built afresh, so the generator is unused)."""
    shuffled = list(parts)
    rng.shuffle(shuffled)
    return [
        lambda: SplittingType(parts),
        lambda: list(shuffled),
        lambda: tuple(sorted(parts, reverse=True)),
        lambda: (p for p in shuffled),
    ]


def test_every_input_form_gives_the_inline_recount():
    rng = random.Random(2026)
    for _ in range(150):
        e, f = sorted(rng.randint(-5, 9) for _ in range(3)), sorted(rng.randint(-5, 9) for _ in range(2))
        (e1, e2, e3), (f1, f2) = e, f
        u = _hom_f_sym2_e(e, f)
        want = (
            (
                e1 + e2 + e3 == f1 + f2,
                e1 >= 1,
                2 * e1 >= f1,
                2 * e2 >= f2,
                not (e1 + e3 < f2 and 2 * e3 <= f2),
                e1 + e3 >= f2,
                all(d >= -1 for d in u),
                all(d >= 1 for d in u),
            ),
            _recount_quartic(e, f),
        )
        for e_form, f_form in zip(_forms(e, rng), _forms(f, rng)):
            got = tuple(constraints_4(e_form(), f_form())), codim_hurwitz4(e_form(), f_form())
            assert got == want
    for _ in range(150):
        g = rng.randint(2, 20)
        e = list(random_type_of_degree(rng, 4, g + 4 + rng.choice((0, 0, 1))))
        f = list(random_type_of_degree(rng, 5, 2 * g + 8))
        (e1, e2, e3, e4), (f1, f2, f3, f4, f5) = e, f
        u = _quintic_summands(e, f, g)
        flags = (
            sum(e) == g + 4 and sum(f) == 2 * g + 8,
            f1 + f3 + e4 >= g + 4,
            f1 + f4 + e3 >= g + 4,
            f2 + f3 + e3 >= g + 4,
            all(d >= -1 for d in u),
            all(d >= 1 for d in u) and f1 >= 0,
        )
        negative = sum(1 for d in u if d < 0)
        for e_form, f_form in zip(_forms(e, rng), _forms(f, rng)):
            assert tuple(constraints_5(e_form(), f_form(), g)) == flags
            assert negative_summand_count5(e_form(), f_form(), g) == negative
            if flags[0]:
                assert codim_hurwitz5(e_form(), f_form(), g) == _recount_quintic(e, f, g)
    for e_form in _forms([1, 2, 3], rng):
        for call in (constraints_5, negative_summand_count5, codim_hurwitz5):
            with pytest.raises(ValueError) as exc:
                call(e_form(), [1, 2, 3, 4, 5], 5)
            assert str(exc.value) == "need ranks (4, 5), got (3, 5)"


class _Parts(tuple):
    """A tuple subclass that is not a SplittingType."""


def _input_forms(parts):
    """``parts`` in each form a caller may pass, each built afresh."""
    return {
        "tuple": lambda: tuple(parts),
        "list": lambda: list(parts),
        "generator": lambda: (p for p in parts),
        "SplittingType": lambda: SplittingType(parts),
        "tuple subclass": lambda: _Parts(parts),
    }


# Each validated function at an unsorted (e, f), its ranks and its value.
VALIDATED = {
    "constraints_4": (
        lambda e, f: tuple(constraints_4(e, f)), (4, 1, 4), (7, 2), (3, 2),
        (True, True, True, True, True, False, False, False),
    ),
    "codim_hurwitz4": (codim_hurwitz4, (4, 1, 4), (7, 2), (3, 2), 2),
    "constraints_5": (
        lambda e, f: tuple(constraints_5(e, f, 10)), (9, 1, 3, 1), (6, 5, 6, 5, 6), (4, 5),
        (True, True, True, True, False, False),
    ),
    "codim_hurwitz5": (lambda e, f: codim_hurwitz5(e, f, 10), (9, 1, 3, 1), (6, 5, 6, 5, 6), (4, 5), 5),
    "negative_summand_count5": (
        lambda e, f: negative_summand_count5(e, f, 10), (9, 1, 3, 1), (6, 5, 6, 5, 6), (4, 5), 21,
    ),
}


@pytest.mark.parametrize("name", VALIDATED)
def test_pair_validation_keeps_its_results_and_texts(name):
    call, e, f, ranks, want = VALIDATED[name]
    for form in _input_forms(e).values():
        assert call(form(), f) == want
    for form in _input_forms(f).values():
        assert call(e, form()) == want
    for bad in (1.7, "1"):
        for side in (0, 1):
            pair = [list(e), list(f)]
            pair[side][1] = bad
            forms = _input_forms(pair[side])
            for label in ("tuple", "list", "generator", "tuple subclass"):
                pair[side] = forms[label]()
                with pytest.raises(ValueError) as exc:
                    call(*pair)
                assert str(exc.value) == f"splitting type part {bad!r} is not an integer"
    rank_e, rank_f = ranks
    for got, pair in (
        ((rank_e + 1, rank_f), (e + (1,), f)),
        ((rank_e, rank_f - 1), (e, f[1:])),
        ((rank_e - 1, rank_f), (SplittingType(e[1:]), SplittingType(f))),
    ):
        with pytest.raises(ValueError) as exc:
            call(*pair)
        assert str(exc.value) == f"need ranks {ranks}, got {got}"


# -- strata enumeration ---------------------------------------------------------------


def test_genus_six_strata_match_the_published_table():
    rows = enumerate_strata4(6, "irreducible")
    got = [(r.e.parts, r.f.parts, r.codim) for r in rows]
    assert got == [
        ((3, 3, 3), (4, 5), 0),
        ((2, 3, 4), (4, 5), 1),
        ((1, 4, 4), (2, 7), 2),
        ((2, 3, 4), (3, 6), 2),
        ((3, 3, 3), (3, 6), 2),
    ]


def test_genus_six_good_open_memberships():
    rows = enumerate_strata4(6, "irreducible")
    prime = {(r.e.parts, r.f.parts) for r in rows if r.flags.in_h_prime}
    circ = {(r.e.parts, r.f.parts) for r in rows if r.flags.in_h_circ}
    assert prime == {((3, 3, 3), (4, 5)), ((2, 3, 4), (4, 5)), ((3, 3, 3), (3, 6))}
    assert circ == {((3, 3, 3), (4, 5))}


def test_non_factoring_filter_drops_the_hyperelliptic_stratum():
    rows = enumerate_strata4(6, "non_factoring")
    labels = {(r.e.parts, r.f.parts) for r in rows}
    assert ((1, 4, 4), (2, 7)) not in labels
    assert len(rows) == 4


def test_balanced_stratum_heads_every_table():
    for g in range(2, 15):
        rows = enumerate_strata4(g, "irreducible")
        assert rows, f"no strata at genus {g}"
        assert rows[0].codim == 0
        assert rows[0].e == balanced_type(3, g + 3)
        assert all(r.codim >= 0 for r in rows)


def test_enumerate_validates_arguments():
    with pytest.raises(ValueError, match="genus"):
        enumerate_strata4(1)
    with pytest.raises(ValueError, match="filter"):
        enumerate_strata4(6, "everything")


def _brute_strata4(genus, filter):
    """Every sorted candidate, recounted and flagged summand by summand."""
    d = genus + 3
    es = [e for e in combinations_with_replacement(range(1, d + 1), 3) if sum(e) == d]
    fs = [f for f in combinations_with_replacement(range(1, d + 1), 2) if sum(f) == d]
    rows = []
    for e in es:
        for f in fs:
            u = _hom_f_sym2_e(e, f)
            flags = (
                True,  # degrees match and e_1 >= 1 by construction
                True,
                2 * e[0] >= f[0],
                2 * e[1] >= f[1],
                not (e[0] + e[2] < f[1] and 2 * e[2] <= f[1]),
                e[0] + e[2] >= f[1],
                all(x >= -1 for x in u),
                all(x >= 1 for x in u),
            )
            irreducible = all(flags[:5])
            if filter == "irreducible" and not irreducible:
                continue
            if filter == "non_factoring" and not (irreducible and flags[5]):
                continue
            rows.append((_recount_quartic(e, f), e, f, flags))
    return sorted(rows)


@pytest.mark.parametrize("filter", ["all", "irreducible", "non_factoring"])
def test_enumeration_matches_a_brute_force_recount(filter):
    for g in range(2, 41):
        got = [(r.codim, r.e.parts, r.f.parts, tuple(r.flags)) for r in enumerate_strata4(g, filter)]
        assert got == _brute_strata4(g, filter), f"genus {g}"


@pytest.mark.parametrize("genus", [*range(41, 91, 7), 120])
def test_filtered_tables_are_the_full_table_filtered(genus):
    # the filtered views visit only the pencil range 2 e_1 >= f_1, 2 e_2 >= f_2
    full = enumerate_strata4(genus, "all")
    for filter, keep in (
        ("irreducible", lambda flags: flags.irreducible_ok),
        ("non_factoring", lambda flags: flags.non_factoring_ok),
    ):
        table = enumerate_strata4(genus, filter)
        assert table == [r for r in full if keep(r.flags)], (genus, filter)
        # rows on either edge of the range are kept whenever they pass
        for edge in (lambda r: r.f[0] == 2 * r.e[0], lambda r: r.f[1] == 2 * r.e[1]):
            passing = [r for r in full if edge(r) and keep(r.flags)]
            assert passing, (genus, filter)
            assert [r for r in table if edge(r)] == passing, (genus, filter)


@pytest.mark.parametrize("genus", [41, 90, 150])
def test_rows_come_sorted_by_codim_then_e_then_f(genus):
    # the loop visits (e, f) in increasing order, so its one stable sort by
    # codim orders the rows by (codim, e, f)
    for filter in ("all", "irreducible", "non_factoring"):
        rows = enumerate_strata4(genus, filter)
        assert rows == sorted(rows, key=itemgetter(2, 0, 1)), filter


def test_candidate_count_is_the_loop_over_e1(monkeypatch):
    # with the limit at 0 every genus is refused, and its message gives the count
    monkeypatch.setattr("cecalc.splitting.MAX_STRATA_CANDIDATES", 0)
    for d in range(5, 2000):
        loop = sum((d - e1) // 2 - e1 + 1 for e1 in range(1, d // 3 + 1)) * (d // 2)
        with pytest.raises(ValueError, match=f"^genus {d - 3} has {loop} candidate strata, "):
            enumerate_strata4(d - 3, "all")


def test_enumerate_refuses_an_oversized_search_before_enumerating():
    # genus 619: 32 240 e types times 311 f types, the first genus over the limit
    with pytest.raises(ValueError, match=f"10026640 candidate strata, .* {MAX_STRATA_CANDIDATES}"):
        enumerate_strata4(619, "all")
