"""Cover-class machinery: setup rings, curve class, kappa classes, ranks."""

from fractions import Fraction
from math import comb

import pytest

from cecalc import hurwitz
from cecalc.bundles import ZetaClass, dual, fiber_text, push_gamma, split
from cecalc.hurwitz import (
    KAPPA_INDEX_LIMIT,
    ce_rank,
    ce_setup,
    curve_class,
    curve_class_value,
    kappa,
    kappa_value,
    presentation,
)
from zeta_oracle import chern_of, e_char, kappa_reference, lift


# -- setup rings ---------------------------------------------------------------


def test_setup_generators_for_each_degree():
    s3 = ce_setup(3, genus=7, truncation=5)
    assert s3.ring.names == ("c2", "a1", "a2", "a2'")
    assert s3.ring.degrees == (2, 1, 2, 1)

    s4 = ce_setup(4, genus=7, truncation=6)
    assert len(s4.ring.names) == 8
    assert s4.ring.degrees == (2, 1, 2, 3, 1, 2, 2, 1)

    s5 = ce_setup(5, genus=7, truncation=7)
    # c2, a1..a4, a2'..a4', b2..b5, b2'..b5'
    assert len(s5.ring.names) == 16


def test_symbolic_setup_adds_weight_zero_genus():
    s = ce_setup(3, genus=None, truncation=5)
    assert s.ring.names[-1] == "g"
    assert s.ring.degrees[-1] == 0
    assert s.genus is None


def test_setup_bakes_in_the_degree_identity():
    # a1' = g + k - 1, so ch_1(E) has z-part of that constant
    s = ce_setup(4, genus=9, truncation=5)
    c1 = chern_of(e_char(s))[0]
    assert split(c1) == (s.ring.gen("a1"), s.ring.const(12))


def test_quartic_f_shares_first_chern_data_with_e():
    s = ce_setup(4, genus=6, truncation=5)
    assert chern_of(s.f_char)[0] == chern_of(e_char(s))[0]  # b1 = a1, b1' = a1'


def test_quintic_f_doubles_first_chern_data():
    s = ce_setup(5, genus=6, truncation=6)
    assert chern_of(s.f_char)[0] == chern_of(e_char(s))[0] * 2  # b1 = 2 a1


def test_setup_rejects_bad_degree_and_truncation():
    with pytest.raises(ValueError, match="unsupported"):
        ce_setup(6, genus=5)
    with pytest.raises(ValueError, match="truncation"):
        ce_setup(3, genus=5, truncation=1)


# -- universal curve class -----------------------------------------------------


def test_trigonal_curve_class_closed_form():
    s = ce_setup(3, genus=None, truncation=5)
    got = curve_class(s)
    c1e = chern_of(e_char(s))[0]
    want = ZetaClass([-c1e, c1e.ring.const(3)])  # 3 zeta - c1(E)
    assert got == want


def test_quartic_curve_class_is_twisted_second_chern_class():
    # c2(F^v(2)) = c2(F^v) + 2 zeta c1(F^v) + 4 zeta^2
    s = ce_setup(4, genus=None, truncation=6)
    fv = chern_of(dual(s.f_char))
    want = ZetaClass([fv[1], fv[0] * 2, fv[0].ring.const(4)])
    assert curve_class(s) == want


def test_quintic_curve_class_is_the_harris_tu_skew_class():
    # At degree 5, C is where the skew map F^v (x) det E(-3) -> F(-2) has
    # rank <= 2, a section of wedge^2 F (x) M with M = O(zeta) (x) det E^v.
    # Harris-Tu: its class is c1 c2 - c3 of F (x) L, L^2 = M, expanded as
    # c_j(F (x) L) = sum_m C(5 - m, j - m) c_m(F) c1(L)^(j - m) with
    # c1(L) = (zeta - c1(E)) / 2.  The zeta-degree stays below r = 4, so no
    # relation is needed.  Each class is a dict {zeta power: coefficient}.
    s = ce_setup(5, genus=None, truncation=7)
    ring = s.e_chern[0].ring
    c1_l = {0: s.e_chern[0] * Fraction(-1, 2), 1: ring.const(Fraction(1, 2))}

    def add(a, b, scale=1):  # a + scale * b, in place
        for d, x in b.items():
            a[d] = a.get(d, ring.zero()) + x * scale
        return a

    def mul(a, b):
        out = {}
        for i, x in a.items():
            add(out, {i + j: x * y for j, y in b.items()})
        return out

    def twisted_chern(j):
        acc = {}
        for m in range(j + 1):
            term = {0: s.f_chern[m - 1] if m else ring.one()}
            for _ in range(j - m):
                term = mul(term, c1_l)
            add(acc, term, comb(5 - m, j - m))
        return acc

    c1, c2, c3 = (twisted_chern(j) for j in (1, 2, 3))
    skew = add(mul(c1, c2), c3, -1)
    assert max(skew) == 3
    assert curve_class(s) == ZetaClass([skew[d] for d in range(4)])


@pytest.mark.parametrize("k", [3, 4, 5])
def test_curve_class_pushes_to_covering_degree(k):
    s = ce_setup(k, genus=None, truncation=k + 2)
    c = curve_class(s)
    assert split(push_gamma(c)) == (s.ring.const(k), s.ring.zero())


@pytest.mark.parametrize("k", [3, 4, 5], ids=lambda k: f"k={k}")
def test_curve_class_needs_room_for_the_relation(k):
    # [C] has r = k - 1 zeta coefficients, and the rank-r relation of P(E^v)
    # needs truncation > r
    message = rf"truncation {k - 1} too small for a rank-{k - 1} relation"
    with pytest.raises(ValueError, match=message):
        curve_class(ce_setup(k, None, k - 1))
    with pytest.raises(ValueError, match=message):
        curve_class_value(k, 9, k - 1)
    assert len(curve_class(ce_setup(k, None, k)).coeffs) == k - 1


# -- kappa classes ---------------------------------------------------------------


def test_kappa0_trigonal_symbolic_closed_form():
    # full pipeline gives 2 a1' - 6 = 2(g+2) - 6 = 2g - 2
    s = ce_setup(3, genus=None, truncation=5)
    poly = kappa(s, 0).polynomial
    ring = s.ring
    assert poly == ring.gen("g") * 2 - ring.const(2)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("genus", [2, 7, 19])
def test_kappa0_is_euler_characteristic_identity(k, genus):
    poly = kappa_value(k, 0, genus)
    assert poly == poly.ring.const(2 * genus - 2)


@pytest.mark.parametrize("k,i", [(3, 1), (3, 2), (4, 1), (5, 1)])
def test_kappa_is_homogeneous_of_its_index(k, i):
    poly = kappa_value(k, i, genus=11)
    assert not poly.is_zero()
    assert poly.is_homogeneous(i)


@pytest.mark.parametrize("k,i", [(3, 1), (4, 1), (3, 2)])
def test_kappa_is_truncation_independent(k, i):
    lo = kappa_value(k, i, genus=None, truncation=i + k + 2)
    hi = kappa_value(k, i, genus=None, truncation=i + k + 4)
    assert all(hi.ring.weighted_degree(e) < lo.ring.truncation for e in hi.terms)
    assert hi.retruncate(lo.ring) == lo


# The (k, i) cells the benchmark's classes workload runs.
BENCH_CELLS = [(k, i) for k in (3, 4, 5) for i in range(6) if (k, i) not in ((5, 4), (5, 5))]


@pytest.mark.parametrize("k,i", BENCH_CELLS)
def test_kappa_value_matches_the_full_ring(k, i):
    # kappa_value lifts [C] from truncation k and pushes zeta forward through
    # the Segre classes; the reference builds [C] in the truncation-T ring
    # and multiplies and reduces there.
    for truncation in (i + k + 2, i + k + 4):
        s = ce_setup(k, 23, truncation)
        full = kappa_reference(curve_class(s), e_char(s), i)
        assert kappa_value(k, i, 23, truncation) == full


@pytest.mark.parametrize("k,i", [(3, 3), (4, 2), (5, 1), (5, 2)])
def test_symbolic_kappa_value_matches_the_full_ring(k, i):
    for truncation in (i + k + 2, i + k + 4):
        s = ce_setup(k, None, truncation)
        full = kappa_reference(curve_class(s), e_char(s), i)
        assert kappa_value(k, i, None, truncation) == full


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("genus", [None, 7, 40])
def test_segre_kappa_matches_the_reduced_product(k, genus):
    # the closed form against [C] . (zeta - 2z)^{i+1} multiplied and reduced
    # in the quotient ring, at the smallest truncation that holds kappa_i
    for i in range(7):
        s = ce_setup(k, genus, i + k)
        e = e_char(s)
        c_class = lift(curve_class_value(k, genus, k), e.ring)
        assert kappa(s, i).polynomial == kappa_reference(c_class, e, i)


@pytest.mark.parametrize("k", [3, 4, 5])
@pytest.mark.parametrize("genus", [None, 13])
def test_curve_class_at_the_smallest_truncation_matches_a_larger_one(k, genus):
    lo = curve_class(ce_setup(k, genus, k))
    hi = curve_class(ce_setup(k, genus, k + 2))
    for a, b in zip(lo.coeffs, hi.coeffs, strict=True):
        (pa, qa), (pb, qb) = split(a), split(b)
        assert pa.retruncate(pb.ring) == pb
        assert qa.retruncate(qb.ring) == qb
        assert fiber_text(a) == fiber_text(b)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_curve_class_value_is_the_class_at_truncation_k(k):
    want = curve_class(ce_setup(k, None, k))
    for truncation in (k, k + 2, k + 5):
        got = curve_class_value(k, None, truncation)
        for a, b in zip(got.coeffs, want.coeffs, strict=True):
            assert split(a) == split(b)
    with pytest.raises(ValueError, match="truncation must be >= 2, got 0"):
        curve_class_value(k, None, 0)


def test_kappa_value_rejects_too_small_truncation_like_kappa():
    with pytest.raises(ValueError, match=r"truncation 4 too small for kappa_1 at degree 4 \(needs > 4\)"):
        kappa_value(4, 1, 6, truncation=4)
    with pytest.raises(ValueError, match="truncation must be >= 2, got 1"):
        kappa_value(3, 0, 6, truncation=1)
    with pytest.raises(ValueError, match="kappa index must be >= 0"):
        kappa_value(3, -1, 6)


def test_kappa_value_refuses_an_index_past_its_limit_before_building_a_ring(monkeypatch):
    assert KAPPA_INDEX_LIMIT == {3: 30, 4: 20, 5: 16}
    assert len(kappa_value(3, 30, 7).terms) == 816  # the limit itself is computed

    def no_ring(*args):
        raise AssertionError("a ring was built")

    monkeypatch.setattr("cecalc.hurwitz.ce_setup", no_ring)
    for k, limit in KAPPA_INDEX_LIMIT.items():
        for genus in (7, None):
            text = rf"^kappa index i = {limit + 1} at k = {k} is past the limit of {limit}$"
            with pytest.raises(ValueError, match=text):
                kappa_value(k, limit + 1, genus, truncation=limit + k + 3)


def test_kappa_rejects_too_small_truncation():
    s = ce_setup(4, genus=6, truncation=4)
    with pytest.raises(ValueError, match="truncation"):
        kappa(s, 1)  # needs degree (k-2)+(i+1) = 4 < D


# -- resolution bundle ranks -----------------------------------------------------


@pytest.mark.parametrize(
    "i,k,want",
    [(1, 3, 1), (1, 4, 2), (2, 4, 1), (1, 5, 5), (2, 5, 5), (3, 5, 1), (2, 6, 16)],
)
def test_ce_rank_table(i, k, want):
    assert ce_rank(i, k) == want


def test_ce_rank_self_duality_symmetry():
    for k in range(4, 9):
        for i in range(1, k - 2):
            assert ce_rank(i, k) == ce_rank(k - 2 - i, k)


def test_ce_rank_range_validation():
    with pytest.raises(ValueError):
        ce_rank(0, 4)
    with pytest.raises(ValueError):
        ce_rank(3, 4)
    with pytest.raises(ValueError):
        ce_rank(1, 2)


# Pairs around the refusal edge: the first refusals at the middle index
# (k = 14280), the bound's own edge j = 14286 (k = 28572 at i = k/2 - 1), and
# k of about 2150 digits, where C(k, 2) is near the cap and C(k, 3) past it.
CE_RANK_EDGE = [
    *((i, k) for k in (14279, 14280, 14281, 14299, 14300, 14301) for i in range(k // 2 - 3, k // 2 + 1)),
    *((i, k) for k in (28570, 28571, 28572) for i in range(k // 2 - 2, k // 2 + 1)),
    *(pytest.param(i, 2**7143 + s, id=f"{i}-2^7143{s:+d}") for s in (-1, 1) for i in (1, 2)),
    pytest.param(1, 10**2150, id="1-10^2150"),
]


@pytest.mark.parametrize("i,k", CE_RANK_EDGE)
def test_ce_rank_refuses_exactly_the_ranks_past_the_cap_with_one_binomial(monkeypatch, i, k):
    rank = i * (k - 2 - i) * comb(k, i + 1) // (k - 1)
    calls = []
    monkeypatch.setattr(hurwitz, "comb", lambda n, t: calls.append(t) or comb(n, t))
    if rank >= 10**4300:
        with pytest.raises(ValueError, match=f"^rank for k = {k}, i = {i} has more than 4300 digits$"):
            ce_rank(i, k)
    else:
        assert ce_rank(i, k) == rank
    # a rank is decided by the closed-form bound and at most one binomial
    assert len(calls) <= 1


# -- presentations ----------------------------------------------------------------


def test_presentation_generator_counts_and_bounds():
    gens3, bound3 = presentation(3, 11)
    assert len(gens3) == 4 and bound3 == 14
    gens4, bound4 = presentation(4, 11)
    assert len(gens4) == 8 and bound4 == 15
    gens5, bound5 = presentation(5, 11)
    assert len(gens5) == 16 and bound5 == 16
    assert ("c2", 2) in gens4 and ("b2'", 1) in gens4


# The generator table the rings were once written out from, in serialization order.
GENERATOR_TABLE = {
    3: (("c2", 2), ("a1", 1), ("a2", 2), ("a2'", 1)),
    4: (("c2", 2), ("a1", 1), ("a2", 2), ("a3", 3), ("a2'", 1), ("a3'", 2), ("b2", 2), ("b2'", 1)),
    5: (
        ("c2", 2), ("a1", 1), ("a2", 2), ("a3", 3), ("a4", 4), ("a2'", 1), ("a3'", 2), ("a4'", 3),
        ("b2", 2), ("b3", 3), ("b4", 4), ("b5", 5), ("b2'", 1), ("b3'", 2), ("b4'", 3), ("b5'", 4),
    ),
}


@pytest.mark.parametrize("k", [3, 4, 5])
def test_generators_follow_the_ranks_of_e_and_f(k):
    ring = ce_setup(k, 9).ring
    assert presentation(k, 9)[0] == GENERATOR_TABLE[k]
    assert tuple(zip(ring.names, ring.degrees)) == GENERATOR_TABLE[k]
    if k == 3:  # F is the rank-1 bundle with c_1(E), that is det E
        s3 = ce_setup(3, 7, 5)
        assert chern_of(s3.f_char) == chern_of(e_char(s3))[:1]


def test_presentation_validation():
    with pytest.raises(ValueError, match="unsupported"):
        presentation(6, 10)
    with pytest.raises(ValueError, match="genus"):
        presentation(4, 1)
