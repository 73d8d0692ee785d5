"""Cover-class machinery: setup rings, curve class, kappa classes, ranks."""

import pytest

from cecalc.bundles import ZetaClass, dual, fiber_text, push_gamma, split
from cecalc.hurwitz import (
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
