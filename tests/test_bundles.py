"""Character calculus: conversions, tensor algebra, pushforwards."""

import random
from fractions import Fraction

import pytest

from cecalc.bundles import (
    adams,
    chern_from_parts,
    dual,
    fiber_ring,
    o_z,
    push_gamma,
    push_pi,
    split,
    sym2,
    wedge2,
    zeta_twisted_ch,
)
from cecalc.gring import GradedPoly, RingSpec
from cecalc.splitting import SplittingType, sym2_type, tensor_type, wedge2_type
from zeta_oracle import ZetaRelation, chern_of, join, power


def base_ring(truncation=6, extra=()):
    return RingSpec([("c2", 2)] + list(extra), truncation)


def fiber(truncation=6, extra=()):
    return fiber_ring(base_ring(truncation, extra))


def split_char(ring, parts):
    """Direct-sum character of O(e_1 z) + ... + O(e_r z): the split oracle."""
    total = ring.zero()
    for e in parts:
        total = total + o_z(ring, e)
    return total


# -- z-ring basics -----------------------------------------------------------


def test_z_squared_is_minus_c2():
    ring = base_ring()
    z = fiber_ring(ring).gen("z")
    assert split(z * z) == (-ring.gen("c2"), ring.zero())


def test_push_pi_reads_z_coefficient():
    ring = base_ring(extra=[("a1", 1)])
    z = fiber_ring(ring).gen("z")
    a1 = ring.gen("a1")
    assert push_pi(z) == ring.one()
    assert push_pi(join(ring.one(), ring.zero())).is_zero()
    assert push_pi(join(a1, ring.zero()) * z + join(ring.gen("c2"), ring.zero())) == a1
    minus_c2 = -ring.gen("c2")
    for m in range(ring.truncation):
        assert push_pi(power(z, 2 * m + 1)) == power(minus_c2, m)
        assert push_pi(power(z, 2 * m)).is_zero()
    with pytest.raises(ValueError, match="no generator 'z'"):
        push_pi(a1)  # a base-ring class has no z to read


def test_split_round_trips_random_classes():
    rng = random.Random(11)
    ring = base_ring(truncation=7, extra=[("a1", 1), ("b3", 3), ("g", 0)])

    def random_class(below):
        terms = {}
        for _ in range(rng.randint(0, 8)):
            exps = tuple(rng.randint(0, 3) for _ in ring.names)
            if ring.weighted_degree(exps) < below:
                terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return GradedPoly(ring, terms)

    for _ in range(200):
        p, q = random_class(ring.truncation), random_class(ring.truncation - 1)
        assert split(join(p, q)) == (p, q)


# -- character <-> Chern class conversions -----------------------------------


def test_line_bundle_character_is_exponential():
    ring = fiber(truncation=5)
    d = 3
    ch = o_z(ring, d)
    z = ring.gen("z")
    assert ch.degree_part(1) == z * d
    assert ch.degree_part(2) == (z * d) * (z * d) * Fraction(1, 2)
    assert ch.degree_part(3) == power(z * d, 3) * Fraction(1, 6)


def test_rank2_ch2_is_newton_identity():
    ring = base_ring(truncation=5, extra=[("a1", 1), ("a2", 2), ("a1'", 0), ("a2'", 1)])
    parts = [
        join(ring.gen("a1"), ring.gen("a1'")),
        join(ring.gen("a2"), ring.gen("a2'")),
    ]
    b = chern_from_parts(fiber_ring(ring), parts, 2)
    c1 = join(ring.gen("a1"), ring.gen("a1'"))
    c2cls = join(ring.gen("a2"), ring.gen("a2'"))
    assert b.degree_part(2) == (c1 * c1 - c2cls * 2) * Fraction(1, 2)


def test_zero_chern_data_gives_constant_character():
    ring = fiber()
    b = chern_from_parts(ring, [], 4)
    assert b.degree_part(0) == ring.const(4)
    assert all(b.degree_part(d).is_zero() for d in range(1, b.ring.truncation))
    assert all(c.is_zero() for c in chern_of(b))


def test_chern_from_parts_validates_degrees():
    ring = base_ring(extra=[("a1", 1)])
    with pytest.raises(ValueError, match="homogeneous"):  # degree 2 data as c_1
        chern_from_parts(fiber_ring(ring), [join(ring.gen("c2"), ring.zero())], 2)
    with pytest.raises(ValueError, match="rank"):
        chern_from_parts(fiber_ring(ring), [join(ring.gen("a1"), ring.zero())], 0)


def test_chern_of_split_rank2():
    ring = base_ring()
    b = split_char(fiber_ring(ring), [1, -1])  # O(z) + O(-z)
    c = chern_of(b)
    assert c[0].is_zero()
    assert split(c[1]) == (ring.gen("c2"), ring.zero())  # -z^2 = c2


def test_chern_character_round_trip_random_rank3():
    rng = random.Random(5)
    ring = base_ring(truncation=5, extra=[("u", 1), ("v", 2), ("w", 3)])
    for _ in range(10):
        def homog(d):
            names = {1: "u", 2: "v", 3: "w"}
            if d == 0:
                return ring.const(rng.randint(-3, 3))
            return ring.gen(names[d]) * rng.randint(-3, 3)

        parts = [(homog(i), homog(i - 1)) for i in (1, 2, 3)]
        b = chern_from_parts(fiber_ring(ring), [join(a, ap) for a, ap in parts], 3)
        recovered = chern_of(b)
        for i, (a, ap) in enumerate(parts, start=1):
            assert split(recovered[i - 1]) == (a, ap)


# -- tensor algebra ----------------------------------------------------------


def test_dual_is_an_involution_and_negates_odd_pieces():
    ring = base_ring(extra=[("a1", 1), ("a2", 2)])
    b = chern_from_parts(
        fiber_ring(ring), [join(ring.gen("a1"), ring.const(4)), join(ring.gen("a2"), ring.gen("a1"))], 3
    )
    assert dual(dual(b)) == b
    assert dual(b).degree_part(1) == -b.degree_part(1)
    assert dual(b).degree_part(2) == b.degree_part(2)


def test_tensor_with_trivial_line_is_identity():
    ring = base_ring(extra=[("a1", 1)])
    b = chern_from_parts(fiber_ring(ring), [join(ring.gen("a1"), ring.const(2))], 2)
    assert b * fiber_ring(ring).one() == b


def test_adams_on_line_bundles_and_composition():
    ring = fiber()
    assert adams(o_z(ring, 1), 2) == o_z(ring, 2)
    b = split_char(ring, [1, 2, -1])
    assert adams(adams(b, 2), 3) == adams(b, 6)


def test_sym_wedge_ranks_and_sum_rule():
    ring = base_ring(extra=[("a1", 1), ("a2", 2)])
    b3 = chern_from_parts(
        fiber_ring(ring), [join(ring.gen("a1"), ring.const(1)), join(ring.gen("a2"), ring.gen("a1"))], 3
    )
    b5 = fiber_ring(ring).const(5)
    assert sym2(b3).degree_part(0) == b3.ring.const(6)
    assert wedge2(b5).degree_part(0) == b5.ring.const(10)
    assert sym2(b3) + wedge2(b3) == b3 * b3


def test_split_bundle_operations_match_summand_enumeration():
    ring = fiber(truncation=6)
    e = SplittingType((2, 3, 4))
    b = split_char(ring, e.parts)
    assert sym2(b) == split_char(ring, sym2_type(e).parts)
    assert wedge2(b) == split_char(ring, wedge2_type(e).parts)
    f = SplittingType((1, -2))
    bf = split_char(ring, f.parts)
    assert b * bf == split_char(ring, tensor_type(e, f).parts)
    assert dual(b) == split_char(ring, [-x for x in e.parts])


# -- the projective sub-bundle ------------------------------------------------


def quartic_like_ring():
    return RingSpec(
        [("c2", 2), ("a1", 1), ("a2", 2), ("a3", 3), ("a2'", 1), ("a3'", 2)], 6
    )


def rank3_bundle(ring):
    parts = [
        join(ring.gen("a1"), ring.const(7)),
        join(ring.gen("a2"), ring.gen("a2'")),
        join(ring.gen("a3"), ring.gen("a3'")),
    ]
    return chern_from_parts(fiber_ring(ring), parts, 3)


def test_zeta_relation_annihilates():
    ring = quartic_like_ring()
    e = rank3_bundle(ring)
    rel = ZetaRelation(e)
    # zeta^r + c1(E^v) zeta^{r-1} + ... + c_r(E^v) reduces to zero
    acc = rel.zeta_power(rel.rank)
    for i, ci in enumerate(rel.dual_chern, start=1):
        acc = acc + rel.zeta_power(rel.rank - i) * ci
    assert all(c.is_zero() for c in acc.coeffs)


def test_push_gamma_basis_values():
    ring = quartic_like_ring()
    rel = ZetaRelation(rank3_bundle(ring))
    assert split(push_gamma(rel.zeta_power(rel.rank - 1))) == (ring.one(), ring.zero())
    for i in range(rel.rank - 1):
        assert push_gamma(rel.zeta_power(i)).is_zero()


def test_push_gamma_of_zeta_rank_for_rank2_dual():
    ring = base_ring(truncation=5, extra=[("a1", 1), ("a2", 2)])
    parts = [join(ring.gen("a1"), ring.const(3)), join(ring.gen("a2"), ring.gen("a1"))]
    e = chern_from_parts(fiber_ring(ring), parts, 2)
    rel = ZetaRelation(e)
    # one reduction step: gamma_*(zeta^2) = -c1(E^v) = c1(E)
    assert push_gamma(rel.zeta_power(2)) == chern_of(e)[0]


def test_negative_powers_are_errors():
    base = quartic_like_ring()
    ring = fiber_ring(base)
    rel = ZetaRelation(rank3_bundle(base))
    with pytest.raises(ValueError, match="negative"):
        power(ring.gen("z"), -1)
    with pytest.raises(ValueError, match="negative"):
        rel.power(rel.zeta_power(1), -2)
    assert power(ring.gen("z"), 0) == ring.one()
    assert rel.power(rel.zeta_power(1), 0) == rel.of_fiber(ring.one())


def test_zeta_twisted_ch_of_line_bundle_is_binomial():
    ring = quartic_like_ring()
    rel = ZetaRelation(rank3_bundle(ring))
    triv = fiber_ring(ring).one()
    got = zeta_twisted_ch(triv, 2, 2, rel.rank)  # ch_2(O(2 zeta)) = 2 zeta^2
    assert got == rel.zeta_power(2) * 2
