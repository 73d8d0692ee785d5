"""Graded ring substrate: construction, arithmetic, truncation, serialization."""

import random
from fractions import Fraction

import pytest

from cecalc.gring import GradedPoly, RingSpec


def small_ring(truncation=5):
    return RingSpec([("c2", 2), ("a1", 1)], truncation)


def test_constructor_accepts_weighted_generators():
    ring = small_ring()
    assert ring.names == ("c2", "a1")
    assert ring.degrees == (2, 1)
    assert ring.truncation == 5


def test_constructor_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        RingSpec([("x", 1), ("x", 2)], 3)


def test_constructor_rejects_negative_degree_and_bad_truncation():
    with pytest.raises(ValueError, match="negative degree"):
        RingSpec([("x", -1)], 3)
    with pytest.raises(ValueError, match="truncation"):
        RingSpec([("x", 1)], 0)


def test_weight_zero_generator_acts_as_formal_parameter():
    ring = RingSpec([("g", 0), ("a1", 1)], 3)
    g, a1 = ring.gen("g"), ring.gen("a1")
    p = (g * g * g) * a1
    assert not p.is_zero()  # g powers never hit the truncation
    assert max(ring.weighted_degree(e) for e in p.terms) == 1


def test_quartic_class_ring_has_eight_generators():
    gens = [("c2", 2), ("a1", 1), ("a2", 2), ("a3", 3),
            ("a2'", 1), ("a3'", 2), ("b2", 2), ("b2'", 1)]
    ring = RingSpec(gens, 6)
    assert len(ring.names) == 8
    assert ring.degrees == (2, 1, 2, 3, 1, 2, 2, 1)


def test_add_inverse_and_collection():
    ring = small_ring()
    a1, c2 = ring.gen("a1"), ring.gen("c2")
    assert (a1 + (-a1)).is_zero()
    assert (a1 + c2) + c2 == a1 + c2 * 2


def test_terms_at_or_above_truncation_are_dropped_on_construction():
    ring = small_ring(truncation=3)
    # c2 * a1 has degree 3 >= D
    assert (ring.gen("c2") * ring.gen("a1")).is_zero()
    assert GradedPoly(ring, {(1, 1): 7}).is_zero()
    assert not GradedPoly(ring, {(1, 0): 7}).is_zero()


def test_mul_truncates_products():
    ring = small_ring(truncation=3)
    a1 = ring.gen("a1")
    assert a1 * a1 == GradedPoly(ring, {(0, 2): 1})  # degree 2 < 3 kept
    assert (a1 * ring.gen("c2")).is_zero()   # degree 3 >= D


def test_telescoping_product():
    ring = RingSpec([("a1", 1)], 4)
    a1 = ring.gen("a1")
    lhs = (ring.one() + a1) * (ring.one() - a1 + a1 * a1)
    assert lhs == ring.one() + a1 * a1 * a1


def test_degree_part_examples():
    ring = RingSpec([("a1", 1), ("a2", 2), ("c2", 2)], 5)
    a1, a2, c2 = ring.gen("a1"), ring.gen("a2"), ring.gen("c2")
    p = ring.one() + a1 + c2
    assert p.degree_part(2) == c2
    assert (a1 + a2).degree_part(0).is_zero()
    q = a1 * a1 + a2 + a1
    assert q.degree_part(2) == a1 * a1 + a2
    with pytest.raises(ValueError):
        p.degree_part(5)
    with pytest.raises(ValueError):
        p.degree_part(-1)


def test_degree_parts_sum_to_whole():
    rng = random.Random(7)
    ring = RingSpec([("x", 1), ("y", 2), ("z", 1)], 6)
    for _ in range(20):
        p = _random_poly(ring, rng)
        total = ring.zero()
        for d in range(ring.truncation):
            total = total + p.degree_part(d)
        assert total == p


def _random_poly(ring, rng):
    terms = {}
    for _ in range(rng.randint(1, 6)):
        exps = tuple(rng.randint(0, 2) for _ in ring.names)
        terms[exps] = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
    return GradedPoly(ring, terms)


def test_ring_axioms_on_random_elements():
    ring = RingSpec([("x", 1), ("y", 2), ("c2", 2)], 6)
    rng = random.Random(2024)
    for _ in range(25):
        p, q, r = (_random_poly(ring, rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert (p * q) * r == p * (q * r)


def test_truncation_is_ring_homomorphism():
    small = RingSpec([("x", 1), ("y", 2)], 4)
    big = RingSpec([("x", 1), ("y", 2)], 8)
    rng = random.Random(11)
    for _ in range(20):
        p_small = _random_poly(small, rng)
        q_small = _random_poly(small, rng)
        p_big = GradedPoly(big, p_small.terms)
        q_big = GradedPoly(big, q_small.terms)
        assert (p_big * q_big).retruncate(small) == p_small * q_small


def test_coefficients_stay_normalized():
    ring = small_ring()
    rng = random.Random(3)
    for _ in range(10):
        p = _random_poly(ring, rng) * _random_poly(ring, rng)
        for coeff in p.terms.values():
            assert coeff != 0
            assert coeff.denominator > 0
            # Fraction keeps lowest terms by construction
            assert Fraction(coeff.numerator, coeff.denominator) == coeff


def test_ring_mismatch_is_an_error():
    a = small_ring().gen("a1")
    b = RingSpec([("c2", 2), ("a1", 1)], 6).gen("a1")
    with pytest.raises(ValueError, match="ring mismatch"):
        a + b
    with pytest.raises(ValueError, match="ring mismatch"):
        a * b


# A call on the ring [c2:2, a1:1] at D = 5 and the message of its refusal.
REFUSALS = {
    "unknown generator": (lambda r: r.gen("z"), "unknown generator 'z' in RingSpec([c2:2, a1:1], D=5)"),
    "exponent length": (
        lambda r: GradedPoly(r, {(1,): 1}),
        "exponent vector (1,) has wrong length for RingSpec([c2:2, a1:1], D=5)",
    ),
    "retruncate": (lambda r: r.gen("a1").retruncate(RingSpec([("a1", 1)], 5)), "generator lists differ"),
    # a float is refused by name, not read as its binary value (0.1 is not 1/10)
    "float constant": (lambda r: r.const(0.1), "constant 0.1 is a float, not an exact number"),
    "float coefficient": (
        lambda r: GradedPoly(r, {(0, 1): 0.5}),
        "coefficient 0.5 is a float, not an exact number",
    ),
    "float factor": (lambda r: r.gen("a1") * 0.5, "factor 0.5 is not a GradedPoly, an int or a Fraction"),
    "float factor on the left": (
        lambda r: 0.5 * r.gen("a1"),
        "factor 0.5 is not a GradedPoly, an int or a Fraction",
    ),
    "text factor": (lambda r: r.gen("a1") * "2", "factor '2' is not a GradedPoly, an int or a Fraction"),
}


@pytest.mark.parametrize("name", REFUSALS)
def test_a_bad_argument_is_refused_with_its_message(name):
    call, message = REFUSALS[name]
    with pytest.raises(ValueError) as exc:
        call(small_ring())
    assert str(exc.value) == message


def test_text_and_json_serialization():
    ring = RingSpec([("c2", 2), ("a1", 1)], 5)
    p = ring.gen("a1") * ring.gen("a1") * Fraction(3, 2) + ring.gen("c2") - ring.const(1)
    assert p.text() == "-1 + 3/2 * a1^2 + 1 * c2"
    assert p.json_terms() == [
        {"coeff": "-1", "exponents": [0, 0]},
        {"coeff": "3/2", "exponents": [0, 2]},
        {"coeff": "1", "exponents": [1, 0]},
    ]
    assert ring.zero().text() == "0"
