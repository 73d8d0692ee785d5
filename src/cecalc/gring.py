"""Exact truncated graded polynomial rings over named weighted generators.

A ring is described by an ordered list of generators, each carrying an
integer weight, together with a truncation order D.  Elements are stored
sparsely as a map from dense exponent vectors (one slot per generator) to
``fractions.Fraction`` coefficients.  Two invariants are maintained by every
operation:

  * no stored coefficient is zero, and
  * every stored monomial has weighted total degree < D.

So a ring is literally Q[x_1, ..., x_n] modulo everything of degree >= D,
and equality of elements is equality of the underlying term maps.  All
arithmetic is exact; coefficients are normalized by ``Fraction`` itself
(lowest terms, positive denominator).

Generators of weight 0 are allowed and act as formal parameters (a symbolic
genus, for instance): they never contribute to the degree that truncation
sees.  Negative weights are rejected.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence, Union

from . import exact, integer

Scalar = Union[int, Fraction]
Exponents = tuple[int, ...]


class RingSpec:
    """An ordered list of weighted generators plus a truncation order."""

    __slots__ = ("names", "degrees", "truncation", "_index")

    def __init__(self, generators: Sequence[tuple[str, int]], truncation_order: int):
        names = tuple(name for name, _ in generators)
        degrees = tuple(integer(deg, f"degree of generator {name!r}") for name, deg in generators)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate generator name in {names}")
        for name, deg in zip(names, degrees):
            if deg < 0:
                raise ValueError(f"generator {name!r} has negative degree {deg}")
        self.names = names
        self.degrees = degrees
        self.truncation = integer(truncation_order, "truncation order", 1)
        self._index = {name: i for i, name in enumerate(names)}

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingSpec)
            and self.names == other.names
            and self.degrees == other.degrees
            and self.truncation == other.truncation
        )

    def __hash__(self) -> int:
        return hash((self.names, self.degrees, self.truncation))

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"RingSpec([{gens}], D={self.truncation})"

    # -- element constructors -------------------------------------------

    def zero(self) -> "GradedPoly":
        return GradedPoly(self, {})

    def one(self) -> "GradedPoly":
        return self.const(1)

    def const(self, value: Scalar) -> "GradedPoly":
        c = Fraction(exact(value, "constant"))
        if c == 0:
            return self.zero()
        return GradedPoly(self, {(0,) * len(self.names): c})

    def gen(self, name: str) -> "GradedPoly":
        if name not in self._index:
            raise ValueError(f"unknown generator {name!r} in {self!r}")
        exps = [0] * len(self.names)
        exps[self._index[name]] = 1
        return GradedPoly(self, {tuple(exps): Fraction(1)})

    def weighted_degree(self, exponents: Exponents) -> int:
        return sum(e * d for e, d in zip(exponents, self.degrees))


class GradedPoly:
    """Element of a RingSpec ring: exponent-vector -> Fraction term map.

    Construction normalizes: coefficients are coerced to Fraction (a float
    is refused by name), zero terms are dropped and monomials at or above
    the truncation order are discarded.  Arithmetic results skip that pass
    (see ``_trusted``): their terms are built normalized.  Instances are
    immutable in practice (the term map is never mutated after construction).
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingSpec, terms: Mapping[Exponents, Scalar]):
        clean: dict[Exponents, Fraction] = {}
        n = len(ring.names)
        for exps, coeff in terms.items():
            c = Fraction(exact(coeff, "coefficient"))
            if c == 0:
                continue
            if len(exps) != n:
                raise ValueError(f"exponent vector {exps} has wrong length for {ring!r}")
            if ring.weighted_degree(exps) >= ring.truncation:
                continue
            clean[exps] = c
        self.ring = ring
        self.terms = clean

    # -- basic queries ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self, degree: int) -> bool:
        return all(self.ring.weighted_degree(e) == degree for e in self.terms)

    # -- arithmetic ------------------------------------------------------

    def _check_ring(self, other: "GradedPoly") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("ring mismatch between operands")

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        self._check_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = out.pop(exps, None)
            c = coeff if c is None else c + coeff
            if c:
                out[exps] = c
        return _trusted(self.ring, out)

    def __neg__(self) -> "GradedPoly":
        return _trusted(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self + (-other)

    def __mul__(self, other: Union["GradedPoly", Scalar]) -> "GradedPoly":
        if isinstance(other, (int, Fraction)):
            if not other:
                return _trusted(self.ring, {})
            return _trusted(self.ring, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, GradedPoly):
            raise ValueError(f"factor {other!r} is not a GradedPoly, an int or a Fraction")
        self._check_ring(other)
        ring = self.ring
        bound = ring.truncation
        wdeg = ring.weighted_degree
        # sorted by degree, so each row stops at the first pair it would drop
        right = sorted((wdeg(e), e, c) for e, c in other.terms.items())
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            room = bound - wdeg(e1)
            for d2, e2, c2 in right:
                if d2 >= room:
                    break
                key = tuple(a + b for a, b in zip(e1, e2))
                c = out.get(key)
                out[key] = c1 * c2 if c is None else c + c1 * c2
        return _trusted(ring, {e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    __hash__ = None  # unhashable: term maps are dicts

    # -- structure -------------------------------------------------------

    def degree_part(self, degree: int) -> "GradedPoly":
        """Sum of terms of weighted degree exactly ``degree``."""
        if degree < 0 or degree >= self.ring.truncation:
            raise ValueError(
                f"degree {degree} outside [0, {self.ring.truncation})"
            )
        wdeg = self.ring.weighted_degree
        # a subset of a normalized term map is normalized
        return _trusted(self.ring, {e: c for e, c in self.terms.items() if wdeg(e) == degree})

    def retruncate(self, ring: RingSpec) -> "GradedPoly":
        """Reinterpret in another ring with the same generators (other D)."""
        if ring.names != self.ring.names or ring.degrees != self.ring.degrees:
            raise ValueError("generator lists differ")
        return GradedPoly(ring, self.terms)

    # -- serialization ---------------------------------------------------

    def _sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        wdeg = self.ring.weighted_degree
        return sorted(self.terms.items(), key=lambda kv: (wdeg(kv[0]), kv[0]))

    def text(self) -> str:
        """Deterministic text form: `coef * gen^k * ...` joined by ` + `."""
        if not self.terms:
            return "0"
        names = self.ring.names
        parts = []
        for exps, coeff in self._sorted_terms():
            factors = [str(coeff)]
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append(" * ".join(factors))
        return " + ".join(parts)

    def json_terms(self) -> list[dict]:
        """JSON form: list of {coeff: "p/q", exponents: [...]} in text order."""
        return [
            {"coeff": str(coeff), "exponents": list(exps)}
            for exps, coeff in self._sorted_terms()
        ]

    def __repr__(self) -> str:
        return f"GradedPoly({self.text()})"


def _trusted(ring: RingSpec, terms: dict[Exponents, Fraction]) -> GradedPoly:
    """Wrap a term map that is already normalized: Fraction coefficients,
    none zero, every monomial of the right length and below the truncation."""
    poly = object.__new__(GradedPoly)
    poly.ring = ring
    poly.terms = terms
    return poly
