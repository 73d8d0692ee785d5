"""Chern-character calculus on a P^1-bundle and its projective sub-bundles.

Three spaces appear, stacked over a base B whose Chow ring is a truncated
``gring.RingSpec`` ring:

  * B itself: classes are plain ``GradedPoly`` values.
  * The P^1-bundle pi: P -> B.  Its ring is A*(B)[z] / (z^2 + c2), where c2
    is a distinguished degree-2 generator of the base ring named ``"c2"``.
    As c2 = -z^2 is free, this quotient is itself a truncated polynomial
    ring, ``fiber_ring(base)``: the base generators with ``z`` of weight 1
    in the slot of c2.  ``split`` writes its classes as P + Q*z with P, Q
    in the base ring, and the pushforward pi_* reads off Q.
  * A projective sub-bundle gamma: P(E^v) -> P for a bundle E on P of rank
    r.  Its ring is A*(P)[zeta] / (zeta^r + c1(E^v) zeta^{r-1} + ... +
    c_r(E^v)).  ``ZetaClass`` holds a class of zeta-degree below r as its
    r coefficients c_0, ..., c_{r-1} in A*(P); the relation does not touch
    it, so the pushforward gamma_* reads off the zeta^{r-1} coefficient.
    Nothing here multiplies two such classes or reduces by the relation:
    ``hurwitz.kappa`` pushes the powers of zeta forward in closed form, and
    the relation itself lives only in the tests' reference oracle.

A vector bundle on P is carried around as its Chern character, a plain
fiber-ring element rank + ch_1 + ch_2 + ...: its graded pieces are its
degree parts and its rank is the constant term, the ring's sum and product
are the direct sum and tensor product of bundles, and equality compares
characters.  Chern classes are converted to characters by Newton's
identities; dual and Adams are psi^k (degree d scaled by k^d), and Sym^2,
wedge^2 are (ch^2 +- psi^2 ch) / 2.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Sequence, Union

from .gring import GradedPoly, RingSpec, Scalar

# Classes of A*(P) are fiber-ring ``GradedPoly`` values.  The name is kept
# for the benchmark tracer (perfbench/tracing.py), which wraps
# ``FiberClass.__mul__`` by name.
FiberClass = GradedPoly


def _relabel(ring: RingSpec, old: str, new: tuple[str, int]) -> RingSpec:
    """``ring`` with generator ``old`` replaced by ``new`` in the same slot."""
    if old not in ring.names:
        raise ValueError(f"no generator {old!r} in {ring!r}")
    gens = [new if name == old else (name, d) for name, d in zip(ring.names, ring.degrees)]
    return RingSpec(gens, ring.truncation)


@cache
def fiber_ring(base: RingSpec) -> RingSpec:
    """A*(P) = A*(B)[z] / (z^2 + c2): ``base`` with z of weight 1 for c2."""
    return _relabel(base, "c2", ("z", 1))


@cache
def _base_ring(fiber: RingSpec) -> RingSpec:
    return _relabel(fiber, "z", ("c2", 2))


def split(x: GradedPoly) -> tuple[GradedPoly, GradedPoly]:
    """(P, Q) in the base ring with x = P + Q z.

    A monomial z^j m is (-c2)^(j//2) m times z^(j%2), so it goes to P when j
    is even and to Q when j is odd; distinct monomials stay distinct.
    """
    base = _base_ring(x.ring)
    slot = base.names.index("c2")
    halves: tuple[dict, dict] = ({}, {})
    for e, c in x.terms.items():
        half, odd = divmod(e[slot], 2)
        halves[odd][e[:slot] + (half,) + e[slot + 1 :]] = -c if half % 2 else c
    return GradedPoly(base, halves[0]), GradedPoly(base, halves[1])


def fiber_text(x: GradedPoly) -> str:
    """``P + (Q) * z``, leaving out a zero part."""
    p, q = split(x)
    if q.is_zero():
        return p.text()
    ztxt = f"({q.text()}) * z"
    return ztxt if p.is_zero() else f"{p.text()} + {ztxt}"


def push_pi(x: GradedPoly) -> GradedPoly:
    """pi_*(P + Q z) = Q; drops degree by one."""
    return split(x)[1]


def chern_from_parts(ring: RingSpec, parts: Sequence[GradedPoly], rank: int) -> GradedPoly:
    """Build a character in the fiber ring ``ring`` from its Chern classes.

    ``parts[i-1]`` is c_i, homogeneous of degree i.  Newton's identities
    p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... + (-1)^{k-1} k c_k give the power
    sums, and ch = rank + sum_k p_k / k!; for a line bundle p_k = c_1^k, so
    ch = exp(c_1).
    """
    if len(parts) > rank:
        raise ValueError(f"got {len(parts)} Chern classes for rank {rank}")
    cs = [ring.one()]
    for i, c in enumerate(parts, start=1):
        if not c.is_homogeneous(i):
            raise ValueError(f"c_{i} data is not homogeneous of degree {i}")
        cs.append(c)
    p = [ring.const(rank)]
    total = p[0]
    for k in range(1, ring.truncation):
        acc = cs[k] * ((-1) ** (k - 1) * k) if k < len(cs) else ring.zero()
        for i in range(1, min(k, len(cs))):
            term = cs[i] * p[k - i]
            acc = acc + term if i % 2 == 1 else acc - term
        p.append(acc)
        total = total + acc * Fraction(1, factorial(k))
    return total


def o_z(ring: RingSpec, n: int) -> GradedPoly:
    """ch of the relative line bundle O(n z) on P, ``ring`` being a fiber ring."""
    return chern_from_parts(ring, [ring.gen("z") * n], 1)


def _psi(ch: GradedPoly, k: int) -> GradedPoly:
    """psi^k for any nonzero integer k: the degree-d part times k^d."""
    wdeg = ch.ring.weighted_degree
    return GradedPoly(ch.ring, {e: c * k ** wdeg(e) for e, c in ch.terms.items()})


def dual(ch: GradedPoly) -> GradedPoly:
    """Dual bundle: psi^{-1}, so the degree-d piece changes sign by (-1)^d."""
    return _psi(ch, -1)


def adams(ch: GradedPoly, k: int) -> GradedPoly:
    """Adams operation psi^k: scales the degree-d piece by k^d."""
    if k < 1:
        raise ValueError("Adams operations need k >= 1")
    return _psi(ch, k)


def sym2(ch: GradedPoly) -> GradedPoly:
    """Sym^2 via (ch^2 + psi^2 ch) / 2."""
    return (ch * ch + adams(ch, 2)) * Fraction(1, 2)


def wedge2(ch: GradedPoly) -> GradedPoly:
    """wedge^2 via (ch^2 - psi^2 ch) / 2."""
    return (ch * ch - adams(ch, 2)) * Fraction(1, 2)


# -- the projective sub-bundle P(E^v) over P --------------------------------


class ZetaClass:
    """Polynomial c_0 + c_1 zeta + ... + c_{r-1} zeta^{r-1} on P(E^v) -> P,
    held as its r fiber-ring coefficients; classes of different rank do not
    add."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[GradedPoly]):
        self.coeffs = tuple(coeffs)

    def __add__(self, other: "ZetaClass") -> "ZetaClass":
        return ZetaClass([a + b for a, b in zip(self.coeffs, other.coeffs, strict=True)])

    def __mul__(self, other: Union[GradedPoly, Scalar]) -> "ZetaClass":
        return ZetaClass([a * other for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaClass):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None


def push_gamma(c: ZetaClass) -> GradedPoly:
    """gamma_*: the zeta^{r-1} coefficient, as gamma_* zeta^j = 0 for j < r-1."""
    return c.coeffs[-1]


def zeta_twisted_ch(ch: GradedPoly, n: int, degree: int, rank: int) -> ZetaClass:
    """Degree-d character piece of (gamma^* b)(n zeta) on P(E^v), ``ch``
    being the character of b and ``rank`` > d that of E.

    ch_d(b(n zeta)) = sum_j ch_j(b) n^{d-j} zeta^{d-j} / (d-j)!.
    """
    coeffs = [ch.ring.zero()] * rank
    for j in range(degree + 1):
        scale = Fraction(n ** (degree - j), factorial(degree - j))
        if scale != 0:
            coeffs[degree - j] = ch.degree_part(j) * scale
    return ZetaClass(coeffs)
