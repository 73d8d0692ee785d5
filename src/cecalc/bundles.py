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
    c_r(E^v)).  ``ZetaClass`` holds the classes of zeta-degree below r,
    c_0 + c_1 zeta + ... + c_{r-1} zeta^{r-1}, which the relation does not
    touch, so the pushforward gamma_* reads off the zeta^{r-1} coefficient.
    Nothing here multiplies two such classes or reduces by the relation:
    ``hurwitz.kappa`` pushes the powers of zeta forward in closed form.

Vector bundles on P are carried around as Chern characters (``BundleChar``):
one element rank + ch_1 + ch_2 + ... of the fiber ring, whose graded pieces
are its degree parts.  Chern classes are converted to characters by
Newton's identities.  Tensor is the ring product, dual and Adams are psi^k
(degree d scaled by k^d), and Sym^2, wedge^2 are (ch^2 +- psi^2 ch) / 2.
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


def fiber_exp(c: GradedPoly) -> GradedPoly:
    """exp of a class with no degree-0 part, truncated by the ring."""
    if not c.degree_part(0).is_zero():
        raise ValueError("exp requires vanishing degree-0 part")
    result = power = c.ring.one()
    for n in range(1, c.ring.truncation + 1):
        power = power * c
        if power.is_zero():
            break
        result = result + power * Fraction(1, factorial(n))
    return result


class BundleChar:
    """Chern character of a bundle on P: one fiber-ring element ``total``.

    ``total`` is rank + ch_1 + ch_2 + ..., so the ring's truncated product
    and sum are the tensor product and direct sum of bundles, ``ch(d)`` is
    its degree-d part and equality compares totals.  ``rank`` is the
    constant ch_0 and ``pieces`` is ch_1, ..., ch_{D-1} (truncation D).
    """

    __slots__ = ("ring", "total", "rank")

    def __init__(self, total: GradedPoly):
        self.ring = total.ring
        self.total = total
        self.rank = int(total.terms.get((0,) * len(total.ring.names), 0))

    @classmethod
    def trivial(cls, ring: RingSpec, rank: int) -> "BundleChar":
        return cls(ring.const(rank))

    @property
    def pieces(self) -> tuple[GradedPoly, ...]:
        return tuple(self.ch(d) for d in range(1, self.ring.truncation))

    def ch(self, degree: int) -> GradedPoly:
        """The degree-d character piece (d = 0 gives the rank)."""
        return self.total.degree_part(degree)

    def __add__(self, other: "BundleChar") -> "BundleChar":
        return BundleChar(self.total + other.total)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BundleChar):
            return NotImplemented
        return self.total == other.total

    __hash__ = None

    def __repr__(self) -> str:
        return f"BundleChar({fiber_text(self.total)})"


def line_bundle(c1: GradedPoly) -> BundleChar:
    """Line bundle with the given first Chern class: ch = exp(c1)."""
    return BundleChar(fiber_exp(c1))


def o_z(ring: RingSpec, n: int) -> BundleChar:
    """The relative line bundle O(n z) on P, ``ring`` being a fiber ring."""
    return line_bundle(ring.gen("z") * n)


def chern_from_parts(ring: RingSpec, parts: Sequence[GradedPoly], rank: int) -> BundleChar:
    """Build a character in the fiber ring ``ring`` from its Chern classes.

    ``parts[i-1]`` is c_i, homogeneous of degree i.  Newton's identities
    p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... + (-1)^{k-1} k c_k give the power
    sums, and ch = rank + sum_k p_k / k!.
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
    return BundleChar(total)


def _psi(b: BundleChar, k: int) -> BundleChar:
    """psi^k for any nonzero integer k: the degree-d part times k^d."""
    wdeg = b.ring.weighted_degree
    return BundleChar(GradedPoly(b.ring, {e: c * k ** wdeg(e) for e, c in b.total.terms.items()}))


def dual(b: BundleChar) -> BundleChar:
    """Dual bundle: psi^{-1}, so the degree-d piece changes sign by (-1)^d."""
    return _psi(b, -1)


def tensor(a: BundleChar, b: BundleChar) -> BundleChar:
    """Tensor product: characters multiply in A*(P)."""
    return BundleChar(a.total * b.total)


def det(b: BundleChar) -> BundleChar:
    """Determinant line bundle: c_1 = ch_1(b)."""
    return line_bundle(b.ch(1))


def adams(b: BundleChar, k: int) -> BundleChar:
    """Adams operation psi^k: scales the degree-d piece by k^d."""
    if k < 1:
        raise ValueError("Adams operations need k >= 1")
    return _psi(b, k)


def sym2(b: BundleChar) -> BundleChar:
    """Sym^2 via (ch^2 + psi^2 ch) / 2."""
    return BundleChar((b.total * b.total + adams(b, 2).total) * Fraction(1, 2))


def wedge2(b: BundleChar) -> BundleChar:
    """wedge^2 via (ch^2 - psi^2 ch) / 2."""
    return BundleChar((b.total * b.total - adams(b, 2).total) * Fraction(1, 2))


# -- the projective sub-bundle P(E^v) over P --------------------------------


class ZetaRing:
    """Classes of zeta-degree below r on P(E^v) -> P, r being the rank of E.

    Built from the character of E, which gives the ring of P and the rank;
    the ring must hold the degree-r relation, so its truncation exceeds r.
    """

    __slots__ = ("ring", "rank")

    def __init__(self, e_char: BundleChar):
        ring = e_char.ring
        r = e_char.rank
        if r < 1:
            raise ValueError("projectivized bundle needs positive rank")
        if ring.truncation <= r:
            raise ValueError(
                f"truncation {ring.truncation} too small for a rank-{r} relation"
            )
        self.ring = ring
        self.rank = r

    def zero(self) -> "ZetaClass":
        return ZetaClass(self, [])

    def zeta_power(self, n: int) -> "ZetaClass":
        """zeta^n for 0 <= n < r."""
        return ZetaClass(self, [self.ring.zero()] * n + [self.ring.one()])


class ZetaClass:
    """Polynomial c_0 + c_1 zeta + ... + c_{r-1} zeta^{r-1}, padded to r
    coefficients; a longer one would need the relation and is refused."""

    __slots__ = ("zring", "coeffs")

    def __init__(self, zring: ZetaRing, coeffs: Sequence[GradedPoly]):
        r = zring.rank
        if len(coeffs) > r:
            raise ValueError(f"zeta-degree {len(coeffs) - 1} needs the rank-{r} relation")
        self.zring = zring
        self.coeffs = tuple(coeffs) + (zring.ring.zero(),) * (r - len(coeffs))

    def __add__(self, other: "ZetaClass") -> "ZetaClass":
        return ZetaClass(self.zring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: Union[GradedPoly, Scalar]) -> "ZetaClass":
        return ZetaClass(self.zring, [a * other for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaClass):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def text(self) -> str:
        parts = []
        for j in range(self.zring.rank - 1, -1, -1):
            c = self.coeffs[j]
            if c.is_zero():
                continue
            head = f"zeta^{j}" if j > 1 else ("zeta" if j == 1 else "")
            body = fiber_text(c)
            parts.append(f"({body}) * {head}" if head else body)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"ZetaClass({self.text()})"


def push_gamma(c: ZetaClass) -> GradedPoly:
    """gamma_*: the zeta^{r-1} coefficient, as gamma_* zeta^j = 0 for j < r-1."""
    return c.coeffs[-1]


def zeta_twisted_ch(b: BundleChar, n: int, degree: int, zring: ZetaRing) -> ZetaClass:
    """Degree-d character piece of (gamma^* b)(n zeta) on P(E^v).

    ch_d(b(n zeta)) = sum_j ch_j(b) n^{d-j} zeta^{d-j} / (d-j)!.
    """
    if b.ring != zring.ring:
        raise ValueError("character and zeta ring live over different bases")
    acc = zring.zero()
    for j in range(degree + 1):
        scale = Fraction(n ** (degree - j), factorial(degree - j))
        if scale == 0:
            continue
        term = zring.zeta_power(degree - j) * b.ch(j) * scale
        acc = acc + term
    return acc
