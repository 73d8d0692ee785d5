"""Chern-character calculus on a P^1-bundle and its projective sub-bundles.

Three spaces appear, stacked over a base B whose Chow ring is a truncated
``gring.RingSpec`` ring:

  * B itself: classes are plain ``GradedPoly`` values.
  * The P^1-bundle pi: P -> B.  Its ring is A*(B)[z] / (z^2 + c2), where c2
    is a distinguished degree-2 generator of the base ring named ``"c2"``.
    Elements are ``FiberClass`` pairs P + Q*z; the pushforward pi_* reads
    off Q.
  * A projective sub-bundle gamma: P(E^v) -> P for a bundle E on P of rank
    r.  Its ring is A*(P)[zeta] / (zeta^r + c1(E^v) zeta^{r-1} + ... +
    c_r(E^v)).  ``ZetaClass`` holds the classes of zeta-degree below r,
    c_0 + c_1 zeta + ... + c_{r-1} zeta^{r-1}, which the relation does not
    touch, so the pushforward gamma_* reads off the zeta^{r-1} coefficient.
    Nothing here multiplies two such classes or reduces by the relation:
    ``hurwitz.kappa`` pushes the powers of zeta forward in closed form.

Vector bundles on P are carried around as Chern characters (``BundleChar``):
one element rank + ch_1 + ch_2 + ... of A*(P), whose graded pieces are
views.  Chern classes are converted to characters by Newton's identities.
Tensor is the ring product, dual and Adams are psi^k (degree d scaled by
k^d), and Sym^2, wedge^2 are (ch^2 +- psi^2 ch) / 2.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence, Union

from .gring import GradedPoly, RingSpec, Scalar, _trusted


class FiberClass:
    """Element P + Q*z of A*(P); z has degree 1 and z^2 = -c2."""

    __slots__ = ("ring", "base", "zpart")

    def __init__(self, base: GradedPoly, zpart: GradedPoly):
        if base.ring != zpart.ring:
            raise ValueError("base part and z part live in different rings")
        self.ring = base.ring
        self.base = base
        self.zpart = zpart

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring: RingSpec) -> "FiberClass":
        return cls(ring.zero(), ring.zero())

    @classmethod
    def const(cls, ring: RingSpec, value: Scalar) -> "FiberClass":
        return cls(ring.const(value), ring.zero())

    @classmethod
    def z(cls, ring: RingSpec) -> "FiberClass":
        return cls(ring.zero(), ring.one())

    def _c2(self) -> GradedPoly:
        return self.ring.gen("c2")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "FiberClass") -> "FiberClass":
        return FiberClass(self.base + other.base, self.zpart + other.zpart)

    def __neg__(self) -> "FiberClass":
        return FiberClass(-self.base, -self.zpart)

    def __sub__(self, other: "FiberClass") -> "FiberClass":
        return self + (-other)

    def __mul__(self, other: Union["FiberClass", Scalar]) -> "FiberClass":
        if isinstance(other, (int, Fraction)):
            return FiberClass(self.base * other, self.zpart * other)
        # (P1 + Q1 z)(P2 + Q2 z) with z^2 = -c2
        base = self.base * other.base - self._c2() * (self.zpart * other.zpart)
        zpart = self.base * other.zpart + self.zpart * other.base
        return FiberClass(base, zpart)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "FiberClass":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = FiberClass.const(self.ring, 1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiberClass):
            return NotImplemented
        return self.base == other.base and self.zpart == other.zpart

    __hash__ = None

    # -- structure ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.base.is_zero() and self.zpart.is_zero()

    def degree_part(self, degree: int) -> "FiberClass":
        """Total-degree-d part; the z part contributes degree deg+1."""
        zdeg = degree - 1
        zp = self.zpart.degree_part(zdeg) if zdeg >= 0 else self.ring.zero()
        return FiberClass(self.base.degree_part(degree), zp)

    def is_homogeneous(self, degree: int) -> bool:
        ok_base = self.base.is_homogeneous(degree)
        ok_z = self.zpart.is_zero() if degree == 0 else self.zpart.is_homogeneous(degree - 1)
        return ok_base and ok_z

    def text(self) -> str:
        if self.is_zero():
            return "0"
        if self.zpart.is_zero():
            return self.base.text()
        ztxt = f"({self.zpart.text()}) * z"
        if self.base.is_zero():
            return ztxt
        return f"{self.base.text()} + {ztxt}"

    def __repr__(self) -> str:
        return f"FiberClass({self.text()})"


def push_pi(c: FiberClass) -> GradedPoly:
    """pi_*(P + Q z) = Q; drops degree by one."""
    return c.zpart


def fiber_exp(c: FiberClass) -> FiberClass:
    """exp of a class with no degree-0 part, truncated by the ring."""
    if not c.degree_part(0).is_zero():
        raise ValueError("exp requires vanishing degree-0 part")
    result = FiberClass.const(c.ring, 1)
    power = FiberClass.const(c.ring, 1)
    for n in range(1, c.ring.truncation + 1):
        power = power * c
        if power.is_zero():
            break
        result = result + power * Fraction(1, factorial(n))
    return result


class BundleChar:
    """Chern character of a bundle on P: one element ``total`` of A*(P).

    ``total`` is rank + ch_1 + ch_2 + ..., so the ring's truncated product
    and sum are the tensor product and direct sum of bundles.  ``parts[d]``
    is the homogeneous degree-d part ch_d for d < D (truncation order D),
    split off in one pass; z-terms of total degree D, which ``FiberClass``
    still carries, are dropped there, and equality compares the parts.
    ``rank`` is the constant ch_0 and ``pieces`` is ch_1, ..., ch_{D-1}.
    """

    __slots__ = ("ring", "total", "parts", "rank")

    def __init__(self, total: FiberClass):
        ring = total.ring
        top = ring.truncation
        wdeg = ring.weighted_degree
        base: list[dict] = [{} for _ in range(top)]
        zpart: list[dict] = [{} for _ in range(top)]
        for e, c in total.base.terms.items():
            base[wdeg(e)][e] = c
        for e, c in total.zpart.terms.items():
            d = wdeg(e) + 1
            if d < top:
                zpart[d][e] = c
        self.ring = ring
        self.total = total
        # Each bucket is a subset of a normalized term map, so it is one too.
        self.parts = tuple(
            FiberClass(_trusted(ring, b), _trusted(ring, z)) for b, z in zip(base, zpart)
        )
        self.rank = int(base[0].get((0,) * len(ring.names), 0))

    @classmethod
    def trivial(cls, ring: RingSpec, rank: int) -> "BundleChar":
        return cls(FiberClass.const(ring, rank))

    @property
    def pieces(self) -> tuple[FiberClass, ...]:
        return self.parts[1:]

    def ch(self, degree: int) -> FiberClass:
        """The degree-d character piece (d = 0 gives the rank)."""
        return self.parts[degree]

    def __add__(self, other: "BundleChar") -> "BundleChar":
        return BundleChar(self.total + other.total)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BundleChar):
            return NotImplemented
        return self.parts == other.parts

    __hash__ = None

    def __repr__(self) -> str:
        return f"BundleChar(rank={self.rank}, ch1={self.pieces[0].text() if self.pieces else '-'})"


def line_bundle(c1: FiberClass) -> BundleChar:
    """Line bundle with the given first Chern class: ch = exp(c1)."""
    return BundleChar(fiber_exp(c1))


def o_z(ring: RingSpec, n: int) -> BundleChar:
    """The relative line bundle O(n z) on P."""
    return line_bundle(FiberClass.z(ring) * n)


def chern_from_parts(
    ring: RingSpec, parts: Sequence[tuple[GradedPoly, GradedPoly]], rank: int
) -> BundleChar:
    """Build a character from Chern-class data c_i = a_i + a_i' z.

    ``parts[i-1]`` is the pair (a_i, a_i'); a_i must be homogeneous of
    degree i and a_i' of degree i-1.  Newton's identities
    p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... + (-1)^{k-1} k c_k give the power
    sums, and ch = rank + sum_k p_k / k!.
    """
    if len(parts) > rank:
        raise ValueError(f"got {len(parts)} Chern classes for rank {rank}")
    cs = [FiberClass.const(ring, 1)]
    for i, (a, ap) in enumerate(parts, start=1):
        c = FiberClass(a, ap)
        if not c.is_homogeneous(i):
            raise ValueError(f"c_{i} data is not homogeneous of degree {i}")
        cs.append(c)
    p = [FiberClass.const(ring, rank)]
    total = p[0]
    for k in range(1, ring.truncation):
        acc = cs[k] * ((-1) ** (k - 1) * k) if k < len(cs) else FiberClass.zero(ring)
        for i in range(1, min(k, len(cs))):
            term = cs[i] * p[k - i]
            acc = acc + term if i % 2 == 1 else acc - term
        p.append(acc)
        total = total + acc * Fraction(1, factorial(k))
    return BundleChar(total)


def _psi(b: BundleChar, k: int) -> BundleChar:
    """psi^k for any nonzero integer k: the degree-d part times k^d."""
    total = FiberClass.zero(b.ring)
    for d, part in enumerate(b.parts):
        total = total + part * k**d
    return BundleChar(total)


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

    Built from the character of E, which gives the base ring and the rank;
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
        raw = [FiberClass.zero(self.ring)] * (n + 1)
        raw[n] = FiberClass.const(self.ring, 1)
        return ZetaClass(self, raw)


class ZetaClass:
    """Polynomial c_0 + c_1 zeta + ... + c_{r-1} zeta^{r-1}, padded to r
    coefficients; a longer one would need the relation and is refused."""

    __slots__ = ("zring", "coeffs")

    def __init__(self, zring: ZetaRing, coeffs: Sequence[FiberClass]):
        r = zring.rank
        if len(coeffs) > r:
            raise ValueError(f"zeta-degree {len(coeffs) - 1} needs the rank-{r} relation")
        self.zring = zring
        self.coeffs = tuple(coeffs) + (FiberClass.zero(zring.ring),) * (r - len(coeffs))

    def __add__(self, other: "ZetaClass") -> "ZetaClass":
        return ZetaClass(self.zring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other: Union[FiberClass, Scalar]) -> "ZetaClass":
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
            body = c.text()
            parts.append(f"({body}) * {head}" if head else body)
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"ZetaClass({self.text()})"


def push_gamma(c: ZetaClass) -> FiberClass:
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
