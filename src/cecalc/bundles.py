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
    c_r(E^v)); elements are ``ZetaClass`` values kept eagerly reduced, so
    the pushforward gamma_* reads off the zeta^{r-1} coefficient.

Vector bundles on P are carried around as Chern characters (``BundleChar``):
rank plus graded pieces.  Chern classes are views, converted to and from
characters by Newton's identities.  Tensor, dual, det, Adams, Sym^2 and
wedge^2 are all character-level formulas.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence, Union

from .gring import GradedPoly, RingSpec, Scalar


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
    """Chern character of a bundle on P: integer rank plus graded pieces.

    ``pieces[d]`` is the degree-(d+1) piece ch_{d+1}, a homogeneous
    FiberClass; the list always has length D-1 for truncation order D.
    """

    __slots__ = ("ring", "rank", "pieces")

    def __init__(self, ring: RingSpec, rank: int, pieces: Sequence[FiberClass]):
        want = ring.truncation - 1
        pieces = list(pieces)
        if len(pieces) != want:
            raise ValueError(f"need {want} character pieces, got {len(pieces)}")
        self.ring = ring
        self.rank = int(rank)
        self.pieces = tuple(pieces)

    @classmethod
    def trivial(cls, ring: RingSpec, rank: int) -> "BundleChar":
        zero = FiberClass.zero(ring)
        return cls(ring, rank, [zero] * (ring.truncation - 1))

    @classmethod
    def from_total(cls, ring: RingSpec, rank: int, total: FiberClass) -> "BundleChar":
        """Split a full character (with ch_0 = rank) into graded pieces."""
        return cls(
            ring, rank, [total.degree_part(d) for d in range(1, ring.truncation)]
        )

    def ch(self, degree: int) -> FiberClass:
        """The degree-d character piece (d = 0 gives the rank)."""
        if degree == 0:
            return FiberClass.const(self.ring, self.rank)
        return self.pieces[degree - 1]

    def __add__(self, other: "BundleChar") -> "BundleChar":
        return BundleChar(
            self.ring,
            self.rank + other.rank,
            [a + b for a, b in zip(self.pieces, other.pieces)],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BundleChar):
            return NotImplemented
        return self.rank == other.rank and self.pieces == other.pieces

    __hash__ = None

    def __repr__(self) -> str:
        return f"BundleChar(rank={self.rank}, ch1={self.pieces[0].text() if self.pieces else '-'})"


def line_bundle(ring: RingSpec, c1: FiberClass) -> BundleChar:
    """Line bundle with the given first Chern class: ch = exp(c1)."""
    return BundleChar.from_total(ring, 1, fiber_exp(c1))


def o_z(ring: RingSpec, n: int) -> BundleChar:
    """The relative line bundle O(n z) on P."""
    return line_bundle(ring, FiberClass.z(ring) * n)


def chern_from_parts(
    ring: RingSpec, parts: Sequence[tuple[GradedPoly, GradedPoly]], rank: int
) -> BundleChar:
    """Build a character from Chern-class data c_i = a_i + a_i' z.

    ``parts[i-1]`` is the pair (a_i, a_i'); a_i must be homogeneous of
    degree i and a_i' of degree i-1.  Newton's identities convert the
    elementary-symmetric data to power sums p_d, and ch_d = p_d / d!.
    """
    if len(parts) > rank:
        raise ValueError(f"got {len(parts)} Chern classes for rank {rank}")
    cs = [FiberClass.const(ring, 1)]
    for i, (a, ap) in enumerate(parts, start=1):
        c = FiberClass(a, ap)
        if not c.is_homogeneous(i):
            raise ValueError(f"c_{i} data is not homogeneous of degree {i}")
        cs.append(c)
    return _char_from_chern(ring, cs, rank)


def _char_from_chern(ring: RingSpec, cs: list[FiberClass], rank: int) -> BundleChar:
    """Newton: p_k = c_1 p_{k-1} - c_2 p_{k-2} + ... + (-1)^{k-1} k c_k."""
    zero = FiberClass.zero(ring)
    top = ring.truncation - 1
    c = lambda i: cs[i] if i < len(cs) else zero
    p: list[FiberClass] = [FiberClass.const(ring, rank)]
    for k in range(1, top + 1):
        acc = FiberClass.zero(ring)
        for i in range(1, k):
            term = c(i) * p[k - i]
            acc = acc + (term if i % 2 == 1 else -term)
        tail = c(k) * k
        acc = acc + (tail if k % 2 == 1 else -tail)
        p.append(acc)
    pieces = [p[k] * Fraction(1, factorial(k)) for k in range(1, top + 1)]
    return BundleChar(ring, rank, pieces)


def chern_of(b: BundleChar) -> list[FiberClass]:
    """Chern classes c_1, ..., c_min(rank, D-1) recovered from a character.

    Inverse Newton: k c_k = sum_{i=1..k} (-1)^{i-1} c_{k-i} p_i.
    """
    ring = b.ring
    top = min(b.rank, ring.truncation - 1) if b.rank >= 0 else ring.truncation - 1
    p = [b.pieces[d] * factorial(d + 1) for d in range(ring.truncation - 1)]
    cs: list[FiberClass] = [FiberClass.const(ring, 1)]
    for k in range(1, top + 1):
        acc = FiberClass.zero(ring)
        for i in range(1, k + 1):
            term = cs[k - i] * p[i - 1]
            acc = acc + (term if i % 2 == 1 else -term)
        cs.append(acc * Fraction(1, k))
    return cs[1:]


def dual(b: BundleChar) -> BundleChar:
    """Dual bundle: the degree-d character piece changes sign by (-1)^d."""
    pieces = [
        piece if (d + 1) % 2 == 0 else -piece for d, piece in enumerate(b.pieces)
    ]
    return BundleChar(b.ring, b.rank, pieces)


def tensor(a: BundleChar, b: BundleChar) -> BundleChar:
    """Tensor product: characters multiply degree by degree."""
    if a.ring != b.ring:
        raise ValueError("ring mismatch between characters")
    ring = a.ring
    pieces = []
    for d in range(1, ring.truncation):
        acc = FiberClass.zero(ring)
        for j in range(0, d + 1):
            acc = acc + a.ch(j) * b.ch(d - j)
        pieces.append(acc)
    return BundleChar(ring, a.rank * b.rank, pieces)


def det(b: BundleChar) -> BundleChar:
    """Determinant line bundle: c_1 = ch_1(b)."""
    return line_bundle(b.ring, b.ch(1))


def adams(b: BundleChar, k: int) -> BundleChar:
    """Adams operation psi^k: scales the degree-d piece by k^d."""
    if k < 1:
        raise ValueError("Adams operations need k >= 1")
    pieces = [piece * Fraction(k ** (d + 1)) for d, piece in enumerate(b.pieces)]
    return BundleChar(b.ring, b.rank, pieces)


def _combine(parts: Sequence[tuple[Fraction, BundleChar]], rank: int) -> BundleChar:
    ring = parts[0][1].ring
    pieces = []
    for d in range(ring.truncation - 1):
        acc = FiberClass.zero(ring)
        for coeff, term in parts:
            acc = acc + term.pieces[d] * coeff
        pieces.append(acc)
    return BundleChar(ring, rank, pieces)


def sym2(b: BundleChar) -> BundleChar:
    """Sym^2 via (ch^2 + psi^2) / 2."""
    half = Fraction(1, 2)
    rank = b.rank * (b.rank + 1) // 2
    return _combine([(half, tensor(b, b)), (half, adams(b, 2))], rank)


def wedge2(b: BundleChar) -> BundleChar:
    """wedge^2 via (ch^2 - psi^2) / 2."""
    half = Fraction(1, 2)
    rank = b.rank * (b.rank - 1) // 2
    return _combine([(half, tensor(b, b)), (-half, adams(b, 2))], rank)


# -- the projective sub-bundle P(E^v) over P --------------------------------


class ZetaRing:
    """A*(P)[zeta] modulo the rank-r monic relation for P(E^v) -> P.

    Built from the character of E; the relation coefficients are the Chern
    classes of E^v, so the reduction rule is
    zeta^r = -(c_1(E^v) zeta^{r-1} + ... + c_r(E^v)).
    """

    __slots__ = ("ring", "rank", "dual_chern", "_zeta_powers")

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
        self.dual_chern = tuple(chern_of(dual(e_char)))  # c_1(E^v), ..., c_r(E^v)
        self._zeta_powers: dict[int, "ZetaClass"] = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaRing):
            return NotImplemented
        return self.rank == other.rank and self.dual_chern == other.dual_chern

    __hash__ = None

    def zero(self) -> "ZetaClass":
        return ZetaClass(self, [FiberClass.zero(self.ring)] * self.rank)

    def const(self, value: Scalar) -> "ZetaClass":
        coeffs = [FiberClass.zero(self.ring)] * self.rank
        coeffs[0] = FiberClass.const(self.ring, value)
        return ZetaClass(self, coeffs)

    def of_fiber(self, c: FiberClass) -> "ZetaClass":
        coeffs = [FiberClass.zero(self.ring)] * self.rank
        coeffs[0] = c
        return ZetaClass(self, coeffs)

    def zeta_power(self, n: int) -> "ZetaClass":
        """zeta^n, reduced; cached because twists reuse small powers."""
        if n not in self._zeta_powers:
            raw = [FiberClass.zero(self.ring)] * (n + 1)
            raw[n] = FiberClass.const(self.ring, 1)
            self._zeta_powers[n] = ZetaClass(self, raw)
        return self._zeta_powers[n]


class ZetaClass:
    """Reduced polynomial c_0 + c_1 zeta + ... + c_{r-1} zeta^{r-1}."""

    __slots__ = ("zring", "coeffs")

    def __init__(self, zring: ZetaRing, coeffs: Sequence[FiberClass]):
        self.zring = zring
        self.coeffs = tuple(self._reduce(zring, list(coeffs)))

    @staticmethod
    def _reduce(zring: ZetaRing, raw: list[FiberClass]) -> list[FiberClass]:
        r = zring.rank
        zero = FiberClass.zero(zring.ring)
        while len(raw) < r:
            raw.append(zero)
        for m in range(len(raw) - 1, r - 1, -1):
            head = raw[m]
            if head.is_zero():
                continue
            raw[m] = zero
            for i, ci in enumerate(zring.dual_chern, start=1):
                raw[m - i] = raw[m - i] - ci * head
        return raw[:r]

    def __add__(self, other: "ZetaClass") -> "ZetaClass":
        return ZetaClass(self.zring, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "ZetaClass":
        return ZetaClass(self.zring, [-a for a in self.coeffs])

    def __sub__(self, other: "ZetaClass") -> "ZetaClass":
        return self + (-other)

    def __mul__(self, other: Union["ZetaClass", FiberClass, Scalar]) -> "ZetaClass":
        if isinstance(other, (int, Fraction)):
            return ZetaClass(self.zring, [a * other for a in self.coeffs])
        if isinstance(other, FiberClass):
            return ZetaClass(self.zring, [a * other for a in self.coeffs])
        r = self.zring.rank
        zero = FiberClass.zero(self.zring.ring)
        raw = [zero] * (2 * r - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                if b.is_zero():
                    continue
                raw[i + j] = raw[i + j] + a * b
        return ZetaClass(self.zring, raw)

    __rmul__ = __mul__

    def __pow__(self, exponent: int) -> "ZetaClass":
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = self.zring.const(1)
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZetaClass):
            return NotImplemented
        return self.coeffs == other.coeffs

    __hash__ = None

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

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
    """gamma_* of a reduced class: the zeta^{r-1} coefficient."""
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
