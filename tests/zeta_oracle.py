"""Reference oracle: the quotient ring A*(P)[zeta] / (zeta^r + c_1(E^v)
zeta^{r-1} + ... + c_r(E^v)) of a projective sub-bundle P(E^v) -> P.

The library holds only classes of zeta-degree below r and pushes powers of
zeta forward in closed form, through the Segre classes of E^v.  This
module keeps the route that closed form replaced, so the tests can check
one against the other: the Chern classes of a character by inverse
Newton, the reduction by the relation, and the reduced product and power.
``join`` builds fiber-ring classes P + Q z by ring arithmetic, with c2
read as -z^2, as the reference for ``split``.
"""

from fractions import Fraction
from math import factorial

from cecalc.bundles import BundleChar, ZetaClass, ZetaRing, dual, fiber_ring, push_gamma, push_pi
from cecalc.gring import GradedPoly


def join(p: GradedPoly, q: GradedPoly) -> GradedPoly:
    """P + Q z in the fiber ring over the base ring of P and Q."""
    fiber = fiber_ring(p.ring)
    z = fiber.gen("z")
    gens = [-(z * z) if name == "c2" else fiber.gen(name) for name in p.ring.names]

    def lift(x: GradedPoly) -> GradedPoly:
        acc = fiber.zero()
        for exps, coeff in x.terms.items():
            term = fiber.const(coeff)
            for gen, e in zip(gens, exps):
                term = term * gen**e
            acc = acc + term
        return acc

    return lift(p) + lift(q) * z


def chern_of(b: BundleChar) -> list[GradedPoly]:
    """Chern classes c_1, ..., c_min(rank, D-1) recovered from a character.

    Inverse Newton: k c_k = sum_{i=1..k} (-1)^{i-1} c_{k-i} p_i.
    """
    ring = b.ring
    top = min(b.rank, ring.truncation - 1) if b.rank >= 0 else ring.truncation - 1
    p = [b.ch(d) * factorial(d) for d in range(1, ring.truncation)]
    cs: list[GradedPoly] = [ring.one()]
    for k in range(1, top + 1):
        acc = ring.zero()
        for i in range(1, k + 1):
            term = cs[k - i] * p[i - 1]
            acc = acc + (term if i % 2 == 1 else -term)
        cs.append(acc * Fraction(1, k))
    return cs[1:]


class ZetaRelation:
    """The relation of P(E^v) -> P, its coefficients c_1(E^v), ..., c_r(E^v)
    recovered from the character of E, and the reduced arithmetic it gives."""

    def __init__(self, e_char: BundleChar):
        self.zring = ZetaRing(e_char)
        self.ring = e_char.ring
        self.rank = e_char.rank
        self.dual_chern = tuple(chern_of(dual(e_char)))

    def reduce(self, raw: list[GradedPoly]) -> ZetaClass:
        """c_0 + c_1 zeta + ... with zeta^r = -(c_1(E^v) zeta^{r-1} + ... + c_r(E^v))."""
        r = self.rank
        zero = self.ring.zero()
        raw = list(raw) + [zero] * (r - len(raw))
        for m in range(len(raw) - 1, r - 1, -1):
            head = raw[m]
            if head.is_zero():
                continue
            raw[m] = zero
            for i, ci in enumerate(self.dual_chern, start=1):
                raw[m - i] = raw[m - i] - ci * head
        return ZetaClass(self.zring, raw[:r])

    def zeta_power(self, n: int) -> ZetaClass:
        return self.reduce([self.ring.zero()] * n + [self.ring.one()])

    def of_fiber(self, c: GradedPoly) -> ZetaClass:
        return ZetaClass(self.zring, [c])

    def mul(self, x: ZetaClass, y: ZetaClass) -> ZetaClass:
        raw = [self.ring.zero()] * (2 * self.rank - 1)
        for i, a in enumerate(x.coeffs):
            for j, b in enumerate(y.coeffs):
                raw[i + j] = raw[i + j] + a * b
        return self.reduce(raw)

    def power(self, x: ZetaClass, exponent: int) -> ZetaClass:
        if exponent < 0:
            raise ValueError("negative powers are not defined")
        result = self.of_fiber(self.ring.one())
        for _ in range(exponent):
            result = self.mul(result, x)
        return result


def lift(c: ZetaClass, zring: ZetaRing) -> ZetaClass:
    """A class of a lower-truncation ring read in the ring of ``zring``."""
    return ZetaClass(zring, [a.retruncate(zring.ring) for a in c.coeffs])


def kappa_reference(c_class: ZetaClass, e_char: BundleChar, i: int) -> GradedPoly:
    """pi_* gamma_*([C] . (zeta - 2z)^{i+1}) by reduced products, [C] and E
    living over the same ring."""
    rel = ZetaRelation(e_char)
    omega = ZetaClass(rel.zring, [rel.ring.gen("z") * -2, rel.ring.one()])
    return push_pi(push_gamma(rel.mul(c_class, rel.power(omega, i + 1))))
