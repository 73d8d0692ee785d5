"""Casnati-Ekedahl class machinery for degree 3, 4 and 5 covers of P^1.

A degree-k cover C -> P^1 of genus g determines a rank-(k-1) bundle E (of
degree g+k-1) on the universal P^1-bundle and a second bundle F, of rank
``ce_rank(1, k)`` = 1, 2, 5, sitting in the resolution of the curve inside
P(E^v).  Writing c_i(E) = a_i + a_i' z and c_i(F) = b_i + b_i' z, the classes

    c2, a1, a_i, a_i' (2 <= i <= rank E), b_i, b_i' (2 <= i <= rank F)

generate the ring where all the computations below take place.  The built
in identities are a_1' = g+k-1 and c_1(F) = m c_1(E), that is
det F = (det E)^m, with m = 1, 1, 2 for k = 3, 4, 5.  So one rule builds
the ring and the Chern data of both bundles from the two ranks; for k = 3,
F is the line bundle det E.  A numeric genus must be at least 2; a symbolic
genus is handled by a degree-0 generator ``g``, so kappa-class coefficients
come out as polynomials in g.

The universal curve class [C] in P(E^v) is assembled from character pieces
of F and of det E, the line bundle exp(c_1(E)), and held as its r = k - 1
fiber-ring coefficients; the character of E itself is never built, and
the kappa classes read only its Chern classes.  They are

    kappa_i = pi_* gamma_*([C] . (zeta - 2z)^{i+1}).

With r = k - 1, [C] = sum_{a<r} C_a zeta^a and the Segre classes h_n of E^v
(sum_n h_n t^n = 1 / c_t(E^v), so gamma_* zeta^{r-1+n} = h_n), this is

    kappa_i = pi_* sum_{a,b} C(i+1, b) C_a (-2z)^{i+1-b} h_{a+b-r+1},

and no product of zeta classes is formed or reduced.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Optional, Union

from . import MAX_DIGITS, integer
from .bundles import ZetaClass, chern_from_parts, dual, fiber_ring, push_pi, zeta_twisted_ch
from .gring import GradedPoly, RingSpec

SUPPORTED_DEGREES = (3, 4, 5)

# The largest kappa index computed at each degree.  The cost grows fast with
# i and tracks no term count; symbolic kappa_i at the limit takes about 3 s
# (2 CPUs, Python 3.11), and kappa_i at a small numeric genus less.
KAPPA_INDEX_LIMIT = {3: 30, 4: 20, 5: 16}


def ce_rank(i: int, k: int) -> int:
    """Rank of the i-th syzygy bundle in the length-(k-2) resolution.

    The general formula i(k-2-i)/(k-1) * C(k, i+1) evaluates to 0 at the
    final step i = k-2, where the bundle is the determinant line bundle;
    that case is pinned to 1.  C(k, i+1) = C(k, j) with j = min(i+1, k-i-1)
    <= k/2, and C(k, t) only grows up to t = j, so it is formed at
    t = 1, 3, 7, ..., j: a rank of more than MAX_DIGITS digits, too long for
    Python to print and seconds to minutes to build, is refused as soon as
    one of these shows it, and each is at most about the square of the last
    one, which did not.
    """
    k, i = integer(k, "covering degree", 3), integer(i, "index")
    if not 1 <= i <= k - 2:
        raise ValueError(f"index {i} outside [1, {k - 2}]")
    if i == k - 2:
        return 1
    scale = i * (k - 2 - i)
    cap = 10**MAX_DIGITS * (k - 1)  # rank >= 10^MAX_DIGITS iff C * scale >= cap
    j = min(i + 1, k - i - 1)
    t = 0
    while t < j:
        t = min(2 * t + 1, j)
        binom = comb(k, t)
        if binom * scale >= cap:
            raise ValueError(f"rank for k = {k}, i = {i} has more than {MAX_DIGITS} digits")
    rank, rest = divmod(binom * scale, k - 1)
    if rest:
        raise ArithmeticError(f"non-integral rank for (i={i}, k={k})")
    return rank


def _bundles(k: int) -> tuple[tuple[str, int, int], ...]:
    """(letter, rank, m) for E and F: the letter names their Chern classes
    and c_1 = m c_1(E), so det F = (det E)^m with m = 1, 1, 2 for k = 3, 4, 5."""
    return (("a", k - 1, 1), ("b", ce_rank(1, k), {3: 1, 4: 1, 5: 2}[k]))


def _generators(k: int) -> tuple[tuple[str, int], ...]:
    """c2, a1, then a_i, a_i' for 2 <= i <= rank E and b_i, b_i' for
    2 <= i <= rank F, with weights i and i-1; a_1' and the b_1 data are
    not generators."""
    gens = [("c2", 2), ("a1", 1)]
    for letter, rank, _ in _bundles(k):
        gens += [(f"{letter}{i}", i) for i in range(2, rank + 1)]
        gens += [(f"{letter}{i}'", i - 1) for i in range(2, rank + 1)]
    return tuple(gens)


def presentation(k: int, genus: int) -> tuple[tuple[tuple[str, int], ...], int]:
    """Free generators of the class ring and the degree below which it is free.

    Returns (generators-with-weights, bound): every relation among the
    generators has degree >= bound, which is g+3, g+4, g+5 for k = 3, 4, 5.
    """
    k = integer(k, "covering degree")
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported covering degree {k}")
    genus = integer(genus, "genus", 2)
    return _generators(k), genus + k


class CESetup(NamedTuple):
    """A covering degree, its class ring, and the Chern classes of E and F
    in the fiber ring over it; the character of F is built on demand."""

    degree: int
    genus: Optional[int]  # None means symbolic
    ring: RingSpec
    e_chern: tuple[GradedPoly, ...]  # c_i(E) = a_i + a_i' z
    f_chern: tuple[GradedPoly, ...]  # c_i(F) = b_i + b_i' z

    @property
    def f_char(self) -> GradedPoly:
        """The character of F; it is that of det E when degree == 3."""
        return chern_from_parts(fiber_ring(self.ring), self.f_chern, len(self.f_chern))


def ce_setup(k: int, genus: Optional[int] = None, truncation: int = 8) -> CESetup:
    """Build the class ring and the Chern data of the universal bundles.

    ``genus=None`` adds a weight-0 generator ``g`` and keeps the genus
    symbolic; a given genus must be at least 2.  The truncation order
    bounds every computation downstream; kappa_i needs truncation > i + k - 1.
    """
    k = integer(k, "covering degree")
    if k not in SUPPORTED_DEGREES:
        raise ValueError(f"unsupported covering degree {k}")
    genus = None if genus is None else integer(genus, "genus", 2)
    truncation = integer(truncation, "truncation", 2)
    ring = RingSpec(_generators(k) + ((("g", 0),) if genus is None else ()), truncation)
    fiber = fiber_ring(ring)
    z = fiber.gen("z")
    a1p = fiber.gen("g") + fiber.const(k - 1) if genus is None else fiber.const(genus + k - 1)
    chern = []
    for letter, rank, m in _bundles(k):
        cs = [(fiber.gen("a1") + a1p * z) * m]
        cs += [fiber.gen(f"{letter}{i}") + fiber.gen(f"{letter}{i}'") * z for i in range(2, rank + 1)]
        chern.append(tuple(cs))
    e_chern, f_chern = chern
    return CESetup(degree=k, genus=genus, ring=ring, e_chern=e_chern, f_chern=f_chern)


def curve_class(setup: CESetup) -> ZetaClass:
    """The class of the universal curve in P(E^v), of degree k-2.

    Assembled as the alternating sum of degree-(k-2) character pieces of
    the twisted resolution bundles:

        k=3:  -ch_1(det E (-3))
        k=4:  -ch_2(F (-2)) + ch_2(det E (-4))
        k=5:  -ch_3(F (-2)) + ch_3((F^v . det E)(-3)) - ch_3(det E (-5))

    The setup's truncation must exceed r = k-1, the degree of the relation
    of P(E^v); det E is the line bundle exp(c_1(E)).
    """
    k = setup.degree
    truncation = setup.ring.truncation
    if truncation < k:
        raise ValueError(f"truncation {truncation} too small for a rank-{k - 1} relation")
    fiber = fiber_ring(setup.ring)
    f_char = setup.f_char
    det_e = chern_from_parts(fiber, setup.e_chern[:1], 1)
    if k == 3:
        terms = [(-1, det_e, -3)]
    elif k == 4:
        terms = [(-1, f_char, -2), (1, det_e, -4)]
    else:
        middle = dual(f_char) * det_e
        terms = [(-1, f_char, -2), (1, middle, -3), (-1, det_e, -5)]
    acc = ZetaClass([fiber.zero()] * (k - 1))
    for sign, char, n in terms:
        acc = acc + zeta_twisted_ch(char, n, k - 2, k - 1) * sign
    return acc


class KappaResult(NamedTuple):
    """A kappa class expanded in the setup's generators."""

    index: int
    degree: int
    polynomial: GradedPoly


def kappa(setup: CESetup, i: int) -> KappaResult:
    """kappa_i = pi_* gamma_*([C] . (zeta - 2z)^{i+1}), in closed form.

    Expanding (zeta - 2z)^{i+1} binomially, with r = k - 1,

        kappa_i = pi_* sum_{a,b} C(i+1, b) C_a (-2z)^{i+1-b} h_{a+b-r+1},

    since the relation of P(E^v) gives gamma_* zeta^{r-1+n} = h_n, the
    Segre classes of E^v (h_n = 0 for n < 0).  As c_j(E^v) = (-1)^j c_j(E),

        h_0 = 1,  h_n = -sum_{j=1..min(n,r)} (-1)^j c_j(E) h_{n-j},

    with c_j(E) = a_j + a_j' z off the setup.  [C] = sum_{a<r} C_a zeta^a
    does not depend on the truncation: it is built at k and lifted.
    """
    i = integer(i, "kappa index", 0)
    k = setup.degree
    needed = (k - 2) + (i + 1)
    ring = setup.ring
    if needed >= ring.truncation:
        raise ValueError(
            f"truncation {ring.truncation} too small for kappa_{i} "
            f"at degree {k} (needs > {needed})"
        )
    r = k - 1
    fiber = fiber_ring(ring)
    segre = [fiber.one()]
    for n in range(1, i + 2):
        acc = fiber.zero()
        for j in range(1, min(n, r) + 1):
            term = setup.e_chern[j - 1] * segre[n - j]
            acc = acc + term if j % 2 == 1 else acc - term
        segre.append(acc)
    c_class = [c.retruncate(fiber) for c in curve_class_value(k, setup.genus, k).coeffs]
    minus_2z = fiber.gen("z") * -2
    powers = [fiber.one()]
    for _ in range(i + 1):
        powers.append(powers[-1] * minus_2z)
    # the zeta^b coefficients C(i+1, b) (-2z)^{i+1-b} of (zeta - 2z)^{i+1}
    omega = [powers[i + 1 - b] * comb(i + 1, b) for b in range(i + 2)]
    total = fiber.zero()
    for a, c in enumerate(c_class):
        pushed = fiber.zero()  # gamma_*(zeta^a (zeta - 2z)^{i+1})
        for b in range(r - 1 - a, i + 2):
            pushed = pushed + omega[b] * segre[a + b - r + 1]
        total = total + c * pushed
    return KappaResult(index=i, degree=k, polynomial=push_pi(total))


def curve_class_value(k: int, genus: Union[int, None], truncation: int) -> ZetaClass:
    """Build a setup and return [C] for degree k.

    [C] has degree k-2 and the zeta relation needs truncation > k-1, so it
    is computed at truncation k for every T >= k and does not depend on T; a
    smaller T raises the setup's or ``curve_class``'s own error.
    """
    return curve_class(ce_setup(k, genus, min(truncation, k)))


def kappa_value(k: int, i: int, genus: Union[int, None], truncation: Optional[int] = None) -> GradedPoly:
    """Build a setup and return the kappa_i polynomial in the truncation-T
    ring; the default T is i + k + 2.  An index past ``KAPPA_INDEX_LIMIT``
    is refused before any ring is built."""
    k, i = integer(k, "covering degree"), integer(i, "kappa index")
    if i > KAPPA_INDEX_LIMIT.get(k, i):
        raise ValueError(f"kappa index i = {i} at k = {k} is past the limit of {KAPPA_INDEX_LIMIT[k]}")
    if truncation is None:
        truncation = i + k + 2
    return kappa(ce_setup(k, genus, truncation), i).polynomial
