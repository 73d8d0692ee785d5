"""Splitting types of vector bundles on P^1 and stratum codimensions.

Every bundle on P^1 is a sum of line bundles O(e_1) + ... + O(e_r); the
non-decreasing integer vector (e_1, ..., e_r) is its splitting type, a
``SplittingType``: the sorted tuple of the parts.  All tensor-algebra
constructions act summand-wise, and every summand degree of a derived
bundle is a linear form in the parts, so its h^1 is a short integer sum
over those forms.  The codimension of the locus where a family degenerates
to given splitting types is an explicit alternating h^1 count:

  * degree-4 covers:   h1(End e) + h1(End f) - h1(Hom(f, Sym^2 e))
  * degree-5 covers:   h1(End e) + h1(End f) - h1(e . wedge^2 f . O(-g-4))

These formulas and the constraint predicates sum over the summand degrees
directly: no derived bundle is ever built as a ``SplittingType``.
``sym2_type``, ``wedge2_type`` and ``tensor_type`` build them only for
callers that want the types themselves.  The constraint predicates record
which splitting-type inequalities a smooth irreducible (or non-factoring)
cover forces, and the degree-4 enumeration reproduces the full stratum
table of a given genus.

Each public function validates its pair once, with ``_pair``, through
``_parts``, the one reader of parts, which ``SplittingType`` uses too.  A
``SplittingType`` passes as it is, and anything else becomes a sorted list
of ints read with ``operator.index``, so the plain tuples of a Pfaffian
sweep cost no type construction; a part that is not an integer, such as a
float or a string, is refused by name with the root's ``integer`` rather
than truncated.  The formulas then unpack the parts once, and the
predicates build their result tuples without the NamedTuple ``__new__``.
The degree-4 enumeration builds each type once, sorted, with its h1(End),
and calls the module-global ``constraints_4`` once for each pair it visits
(the benchmark tracer counts the visited pairs by wrapping that name).
Rows with equal flags share one flags tuple, each row's codimension is
``_codim4`` on the sorted summands of Sym^2 e, and one stable sort by
codim orders the table, since the loop visits the pairs in increasing
(e, f) order.
"""

from __future__ import annotations

from itertools import combinations
from operator import index, itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from . import MAX_DIGITS, check_digits, fits, integer

TypeLike = Sequence[int]


_new = tuple.__new__  # builds a tuple subclass, a NamedTuple too, without its own __new__


def _parts(parts: Iterable[int]) -> Sequence[int]:
    """The parts sorted: a ``SplittingType`` as it is, anything else as a
    sorted list of its parts read with ``operator.index``; ValueError, from
    ``integer``, naming the first part that is not an integer."""
    if isinstance(parts, SplittingType):
        return parts
    if not isinstance(parts, (tuple, list)):
        parts = tuple(parts)  # a one-shot iterable, read once so that it can be read again
    try:
        return sorted(map(index, parts))
    except TypeError:
        return sorted(integer(part, "splitting type part") for part in parts)


class SplittingType(tuple):
    """A splitting type: the sorted tuple of its parts, each an integer
    (ValueError naming a part that is not)."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]):
        return _new(cls, _parts(parts))

    @property
    def parts(self) -> tuple[int, ...]:
        return tuple(self)

    def text(self) -> str:
        return ",".join(map(str, self))

    @classmethod
    def parse(cls, s: str) -> "SplittingType":
        return cls(int(piece) for piece in s.split(","))

    def __repr__(self) -> str:
        return f"SplittingType({self.text()})"


# -- cohomology and summand-wise constructions ------------------------------


def h1(degrees: Iterable[int]) -> int:
    """h^1 of the sum of O(d) over the summand degrees d: sum of max(0, -d - 1)."""
    return sum(-d - 1 for d in degrees if d < -1)


def _sym2(t: Sequence[int]) -> Iterator[int]:
    return (a + b for i, a in enumerate(t) for b in t[i:])


def _wedge2(t: Iterable[int]) -> Iterator[int]:
    return (a + b for a, b in combinations(t, 2))


def tensor_type(s: TypeLike, t: TypeLike) -> SplittingType:
    t = SplittingType(t)  # once: the inner loop runs for each part of s
    return SplittingType(a + b for a in SplittingType(s) for b in t)


def sym2_type(t: TypeLike) -> SplittingType:
    return SplittingType(_sym2(SplittingType(t)))


def wedge2_type(t: TypeLike) -> SplittingType:
    return SplittingType(_wedge2(SplittingType(t)))


def _pair(e: TypeLike, f: TypeLike, ranks: tuple[int, int]) -> tuple:
    """(e, f) read with ``_parts``, without building a type; ValueError
    unless their parts are integers and their ranks are ``ranks``."""
    e, f = _parts(e), _parts(f)
    if len(e) != ranks[0] or len(f) != ranks[1]:
        raise ValueError(f"need ranks {ranks}, got ({len(e)}, {len(f)})")
    return e, f


# -- codimension formulas ----------------------------------------------------


def _h1_end(t: Sequence[int]) -> int:
    """h1(End t): the summands O(b - a) over every ordered pair of parts."""
    return h1(b - a for a in t for b in t)


def _codim4(sym2_e: Sequence[int], f: Sequence[int], end_e: int, end_f: int) -> int:
    """h1(End e) + h1(End f) - h1(Hom(f, Sym^2 e)), given the summand degrees
    of Sym^2 e, sorted, and the two h1(End).  The summand O(s - fl) adds
    fl - 1 - s to the last h1 while s < fl - 1, so each walk up the sorted
    degrees stops at the first s that adds nothing."""
    codim = end_e + end_f
    for fl in f:
        fl -= 1
        for s in sym2_e:
            if s >= fl:
                break
            codim += s - fl
    return codim


def codim_hurwitz4(e: TypeLike, f: TypeLike) -> int:
    """Codimension of the (e, f) stratum for degree-4 covers.

    Raw value of h1(End e) + h1(End f) - h1(Hom(f, Sym^2 e)); no clamping,
    filtering by the cover constraints is the caller's job.
    """
    e, f = _pair(e, f, (3, 2))
    return _codim4(sorted(_sym2(e)), f, _h1_end(e), _h1_end(f))


def codim_hurwitz5(e: TypeLike, f: TypeLike, genus: int) -> int:
    """Codimension of the (e, f) stratum for degree-5 covers of genus g."""
    genus = integer(genus, "genus", 2)
    e, f = _pair(e, f, (4, 5))
    deg_e, deg_f, target = sum(e), sum(f), genus + 4
    if deg_e != target or deg_f != 2 * target:
        check_digits("one of deg e, deg f, g + 4 and 2g + 8", deg_e, deg_f, 2 * target)
        raise ValueError(f"need degrees ({target}, {2 * target}), got ({deg_e}, {deg_f})")
    wedge2_f = tuple(_wedge2(f))
    return _h1_end(e) + _h1_end(f) - h1([a + b - target for a in e for b in wedge2_f])


def negative_summand_count5(e: TypeLike, f: TypeLike, genus: int) -> int:
    """Number of the 40 summands e_i + f_j + f_k - (g+4) that are negative.

    When the three Pfaffian inequalities of ``constraints_5`` hold, the
    count is at most 23: they force the 17 summands listed in
    ``QuinticConstraints`` to be nonnegative.  A cap of 11 fails even for
    smooth covers (see the README's "Known limitation" note).
    """
    e, f = _pair(e, f, (4, 5))
    wedge2_f, target = tuple(_wedge2(f)), genus + 4
    return sum(a + b < target for a in e for b in wedge2_f)


# -- constraint predicates ----------------------------------------------------


class QuarticConstraints(NamedTuple):
    """Splitting-type tests for degree-4 covers.

    ``irreducible_ok`` bundles the constraints forced by an irreducible
    cover: e_1 >= 1, the two pencil bounds 2e_1 >= f_1 and 2e_2 >= f_2, and
    ``second_quadric_varies``.  The last one rules out the corner case
    e_1 + e_3 < f_2 with 2e_3 <= f_2, where the lower quadric of the pencil
    is a binary form in the top two coordinates with constant coefficients,
    hence globally reducible: such a stratum contains no irreducible cover
    even though it satisfies the two pencil bounds.
    """

    degrees_match: bool          # sum(e) == sum(f)
    e1_positive: bool            # e_1 >= 1
    pencil_bound_f1: bool        # 2 e_1 >= f_1
    pencil_bound_f2: bool        # 2 e_2 >= f_2
    second_quadric_varies: bool  # not (e_1 + e_3 < f_2 and 2 e_3 <= f_2)
    non_factoring: bool          # e_1 + e_3 >= f_2
    in_h_prime: bool             # all summands of Hom(f, Sym^2 e) >= -1
    in_h_circ: bool              # all summands of Hom(f, Sym^2 e) >= 1

    @property
    def irreducible_ok(self) -> bool:
        return (
            self.degrees_match
            and self.e1_positive
            and self.pencil_bound_f1
            and self.pencil_bound_f2
            and self.second_quadric_varies
        )

    @property
    def non_factoring_ok(self) -> bool:
        return self.irreducible_ok and self.non_factoring


def constraints_4(e: TypeLike, f: TypeLike) -> QuarticConstraints:
    (e1, e2, e3), (f1, f2) = _pair(e, f, (3, 2))
    least = 2 * e1 - f2  # the least summand of Hom(f, Sym^2 e)
    return _new(QuarticConstraints, (  # in field order
        e1 + e2 + e3 == f1 + f2,
        e1 >= 1,
        2 * e1 >= f1,
        2 * e2 >= f2,
        not (e1 + e3 < f2 and 2 * e3 <= f2),
        e1 + e3 >= f2,
        least >= -1,
        least >= 1,
    ))


class QuinticConstraints(NamedTuple):
    """Splitting-type tests for degree-5 covers at a given genus.

    The three Pfaffian flags are necessary conditions for a cover, not
    sufficient ones: a pair can pass all three and still admit no
    irreducible cover.  Since e_i + f_j + f_k is monotone in i, j and k,
    they force 17 of the 40 summands e_i + f_j + f_k - (g+4) to be
    nonnegative (1-based): i = 4 with jk != 12, and i = 3 with jk not in
    {12, 13}.  The other 23 are unconstrained.
    """

    degrees_match: bool     # deg e == g+4 and deg f == 2g+8
    pfaffian_lower: bool    # f_1 + f_3 + e_4 >= g+4
    pfaffian_imp2: bool     # f_1 + f_4 + e_3 >= g+4
    pfaffian_imp3: bool     # f_2 + f_3 + e_3 >= g+4
    in_h_prime: bool        # all summands of the 40-term bundle >= -1
    in_h_circ: bool         # all summands >= 1 and f globally generated

    @property
    def pfaffian_ok(self) -> bool:
        return self.pfaffian_lower and self.pfaffian_imp2 and self.pfaffian_imp3


def constraints_5(e: TypeLike, f: TypeLike, genus: int) -> QuinticConstraints:
    (e1, e2, e3, e4), (f1, f2, f3, f4, f5) = _pair(e, f, (4, 5))
    target = genus + 4
    least = e1 + f1 + f2 - target  # the least of the 40 summands
    return _new(QuinticConstraints, (  # in field order
        e1 + e2 + e3 + e4 == target and f1 + f2 + f3 + f4 + f5 == 2 * target,
        f1 + f3 + e4 >= target,
        f1 + f4 + e3 >= target,
        f2 + f3 + e3 >= target,
        least >= -1,
        least >= 1 and f1 >= 0,
    ))


# -- degree-4 strata enumeration ----------------------------------------------


class StratumRecord(NamedTuple):
    e: SplittingType
    f: SplittingType
    codim: int
    flags: QuarticConstraints


_FILTERS = ("all", "irreducible", "non_factoring")

# Most (e, f) candidates a table may have, whatever its filter; genus 618 is
# the largest that fits.
MAX_STRATA_CANDIDATES = 10**7


def enumerate_strata4(genus: int, filter: str = "irreducible") -> list[StratumRecord]:
    """All degree-4 candidate strata (e, f) of total degree g+3.

    The search space is every sorted e = (e_1, e_2, e_3) with e_1 >= 1 and
    every sorted f = (f_1, f_2) with f_1 >= 1, both of degree g+3.  The
    ``irreducible`` filter keeps strata passing ``irreducible_ok``;
    ``non_factoring`` additionally requires e_1 + e_3 >= f_2; ``all`` keeps
    everything.  Rows are sorted by (codim, e, f): one stable sort by codim
    of the rows the loop makes in (e, f) order.  Rows with equal flags share
    one flags tuple, from one call of the module-global ``constraints_4``
    per visited pair (the benchmark tracer counts them).  Raises ValueError,
    before enumerating, when the search space holds more than
    ``MAX_STRATA_CANDIDATES`` pairs.  The two filters visit only the f
    within the pencil bounds of each e; the limit still counts every pair.
    """
    genus = integer(genus, "genus", 2)
    if filter not in _FILTERS:
        raise ValueError(f"filter must be one of {_FILTERS}, got {filter!r}")
    d = genus + 3
    # (number of sorted e: the partitions of d into three parts) * (number of sorted f)
    candidates = (d * d + 6) // 12 * (d // 2)
    if candidates > MAX_STRATA_CANDIDATES:
        count = candidates if fits(candidates) else f"at least 10^{MAX_DIGITS}"
        raise ValueError(
            f"genus {genus} has {count} candidate strata, "
            f"more than the limit of {MAX_STRATA_CANDIDATES}"
        )
    fs = [SplittingType((f1, d - f1)) for f1 in range(1, d // 2 + 1)]
    end_fs = [_h1_end(f) for f in fs]
    shared = {}  # one flags tuple for each value
    records = []
    for e1 in range(1, d // 3 + 1):
        for e2 in range(e1, (d - e1) // 2 + 1):
            if filter == "all":
                first, last = 1, d // 2
            else:
                # irreducible_ok needs the pencil bounds f_1 <= 2 e_1 and
                # f_2 = d - f_1 <= 2 e_2, and non_factoring_ok needs irreducible_ok
                first, last = max(1, d - 2 * e2), min(d // 2, 2 * e1)
                if first > last:
                    continue
            e = SplittingType((e1, e2, d - e1 - e2))
            sym2_e, end_e = sorted(_sym2(e)), _h1_end(e)
            for f, end_f in zip(fs[first - 1 : last], end_fs[first - 1 : last]):
                flags = constraints_4(e, f)
                if filter == "irreducible" and not flags.irreducible_ok:
                    continue
                if filter == "non_factoring" and not flags.non_factoring_ok:
                    continue
                flags = shared.setdefault(flags, flags)
                records.append(_new(StratumRecord, (e, f, _codim4(sym2_e, f, end_e, end_f), flags)))
    records.sort(key=itemgetter(2))  # stable, so by (codim, e, f)
    return records
