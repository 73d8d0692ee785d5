"""Exact minimization of piecewise-linear objectives over rational polytopes.

A program has n variables, equality constraints, inequality constraints
(coeffs . x <= rhs), and an objective made of a linear part plus hinge
terms sign * max(0, coeffs . x - rhs).  A hinge of sign +1 is convex and
one of sign -1 is concave.  On each cell of the hyperplane arrangement cut
by the breakpoints of the +1 hinges, the objective is linear plus concave,
so its minimum over the polytope intersected with that cell is attained at
a vertex of that intersection: a point where m independent boundary or
+1 breakpoint hyperplanes meet.  The solver therefore:

  1. folds the equalities into an integer Gauss-Jordan basis, working in
     integer coordinates on the affine subspace;
  2. certifies boundedness, in integers, by checking that the recession
     cone of the projected inequalities is trivial: the normals must span,
     and no null line of m - 1 independent normals may be a recession ray;
  3. walks the m-subsets of the projected boundary hyperplanes and +1
     breakpoint hyperplanes (the -1 breakpoints need no vertices of their
     own), keeps the feasible intersection points and evaluates the
     objective at each as an integer numerator over a known denominator.

The only linear algebra is one step: extending an integer Gauss-Jordan
basis by a row.  It eliminates the equalities, checks that the normals
span and puts each plane in normal form, as its one-row basis.  Steps 2
and 3 share one depth-first walk over subsets, which extends the basis one
plane at a time, reads each null line or vertex off it, and skips every
completion of a dependent prefix without visiting it.

Programs whose subset counts exceed ``MAX_SUBSETS`` are refused with
ValueError before any enumeration starts.

``sample_check`` is an independent certificate that the solver's minimum
is not too high: a hit-and-run walk on a lattice in subspace coordinates,
every point of which is feasible by construction.  It shares steps 1 and 2
and the objective numerator with the solver, not the enumeration.  It fails
only before its first step: on an empty or unbounded region, or when no
start is given and the subspace origin is infeasible.

Everything is integer arithmetic, with Fractions only for the inputs, the
minimum and the argmin points; there is no floating point anywhere, so
reported minima and argmin points are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, lcm
from numbers import Real
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]

# Largest number of subsets the boundedness check or the vertex enumeration
# may visit; larger programs would run for hours, so they are refused.
MAX_SUBSETS = 10**6


class PLError(Exception):
    """Base class for solver failures."""


class InfeasibleError(PLError):
    """The feasible region is empty."""


class UnboundedError(PLError):
    """The feasible region is unbounded (vertex enumeration is invalid)."""


class SamplingError(PLError):
    """The sampling walk has no feasible start: its region is empty or unbounded."""


def _vec(values: Iterable[Scalar], n: int, what: str) -> Vector:
    out = tuple(Fraction(v) for v in values)
    if len(out) != n:
        raise ValueError(f"{what} has length {len(out)}, expected {n}")
    return out


class Hinge(NamedTuple):
    """A term sign * max(0, coeffs . x - rhs); sign is +1 or -1."""

    sign: int
    coeffs: Vector
    rhs: Fraction


class PLProgram(NamedTuple):
    num_vars: int
    equalities: tuple[tuple[Vector, Fraction], ...]
    inequalities: tuple[tuple[Vector, Fraction], ...]  # coeffs . x <= rhs
    objective_linear: Vector
    objective_const: Fraction
    hinges: tuple[Hinge, ...]


def program(
    num_vars: int,
    equalities: Sequence[tuple[Sequence[Scalar], Scalar]] = (),
    inequalities: Sequence[tuple[Sequence[Scalar], Scalar]] = (),
    objective_linear: Sequence[Scalar] = (),
    objective_const: Scalar = 0,
    hinges: Sequence[tuple[int, Sequence[Scalar], Scalar]] = (),
) -> PLProgram:
    """Build a PLProgram, coercing every number to Fraction and validating."""
    if num_vars < 1:
        raise ValueError(f"need at least one variable, got {num_vars}")
    eqs = tuple((_vec(a, num_vars, "equality"), Fraction(b)) for a, b in equalities)
    les = tuple((_vec(a, num_vars, "inequality"), Fraction(b)) for a, b in inequalities)
    lin = _vec(objective_linear or [0] * num_vars, num_vars, "objective")
    hs = []
    for sign, coeffs, rhs in hinges:
        if sign not in (1, -1):
            raise ValueError(f"hinge sign must be +1 or -1, got {sign}")
        hs.append(Hinge(sign, _vec(coeffs, num_vars, "hinge"), Fraction(rhs)))
    return PLProgram(num_vars, eqs, les, lin, Fraction(objective_const), tuple(hs))


class PLSolution(NamedTuple):
    min_value: Fraction
    # The minimising vertices of the reduced arrangement (boundary and +1
    # breakpoint hyperplanes), sorted lexicographically, deduplicated.  The
    # -1 hinges are concave, so the minimum is always attained at one; a
    # minimiser that is a vertex only where a -1 breakpoint cuts is not listed.
    argmin_points: tuple[Vector, ...]
    planes: int  # distinct hyperplanes enumerated, after deduplication
    subsets: int  # m-subsets of those planes, C(planes, m)
    singular: int  # subsets whose planes do not meet in one point
    infeasible: int  # intersection points outside the region
    feasible: int  # intersection points inside the region, each evaluated

    @property
    def candidates_examined(self) -> int:
        """Non-singular subsets: intersection points checked for feasibility."""
        return self.infeasible + self.feasible


# -- exact evaluation ---------------------------------------------------------


def _dot(a: Sequence[Scalar], x: Sequence[Scalar]) -> Scalar:
    return sum(ai * xi for ai, xi in zip(a, x))


def objective_value(p: PLProgram, x: Sequence[Scalar]) -> Fraction:
    x = _vec(x, p.num_vars, "point")
    value = _dot(p.objective_linear, x) + p.objective_const
    for h in p.hinges:
        excess = _dot(h.coeffs, x) - h.rhs
        if excess > 0:
            value += h.sign * excess
    return value


def is_feasible(p: PLProgram, x: Sequence[Scalar]) -> bool:
    x = _vec(x, p.num_vars, "point")
    return all(_dot(a, x) == b for a, b in p.equalities) and all(
        _dot(a, x) <= b for a, b in p.inequalities
    )


# -- exact linear algebra -----------------------------------------------------
#
# A basis is a list of (pivot column, row) pairs of integer rows.  Each row is
# primitive, positive at its own pivot column and 0 at every other pivot
# column, so it is a row of the reduced row echelon form times a positive
# integer.

_Basis = list[tuple[int, tuple[int, ...]]]


def _reduce(basis: _Basis, row: Sequence[int]) -> list[int]:
    """l * row minus the multiples of the basis rows that clear every pivot
    column, l being the lcm of the pivots."""
    scale = lcm(*(b[c] for c, b in basis))
    new = [scale * v for v in row]
    for c, b in basis:
        if row[c]:
            f = row[c] * (scale // b[c])
            new = [v - f * w for v, w in zip(new, b)]
    return new


def _extend(basis: _Basis, row: Sequence[int], m: int) -> Optional[_Basis]:
    """The basis of the rows of ``basis`` and ``row``, pivots among the first m columns.

    The reduced row pivots at its first nonzero column below m and is made
    primitive and positive there; every basis row nonzero in that column is
    then back-reduced by it.  Returns None, leaving ``basis`` as it is, when
    the first m entries of the reduced row are 0: the row is dependent there.
    """
    new = _reduce(basis, row)
    col = next((c for c in range(m) if new[c]), None)
    if col is None:
        return None
    g = gcd(*new) if new[col] > 0 else -gcd(*new)
    new = tuple(v // g for v in new)
    pivot = new[col]
    extended = []
    for c, b in basis:
        f = b[col]
        if f:
            b = [pivot * v - f * w for v, w in zip(b, new)]
            g = gcd(*b)
            b = tuple(v // g for v in b)
        extended.append((c, b))
    extended.append((col, new))
    return extended


def _solved(basis: _Basis, j: int, m: int) -> tuple[list[int], int]:
    """(v, q): the basis solved for column j over q, the lcm of the pivots.

    v / q is the vector y of length m with b[c] y_c = b[j] for each basis
    row b at its pivot column c, and 0 at every other column.
    """
    q = lcm(*(b[c] for c, b in basis))
    v = [0] * m
    for c, b in basis:
        v[c] = b[j] * (q // b[c])
    return v, q


def _independent_subsets(rows: Sequence[tuple[int, ...]], size: int, m: int) -> Iterator[_Basis]:
    """The basis of each size-subset of rows independent in its first m columns.

    Subsets are visited depth-first in ``itertools.combinations`` order, the
    basis of the current prefix extended by one row per step.  When a new
    row is dependent on the prefix, every completion of it is skipped
    unvisited.  One basis per depth is kept on an explicit stack, so the
    depth is not bounded by the recursion limit.
    """
    if size == 0:
        yield []
        return
    n = len(rows)
    bases: list[_Basis] = [[]]  # bases[d]: first d rows
    nxt = [0]  # nxt[d]: index of the next row to try at depth d
    while nxt:
        d = len(nxt) - 1
        j = nxt[d]
        if j > n - size + d:  # too few rows left to complete a subset
            nxt.pop()
            bases.pop()
            continue
        nxt[d] = j + 1
        extended = _extend(bases[d], rows[j], m)
        if extended is None:  # dependent prefix: none of its completions is independent
            continue
        if d + 1 == size:
            yield extended
        else:
            bases.append(extended)
            nxt.append(j + 1)


def _check_bounded(rows: list[tuple[int, ...]], m: int) -> None:
    """Raise UnboundedError unless {t : W t <= 0} is the zero cone.

    ``rows`` are the nonzero constraint normals, the rows of W.  With m = 0
    the region is a single point and there is nothing to check.
    """
    if m == 0:
        return
    if not rows:
        raise UnboundedError("no inequality constrains the affine subspace")
    span: _Basis = []
    for w in rows:
        span = _extend(span, w, m) or span
    if len(span) < m:
        raise UnboundedError("constraint normals do not span; region contains a line")
    if m == 1:
        # every nonzero normal pins one side; both signs blocked iff normals differ in sign
        if all(w[0] > 0 for w in rows) or all(w[0] < 0 for w in rows):
            raise UnboundedError("feasible interval is a half line")
        return
    for basis in _independent_subsets(rows, m - 1, m):
        # the null line of m - 1 independent rows, primitive and positive at
        # the one free column
        pivots = [c for c, _ in basis]
        free = next(c for c in range(m) if c not in pivots)
        vec, q = _solved(basis, free, m)
        vec[free] = -q
        g = gcd(*vec)
        d = tuple(-v // g for v in vec)
        for ray in (d, tuple(-v for v in d)):
            if all(sum(wi * di for wi, di in zip(w, ray)) <= 0 for w in rows):
                raise UnboundedError(f"recession ray {ray} detected")


# -- the integer core shared by the solver and the sampler --------------------


def _integral(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """(l * values, l) in integers, l being the lcm of the denominators."""
    scale = lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


class _Region(NamedTuple):
    """A program on its equality subspace, in integers.

    ``eq`` is the basis of the equality rows (a, b), a . x = b, at width
    n + 1; the subspace coordinates are t_j = x[free_j], its non-pivot
    columns, and each row solved for its pivot coordinate gives the rest of
    x.  Every linear form a . x - b is kept as integers (w, c, s), s > 0,
    with a . x - b = (w . t - c) / s, divided by their gcd, so it does not
    depend on how the subspace was found.
    """

    free: tuple[int, ...]
    eq: _Basis
    ineq: list[tuple[tuple[int, ...], int]]  # w . t <= c, each w nonzero
    # distinct boundary and +1 breakpoint planes (*w, c), each its own
    # one-row basis: primitive with a positive lead
    planes: list[tuple[int, ...]]
    linear: tuple[tuple[int, ...], int, int]  # (w, c, scale // s) of the linear part
    hinges: list[tuple[int, tuple[int, ...], int, int]]  # (sign, w, c, scale // s)
    scale: int


def _region(p: PLProgram, empty: PLError) -> _Region:
    """Eliminate the equalities, project every form and certify boundedness.

    The equality rows are folded into one basis; a pivot in its rhs column
    means some combination of them reads 0 = b != 0.  A form is projected
    by reducing its row (a, b) by that basis, which clears the pivot
    columns and leaves w at the free columns and c in the rhs column.

    Boundedness is certified by the same pruned walk as the vertex
    enumeration, over the (m-1)-subsets of the constraint normals: each
    independent one has a null line, and neither of its two rays d may have
    W d <= 0, W being the matrix of normals.

    Raises InfeasibleError when the equalities are inconsistent, ``empty``
    when an inequality that is constant on the subspace fails, ValueError
    when the boundedness check or the vertex enumeration would visit more
    than ``MAX_SUBSETS`` subsets, and UnboundedError when the region is
    unbounded, in that order.
    """
    n = p.num_vars
    eq: _Basis = []
    for a, b in p.equalities:
        eq = _extend(eq, _integral((*a, b))[0], n + 1) or eq
    pivots = {c for c, _ in eq}
    if n in pivots:  # a pivot in the rhs column: some combination reads 0 = b != 0
        raise InfeasibleError("equality constraints are inconsistent")
    free = tuple(c for c in range(n) if c not in pivots)
    den = lcm(*(b[c] for c, b in eq))  # the factor _reduce scales every row by

    def project(a: Vector, b: Fraction) -> tuple[tuple[int, ...], int, int]:
        row, scale = _integral((*a, b))
        row = _reduce(eq, row)
        w = [row[f] for f in free]
        g = gcd(row[n], scale * den, *w)
        return tuple(v // g for v in w), row[n] // g, scale * den // g

    m = len(free)
    ineq = []
    for a, b in p.inequalities:
        w, c, _ = project(a, b)
        if any(w):
            ineq.append((w, c))
        elif c < 0:
            raise empty
    lin = project(p.objective_linear, Fraction(0))
    hinges = [(h.sign, *project(h.coeffs, h.rhs)) for h in p.hinges]
    planes = list(dict.fromkeys(
        _extend([], (*w, c), m)[0][1]
        for w, c in ineq + [(w, c) for sign, w, c, _ in hinges if sign > 0 and any(w)]
    ))

    for count, what, size in (
        (len(ineq), "inequality planes", m - 1),
        (len(planes), "distinct boundary and +1 breakpoint planes", m),
    ):
        total = comb(count, size) if size >= 0 else 0
        if total > MAX_SUBSETS:
            raise ValueError(
                f"program too large: {count} {what} in dimension m = {m} give "
                f"{total} subsets of size {size}, over the limit of {MAX_SUBSETS}"
            )
    _check_bounded([w for w, _ in ineq], m)

    scale = lcm(lin[2], *(s for *_, s in hinges))
    return _Region(
        free, eq, ineq, planes,
        (lin[0], lin[1], scale // lin[2]),
        [(sign, w, c, scale // s) for sign, w, c, s in hinges],
        scale,
    )


def _numerator(r: _Region, tn: Sequence[int], q: int) -> int:
    """The objective at t = tn / q is const + _numerator(r, tn, q) / (r.scale * q)."""
    w, c, mult = r.linear
    total = (_dot(w, tn) - c * q) * mult
    for sign, w, c, mult in r.hinges:
        excess = _dot(w, tn) - c * q
        if excess > 0:
            total += sign * excess * mult
    return total


def _lift(r: _Region, tn: Sequence[int], q: int) -> Vector:
    """The point x with subspace coordinates t = tn / q, in Fractions."""
    n = len(r.free) + len(r.eq)
    x = [Fraction(0)] * n
    for f, t in zip(r.free, tn):
        x[f] = Fraction(t, q)
    for c, b in r.eq:  # b[c] x_c + sum_f b[f] t_f = b[n]
        x[c] = Fraction(b[n] * q - sum(b[f] * t for f, t in zip(r.free, tn)), b[c] * q)
    return tuple(x)


# -- the solver ---------------------------------------------------------------


def solve(p: PLProgram) -> PLSolution:
    """Exact global minimum of the hinge objective over the feasible region.

    On each cell cut by the +1 breakpoints the objective is linear plus the
    concave -1 hinges, so its minimum over the region intersected with the
    cell sits at a vertex of that intersection.  Only the boundary planes
    and the +1 breakpoint planes are enumerated; the -1 breakpoint planes
    cannot move the minimum.  ``argmin_points`` are the minimising vertices
    of that reduced arrangement, each also a vertex of the full one.

    The m-subsets of planes are walked depth-first, each prefix kept as an
    integer Gauss-Jordan basis; a prefix whose planes are dependent is
    dropped with all its completions, which are counted as singular.  Each
    independent subset gives its vertex as integers t = tn / q, q being the
    lcm of the pivots; feasibility and the objective are evaluated on those
    integers, and only the minimising vertices are lifted to Fraction
    points x.  A region that is one point (m = 0) is the single empty subset.

    Raises InfeasibleError when the region is empty and UnboundedError when
    it is unbounded.  Boundedness is a property of the recession cone of
    the constraint system and is certified before minimization (the vertex
    method needs a polytope), so a system that is simultaneously empty and
    recession-positive reports UnboundedError.  Raises ValueError, before
    either step, when the boundedness check or the enumeration would visit
    more than ``MAX_SUBSETS`` subsets.
    """
    r = _region(p, InfeasibleError("inequality violated on the equality subspace"))
    m = len(r.free)
    best: Optional[tuple[int, int]] = None  # (numerator, q) of the least value so far
    argmins: dict[tuple[tuple[int, ...], int], None] = {}
    vertices = infeasible = 0
    for basis in _independent_subsets(r.planes, m, m):
        vertices += 1
        tn, q = _solved(basis, m, m)
        if any(_dot(w, tn) > c * q for w, c in r.ineq):
            infeasible += 1
            continue
        g = gcd(q, *tn)
        q, tn = q // g, tuple(v // g for v in tn)
        num = _numerator(r, tn, q)
        if best is None or num * best[1] < best[0] * q:
            best, argmins = (num, q), {}
        if num * best[1] == best[0] * q:
            argmins[tn, q] = None
    if best is None:
        raise InfeasibleError("no intersection point satisfies all constraints")
    subsets = comb(len(r.planes), m)
    return PLSolution(
        p.objective_const + Fraction(best[0], r.scale * best[1]),
        tuple(sorted(_lift(r, tn, q) for tn, q in argmins)),
        planes=len(r.planes), subsets=subsets, singular=subsets - vertices,
        infeasible=infeasible, feasible=vertices - infeasible,
    )


# -- feasible-point sampling oracle -------------------------------------------


def sample_check(
    p: PLProgram,
    trials: int,
    seed: int,
    center: Optional[Sequence[Scalar]] = None,
) -> Fraction:
    """Minimum of the objective over the points of a hit-and-run walk.

    The region is first reduced and certified bounded exactly as ``solve``
    does it.  The walk starts at ``center``, which must be feasible, or,
    without one, at the origin of the subspace coordinates, and lives on
    the lattice (1/Q) Z^m of those coordinates, Q being 64 times the lcm of
    the start's denominators.  Each step picks a direction d uniformly from
    {-1, 0, 1}^m minus 0, computes from the integer slacks of the projected
    inequalities the chord of lattice points t + j d that stay feasible, and
    moves to one of them chosen uniformly (j = 0 included).  The region is
    bounded, so both ends of every chord are closed.  Every point is
    feasible by construction and exactly ``trials`` points are drawn, the
    start being the first, so the returned value is a certified upper bound
    for the true minimum: it can never undercut ``solve``.  Everything runs
    on integers and every value is exact.

    The bound is only as tight as the walk's start.  From the feasible
    center (1/10, 1/5, 3/10, 2/5, 3/10, 7/20, 2/5, 9/20, 1/2),
    ``lemma_b5circ`` at seed 1 stays at 593/320 from draw 8 to draw 200,
    while its minimum is 1/5.  That is why criterion 9 of the acceptance
    suite starts each walk at the argmin.

    Raises InfeasibleError when the equalities are inconsistent,
    SamplingError when an inequality fails on the whole equality subspace,
    when the region is unbounded, or when no center is given and the origin
    violates an inequality; ValueError for an infeasible center and for a
    program over ``solve``'s subset limit.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    try:
        r = _region(p, SamplingError("region is empty on the equality subspace"))
    except UnboundedError as exc:
        raise SamplingError(f"region is unbounded: {exc}") from None
    m = len(r.free)
    if center is not None:
        cx = _vec(center, p.num_vars, "center")
        if not is_feasible(p, cx):
            raise ValueError("supplied center is not feasible")
        start = [cx[f] for f in r.free]
    else:
        start = [Fraction(0)] * m
    q = 64 * lcm(1, *(v.denominator for v in start))
    tn = [int(v * q) for v in start]

    # slack c q - w . tn of each inequality w . t <= c, kept >= 0 along the walk
    slack = [c * q - _dot(w, tn) for w, c in r.ineq]
    if any(s < 0 for s in slack):
        raise SamplingError("the subspace origin violates an inequality; supply a feasible center")
    best = _numerator(r, tn, q)
    rng = random.Random(seed)
    # with m = 0 the region is one point and every draw is the start
    for _ in range(trials - 1 if m else 0):
        code = rng.randrange(1, 3**m)  # 0 would be the zero direction
        d = []
        for _ in range(m):
            code, digit = divmod(code, 3)
            d.append((0, 1, -1)[digit])
        steps = [_dot(w, d) for w, _ in r.ineq]
        low = max(-(s // -a) for s, a in zip(slack, steps) if a < 0)
        high = min(s // a for s, a in zip(slack, steps) if a > 0)
        j = rng.randint(low, high)
        tn = [t + j * v for t, v in zip(tn, d)]
        slack = [s - j * a for s, a in zip(slack, steps)]
        best = min(best, _numerator(r, tn, q))
    return p.objective_const + Fraction(best, q * r.scale)


# -- the four bundled minimization instances ----------------------------------

PRESET_NAMES = ("lemma_b4", "lemma_coh4", "lemma_b5circ", "lemma_coh5")


def preset(name: str) -> PLProgram:
    """The bundled degree-4/5 codimension minimization programs.

    Variables are (x1, x2, x3, y1, y2) for the degree-4 instances and
    (x1..x4, y1..y5) for the degree-5 ones; x sums to 1, y sums to 1
    (degree 4) or 2 (degree 5), all coordinates ascending and nonnegative.
    """
    if name == "lemma_b4":
        return program(
            num_vars=5,
            equalities=[([1, 1, 1, 0, 0], 1), ([0, 0, 0, 1, 1], 1)],
            inequalities=[
                ([-1, 0, 0, 0, 0], 0),
                ([1, -1, 0, 0, 0], 0),
                ([0, 1, -1, 0, 0], 0),
                ([0, 0, 0, -1, 0], 0),
                ([0, 0, 0, 1, -1], 0),
                ([2, 0, 0, 0, -1], 0),
            ],
            objective_linear=[-2, 0, 2, -1, 1],
        )
    if name == "lemma_coh4":
        return program(
            num_vars=5,
            equalities=[([1, 1, 1, 0, 0], 1), ([0, 0, 0, 1, 1], 1)],
            inequalities=[
                ([-1, 0, 0, 0, 0], 0),
                ([1, -1, 0, 0, 0], 0),
                ([0, 1, -1, 0, 0], 0),
                ([0, 0, 0, -1, 0], 0),
                ([-2, 0, 0, 1, 0], 0),   # y1 <= 2 x1
                ([2, 0, 0, 0, -1], 0),   # 2 x1 <= y2
                ([0, -2, 0, 0, 1], 0),   # y2 <= 2 x2
                ([-1, 0, -1, 0, 1], 0),  # y2 <= x1 + x3
            ],
            objective_linear=[-2, 0, 2, -1, 1],
            hinges=[
                (-1, [-2, 0, 0, 0, 1], 0),   # -max(0, y2 - 2 x1)
                (-1, [-1, -1, 0, 0, 1], 0),  # -max(0, y2 - x1 - x2)
            ],
        )
    if name == "lemma_b5circ":
        return program(
            num_vars=9,
            equalities=[
                ([1, 1, 1, 1, 0, 0, 0, 0, 0], 1),
                ([0, 0, 0, 0, 1, 1, 1, 1, 1], 2),
            ],
            inequalities=_ordered_simplex_rows() + [
                ([1, 0, 0, 0, 1, 1, 0, 0, 0], 1),  # x1 + y1 + y2 <= 1
            ],
            objective_linear=[-3, -1, 1, 3, -4, -2, 0, 2, 4],
        )
    if name == "lemma_coh5":
        hinges = []
        groups = [((0, 1), 4), ((0, 2), 3), ((0, 3), 2), ((1, 2), 2)]
        for (j, k), count in groups:
            for i in range(count):
                coeffs = [0] * 9
                coeffs[i] = -1
                coeffs[4 + j] -= 1
                coeffs[4 + k] -= 1
                hinges.append((-1, coeffs, -1))  # -max(0, 1 - y_j - y_k - x_i)
        return program(
            num_vars=9,
            equalities=[
                ([1, 1, 1, 1, 0, 0, 0, 0, 0], 1),
                ([0, 0, 0, 0, 1, 1, 1, 1, 1], 2),
            ],
            inequalities=_ordered_simplex_rows() + [
                ([1, 0, 0, 0, 1, 1, 0, 0, 0], 1),    # x1 + y1 + y2 <= 1
                ([0, 0, 0, -1, -1, 0, -1, 0, 0], -1),  # y1 + y3 + x4 >= 1
                ([0, 0, -1, 0, -1, 0, 0, -1, 0], -1),  # y1 + y4 + x3 >= 1
                ([0, 0, -1, 0, 0, -1, -1, 0, 0], -1),  # y2 + y3 + x3 >= 1
            ],
            objective_linear=[-3, -1, 1, 3, -4, -2, 0, 2, 4],
            hinges=hinges,
        )
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def _ordered_simplex_rows() -> list[tuple[list[int], int]]:
    """0 <= x1 <= ... <= x4 and 0 <= y1 <= ... <= y5 in nine variables."""
    rows: list[tuple[list[int], int]] = []
    first_x = [0] * 9
    first_x[0] = -1
    rows.append((first_x, 0))
    for i in range(3):
        row = [0] * 9
        row[i], row[i + 1] = 1, -1
        rows.append((row, 0))
    first_y = [0] * 9
    first_y[4] = -1
    rows.append((first_y, 0))
    for i in range(4, 8):
        row = [0] * 9
        row[i], row[i + 1] = 1, -1
        rows.append((row, 0))
    return rows


@lru_cache(maxsize=None)
def preset_solution(name: str) -> PLSolution:
    """Cached exact solution of a bundled instance (solved once per process)."""
    return solve(preset(name))


def bound(k: int, genus: int, case: str) -> Fraction:
    """Codimension lower bound assembled from the solver output.

    Degree 4 uses (g+3) * min - 4; degree 5 uses (g+4) * min - 16.  The
    B_circ case minimizes over the full pair-of-bundles moduli problem,
    H_circ over the cover problem with its extra constraints and hinge
    corrections; both are computed, never hard-coded.
    """
    if genus < 2:
        raise ValueError(f"genus must be >= 2, got {genus}")
    if case not in ("B_circ", "H_circ"):
        raise ValueError(f"case must be B_circ or H_circ, got {case!r}")
    if k == 4:
        name = "lemma_b4" if case == "B_circ" else "lemma_coh4"
        return (genus + 3) * preset_solution(name).min_value - 4
    if k == 5:
        name = "lemma_b5circ" if case == "B_circ" else "lemma_coh5"
        return (genus + 4) * preset_solution(name).min_value - 16
    raise ValueError(f"bounds are defined for k in (4, 5), got {k}")


# -- JSON problem format -------------------------------------------------------


def program_to_json(p: PLProgram) -> dict:
    return {
        "vars": p.num_vars,
        "eq": [[str(v) for v in a] + [str(b)] for a, b in p.equalities],
        "le": [[str(v) for v in a] + [str(b)] for a, b in p.inequalities],
        "obj": {
            "lin": [str(v) for v in p.objective_linear],
            "const": str(p.objective_const),
            "hinges": [
                {
                    "sign": h.sign,
                    "coeffs": [str(v) for v in h.coeffs],
                    "rhs": str(h.rhs),
                }
                for h in p.hinges
            ],
        },
    }


_SCALAR = (Real, str)  # JSON numbers and "p/q" strings


def _field(obj: object, key: str, kind, default=None):
    """``obj[key]`` (or ``default`` if absent); ValueError naming the key
    when ``obj`` is not an object or the value is missing or not a ``kind``."""
    if not isinstance(obj, dict):
        raise ValueError(f"spec: expected an object with key {key!r}, got {type(obj).__name__}")
    if key not in obj:
        if default is None:
            raise ValueError(f"spec: missing key {key!r}")
        return default
    if not isinstance(obj[key], kind):
        raise ValueError(f"spec: key {key!r} has the wrong type {type(obj[key]).__name__}")
    return obj[key]


def _int_field(obj: object, key: str) -> int:
    """``obj[key]`` as an int: an integral number or numeric string, not a bool."""
    value = _field(obj, key, _SCALAR)
    try:
        q = Fraction(str(value))  # str(True) is not a number, so bools fail here
    except ValueError:
        q = None
    if q is None or q.denominator != 1:
        raise ValueError(f"spec: key {key!r} must be an integer, got {value!r}")
    return int(q)


def _number(value: object, where: str) -> Fraction:
    """A spec number: a JSON number or a numeric string, not a bool;
    ValueError naming ``where`` otherwise."""
    if not isinstance(value, bool):
        try:
            return Fraction(str(value))
        except ValueError:
            pass
    raise ValueError(f"spec: {where} must be a number, got {value!r}")


def program_from_json(data: dict) -> PLProgram:
    """The program of a ``--spec-file`` document; ValueError if it is malformed."""
    n = _int_field(data, "vars")

    def row(values: Sequence) -> tuple[list[Fraction], Fraction]:
        if not isinstance(values, list) or len(values) != n + 1:
            raise ValueError(f"spec: constraint row {values!r} needs {n + 1} entries")
        where = f"entry of constraint row {values!r}"
        nums = [_number(v, where) for v in values]
        return nums[:n], nums[n]

    obj = _field(data, "obj", dict, {})
    return program(
        num_vars=n,
        equalities=[row(r) for r in _field(data, "eq", list, [])],
        inequalities=[row(r) for r in _field(data, "le", list, [])],
        objective_linear=[
            _number(v, "entry of key 'lin'") for v in _field(obj, "lin", list, [0] * n)
        ],
        objective_const=_number(obj.get("const", 0), "key 'const'"),
        hinges=[
            (
                _int_field(h, "sign"),
                [_number(v, "entry of key 'coeffs'") for v in _field(h, "coeffs", list)],
                _number(_field(h, "rhs", _SCALAR), "key 'rhs'"),
            )
            for h in _field(obj, "hinges", list, [])
        ],
    )
