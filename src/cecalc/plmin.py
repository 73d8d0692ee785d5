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
     cone {d : W d <= 0} of the projected inequalities is trivial: the
     normals (the rows of W) must span, and some y with every y_i > 0 must
     have W^T y = 0 (Stiemke's alternative).  Phase 1 of an integer simplex
     tableau finds y, and one exact pass checks it.  Without such a y, the
     tableau's reduced costs are W d for a recession ray d, which the span
     check's basis solves for and one exact pass checks;
  3. groups the projected boundary hyperplanes and +1 breakpoint
     hyperplanes (the -1 breakpoints need no vertices of their own) by the
     direction of their normals, walks the independent m-subsets of
     directions, and takes one plane per direction in every way: each
     choice is one intersection point.  It keeps the feasible points and
     evaluates the objective at each as an integer numerator over a known
     denominator.

Besides the tableau, the only linear algebra is one step: extending an
integer Gauss-Jordan basis by a row.  It eliminates the equalities, checks
that the normals span, solves for the ray and puts each plane in normal
form, as its one-row basis.  Step 3 walks subsets depth-first with it: the
basis is extended one direction at a time, each family of vertices is read
off it, and every completion of a dependent prefix is skipped without a
visit.  Parallel planes never meet, so a subset of planes with two in one
direction is singular and is never formed.

Programs whose planes give more than ``MAX_SUBSETS`` m-subsets are refused
with ValueError before boundedness is checked.

``sample_check`` is an independent certificate that the solver's minimum
is not too high: a hit-and-run walk on a lattice in subspace coordinates,
every point of which is feasible by construction.  It shares steps 1 and 2
and the objective numerator with the solver, not the enumeration.  It fails
only before its first step: with ``solve``'s own error when steps 1 and 2
refuse the region, and with ValueError when the given start is not feasible.

Everything is integer arithmetic, with Fractions only for the inputs, the
minimum and the argmin points; there is no floating point anywhere, so
reported minima and argmin points are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, gcd, lcm
from numbers import Real
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from . import MAX_DIGITS, check_digits, fits, integer

Scalar = Union[int, Fraction]
Vector = tuple[Fraction, ...]

# Largest number of subsets the vertex enumeration may visit; larger
# programs would run for hours, so they are refused.
MAX_SUBSETS = 10**6


class PLError(Exception):
    """Base class for solver failures."""


class InfeasibleError(PLError):
    """The feasible region is empty."""


class UnboundedError(PLError):
    """The feasible region is unbounded (vertex enumeration is invalid)."""


def _vec(values: Iterable[Scalar], n: int, what: str) -> Vector:
    out = tuple(Fraction(v) for v in values)
    if len(out) != n:
        check_digits("the number of variables", n)
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
    """Build a PLProgram, coercing every number to Fraction and validating.

    A program with no equality and no inequality is all of R^n, so once
    the given vectors are validated it raises UnboundedError, before the
    default objective or anything else of size n is built.
    """
    num_vars = integer(num_vars, "the number of variables")
    if num_vars < 1:
        check_digits("the number of variables", num_vars)
        raise ValueError(f"need at least one variable, got {num_vars}")
    eqs = tuple((_vec(a, num_vars, "equality"), Fraction(b)) for a, b in equalities)
    les = tuple((_vec(a, num_vars, "inequality"), Fraction(b)) for a, b in inequalities)
    lin = _vec(objective_linear, num_vars, "objective") if objective_linear else None
    hs = []
    for sign, coeffs, rhs in hinges:
        if sign not in (1, -1):
            check_digits("a hinge sign", sign)
            raise ValueError(f"hinge sign must be +1 or -1, got {sign}")
        hs.append(Hinge(sign, _vec(coeffs, num_vars, "hinge"), Fraction(rhs)))
    const = Fraction(objective_const)
    if not eqs and not les:
        raise UnboundedError("no inequality constrains the affine subspace")
    if lin is None:
        lin = (Fraction(0),) * num_vars
    return PLProgram(num_vars, eqs, les, lin, const, tuple(hs))


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
    return sum(map(mul, a, x))


def objective_value(p: PLProgram, x: Sequence[Scalar]) -> Fraction:
    x = _vec(x, p.num_vars, "point")
    value = _dot(p.objective_linear, x) + p.objective_const
    for h in p.hinges:
        excess = _dot(h.coeffs, x) - h.rhs
        if excess > 0:
            value += h.sign * excess
    return value


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


def _independent_subsets(rows: Sequence[tuple[int, ...]], m: int) -> Iterator[_Basis]:
    """The basis of each m-subset of rows independent in its first m columns.

    Subsets are visited depth-first in ``itertools.combinations`` order, the
    basis of the current prefix extended by one row per step.  When a new
    row is dependent on the prefix, every completion of it is skipped
    unvisited.  One basis per depth is kept on an explicit stack, so the
    depth is not bounded by the recursion limit.
    """
    if m == 0:
        yield []
        return
    n = len(rows)
    bases: list[_Basis] = [[]]  # bases[d]: first d rows
    nxt = [0]  # nxt[d]: index of the next row to try at depth d
    while nxt:
        d = len(nxt) - 1
        j = nxt[d]
        if j > n - m + d:  # too few rows left to complete a subset
            nxt.pop()
            bases.pop()
            continue
        nxt[d] = j + 1
        extended = _extend(bases[d], rows[j], m)
        if extended is None:  # dependent prefix: none of its completions is independent
            continue
        if d + 1 == m:
            yield extended
        else:
            bases.append(extended)
            nxt.append(j + 1)


def _stiemke(rows: list[tuple[int, ...]], m: int) -> Optional[list[int]]:
    """None when a y with every y_i > 0 and sum_i y_i w_i = 0 is found and
    checked; otherwise phase 1's final reduced costs v, with v = W d for a
    d of the recession cone, up to a positive factor.

    Phase 1 of the simplex method on y = 1 + s, s >= 0, with one artificial
    variable per coordinate equation, by Bland's rule (so it terminates).
    The tableau is integer: each row is its equation times a positive
    factor, a pivot step is row <- p row - f pivot_row over the gcd, and
    ratios are compared by cross-multiplying.  An artificial column is
    dropped once it leaves the basis.  Whatever phase 1 ends with, only a
    y that passes the exact check at the end counts.

    When it does not pass, the artificials' sum stays positive.  Let u be
    the final simplex multipliers and d_c = u_c times the sign of row c.
    The reduced cost of s_i is then -w_i . d, and it is >= 0 at the end, so
    W d <= 0; the artificials' sum is -sum_i w_i . d > 0, so W d != 0.
    """
    r = len(rows)
    tab = []  # row c: sum_i s_i w_i[c] = -sum_i w_i[c], its rhs made >= 0
    for col in zip(*rows):
        sign = 1 if sum(col) <= 0 else -1
        tab.append([sign * v for v in col] + [-sign * sum(col)])
    basis = list(range(r, r + m))  # the artificial of row c is variable r + c
    tab.append([-sum(col) for col in zip(*tab)])  # reduced costs of the artificials' sum
    while (j := next((j for j in range(r) if tab[m][j] < 0), None)) is not None:
        # Phase 1 is bounded below by 0, so a column with a negative reduced
        # cost has a positive entry: best is always found.
        best = None  # least ratio rhs / entry over the positive entries of column j
        for i in range(m):
            a = tab[i][j]
            if a > 0 and (
                best is None or (tab[i][r] * p, basis[i]) < (tab[best][r] * a, basis[best])
            ):
                best, p = i, a
        piv = tab[best]
        for i, row in enumerate(tab):
            if i != best and row[j]:
                new = [p * v - row[j] * w for v, w in zip(row, piv)]
                g = gcd(*new) or 1
                tab[i] = [v // g for v in new]
        basis[best] = j
    q = lcm(*(row[k] for row, k in zip(tab, basis) if k < r))
    y = [q] * r
    for row, k in zip(tab, basis):
        if k < r:
            y[k] += row[r] * (q // row[k])
    if all(v > 0 for v in y) and not any(_dot(y, col) for col in zip(*rows)):
        return None
    return [-v for v in tab[m][:r]]


def _check_bounded(rows: list[tuple[int, ...]], m: int) -> None:
    """Raise UnboundedError unless {t : W t <= 0} is the zero cone.

    ``rows`` are the nonzero constraint normals, the rows of W.  With m = 0
    the region is a single point and there is nothing to check.  Normals
    that span are bounded exactly when some y > 0 has W^T y = 0 (Stiemke's
    alternative): y . W t = 0 then forces W t = 0 on the cone, so t = 0.
    ``_stiemke`` finds such a y, checked exactly, or else gives v = W d
    for a recession direction d, up to a positive factor.  One basis of
    the rows (w_i, v_i), with v = 0 for a bounded region, then checks that
    the normals span, and solved for its last column it gives d, which is
    checked exactly before it is named.
    """
    if m == 0:
        return
    if not rows:
        raise UnboundedError("no inequality constrains the affine subspace")
    v = _stiemke(rows, m)
    span: _Basis = []
    for w, vi in zip(rows, v or [0] * len(rows)):
        span = _extend(span, (*w, vi), m) or span
    if len(span) < m:
        raise UnboundedError("constraint normals do not span; region contains a line")
    if v is None:
        return
    d, _ = _solved(span, m, m)
    g = gcd(*d) or 1
    d = tuple(x // g for x in d)
    if not any(d) or any(_dot(w, d) > 0 for w in rows):
        raise ArithmeticError("phase 1 certified neither a y > 0 nor a recession ray")
    if m == 1:
        raise UnboundedError("feasible interval is a half line")
    shown = d if fits(*d) else f"with an entry of more than {MAX_DIGITS} digits"
    raise UnboundedError(f"recession ray {shown} detected")


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


def _region(p: PLProgram) -> _Region:
    """Eliminate the equalities, project every form and certify boundedness.

    The equality rows are folded into one basis; a pivot in its rhs column
    means some combination of them reads 0 = b != 0.  A form is projected
    by reducing its row (a, b) by that basis, which clears the pivot
    columns and leaves w at the free columns and c in the rhs column.

    Boundedness is certified by ``_check_bounded``: a y > 0 with
    W^T y = 0, W being the matrix of constraint normals, or else a
    recession ray read off the same tableau.  The enumeration's subset
    limit is checked first.

    Raises InfeasibleError when the equalities are inconsistent or an
    inequality that is constant on the subspace fails, ValueError when the
    vertex enumeration would visit more than ``MAX_SUBSETS`` subsets, and
    UnboundedError when the region is unbounded, in that order.
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
            raise InfeasibleError("inequality violated on the equality subspace")
    lin = project(p.objective_linear, Fraction(0))
    hinges = [(h.sign, *project(h.coeffs, h.rhs)) for h in p.hinges]
    planes = list(dict.fromkeys(
        _extend([], (*w, c), m)[0][1]
        for w, c in ineq + [(w, c) for sign, w, c, _ in hinges if sign > 0 and any(w)]
    ))

    total = comb(len(planes), m)
    if total > MAX_SUBSETS:
        raise ValueError(
            f"program too large: {len(planes)} distinct boundary and +1 breakpoint planes "
            f"in dimension m = {m} give {total} subsets of size {m}, over the limit of {MAX_SUBSETS}"
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


def _directions(
    planes: list[tuple[int, ...]], m: int
) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The walk rows of the planes grouped by direction, and each group's offsets.

    Planes (*w, c) whose normals w share a primitive direction d are
    parallel: (2, 4 | 1) and (1, 2 | 3) both have d = (1, 2).  A direction
    met by one plane keeps that plane's row, padded with zeros.  A direction
    met by several has the row (l d, 0, e_k) with a unit vector e_k in a
    column of its own beyond the rhs, l being the lcm of their gcd(w), and
    its plane (g d, c) becomes the offset s = c l / g of (l d) . t = s.  So
    with every direction distinct the rows are the planes, at width m + 1.
    ``offsets[k]`` are the offsets of the k-th direction with a unit column.
    """
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for plane in planes:
        g = gcd(*plane[:m])
        groups.setdefault(tuple(v // g for v in plane[:m]), []).append(plane)
    shared = [(d, group) for d, group in groups.items() if len(group) > 1]
    pad = (0,) * len(shared)
    rows = [group[0] + pad for group in groups.values() if len(group) == 1]
    offsets = []
    for k, (d, group) in enumerate(shared):
        gs = [gcd(*plane[:m]) for plane in group]
        scale = lcm(*gs)
        rows.append((*(scale * v for v in d), 0, *pad[:k], 1, *pad[k + 1:]))
        offsets.append([plane[m] * (scale // g) for plane, g in zip(group, gs)])
    return rows, offsets


def solve(p: PLProgram) -> PLSolution:
    """Exact global minimum of the hinge objective over the feasible region.

    On each cell cut by the +1 breakpoints the objective is linear plus the
    concave -1 hinges, so its minimum over the region intersected with the
    cell sits at a vertex of that intersection.  Only the boundary planes
    and the +1 breakpoint planes are enumerated; the -1 breakpoint planes
    cannot move the minimum.  ``argmin_points`` are the minimising vertices
    of that reduced arrangement, each also a vertex of the full one.

    Parallel planes never meet, so the planes are grouped by the primitive
    direction of their normals and the walk is over m-subsets of directions
    (see ``_directions``), depth-first, each prefix kept as an integer
    Gauss-Jordan basis; a prefix whose directions are dependent is dropped
    with all its completions.  An independent subset of directions is
    solved once, each unit column giving the vertex's dependence on its
    direction's offset, and then each choice of one plane per direction is
    one vertex, as integers t = tn / q, q being the lcm of the pivots.  So
    the non-singular m-subsets of planes are exactly these choices, and the
    rest of the C(planes, m) are counted as singular.  Feasibility and the
    objective are evaluated on the integers, and only the minimising
    vertices are lifted to Fraction points x.  A region that is one point
    (m = 0) is the single empty subset.

    Raises InfeasibleError when the region is empty and UnboundedError when
    it is unbounded.  Boundedness is a property of the recession cone of
    the constraint system and is certified before minimization (the vertex
    method needs a polytope), so a system that is simultaneously empty and
    recession-positive reports UnboundedError.  Raises ValueError, before
    either step, when the enumeration would visit more than ``MAX_SUBSETS``
    subsets.
    """
    r = _region(p)
    m = len(r.free)
    rows, offsets = _directions(r.planes, m)
    best: Optional[tuple[int, int]] = None  # (numerator, q) of the least value so far
    argmins: dict[tuple[tuple[int, ...], int], None] = {}
    vertices = infeasible = 0
    for basis in _independent_subsets(rows, m):
        base, q = _solved(basis, m, m)
        # the multiples s v of each subset direction's unit column, one per plane
        choices = []
        for k, offs in enumerate(offsets):
            v = _solved(basis, m + 1 + k, m)[0]
            if any(v):
                choices.append([[s * x for x in v] for s in offs])
        for pick in product(*choices):
            vertices += 1
            tn = list(map(sum, zip(base, *pick)))
            if any(_dot(w, tn) > c * q for w, c in r.ineq):
                infeasible += 1
                continue
            g = gcd(q, *tn)
            qg, tn = q // g, tuple(v // g for v in tn)
            num = _numerator(r, tn, qg)
            if best is None or num * best[1] < best[0] * qg:
                best, argmins = (num, qg), {}
            if num * best[1] == best[0] * qg:
                argmins[tn, qg] = None
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


def sample_check(p: PLProgram, trials: int, seed: int, center: Sequence[Scalar]) -> Fraction:
    """Minimum of the objective over the points of a hit-and-run walk.

    The region is first reduced and certified bounded exactly as ``solve``
    does it.  The walk starts at ``center``, which must be feasible, and
    lives on the lattice (1/Q) Z^m of the subspace coordinates, Q being 64
    times the lcm of the start's denominators.  Each step picks a direction
    d uniformly from {-1, 0, 1}^m minus 0, computes from the integer slacks
    of the projected inequalities the chord of lattice points t + j d that
    stay feasible, and moves to one of them chosen uniformly (j = 0
    included).  The region is bounded, so both ends of every chord are
    closed.  Every point is feasible by construction and exactly ``trials``
    points are drawn, the start being the first, so the returned value is a
    certified upper bound for the true minimum: it can never undercut
    ``solve``.  Everything runs on integers and every value is exact.

    The bound is only as tight as the walk's start.  From the feasible
    center (1/10, 1/5, 3/10, 2/5, 3/10, 7/20, 2/5, 9/20, 1/2),
    ``lemma_b5circ`` at seed 1 stays at 593/320 from draw 8 to draw 200,
    while its minimum is 1/5.  That is why criterion 9 of the acceptance
    suite starts each walk at the argmin.

    Raises the error of ``solve``, with its text, when ``solve`` refuses
    the region, and then ValueError when the center is not feasible: when a
    slack of the walk is negative at it, or it is off the equality subspace.
    """
    trials = integer(trials, "trials", 1)
    r = _region(p)
    m = len(r.free)
    cx = _vec(center, p.num_vars, "center")
    start = [cx[f] for f in r.free]
    q = 64 * lcm(1, *(v.denominator for v in start))
    tn = [int(v * q) for v in start]
    # slack c q - w . tn of each inequality w . t <= c, kept >= 0 along the walk
    slack = [c * q - _dot(w, tn) for w, c in r.ineq]
    if any(s < 0 for s in slack) or _lift(r, tn, q) != cx:
        raise ValueError("supplied center is not feasible")
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
    """The bundled degree-4/5 codimension minimization programs, built by
    ``_blocks`` from the splitting-type blocks x = (x1, x2, x3), y = (y1, y2)
    at degree 4 and x = (x1..x4), y = (y1..y5) at degree 5; each lemma adds
    its own cuts and hinges."""
    if name == "lemma_b4":
        return _blocks(3, 2, 1, 2, [([2, 0, 0, 0, -1], 0)])  # 2 x1 <= y2
    if name == "lemma_coh4":
        # y1 <= 2 x1 <= y2 implies y1 <= y2, so that chain row is left out
        cuts = [
            ([-2, 0, 0, 1, 0], 0),   # y1 <= 2 x1
            ([2, 0, 0, 0, -1], 0),   # 2 x1 <= y2
            ([0, -2, 0, 0, 1], 0),   # y2 <= 2 x2
            ([-1, 0, -1, 0, 1], 0),  # y2 <= x1 + x3
        ]
        return _blocks(3, 2, 1, 1, cuts, [
            (-1, [-2, 0, 0, 0, 1], 0),   # -max(0, y2 - 2 x1)
            (-1, [-1, -1, 0, 0, 1], 0),  # -max(0, y2 - x1 - x2)
        ])
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    rows = [([1, 0, 0, 0, 1, 1, 0, 0, 0], 1)]  # x1 + y1 + y2 <= 1
    if name == "lemma_b5circ":
        return _blocks(4, 5, 2, 5, rows)
    hinges = []
    groups = [((0, 1), 4), ((0, 2), 3), ((0, 3), 2), ((1, 2), 2)]
    for (j, k), count in groups:
        for i in range(count):
            coeffs = [0] * 9
            coeffs[i] = -1
            coeffs[4 + j] -= 1
            coeffs[4 + k] -= 1
            hinges.append((-1, coeffs, -1))  # -max(0, 1 - y_j - y_k - x_i)
    return _blocks(4, 5, 2, 5, rows + [
        ([0, 0, 0, -1, -1, 0, -1, 0, 0], -1),  # y1 + y3 + x4 >= 1
        ([0, 0, -1, 0, -1, 0, 0, -1, 0], -1),  # y1 + y4 + x3 >= 1
        ([0, 0, -1, 0, 0, -1, -1, 0, 0], -1),  # y2 + y3 + x3 >= 1
    ], hinges)


def _ascending(n: int, first: int, count: int) -> list[tuple[list[int], int]]:
    """The rows 0 <= v_first <= ... <= v_{first+count-1} in n variables."""
    rows = []
    for i in range(first, first + count):
        row = [0] * n
        row[i] = -1
        if i > first:
            row[i - 1] = 1
        rows.append((row, 0))
    return rows


def _blocks(a: int, b: int, y_total: int, y_chain: int, rows: list, hinges=()) -> PLProgram:
    """A program in x = (x1..xa), y = (y1..yb): x sums to 1 and y to
    ``y_total``; 0 <= x1 <= ... <= xa and the first ``y_chain`` rows of
    0 <= y1 <= ... <= yb, then ``rows``, and ``hinges``.

    The objective is the leading term of h1(End e) + h1(End f) in
    x = e/(g+k-1), y = f/(g+k-1): for ascending e, h1(End e) is the sum
    over i < j of max(0, e_j - e_i - 1), whose leading term
    sum_{i<j} (x_j - x_i) weighs x_i by (i - 1) - (a - i) = 2i - a - 1.
    """
    n = a + b
    return program(
        n,
        equalities=[([1] * a + [0] * b, 1), ([0] * a + [1] * b, y_total)],
        inequalities=_ascending(n, 0, a) + _ascending(n, a, y_chain) + rows,
        objective_linear=[2 * i - a - 1 for i in range(1, a + 1)]
        + [2 * j - b - 1 for j in range(1, b + 1)],
        hinges=hinges,
    )


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
    k, genus = integer(k, "covering degree"), integer(genus, "genus", 2)
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


def _number(value: object, where: str, kind: str = "a number") -> Fraction:
    """A spec number: a JSON number or a numeric string, not a bool, with an
    exponent of at most ``MAX_DIGITS`` and integral if ``kind`` is
    "an integer"; ValueError naming ``where`` otherwise."""
    text = str(value)
    try:
        exponent = int(text.lower().partition("e")[2] or 0)
        if not isinstance(value, bool) and abs(exponent) <= MAX_DIGITS:
            q = Fraction(text)
            if kind == "a number" or q.denominator == 1:
                return q
    except (ValueError, ZeroDivisionError):
        pass
    raise ValueError(f"spec: {where} must be {kind}, got {value!r}")


def _int_field(obj: object, key: str) -> int:
    """``obj[key]`` as an int: an integral number or numeric string, not a bool."""
    return int(_number(_field(obj, key, _SCALAR), f"key {key!r}", "an integer"))


def _known_keys(obj: object, keys: tuple[str, ...]) -> None:
    """ValueError naming the first key of the object ``obj`` outside ``keys``."""
    for key in obj if isinstance(obj, dict) else ():
        if key not in keys:
            raise ValueError(f"spec: unknown key {key!r}")


def program_from_json(data: dict) -> PLProgram:
    """The program of a ``--spec-file`` document; ValueError if it is
    malformed or has a key the format does not define."""
    _known_keys(data, ("vars", "eq", "le", "obj"))
    n = _int_field(data, "vars")

    def row(values: Sequence) -> tuple[list[Fraction], Fraction]:
        if not isinstance(values, list) or len(values) != n + 1:
            check_digits("spec: the row length vars + 1", n + 1)
            raise ValueError(f"spec: constraint row {values!r} needs {n + 1} entries")
        where = f"entry of constraint row {values!r}"
        nums = [_number(v, where) for v in values]
        return nums[:n], nums[n]

    def hinge(h: object) -> tuple[int, list[Fraction], Fraction]:
        _known_keys(h, ("sign", "coeffs", "rhs"))
        return (
            _int_field(h, "sign"),
            [_number(v, "entry of key 'coeffs'") for v in _field(h, "coeffs", list)],
            _number(_field(h, "rhs", _SCALAR), "key 'rhs'"),
        )

    obj = _field(data, "obj", dict, {})
    _known_keys(obj, ("lin", "const", "hinges"))
    return program(
        num_vars=n,
        equalities=[row(r) for r in _field(data, "eq", list, [])],
        inequalities=[row(r) for r in _field(data, "le", list, [])],
        objective_linear=[
            _number(v, "entry of key 'lin'") for v in _field(obj, "lin", list, [])
        ],
        objective_const=_number(obj.get("const", 0), "key 'const'"),
        hinges=[hinge(h) for h in _field(obj, "hinges", list, [])],
    )
