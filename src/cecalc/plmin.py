"""Exact minimization of piecewise-linear objectives over rational polytopes.

A program has n variables, equality constraints, inequality constraints
(coeffs . x <= rhs), and an objective made of a linear part plus hinge
terms sign * max(0, coeffs . x - rhs).  A hinge of sign +1 is convex and
one of sign -1 is concave.  On each cell of the hyperplane arrangement cut
by the breakpoints of the +1 hinges, the objective is linear plus concave,
so its minimum over the polytope intersected with that cell is attained at
a vertex of that intersection: a point where m independent boundary or
+1 breakpoint hyperplanes meet.  The solver therefore:

  1. eliminates the equalities exactly, working in the affine subspace;
  2. certifies boundedness, in integers, by checking that the recession
     cone of the projected inequalities is trivial (lineality space plus
     extreme-ray enumeration over (m-1)-subsets of the constraint normals);
  3. enumerates every m-subset of the projected boundary hyperplanes and
     +1 breakpoint hyperplanes (the -1 breakpoints need no vertices of
     their own), solves each square system by fraction-free elimination
     over the integers, keeps the feasible intersection points, and
     evaluates the objective exactly at each.

Programs whose subset counts exceed ``MAX_SUBSETS`` are refused with
ValueError before any enumeration starts.

``sample_check`` is an independent certificate that the solver's minimum
is not too high: a hit-and-run walk on a lattice in subspace coordinates,
every point of which is feasible by construction.  It fails only before its
first step, when no start is given and the subspace origin is infeasible,
or at a chord with no end on one side, where the region is unbounded.

Everything is Fraction/integer arithmetic; there is no floating point
anywhere, so reported minima and argmin points are exact.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterable, NamedTuple, Optional, Sequence, Union

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
    """The sampling walk has no feasible start, or meets an unbounded chord."""


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
    subsets: int  # m-subsets of those planes tried
    singular: int  # subsets whose planes do not meet in one point
    infeasible: int  # intersection points outside the region
    feasible: int  # intersection points inside the region, each evaluated

    @property
    def candidates_examined(self) -> int:
        """Non-singular subsets: intersection points checked for feasibility."""
        return self.infeasible + self.feasible


# -- exact evaluation ---------------------------------------------------------


def _dot(a: Sequence[Fraction], x: Sequence[Fraction]) -> Fraction:
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


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot column list)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [v - factor * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _affine_subspace(p: PLProgram) -> tuple[Vector, list[Vector]]:
    """Parametrize {x : equalities hold} as x0 + span(basis), exactly."""
    n = p.num_vars
    if not p.equalities:
        x0 = tuple(Fraction(0) for _ in range(n))
        basis = [
            tuple(Fraction(1) if j == i else Fraction(0) for j in range(n))
            for i in range(n)
        ]
        return x0, basis
    rows = [list(a) + [b] for a, b in p.equalities]
    rows, pivots = _rref(rows)
    for row in rows:
        if all(v == 0 for v in row[:n]) and row[n] != 0:
            raise InfeasibleError("equality constraints are inconsistent")
    if n in pivots:  # pivot in the rhs column also signals inconsistency
        raise InfeasibleError("equality constraints are inconsistent")
    pivot_set = set(pivots)
    free = [c for c in range(n) if c not in pivot_set]
    x0_list = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        x0_list[c] = rows[r][n]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][fc]
        basis.append(tuple(vec))
    return tuple(x0_list), basis


def _project_plane(
    coeffs: Vector, rhs: Fraction, x0: Vector, basis: list[Vector]
) -> tuple[tuple[int, ...], int, int]:
    """Rewrite a linear form in subspace coordinates, integerized.

    Returns (w, c, den) with den > 0 such that for x = x0 + sum t_j basis_j,
    coeffs . x - rhs = (w . t - c) / den.
    """
    w = [_dot(coeffs, col) for col in basis]
    c = rhs - _dot(coeffs, x0)
    den = lcm(*(v.denominator for v in w), c.denominator) if w else c.denominator
    return tuple(int(v * den) for v in w), int(c * den), den


def _normalize_plane(w: tuple[int, ...], c: int) -> tuple[tuple[int, ...], int]:
    g = 0
    for v in w:
        g = gcd(g, v)
    g = gcd(g, c)
    if g == 0:
        return w, c
    w = tuple(v // g for v in w)
    c //= g
    lead = next((v for v in w if v != 0), 0)
    if lead < 0:
        return tuple(-v for v in w), -c
    return w, c


def _solve_square_int(rows: list[tuple[tuple[int, ...], int]], m: int) -> Optional[Vector]:
    """Solve an m x m integer system by fraction-free elimination.

    Returns None when the system is singular; degenerate subsets contribute
    no candidate (an optimum on a positive-dimensional face is also attained
    at a vertex produced by another subset).
    """
    mat = [list(w) + [c] for w, c in rows]
    prev = 1
    for k in range(m):
        piv = -1
        for r in range(k, m):
            if mat[r][k] != 0:
                piv = r
                break
        if piv < 0:
            return None
        if piv != k:
            mat[k], mat[piv] = mat[piv], mat[k]
        pivot = mat[k][k]
        row_k = mat[k]
        for r in range(k + 1, m):
            row_r = mat[r]
            factor = row_r[k]
            if factor == 0:
                for j in range(k + 1, m + 1):
                    row_r[j] = (pivot * row_r[j]) // prev
            else:
                for j in range(k + 1, m + 1):
                    row_r[j] = (pivot * row_r[j] - factor * row_k[j]) // prev
                row_r[k] = 0
        prev = pivot
    out = [Fraction(0)] * m
    for i in range(m - 1, -1, -1):
        acc = Fraction(mat[i][m])
        row = mat[i]
        for j in range(i + 1, m):
            acc -= row[j] * out[j]
        out[i] = acc / row[i]
    return tuple(out)


def _echelon_int(rows: list[tuple[int, ...]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows (Bareiss).

    Returns (mat, pivot column list).  Every division is exact, and after
    the last step each pivot row holds the same value D != 0 at its pivot
    column and 0 at every other pivot column, so mat / D is the reduced row
    echelon form.
    """
    mat = [list(w) for w in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        row_r = mat[r]
        pivot = row_r[c]
        for i, row_i in enumerate(mat):
            if i != r:
                factor = row_i[c]
                mat[i] = [(pivot * v - factor * w) // prev for v, w in zip(row_i, row_r)]
        pivots.append(c)
        prev = pivot
        r += 1
    return mat, pivots


def _null_ray(rows: list[tuple[int, ...]], m: int) -> Optional[tuple[int, ...]]:
    """Primitive generator of the null space of m - 1 rows when it is a line.

    It is read off D times the reduced row echelon form: D at the one
    non-pivot column, minus that column's entries at the pivot columns.
    Divided by its gcd with that entry kept positive, it is the ray the
    rational echelon form gives, whatever D is.
    """
    mat, pivots = _echelon_int(rows)
    if len(pivots) != m - 1:
        return None
    free = next(c for c in range(m) if c not in pivots)
    vec = [0] * m
    vec[free] = mat[0][pivots[0]]
    for r, c in enumerate(pivots):
        vec[c] = -mat[r][free]
    g = gcd(*vec)
    if vec[free] < 0:
        g = -g
    return tuple(v // g for v in vec)


def _check_bounded(rows: list[tuple[int, ...]], m: int) -> None:
    """Raise UnboundedError unless {t : W t <= 0} is the zero cone.

    ``rows`` are the nonzero constraint normals, the rows of W.
    """
    if not rows:
        raise UnboundedError("no inequality constrains the affine subspace")
    if len(_echelon_int(rows)[1]) < m:
        raise UnboundedError("constraint normals do not span; region contains a line")
    if m == 1:
        # every nonzero normal pins one side; both signs blocked iff normals differ in sign
        if all(w[0] > 0 for w in rows) or all(w[0] < 0 for w in rows):
            raise UnboundedError("feasible interval is a half line")
        return
    for subset in combinations(rows, m - 1):
        d = _null_ray(list(subset), m)
        if d is None:
            continue
        for ray in (d, tuple(-v for v in d)):
            if all(sum(wi * di for wi, di in zip(w, ray)) <= 0 for w in rows):
                raise UnboundedError(f"recession ray {ray} detected")


# -- the solver ---------------------------------------------------------------


def solve(p: PLProgram) -> PLSolution:
    """Exact global minimum of the hinge objective over the feasible region.

    On each cell cut by the +1 breakpoints the objective is linear plus the
    concave -1 hinges, so its minimum over the region intersected with the
    cell sits at a vertex of that intersection.  Only the boundary planes
    and the +1 breakpoint planes are enumerated; the -1 breakpoint planes
    cannot move the minimum.  ``argmin_points`` are the minimising vertices
    of that reduced arrangement, each also a vertex of the full one.

    Raises InfeasibleError when the region is empty and UnboundedError when
    it is unbounded.  Boundedness is a property of the recession cone of
    the constraint system and is certified before minimization (the vertex
    method needs a polytope), so a system that is simultaneously empty and
    recession-positive reports UnboundedError.  Raises ValueError, before
    either step, when the boundedness check or the enumeration would visit
    more than ``MAX_SUBSETS`` subsets.
    """
    x0, basis = _affine_subspace(p)
    m = len(basis)

    proj_ineq: list[tuple[tuple[int, ...], int]] = []
    for a, b in p.inequalities:
        w, c, _ = _project_plane(a, b, x0, basis)
        if all(v == 0 for v in w):
            if c < 0:
                raise InfeasibleError("inequality violated on the equality subspace")
            continue
        proj_ineq.append((w, c))

    if m == 0:
        x = x0
        if all(_dot(a, x) <= b for a, b in p.inequalities):
            return PLSolution(
                objective_value(p, x), (x,), planes=0, subsets=1, singular=0, infeasible=0,
                feasible=1,
            )
        raise InfeasibleError("the unique equality solution violates an inequality")

    seen: set[tuple[tuple[int, ...], int]] = set()
    planes: list[tuple[tuple[int, ...], int]] = []
    breakpoint_planes = []
    for h in p.hinges:
        if h.sign < 0:
            continue
        w, c, _ = _project_plane(h.coeffs, h.rhs, x0, basis)
        if any(v != 0 for v in w):
            breakpoint_planes.append((w, c))
    for plane in proj_ineq + breakpoint_planes:
        key = _normalize_plane(*plane)
        if key not in seen:
            seen.add(key)
            planes.append(key)

    for count, what, size in (
        (len(proj_ineq), "inequality planes", m - 1),
        (len(planes), "distinct boundary and +1 breakpoint planes", m),
    ):
        total = comb(count, size)
        if total > MAX_SUBSETS:
            raise ValueError(
                f"program too large: {count} {what} in dimension m = {m} give "
                f"{total} subsets of size {size}, over the limit of {MAX_SUBSETS}"
            )

    _check_bounded([w for w, _ in proj_ineq], m)

    best: Optional[Fraction] = None
    argmins: dict[Vector, None] = {}
    subsets = singular = infeasible = 0
    for subset in combinations(planes, m):
        subsets += 1
        t = _solve_square_int(list(subset), m)
        if t is None:
            singular += 1
            continue
        # integer feasibility check in subspace coordinates
        den = lcm(*(v.denominator for v in t))
        tn = [int(v * den) for v in t]
        if any(sum(wi * ti for wi, ti in zip(w, tn)) > c * den for w, c in proj_ineq):
            infeasible += 1
            continue
        x = tuple(
            x0[i] + sum(t[j] * basis[j][i] for j in range(m)) for i in range(p.num_vars)
        )
        value = objective_value(p, x)
        if best is None or value < best:
            best = value
            argmins = {x: None}
        elif value == best:
            argmins[x] = None
    if best is None:
        raise InfeasibleError("no intersection point satisfies all constraints")
    return PLSolution(
        best, tuple(sorted(argmins)), planes=len(planes), subsets=subsets,
        singular=singular, infeasible=infeasible, feasible=subsets - singular - infeasible,
    )


# -- feasible-point sampling oracle -------------------------------------------


def sample_check(
    p: PLProgram,
    trials: int,
    seed: int,
    center: Optional[Sequence[Scalar]] = None,
) -> Fraction:
    """Minimum of the objective over the points of a hit-and-run walk.

    The walk starts at ``center`` (validated first) or, without one, at the
    origin of the subspace coordinates, and lives on the lattice (1/Q) Z^m
    of those coordinates, Q being 64 times the lcm of the start's
    denominators.  Each step picks a direction d uniformly from
    {-1, 0, 1}^m minus 0, computes from the integer slacks of the projected
    inequalities the chord of lattice points t + j d that stay feasible, and
    moves to one of them chosen uniformly (j = 0 included).  Every point is
    feasible by construction and exactly ``trials`` points are drawn, the
    start being the first, so the returned value is a certified upper bound
    for the true minimum: it can never undercut ``solve``.  Everything runs
    on integers and every value is exact.

    Raises SamplingError when no center is given and the origin violates an
    inequality, or when a chord has no end on one side, since the region is
    then unbounded (``solve`` raises UnboundedError for it).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    x0, basis = _affine_subspace(p)
    m = len(basis)
    ineq_rows = []
    for a, b in p.inequalities:
        w, c, _ = _project_plane(a, b, x0, basis)
        if all(v == 0 for v in w):
            if c < 0:
                raise SamplingError("region is empty on the equality subspace")
            continue
        ineq_rows.append((w, c))

    if center is not None:
        cx = _vec(center, p.num_vars, "center")
        if not is_feasible(p, cx):
            raise ValueError("supplied center is not feasible")
        start = _coords_of(cx, x0, basis)
    else:
        start = (Fraction(0),) * m
    q = 64 * lcm(1, *(v.denominator for v in start))
    tn = [int(v * q) for v in start]

    # slack c q - w . tn of each inequality w . t <= c, kept >= 0 along the walk
    slack = [c * q - _dot(w, tn) for w, c in ineq_rows]
    if any(s < 0 for s in slack):
        raise SamplingError("the subspace origin violates an inequality; supply a feasible center")
    lw, lc, lden = _project_plane(p.objective_linear, Fraction(0), x0, basis)
    hinge_rows = [(h.sign, *_project_plane(h.coeffs, h.rhs, x0, basis)) for h in p.hinges]
    scale = lcm(lden, *(den for *_, den in hinge_rows))

    def numerator(tn: Sequence[int]) -> int:
        """The objective at tn / q is const + numerator(tn) / (q * scale)."""
        total = (_dot(lw, tn) - lc * q) * (scale // lden)
        for sign, w, c, den in hinge_rows:
            excess = _dot(w, tn) - c * q
            if excess > 0:
                total += sign * excess * (scale // den)
        return total

    best = numerator(tn)
    rng = random.Random(seed)
    # with m = 0 the region is one point and every draw is the start
    for _ in range(trials - 1 if m else 0):
        code = rng.randrange(1, 3**m)  # 0 would be the zero direction
        d = []
        for _ in range(m):
            code, digit = divmod(code, 3)
            d.append((0, 1, -1)[digit])
        steps = [_dot(w, d) for w, _ in ineq_rows]
        ups = [s // a for s, a in zip(slack, steps) if a > 0]
        downs = [-(s // -a) for s, a in zip(slack, steps) if a < 0]
        if not ups or not downs:
            ray = tuple(d) if not ups else tuple(-v for v in d)
            raise SamplingError(f"region is unbounded along {ray} in subspace coordinates")
        j = rng.randint(max(downs), min(ups))
        tn = [t + j * v for t, v in zip(tn, d)]
        slack = [s - j * a for s, a in zip(slack, steps)]
        best = min(best, numerator(tn))
    return p.objective_const + Fraction(best, q * scale)


def _coords_of(x: Vector, x0: Vector, basis: list[Vector]) -> Vector:
    """Subspace coordinates of a point on the affine subspace."""
    m = len(basis)
    diff = [xi - x0i for xi, x0i in zip(x, x0)]
    rows = [[basis[j][i] for j in range(m)] + [diff[i]] for i in range(len(x))]
    rows, pivots = _rref(rows)
    if m in pivots:
        raise ValueError("point does not lie on the equality subspace")
    t = [Fraction(0)] * m
    for r, c in enumerate(pivots):
        t[c] = rows[r][m]
    return tuple(t)


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


def preset_minimum(name: str) -> Fraction:
    return preset_solution(name).min_value


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
        return (genus + 3) * preset_minimum(name) - 4
    if k == 5:
        name = "lemma_b5circ" if case == "B_circ" else "lemma_coh5"
        return (genus + 4) * preset_minimum(name) - 16
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


def program_from_json(data: dict) -> PLProgram:
    n = int(data["vars"])

    def row(values: Sequence) -> tuple[list[Fraction], Fraction]:
        if len(values) != n + 1:
            raise ValueError(f"constraint row has {len(values)} entries, expected {n + 1}")
        nums = [Fraction(str(v)) for v in values]
        return nums[:n], nums[n]

    obj = data.get("obj", {})
    return program(
        num_vars=n,
        equalities=[row(r) for r in data.get("eq", [])],
        inequalities=[row(r) for r in data.get("le", [])],
        objective_linear=[Fraction(str(v)) for v in obj.get("lin", [0] * n)],
        objective_const=Fraction(str(obj.get("const", 0))),
        hinges=[
            (int(h["sign"]), [Fraction(str(v)) for v in h["coeffs"]], Fraction(str(h["rhs"])))
            for h in obj.get("hinges", [])
        ],
    )
