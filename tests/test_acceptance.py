"""Acceptance suite: one test per exit criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Criterion 10 checks the negative-summand cap that the three
Pfaffian inequalities imply (at most 23 of the 40 summands), not the
stronger cap of 11, which fails even for smooth covers; see the README's
"Known limitation" note.
"""

import random
from fractions import Fraction
from itertools import combinations

from cecalc import bundles, hurwitz, plmin, splitting
from cecalc.bundles import fiber_ring, o_z, push_gamma, split
from cecalc.gring import RingSpec

B4_POINT = tuple(Fraction(v) for v in ("1/4", "3/8", "3/8", "1/2", "1/2"))
B5_POINT = tuple(
    Fraction(v)
    for v in ("1/5", "4/15", "4/15", "4/15", "2/5", "2/5", "2/5", "2/5", "2/5")
)


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:2d}] {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- criteria 1-3: the four minimization instances ------------------------------


def test_criterion_01_quartic_pair_minimum(preset_results):
    _, sol, elapsed = preset_results["lemma_b4"]
    ok = (
        sol.min_value == Fraction(1, 4)
        and B4_POINT in sol.argmin_points
        and elapsed < 5.0
    )
    _report(1, ok, f"lemma_b4 min={sol.min_value} in {elapsed:.2f}s")


def test_criterion_02_quartic_cover_minimum(preset_results):
    _, sol, elapsed = preset_results["lemma_coh4"]
    ok = (
        sol.min_value == Fraction(1, 4)
        and B4_POINT in sol.argmin_points
        and elapsed < 30.0
    )
    _report(2, ok, f"lemma_coh4 min={sol.min_value} in {elapsed:.2f}s")


def test_criterion_03_quintic_minima(preset_results):
    details = []
    ok = True
    for name in ("lemma_b5circ", "lemma_coh5"):
        _, sol, elapsed = preset_results[name]
        good = (
            sol.min_value == Fraction(1, 5)
            and B5_POINT in sol.argmin_points
            and elapsed < 600.0
        )
        ok = ok and good
        details.append(f"{name} min={sol.min_value} in {elapsed:.1f}s")
    _report(3, ok, "; ".join(details))


# -- criterion 4: bound assembly -------------------------------------------------


def test_criterion_04_bounds_match_the_stated_formulas(preset_results):
    genera = [2, 3, 6, 11, 19, 20, 47, 104, 500, 10007]
    ok = True
    for g in genera:
        for case in ("B_circ", "H_circ"):
            ok = ok and plmin.bound(4, g, case) == Fraction(g + 3, 4) - 4
            ok = ok and plmin.bound(5, g, case) == Fraction(g + 4, 5) - 16
    _report(4, ok, f"(g+3)/4-4 and (g+4)/5-16 at {len(genera)} genera, both cases")


# -- criterion 5: the genus-6 strata table ----------------------------------------


def test_criterion_05_genus_six_strata_table():
    rows = splitting.enumerate_strata4(6, "irreducible")
    got = [(r.e.parts, r.f.parts, r.codim) for r in rows]
    want = [
        ((3, 3, 3), (4, 5), 0),
        ((2, 3, 4), (4, 5), 1),
        ((1, 4, 4), (2, 7), 2),
        ((2, 3, 4), (3, 6), 2),
        ((3, 3, 3), (3, 6), 2),
    ]
    ok = got == want
    _report(5, ok, f"5 strata with codims {[r.codim for r in rows]}")


# -- criterion 6: kappa_0 across degrees and genera --------------------------------


def test_criterion_06_kappa0_equals_2g_minus_2():
    bad = []
    for k in (3, 4, 5):
        for genus in range(2, 31):
            poly = hurwitz.kappa_value(k, 0, genus)
            if poly != poly.ring.const(2 * genus - 2):
                bad.append((k, genus))
    _report(6, not bad, f"kappa_0 = 2g-2 for k in (3,4,5), g in [2,30]; failures: {bad}")


# -- criterion 7: pushforward of the curve class -----------------------------------


def test_criterion_07_curve_class_pushes_to_covering_degree():
    ok = True
    for k in (3, 4, 5):
        setup = hurwitz.ce_setup(k, genus=None, truncation=k + 2)
        value = push_gamma(hurwitz.curve_class(setup))
        ok = ok and split(value) == (setup.ring.const(k), setup.ring.zero())
    _report(7, ok, "gamma_*[C] = k for k in (3, 4, 5)")


# -- criterion 8: oracle equivalence -----------------------------------------------


def _recount_quartic(e, f):
    ends = 0
    for seq in (e, f):
        for u in seq:
            for v in seq:
                ends += max(0, u - v - 1)
    mixed = 0
    for i in range(3):
        for j in range(i, 3):
            for fl in f:
                mixed += max(0, fl - e[i] - e[j] - 1)
    return ends - mixed


def _recount_quintic(e, f, g):
    ends = 0
    for seq in (e, f):
        for u in seq:
            for v in seq:
                ends += max(0, u - v - 1)
    mixed = 0
    for ei in e:
        for j in range(5):
            for k in range(j + 1, 5):
                mixed += max(0, (g + 4) - ei - f[j] - f[k] - 1)
    return ends - mixed


def _random_type_of_degree(rng, rank, degree, lo=-3):
    cuts = sorted(rng.randint(lo, degree) for _ in range(rank - 1))
    parts, prev = [], 0
    for c in cuts:
        parts.append(c - prev)
        prev = c
    parts.append(degree - prev)
    return splitting.SplittingType(parts)


def test_criterion_08_codim_and_character_oracles():
    rng = random.Random(2718)
    mismatches = 0
    for _ in range(5000):
        e = splitting.SplittingType(rng.randint(-5, 9) for _ in range(3))
        f = splitting.SplittingType(rng.randint(-5, 9) for _ in range(2))
        if splitting.codim_hurwitz4(e, f) != _recount_quartic(e.parts, f.parts):
            mismatches += 1
    for _ in range(5000):
        g = rng.randint(2, 30)
        e = _random_type_of_degree(rng, 4, g + 4)
        f = _random_type_of_degree(rng, 5, 2 * g + 8)
        if splitting.codim_hurwitz5(e, f, g) != _recount_quintic(e.parts, f.parts, g):
            mismatches += 1

    ring = fiber_ring(RingSpec([("c2", 2)], 6))

    def split_char(parts):
        total = ring.zero()
        for e in parts:
            total = total + o_z(ring, e)
        return total

    char_mismatches = 0
    for _ in range(1000):
        s = splitting.SplittingType(rng.randint(-4, 6) for _ in range(rng.randint(1, 4)))
        t = splitting.SplittingType(rng.randint(-4, 6) for _ in range(rng.randint(1, 4)))
        bs, bt = split_char(s.parts), split_char(t.parts)
        if bundles.sym2(bs) != split_char(splitting.sym2_type(s).parts):
            char_mismatches += 1
        if bundles.wedge2(bs) != split_char(splitting.wedge2_type(s).parts):
            char_mismatches += 1
        if bs * bt != split_char(splitting.tensor_type(s, t).parts):
            char_mismatches += 1
    ok = mismatches == 0 and char_mismatches == 0
    _report(
        8,
        ok,
        f"10^4 codim recounts ({mismatches} mismatches), "
        f"10^3 split-character cases ({char_mismatches} mismatches)",
    )


# -- criterion 9: sampling oracle and invariances ------------------------------------


def test_criterion_09_sampling_never_undercuts_and_invariances(
    preset_results, random_program_factory
):
    centers = {
        "lemma_b4": B4_POINT,
        "lemma_coh4": B4_POINT,
        "lemma_b5circ": B5_POINT,
        "lemma_coh5": B5_POINT,
    }
    undercuts = []
    for name, (prog, sol, _) in preset_results.items():
        sampled = plmin.sample_check(prog, trials=10_000, seed=42, center=centers[name])
        if sampled < sol.min_value:
            undercuts.append(name)

    rng = random.Random(31415)
    failures = 0
    for _ in range(100):
        p = random_program_factory(rng)
        sol = plmin.solve(p)
        a, b = p.inequalities[rng.randrange(len(p.inequalities))]
        redundant = plmin.program(
            num_vars=p.num_vars,
            inequalities=list(p.inequalities) + [([2 * v for v in a], 2 * b)],
            objective_linear=p.objective_linear,
            objective_const=p.objective_const,
            hinges=[(h.sign, h.coeffs, h.rhs) for h in p.hinges],
        )
        if plmin.solve(redundant).min_value != sol.min_value:
            failures += 1
        lam = Fraction(rng.randint(1, 5), rng.randint(1, 5))
        scaled = plmin.program(
            num_vars=p.num_vars,
            inequalities=p.inequalities,
            objective_linear=[lam * v for v in p.objective_linear],
            objective_const=lam * p.objective_const,
            hinges=[(h.sign, [lam * v for v in h.coeffs], lam * h.rhs) for h in p.hinges],
        )
        scaled_sol = plmin.solve(scaled)
        if scaled_sol.min_value != lam * sol.min_value:
            failures += 1
        if scaled_sol.argmin_points != sol.argmin_points:
            failures += 1
    ok = not undercuts and failures == 0
    _report(
        9,
        ok,
        f"4 presets x 10^4 samples (undercuts: {undercuts or 'none'}); "
        f"100 random programs ({failures} invariance failures)",
    )


# -- criterion 10: negative-summand cap over the Pfaffian constraints -----------------


def _sorted_partitions(total, parts, minimum):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total // parts + 1):
        for rest in _sorted_partitions(total - first, parts - 1, first):
            yield (first,) + rest


# Positions (i, j, k), 0-based, of the summands e_i + f_j + f_k - (g+4) that
# the three Pfaffian inequalities force to be nonnegative: i = 3 with
# jk != 01, and i = 2 with jk not in {01, 02}.
_PFAFFIAN_FORCED = tuple(
    (i, j, k)
    for i in (2, 3)
    for j, k in combinations(range(5), 2)
    if (j, k) != (0, 1) and (i == 3 or (j, k) != (0, 2))
)
_PFAFFIAN_CAP = 40 - len(_PFAFFIAN_FORCED)
# A smooth plane sextic projected from one of its points (g = 10, degree 5).
_SCROLL_PAIR = (10, (2, 3, 4, 5), (3, 4, 6, 7, 8))


def _negative_summands_quintic(e, f, g):
    count = 0
    for ei in e:
        for j in range(5):
            for k in range(j + 1, 5):
                if ei + f[j] + f[k] < g + 4:
                    count += 1
    return count


def test_criterion_10_pfaffian_negative_summand_cap():
    """Exhaustive sweep at g = 10 and g = 11.

    Scans every pair (e, f) with e_1 >= 1 (no trivial summand on an
    irreducible cover), f_1 >= 0 (globally generated), matched degrees, and
    all three Pfaffian inequalities satisfied, and checks the cap on
    negative summands e_i + f_j + f_k - (g+4) that those inequalities imply.

    The cap is 23.  With e and f sorted, e_i + f_j + f_k is monotone in i,
    j and k, so (1-based) f_1 + f_3 + e_4 >= g+4 makes every summand with
    i = 4 and jk != 12 nonnegative (9 summands), and f_1 + f_4 + e_3 >= g+4
    together with f_2 + f_3 + e_3 >= g+4 makes every summand with i = 3
    and jk not in {12, 13} nonnegative (8 summands).  That forces 17 of
    the 40 summands to be nonnegative, so at most 23 are negative.

    The often-quoted cap of 11 is false, even for smooth irreducible
    covers.  Projecting a smooth plane sextic from one of its own points
    gives a degree-5 cover of genus 10 with e = (2,3,4,5); the Pfaffians
    include the quadrics of the twisted-cubic scroll (degrees 6, 7, 8) and
    the two quadrics cutting the curve on it (degrees 3, 4), so
    f = (3,4,6,7,8).  That pair meets all three inequalities with equality
    and has 13 negative summands; it lies in the sweep and is asserted
    below.  Pairs passing the inequalities reach 21 negatives, e.g.
    e = (1,1,3,9), f = (5,5,6,6,6) at g = 10.

    For every candidate pair the three Pfaffian flags of ``constraints_5``
    must agree with the inequalities written out here.  For every swept
    pair the 17 forced summands must be nonnegative, recomputed from the
    raw tuples, ``negative_summand_count5`` must equal an inline recount,
    and the count must be at most 23.
    """
    worst = (0, None, None)
    pairs = over_eleven = 0
    scroll_count = None
    flag_mismatches, forced_negative, recount_mismatches = [], [], []
    for g in (10, 11):
        target = g + 4
        for e in _sorted_partitions(target, 4, 1):
            for f in _sorted_partitions(2 * target, 5, 0):
                flags = splitting.constraints_5(e, f, g)
                inline = (
                    f[0] + f[2] + e[3] >= target,
                    f[0] + f[3] + e[2] >= target,
                    f[1] + f[2] + e[2] >= target,
                )
                got = (flags.pfaffian_lower, flags.pfaffian_imp2, flags.pfaffian_imp3)
                if got != inline or flags.pfaffian_ok != all(inline):
                    flag_mismatches.append((g, e, f))
                if not flags.pfaffian_ok:
                    continue
                pairs += 1
                if any(e[i] + f[j] + f[k] < target for i, j, k in _PFAFFIAN_FORCED):
                    forced_negative.append((g, e, f))
                count = splitting.negative_summand_count5(e, f, g)
                if (g, e, f) == _SCROLL_PAIR:
                    scroll_count = count
                if count != _negative_summands_quintic(e, f, g):
                    recount_mismatches.append((g, e, f))
                over_eleven += count > 11
                if count > worst[0]:
                    worst = (count, g, (e, f))
    ok = (
        len(_PFAFFIAN_FORCED) == 17
        and not flag_mismatches
        and not forced_negative
        and not recount_mismatches
        and worst[0] <= _PFAFFIAN_CAP
        and scroll_count == 13
    )
    _report(
        10,
        ok,
        f"{pairs} constraint-passing pairs, max negative summands "
        f"{worst[0]} (cap {_PFAFFIAN_CAP}) at g={worst[1]}, (e, f)={worst[2]}; "
        f"{over_eleven} pairs exceed 11 (scroll pair: {scroll_count}); "
        f"flag mismatches {flag_mismatches[:3]}, forced negatives "
        f"{forced_negative[:3]}, recount mismatches {recount_mismatches[:3]}",
    )
