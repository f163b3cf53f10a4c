"""Seeded random property checks of the lattice laws; the acceptance suite
reruns these at full corpus size."""

import random
from fractions import Fraction

import pytest

from setlattice import inf_family, sup_family
from setlattice.extres import ext_min, residual as ext_residual
from setlattice.instances import random_upper_set, random_workspace

N_INSTANCES = 120


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20240817)
    out = []
    for _ in range(N_INSTANCES):
        ws = random_workspace(rng)
        sets = [random_upper_set(rng, ws, allow_empty=(i == 0)) for i in range(3)]
        out.append((ws, sets, Fraction(rng.randint(1, 5), rng.randint(1, 3))))
    return out


def test_order_bounds(corpus):
    for ws, (a, b, d), _ in corpus:
        lo = inf_family(ws, [a, b, d])
        hi = sup_family(ws, [a, b, d])
        for s in (a, b, d):
            assert lo.leq(s)
            assert s.leq(hi)


def test_inf_sup_idempotent_commutative(corpus):
    for ws, (a, b, d), _ in corpus:
        assert inf_family(ws, [a, a]) == a
        assert sup_family(ws, [b, b]) == b
        assert inf_family(ws, [a, b]) == inf_family(ws, [b, a])
        assert sup_family(ws, [a, b]) == sup_family(ws, [b, a])
        assert inf_family(ws, [a, b, d]) == inf_family(
            ws, [inf_family(ws, [a, b]), d]
        )
        assert sup_family(ws, [a, b, d]) == sup_family(
            ws, [sup_family(ws, [a, b]), d]
        )


def test_distributivity_of_add_over_inf(corpus):
    for ws, (a, b, d), _ in corpus:
        lhs = b.add(inf_family(ws, [a, d]))
        rhs = inf_family(ws, [b.add(a), b.add(d)])
        assert lhs == rhs


def test_residuation_adjunction(corpus):
    for ws, (a, b, m), _ in corpus:
        q = a.residual(b)
        assert a.leq(b.add(q))
        # a ≼ b ⊕ m  <=>  a ÷ b ≼ m
        assert a.leq(b.add(m)) == q.leq(m)


def test_calc_rules_for_residual(corpus):
    t = Fraction(1, 3)
    for ws, (a, b, d), s in corpus:
        # positive scaling commutes with the residual
        assert a.residual(b).scale(s) == a.scale(s).residual(b.scale(s))
        # convex-combination rule
        lhs = (a.scale(t).add(b.scale(1 - t))).residual(d)
        rhs = a.residual(d).scale(t).add(b.residual(d).scale(1 - t))
        assert lhs.leq(rhs)
        # triangle rule
        assert a.residual(d).leq(a.residual(b).add(b.residual(d)))
        # self-residual is the recession cone
        if not a.is_empty:
            assert a.residual(a) == a.recession()


def test_scalarization_of_infimum(corpus):
    for ws, sets, _ in corpus:
        hull = inf_family(ws, sets)
        for z in ws.directions:
            assert hull.neg_support(z) == ext_min(s.neg_support(z) for s in sets)


def test_scalarization_of_residual_inequality(corpus):
    for ws, (a, b, _), _ in corpus:
        q = a.residual(b)
        for z in ws.directions:
            lhs = ext_residual(a.neg_support(z), b.neg_support(z))
            assert lhs <= q.neg_support(z)


def test_recession_rules(corpus):
    for ws, (a, b, _), _ in corpus:
        if a.is_empty or b.is_empty:
            continue
        ra, rb = a.recession(), b.recession()
        # recession of a sum is the hull of the recessions
        assert a.add(b).recession() == inf_family(ws, [ra, rb])
        assert a.add(b).recession() == ra.add(rb)
        # monotonicity
        if a.leq(b):
            assert ra.leq(rb)
        # residual recession chain
        q = a.residual(b)
        if not q.is_empty:
            assert q.recession().leq(ra)
            assert ra.leq(rb)
            assert q.recession() == ra


def test_recession_via_finite_scalarizations(corpus):
    for ws, (a, _, _), _ in corpus:
        if a.is_empty:
            continue
        rec = a.recession()
        halves = [
            ws.upper_set([(z, 0)])
            for z in ws.directions
            if a.neg_support(z).is_finite
        ]
        approx = sup_family(ws, halves) if halves else ws.whole_space()
        # the sampled intersection over-approximates and agrees when the
        # sample contains the facet normals of a (it always does for the
        # canonical form, whose normals come from the dual sample)
        assert approx.leq(rec)
        if all(n in [tuple(d) for d in ws.directions] for n, _ in a.constraints):
            assert approx == rec


def test_scalarization_representation(corpus):
    for ws, (a, _, _), _ in corpus:
        if a.is_empty:
            continue
        if not all(n in [tuple(d) for d in ws.directions] for n, _ in a.constraints):
            continue
        halves = []
        for z in ws.directions:
            v = a.neg_support(z)
            if v.is_finite:
                halves.append(ws.upper_set([(z, -v.value)]))
            elif v.is_plus_inf:
                halves.append(ws.empty_set())
        assert sup_family(ws, halves) == a


def test_finite_scalarization_lies_in_dual_of_recession(corpus):
    for ws, (a, _, _), _ in corpus:
        if a.is_empty:
            continue
        rec = a.recession()
        for z in ws.directions:
            if a.neg_support(z).is_finite:
                # z* pairs nonpositively with every recession direction
                for r in rec.rayset:
                    assert sum(zi * ri for zi, ri in zip(z, r)) <= 0


def test_empty_iff_some_neg_support_plus_inf(corpus):
    for ws, sets, _ in corpus:
        for s in sets:
            flags = [s.neg_support(z).is_plus_inf for z in ws.directions]
            assert s.is_empty == any(flags)
            assert s.is_empty == all(flags)
