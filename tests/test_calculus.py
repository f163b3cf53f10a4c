import random
from fractions import Fraction

import pytest

from setlattice.calculus import (
    NotDeclaredConvex,
    diff_quotient,
    first_linear_sample,
    regularity_check,
    scalar_dini,
    scalarized_derivative_intersection,
    segment_criticals,
    set_derivative,
)
from setlattice.extres import MINUS_INF, PLUS_INF
from setlattice.instances import (
    circle,
    heyde_a,
    orthant_workspace,
    random_grid,
    random_parampoly,
    random_pwl_vector,
    random_workspace,
)
from setlattice.kernel import inf_family
from setlattice.setfun import (
    ArityMismatch,
    ConcavePWL,
    ConvexPWL,
    EpiVectorFunction,
    FiniteInfFunction,
    ParamPolyFunction,
    Polyhedron,
)
from setlattice.vectoropt import epigraphical

F = Fraction


@pytest.fixture
def ws():
    return orthant_workspace()


@pytest.fixture
def absdiag(ws):
    pieces = [((1,), 0), ((-1,), 0)]
    return ParamPolyFunction(
        ws, 1, [(-1, 0), (0, -1)], [ConcavePWL(pieces), ConcavePWL(pieces)]
    )


def test_quotient_examples(absdiag, ws):
    for t in (F(1, 3), F(1, 7), 1):
        assert diff_quotient(absdiag, (0,), (1,), t) == ws.translated_cone((1, 1))
    f = heyde_a()
    # outside the domain every quotient is the whole space
    assert diff_quotient(f, (-1, 0), (1, 0), F(1, 2)).is_whole


def test_quotient_monotone(ws):
    rng = random.Random(31)
    for _ in range(20):
        f = random_parampoly(rng, ws, 1, with_domain=False)
        x, u = (F(rng.randint(-2, 2)),), (F(rng.randint(-2, 2)),)
        quots = [diff_quotient(f, x, u, t) for t in (F(1, 8), F(1, 4), F(1, 2), 1)]
        for small, big in zip(quots, quots[1:]):
            assert small.leq(big)


def test_set_derivative_examples(absdiag, ws):
    D = set_derivative(absdiag, (0,), (1,))
    assert D.value == ws.translated_cone((1, 1))
    assert D.exact and D.stabilization_t is not None
    # derivative in the zero direction is the recession cone
    assert set_derivative(absdiag, (F(1, 2),), (0,)).value == ws.cone_set()
    # outside the domain the derivative is the whole space
    f = heyde_a()
    assert set_derivative(f, (-2, 0), (1, 0)).value.is_whole
    # leaving the domain immediately gives the empty derivative
    assert set_derivative(f, (0, 0), (-1, 0)).value.is_empty


def test_derivative_with_slack_constraint(ws):
    # third constraint strictly slack at the base: it must vanish from the
    # limit although finite quotients still carry it
    f = ParamPolyFunction(
        ws,
        1,
        [(-1, 0), (0, -1), (-1, -1)],
        [
            ConcavePWL([((0,), 1)]),
            ConcavePWL([((0,), 0)]),
            ConcavePWL([((5,), -2)]),
        ],
    )
    D = set_derivative(f, (0,), (1,))
    assert D.value == ws.upper_set([((-1, 0), 0), ((0, -1), 0)])
    q = diff_quotient(f, (0,), (1,), F(1, 100))
    assert D.value.leq(q)


def test_scalar_dini_examples(absdiag):
    assert scalar_dini(absdiag, (-1, -1), (0,), (1,)).value == 2
    assert scalar_dini(absdiag, (-1, 0), (F(1, 2),), (-1,)).value == -1
    f = heyde_a()
    assert scalar_dini(f, (-1, 0), (-1, 0), (1, 0)) == MINUS_INF
    # direction leaving the domain instantly
    assert scalar_dini(f, (-1, 0), (0, 0), (-1, 0)) == PLUS_INF


def test_positive_homogeneity_and_sublinearity(ws):
    rng = random.Random(77)
    for _ in range(15):
        f = random_parampoly(rng, ws, 2, with_domain=False)
        x = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        u1 = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        u2 = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        s = F(rng.randint(1, 5), rng.randint(1, 3))
        Du = set_derivative(f, x, u1).value
        Dsu = set_derivative(f, x, tuple(s * c for c in u1)).value
        assert Dsu == Du.scale(s)
        lam = F(rng.randint(1, 3), 4)
        mix = tuple(lam * a + (1 - lam) * b for a, b in zip(u1, u2))
        Dmix = set_derivative(f, x, mix).value
        bound = Du.scale(lam).add(set_derivative(f, x, u2).value.scale(1 - lam))
        assert Dmix.leq(bound)


def test_scalar_dini_below_derivative_scalarization(ws):
    rng = random.Random(123)
    for _ in range(20):
        f = random_parampoly(rng, ws, 1, with_domain=False)
        x, u = (F(rng.randint(-2, 2)),), (F(rng.randint(-2, 2), 2),)
        D = set_derivative(f, x, u)
        for z in ws.directions:
            assert scalar_dini(f, z, x, u) <= D.value.neg_support(z)


def test_derivative_hull_of_quotients(ws):
    rng = random.Random(55)
    for _ in range(15):
        f = random_parampoly(rng, ws, 1, with_domain=False)
        x, u = (F(0),), (F(1),)
        D = set_derivative(f, x, u)
        ts = [F(1, 2**k) for k in range(1, 12)]
        hull = inf_family(ws, [diff_quotient(f, x, u, t) for t in ts])
        # the sampled union hull approximates the derivative from inside
        assert D.value.leq(hull)
        if D.stabilization_t is not None:
            assert hull == D.value


def test_recession_chain_of_derivative(ws):
    rng = random.Random(321)
    for _ in range(15):
        f = random_parampoly(rng, ws, 2, with_domain=False)
        x0 = (F(0), F(0))
        x = (F(1), F(2))
        D = set_derivative(f, x0, tuple(b - a for a, b in zip(x0, x)))
        if D.value.is_empty:
            continue
        for t in (F(1, 8), F(1, 16)):
            xt = tuple(a + t * (b - a) for a, b in zip(x0, x))
            vt = f.eval(xt)
            if vt.is_empty:
                continue
            assert D.value.recession().leq(vt.recession())
        v0 = f.eval(x0)
        if not v0.is_empty:
            assert D.value.recession().leq(v0.recession())


def test_epivector_derivative_and_sr(ws):
    psi = EpiVectorFunction(
        ws,
        1,
        [ConvexPWL([((1,), 0), ((-1,), 0)]), ConvexPWL([((1,), -1), ((-1,), 1)])],
    )
    D = set_derivative(psi, (0,), (1,))
    assert D.value == ws.translated_cone((1, -1))
    rep = regularity_check(psi, (F(1, 3),), (1,), ws.directions)
    assert rep.strong and rep.weak and rep.exact


def test_first_linear_sample_base_outside_domain(ws):
    # psi(x) = x on {y <= 1}: the base (0, 2) lies outside the domain
    psi = EpiVectorFunction(
        ws,
        2,
        [ConvexPWL([((1, 0), 0)]), ConvexPWL([((0, 1), 0)])],
        Polyhedron(2, [((0, 1), 1)]),
    )
    assert first_linear_sample(psi, (0, 2), (1, 0), ws.directions) is None
    assert first_linear_sample(psi, (0, 0), (1, 0), ws.directions) is not None


def test_sr_for_random_epigraphical():
    rng = random.Random(9)
    for _ in range(10):
        ws = orthant_workspace()
        psi = random_pwl_vector(rng, ws, 1)
        f = epigraphical(psi)
        x = (F(rng.randint(-2, 2)),)
        u = (F(rng.randint(-2, 2)),)
        rep = regularity_check(f, x, u, ws.directions)
        assert rep.strong
        assert rep.weak


def test_affine_parampoly_sr(ws):
    f = ParamPolyFunction(
        ws,
        1,
        [(-1, 0), (0, -1)],
        [ConcavePWL([((2,), 1)]), ConcavePWL([((-3,), 0)])],
    )
    rep = regularity_check(f, (F(1, 2),), (1,), ws.directions)
    assert rep.strong and rep.weak


def test_circle_wr_failure():
    f = circle()
    ws = f.workspace
    D = set_derivative(f, (0,), (1,))
    assert D.value.is_empty
    for z in [(1,), (-1,)]:
        d = scalar_dini(f, z, (0,), (1,))
        assert abs(d.value) <= F(1, 10**6)
    inter = scalarized_derivative_intersection(f, (0,), (1,), ws.directions)
    assert not inter.is_empty
    assert inter.contains_point((0,))
    rep = regularity_check(f, (0,), (1,), ws.directions)
    assert not rep.weak and not rep.strong and not rep.exact


def test_not_declared_convex_raises(ws, absdiag):
    fhat = FiniteInfFunction([absdiag.shift_arg((m,)) for m in (-1, 1)])
    with pytest.raises(NotDeclaredConvex):
        set_derivative(fhat, (0,), (1,))


def test_derivative_against_brute_force_grid():
    """The exact small-t analysis agrees with deep quotient sampling."""
    rng = random.Random(2024)
    for _ in range(30):
        ws = random_workspace(rng)
        f = random_parampoly(rng, ws, 1, with_domain=True)
        for x in random_grid(rng, 1, 2):
            if f.eval(x).is_empty:
                continue
            u = (F(rng.randint(-2, 2)),)
            if u == (0,):
                continue
            D = set_derivative(f, x, u)
            deep = diff_quotient(f, x, u, F(1, 2**18))
            # the deep quotient sits between the derivative and itself
            assert D.value.leq(deep)
            if D.stabilization_t is not None and F(1, 2**18) <= D.stabilization_t:
                assert deep == D.value


def test_ray_memo_restricts_once(ws, absdiag, monkeypatch):
    """Derivative, Dini values and the regularity check at one (x, u) share
    one ray restriction; repeated calls return equal values."""
    calls = []
    original = ParamPolyFunction.ray_restrict

    def counting(self, x, u):
        calls.append((x, u))
        return original(self, x, u)

    monkeypatch.setattr(ParamPolyFunction, "ray_restrict", counting)
    x, u = (F(1, 2),), (F(-1),)
    D = set_derivative(absdiag, x, u)
    dini = {z: scalar_dini(absdiag, z, x, u) for z in ws.directions}
    rep = regularity_check(absdiag, x, u, ws.directions)
    assert len(calls) == 1
    assert set_derivative(absdiag, x, u).value == D.value
    assert {z: scalar_dini(absdiag, z, x, u) for z in ws.directions} == dini
    again = regularity_check(absdiag, x, u, ws.directions)
    assert (again.strong, again.weak, again.intersection) == (
        rep.strong, rep.weak, rep.intersection
    )
    assert len(calls) == 1


def test_arity_mismatch_raises(absdiag):
    with pytest.raises(ArityMismatch):
        absdiag.eval((0, 5, 7))
    with pytest.raises(ArityMismatch):
        set_derivative(absdiag, (0,), (1, 2))
    with pytest.raises(ArityMismatch):
        scalar_dini(absdiag, (-1, 0), (0, 0), (1,))


@pytest.mark.parametrize("xdim", [1, 2])
def test_segment_criticals_bound_affine_pieces(xdim):
    """Independent oracle for the shape roots: between consecutive critical
    parameters every scalarization along the segment, evaluated through f
    itself, keeps one kind (finite, +inf or -inf) and is affine."""
    rng = random.Random(4100 + xdim)
    intervals = 0
    for _ in range(100):
        ws = random_workspace(rng)
        f = random_parampoly(rng, ws, xdim, max_normals=6)
        x0, x = random_grid(rng, xdim, 2)
        cuts = [F(0)] + segment_criticals(f, x0, x, ws.directions) + [F(1)]
        for lo, hi in zip(cuts, cuts[1:]):
            intervals += 1
            ts = [lo + k * (hi - lo) / 4 for k in (1, 2, 3)]
            pts = [tuple(a + t * (b - a) for a, b in zip(x0, x)) for t in ts]
            for z in ws.directions:
                phis = [f.scalarize(z, p) for p in pts]
                kinds = {(v.is_finite, v.is_plus_inf) for v in phis}
                assert len(kinds) == 1, (f.normals, x0, x, lo, hi, z)
                if phis[0].is_finite:
                    a, b, c = (v.value for v in phis)
                    assert b - a == c - b, (f.normals, x0, x, lo, hi, z)
    assert intervals > 100
