import random
from fractions import Fraction
from itertools import combinations

import pytest

from setlattice.calculus import (
    NotDeclaredConvex,
    _ray,
    _shape_roots,
    _swap_roots,
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
    random_convex_pwl,
    random_grid,
    random_parampoly,
    random_pwl_vector,
    random_workspace,
)
from setlattice.kernel import Workspace, _dot, inf_family
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
    one read of the ray's first rows; repeated calls return equal values."""
    calls = []
    original = ParamPolyFunction.first_rows

    def counting(self, x, u):
        calls.append((x, u))
        return original(self, x, u)

    monkeypatch.setattr(ParamPolyFunction, "first_rows", counting)
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


def test_rays_of_a_function_without_normals():
    """A ParamPoly with no normals, as _fm_translate builds when every value
    is the whole space, has exact rays: f' = Z and every Dini value is -inf."""
    f = ParamPolyFunction(orthant_workspace(), 1, [], [])
    assert set_derivative(f, (0,), (1,)).value == f.workspace.whole_space()
    assert scalar_dini(f, (-1, 0), (0,), (1,)) == MINUS_INF


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


def test_epivector_dini_matches_its_parampoly():
    """psi + C and its ParamPoly conversion are the same function, so their
    scalar Dini values agree for z* inside and outside C^-."""
    rng = random.Random(2718)
    cases = []
    for dim in (1, 2):
        ws = orthant_workspace(dim)
        zs = [(F(c),) for c in (-2, -1, 0, 1)] if dim == 1 else [
            (F(a), F(b)) for a in (-1, 0, 1, 2) for b in (-1, 0, 1)
        ]
        if dim == 2:
            # psi(x) = (x, -x) at z* = (1, 0), outside C^-: -inf on both sides
            cases.append((ws, zs, EpiVectorFunction(
                ws, 1, [ConvexPWL([((1,), 0)]), ConvexPWL([((-1,), 0)])]
            ), (F(0),), (F(1),)))
        for _ in range(12):
            xdim = rng.choice([1, 2])
            psi = EpiVectorFunction(
                ws, xdim, [random_convex_pwl(rng, xdim) for _ in range(dim)],
                Polyhedron.box([(-2, 2)] * xdim),
            )
            for _ in range(3):
                x = tuple(F(rng.randint(-4, 4), 2) for _ in range(xdim))
                u = tuple(F(rng.randint(-2, 2)) for _ in range(xdim))
                cases.append((ws, zs, psi, x, u))
    outside = 0
    for ws, zs, psi, x, u in cases:
        g = psi.as_parampoly()
        for z in zs:
            assert scalar_dini(psi, z, x, u) == scalar_dini(g, z, x, u), (z, x, u)
            outside += not ws.cone.in_dual(z)
    assert outside > 50


def test_scalar_dini_on_empty_values():
    """Values empty for small t > 0 read +∞ also where σ(z* | f(x)) = +∞, as
    the sampled residual +∞ ÷ -∞ does."""
    ws = Workspace(2, [(1, 0)])
    pinched = ParamPolyFunction(
        ws, 1, [(0, 1), (0, -1)], [ConcavePWL([((-1,), 0)]), ConcavePWL([((0,), 0)])]
    )
    assert scalar_dini(pinched, (0, -1), (0,), (1,)) == PLUS_INF
    assert pinched.eval((F(0),)).neg_support((-1, 0)) == MINUS_INF
    assert scalar_dini(pinched, (-1, 0), (0,), (1,)) == PLUS_INF


def test_scalar_dini_refuses_wrong_length_directions():
    psi = EpiVectorFunction(
        orthant_workspace(2), 1, [ConvexPWL([((1,), 0)]), ConvexPWL([((-1,), 0)])]
    )
    for f in (psi, psi.as_parampoly()):
        assert scalar_dini(f, (-1, -1), (0,), (1,)) == 0
        with pytest.raises(ArityMismatch):
            scalar_dini(f, (-1, 5, -1), (0,), (1,))
        with pytest.raises(ArityMismatch):
            scalar_dini(f, (-1,), (0,), (1,))


# ---------------------------------------------------------------------------
# Oracles for exact rays.  The first event along a ray is bounded from below
# by every root any piece could produce, all pieces taken, not only the
# active ones; the values come from f.eval, whose sets
# tests/test_setfun.py checks against ws.upper_set of the raw rows.
# ---------------------------------------------------------------------------


def _ray_rows(f, x, u):
    """The rows (n, p, q), <n, z> <= p + q t, that any piece can put on
    f(x + t u), and the roots where two pieces of one offset or component
    cross or the ray meets a domain row."""
    def along(pieces):
        return [(k + _dot(c, x), _dot(c, u)) for c, k in pieces]

    if isinstance(f, EpiVectorFunction):
        # on an interval where every component is affine, f(x + t u) is
        # psi(x) + t s + C: its scalarisations are affine, its quotients fixed
        groups = [along(comp.pieces) for comp in f.components]
        rows = []
    else:
        groups = [along(off.pieces) for off in f.offsets]
        rows = [(n, p, q) for n, g in zip(f.normals, groups) for p, q in g]
    roots = []
    for g in groups:
        roots += [(p2 - p1) / (q1 - q2) for (p1, q1), (p2, q2) in combinations(g, 2) if q1 != q2]
    for a, r in f.domain.rows:
        if _dot(a, u) != 0:
            roots.append((r - _dot(a, x)) / _dot(a, u))
    return rows, roots


def _cross(a, b):
    return 0 if len(a) == 1 else a[0] * b[1] - a[1] * b[0]


def _first_event(rows, roots, directions):
    """The least positive root of the given roots and of the events of rows;
    capped at 1."""
    return min([r for r in list(roots) + _event_roots(rows, directions) if r > 0] + [F(1)])


def _event_roots(rows, directions):
    """The roots of: parallel rows meeting, a vertex trajectory of two rows
    crossing a third, and two vertex trajectories swapping in <z*, v(t)> for
    a z* of directions."""
    roots = []
    verts = []
    for (ni, pi, qi), (nj, pj, qj) in combinations(rows, 2):
        D = _cross(ni, nj)
        if D == 0:
            sign = 1 if ni == nj else -1  # primitive normals: equal or opposite
            p, q = pi - sign * pj, qi - sign * qj
            if q != 0:
                roots.append(-p / q)
            continue
        v = [
            ((pi * nj[1] - pj * ni[1]) / D, (qi * nj[1] - qj * ni[1]) / D),
            ((ni[0] * pj - nj[0] * pi) / D, (ni[0] * qj - nj[0] * qi) / D),
        ]
        verts.append(v)
        for nk, pk, qk in rows:
            p = nk[0] * v[0][0] + nk[1] * v[1][0] - pk
            q = nk[0] * v[0][1] + nk[1] * v[1][1] - qk
            if q != 0:
                roots.append(-p / q)
    for z in directions:
        if len(z) == 1:
            continue
        vals = [(z[0] * vx[0] + z[1] * vy[0], z[0] * vx[1] + z[1] * vy[1]) for vx, vy in verts]
        for (p1, q1), (p2, q2) in combinations(vals, 2):
            if q1 != q2:
                roots.append((p2 - p1) / (q1 - q2))
    return roots


def test_shape_and_swap_roots_match_the_fraction_events():
    """The cross-multiplied integer roots of _shape_roots and _swap_roots are
    the positive event roots of the same rows computed in Fractions."""
    rng = random.Random(1313)
    plane = [(-1, 0), (0, -1), (-1, -1), (1, 0), (0, 1), (1, -2), (-2, 1), (-1, 0)]
    checked = 0
    for trial in range(200):
        if trial % 5 == 0:
            normals = [rng.choice([(1,), (-1,)]) for _ in range(rng.randint(2, 4))]
        else:
            normals = rng.sample(plane, rng.randint(2, 5))
        p = [rng.randint(-6, 6) for _ in normals]
        q = [rng.randint(-6, 6) for _ in normals]
        zs = [(F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-3, 3))) for _ in range(3)]
        roots, verts = _shape_roots(normals, p, q)
        # p and q share a denominator, which no root depends on
        den = rng.randint(1, 4)
        rows = [(n, F(a, den), F(b, den)) for n, a, b in zip(normals, p, q)]
        want = sorted(r for r in _event_roots(rows, zs) if r > 0)
        assert sorted(roots + _swap_roots(verts, zs)) == want, (normals, p, q, zs)
        checked += len(want)
    assert checked > 500


def _oracle_rays(rng):
    """Exact rays (f, x, u, z*s) with f(x) nonempty: random 1-D and 2-D
    ParamPoly and EpiVector functions over random cones, plus ParamPoly
    functions whose values are empty for small t > 0."""
    out = []
    for k in range(60):
        ws = random_workspace(rng, dim=1 if k % 4 == 0 else 2)
        xdim = 1 + k % 2
        if k % 3 == 0:
            comps = [random_convex_pwl(rng, xdim) for _ in range(ws.dim)]
            f = EpiVectorFunction(ws, xdim, comps, Polyhedron.box([(-2, 2)] * xdim))
        else:
            f = random_parampoly(rng, ws, xdim, max_normals=3)
        out.extend(_oracle_cases(rng, ws, f, xdim))
    # rows n, -n tight at x = 0 (and, when C = {0}, a positively dependent
    # triple): the values are empty for small t > 0 when the slopes pinch
    halfplane = Workspace(2, [(1, 0)])
    zero = Workspace(2, [])
    zero1 = Workspace(1, [])
    for k in range(24):
        xdim = 1 + k % 2
        ws = (halfplane, zero, zero1)[k % 3]
        if ws is zero:
            normals = [(1, 0), (0, 1), (-1, -1)]
        else:
            facets = ws.cone.facet_normals
            normals = [n for n in facets if tuple(-c for c in n) in facets]
            normals += [n for n in facets if n not in normals][:1]
        consts = [F(rng.randint(-3, 3), 2) for _ in normals[1:]]
        consts.insert(0, -sum(consts) if ws is zero else -consts[0])
        offsets = [
            ConcavePWL([(tuple(F(rng.randint(-2, 2)) for _ in range(xdim)), c)]) for c in consts
        ]
        f = ParamPolyFunction(ws, xdim, normals, offsets)
        out.extend(_oracle_cases(rng, ws, f, xdim, base=(F(0),) * xdim))
    return out


def _oracle_cases(rng, ws, f, xdim, base=None):
    zs = list(ws.directions) + [(F(0),) * ws.dim]
    zs += [tuple(2 * c for c in n) for n in ws.cone.facet_normals]  # non-primitive
    zs += [g for g in ws.cone.generators if not ws.cone.in_lineality(g)]  # outside C^-
    cases = []
    for _ in range(3):
        x = base or tuple(F(rng.randint(-4, 4), 2) for _ in range(xdim))
        if f.eval(x).is_empty:
            continue
        u = tuple(F(rng.randint(-2, 2)) for _ in range(xdim))
        cases.append((f, x, u, zs))
    return cases


def _at(x, u, t):
    return tuple(a + t * b for a, b in zip(x, u))


def test_scalar_dini_against_quotient_oracle():
    """The Dini value is the slope of the scalarisation on (0, t*], read from
    two canonical values at t*/2 and t*/4, with t* the first event bound;
    first_linear_sample stays where every scalarisation is affine."""
    rng = random.Random(4242)
    seen = {"finite": 0, "+inf": 0, "-inf": 0, "epi": 0, "sample": 0}
    for f, x, u, zs in _oracle_rays(rng):
        rows, roots = _ray_rows(f, x, u)
        ts = _first_event(rows, roots, zs)
        t1, t2 = ts / 2, ts / 4
        for z in zs:
            phi0 = f.eval(x).neg_support(z)
            phi1 = f.eval(_at(x, u, t1)).neg_support(z)
            phi2 = f.eval(_at(x, u, t2)).neg_support(z)
            if not f.domain.contains(_at(x, u, t2)):
                want = PLUS_INF  # the ray leaves the domain at once
            elif phi1.is_plus_inf or phi2.is_plus_inf:
                assert phi1 == phi2 == PLUS_INF
                want = PLUS_INF
            elif phi0.is_minus_inf:
                want = MINUS_INF
            else:
                slope = (phi1.value - phi2.value) / (t1 - t2)
                # the oracle's own check: affine down to t = 0
                assert phi2.value - phi0.value == slope * t2, (f, x, u, z)
                want = slope
            got = scalar_dini(f, z, x, u)
            assert got == want, (f.normals if hasattr(f, "normals") else f, x, u, z, got, want)
            seen["finite" if got.is_finite else "+inf" if got.is_plus_inf else "-inf"] += 1
            seen["epi"] += isinstance(f, EpiVectorFunction)
        # every scalarisation is affine on (0, t] at the sample t
        t = first_linear_sample(f, x, u, zs)
        if t is not None:
            seen["sample"] += 1
            for z in zs:
                d = scalar_dini(f, z, x, u)
                phi = f.eval(_at(x, u, t)).neg_support(z)
                if d.is_finite:
                    assert phi.value == f.eval(x).neg_support(z).value + d.value * t, (x, u, z, t)
                elif d.is_plus_inf:
                    assert phi.is_plus_inf
    assert min(seen.values()) > 10, seen


def test_derivative_equals_quotient_beyond_event_bound():
    """On (0, t*], with t* bounded from the raw rows and from the rows less
    sigma(n | f(x)) that the residual f(x + t u) ÷ f(x) has, every quotient
    equals the exact derivative."""
    rng = random.Random(5151)
    seen = {"epi": 0, "parampoly": 0, "empty": 0}
    for f, x, u, _ in _oracle_rays(rng):
        rows, roots = _ray_rows(f, x, u)
        vx = f.eval(x)
        shifted = [(n, p - vx.support(n).value, q) for n, p, q in rows]
        ts = _first_event(rows + shifted, roots, ())
        D = set_derivative(f, x, u)
        k = 1
        while F(1, 2**k) >= ts:
            k += 1
        for j in range(k, k + 3):
            assert D.value == diff_quotient(f, x, u, F(1, 2**j)), (x, u, j)
        seen["epi" if isinstance(f, EpiVectorFunction) else "parampoly"] += 1
        seen["empty"] += D.value.is_empty
    assert min(seen.values()) > 5, seen


def _structure(u):
    """The facet normals, vertex count and rays of an upper set (None if empty)."""
    return None if u.is_empty else (tuple(f[:-2] for f in u.facets), len(u.points), u.rayset)


def test_ray_shape_is_fixed_below_t0():
    """t0 of a ray's shape is a true bound: at random points of (0, t0) the
    values f(x + t u) and the quotients keep one facet structure, and below
    twice first_linear_sample every scalarisation is affine in t."""
    rng = random.Random(7331)
    seen = {"rays": 0, "moving": 0, "swaps": 0}
    for f, x, u, zs in _oracle_rays(rng):
        if not any(u) or _ray(f, x, u).rows(f) is None:
            continue
        _, t0, verts = _ray(f, x, u).shape(f)
        assert 0 < t0 <= 1, (x, u, t0)
        ts = sorted({t0 * F(k, 8) for k in range(1, 8)} | {t0 * F(rng.randint(1, 999), 1000)})
        assert len({_structure(f.eval(_at(x, u, t))) for t in ts}) == 1, (x, u, t0)
        assert len({_structure(diff_quotient(f, x, u, t)) for t in ts}) == 1, (x, u, t0)
        seen["rays"] += 1
        seen["moving"] += f.eval(_at(x, u, ts[0])) != f.eval(_at(x, u, ts[-1]))
        t_lin = 2 * first_linear_sample(f, x, u, zs)
        assert 0 < t_lin <= t0, (x, u, t_lin, t0)
        seen["swaps"] += bool(_swap_roots(verts, zs))
        ts = sorted({t_lin * F(k, 8) for k in range(1, 8)} | {t_lin * F(rng.randint(1, 999), 1000)})
        for z in zs:
            phis = [f.eval(_at(x, u, t)).neg_support(z) for t in ts]
            if not phis[0].is_finite:
                assert len(set(phis)) == 1, (x, u, z)
                continue
            steps = zip(phis, phis[1:], ts, ts[1:])
            slopes = {(b.value - a.value) / (t2 - t1) for a, b, t1, t2 in steps}
            assert len(slopes) == 1, (x, u, z, t_lin)
    assert min(seen.values()) > 5, seen
