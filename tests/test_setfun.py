import random
from fractions import Fraction
from itertools import combinations, product
from operator import mul

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from setlattice import inf_family, sup_family
from setlattice.calculus import segment_criticals
from setlattice.extres import PLUS_INF, ext_min
from setlattice.kernel import LatticeError, Workspace
from setlattice.instances import (
    heyde_a,
    heyde_b,
    orthant_workspace,
    random_parampoly,
    random_workspace,
)
from setlattice.setfun import (
    ConcavePWL,
    ConvexPWL,
    EmptyTranslationSet,
    EpiVectorFunction,
    FiniteInfFunction,
    OracleFunction,
    ParamPolyFunction,
    Polyhedron,
    _hull_rows_of_points,
    fourier_motzkin,
    inf_translate,
    inf_translation,
    level_function,
)

F = Fraction


@pytest.fixture
def ws():
    return orthant_workspace()


@pytest.fixture
def absdiag(ws):
    pieces = [((1,), 0), ((-1,), 0)]
    return ParamPolyFunction(
        ws,
        1,
        normals=[(-1, 0), (0, -1)],
        offsets=[ConcavePWL(pieces), ConcavePWL(pieces)],
        name="absdiag",
    )


def test_heyde_a_eval_and_scalarization():
    f = heyde_a()
    ws = f.workspace
    assert f.eval((0, 0)) == ws.cone_set()
    assert f.eval((-1, 0)).is_empty
    assert f.scalarize((-1, -1), (2, 5)).value == 2
    assert f.scalarize((-1, -1), (-3, 0)) == PLUS_INF


def test_epivector_eval(ws):
    psi = EpiVectorFunction(
        ws,
        1,
        [ConvexPWL([((1,), 0), ((-1,), 0)]), ConvexPWL([((1,), -1), ((-1,), 1)])],
    )
    assert psi.eval((0,)) == ws.translated_cone((0, 1))
    assert psi.scalarize((-1, -1), (0,)).value == 1
    # scalarization equals the direct pairing with the vector value
    for x in [(F(-1, 2),), (F(1, 3),), (2,)]:
        assert psi.scalarize((-1, 0), x).value == psi.psi(x)[0]


def test_level_function(absdiag, ws):
    half = level_function(absdiag, (-1, -1), (F(1, 2),))
    assert half == ws.upper_set([((-1, -1), -1)])
    outside = OracleFunction(ws, 1, lambda x: ws.empty_set())
    assert level_function(outside, (-1, 0), (0,)).is_empty
    whole = OracleFunction(ws, 1, lambda x: ws.whole_space())
    assert level_function(whole, (-1, 0), (0,)).is_whole


def test_level_intersection_reconstructs_value(absdiag, ws):
    x = (F(3, 4),)
    pieces = [level_function(absdiag, z, x) for z in ws.directions]
    assert sup_family(ws, pieces) == absdiag.eval(x)


def test_inf_translation_finite_and_convex(absdiag, ws):
    assert inf_translation(absdiag, [(F(1, 2),)], (0,)) == absdiag.eval((F(1, 2),))
    finite = inf_translation(absdiag, [(-1,), (1,)], (0,))
    assert finite == inf_family(ws, [absdiag.eval((-1,)), absdiag.eval((1,))])
    hulled = inf_translation(absdiag, [(-1,), (1,)], (0,), convex=True)
    assert hulled == ws.cone_set()
    with pytest.raises(EmptyTranslationSet):
        inf_translation(absdiag, [], (0,))


def test_inf_translation_domain_lemma():
    f = heyde_a()
    M = [(1, 0), (0, 1)]
    fhat = inf_translate(f, M, convex=False)
    # dom fhat = union of shifted domains
    assert not fhat.eval((-1, 5)).is_empty  # (-1,5)+(1,0) has x1 = 0
    assert fhat.eval((-2, 0)).is_empty


def test_inf_translation_scalarization_commutes(absdiag, ws):
    M = [(-1,), (F(1, 2),)]
    fhat = inf_translate(absdiag, M, convex=False)
    for x in [(0,), (F(1, 4),)]:
        for z in ws.directions:
            direct = fhat.scalarize(z, x)
            expected = ext_min(
                absdiag.scalarize(z, (m[0] + x[0],)) for m in M
            )
            assert direct == expected


def test_convex_translation_matches_pointwise_hull(ws):
    from setlattice.calculus import segment_criticals

    rng = random.Random(4242)
    for _ in range(25):
        f = random_parampoly(rng, ws, 1, with_domain=False)
        M = [(-1,), (1,)]
        fhat = inf_translate(f, M, convex=True)
        for xv in (F(-1, 2), F(0), F(2, 3)):
            # the hull over co M is spanned by the values at the segment's
            # critical parameters (offsets are affine between them)
            lo, hi = (-1 + xv,), (1 + xv,)
            ts = [F(0), F(1)] + segment_criticals(f, lo, hi, ws.directions)
            samples = [f.eval((lo[0] + t * (hi[0] - lo[0]),)) for t in ts]
            expected = inf_family(ws, samples)
            assert fhat.eval((xv,)) == expected


def test_convexity_audit_random_parampoly():
    rng = random.Random(7)
    for _ in range(15):
        ws = random_workspace(rng)
        f = random_parampoly(rng, ws, 2)
        for _ in range(6):
            x1 = (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
            x2 = (F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2))
            t = F(rng.randint(1, 3), 4)
            xt = tuple(t * a + (1 - t) * b for a, b in zip(x1, x2))
            lhs = f.eval(xt)
            rhs = f.eval(x1).scale(t).add(f.eval(x2).scale(1 - t))
            assert lhs.leq(rhs)


def test_inf_translation_of_convex_is_convex(ws):
    rng = random.Random(11)
    f = random_parampoly(rng, ws, 1, with_domain=False)
    fhat = inf_translate(f, [(-1,), (0,), (2,)], convex=True)
    for _ in range(10):
        x1 = (F(rng.randint(-6, 6), 2),)
        x2 = (F(rng.randint(-6, 6), 2),)
        t = F(rng.randint(1, 3), 4)
        xt = (t * x1[0] + (1 - t) * x2[0],)
        assert fhat.eval(xt).leq(fhat.eval(x1).scale(t).add(fhat.eval(x2).scale(1 - t)))


def test_segment_restriction(absdiag, ws):
    g = absdiag.restrict((0,), (1,))
    assert g.eval((F(1, 2),)) == absdiag.eval((F(1, 2),))
    assert g.eval((F(3, 2),)).is_empty
    assert g.eval((F(-1, 4),)).is_empty
    h = heyde_a()
    seg = h.restrict((0, 0), (2, 2))
    assert seg.eval((F(1, 2),)) == h.eval((1, 1))


def test_recession_constant_along_segment_interior():
    rng = random.Random(13)
    for _ in range(10):
        ws = random_workspace(rng)
        f = random_parampoly(rng, ws, 2, with_domain=False)
        x0 = (F(0), F(0))
        x = (F(2), F(1))
        recs = []
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            xt = tuple(a + t * (b - a) for a, b in zip(x, x0))
            v = f.eval(xt)
            if not v.is_empty:
                recs.append(v.recession())
        if len(recs) >= 2:
            assert all(r == recs[0] for r in recs)
        ends = [f.eval(x), f.eval(x0)]
        if recs and all(not v.is_empty for v in ends):
            bound = inf_family(ws, [v.recession() for v in ends])
            assert recs[0].leq(bound)


def test_finite_inf_function_restrict(absdiag, ws):
    fhat = FiniteInfFunction([absdiag.shift_arg((m,)) for m in (-1, 1)])
    g = fhat.restrict((0,), (1,))
    expected = inf_family(
        ws, [absdiag.eval((F(-1, 2),)), absdiag.eval((F(3, 2),))]
    )
    assert g.eval((F(1, 2),)) == expected


def _composable(kind):
    """A function of x in R^2 of each constructor class, with a bounded domain."""
    ws = orthant_workspace()
    box = Polyhedron.box([(-2, 2), (-1, 3)])
    pp = ParamPolyFunction(
        ws,
        2,
        [(-1, 0), (0, -1), (-1, -1)],
        [
            ConcavePWL([((1, 0), 0), ((-1, 1), 1)]),
            ConcavePWL([((0, 1), F(1, 2)), ((2, -1), -1)]),
            ConcavePWL([((1, 1), 0), ((0, -1), 2)]),
        ],
        box,
        name="pp",
    )
    epi = EpiVectorFunction(
        ws,
        2,
        [ConvexPWL([((1, 0), 0), ((-1, 1), 1)]), ConvexPWL([((0, -1), 1), ((1, 1), F(-1, 3))])],
        Polyhedron.box([(-1, 3), (-2, 2)]),
        name="epi",
    )
    if kind == "parampoly":
        return pp
    if kind == "epivector":
        return epi
    if kind == "oracle":
        return OracleFunction(
            ws,
            2,
            lambda x: ws.translated_cone((x[0] * x[0], x[1] - x[0])) if box.contains(x)
            else ws.empty_set(),
            name="oracle",
        )
    return FiniteInfFunction([pp, epi], name="finf")


@pytest.mark.parametrize("kind", ["parampoly", "epivector", "oracle", "finite_inf"])
def test_compositions_match_direct_eval(kind):
    """restrict, ray_restrict and shift_arg agree with evaluating f itself at
    the composed argument, and are empty outside their parameter range."""
    f = _composable(kind)
    x0, x = (F(-1), F(1, 2)), (F(3), F(-1))
    u = (F(1, 2), F(1, 3))
    at = lambda p, t, d: tuple(a + t * b for a, b in zip(p, d))  # noqa: E731
    seg = f.restrict(x0, x)
    assert seg.xdim == 1
    diff = tuple(b - a for a, b in zip(x0, x))
    for t in (F(0), F(1, 5), F(1, 3), F(1, 2), F(3, 4), F(1)):
        assert seg.eval((t,)) == f.eval(at(x0, t, diff)), t
    for t in (F(-1, 2), F(-1, 100), F(101, 100), F(3, 2)):
        assert seg.eval((t,)).is_empty, t
    ray = f.ray_restrict(x0, u)
    assert ray.xdim == 1
    for t in (F(0), F(1, 3), F(1), F(5, 2), F(4), F(9)):
        assert ray.eval((t,)) == f.eval(at(x0, t, u)), t
    for t in (F(-1, 100), F(-2)):
        assert ray.eval((t,)).is_empty, t
    m = (F(1, 2), F(-1))
    shifted = f.shift_arg(m)
    assert shifted.xdim == 2
    for p in [(F(i, 2), F(j, 2)) for i in range(-6, 7, 2) for j in range(-4, 9, 3)]:
        assert shifted.eval(p) == f.eval(at(m, 1, p)), p


def test_non_primitive_normals_scale_their_offsets():
    """<n, z> <= b(x) means the same set whether or not n is primitive."""
    ws = orthant_workspace()
    normals = [(-2, 0), (0, Fraction(-1, 2))]
    offsets = [ConcavePWL([((1,), 1), ((-1,), 3)]), ConcavePWL([((Fraction(1, 3),), 0)])]
    f = ParamPolyFunction(ws, 1, normals, offsets)
    for x in (Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(5, 2)):
        raw = [(n, off.value((x,))) for n, off in zip(normals, offsets)]
        assert f.eval((x,)) == ws.upper_set(raw)
        if x >= 0:
            assert f.ray_restrict((0,), (1,)).eval((x,)) == f.eval((x,))


def test_hull_rows_need_one_or_two_dimensions():
    # integer rows: -2x <= 1 and x <= 2
    assert sorted(_hull_rows_of_points(1, [(Fraction(2),), (Fraction(-1, 2),)])) == [
        ((-2,), 1),
        ((1,), 2),
    ]
    with pytest.raises(LatticeError):
        _hull_rows_of_points(3, [(Fraction(0),) * 3, (Fraction(1),) * 3])
    # a translation point of the wrong arity is rejected, not truncated
    f = ParamPolyFunction(orthant_workspace(), 2, [(-1, 0)], [ConcavePWL([((0, 0), 0)])])
    with pytest.raises(LatticeError):
        inf_translate(f, [(0, 0, 5), (1, 1, 5)], convex=True)


@st.composite
def _integer_systems(draw):
    width = draw(st.integers(2, 3))
    coefs = st.tuples(*[st.integers(-2, 2)] * width)
    return draw(st.lists(st.tuples(coefs, st.integers(-3, 3)), min_size=1, max_size=5))


@settings(max_examples=150, deadline=None)
@given(_integer_systems())
@example([((1, 0), -1), ((-1, 0), -1)])  # x <= -1 and x >= 1: no solution
@example([((1, 1), 1), ((-2, 1), 0)])  # y/2 <= x <= 1 - y: y <= 2/3
@example([((0, 1), 1), ((0, 2), 3)])  # y <= 1 and 2y <= 3: y <= 1
def test_fourier_motzkin_step_projects_exactly(rows):
    """One elimination step against the interval it projects: y satisfies the
    rows left exactly when the x-interval [max lower, min upper] of the rows
    with c_0 != 0 is nonempty and every row with c_0 = 0 holds at y."""
    out = fourier_motzkin(rows, 1)
    grid = [F(k, 2) for k in range(-4, 5)]
    for y in product(grid, repeat=len(rows[0][0]) - 1):
        lower, upper, rest_hold = [], [], True
        for (c, *a), b in rows:
            slack = b - sum(map(mul, a, y))
            if c > 0:
                upper.append(slack / c)
            elif c < 0:
                lower.append(slack / c)
            else:
                rest_hold = rest_hold and slack >= 0
        solvable = rest_hold and (not lower or not upper or max(lower) <= min(upper))
        projected = out is not None and all(sum(map(mul, a, y)) <= b for a, b in out)
        assert projected == solvable, (rows, y, out)


def test_scalarize_reads_the_value_for_every_direction():
    """scalarize(z*, x) is inf{-<z*, z> : z in f(x)}, so -inf for z* outside
    C^- whenever f(x) is nonempty, for every constructor class."""
    ws = orthant_workspace()
    line = EpiVectorFunction(ws, 1, [ConvexPWL([((1,), 0)]), ConvexPWL([((-1,), 0)])])
    # psi(x) = (x, -x), z* = (1, 0) outside C^-: the set psi(1) + C is unbounded
    # along (1, 0), so the scalarization is -inf, not -<z*, psi(1)> = -1
    assert line.eval((1,)).neg_support((1, 0)).is_minus_inf
    assert line.scalarize((1, 0), (1,)).is_minus_inf
    box = Polyhedron.box([(-2, 2)])
    epi = EpiVectorFunction(
        ws, 1, [ConvexPWL([((1,), 0), ((-1,), 0)]), ConvexPWL([((1,), -1)])], box
    )
    pp = random_parampoly(random.Random(5), ws, 1, max_normals=3)
    functions = [
        line,
        epi,
        pp,
        FiniteInfFunction([epi, pp.shift_arg((1,))]),
        heyde_b(),
    ]
    inside = [(-1, 0), (0, -1), (-1, -1), (-1, -2)]
    outside = [(1, 0), (0, 1), (1, -1), (-1, 1), (1, 1)]
    for f in functions:
        for x in [(F(k, 2),) for k in range(-6, 7)]:
            for z in inside + outside:
                assert f.scalarize(z, x) == f.eval(x).neg_support(z), (f, x, z)


# ---------------------------------------------------------------------------
# Oracle: the integer rows of _PWL and the first rows of exact rays against
# the public Fraction path
# ---------------------------------------------------------------------------

grid = st.fractions(min_value=-3, max_value=3, max_denominator=4)
coef = st.one_of(st.integers(-3, 3), grid)
ARGUMENTS = {
    "int": st.integers(0, 4),
    "fraction": st.fractions(min_value=0, max_value=3, max_denominator=6),
    "negative": st.one_of(st.integers(-4, -1), st.fractions(min_value=-3, max_value=F(-1, 7))),
    "float": st.sampled_from([0.5, -1.25, 0.1, -3.0, 2.75, 1e-3]),
}
NON_PRIMITIVE = [(-2, 0), (0, F(-1, 2)), (-2, -4), (F(-3, 2), -3)]
NORMALS = [(-1, 0), (0, -1), (-1, -1)] + NON_PRIMITIVE
CONES = [[(1, 0), (0, 1)], [(1, 0), (1, 1)], [(1, 0)], [(1, 0), (0, 1), (-1, 0)]]


@st.composite
def pwl_pieces(draw, x, tied=False):
    """1-3 pieces in len(x) variables; tied adds a piece with another slope
    through the first piece's value at x."""
    xdim = len(x)
    pieces = draw(st.lists(st.tuples(st.tuples(*[coef] * xdim), grid), min_size=1, max_size=3))
    if tied:
        c, k = pieces[0]
        c2 = draw(st.tuples(*[coef] * xdim).filter(lambda c2: c2 != c))
        pieces.insert(draw(st.integers(0, len(pieces))), (c2, k + _frac_dot(c, x) - _frac_dot(c2, x)))
    return pieces


def _frac_dot(c, x):
    return sum((F(a) * F(b) for a, b in zip(c, x)), F(0))


@pytest.mark.parametrize("argument", sorted(ARGUMENTS))
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pwl_value_matches_its_fraction_pieces(argument, data):
    x = data.draw(st.tuples(*[ARGUMENTS[argument]] * data.draw(st.sampled_from([1, 2]))))
    kind = data.draw(st.sampled_from([ConcavePWL, ConvexPWL]))
    raw = data.draw(pwl_pieces(x, tied=data.draw(st.booleans())))
    pwl = kind(raw)
    assert pwl.pieces == tuple((tuple(map(F, c)), F(k)) for c, k in raw)
    best = min if kind is ConcavePWL else max
    want = best(_frac_dot(c, x) + F(k) for c, k in raw)
    assert pwl.value(x) == pwl.value(iter(x)) == want


def _first_by_hand(ray, pwls, best):
    """(values at 0, first slopes, t1) of the one-variable pieces of a ray
    function, in Fractions; None when its domain ends at 0."""
    ends = [r / a for (a,), r in ray.domain.rows if a > 0]
    if any(e <= 0 for e in ends):
        return None
    at0, slopes = [], []
    for pwl in pwls:
        a = best(k for _, k in pwl.pieces)
        b = best(s for (s,), k in pwl.pieces if k == a)
        at0.append(a)
        slopes.append(b)
        # a piece behind at 0 with a better slope takes over where they cross
        ends += [(k - a) / (b - s) for (s,), k in pwl.pieces if s != b and best(s, b) == s]
    return at0, slopes, min(ends, default=None)


@pytest.mark.parametrize("case", ["plain", "zero_u", "leaves", "tied"])
@pytest.mark.parametrize("kind", ["parampoly", "epivector"])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_first_rows_match_the_ray_restriction(kind, case, data):
    """f.first_rows(x, u) equals the first piece read from the Fraction
    pieces of f.ray_restrict(x, u), for non-primitive normals, u = 0, rays
    that leave the domain at once and pieces tied at x."""
    xdim = data.draw(st.sampled_from([1, 2]))
    x = data.draw(st.tuples(*[grid] * xdim))
    if case == "zero_u":
        u = (0,) * xdim
    else:
        u = data.draw(st.tuples(*[st.one_of(st.integers(-2, 2), grid)] * xdim))
    # slack 0 puts x on a domain row
    lean = st.tuples(st.tuples(*[st.integers(-2, 2)] * xdim), st.sampled_from([0, F(1, 2), 1, 3]))
    rows = [(a, _frac_dot(a, x) + slack) for a, slack in data.draw(st.lists(lean, max_size=3))]
    if case == "leaves" and any(u):
        rows.append((u, _frac_dot(u, x)))  # <u, u> > 0: the ray leaves at once
    domain = Polyhedron(xdim, rows)
    tied = case == "tied"
    if kind == "parampoly":
        ws = orthant_workspace()
        normals = [data.draw(st.sampled_from(NON_PRIMITIVE))]
        normals += data.draw(st.lists(st.sampled_from(NORMALS), max_size=2))
        offsets = [ConcavePWL(data.draw(pwl_pieces(x, tied))) for _ in normals]
        f = ParamPolyFunction(ws, xdim, normals, offsets, domain)
        ray = f.ray_restrict(x, u)
        ref = _first_by_hand(ray, ray.offsets, min)
        row_normals = f.normals
    else:
        ws = Workspace(2, data.draw(st.sampled_from(CONES)))
        f = EpiVectorFunction(ws, xdim, [ConvexPWL(data.draw(pwl_pieces(x, tied))) for _ in "yz"], domain)
        ray = f.ray_restrict(x, u)
        ref = _first_by_hand(ray, ray.components, max)
        row_normals = ws.cone.facet_normals
    got = f.first_rows(x, u)
    if ref is None:
        assert got is None
        assert case != "zero_u"
        return
    at0, slopes, t1 = ref
    if kind == "epivector":
        assert [F(s, got.den) for s in got.slopes] == slopes
        at0, slopes = ([_frac_dot(n, v) for n in row_normals] for v in (at0, slopes))
    assert got.normals == row_normals
    assert [F(a, got.den) for a in got.alpha] == at0
    assert [F(b, got.den) for b in got.beta] == slopes
    assert got.t1 == t1


# ---------------------------------------------------------------------------
# Oracle: exact evaluation, which builds its rows without the checks of
# Workspace.upper_set, against the checked path
# ---------------------------------------------------------------------------

EIGHT_CONES = {
    "orthant": (2, [(1, 0), (0, 1)]),
    "wedge": (2, [(1, 0), (1, 1)]),
    "ray": (2, [(1, -1)]),
    "zero-1d": (1, []),
    "zero-2d": (2, []),
    "line": (2, [(1, 0), (-1, 0)]),
    "half-plane": (2, [(1, 0), (0, 1), (-1, 0)]),
    "half-line": (1, [(1,)]),
}


def _domain_around(data, x, slacks):
    """A domain polyhedron of up to two rows, each at a slack from x."""
    lean = st.tuples(st.tuples(*[st.integers(-2, 2)] * len(x)), st.sampled_from(slacks))
    rows = data.draw(st.lists(lean, max_size=2))
    return Polyhedron(len(x), [(a, _frac_dot(a, x) + s) for a, s in rows])


@pytest.mark.parametrize("case", ["plain", "no_normals", "outside"])
@settings(max_examples=40, deadline=None)
@given(st.data())
def test_parampoly_eval_matches_the_checked_path(case, data):
    """f.eval(x) equals ws.upper_set of the raw normals and offset values, for
    non-primitive normals, no normals and x outside the domain."""
    xdim = data.draw(st.sampled_from([1, 2]))
    x = data.draw(st.tuples(*[grid] * xdim))
    normals = data.draw(st.lists(st.sampled_from(NORMALS), min_size=1, max_size=3))
    if case == "no_normals":
        normals = []
    offsets = [ConcavePWL(data.draw(pwl_pieces(x, data.draw(st.booleans())))) for _ in normals]
    domain = _domain_around(data, x, [0, F(1, 2), 2])
    if case == "outside":
        a = data.draw(st.tuples(*[st.integers(-2, 2)] * xdim).filter(any))
        domain = Polyhedron(xdim, domain.rows + ((a, _frac_dot(a, x) - F(1, 3)),))
    ws = orthant_workspace()
    f = ParamPolyFunction(ws, xdim, normals, offsets, domain)
    if case == "outside":
        want = ws.empty_set()
    else:
        want = ws.upper_set([(n, off.value(x)) for n, off in zip(normals, offsets)])
    assert f.eval(x) == want


@pytest.mark.parametrize("cone", sorted(EIGHT_CONES))
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_epivector_eval_matches_the_translated_cone(cone, data):
    """f.eval(x) equals ws.translated_cone(psi(x)) inside the domain and ∅ outside."""
    dim, gens = EIGHT_CONES[cone]
    ws = Workspace(dim, gens)
    xdim = data.draw(st.sampled_from([1, 2]))
    x = data.draw(st.tuples(*[grid] * xdim))
    comps = [ConvexPWL(data.draw(pwl_pieces(x, data.draw(st.booleans())))) for _ in range(dim)]
    domain = _domain_around(data, x, [-1, 0, 2])
    f = EpiVectorFunction(ws, xdim, comps, domain)
    want = ws.translated_cone(f.psi(x)) if domain.contains(x) else ws.empty_set()
    assert f.eval(x) == want


@pytest.mark.parametrize("cone", sorted(EIGHT_CONES))
@settings(max_examples=20, deadline=None)
@given(st.data())
def test_epivector_segment_criticals_are_crossings_and_domain_roots(cone, data):
    """Every row of psi(t) + C passes through psi(t), so the shape pass over
    the facet normals of C adds no root: the critical parameters of an
    epigraphical segment are where two pieces of a component cross or the
    segment meets a domain row, in Fractions from f's own pieces."""
    dim, gens = EIGHT_CONES[cone]
    ws = Workspace(dim, gens)
    xdim = data.draw(st.sampled_from([1, 2]))
    x0 = data.draw(st.tuples(*[grid] * xdim))
    x1 = data.draw(st.tuples(*[grid] * xdim))
    comps = [ConvexPWL(data.draw(pwl_pieces(x0, data.draw(st.booleans())))) for _ in range(dim)]
    domain = _domain_around(data, x0, [-1, 0, F(1, 2), 2])
    f = EpiVectorFunction(ws, xdim, comps, domain)
    normals = ws.cone.facet_normals
    # the facet normals and their pairwise sums, so that vertex swaps are probed
    directions = set(normals) | {tuple(map(sum, zip(m, n))) for m in normals for n in normals}
    u = tuple(b - a for a, b in zip(x0, x1))
    roots = set()
    for comp in comps:
        lines = [(k + _frac_dot(c, x0), _frac_dot(c, u)) for c, k in comp.pieces]
        for (p1, q1), (p2, q2) in combinations(lines, 2):
            if q1 != q2:
                roots.add((p2 - p1) / (q1 - q2))
    for a, r in domain.rows:
        if _frac_dot(a, u):
            roots.add((r - _frac_dot(a, x0)) / _frac_dot(a, u))
    want = sorted(t for t in roots if 0 < t < 1)
    assert segment_criticals(f, x0, x1, sorted(d for d in directions if any(d))) == want
