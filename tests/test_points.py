"""Integer points: the point records that key a set function's memos, integer
domain rows and membership, and the length checks of the lattice kernel,
each against a Fraction reference."""

import importlib.util
import random
from collections import Counter
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlattice.calculus import _level_set, scalar_dini, scalarized_derivative_intersection
from setlattice.extres import ExtReal
from setlattice.instances import (
    orthant_workspace,
    random_grid,
    random_parampoly,
    random_pwl_vector,
    random_workspace,
)
from setlattice.kernel import DirectionSet, LatticeError, Point, Workspace, _along, _int_dir
from setlattice.setfun import (
    _PWL,
    ConcavePWL,
    ConvexPWL,
    EpiVectorFunction,
    ParamPolyFunction,
    Polyhedron,
    inf_translate,
)
from setlattice.vectoropt import vector_minty_check
from setlattice.vi import (
    CandidateSpace,
    implication_audit,
    infimum_at_point_check,
    minimal_scan,
)

F = Fraction


def _dot(a, x):
    return sum((F(c) * F(v) for c, v in zip(a, x)), F(0))


# ---------------------------------------------------------------------------
# Length checks and ExtReal
# ---------------------------------------------------------------------------


def test_vectors_of_the_wrong_length_are_refused():
    """A longer vector would have its homogeneous weight or an extra
    coordinate read, a shorter one a coordinate dropped."""
    ws = orthant_workspace()
    a = ws.translated_cone((1, 2))
    calls = [
        lambda: a.support((-1, -1, 5)),
        lambda: a.support((-1,)),
        lambda: a.neg_support((-1, -1, 5)),
        lambda: a.contains_point((1, 2, -100)),
        lambda: a.contains_point((1,)),
        lambda: ws.empty_set().support((-1, -1, 5)),
        lambda: ws.empty_set().contains_point((1, 2, 3)),
        lambda: ws.cone.contains((1, 2, 3)),
        lambda: ws.cone.contains((1,)),
        lambda: ws.cone.in_dual((-1, -1, 7)),
        lambda: ws.cone.in_dual((-1,)),
        lambda: orthant_workspace(1).translated_cone((3,)).support((-1, 7)),
        lambda: Polyhedron(2, [((1, 0), 1)]).contains((0,)),
        lambda: Polyhedron(2, [((1, 0), 1)]).contains((0, 0, 5)),
    ]
    for call in calls:
        with pytest.raises(LatticeError):
            call()
    assert a.support((-1, -1)) == ExtReal(-3)
    assert ws.cone.in_dual((-1, F(-1, 2))) and not ws.cone.in_dual((1, -7))
    assert a.contains_point((1, 2)) and not a.contains_point((1, F(3, 2)))
    assert orthant_workspace(1).translated_cone((3,)).support((-1,)) == ExtReal(-3)


@pytest.mark.parametrize("raw", [3, -7, "3", "-7/4", "6/8", F(3), F(-7, 4), F(6, 8)])
def test_extreal_values_are_exact_fractions(raw):
    v = ExtReal(raw)
    assert type(v.value) is F and v.value == F(raw)
    assert v == ExtReal(F(raw)) == ExtReal(str(F(raw)))


def test_extreal_keeps_the_fraction_it_is_given():
    q = F(1, 3)
    assert ExtReal(q).value is q
    assert ExtReal(2) == ExtReal("2") == ExtReal(F(4, 2)) and ExtReal(2).value == 2
    assert (-ExtReal(q)).value == F(-1, 3) and ExtReal("1/3").value * 3 == 1


# ---------------------------------------------------------------------------
# Point records against the Fraction view
# ---------------------------------------------------------------------------

ints = st.integers(-3, 3)
fracs = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
floats = st.integers(-12, 12).map(lambda k: k / 4)  # exact binary fractions
coords = st.one_of(ints, fracs, floats)


def _writings(c):
    """Ways of writing the rational c: as a Fraction, str, int and float when exact."""
    q = F(c)
    out = [q, str(q), f"{3 * q.numerator}/{3 * q.denominator}"]  # the last not reduced
    if q.denominator == 1:
        out.append(int(q))
    if float(q) == q:
        out.append(float(q))
    return out


# integer rows, some not primitive, some with zero coefficients, and the empty row 0 <= -1
ROW_A = st.sampled_from([(1, 0), (0, 1), (-1, 0), (2, 4), (-3, 6), (0, 0), (1, -1), (-2, -2)])
ROW_R = st.sampled_from([-1, 0, 1, 3, F(1, 2), F(-5, 3), F(7, 4)])
NORMALS = [(-1, 0), (0, -1), (-2, 0), (-2, -2), (-1, -3)]
PIECE = st.tuples(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), fracs)


def _rows(data, xdim):
    rows = data.draw(st.lists(st.tuples(ROW_A, ROW_R), max_size=3))
    return [(a[:xdim], r) for a, r in rows]


def _parampoly(data, xdim, rows, pieces=st.lists(PIECE, min_size=1, max_size=2)):
    ws = orthant_workspace()
    normals = data.draw(st.lists(st.sampled_from(NORMALS), min_size=1, max_size=3, unique=True))
    raw = [[(c[:xdim], k) for c, k in data.draw(pieces)] for _ in normals]
    f = ParamPolyFunction(ws, xdim, normals, [ConcavePWL(p) for p in raw], Polyhedron(xdim, rows))
    return f, normals, raw


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_point_records_match_the_fraction_view(data):
    """One record per argument: equal rationals written differently share it,
    and its value, φ row and first rows equal the Fraction reference, inside
    and outside the domain."""
    xdim = data.draw(st.sampled_from([1, 2]))
    x = data.draw(st.tuples(*[coords] * xdim))
    rows = _rows(data, xdim)
    f, normals, raw = _parampoly(data, xdim, rows)
    ws = f.workspace
    p = f.point(x)
    assert all(type(c) is int for c in p.k) and p.d >= 1 and gcd(p.d, *p.k) == 1
    assert p.x == tuple(map(F, x))
    other = tuple(data.draw(st.sampled_from(_writings(c))) for c in x)
    assert f.point(other) is p and f.point(p) is p
    inside = all(_dot(a, x) <= F(r) for a, r in rows)
    assert f.domain.contains(x) == f.domain.contains(p) == inside
    if inside:
        offs = [min(_dot(c, x) + F(k) for c, k in pieces) for pieces in raw]
        want = ws.upper_set(list(zip(normals, offs)))
    else:
        want = ws.empty_set()
    assert f.value_at(p) == f.eval(other) == want
    for z in ws.directions:
        assert f.scalarize(z, other) == want.neg_support(z)
    assert p.phi == {z: want.neg_support(z) for z in ws.directions}
    u = data.draw(st.tuples(*[coords] * xdim))
    pu = Point(*_int_dir(u))
    assert f.first_rows(p, pu) == f.first_rows(tuple(map(F, x)), tuple(map(F, u)))
    t = data.draw(fracs)
    xt = _along(p, u, t)
    assert xt.x == tuple(F(a) + t * F(b) for a, b in zip(x, u))
    assert (xt.k, xt.d) == _int_dir(xt.x)


CONES = [[(1, 0), (0, 1)], [(1, 0), (1, 1)], [(1, 0), (-1, 0), (0, 1)], [(1, -1)]]


def _first_by_hand(f, x, u):
    """(psi(x), first slopes, t1) of the ray t -> psi(x + t u) from the Fraction
    pieces of its ray restriction; None when it leaves the domain at once."""
    ray = f.ray_restrict(x, u)
    ends = [r / a for (a,), r in ray.domain.rows if a > 0]
    if any(e <= 0 for e in ends):
        return None
    at0, slopes = [], []
    for pwl in ray.components:
        a = max(k for _, k in pwl.pieces)
        b = max(s for (s,), k in pwl.pieces if k == a)
        at0.append(a)
        slopes.append(b)
        # a piece behind at 0 with a steeper slope takes over where they cross
        ends += [(k - a) / (b - s) for (s,), k in pwl.pieces if s > b]
    return at0, slopes, min(ends, default=None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_epivector_records_match_the_fraction_view(data):
    """psi, f(x) = psi(x) + C and the first rows of an exact vector function
    read one record per argument, whatever the writing of x, and equal the
    Fraction reference: psi is the components' value (None outside the
    domain) and the first rows are those of the Fraction ray restriction."""
    xdim = data.draw(st.sampled_from([1, 2]))
    x = data.draw(st.tuples(*[coords] * xdim))
    rows = _rows(data, xdim)
    ws = Workspace(2, data.draw(st.sampled_from(CONES)))
    # piece constants written as strings over a common factor, not reduced
    comps = st.lists(st.lists(PIECE, min_size=1, max_size=3), min_size=2, max_size=2)
    raw = [
        [(c[:xdim], f"{3 * F(k).numerator}/{3 * F(k).denominator}") for c, k in pieces]
        for pieces in data.draw(comps)
    ]
    f = EpiVectorFunction(ws, xdim, [ConvexPWL(r) for r in raw], Polyhedron(xdim, rows))
    p = f.point(x)
    other = tuple(data.draw(st.sampled_from(_writings(c))) for c in x)
    assert f.point(other) is p
    inside = all(_dot(a, x) <= F(r) for a, r in rows)
    want = tuple(max(_dot(c, x) + F(k) for c, k in pieces) for pieces in raw)
    assert want == tuple(comp.value(x) for comp in f.components)
    assert f.psi(other) == f.psi(p) == (want if inside else None)
    assert f.psi_at(p) == (_int_dir(want) if inside else None)
    assert f.domain_contains(other) == inside
    value = ws.translated_cone(want) if inside else ws.empty_set()
    assert f.value_at(p) == f.eval(other) == value
    u = data.draw(st.tuples(*[coords] * xdim))
    got = f.first_rows(other, u)
    ref = _first_by_hand(f, tuple(map(F, x)), tuple(map(F, u)))
    if ref is None:
        assert got is None
        return
    at0, slopes, t1 = ref
    assert at0 == list(want) and got.t1 == t1
    assert [F(s, got.den) for s in got.slopes] == slopes
    assert got.normals == ws.cone.facet_normals
    assert [F(a, got.den) for a in got.alpha] == [_dot(n, at0) for n in got.normals]
    assert [F(b, got.den) for b in got.beta] == [_dot(n, slopes) for n in got.normals]


def test_each_segment_point_evaluates_the_pieces_once(monkeypatch):
    """A vector Minty check reads psi, f(x) and the Minty ray at each segment
    point from one evaluation of psi's components, kept in f's record."""
    rng = random.Random(23)
    psi = random_pwl_vector(rng, orthant_workspace(), 1, max_pieces=3)
    grid = random_grid(rng, 1, 5)
    first = psi.components[0]
    calls = Counter()
    at = _PWL.at

    def counting(pwl, k, d):
        if pwl is first:
            calls[k, d] += 1
        return at(pwl, k, d)

    monkeypatch.setattr(_PWL, "at", counting)
    rep = vector_minty_check(psi, grid[0], grid, psi.workspace.directions)
    assert rep["exact"] and len(calls) > 2 * len(grid)
    assert set(calls.values()) == {1}, calls


def _tracer():
    """perfbench/tracer.py, imported by path and only read."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_points_compare_by_integer_form():
    """Two Point objects of one (k, d) are equal and hash alike, so a tracer
    counts one ray reached through both once; a Point never equals a tuple."""
    x, u = _along((F(1, 2),), (F(1),), F(1, 4)), _along((F(3, 4),), (F(-1),), 0)
    assert x is not u and x == u and hash(x) == hash(u) and (x.k, x.d) == ((3,), 4)
    assert x != _along((F(1, 2),), (F(1),), F(1, 8)) and len({x, u, Point((3,), 4)}) == 1
    assert x != x.k and x != tuple(x) and x != (x.k, x.d) and x not in {tuple(x): 0}
    freeze = _tracer()._freeze
    assert freeze(((1, 0), x, Point((1,), 1))) == freeze(((1, 0), u, Point((1,), 1)))
    assert len({freeze((x, u)), freeze((u, x)), freeze((Point((3,), 4), u))}) == 1


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_first_rows_domain_ends_match_fractions(data):
    """With one piece per offset there is no bend, so t1 is the least domain
    end (r - <a, x>)/<a, u> over the rows with <a, u> > 0, and a ray whose
    end is at or below 0 leaves the domain at once."""
    xdim = data.draw(st.sampled_from([1, 2]))
    x = data.draw(st.tuples(*[coords] * xdim))
    u = data.draw(st.tuples(*[coords] * xdim))
    rows = _rows(data, xdim)
    f, _, _ = _parampoly(data, xdim, rows, st.lists(PIECE, min_size=1, max_size=1))
    ends = [(F(r) - _dot(a, x)) / _dot(a, u) for a, r in rows if _dot(a, u) > 0]
    got = f.first_rows(x, u)
    if ends and min(ends) <= 0:
        assert got is None
    else:
        assert got.t1 == min(ends, default=None)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_integer_polyhedron_matches_fractions(data):
    """contains, the Fraction view rows and compose of the integer rows
    against the rows as given."""
    xdim = data.draw(st.sampled_from([1, 2]))
    rows = _rows(data, xdim) + data.draw(st.sampled_from([[], [((0,) * xdim, -1)]]))
    poly = Polyhedron(xdim, rows)
    assert poly.rows == tuple((tuple(map(F, a)), F(r)) for a, r in rows)
    x = data.draw(st.tuples(*[coords] * xdim))
    assert poly.contains(x) == all(_dot(a, x) <= F(r) for a, r in rows)
    base = data.draw(st.tuples(*[coords] * xdim))
    cols = data.draw(st.lists(st.tuples(*[coords] * xdim), min_size=1, max_size=2))
    extra = [(data.draw(st.tuples(*[ints] * len(cols))), data.draw(ROW_R))]
    got = poly.compose(base, cols, extra)
    want = [(tuple(_dot(a, c) for c in cols), F(r) - _dot(a, base)) for a, r in rows]
    want += [(tuple(map(F, a)), F(r)) for a, r in extra]
    assert got.dim == len(cols) and got.rows == tuple(want)
    y = data.draw(st.tuples(*[fracs] * len(cols)))
    at = tuple(F(b) + sum(yj * F(c[i]) for yj, c in zip(y, cols)) for i, b in enumerate(base))
    assert got.contains(y) == (poly.contains(at) and all(_dot(a, y) <= F(r) for a, r in extra))


# ---------------------------------------------------------------------------
# Memo keys
# ---------------------------------------------------------------------------


def _only_ints(key) -> bool:
    if isinstance(key, tuple):
        return all(map(_only_ints, key))
    return type(key) is int


def _audited(seed: int):
    """Functions after audits shaped as the benchmark's: a ParamPoly audit,
    an epigraphical audit with a vector Minty check, and the minimality and
    infimum oracles of a finite inf-translation."""
    rng = random.Random(seed)
    ws = random_workspace(rng)
    xdim = rng.choice([1, 2])
    f = random_parampoly(rng, ws, xdim, max_normals=2, max_pieces=2)
    grid = random_grid(rng, xdim, 4)
    base = next(x for x in grid if not f.eval(x).is_empty)
    implication_audit(f, base, CandidateSpace.of(grid, base=base), ws.directions)
    psi = random_pwl_vector(rng, orthant_workspace(), 1, max_pieces=2)
    vgrid = random_grid(rng, 1, 4)
    space = CandidateSpace.of(vgrid)
    implication_audit(psi, vgrid[0], space, psi.workspace.directions)
    vector_minty_check(psi, vgrid[0], vgrid, psi.workspace.directions)
    assert len(grid) >= 2
    g = inf_translate(f, grid[:2])
    bases = [x for x in grid if not g.eval(x).is_empty]
    minimal_scan(g, bases, CandidateSpace.of(grid), ws.directions)
    if bases:
        infimum_at_point_check(g, bases[0], CandidateSpace.of(grid), ws.directions)
    return [f, psi, g, *g.members]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_memo_keys_hold_only_ints(seed):
    """Every key of a function's point and ray memos holds ints only, so no
    memo lookup hashes a Fraction."""
    funcs = _audited(seed)
    for f in funcs:
        assert f._cache and all(map(_only_ints, f._cache)), f
        assert all(map(_only_ints, f._rays)), f
        for key, p in f._cache.items():
            assert key == (p.k, p.d)
    assert funcs[0]._rays and funcs[1]._rays


# ---------------------------------------------------------------------------
# Level sets over checked and caller-given directions
# ---------------------------------------------------------------------------


def test_level_set_reads_checked_directions_as_facets():
    """Over a DirectionSet of f's cone the level set is built from facets;
    the same Dini values over a list go through Workspace.upper_set."""
    ws = orthant_workspace()
    f = ParamPolyFunction(ws, 1, [(-1, 0), (0, -1)], [ConcavePWL([((1,), 0), ((-1,), 0)])] * 2)
    x, u = (F(1, 2),), (-1,)
    dinis = [scalar_dini(f, z, x, u) for z in ws.directions]
    assert _level_set(f, ws.directions, dinis) == _level_set(f, list(ws.directions), dinis)
    # non-primitive caller-given directions are made primitive by upper_set
    scaled = [(-2, 0), (0, -4), (-3, -3)]
    got = scalarized_derivative_intersection(f, x, u, scaled)
    assert got == scalarized_derivative_intersection(f, x, u, DirectionSet(ws.cone, scaled))
    with pytest.raises(LatticeError):
        scalarized_derivative_intersection(f, x, u, [(-1, 0, 0)])
