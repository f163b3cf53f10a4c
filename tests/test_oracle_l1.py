"""Independent oracles for the L1 lattice kernel.

The support oracle works from the raw constraint rows a set was built from,
never from its canonical form: it enumerates every pairwise crossing of the
rows and every row's foot point by brute force in Fractions, keeps the
feasible ones, and tests recession directions row by row.  The residual
oracle builds A ÷ B in Fractions from A's constraints and B's generators.
Membership (in A, in A ÷ B and in ``sup_family``), the support of
``inf_family`` and the rebuilding of A from its support function on a fan
of directions are checked against the raw rows too, and so is the set the
oracle's own generators build.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from setlattice.extres import MINUS_INF, PLUS_INF, ExtReal, ext_max
from setlattice.kernel import UpperSet, Workspace, _dot, _primitive_dir, inf_family, sup_family

# The trivial cone C = {0} admits every normal, so raw systems can be any
# polyhedron: points, segments, lines, half-planes, strips, wedges.
FREE = {1: Workspace(1, []), 2: Workspace(2, [])}
ORTHANT = Workspace(2, [(1, 0), (0, 1)])

small = st.integers(-3, 3)
offsets = st.fractions(min_value=-6, max_value=6, max_denominator=4)
normals2 = st.tuples(small, small).filter(lambda n: n != (0, 0))


@st.composite
def raw_rows(draw, dim):
    """A raw constraint system with redundant and parallel rows mixed in."""
    if dim == 1:
        normals1 = st.sampled_from([(1,), (-1,), (2,), (-3,)])
        return draw(st.lists(st.tuples(normals1, offsets), max_size=4))
    kinds = st.sampled_from(["row", "line", "point", "parallel", "redundant"])
    rows = []
    for kind in draw(st.lists(kinds, max_size=4)):
        n, b = draw(normals2), draw(offsets)
        if kind == "row":
            rows.append((n, b))
        elif kind == "line":
            rows += [(n, b), ((-n[0], -n[1]), -b)]
        elif kind == "point":
            x, y = draw(offsets), draw(offsets)
            rows += [((1, 0), x), ((-1, 0), -x), ((0, 1), y), ((0, -1), -y)]
        elif kind == "parallel":
            k = draw(st.integers(1, 3))
            rows += [(n, b), ((k * n[0], k * n[1]), k * b + draw(offsets))]
        else:
            rows += [(n, b), (n, b + draw(st.fractions(min_value=0, max_value=3)))]
    return rows


def _frac_dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def _feasible(rows, z):
    return all(_frac_dot(n, z) <= b for n, b in rows)


def _candidates(dim, rows):
    """Every point that can be a support maximiser of the raw system."""
    out = [(Fraction(0),) * dim]
    for n, b in rows:
        nn = _frac_dot(n, n)
        out.append(tuple(Fraction(c) * b / nn for c in n))
    if dim == 2:
        for (n, b), (m, c) in combinations(rows, 2):
            det = n[0] * m[1] - n[1] * m[0]
            if det:
                out.append((Fraction(b * m[1] - c * n[1], det), Fraction(n[0] * c - m[0] * b, det)))
    return [z for z in out if _feasible(rows, z)]


def _recession_candidates(dim, rows):
    """Generators of the recession cone {r : <n, r> <= 0 for every row}."""
    if dim == 1:
        cands = [(1,), (-1,)]
    else:
        cands = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        for n, _ in rows:
            cands += [(-n[1], n[0]), (n[1], -n[0]), (-n[0], -n[1])]
    return [r for r in cands if all(_frac_dot(n, r) <= 0 for n, _ in rows)]


def oracle_support(dim, rows, d) -> ExtReal:
    return support_of(_candidates(dim, rows), _recession_candidates(dim, rows), d)


def support_of(points, recession, d) -> ExtReal:
    """sup <d, z> over the oracle's feasible points and recession directions."""
    if not points:
        return MINUS_INF
    if any(_frac_dot(d, r) > 0 for r in recession):
        return PLUS_INF
    return ExtReal(max(_frac_dot(d, z) for z in points))


def vertex_support(u, d) -> ExtReal:
    """sup <d, z> over conv(vertices) + cone(rays), in Fractions from scratch."""
    if u.is_empty:
        return MINUS_INF
    if any(_frac_dot(d, r) > 0 for r in u.rayset):
        return PLUS_INF
    return ExtReal(max(_frac_dot(d, v) for v in u.vertices))


def directions(dim):
    """Primitive, non-primitive and Fraction-entry directions."""
    ints = st.tuples(*[small] * dim)
    scaled = st.tuples(ints, st.integers(2, 4)).map(lambda t: tuple(t[1] * c for c in t[0]))
    fracs = st.tuples(*[st.fractions(min_value=-3, max_value=3, max_denominator=5)] * dim)
    return st.one_of(ints, scaled, fracs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_support_matches_raw_row_oracle(data):
    dim = data.draw(st.sampled_from([1, 2]))
    rows = data.draw(raw_rows(dim))
    d = data.draw(directions(dim))
    u = FREE[dim].upper_set(rows)
    assert u.support(d) == oracle_support(dim, rows, d)
    assert u.support(d) == vertex_support(u, d)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_support_in_a_pointed_cone_workspace(data):
    # normals in C^- = the closed negative orthant; the set is an upper set
    n = st.tuples(st.integers(-3, 0), st.integers(-3, 0)).filter(lambda v: v != (0, 0))
    rows = data.draw(st.lists(st.tuples(n, offsets), min_size=1, max_size=5))
    d = data.draw(directions(2))
    u = ORTHANT.upper_set(rows)
    assert u.support(d) == oracle_support(2, rows, d)
    assert u.support(d) == vertex_support(u, d)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_one_enumeration_is_the_canonical_one(data):
    """The pass from the raw rows, the pass from the canonical facets and the
    pass from the generators give one canonical set."""
    dim = data.draw(st.sampled_from([1, 2]))
    u = FREE[dim].upper_set(data.draw(raw_rows(dim)))
    if u.is_empty:
        return
    geom = u.workspace.geom
    canon = (list(u.facets), list(u.points), list(u.rayset))
    assert geom.vrep_from_hrep(list(u.facets)) == canon
    assert geom.hrep_from_vrep(u.points, u.rayset) == canon


# one workspace per cone kind: C = {0}, a half-line, a pointed wedge, a ray,
# a line and a half-plane
CONES = [
    Workspace(1, []),
    Workspace(1, [(1,)]),
    Workspace(1, [(-1,)]),
    Workspace(2, []),
    ORTHANT,
    Workspace(2, [(2, -1), (-1, 3)]),
    Workspace(2, [(1, 1)]),
    Workspace(2, [(1, -1), (-1, 1)]),
    Workspace(2, [(0, 1), (1, 0), (-1, 0)]),
]


@st.composite
def upper_sets(draw, ws):
    """∅, the whole space, or raw rows whose normals are nonnegative and
    non-primitive combinations of the facet normals of C, so they lie in C^-."""
    kind = draw(st.sampled_from(["rows", "rows", "rows", "empty", "whole"]))
    if kind == "empty":
        return ws.empty_set()
    if kind == "whole":
        return ws.whole_space()
    if not ws.cone.generators:
        return ws.upper_set(draw(raw_rows(ws.dim)))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        weights = [draw(st.integers(0, 3)) for _ in ws.cone.facet_normals]
        n = [sum(w * c[i] for w, c in zip(weights, ws.cone.facet_normals)) for i in range(ws.dim)]
        if any(n):
            rows.append((tuple(n), draw(offsets)))
    return ws.upper_set(rows)


def residual_oracle(a, b):
    """A ÷ B = {z : <n, z> <= c - σ(n | B)} over the constraints (n, c) of A,
    with σ read off B's vertices and rays in Fractions."""
    ws = a.workspace
    if b.is_empty:
        return ws.whole_space()
    if a.is_empty:
        return ws.empty_set()
    rows = []
    for n, c in a.constraints:
        s = vertex_support(b, n)
        if s.is_plus_inf:
            return ws.empty_set()
        rows.append((n, c - s.value))
    return ws.upper_set(rows)


def contained(b, a) -> bool:
    """B ⊆ A, that is 0 ∈ A ÷ B: B's vertices meet A's rows, and its rays
    point into A's recession cone."""
    if b.is_empty:
        return True
    if a.is_empty:
        return False
    return all(
        all(_frac_dot(n, v) <= c for v in b.vertices) and all(_frac_dot(n, r) <= 0 for r in b.rayset)
        for n, c in a.constraints
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_residual_raw_rows_match_the_oracle(data):
    """The raw rows of A ÷ B build the canonical residual, and 0 ∈ A ÷ B read
    off them is the canonical membership and B ⊆ A."""
    ws = data.draw(st.sampled_from(CONES))
    a = data.draw(upper_sets(ws))
    b = data.draw(
        st.one_of(
            upper_sets(ws),
            st.just(a),
            upper_sets(ws).map(lambda c: sup_family(ws, [a, c])),  # B ⊆ A, often touching
        )
    )
    q = a.residual(b)
    assert q == residual_oracle(a, b)
    origin = (Fraction(0),) * ws.dim
    assert a.residual_contains_origin(b) == q.contains_point(origin) == contained(b, a)
    if not (a.is_empty or b.is_empty):
        rows = a._residual_rows(b)
        assert q.is_empty if rows is None else UpperSet(ws, rows) == q


# ---------------------------------------------------------------------------
# Membership, the lattice families and the support function, from raw rows
# ---------------------------------------------------------------------------

EPS = Fraction(1, 7)


@st.composite
def probes(draw, dim, systems):
    """The oracle's candidate points of each system, each nudged by ±1/7
    along every axis, and a few random points."""
    base = [z for rows in systems for z in _candidates(dim, rows)]
    base += draw(st.lists(st.tuples(*[offsets] * dim), max_size=3))
    out = []
    for z in base:
        out.append(z)
        for i in range(dim):
            out += [z[:i] + (z[i] + e,) + z[i + 1 :] for e in (EPS, -EPS)]
    return out


def fan(dim, rows):
    """Every primitive direction with coordinates in [-3, 3], and the rows'
    normals, so the halfspaces of the fan cut out the set exactly."""
    if dim == 1:
        return [(1,), (-1,)]
    grid = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if gcd(a, b) == 1]
    return grid + [n for n, _ in rows]


def residual_rows(dim, rows_a, rows_b):
    """A ÷ B = {z : B + z ⊆ A} as rows <n, z> <= c - σ(n | B) over the raw
    rows (n, c) of A, with σ from B's raw rows; [] for the whole space and
    None for ∅."""
    points_b, recession_b = _candidates(dim, rows_b), _recession_candidates(dim, rows_b)
    if not points_b:
        return []
    if not _candidates(dim, rows_a):
        return None
    out = []
    for n, c in rows_a:
        s = support_of(points_b, recession_b, n)
        if s.is_plus_inf:
            return None
        out.append((n, c - s.value))
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_membership_matches_the_rows(data):
    """contains_point on A and on A ÷ B against the raw rows of A and B."""
    dim = data.draw(st.sampled_from([1, 2]))
    rows_a, rows_b = data.draw(raw_rows(dim)), data.draw(raw_rows(dim))
    a, b = FREE[dim].upper_set(rows_a), FREE[dim].upper_set(rows_b)
    q, rows_q = a.residual(b), residual_rows(dim, rows_a, rows_b)
    for z in data.draw(probes(dim, [rows_a, rows_b])):
        assert a.contains_point(z) == _feasible(rows_a, z), z
        assert q.contains_point(z) == (rows_q is not None and _feasible(rows_q, z)), z


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_families_match_the_rows(data):
    """z ∈ sup_family exactly when z meets every member's raw rows, and the
    support of inf_family is the largest of the members' oracle supports."""
    dim = data.draw(st.sampled_from([1, 2]))
    systems = data.draw(st.lists(raw_rows(dim), min_size=1, max_size=3))
    sets = [FREE[dim].upper_set(rows) for rows in systems]
    meet = sup_family(FREE[dim], sets)
    for z in data.draw(probes(dim, systems)):
        assert meet.contains_point(z) == all(_feasible(rows, z) for rows in systems), z
    hull = inf_family(FREE[dim], sets)
    gens = [(_candidates(dim, rows), _recession_candidates(dim, rows)) for rows in systems]
    for d in fan(dim, [row for rows in systems for row in rows]):
        assert hull.support(d) == ext_max(support_of(p, r, d) for p, r in gens), d


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_support_on_a_fan_rebuilds_the_set(data):
    """A = ∩ {z : <z*, z> <= σ(z* | A)} over a fan that holds the rows'
    normals, tested at points around the raw rows' candidates."""
    dim = data.draw(st.sampled_from([1, 2]))
    rows = data.draw(raw_rows(dim))
    u = FREE[dim].upper_set(rows)
    sigma = [(d, u.support(d)) for d in fan(dim, rows)]
    for z in data.draw(probes(dim, [rows])):
        inside = all(not s < ExtReal(_frac_dot(d, z)) for d, s in sigma)
        assert inside == _feasible(rows, z), z


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_rows_and_their_oracle_generators_build_one_set(data):
    """The set of the raw rows equals the set the oracle's feasible points
    and recession directions generate, facet for facet."""
    dim = data.draw(st.sampled_from([1, 2]))
    rows = data.draw(raw_rows(dim))
    ws = FREE[dim]
    points = _candidates(dim, rows)
    rays = [_primitive_dir(r) for r in _recession_candidates(dim, rows)]
    built = UpperSet._from_generators(ws, [ws.geom.point(z) for z in points], rays)
    assert built == ws.upper_set(rows)
    assert (built.points, built.rayset) == (ws.upper_set(rows).points, ws.upper_set(rows).rayset)


exact_numbers = st.one_of(
    st.integers(-10**30, 10**30),
    st.fractions(max_denominator=10**6),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(st.lists(st.tuples(exact_numbers, exact_numbers), max_size=3))
def test_dot_is_exact_with_fraction_and_float_operands(pairs):
    u = [a for a, _ in pairs]
    v = [b for _, b in pairs]
    expected = sum((Fraction(a) * Fraction(b) for a, b in pairs), Fraction(0))
    got = _dot(u, v)
    assert type(got) is Fraction
    assert got == expected


def test_dot_examples():
    assert _dot((Fraction(1, 3), 0.1), (3, 10)) == 1 + Fraction(0.1) * 10
    assert _dot((0.1,), (0.2,)) == Fraction(0.1) * Fraction(0.2) != Fraction(0.1 * 0.2)
    assert _dot((0.5,), (10**400,)) == Fraction(10**400, 2)
