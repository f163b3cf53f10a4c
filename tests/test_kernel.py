from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlattice import (
    MINUS_INF,
    PLUS_INF,
    NormalOutsideDualCone,
    Workspace,
    _geom1,
    _geom_py,
    inf_family,
    sup_family,
)
from setlattice.extres import residual as ext_residual
from setlattice.kernel import OrderCone, _int_dir


@pytest.fixture
def orthant():
    return Workspace(2, [(1, 0), (0, 1)], [(-1, 0), (0, -1), (-1, -1)])


@pytest.fixture
def ray_cone():
    # C = cl cone (0,1)^T, the ordering cone of the scalarization-gap example
    return Workspace(2, [(0, 1)])


def test_canonicalize_drops_redundant(orthant):
    s = orthant.upper_set([((-1, 0), -1), ((-1, 0), 0), ((0, -1), -2)])
    assert s.constraints == (((-1, 0), Fraction(-1)), ((0, -1), Fraction(-2)))
    assert s.vertices == ((Fraction(1), Fraction(2)),)
    assert set(s.rayset) == {(1, 0), (0, 1)}


def test_canonicalize_detects_empty(ray_cone):
    s = ray_cone.upper_set([((1, 0), -1), ((-1, 0), -1)])
    assert s.is_empty


def test_no_constraints_is_whole_space(orthant):
    assert orthant.upper_set([]).is_whole


def test_normal_outside_dual_cone_rejected(orthant):
    with pytest.raises(NormalOutsideDualCone):
        orthant.upper_set([((1, 0), 3)])


def test_leq_examples(orthant):
    C = orthant.cone_set()
    a = orthant.translated_cone((1, 2))
    assert C.leq(a)
    assert not a.leq(C)
    assert a.leq(orthant.empty_set())
    p = orthant.translated_cone((1, 0))
    q = orthant.translated_cone((0, 1))
    assert not p.leq(q) and not q.leq(p)


def test_inf_family(orthant):
    a = orthant.translated_cone((1, 0))
    b = orthant.translated_cone((0, 1))
    hull = inf_family(orthant, [a, b])
    expected = orthant.upper_set([((-1, 0), 0), ((0, -1), 0), ((-1, -1), -1)])
    assert hull == expected
    assert inf_family(orthant, [a]) == a
    assert inf_family(orthant, []).is_empty


def test_sup_family(orthant):
    a = orthant.translated_cone((1, 0))
    b = orthant.translated_cone((0, 1))
    assert sup_family(orthant, [a, b]) == orthant.translated_cone((1, 1))
    assert sup_family(orthant, [a, orthant.empty_set()]).is_empty
    assert sup_family(orthant, []).is_whole


def test_add(orthant):
    a = orthant.translated_cone((1, 2))
    assert a.add(orthant.cone_set()) == a
    assert a.add(orthant.empty_set()).is_empty
    assert orthant.translated_cone((1, 0)).add(
        orthant.translated_cone((0, 1))
    ) == orthant.translated_cone((1, 1))


def test_scale(orthant):
    a = orthant.translated_cone((1, 2))
    assert a.scale(2) == orthant.translated_cone((2, 4))
    assert orthant.empty_set().scale(0) == orthant.cone_set()
    assert orthant.whole_space().scale(0) == orthant.cone_set()
    assert a.scale(1) == a
    with pytest.raises(Exception):
        a.scale(-1)


def test_residual_examples(orthant, ray_cone):
    a = orthant.translated_cone((1, 2))
    assert a.residual(orthant.cone_set()) == a
    assert a.residual(a) == orthant.cone_set()  # A ÷ A = 0+A
    # the scalarization-gap instance: A ÷ B = ∅ with finite scalar residuals
    A = ray_cone.cone_set()
    B = ray_cone.upper_set([((1, 0), 1), ((-1, 0), 1), ((0, -1), 0)])
    assert A.residual(B).is_empty
    values = {
        z: ext_residual(A.neg_support(z), B.neg_support(z))
        for z in [(1, 0), (-1, 0), (0, -1)]
    }
    assert values[(1, 0)].value == 1
    assert values[(-1, 0)].value == 1
    assert values[(0, -1)].value == 0
    # residuation against the empty / whole elements
    assert a.residual(orthant.empty_set()).is_whole
    assert orthant.empty_set().residual(a).is_empty
    assert orthant.whole_space().residual(a).is_whole


def test_recession(orthant):
    a = orthant.translated_cone((1, 2))
    assert a.recession() == orthant.cone_set()
    assert orthant.empty_set().recession().is_empty
    assert orthant.whole_space().recession().is_whole


def test_support(orthant, ray_cone):
    C = ray_cone.cone_set()
    assert C.support((-1, 0)) == Fraction(0)
    assert ray_cone.empty_set().support((-1, 0)) == MINUS_INF
    assert ray_cone.whole_space().support((-1, 0)) == PLUS_INF
    a = orthant.translated_cone((1, 2))
    assert a.neg_support((-1, -1)).value == 3


def test_support_reads_an_iterator_direction_once(orthant):
    """A direction given as an iterator gives what its tuple gives."""
    a = orthant.translated_cone((1, 2))
    z = (Fraction(-1, 2), -1)
    assert a.support(c for c in z) == a.support(z) == Fraction(-5, 2)
    assert _int_dir(iter([1, Fraction(1, 2), 3])) == ((2, 1, 6), 2)


def test_contains_point(orthant):
    a = orthant.translated_cone((1, 2))
    assert a.contains_point((1, 2))
    assert a.contains_point((Fraction(3, 2), 5))
    assert not a.contains_point((0, 5))
    assert not orthant.empty_set().contains_point((0, 0))


def test_workspace_one_dimensional():
    w = Workspace(1, [(1,)])
    a = w.translated_cone((Fraction(3, 2),))
    assert a.vertices == ((Fraction(3, 2),),)
    assert a.rayset == ((1,),)
    assert a.residual(w.cone_set()) == a
    zero_cone = Workspace(1, [])
    i1 = zero_cone.upper_set([((1,), 1), ((-1,), 1)])
    i2 = zero_cone.upper_set([((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))])
    assert i2.residual(i1).is_empty
    assert i1.residual(i2) == zero_cone.upper_set(
        [((1,), Fraction(1, 2)), ((-1,), Fraction(1, 2))]
    )


def test_json_round_trip(orthant):
    a = orthant.upper_set([((-1, 0), Fraction(-1, 2)), ((0, -1), -2), ((-1, -2), -3)])
    doc = a.to_json()
    assert orthant.from_json(doc) == a
    assert orthant.from_json(orthant.empty_set().to_json()).is_empty


def test_halfplane_and_line_sets(orthant):
    h = orthant.upper_set([((-1, -1), -1)])
    assert len(h.constraints) == 1
    assert h.contains_point((2, -1))
    assert not h.contains_point((0, 0))
    line_ws = Workspace(2, [(1, 0), (-1, 0)])  # C = the x-axis line
    s = line_ws.upper_set([((0, -1), -1)])
    assert s.contains_point((100, 2))
    rec = s.recession()
    assert rec.contains_point((5, 0)) and rec.contains_point((-5, 0))


def test_big_integer_exactness():
    """Huge coordinates stay exact through the geometry core."""
    big = 10**40
    facets = [
        _geom_py.reduce_facet(-1, 0, -big, 1),
        _geom_py.reduce_facet(0, -1, -(big + 1), 3),
    ]
    canon, pts, rays = _geom_py.vrep_from_hrep(facets)
    assert canon == sorted(facets)
    assert pts == [_geom_py.reduce_point(3 * big, big + 1, 3)]
    assert _geom_py.hrep_from_vrep(pts, rays) == (canon, pts, rays)


_BIG = 10**40

# (geometry module, facet rows as (normal, cn, cd), expected canonical rows);
# the rows go through geom.facet, and redundant rows must drop out
_GEOMETRY_CASES = {
    "interval": (_geom1, [((1,), 3, 2), ((2,), 10, 1), ((-1,), 1, 1)], [((-1,), 1, 1), ((1,), 3, 2)]),
    "half_line": (_geom1, [((-3,), 0, 1)], [((-1,), 0, 1)]),
    "whole_line": (_geom1, [], []),
    "point_1d": (_geom1, [((1,), 2, 3), ((-1,), -2, 3)], [((-1,), -2, 3), ((1,), 2, 3)]),
    # endpoints 10^40 and 10^40 + 1/2; a float would merge them
    "big_1d": (
        _geom1,
        [((-1,), -_BIG, 1), ((2,), 2 * _BIG + 1, 1), ((3,), 3 * _BIG + 2, 1)],
        [((-1,), -_BIG, 1), ((1,), 2 * _BIG + 1, 2)],
    ),
    "wedge": (
        _geom_py,
        [((-1, 0), 0, 1), ((0, -1), 0, 1), ((-1, -1), 5, 1)],
        [((-1, 0), 0, 1), ((0, -1), 0, 1)],
    ),
    # parallel rows only (the rank-1 case of _geom_py)
    "strip": (_geom_py, [((-1, -1), 0, 1), ((2, 2), 6, 1)], [((-1, -1), 0, 1), ((1, 1), 3, 1)]),
    "half_plane": (_geom_py, [((0, -1), 0, 1), ((0, -3), 3, 1)], [((0, -1), 0, 1)]),
    "triangle": (
        _geom_py,
        [((-1, 0), 0, 1), ((0, -1), 0, 1), ((2, 2), 2, 1)],
        [((-1, 0), 0, 1), ((0, -1), 0, 1), ((1, 1), 1, 1)],
    ),
    "big_2d": (
        _geom_py,
        [((-1, 0), -_BIG, 1), ((0, -1), -(_BIG + 1), 3)],
        [((-1, 0), -_BIG, 1), ((0, -1), -(_BIG + 1), 3)],
    ),
}


@pytest.mark.parametrize("case", sorted(_GEOMETRY_CASES))
def test_geometry_contract(case):
    """Both geometry modules: the pass from rows gives the canonical facet
    list with its generators, the pass from those generators and the pass
    from the canonical facets give the same triple, and the generators
    satisfy their own facets."""
    geom, rows, expected = _GEOMETRY_CASES[case]
    facets = [geom.facet(n, cn, cd) for n, cn, cd in rows]
    canon, pts, rays = geom.vrep_from_hrep(facets)
    assert canon == sorted(geom.facet(n, cn, cd) for n, cn, cd in expected)
    assert geom.vrep_from_hrep(canon) == (canon, pts, rays)
    assert geom.hrep_from_vrep(pts, rays) == (canon, pts, rays)
    assert geom.vrep_inside_hrep(pts, rays, canon)
    assert geom.vrep_inside_hrep(pts, rays, facets)


def test_geometry_empty_and_exact_points():
    assert _geom1.vrep_from_hrep([(1, 0, 1), (-1, -1, 1)]) == (None, [], [])
    assert _geom_py.vrep_from_hrep([(1, 0, 0, 1), (-1, 0, -1, 1)]) == (None, [], [])
    facets = [_geom1.facet((-1,), -_BIG, 1), _geom1.facet((2,), 2 * _BIG + 1, 1)]
    assert _geom1.vrep_from_hrep(facets) == (facets, [(_BIG, 1), (2 * _BIG + 1, 2)], [])
    assert _geom1.point((Fraction(-6, 4),)) == (-3, 2)
    assert _geom_py.point((Fraction(1, 6), 2)) == (1, 12, 6)
    for geom in (_geom1, _geom_py):
        assert geom.vrep_from_hrep([])[1] == [geom.ORIGIN]


# the ordering cones of the membership oracle, by dimension: 1-D has only the
# pointed half-lines; 2-D a pointed wedge, a half-plane, a line and the orthant
_ORACLE_CONES = {
    1: [OrderCone(1, [(1,)]), OrderCone(1, [(-3,)])],
    2: [
        OrderCone(2, [(1, -2), (0, 1)]),
        OrderCone(2, [(1, 0), (-1, 0), (0, 1)]),
        OrderCone(2, [(1, 1), (-1, -1)]),
        OrderCone(2, [(1, 0), (0, 1)]),
    ],
}
_COORD = st.one_of(
    st.integers(-6, 6),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
    st.floats(min_value=-4, max_value=4, allow_nan=False),
    st.sampled_from([0.5, -0.25, 1e-300, -1e-300, 0.1]),
)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_cone_contains_matches_fraction_oracle(data):
    dim = data.draw(st.sampled_from([1, 2]))
    cone = data.draw(st.sampled_from(_ORACLE_CONES[dim]))
    v = tuple(data.draw(st.lists(_COORD, min_size=dim, max_size=dim)))
    want = all(sum(Fraction(a) * Fraction(b) for a, b in zip(n, v)) <= 0 for n in cone.facet_normals)
    assert cone.contains(v) == want
    # a generator lies in the cone and a positive scale keeps membership
    assert all(cone.contains(g) for g in cone.generators)
    assert cone.contains(tuple(3 * Fraction(c) for c in v)) == want


def test_cone_shapes_of_the_membership_oracle():
    assert [c.is_pointed for c in _ORACLE_CONES[2]] == [True, False, False, True]
    line = _ORACLE_CONES[2][2]
    assert line.contains((Fraction(-1, 2), -0.5)) and not line.contains((1, 0))
    assert line.in_lineality((2, 2)) and not _ORACLE_CONES[2][3].in_lineality((1, 0))
