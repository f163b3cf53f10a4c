"""The one-pass geometry against the two-pass reference enumeration.

``_geom_py`` and ``_geom1`` canonicalise in one pass each way: from rows
(``vrep_from_hrep``) or from generators (``hrep_from_vrep``).  The reference
below is the earlier two-pass enumeration, kept here and nowhere in the
package: rows went to their vertices and rays by pairwise crossings (O(m^3)),
then to their canonical facets by a hull; generators went to their facets by
the hull, then back to vertices and rays by the crossings.  Both passes must
return exactly the facets, points and rays of the reference, in the same
order, on random integer systems with parallel, opposite, infeasible and
touching rows, on points, segments, half-lines, lines and half-planes, and
on integers around 10^40.
"""

from fractions import Fraction
from math import gcd, lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from setlattice import _geom1, _geom_py
from setlattice._geom_py import convex_hull, reduce_facet, reduce_point, reduce_ray

# ---------------------------------------------------------------------------
# The reference: the two-pass enumeration, 2-D
# ---------------------------------------------------------------------------

_FULL_RAYS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _canon_sign(v):
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


def ref_vrep(facets):
    """(nonempty, points, rays) by pairwise crossings."""
    if not facets:
        return True, [(0, 0, 1)], list(_FULL_RAYS)
    a0, b0 = facets[0][0], facets[0][1]
    if all(a0 * f[1] - b0 * f[0] == 0 for f in facets[1:]):
        return _ref_rank1(facets)
    return _ref_rank2(facets)


def _ref_rank1(facets):
    nx, ny = _canon_sign(reduce_ray(facets[0][0], facets[0][1]))
    lo = hi = None
    for a, b, cn, cd in facets:
        k = a // nx if nx != 0 else b // ny
        if k > 0:
            v = (cn, cd * k)
            if hi is None or v[0] * hi[1] < hi[0] * v[1]:
                hi = v
        else:
            v = (-cn, -cd * k)
            if lo is None or v[0] * lo[1] > lo[0] * v[1]:
                lo = v
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return False, [], []
    nn = nx * nx + ny * ny
    points = [reduce_point(nx * v[0], ny * v[0], nn * v[1]) for v in (lo, hi) if v is not None]
    if len(points) == 2 and points[0] == points[1]:
        points = points[:1]
    rays = [(-ny, nx), (ny, -nx)]
    if hi is None:
        rays.append((nx, ny))
    if lo is None:
        rays.append((-nx, -ny))
    return True, sorted(points), sorted(rays)


def _satisfies(f, p):
    return f[3] * (f[0] * p[0] + f[1] * p[1]) <= f[2] * p[2]


def _ref_rank2(facets):
    points = set()
    for i, (ai, bi, cni, cdi) in enumerate(facets):
        for aj, bj, cnj, cdj in facets[i + 1 :]:
            D = ai * bj - aj * bi
            if D == 0:
                continue
            X = cni * bj * cdj - cnj * bi * cdi
            Y = ai * cnj * cdi - aj * cni * cdj
            p = reduce_point(X, Y, D * cdi * cdj)
            if all(_satisfies(f, p) for f in facets):
                points.add(p)
    if not points:
        return False, [], []
    rays = set()
    for a, b, _, _ in facets:
        for r in ((-b, a), (b, -a)):
            rr = reduce_ray(*r)
            if all(f[0] * rr[0] + f[1] * rr[1] <= 0 for f in facets):
                rays.add(rr)
    return True, sorted(points), sorted(rays)


def _classify_cone(rays):
    if not rays:
        return ("zero", None)
    cert = None
    for r in rays:
        for m in ((r[1], -r[0]), (-r[1], r[0])):
            if all(m[0] * s[0] + m[1] * s[1] >= 0 for s in rays):
                cert = m
                break
        if cert is not None:
            break
    if cert is None:
        return ("full", None)
    b = (cert[1], -cert[0])
    fwd = bwd = None
    interior = []
    for r in rays:
        if cert[0] * r[0] + cert[1] * r[1] > 0:
            interior.append(r)
        elif b[0] * r[0] + b[1] * r[1] > 0:
            fwd = r
        else:
            bwd = r
    if fwd is not None and bwd is not None:
        return ("halfplane", cert) if interior else ("line", b)
    lo, hi = fwd, bwd
    if lo is None and interior:
        lo = interior[0]
        for s in interior[1:]:
            if lo[0] * s[1] - lo[1] * s[0] < 0:
                lo = s
    if hi is None and interior:
        hi = interior[0]
        for s in interior[1:]:
            if s[0] * hi[1] - s[1] * hi[0] < 0:
                hi = s
    lo = lo or hi
    hi = hi or lo
    return ("ray", lo) if lo == hi else ("wedge", (lo, hi))


def _at(n, p):
    return reduce_facet(n[0], n[1], n[0] * p[0] + n[1] * p[1], p[2])


def _support(n, points):
    best = max(points, key=lambda p: Fraction(n[0] * p[0] + n[1] * p[1], p[2]))
    return _at(n, best)


def ref_hrep(points, rays):
    """Canonical facets by cone classification, hull and support facets."""
    pts = [reduce_point(*p) for p in points]
    rset = []
    for r in rays:
        rr = reduce_ray(*r)
        if rr is not None and rr not in rset:
            rset.append(rr)
    kind, data = _classify_cone(rset)
    if kind == "full":
        return []
    if kind == "halfplane":
        return [_support(reduce_ray(-data[0], -data[1]), pts)]
    if kind == "line":
        n0 = _canon_sign(reduce_ray(-data[1], data[0]))
        return sorted((_support(n0, pts), _support((-n0[0], -n0[1]), pts)))
    hull = convex_hull(pts)
    facets = []

    def edge(p, q):
        return (q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2])

    if kind == "zero":
        if len(hull) == 1:
            facets = [_at(n, hull[0]) for n in _FULL_RAYS]
        elif len(hull) == 2:
            p, q = hull
            d = reduce_ray(*edge(p, q))
            n = (-d[1], d[0])
            facets = [_at(n, p), _at((-n[0], -n[1]), p), _at(d, q), _at((-d[0], -d[1]), p)]
        else:
            for i in range(len(hull)):
                d = edge(hull[i], hull[(i + 1) % len(hull)])
                facets.append(_at(reduce_ray(d[1], -d[0]), hull[i]))
    else:
        r_lo, r_hi = (data, data) if kind == "ray" else data

        def below(n):
            return n[0] * r_lo[0] + n[1] * r_lo[1] < 0 and n[0] * r_hi[0] + n[1] * r_hi[1] < 0

        n1 = reduce_ray(r_lo[1], -r_lo[0])
        n2 = reduce_ray(-r_hi[1], r_hi[0])
        for n in (n1, n2) if n1 != n2 else (n1,):
            facets.append(_support(n, pts))
        if len(hull) >= 3:
            for i in range(len(hull)):
                d = edge(hull[i], hull[(i + 1) % len(hull)])
                n = reduce_ray(d[1], -d[0])
                if below(n):
                    facets.append(_at(n, hull[i]))
        elif len(hull) == 2:
            d = edge(*hull)
            if kind == "ray" and d[0] * data[1] - d[1] * data[0] == 0:
                facets.append(_support((-data[0], -data[1]), pts))
            else:
                facets += [_support(n, pts) for n in ((d[1], -d[0]), (-d[1], d[0])) if below(n)]
        elif kind == "ray":
            facets.append(_support((-data[0], -data[1]), pts))
    best = {}
    for f in facets:
        cur = best.get(f[:2])
        if cur is None or f[2] * cur[3] < cur[2] * f[3]:
            best[f[:2]] = f
    return sorted(best.values())


# ---------------------------------------------------------------------------
# The reference, 1-D
# ---------------------------------------------------------------------------


def _ratio(n, d):
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return (n // g, d // g)


def ref_vrep1(facets):
    lo = hi = None
    for a, cn, cd in facets:
        if a > 0:
            v = (cn, cd * a)
            if hi is None or v[0] * hi[1] < hi[0] * v[1]:
                hi = v
        else:
            v = (-cn, -cd * a)
            if lo is None or v[0] * lo[1] > lo[0] * v[1]:
                lo = v
    if lo is not None and hi is not None and lo[0] * hi[1] > hi[0] * lo[1]:
        return False, [], []
    points = sorted({_ratio(*v) for v in (lo, hi) if v is not None}) or [(0, 1)]
    return True, points, [(s,) for s, v in ((-1, lo), (1, hi)) if v is None]


def ref_hrep1(points, rays):
    pts = [_ratio(*p) for p in points]
    den = lcm(*(w for _, w in pts))
    facets = []
    if (-1,) not in rays:
        X, W = min(pts, key=lambda p: p[0] * (den // p[1]))
        facets.append((-1, -X, W))
    if (1,) not in rays:
        X, W = max(pts, key=lambda p: p[0] * (den // p[1]))
        facets.append((1, X, W))
    return facets


REFERENCE = {_geom_py: (ref_vrep, ref_hrep), _geom1: (ref_vrep1, ref_hrep1)}


def reference_from_rows(geom, facets):
    """The two-pass ``UpperSet.__init__``: enumerate the rows, then hull."""
    vrep, hrep = REFERENCE[geom]
    ok, pts, rays = vrep(facets)
    if not ok:
        return None, [], []
    return hrep(pts, rays), pts, rays


def reference_from_generators(geom, points, rays):
    """The two-pass ``UpperSet._from_generators``: hull, then enumerate."""
    vrep, hrep = REFERENCE[geom]
    canon = hrep(points, rays)
    _, pts, rays2 = vrep(canon)
    return canon, pts, rays2


# ---------------------------------------------------------------------------
# Random integer systems
# ---------------------------------------------------------------------------

BIG = 10**40
small = st.integers(-4, 4)
normals = st.tuples(small, small).filter(lambda n: n != (0, 0))
scales = st.sampled_from([1, 1, 1, BIG, BIG + 1])


@st.composite
def offset(draw, scale):
    """cn/cd; at scale 10^40 the offsets sit around 10^40 and differ by little."""
    cn = draw(st.integers(-8, 8)) * scale + draw(st.integers(-2, 2))
    return cn, draw(st.integers(1, 4))


@st.composite
def point(draw, scale=1):
    x, w = draw(offset(scale))
    y = draw(st.integers(-8, 8)) * scale + draw(st.integers(-2, 2))
    return reduce_point(x, y, w)


def row_through(n, p, shift=0):
    """The row with normal n through p, pushed outward by shift."""
    return reduce_facet(n[0], n[1], (n[0] * p[0] + n[1] * p[1]) + shift * p[2], p[2])


KINDS = ["row", "row", "row", "row", "parallel", "opposite", "touching", "point", "segment", "half_line"]


@st.composite
def rows2(draw):
    """Rows with parallel, opposite, infeasible, touching and redundant rows,
    and the rows of points, segments and half-lines."""
    scale = draw(scales)
    rows = []
    for kind in draw(st.lists(st.sampled_from(KINDS), max_size=5)):
        n = draw(normals)
        cn, cd = draw(offset(scale))
        if kind == "row":  # the origin meets the row three times in four
            cn = abs(cn) if draw(st.booleans()) else cn
            rows.append(reduce_facet(n[0], n[1], cn, cd))
        elif kind == "parallel":
            k = draw(st.integers(2, 3))
            rows.append(reduce_facet(n[0], n[1], cn, cd))
            rows.append(reduce_facet(k * n[0], k * n[1], k * cn + draw(small), cd))
        elif kind == "opposite":  # a strip, a line, or an infeasible pair
            rows.append(reduce_facet(n[0], n[1], cn, cd))
            rows.append(reduce_facet(-n[0], -n[1], -cn + draw(small), cd))
        elif kind == "touching" and len(rows) >= 2:  # a row through a crossing of two rows
            (a, b, c, d), (e, f, g, h) = draw(st.permutations(rows))[:2]
            D = a * f - e * b
            if D:
                p = reduce_point(c * f * h - g * b * d, a * g * d - e * c * h, D * d * h)
                rows.append(row_through(n, p, draw(st.sampled_from([0, 0, 1, -1]))))
        elif kind == "point":
            p = draw(point(scale))
            rows += [row_through(m, p) for m in ((1, 0), (-1, 0), (0, 1), (0, -1))]
        elif kind in ("segment", "half_line"):
            p = draw(point(scale))
            d = draw(normals)
            rows += [row_through(m, p) for m in ((-d[1], d[0]), (d[1], -d[0]), (-d[0], -d[1]))]
            if kind == "segment":
                rows.append(row_through(d, p, draw(st.integers(1, 3))))
    return draw(st.permutations(rows))


# cones of generators: C = {0}, a ray, a wedge, a line, a half-plane, the plane
CONE_RAYS = st.sampled_from(
    [
        [],
        [(1, 0)],
        [(0, 1)],
        [(2, -1)],
        [(1, 0), (0, 1)],
        [(2, -1), (-1, 3)],
        [(1, 1), (-1, -1)],
        [(0, 1), (1, 0), (-1, 0)],
        [(1, 0), (-1, 1), (0, -1)],
    ]
)


@st.composite
def generators2(draw):
    scale = draw(scales)
    rays = draw(CONE_RAYS) + [reduce_ray(*n) for n in draw(st.lists(normals, max_size=2))]
    kind = draw(st.sampled_from(["points", "points", "segment", "collinear"]))
    if kind == "points":
        pts = draw(st.lists(point(scale), min_size=1, max_size=6))
    else:  # points on one line, often along a ray of the cone
        p = draw(point(scale))
        d = draw(st.sampled_from(rays)) if rays and kind == "collinear" else draw(normals)
        ts = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
        pts = [reduce_point(p[0] + t * d[0] * p[2], p[1] + t * d[1] * p[2], p[2]) for t in ts]
    return pts, rays


@st.composite
def rows1(draw):
    scale = draw(scales)
    out = []
    for _ in range(draw(st.integers(0, 4))):
        a = draw(st.sampled_from([1, -1, 2, -3]))
        cn, cd = draw(offset(scale))
        out.append(_geom1.facet((a,), cn, cd))
    return out


@st.composite
def generators1(draw):
    scale = draw(scales)
    pts = [_ratio(*draw(offset(scale))) for _ in range(draw(st.integers(1, 4)))]
    return pts, draw(st.sampled_from([[], [(1,)], [(-1,)], [(1,), (-1,)]]))


# ---------------------------------------------------------------------------
# The oracles
# ---------------------------------------------------------------------------


@settings(max_examples=600, deadline=None)
@given(rows2())
def test_rows_pass_matches_the_two_pass_reference(rows):
    assert _geom_py.vrep_from_hrep(rows) == reference_from_rows(_geom_py, rows)


@settings(max_examples=400, deadline=None)
@given(generators2())
def test_generators_pass_matches_the_two_pass_reference(gens):
    pts, rays = gens
    assert _geom_py.hrep_from_vrep(pts, rays) == reference_from_generators(_geom_py, pts, rays)


@settings(max_examples=200, deadline=None)
@given(rows1(), generators1())
def test_line_passes_match_the_two_pass_reference(rows, gens):
    assert _geom1.vrep_from_hrep(rows) == reference_from_rows(_geom1, rows)
    assert _geom1.hrep_from_vrep(*gens) == reference_from_generators(_geom1, *gens)


def test_lower_dimensional_sets_keep_their_facets():
    """A point gets four axis facets, a segment four, a half-line three."""
    p = (1, 2, 1)
    point_rows = [row_through(m, p) for m in ((1, 0), (-1, 0), (0, 1))] + [row_through((-1, -1), p)]
    facets, pts, rays = _geom_py.vrep_from_hrep(point_rows)
    assert (len(facets), pts, rays) == (4, [p], [])
    segment = [row_through(m, p) for m in ((0, 1), (0, -1), (-1, 0))] + [row_through((1, 0), p, 3)]
    assert len(_geom_py.vrep_from_hrep(segment)[0]) == 4
    assert _geom_py.vrep_from_hrep(segment[:3]) == (sorted(segment[:3]), [p], [(1, 0)])
    assert _geom_py.hrep_from_vrep([p, (4, 2, 1)], [(1, 0)]) == (sorted(segment[:3]), [p], [(1, 0)])
