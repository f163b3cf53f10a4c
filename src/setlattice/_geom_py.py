"""Exact 2D polyhedral geometry on integer homogeneous coordinates.

This is the hot kernel behind every 2D lattice operation.  Its entry points
are ``vrep_from_hrep``, ``hrep_from_vrep`` and ``vrep_inside_hrep``, plus the
small helpers ``facet``, ``point``, ``add_point``, ``scale_point`` and
``ORIGIN`` (``_geom1`` has the same ones for the line); all of them work on
Python integers, so results stay exact at any magnitude.  Two homogeneous
points are ordered by cross-multiplication (n/W < n'/W' iff n*W' < n'*W),
never through Fractions.

Conventions:
  facet  -- (a, b, cn, cd): the halfspace a*x + b*y <= cn/cd with (a, b)
            a primitive integer normal, cd >= 1 and gcd(cn, cd) = 1.
  point  -- (X, Y, W): the point (X/W, Y/W) with W >= 1, gcd(X, Y, W) = 1.
  ray    -- (rx, ry): a primitive nonzero integer direction.

The two passes are the only enumeration code, one each way, and both
return (facets, points, rays): the sorted canonical facets (None for the
empty set, [] for the whole plane), the sorted vertices and the sorted
extreme rays.  ``vrep_from_hrep`` clips rows, ``hrep_from_vrep`` builds
one hull of generators.
"""

from math import gcd, lcm

_FULL_RAYS = ((1, 0), (-1, 0), (0, 1), (0, -1))

ORIGIN = (0, 0, 1)


def reduce_ray(x, y):
    """Primitive integer direction, or None for the zero vector."""
    g = gcd(abs(x), abs(y))
    if g == 0:
        return None
    return (x // g, y // g)


def reduce_point(X, Y, W):
    if W < 0:
        X, Y, W = -X, -Y, -W
    g = gcd(gcd(abs(X), abs(Y)), W)
    if g > 1:
        X, Y, W = X // g, Y // g, W // g
    return (X, Y, W)


def reduce_facet(a, b, cn, cd):
    if cd < 0:
        cn, cd = -cn, -cd
    g = gcd(abs(a), abs(b))
    if g > 1:
        a //= g
        b //= g
        cd *= g
    g2 = gcd(abs(cn), cd)
    if g2 > 1:
        cn //= g2
        cd //= g2
    return (a, b, cn, cd)


def facet(normal, cn, cd):
    """The reduced facet <normal, z> <= cn/cd."""
    return reduce_facet(normal[0], normal[1], cn, cd)


def point(v):
    """The homogeneous point of a rational (int or Fraction) vector."""
    x, y = v
    # over the lcm of the denominators the triple is already in lowest terms
    w = lcm(x.denominator, y.denominator)
    return (x.numerator * (w // x.denominator), y.numerator * (w // y.denominator), w)


def add_point(p, q):
    return reduce_point(p[0] * q[2] + q[0] * p[2], p[1] * q[2] + q[1] * p[2], p[2] * q[2])


def scale_point(p, num, den):
    """The point (num/den) * p for num/den > 0."""
    return reduce_point(p[0] * num, p[1] * num, p[2] * den)


def vrep_inside_hrep(points, rays, facets):
    """True iff conv(points) + cone(rays) is contained in the facet system."""
    for f in facets:
        a, b, cn, cd = f
        for p in points:
            if cd * (a * p[0] + b * p[1]) > cn * p[2]:
                return False
        for r in rays:
            if a * r[0] + b * r[1] > 0:
                return False
    return True


def _orient(p, q, r):
    """Sign of the turn p -> q -> r (positive = counterclockwise)."""
    s = (q[0] * p[2] - p[0] * q[2]) * (r[1] * p[2] - p[1] * r[2]) - (
        q[1] * p[2] - p[1] * q[2]
    ) * (r[0] * p[2] - p[0] * r[2])
    return (s > 0) - (s < 0)


def convex_hull(points):
    """Extreme points of a set of homogeneous points, counterclockwise.

    Returns a single point, the two endpoints of a segment, or a CCW
    polygon; collinear non-extreme points are dropped.
    """
    pts = set(points)
    den = lcm(*(p[2] for p in pts))
    pts = sorted(pts, key=lambda p: (p[0] * (den // p[2]), p[1] * (den // p[2])))
    if len(pts) <= 1:
        return pts
    lower = []
    for p in pts:
        while len(lower) >= 2 and _orient(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and _orient(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 2 and hull[0] == hull[1]:
        return hull[:1]
    return hull


def vrep_from_hrep(facets):
    """The one pass from rows: the canonical facets and the generators of
    an intersection of halfplanes, as (facets, points, rays).

    Each distinct row's boundary line is clipped by every other row through
    their cross-multiplied crossing (de Berg et al., *Computational
    Geometry*, §4.2), which is O(m^2): rows whose interval has positive
    length are the facets, finite interval ends are the vertices and
    infinite ends the rays.  A point, a segment or a half-line gets the
    facets of ``_flat``, and parallel rows those of ``_parallel``.
    """
    if not facets:
        return [], [ORIGIN], list(_FULL_RAYS)
    best = {}  # the least offset per primitive normal
    for f in facets:
        key = (f[0], f[1])
        cur = best.get(key)
        if cur is None or f[2] * cur[3] < cur[2] * f[3]:
            best[key] = f
    rows = list(best.values())
    m = len(rows)
    if m == 1 or _opposite(rows):
        return _parallel(rows)
    # each row's tightest ends (s, X, Y, W) along its line: the crossing
    # (X/W, Y/W), W > 0, at position s/W along the row's direction (-b, a)
    lo = [None] * m
    hi = [None] * m
    for i in range(m):
        ai, bi, cni, cdi = rows[i]
        for j in range(i + 1, m):
            aj, bj, cnj, cdj = rows[j]
            D = ai * bj - aj * bi
            if D == 0:  # opposite normals: the rows cross, or both lines meet the set
                if cni * cdj + cnj * cdi < 0:
                    return None, [], []
                continue
            X = cni * bj * cdj - cnj * bi * cdi
            Y = ai * cnj * cdi - aj * cni * cdj
            W = D * cdi * cdj
            if W < 0:
                X, Y, W = -X, -Y, -W
            # D = <n_j, (-b_i, a_i)>: for D > 0 row j ends row i's line
            # above and row i ends row j's line below, for D < 0 the reverse
            u, v = (i, j) if D > 0 else (j, i)
            su = rows[u][0] * Y - rows[u][1] * X
            sv = rows[v][0] * Y - rows[v][1] * X
            e = hi[u]
            if e is None or su * e[3] < e[0] * W:
                hi[u] = (su, X, Y, W)
            e = lo[v]
            if e is None or sv * e[3] > e[0] * W:
                lo[v] = (sv, X, Y, W)
    out = []
    ends = set()
    rays = set()
    for i in range(m):
        a, b = rows[i][0], rows[i][1]
        l, h = lo[i], hi[i]
        if l is None:
            rays.add((b, -a))
        elif h is None:
            rays.add((-b, a))
        else:
            c = l[0] * h[3] - h[0] * l[3]
            if c > 0:  # the line misses the set
                continue
            if c == 0:  # the line touches the set at one point
                ends.add(l[1:])
                continue
        out.append(rows[i])
        ends.update(e[1:] for e in (l, h) if e is not None)
    if not ends:
        return None, [], []
    points = sorted({reduce_point(*p) for p in ends})
    rays = sorted(rays)
    if not out or _opposite(out):
        return _flat(points, rays), points, rays
    return sorted(out), points, rays


def _opposite(rows):
    """Two rows with opposite normals."""
    return len(rows) == 2 and rows[0][0] == -rows[1][0] and rows[0][1] == -rows[1][1]


def _parallel(rows):
    """A half-plane (one row) or a strip or line (two rows with opposite
    normals), as (facets, points, rays): each row's foot point, both
    directions of the line, and the normal direction that no row bounds."""
    a, b, cn, cd = rows[0]
    if len(rows) == 2 and cn * rows[1][3] + rows[1][2] * cd < 0:
        return None, [], []
    nn = a * a + b * b
    points = sorted({reduce_point(f[0] * f[2], f[1] * f[2], nn * f[3]) for f in rows})
    rays = [(-b, a), (b, -a)]
    if len(rows) == 1:
        rays.append((-a, -b))
    return sorted(rows), points, sorted(rays)


def _flat(points, rays):
    """The canonical facets of a point, a segment or a half-line (one point
    and one ray): the two facets of its line, taken along the x-axis for a
    point, and one facet across each end."""
    p, q = points[0], points[-1]
    if rays:
        d = rays[0]
    elif p != q:
        d = reduce_ray(q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2])
    else:
        d = (1, 0)
    facets = [_facet_at(n, p) for n in ((-d[1], d[0]), (d[1], -d[0]), (-d[0], -d[1]))]
    if not rays:
        facets.append(_facet_at(d, q))
    return sorted(facets)


def _classify_cone(rays):
    """Classify cone(rays): ('full'|'halfplane'|'line'|'wedge'|'ray'|'zero', data)."""
    if not rays:
        return ("zero", None)
    cert = None
    for r in rays:
        for m in ((r[1], -r[0]), (-r[1], r[0])):
            for s in rays:
                if m[0] * s[0] + m[1] * s[1] < 0:
                    break
            else:
                cert = m
                break
        if cert is not None:
            break
    if cert is None:
        return ("full", None)
    # b spans the boundary of the certified halfplane; m . r == cross(b, r)
    b = (cert[1], -cert[0])
    fwd = bwd = None
    interior = []
    for r in rays:
        c = cert[0] * r[0] + cert[1] * r[1]
        if c > 0:
            interior.append(r)
        elif b[0] * r[0] + b[1] * r[1] > 0:
            fwd = r
        else:
            bwd = r
    if fwd is not None and bwd is not None:
        return ("halfplane", cert) if interior else ("line", b)
    lo = fwd
    hi = bwd
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
    if lo == hi:
        return ("ray", lo)
    return ("wedge", (lo, hi))


def _facet_at(n, p):
    """The facet with normal n through the homogeneous point p."""
    return reduce_facet(n[0], n[1], n[0] * p[0] + n[1] * p[1], p[2])


def _support_facet(n, points):
    """The facet with normal n through the points' maximiser of <n, .>."""
    bv = None
    for p in points:
        v = n[0] * p[0] + n[1] * p[1]
        if bv is None or v * bw > bv * p[2]:
            bv, bw = v, p[2]
    return reduce_facet(n[0], n[1], bv, bw)


def hrep_from_vrep(points, rays):
    """The one pass from generators: the canonical facets, vertices and
    extreme rays of conv(points) + cone(rays), as (facets, points, rays) in
    the form ``vrep_from_hrep`` gives them.

    The facet list is the identity of the set: equal sets yield equal
    lists, and the whole plane comes back as [].  The points and rays are
    in the reduced forms above.  One hull pass gives the facets, and a hull
    point tight on two of them is a vertex.
    """
    kind, data = _classify_cone(list(dict.fromkeys(rays)))
    if kind == "full":
        return [], [ORIGIN], list(_FULL_RAYS)
    if kind == "halfplane":
        return _parallel([_support_facet(reduce_ray(-data[0], -data[1]), points)])
    if kind == "line":
        n = reduce_ray(-data[1], data[0])
        return _parallel([_support_facet(n, points), _support_facet((-n[0], -n[1]), points)])
    hull = convex_hull(points)
    k = len(hull)
    if kind == "zero" and k <= 2:
        return _flat(hull, []), sorted(hull), []
    edges = []  # each hull edge's outward normal (the hull is CCW) and start
    for i in range(k if k > 1 else 0):
        p, q = hull[i], hull[(i + 1) % k]
        edges.append((reduce_ray(q[1] * p[2] - p[1] * q[2], p[0] * q[2] - q[0] * p[2]), p))
    if kind == "zero":
        return sorted(_facet_at(n, p) for n, p in edges), sorted(hull), []
    r_lo, r_hi = (data, data) if kind == "ray" else data
    if kind == "ray" and all(n[0] * data[0] + n[1] * data[1] == 0 for n, _ in edges):
        # a half-line: its end is the hull's lower point along the ray
        p, q = hull[0], hull[-1]
        if (data[0] * q[0] + data[1] * q[1]) * p[2] < (data[0] * p[0] + data[1] * p[1]) * q[2]:
            p = q
        return _flat([p], [data]), [p], [data]
    facets = [
        _support_facet((r_lo[1], -r_lo[0]), points),
        _support_facet((-r_hi[1], r_hi[0]), points),
    ]
    for n, p in edges:
        if n[0] * r_lo[0] + n[1] * r_lo[1] < 0 and n[0] * r_hi[0] + n[1] * r_hi[1] < 0:
            facets.append(_facet_at(n, p))
    facets.sort()
    vertices = []
    for p in hull:
        tight = 0
        for a, b, cn, cd in facets:
            if cd * (a * p[0] + b * p[1]) == cn * p[2]:
                tight += 1
        if tight >= 2:
            vertices.append(p)
    return facets, sorted(vertices), [data] if kind == "ray" else sorted(data)
