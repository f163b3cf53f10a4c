"""Exact 2D polyhedral geometry on integer homogeneous coordinates.

This is the hot kernel behind every 2D lattice operation.  Its entry points
are ``vrep_from_hrep``, ``hrep_from_vrep`` and ``vrep_inside_hrep``, plus the
small helpers ``facet``, ``point``, ``add_point``, ``scale_point`` and
``ORIGIN`` (``_geom1`` has the same ones for the line); all of them work on
Python integers, so results stay exact at any magnitude.  Two
homogeneous points are ordered by cross-multiplication (n/W < n'/W' iff
n*W' < n'*W), never through Fractions: the support maximum of the hull and
the sort of ``convex_hull`` both work this way.

Conventions:
  facet  -- (a, b, cn, cd): the halfspace a*x + b*y <= cn/cd with (a, b)
            a primitive integer normal, cd >= 1 and gcd(cn, cd) = 1.
  point  -- (X, Y, W): the point (X/W, Y/W) with W >= 1, gcd(X, Y, W) = 1.
  ray    -- (rx, ry): a primitive nonzero integer direction.

The empty set is signalled by the boolean in vrep_from_hrep; the whole
plane is the empty facet list.
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


def point_satisfies(f, p):
    return f[3] * (f[0] * p[0] + f[1] * p[1]) <= f[2] * p[2]


def ray_satisfies(f, r):
    return f[0] * r[0] + f[1] * r[1] <= 0


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


def _canon_sign(v):
    """Flip a direction so its first nonzero coordinate is positive."""
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


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
    """Generators of the intersection of halfspaces.

    Returns (nonempty, points, rays); the generated set is
    conv(points) + cone(rays) and equals the input polyhedron exactly.
    """
    if not facets:
        return True, [(0, 0, 1)], list(_FULL_RAYS)
    a0, b0 = facets[0][0], facets[0][1]
    if all(a0 * f[1] - b0 * f[0] == 0 for f in facets[1:]):
        return _vrep_rank1(facets)
    return _vrep_rank2(facets)


def _vrep_rank1(facets):
    n0 = _canon_sign(reduce_ray(facets[0][0], facets[0][1]))
    nx, ny = n0
    # bounds on <n0, z> as (num, den) with den > 0, compared cross-multiplied
    lo = None
    hi = None
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
    points = []
    for v in (lo, hi):
        if v is not None:
            points.append(reduce_point(nx * v[0], ny * v[0], nn * v[1]))
    if lo is not None and hi is not None and points[0] == points[1]:
        points = points[:1]
    rays = [(-ny, nx), (ny, -nx)]
    if hi is None:
        rays.append((nx, ny))
    if lo is None:
        rays.append((-nx, -ny))
    return True, sorted(points), sorted(rays)


def _vrep_rank2(facets):
    m = len(facets)
    points = set()
    for i in range(m):
        ai, bi, cni, cdi = facets[i]
        for j in range(i + 1, m):
            aj, bj, cnj, cdj = facets[j]
            D = ai * bj - aj * bi
            if D == 0:
                continue
            X = cni * bj * cdj - cnj * bi * cdi
            Y = ai * cnj * cdi - aj * cni * cdj
            p = reduce_point(X, Y, D * cdi * cdj)
            if p in points:
                continue
            ok = True
            for f in facets:
                if not point_satisfies(f, p):
                    ok = False
                    break
            if ok:
                points.add(p)
    if not points:
        return False, [], []
    rays = set()
    for a, b, _, _ in facets:
        for r in ((-b, a), (b, -a)):
            rr = reduce_ray(r[0], r[1])
            if rr in rays:
                continue
            ok = True
            for f in facets:
                if not ray_satisfies(f, rr):
                    ok = False
                    break
            if ok:
                rays.add(rr)
    return True, sorted(points), sorted(rays)


def _classify_cone(rays):
    """Classify cone(rays): ('full'|'halfplane'|'line'|'wedge'|'ray'|'zero', data)."""
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
    # b spans the boundary of the certified halfplane; m . r == cross(b, r)
    b = (cert[1], -cert[0])
    fwd = None
    bwd = None
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
        if interior:
            return ("halfplane", cert)
        return ("line", b)
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
    if lo is None:
        lo = hi
    if hi is None:
        hi = lo
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
    """Canonical irredundant facets of conv(points) + cone(rays).

    The facet list is the identity of the set: equal sets yield equal
    lists.  The whole plane comes back as [].
    """
    pts = [reduce_point(*p) for p in points]
    rset = []
    for r in rays:
        rr = reduce_ray(r[0], r[1])
        if rr is not None and rr not in rset:
            rset.append(rr)
    kind, data = _classify_cone(rset)
    if kind == "full":
        return []
    if kind == "halfplane":
        return [_support_facet(reduce_ray(-data[0], -data[1]), pts)]
    if kind == "line":
        n0 = _canon_sign(reduce_ray(-data[1], data[0]))
        return sorted((_support_facet(n0, pts), _support_facet((-n0[0], -n0[1]), pts)))
    hull = convex_hull(pts)
    facets = []
    if kind == "zero":
        if len(hull) == 1:
            p = hull[0]
            facets = [_facet_at(n, p) for n in _FULL_RAYS]
        elif len(hull) == 2:
            p, q = hull
            d = reduce_ray(q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2])
            n = (-d[1], d[0])
            facets = [
                _facet_at(n, p),
                _facet_at((-n[0], -n[1]), p),
                _facet_at(d, q),
                _facet_at((-d[0], -d[1]), p),
            ]
        else:
            k = len(hull)
            for i in range(k):
                p, q = hull[i], hull[(i + 1) % k]
                d = (q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2])
                facets.append(_facet_at(reduce_ray(d[1], -d[0]), p))
    else:
        if kind == "ray":
            r_lo = r_hi = data
        else:
            r_lo, r_hi = data
        n1 = reduce_ray(r_lo[1], -r_lo[0])
        n2 = reduce_ray(-r_hi[1], r_hi[0])
        for n in (n1, n2) if n1 != n2 else (n1,):
            facets.append(_support_facet(n, pts))
        if len(hull) >= 3:
            k = len(hull)
            for i in range(k):
                p, q = hull[i], hull[(i + 1) % k]
                d = (q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2])
                n = reduce_ray(d[1], -d[0])
                if (
                    n[0] * r_lo[0] + n[1] * r_lo[1] < 0
                    and n[0] * r_hi[0] + n[1] * r_hi[1] < 0
                ):
                    facets.append(_facet_at(n, p))
        elif len(hull) == 2:
            p, q = hull
            d = (q[0] * p[2] - p[0] * q[2], q[1] * p[2] - p[1] * q[2])
            if kind == "ray" and d[0] * data[1] - d[1] * data[0] == 0:
                facets.append(_support_facet((-data[0], -data[1]), pts))
            else:
                for n in ((d[1], -d[0]), (-d[1], d[0])):
                    if (
                        n[0] * r_lo[0] + n[1] * r_lo[1] < 0
                        and n[0] * r_hi[0] + n[1] * r_hi[1] < 0
                    ):
                        facets.append(_support_facet(n, pts))
        elif kind == "ray":
            facets.append(_support_facet((-data[0], -data[1]), pts))
    best = {}
    for f in facets:
        key = (f[0], f[1])
        cur = best.get(key)
        if cur is None or f[2] * cur[3] < cur[2] * f[3]:
            best[key] = f
    return sorted(best.values())
