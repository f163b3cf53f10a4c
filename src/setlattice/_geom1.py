"""Exact 1D geometry (intervals of the line) on integer homogeneous coordinates.

The 1D twin of ``_geom_py``, with the same entry points: ``vrep_from_hrep``,
``hrep_from_vrep`` and ``vrep_inside_hrep``, plus the small helpers
``facet``, ``point``, ``add_point``, ``scale_point`` and ``ORIGIN``.
Bounds are compared by cross-multiplication, never through Fractions.

Conventions:
  facet  -- (a, cn, cd): the halfline a*x <= cn/cd with a = ±1, cd >= 1
            and gcd(cn, cd) = 1.
  point  -- (X, W): the point X/W with W >= 1 and gcd(X, W) = 1.
  ray    -- (1,) or (-1,).

Both passes return (facets, points, rays): the canonical facets (None for
the empty set, [] for the whole line), the sorted end points (the origin
alone for the whole line) and the rays.  ``vrep_from_hrep`` reads them off
rows, ``hrep_from_vrep`` off generators; each is one pass.
"""

from math import gcd, lcm

ORIGIN = (0, 1)


def _ratio(n, d):
    """n/d in lowest terms with a positive denominator."""
    if d < 0:
        n, d = -n, -d
    g = gcd(n, d)
    return (n // g, d // g)


def facet(normal, cn, cd):
    """The reduced facet <normal, x> <= cn/cd."""
    k = abs(normal[0])
    return (normal[0] // k,) + _ratio(cn, cd * k)


def point(v):
    """The homogeneous point of a rational (int or Fraction) vector."""
    return (v[0].numerator, v[0].denominator)


def add_point(p, q):
    return _ratio(p[0] * q[1] + q[0] * p[1], p[1] * q[1])


def scale_point(p, num, den):
    """The point (num/den) * p for num/den > 0."""
    return _ratio(p[0] * num, p[1] * den)


def vrep_inside_hrep(points, rays, facets):
    """True iff conv(points) + cone(rays) is contained in the facet system."""
    for a, cn, cd in facets:
        for p in points:
            if cd * a * p[0] > cn * p[1]:
                return False
        for r in rays:
            if a * r[0] > 0:
                return False
    return True


def vrep_from_hrep(facets):
    """The one pass from rows: (facets, points, rays) of an intersection of
    halflines, as ``_interval`` gives them, or (None, [], []) when it is empty."""
    # bounds on x as (num, den) with den > 0, compared cross-multiplied
    lo = None
    hi = None
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
        return None, [], []
    return _interval(lo and _ratio(*lo), hi and _ratio(*hi))


def hrep_from_vrep(points, rays):
    """The one pass from generators: (facets, points, rays) of
    conv(points) + cone(rays), as ``_interval`` gives them; the points are
    in lowest terms."""
    den = lcm(*(w for _, w in points))
    lo = None if (-1,) in rays else min(points, key=lambda p: p[0] * (den // p[1]))
    hi = None if (1,) in rays else max(points, key=lambda p: p[0] * (den // p[1]))
    return _interval(lo, hi)


def _interval(lo, hi):
    """The canonical facets, the end points (the origin for the whole line)
    and the rays of [lo, hi] for reduced ends, a None end being unbounded."""
    facets = []
    if lo is not None:
        facets.append((-1, -lo[0], lo[1]))
    if hi is not None:
        facets.append((1, hi[0], hi[1]))
    points = sorted({v for v in (lo, hi) if v is not None}) or [ORIGIN]
    # an unbounded end is a ray: lo None gives (-1,), hi None gives (1,)
    return facets, points, [(s,) for s, v in ((-1, lo), (1, hi)) if v is None]
