"""Named builtin instances (the worked examples this engine is anchored to)
and seeded random-instance generators for the property and acceptance suites.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt
from typing import List, Optional, Tuple

from .kernel import UpperSet, Workspace, to_frac
from .setfun import (
    ConcavePWL,
    ConvexPWL,
    EpiVectorFunction,
    OracleFunction,
    ParamPolyFunction,
    Polyhedron,
)
from .vectoropt import OracleVectorFunction

BUILTIN_NAMES = (
    "example23",
    "heyde_a",
    "heyde_b",
    "circle",
    "infdir_example",
    "no_solution_line",
)


def rational_sqrt_floor(x) -> Fraction:
    """A rational lower bound of sqrt(x), within 10^-24 plus truncation."""
    x = to_frac(x)
    if x < 0:
        raise ValueError("negative radicand")
    scale = 10**24
    return Fraction(isqrt(x.numerator * scale * scale // x.denominator), scale)


# ---------------------------------------------------------------------------
# Builtin workspaces and functions
# ---------------------------------------------------------------------------


def example23_workspace() -> Workspace:
    return Workspace(2, [(0, 1)], [(1, 0), (-1, 0), (0, -1)])


def orthant_workspace(dim: int = 2) -> Workspace:
    if dim == 1:
        return Workspace(1, [(1,)], [(-1,)])
    return Workspace(2, [(1, 0), (0, 1)], [(-1, 0), (0, -1), (-1, -1)])


def example23_sets(ws: Optional[Workspace] = None) -> Tuple[UpperSet, UpperSet]:
    """The ray cone A and the box-cone B whose residual is empty while every
    scalar residual stays finite."""
    ws = ws or example23_workspace()
    A = ws.cone_set()
    B = ws.upper_set([((1, 0), 1), ((-1, 0), 1), ((0, -1), 0)])
    return A, B


def heyde_a() -> ParamPolyFunction:
    """Every domain point is minimal, yet no point is a scalar minimizer."""
    return ParamPolyFunction(
        orthant_workspace(),
        2,
        normals=[(-1, 0), (0, -1), (-1, -1)],
        offsets=[
            ConcavePWL([((1, -1), 0)]),
            ConcavePWL([((1, 1), 0)]),
            ConcavePWL([((-1, 0), 0)]),
        ],
        domain=Polyhedron(2, [((-1, 0), 0)]),
        name="heyde_a",
    )


# heyde_b's tangent slopes are 2^k for |k| <= _HEYDE_B_LEVELS
_HEYDE_B_LEVELS = 10


def heyde_b(tolerance=Fraction(1, 10**6)) -> OracleFunction:
    """Hyperbola-valued interpolation on [0, 1]: the value at x below 1 is the
    closed region above z2 = (1-x)^2/z1 in the open quadrant, here outer-
    approximated by tangent halfspaces plus the axes.

    The reading of the value at 0 takes {z : 1/z1 <= z2} as the closed convex
    set {z1 > 0, z1 z2 >= 1}; the axis constraints are valid for its closure.
    Only x = 1 is a minimizer: the value there is the whole quadrant, which
    strictly contains (hence dominates) every other value.
    """
    ws = orthant_workspace()
    params = [Fraction(2) ** k for k in range(-_HEYDE_B_LEVELS, _HEYDE_B_LEVELS + 1)]

    def evaluator(x):
        t = x[0]
        if t < 0 or t > 1:
            return ws.empty_set()
        c = 1 - t
        cons = [((-1, 0), Fraction(0)), ((0, -1), Fraction(0))]
        if c != 0:
            for s in params:
                cons.append(((-1, -s * s), -2 * s * c))
        return ws.upper_set(cons)

    return OracleFunction(
        ws, 1, evaluator, declared_convex=True, tolerance=tolerance, name="heyde_b"
    )


def circle(tolerance=Fraction(1, 10**6)) -> OracleFunction:
    """The disk-graph function x -> [-sqrt(1-x^2), sqrt(1-x^2)] over C = {0}.

    Endpoints are rational lower bounds of the true square root, so every
    value with x != 0 is a strict subset of [-1, 1]; the set-valued
    derivative at 0 is exactly empty while all scalar derivatives vanish.
    """
    ws = Workspace(1, [], [(1,), (-1,)])

    def evaluator(x):
        t = x[0]
        if t < -1 or t > 1:
            return ws.empty_set()
        s = rational_sqrt_floor(1 - t * t)
        return ws.upper_set([((1,), s), ((-1,), s)])

    return OracleFunction(
        ws, 1, evaluator, declared_convex=True, tolerance=tolerance, name="circle"
    )


def infdir_example(tolerance=Fraction(1, 10**6)) -> OracleVectorFunction:
    """psi(s) = (-s, -sqrt(s)) on [0, 1]: the quotient trail at 0 diverges in
    norm with direction stabilizing to (0, -1), an infinite Dini element."""
    ws = Workspace(2, [(1, 0), (0, 1)], [(-1, 0), (0, -1)])

    def handle(x):
        s = x[0]
        if s < 0 or s > 1:
            return None
        return (-s, -rational_sqrt_floor(s))

    return OracleVectorFunction(ws, 1, handle, tolerance=tolerance, name="infdir_example")


def noncommutation_trail(count: int = 6) -> List[Tuple[Fraction, Fraction]]:
    """The singleton trail (-t, -t^2): its limit direction is (0, -1) although
    the translated cones {z_t} + C blow up to the whole plane."""
    return [(Fraction(-t), Fraction(-t * t)) for t in range(1, count + 1)]


def no_solution_line() -> ParamPolyFunction:
    """f(x) = {(-x, -x)} + C on the line: many infimizers, no minimizers."""
    return ParamPolyFunction(
        orthant_workspace(),
        1,
        normals=[(-1, 0), (0, -1)],
        offsets=[ConcavePWL([((1,), 0)]), ConcavePWL([((1,), 0)])],
        name="no_solution_line",
    )


def builtin_function(name: str, tolerance=Fraction(1, 10**6)):
    """Named builtin; returns a SetFunction, VectorFunction or set pair.

    ``tolerance`` goes to the oracle builtins (heyde_b, circle,
    infdir_example); the exact ones have none.
    """
    if name == "example23":
        return example23_sets()
    if name == "heyde_a":
        return heyde_a()
    if name == "heyde_b":
        return heyde_b(tolerance=tolerance)
    if name == "circle":
        return circle(tolerance=tolerance)
    if name == "infdir_example":
        return infdir_example(tolerance=tolerance)
    if name == "no_solution_line":
        return no_solution_line()
    raise KeyError(f"unknown builtin {name!r}")


# ---------------------------------------------------------------------------
# Seeded random generators (exact instances for the property suites)
# ---------------------------------------------------------------------------


def _random_primitive(rng: random.Random, span: int = 3) -> Tuple[int, int]:
    while True:
        v = (rng.randint(-span, span), rng.randint(-span, span))
        if v != (0, 0):
            from math import gcd

            g = gcd(abs(v[0]), abs(v[1]))
            return (v[0] // g, v[1] // g)


def random_workspace(rng: random.Random, dim: int = 2) -> Workspace:
    """Random ordering cone with a 2-4 facet representation plus directions."""
    if dim == 1:
        kind = rng.choice(["ray", "zero"])
        gens = [] if kind == "zero" else [rng.choice([(1,), (-1,)])]
        ws = Workspace(1, gens)
        return Workspace(1, gens, list(ws.cone.facet_normals))
    kind = rng.choice(["wedge", "wedge", "ray", "zero"])
    if kind == "zero":
        gens = []
    elif kind == "ray":
        gens = [_random_primitive(rng)]
    else:
        while True:
            a = _random_primitive(rng)
            b = _random_primitive(rng)
            if a[0] * b[1] - a[1] * b[0] > 0:
                gens = [a, b]
                break
    ws = Workspace(dim, gens)
    extra = [random_dual_direction(rng, ws) for _ in range(2)]
    return Workspace(dim, gens, list(ws.cone.facet_normals) + [e for e in extra if e])


def random_dual_direction(rng: random.Random, ws: Workspace):
    """A nonzero direction in C^- as a nonnegative combination of facet normals."""
    from math import gcd

    normals = ws.cone.facet_normals
    for _ in range(20):
        combo = [0] * ws.dim
        for n in normals:
            w = rng.randint(0, 2)
            combo = [c + w * ni for c, ni in zip(combo, n)]
        if any(combo):
            g = 0
            for c in combo:
                g = gcd(g, abs(c))
            return tuple(c // g for c in combo)
    return None


def random_upper_set(
    rng: random.Random, ws: Workspace, max_constraints: int = 6, allow_empty: bool = False
) -> UpperSet:
    for _ in range(50):
        k = rng.randint(1, max_constraints)
        cons = []
        for _ in range(k):
            n = random_dual_direction(rng, ws)
            if n is None:
                continue
            off = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
            cons.append((n, off))
        if not cons:
            continue
        s = ws.upper_set(cons)
        if allow_empty or not s.is_empty:
            return s
    return ws.cone_set()


def random_concave_pwl(rng: random.Random, xdim: int, max_pieces: int = 2) -> ConcavePWL:
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        coef = tuple(Fraction(rng.randint(-2, 2)) for _ in range(xdim))
        const = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
        pieces.append((coef, const))
    return ConcavePWL(pieces)


def random_parampoly(
    rng: random.Random,
    ws: Workspace,
    xdim: int,
    max_normals: int = 3,
    max_pieces: int = 2,
    with_domain: bool = True,
) -> ParamPolyFunction:
    normals = []
    for _ in range(rng.randint(1, max_normals)):
        n = random_dual_direction(rng, ws)
        if n is not None and n not in normals:
            normals.append(n)
    if not normals:
        normals = [ws.cone.facet_normals[0]]
    offsets = [random_concave_pwl(rng, xdim, max_pieces) for _ in normals]
    domain = Polyhedron.whole(xdim)
    if with_domain and rng.random() < 0.5:
        bounds = [(-4, 4)] * xdim
        domain = Polyhedron.box(bounds)
    return ParamPolyFunction(ws, xdim, normals, offsets, domain, name="random")


def random_convex_pwl(rng: random.Random, xdim: int, max_pieces: int = 3) -> ConvexPWL:
    pieces = []
    for _ in range(rng.randint(1, max_pieces)):
        coef = tuple(Fraction(rng.randint(-2, 2)) for _ in range(xdim))
        const = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        pieces.append((coef, const))
    return ConvexPWL(pieces)


def random_pwl_vector(
    rng: random.Random, ws: Workspace, xdim: int, max_pieces: int = 3
) -> EpiVectorFunction:
    comps = [random_convex_pwl(rng, xdim, max_pieces) for _ in range(ws.dim)]
    return EpiVectorFunction(ws, xdim, comps, name="random-vector")


def random_grid(rng: random.Random, xdim: int, count: int, span: int = 2):
    pts = set()
    for _ in range(count * 3):
        p = tuple(Fraction(rng.randint(-2 * span, 2 * span), 2) for _ in range(xdim))
        pts.add(p)
        if len(pts) >= count:
            break
    return sorted(pts)

