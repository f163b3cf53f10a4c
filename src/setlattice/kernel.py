"""Exact arithmetic in the lattice of upper closed convex sets of R^d, d <= 2.

An upper set A satisfies A = cl co(A + C) for the workspace ordering cone C.
The lattice order is reverse inclusion: a.leq(b) means a ⊇ b.  All data is
rational and every operation is exact; Empty and the whole space are the
greatest and smallest elements.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Optional, Sequence, Tuple

from . import _geom1, _geom_py
from .extres import MINUS_INF, PLUS_INF, ExtReal

Vec = Tuple[Fraction, ...]


class LatticeError(Exception):
    pass


class NormalOutsideDualCone(LatticeError):
    pass


class NegativeScalar(LatticeError):
    pass


class WorkspaceMismatch(LatticeError):
    pass


class ArityMismatch(LatticeError):
    pass


def _check_lengths(n: int, vectors: Iterable[Sequence], what: str):
    """Every vector has n coordinates: a longer or shorter one would be read
    wrongly (a coordinate dropped, or a homogeneous weight taken for one)."""
    for v in vectors:
        if len(v) != n:
            raise ArityMismatch(f"{what} has {len(v)} coordinates, expected {n}")


def to_frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def as_vec(v) -> Vec:
    return tuple(to_frac(c) for c in v)


def _int_dir(v: Iterable) -> Tuple[Tuple[int, ...], int]:
    """An integer vector k and a denominator den >= 1 with v = k/den; den is
    the lcm of the denominators, so equal rationals give equal (k, den)."""
    if type(v) is Point:
        return v.k, v.d
    v = tuple(v)
    if all(type(c) is int for c in v):
        return v, 1
    fr = [to_frac(c) for c in v]
    den = lcm(*(c.denominator for c in fr))
    return tuple(c.numerator * (den // c.denominator) for c in fr), den


class Point:
    """A rational vector x = k/d in the integer form of ``_int_dir``, and the
    memo record of one argument of one set function: f(x) in ``value``, the
    scalarisations φ(x, z*) in ``phi``, per z*, and the function's own data
    at x in ``pieces`` (a row function's piece values, an oracle psi's
    answer), each computed on first use.  Points are equal when their (k, d)
    are, and never equal to a tuple."""

    __slots__ = ("k", "d", "value", "phi", "pieces")

    def __init__(self, k: Tuple[int, ...], d: int):
        self.k, self.d, self.value, self.phi, self.pieces = k, d, None, {}, None

    def __eq__(self, other):
        if type(other) is not Point:
            return NotImplemented
        return self.k == other.k and self.d == other.d

    def __hash__(self):
        return hash((self.k, self.d))

    @property
    def x(self) -> Vec:
        """The Fraction view."""
        return tuple(Fraction(c, self.d) for c in self.k)

    def __iter__(self):
        return iter(self.x)

    def __repr__(self):
        return f"Point({list(self.x)})"


def _along(x, u, t) -> Point:
    """The point x + t u, for rational vectors x and u (Points are read as
    they are) and a rational t, in integer form."""
    (kx, dx), (ku, du) = _int_dir(x), _int_dir(u)
    t = to_frac(t)
    a, b = du * t.denominator, dx * t.numerator
    k = [p * a + q * b for p, q in zip(kx, ku)]
    d = dx * a
    g = gcd(d, *k)
    return Point(tuple(c // g for c in k), d // g)


def _primitive_dir(v: Sequence) -> Tuple[int, ...]:
    """Scale a nonzero rational vector to a primitive integer vector."""
    ints, _ = _int_dir(v)
    g = gcd(*ints)
    if g == 0:
        raise LatticeError("zero vector has no direction")
    return tuple(c // g for c in ints)


# a facet is (normal..., cn, cd): <normal, z> <= cn/cd, and a point is
# (coords..., W): coords/W, in either dimension; GEOMETRY[dim] works on them
GEOMETRY = {1: _geom1, 2: _geom_py}


def _facet_normal(facet):
    return facet[:-2]


def _facet_offset(facet) -> Fraction:
    return Fraction(facet[-2], facet[-1])


def _dot(u, v) -> Fraction:
    """Exact inner product: the raw products are summed and converted once.

    Float operands are made exact first, so no product is rounded.
    """
    if float in map(type, u) or float in map(type, v):
        u, v = as_vec(u), as_vec(v)
    return to_frac(sum(map(mul, u, v)))


# ---------------------------------------------------------------------------
# Order cone and direction sets
# ---------------------------------------------------------------------------


class OrderCone:
    """A closed convex polyhedral ordering cone with nontrivial dual."""

    __slots__ = ("dim", "generators", "facet_normals", "_lineality")

    def __init__(self, dim: int, generators: Iterable[Sequence]):
        if dim not in GEOMETRY:
            raise LatticeError("only dimensions 1 and 2 are supported")
        gens = []
        for g in generators:
            d = _primitive_dir(g)
            if len(d) != dim:
                raise LatticeError("cone generator has wrong dimension")
            if d not in gens:
                gens.append(d)
        self.dim = dim
        self.generators = tuple(sorted(gens))
        geom = GEOMETRY[dim]
        normals, _, _ = geom.hrep_from_vrep([geom.ORIGIN], list(self.generators))
        if not normals:
            raise LatticeError("ordering cone must have a nontrivial dual cone")
        self.facet_normals = tuple(_facet_normal(f) for f in normals)
        lin = []
        for g in self.generators:
            neg = tuple(-c for c in g)
            if self.contains(neg) and g not in lin and neg not in lin:
                lin.append(g)
        self._lineality = tuple(lin)

    def contains(self, v: Sequence) -> bool:
        k, _ = _int_dir(v)  # the normals are integers: test <n, k> <= 0 on ints
        _check_lengths(self.dim, (k,), "a vector")
        return all(sum(map(mul, n, k)) <= 0 for n in self.facet_normals)

    def in_dual(self, z: Sequence) -> bool:
        """Membership of z in the negative dual cone C^-."""
        k, _ = _int_dir(z)
        _check_lengths(self.dim, (k,), "a direction")
        return all(sum(map(mul, g, k)) <= 0 for g in self.generators)

    def in_lineality(self, v: Sequence) -> bool:
        return self.contains(v) and self.contains(tuple(-c for c in v))

    @property
    def is_pointed(self) -> bool:
        return not self._lineality

    def __eq__(self, other):
        return (
            isinstance(other, OrderCone)
            and self.dim == other.dim
            and self.generators == other.generators
        )

    def __hash__(self):
        return hash((self.dim, self.generators))

    def __repr__(self):
        return f"OrderCone(dim={self.dim}, generators={list(self.generators)})"


class DirectionSet:
    """A finite sample of scalarization directions in C^- \\ {0}."""

    __slots__ = ("items", "cone")

    def __init__(self, cone: OrderCone, directions: Iterable[Sequence]):
        self.cone = cone  # every item is primitive and in C^- of this cone
        items = []
        for d in directions:
            p = _primitive_dir(d)
            if len(p) != cone.dim:
                raise LatticeError("direction has wrong dimension")
            if not cone.in_dual(p):
                raise NormalOutsideDualCone(f"direction {p} is not in C^-")
            if p not in items:
                items.append(p)
        for n in cone.facet_normals:
            if n not in items:
                items.append(n)
        self.items = tuple(sorted(items))

    def __iter__(self):
        return iter(self.items)

    def __len__(self):
        return len(self.items)

    def __contains__(self, d):
        return tuple(d) in self.items

    def union(self, directions: Iterable[Sequence]) -> "DirectionSet":
        # each distinct normal is made primitive and checked against C^- once
        return DirectionSet(self.cone, dict.fromkeys([*self.items, *map(tuple, directions)]))

    def __repr__(self):
        return f"DirectionSet({list(self.items)})"


class Workspace:
    """Ambient dimension, its geometry module, ordering cone and scalarization directions."""

    __slots__ = ("dim", "geom", "cone", "directions")

    def __init__(self, dim: int, cone_generators: Iterable[Sequence], directions: Iterable[Sequence] = ()):
        self.dim = dim
        self.cone = OrderCone(dim, cone_generators)
        self.geom = GEOMETRY[dim]
        self.directions = DirectionSet(self.cone, directions)

    # -- constructors of lattice elements -----------------------------

    def empty_set(self) -> "UpperSet":
        return UpperSet(self, None)

    def whole_space(self) -> "UpperSet":
        return UpperSet(self, [])

    def upper_set(self, constraints: Iterable[Tuple[Sequence, object]]) -> "UpperSet":
        """Canonical upper set from (normal, offset) halfspaces {z: <n,z> <= b}."""
        facets = []
        for normal, offset in constraints:
            _check_lengths(self.dim, (normal,), "a normal")
            k, den = _int_dir(normal)
            n = _primitive_dir(k)
            if not self.cone.in_dual(n):
                raise NormalOutsideDualCone(f"normal {tuple(normal)} is not in C^-")
            # normal = (g/den)*n for the primitive n, so the row is <n, z> <= b*den/g
            b = to_frac(offset)
            facets.append(self.geom.facet(n, b.numerator * den, b.denominator * gcd(*k)))
        return UpperSet(self, facets)

    def cone_set(self) -> "UpperSet":
        return self.upper_set([(n, 0) for n in self.cone.facet_normals])

    def translated_cone(self, point: Sequence) -> "UpperSet":
        p = as_vec(point)
        return self.upper_set([(n, _dot(n, p)) for n in self.cone.facet_normals])

    def from_json(self, obj) -> "UpperSet":
        if obj["tag"] == "empty":
            return self.empty_set()
        cons = [
            (tuple(int(c) for c in item["n"]), _parse_rat(item["b"]))
            for item in obj["constraints"]
        ]
        return self.upper_set(cons)

    def compatible(self, other: "Workspace") -> bool:
        return (
            self.dim == other.dim
            and self.cone == other.cone
        )

    def __repr__(self):
        return (
            f"Workspace(dim={self.dim}, cone={list(self.cone.generators)}, "
            f"directions={list(self.directions.items)})"
        )


def _parse_rat(x) -> Fraction:
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise LatticeError(f"cannot parse rational from {x!r}")


# ---------------------------------------------------------------------------
# Upper sets
# ---------------------------------------------------------------------------


class UpperSet:
    """Element of the lattice G(Z, C): empty, or a canonical polyhedron.

    The whole space is the polyhedron with no constraints.  Instances are
    immutable; the canonical facet tuple is the identity used by __eq__.
    ``points``/``rayset`` are the vertices and extreme rays of ``facets``.
    A canonicalisation is one pass of the geometry module: from raw rows
    (``vrep_from_hrep``) or from generators (``hrep_from_vrep``), and each
    pass returns the canonical facets and the generators together.
    """

    __slots__ = ("workspace", "facets", "points", "rayset")

    def __init__(self, workspace: Workspace, facets: Optional[Iterable] = None):
        self.workspace = workspace
        if facets is None:
            canon, pts, rays = None, (), ()
        else:
            canon, pts, rays = workspace.geom.vrep_from_hrep(list(facets))
        self.facets = None if canon is None else tuple(canon)
        self.points = tuple(pts)
        self.rayset = tuple(rays)

    @classmethod
    def _from_generators(cls, workspace: Workspace, points, rays) -> "UpperSet":
        if not points:
            return workspace.empty_set()
        canon, pts, rays = workspace.geom.hrep_from_vrep(points, rays)
        obj = object.__new__(cls)
        obj.workspace = workspace
        obj.facets = tuple(canon)
        obj.points = tuple(pts)
        obj.rayset = tuple(rays)
        return obj

    # -- structure ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.facets is None

    @property
    def is_whole(self) -> bool:
        return self.facets is not None and len(self.facets) == 0

    @property
    def constraints(self):
        if self.is_empty:
            return ()
        return tuple((_facet_normal(f), _facet_offset(f)) for f in self.facets)

    @property
    def vertices(self) -> Tuple[Vec, ...]:
        return tuple(tuple(Fraction(c, p[-1]) for c in p[:-1]) for p in self.points)

    def __eq__(self, other):
        if not isinstance(other, UpperSet):
            return NotImplemented
        return self.facets == other.facets and self.workspace.compatible(other.workspace)

    def __hash__(self):
        return hash(self.facets)

    def __repr__(self):
        if self.is_empty:
            return "UpperSet(empty)"
        if self.is_whole:
            return "UpperSet(whole space)"
        parts = []
        for f in self.facets:
            n = _facet_normal(f)
            parts.append(f"<{','.join(map(str, n))}|z> <= {_facet_offset(f)!s}")
        return "UpperSet({" + ", ".join(parts) + "})"

    # -- order and lattice ----------------------------------------------

    def leq(self, other: "UpperSet") -> bool:
        """The lattice order: self ≼ other, i.e. self ⊇ other."""
        self._check(other)
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        return self.workspace.geom.vrep_inside_hrep(other.points, other.rayset, self.facets)

    def contains_point(self, v: Sequence) -> bool:
        k, d = _int_dir(v)
        _check_lengths(self.workspace.dim, (k,), "a point")
        if self.is_empty:
            return False
        # v = k/d is in {<n, z> <= cn/cd} iff <n, k> cd <= cn d
        return all(sum(map(mul, f, k)) * f[-1] <= f[-2] * d for f in self.facets)

    # -- conlinear operations ---------------------------------------------

    def add(self, other: "UpperSet") -> "UpperSet":
        """Minkowski sum with closure; Empty dominates."""
        self._check(other)
        if self.is_empty or other.is_empty:
            return self.workspace.empty_set()
        add_point = self.workspace.geom.add_point
        pts = [add_point(p, q) for p in self.points for q in other.points]
        rays = list(dict.fromkeys(list(self.rayset) + list(other.rayset)))
        return UpperSet._from_generators(self.workspace, pts, rays)

    def __add__(self, other):
        return self.add(other)

    def scale(self, t) -> "UpperSet":
        """Nonnegative scaling; 0 * A = C for every A including Empty and Z."""
        t = to_frac(t)
        if t < 0:
            raise NegativeScalar("scaling factor must be nonnegative")
        if t == 0:
            return self.workspace.cone_set()
        if self.is_empty:
            return self
        geom = self.workspace.geom
        num, den = t.numerator, t.denominator
        obj = object.__new__(UpperSet)
        obj.workspace = self.workspace
        obj.facets = tuple(
            sorted(geom.facet(_facet_normal(f), f[-2] * num, f[-1] * den) for f in self.facets)
        )
        obj.points = tuple(sorted(geom.scale_point(p, num, den) for p in self.points))
        obj.rayset = self.rayset
        return obj

    def __rmul__(self, t):
        return self.scale(t)

    def residual(self, other: "UpperSet") -> "UpperSet":
        """Inf-residuation A ÷ B = {z | B + z ⊆ A}."""
        self._check(other)
        if other.is_empty:
            return self.workspace.whole_space()
        if self.is_empty:
            return self.workspace.empty_set()
        rows = self._residual_rows(other)
        return self.workspace.empty_set() if rows is None else UpperSet(self.workspace, rows)

    def residual_contains_origin(self, other: "UpperSet") -> bool:
        """0 ∈ A ÷ B, read off the raw rows of the residual: every offset is
        nonnegative.  No canonicalisation."""
        self._check(other)
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        rows = self._residual_rows(other)
        return rows is not None and all(r[-2] >= 0 for r in rows)

    def _residual_rows(self, other: "UpperSet"):
        """The raw rows <n, z> <= c - σ(n | B) of A ÷ B over the facets of A,
        for nonempty A and B; None when some σ(n | B) is +∞."""
        facet = self.workspace.geom.facet
        rows = []
        for f in self.facets:
            n = _facet_normal(f)
            s = other._sup(n)
            if s is None:
                return None
            # cn/cd - sn/sd over the common denominator
            rows.append(facet(n, f[-2] * s[1] - s[0] * f[-1], f[-1] * s[1]))
        return rows

    def recession(self) -> "UpperSet":
        """Recession cone 0+A; 0+∅ = ∅ by convention."""
        if self.is_empty:
            return self
        facet = self.workspace.geom.facet
        facets = [facet(_facet_normal(f), 0, 1) for f in self.facets]
        return UpperSet(self.workspace, facets)

    # -- scalarization ------------------------------------------------

    def support(self, direction: Sequence) -> ExtReal:
        """Support function sup{<z*, z> : z in A}; -∞ on the empty set."""
        k, den = _int_dir(direction)
        _check_lengths(self.workspace.dim, (k,), "a direction")
        if self.is_empty:
            return MINUS_INF
        s = self._sup(k)
        if s is None:
            return PLUS_INF
        return ExtReal(Fraction(s[0], s[1] * den))

    def _sup(self, k):
        """sup <k, z> over a nonempty set for an integer vector k, as a pair
        (num, den) with den >= 1; None when it is +∞."""
        for r in self.rayset:
            if sum(map(mul, k, r)) > 0:
                return None
        # <k, p> for a homogeneous point p = (X, [Y,] W) is n/W with n the dot
        # of k and the leading coordinates; compare n/W by cross-multiplying
        bn = None
        for p in self.points:
            n = sum(map(mul, k, p))
            w = p[-1]
            if bn is None or n * bw > bn * w:
                bn, bw = n, w
        return bn, bw

    def neg_support(self, direction: Sequence) -> ExtReal:
        """-σ(z*|A) = inf{-<z*, z> : z in A}, the scalarization value."""
        return -self.support(direction)

    # -- serialization ----------------------------------------------------

    def to_json(self):
        if self.is_empty:
            return {"tag": "empty"}
        return {
            "tag": "poly",
            "constraints": [
                {
                    "n": list(_facet_normal(f)),
                    "b": str(_facet_offset(f)),
                }
                for f in self.facets
            ],
            "vertices": [[str(c) for c in v] for v in self.vertices],
            "rays": [list(r) for r in self.rayset],
        }

    def _check(self, other: "UpperSet"):
        if not self.workspace.compatible(other.workspace):
            raise WorkspaceMismatch("upper sets live in different workspaces")


# ---------------------------------------------------------------------------
# Lattice infimum / supremum of families
# ---------------------------------------------------------------------------


def inf_family(workspace: Workspace, sets: Iterable[UpperSet]) -> UpperSet:
    """Closed convex hull of the union; the empty family gives Empty."""
    pts = []
    rays = []
    seen_rays = set()
    for s in sets:
        if s.is_empty:
            continue
        pts.extend(s.points)
        for r in s.rayset:
            if r not in seen_rays:
                seen_rays.add(r)
                rays.append(r)
    if not pts:
        return workspace.empty_set()
    return UpperSet._from_generators(workspace, pts, rays)


def sup_family(workspace: Workspace, sets: Iterable[UpperSet]) -> UpperSet:
    """Intersection; the empty family gives the whole space."""
    facets = []
    for s in sets:
        if s.is_empty:
            return workspace.empty_set()
        facets.extend(s.facets)
    return UpperSet(workspace, facets)

