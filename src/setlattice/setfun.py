"""Set-valued functions X -> G(Z, C): constructors, evaluation, scalarization,
inf-translation, segment restriction and semicontinuity probes.

Three constructor classes: parametric polyhedra (exact), epigraphical vector
extensions (exact), and numeric oracles (sampled, approximate-flagged).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from . import _geom_py
from ._geom_py import reduce_point
from .extres import PLUS_INF, ExtReal, ext_min
from .kernel import (
    LatticeError,
    UpperSet,
    Vec,
    Workspace,
    _dot,
    _primitive_dir,
    as_vec,
    inf_family,
    sup_family,
    to_frac,
)


class OracleFailure(LatticeError):
    pass


class EmptyTranslationSet(LatticeError):
    pass


class ArityMismatch(LatticeError):
    pass


# ---------------------------------------------------------------------------
# Halfspace systems in the argument space X
# ---------------------------------------------------------------------------


class Polyhedron:
    """A polyhedron {x : <a_i, x> <= r_i} in the argument space."""

    __slots__ = ("dim", "rows")

    def __init__(self, dim: int, rows: Iterable[Tuple[Sequence, object]] = ()):
        self.dim = dim
        self.rows = tuple((as_vec(a), to_frac(r)) for a, r in rows)

    @staticmethod
    def whole(dim: int) -> "Polyhedron":
        return Polyhedron(dim, ())

    @staticmethod
    def box(bounds: Sequence[Tuple[object, object]]) -> "Polyhedron":
        rows = []
        dim = len(bounds)
        for i, (lo, hi) in enumerate(bounds):
            e = [0] * dim
            e[i] = 1
            if hi is not None:
                rows.append((tuple(e), to_frac(hi)))
            if lo is not None:
                rows.append((tuple(-c for c in e), -to_frac(lo)))
        return Polyhedron(dim, rows)

    def contains(self, x: Sequence) -> bool:
        xx = as_vec(x)
        return all(_dot(a, xx) <= r for a, r in self.rows)

    def shift(self, m: Sequence) -> "Polyhedron":
        """The polyhedron {x : x + m in self}."""
        mm = as_vec(m)
        return Polyhedron(self.dim, [(a, r - _dot(a, mm)) for a, r in self.rows])

    def t_interval(self, base: Sequence, direction: Sequence):
        """The interval {t : base + t*direction in self} as (lo, hi), None = unbounded."""
        b = as_vec(base)
        d = as_vec(direction)
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for a, r in self.rows:
            ad = _dot(a, d)
            rem = r - _dot(a, b)
            if ad == 0:
                if rem < 0:
                    return (Fraction(1), Fraction(0))  # empty marker lo > hi
                continue
            bound = rem / ad
            if ad > 0:
                if hi is None or bound < hi:
                    hi = bound
            else:
                if lo is None or bound > lo:
                    lo = bound
        return (lo, hi)


# ---------------------------------------------------------------------------
# Piecewise-linear scalar functions of the argument
# ---------------------------------------------------------------------------


class ConcavePWL:
    """Pointwise minimum of finitely many affine forms (concave by construction)."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Tuple[Sequence, object]]):
        self.pieces = tuple((as_vec(c), to_frac(k)) for c, k in pieces)
        if not self.pieces:
            raise LatticeError("a piecewise-linear offset needs at least one piece")

    def value(self, x: Sequence) -> Fraction:
        xx = as_vec(x)
        return min(_dot(c, xx) + k for c, k in self.pieces)

    def pullback(self, base: Sequence, direction: Sequence) -> "ConcavePWL":
        b = as_vec(base)
        d = as_vec(direction)
        return ConcavePWL(
            [((_dot(c, d),), _dot(c, b) + k) for c, k in self.pieces]
        )

    def shift(self, m: Sequence) -> "ConcavePWL":
        mm = as_vec(m)
        return ConcavePWL([(c, k + _dot(c, mm)) for c, k in self.pieces])

    def __repr__(self):
        return f"ConcavePWL({list(self.pieces)})"


class ConvexPWL:
    """Pointwise maximum of finitely many affine forms (convex by construction)."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Tuple[Sequence, object]]):
        self.pieces = tuple((as_vec(c), to_frac(k)) for c, k in pieces)
        if not self.pieces:
            raise LatticeError("a piecewise-linear component needs at least one piece")

    def value(self, x: Sequence) -> Fraction:
        xx = as_vec(x)
        return max(_dot(c, xx) + k for c, k in self.pieces)

    def pullback(self, base: Sequence, direction: Sequence) -> "ConvexPWL":
        b = as_vec(base)
        d = as_vec(direction)
        return ConvexPWL([((_dot(c, d),), _dot(c, b) + k) for c, k in self.pieces])

    def shift(self, m: Sequence) -> "ConvexPWL":
        mm = as_vec(m)
        return ConvexPWL([(c, k + _dot(c, mm)) for c, k in self.pieces])

    def __repr__(self):
        return f"ConvexPWL({list(self.pieces)})"


# ---------------------------------------------------------------------------
# Set-valued functions
# ---------------------------------------------------------------------------


class SetFunction:
    """Common interface of the function constructors."""

    workspace: Workspace
    xdim: int
    is_exact: bool = True
    declared_convex: bool = True
    name: str = ""

    def __init__(self):
        self._cache = {}  # value per argument
        self._rays = {}  # calculus._Ray per (x, u)

    def eval(self, x: Sequence) -> UpperSet:
        key = as_vec(x)
        hit = self._cache.get(key)
        if hit is None:
            self.check_arity(key)
            hit = self._eval(key)
            self._cache[key] = hit
        return hit

    def check_arity(self, x: Vec):
        if len(x) != self.xdim:
            raise ArityMismatch(f"expected {self.xdim} coordinates, got {len(x)}")

    def _eval(self, x: Vec) -> UpperSet:
        raise NotImplementedError

    def scalarize(self, zstar: Sequence, x: Sequence) -> ExtReal:
        """The scalarization value inf{-<z*, z> : z in f(x)} (+∞ iff f(x) = ∅)."""
        return self.eval(x).neg_support(zstar)

    def domain_contains(self, x: Sequence) -> bool:
        return not self.eval(x).is_empty

    def restrict(self, x0: Sequence, x: Sequence) -> "SetFunction":
        """The segment function t -> f(x0 + t(x - x0)) on [0, 1], ∅ outside."""
        raise NotImplementedError

    def ray_restrict(self, x: Sequence, u: Sequence) -> "SetFunction":
        """The ray function t -> f(x + t*u) for t >= 0 (no [0,1] cap)."""
        raise NotImplementedError

    def shift_arg(self, m: Sequence) -> "SetFunction":
        """The function x -> f(m + x)."""
        raise NotImplementedError


class ParamPolyFunction(SetFunction):
    """f(x) = {z : <N_i, z> <= b_i(x)} on a domain polyhedron, ∅ outside.

    Offsets are concave piecewise-linear, which makes the function convex
    in the lattice sense by construction.
    """

    def __init__(
        self,
        workspace: Workspace,
        xdim: int,
        normals: Iterable[Sequence],
        offsets: Iterable[ConcavePWL],
        domain: Optional[Polyhedron] = None,
        name: str = "",
    ):
        super().__init__()
        self.workspace = workspace
        self.xdim = xdim
        self.normals = tuple(_primitive_dir(n) for n in normals)
        for n in self.normals:
            if not workspace.cone.in_dual(n):
                from .kernel import NormalOutsideDualCone

                raise NormalOutsideDualCone(f"normal {n} is not in C^-")
        self.offsets = tuple(offsets)
        if len(self.offsets) != len(self.normals):
            raise LatticeError("need one offset per normal")
        self.domain = domain if domain is not None else Polyhedron.whole(xdim)
        self.is_exact = True
        self.declared_convex = True
        self.name = name

    def _eval(self, x: Vec) -> UpperSet:
        if not self.domain.contains(x):
            return self.workspace.empty_set()
        cons = [(n, off.value(x)) for n, off in zip(self.normals, self.offsets)]
        return self.workspace.upper_set(cons)

    def restrict(self, x0, x):
        return self._pull(x0, tuple(to_frac(b) - to_frac(a) for a, b in zip(as_vec(x0), as_vec(x))), cap=True)

    def ray_restrict(self, x, u):
        return self._pull(x, as_vec(u), cap=False)

    def _pull(self, base, direction, cap: bool) -> "ParamPolyFunction":
        b = as_vec(base)
        d = as_vec(direction)
        rows = [((_dot(a, d),), r - _dot(a, b)) for a, r in self.domain.rows]
        rows.append(((Fraction(-1),), Fraction(0)))
        if cap:
            rows.append(((Fraction(1),), Fraction(1)))
        return ParamPolyFunction(
            self.workspace,
            1,
            self.normals,
            [off.pullback(b, d) for off in self.offsets],
            Polyhedron(1, rows),
            name=f"{self.name}|segment" if self.name else "",
        )

    def shift_arg(self, m):
        mm = as_vec(m)
        return ParamPolyFunction(
            self.workspace,
            self.xdim,
            self.normals,
            [off.shift(mm) for off in self.offsets],
            self.domain.shift(mm),
            name=self.name,
        )


class EpiVectorFunction(SetFunction):
    """Epigraphical extension of a vector function: f(x) = psi(x) + C on S."""

    def __init__(
        self,
        workspace: Workspace,
        xdim: int,
        components: Iterable[ConvexPWL],
        domain: Optional[Polyhedron] = None,
        name: str = "",
        declared_convex: bool = True,
    ):
        super().__init__()
        self.workspace = workspace
        self.xdim = xdim
        self.components = tuple(components)
        if len(self.components) != workspace.dim:
            raise LatticeError("need one component per image dimension")
        self.domain = domain if domain is not None else Polyhedron.whole(xdim)
        self.is_exact = True
        self.declared_convex = declared_convex
        self.name = name

    def psi(self, x: Sequence) -> Vec:
        xx = as_vec(x)
        return tuple(c.value(xx) for c in self.components)

    def _eval(self, x: Vec) -> UpperSet:
        if not self.domain.contains(x):
            return self.workspace.empty_set()
        return self.workspace.translated_cone(self.psi(x))

    def scalarize(self, zstar, x):
        xx = as_vec(x)
        if not self.domain.contains(xx):
            return PLUS_INF
        return ExtReal(-_dot(as_vec(zstar), self.psi(xx)))

    def restrict(self, x0, x):
        return self._pull(
            x0,
            tuple(to_frac(b) - to_frac(a) for a, b in zip(as_vec(x0), as_vec(x))),
            cap=True,
        )

    def ray_restrict(self, x, u):
        return self._pull(x, as_vec(u), cap=False)

    def _pull(self, base, direction, cap: bool) -> "EpiVectorFunction":
        b = as_vec(base)
        d = as_vec(direction)
        rows = [((_dot(a, d),), r - _dot(a, b)) for a, r in self.domain.rows]
        rows.append(((Fraction(-1),), Fraction(0)))
        if cap:
            rows.append(((Fraction(1),), Fraction(1)))
        return EpiVectorFunction(
            self.workspace,
            1,
            [c.pullback(b, d) for c in self.components],
            Polyhedron(1, rows),
            name=f"{self.name}|segment" if self.name else "",
            declared_convex=self.declared_convex,
        )

    def shift_arg(self, m):
        mm = as_vec(m)
        return EpiVectorFunction(
            self.workspace,
            self.xdim,
            [c.shift(mm) for c in self.components],
            self.domain.shift(mm),
            name=self.name,
            declared_convex=self.declared_convex,
        )

    def as_parampoly(self) -> ParamPolyFunction:
        """Exact conversion when every cone facet normal is componentwise <= 0."""
        normals = self.workspace.cone.facet_normals
        offsets = []
        for n in normals:
            if any(c > 0 for c in n):
                raise LatticeError(
                    "conversion requires componentwise nonpositive facet normals"
                )
            pieces_per_comp = []
            for k, comp in enumerate(self.components):
                w = to_frac(n[k])
                if w == 0:
                    pieces_per_comp.append([((Fraction(0),) * self.xdim, Fraction(0))])
                else:
                    # w < 0 turns the max-of-affine into a min-of-affine
                    pieces_per_comp.append(
                        [(tuple(w * c for c in cf), w * k0) for cf, k0 in comp.pieces]
                    )
            combos = [((Fraction(0),) * self.xdim, Fraction(0))]
            for group in pieces_per_comp:
                combos = [
                    (tuple(a + b for a, b in zip(c0, c1)), k0 + k1)
                    for c0, k0 in combos
                    for c1, k1 in group
                ]
            offsets.append(ConcavePWL(combos))
        return ParamPolyFunction(
            self.workspace, self.xdim, normals, offsets, self.domain, name=self.name
        )


class OracleFunction(SetFunction):
    """Numeric oracle: an evaluator handle returning rational upper sets."""

    def __init__(
        self,
        workspace: Workspace,
        xdim: int,
        evaluator: Callable[[Vec], UpperSet],
        declared_convex: bool = True,
        tolerance: object = Fraction(1, 10**6),
        name: str = "",
    ):
        super().__init__()
        self.workspace = workspace
        self.xdim = xdim
        self.evaluator = evaluator
        self.is_exact = False
        self.declared_convex = declared_convex
        self.tolerance = to_frac(tolerance)
        self.name = name

    def _eval(self, x: Vec) -> UpperSet:
        try:
            value = self.evaluator(x)
        except Exception as exc:  # noqa: BLE001 - oracle errors are wrapped
            raise OracleFailure(str(exc)) from exc
        if not isinstance(value, UpperSet):
            raise OracleFailure("oracle evaluator must return an UpperSet")
        return value

    def restrict(self, x0, x):
        b = as_vec(x0)
        d = tuple(to_frac(q) - to_frac(p) for p, q in zip(b, as_vec(x)))

        def seg_eval(t: Vec) -> UpperSet:
            tt = t[0]
            if tt < 0 or tt > 1:
                return self.workspace.empty_set()
            return self.eval(tuple(p + tt * q for p, q in zip(b, d)))

        return OracleFunction(
            self.workspace, 1, seg_eval, self.declared_convex, self.tolerance,
            name=f"{self.name}|segment" if self.name else "",
        )

    def ray_restrict(self, x, u):
        b = as_vec(x)
        d = as_vec(u)

        def ray_eval(t: Vec) -> UpperSet:
            tt = t[0]
            if tt < 0:
                return self.workspace.empty_set()
            return self.eval(tuple(p + tt * q for p, q in zip(b, d)))

        return OracleFunction(
            self.workspace, 1, ray_eval, self.declared_convex, self.tolerance,
            name=self.name,
        )

    def shift_arg(self, m):
        mm = as_vec(m)
        return OracleFunction(
            self.workspace,
            self.xdim,
            lambda x: self.eval(tuple(p + q for p, q in zip(mm, x))),
            self.declared_convex,
            self.tolerance,
            name=self.name,
        )


class FiniteInfFunction(SetFunction):
    """Pointwise lattice infimum of finitely many set-valued functions."""

    def __init__(self, members: Sequence[SetFunction], name: str = ""):
        super().__init__()
        if not members:
            raise EmptyTranslationSet("need at least one member")
        self.members = tuple(members)
        self.workspace = members[0].workspace
        self.xdim = members[0].xdim
        self.is_exact = all(m.is_exact for m in members)
        self.declared_convex = False
        self.name = name

    def _eval(self, x: Vec) -> UpperSet:
        return inf_family(self.workspace, [m.eval(x) for m in self.members])

    def scalarize(self, zstar, x):
        return ext_min(m.scalarize(zstar, x) for m in self.members)

    def restrict(self, x0, x):
        return FiniteInfFunction([m.restrict(x0, x) for m in self.members], name=self.name)

    def ray_restrict(self, x, u):
        return FiniteInfFunction([m.ray_restrict(x, u) for m in self.members], name=self.name)

    def shift_arg(self, m):
        return FiniteInfFunction([f.shift_arg(m) for f in self.members], name=self.name)


# ---------------------------------------------------------------------------
# Derived operations
# ---------------------------------------------------------------------------


def level_function(f: SetFunction, zstar: Sequence, x: Sequence) -> UpperSet:
    """The halfspace {z : scalarization <= -<z*, z>} (∅ / Z at infinite values)."""
    phi = f.scalarize(zstar, x)
    return level_set(f.workspace, zstar, phi)


def level_set(workspace: Workspace, zstar: Sequence, phi: ExtReal) -> UpperSet:
    if phi.is_plus_inf:
        return workspace.empty_set()
    if phi.is_minus_inf:
        return workspace.whole_space()
    return workspace.upper_set([(zstar, -phi.value)])


def inf_translation(
    f: SetFunction, M: Sequence[Sequence], x: Sequence, convex: bool = False
) -> UpperSet:
    """Value of the inf-translation of f by M (or by co M) at x."""
    if not M:
        raise EmptyTranslationSet("translation set must be nonempty")
    if convex:
        return inf_translate(f, M, convex=True).eval(x)
    xx = as_vec(x)
    return inf_family(
        f.workspace, [f.eval(tuple(p + q for p, q in zip(as_vec(m), xx))) for m in M]
    )


def inf_translate(f: SetFunction, M: Sequence[Sequence], convex: bool = False) -> SetFunction:
    """The inf-translation as a function; convex=True hulls M first.

    For parametric polyhedra the convex version is computed exactly by
    eliminating the translation variables from the joint constraint system.
    """
    if not M:
        raise EmptyTranslationSet("translation set must be nonempty")
    pts = [as_vec(m) for m in M]
    if len(pts) == 1:
        return f.shift_arg(pts[0])
    if not convex:
        return FiniteInfFunction([f.shift_arg(m) for m in pts], name=f"inf-translate({f.name})")
    if isinstance(f, EpiVectorFunction):
        f = f.as_parampoly()
    if not isinstance(f, ParamPolyFunction):
        raise LatticeError(
            "exact convex inf-translation needs a parametric-polyhedron function"
        )
    return _fm_translate(f, pts)


def _hull_rows_of_points(xdim: int, pts: List[Vec]):
    """H-rep rows of the convex hull of finitely many points in X."""
    if xdim == 1:
        vals = [p[0] for p in pts]
        return [((Fraction(1),), max(vals)), ((Fraction(-1),), -min(vals))]
    hpts = []
    for p in pts:
        den = p[0].denominator * p[1].denominator
        hpts.append(reduce_point(int(p[0] * den), int(p[1] * den), den))
    facets = _geom_py.hrep_from_vrep(hpts, [])
    return [((Fraction(a), Fraction(b)), Fraction(cn, cd)) for a, b, cn, cd in facets]


def fourier_motzkin(rows, k: int):
    """Eliminate the first k columns from rows (coefs, const) with sense <=."""
    for _ in range(k):
        pos, neg, zero = [], [], []
        for coefs, const in rows:
            c = coefs[0]
            if c > 0:
                pos.append((coefs, const))
            elif c < 0:
                neg.append((coefs, const))
            else:
                zero.append((coefs[1:], const))
        combined = []
        for cp, kp in pos:
            for cn, kn in neg:
                lam = -cn[0] / cp[0]
                coefs = tuple(lam * a + b for a, b in zip(cp[1:], cn[1:]))
                combined.append((coefs, lam * kp + kn))
        rows = _dedupe_rows(zero + combined)
    return rows


def _dedupe_rows(rows):
    seen = {}
    for coefs, const in rows:
        scale = None
        for c in coefs:
            if c != 0:
                scale = abs(c)
                break
        if scale is None:
            if const < 0:
                key = (coefs, Fraction(-1))
                seen.setdefault(key, (coefs, Fraction(-1)))
            continue
        norm = (tuple(c / scale for c in coefs), const / scale)
        key = norm[0]
        cur = seen.get(key)
        if cur is None or norm[1] < cur[1]:
            seen[key] = norm
    return list(seen.values())


def _fm_translate(f: ParamPolyFunction, pts: List[Vec]) -> ParamPolyFunction:
    """Exact inf-translation by co(pts) via variable elimination."""
    xdim = f.xdim
    zdim = f.workspace.dim
    zero_x = (Fraction(0),) * xdim
    zero_z = (Fraction(0),) * zdim
    rows = []
    # value constraints: <N_i, z> <= piece(m + x) for every piece
    for n, off in zip(f.normals, f.offsets):
        nz = tuple(Fraction(c) for c in n)
        for coef, const in off.pieces:
            rows.append((tuple(-c for c in coef) + nz + tuple(-c for c in coef), const))
    # domain rows: <a, m + x> <= r
    for a, r in f.domain.rows:
        rows.append((a + zero_z + a, r))
    # m ranges over the hull of the translation points
    for a, r in _hull_rows_of_points(xdim, pts):
        rows.append((a + zero_z + zero_x, r))
    out = fourier_motzkin(rows, xdim)
    groups = {}
    dom_rows = []
    infeasible = False
    for coefs, const in out:
        nz = coefs[:zdim]
        nx = coefs[zdim:]
        if all(c == 0 for c in nz):
            if all(c == 0 for c in nx):
                if const < 0:
                    infeasible = True
                continue
            dom_rows.append((nx, const))
            continue
        n = _primitive_dir(nz)
        scale = None
        for raw, prim in zip(nz, n):
            if prim != 0:
                scale = to_frac(raw) / prim
                break
        piece = (tuple(-c / scale for c in nx), const / scale)
        groups.setdefault(n, []).append(piece)
    if infeasible:
        dom_rows = [((Fraction(0),) * xdim, Fraction(-1))]
    normals = sorted(groups)
    offsets = [ConcavePWL(groups[n]) for n in normals]
    if not normals:
        # every value is the whole space on the domain
        normals = []
        offsets = []
    g = ParamPolyFunction(
        f.workspace,
        xdim,
        normals,
        offsets,
        Polyhedron(xdim, dom_rows),
        name=f"inf-translate({f.name}; co M)",
    )
    return g


# ---------------------------------------------------------------------------
# Lower-semicontinuity probes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LscProbe:
    """Finite stand-in for the neighborhood base: radii shrinking to zero."""

    radii: Tuple[Fraction, ...] = (
        Fraction(1, 2),
        Fraction(1, 4),
        Fraction(1, 8),
        Fraction(1, 32),
        Fraction(1, 128),
    )
    samples_per_radius: int = 4
    tolerance: Fraction = Fraction(1, 10**6)

    def __post_init__(self):
        rs = tuple(to_frac(r) for r in self.radii)
        if any(r <= 0 for r in rs) or any(a <= b for a, b in zip(rs, rs[1:])):
            raise LatticeError("radii must be positive and strictly decreasing")
        object.__setattr__(self, "radii", rs)
        if self.samples_per_radius < 1:
            raise LatticeError("need at least one sample per radius")


@dataclass(frozen=True)
class ProbeResult:
    holds: bool
    certified: bool
    counterexample: Optional[dict] = None

    @property
    def approximate(self) -> bool:
        return not self.certified


def _segment_samples(radius: Fraction, count: int):
    return [radius * Fraction(k, count) for k in range(1, count + 1)]


def lattice_lsc_probe(
    f: SetFunction, x0: Sequence, x: Sequence, probe: Optional[LscProbe] = None
) -> ProbeResult:
    """Checks f(x0) ≼ liminf of the segment function at 0.

    Exact constructors are certified: their offsets vary continuously and
    their domains are closed, so the liminf never exceeds the value.  Oracle
    functions are sampled; sampling can refute or support, never certify.
    """
    probe = probe or LscProbe()
    g = f.restrict(x0, x)
    if g.is_exact:
        return ProbeResult(holds=True, certified=True)
    v0 = g.eval((Fraction(0),))
    hulls = []
    for r in probe.radii:
        values = [g.eval((t,)) for t in _segment_samples(r, probe.samples_per_radius)]
        values.append(v0)
        hulls.append(inf_family(f.workspace, values))
    liminf = sup_family(f.workspace, hulls)
    if v0.leq(liminf):
        return ProbeResult(holds=True, certified=False)
    return ProbeResult(
        holds=False,
        certified=False,
        counterexample={"radius": probe.radii[-1], "liminf": liminf.to_json()},
    )


def cminus_lsc_probe(
    f: SetFunction,
    x0: Sequence,
    x: Sequence,
    directions,
    probe: Optional[LscProbe] = None,
):
    """Scalar lower-semicontinuity of each scalarization along the segment at 0.

    Returns {direction: ProbeResult}.  A direction with value +∞ at 0 fails
    exactly when nearby sampled values stay bounded (the value jumps down in
    the limit); exact constructors are certified to hold.
    """
    probe = probe or LscProbe()
    g = f.restrict(x0, x)
    results = {}
    for zstar in directions:
        z = tuple(zstar)
        if g.is_exact:
            results[z] = ProbeResult(holds=True, certified=True)
            continue
        phi0 = g.scalarize(z, (Fraction(0),))
        if phi0.is_minus_inf:
            results[z] = ProbeResult(holds=True, certified=False)
            continue
        if phi0.is_plus_inf:
            threshold = ExtReal(1 / probe.tolerance)
        else:
            threshold = ExtReal(phi0.value - probe.tolerance)
        refuted = True
        for r in probe.radii:
            vals = [
                g.scalarize(z, (t,))
                for t in _segment_samples(r, probe.samples_per_radius)
            ]
            if not any(v <= threshold for v in vals):
                refuted = False
                break
        if refuted:
            results[z] = ProbeResult(
                holds=False,
                certified=False,
                counterexample={"radius": probe.radii[-1], "direction": z},
            )
        else:
            results[z] = ProbeResult(holds=True, certified=False)
    return results
