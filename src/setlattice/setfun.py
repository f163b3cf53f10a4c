"""Set-valued functions X -> G(Z, C): constructors, evaluation, scalarization,
inf-translation, segment restriction and semicontinuity probes.

Three constructor classes: parametric polyhedra and epigraphical vector
extensions, the two exact row functions, and numeric oracles (sampled,
approximate-flagged).  A vector function psi is a set function, its own
epigraphical extension f(x) = psi(x) + C, ∅ outside its domain: the exact
one reads psi off its row record, an oracle calls its handle once per point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from operator import mul
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .extres import ExtReal, ext_min
from .kernel import (
    GEOMETRY,
    ArityMismatch,  # re-exported: the arity errors of set functions
    LatticeError,
    NormalOutsideDualCone,
    Point,
    UpperSet,
    Vec,
    Workspace,
    _check_lengths,
    _dot,
    _facet_normal,
    _int_dir,
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


# the numeric tolerance of an oracle that is given none
DEFAULT_TOLERANCE = Fraction(1, 10**6)


def _components(workspace: Workspace, xdim: int, components) -> tuple:
    """The components of a vector function: one per image coordinate, of xdim arguments."""
    comps = tuple(components)
    if len(comps) != workspace.dim:
        raise LatticeError("need one component per image dimension")
    _check_lengths(xdim, (c for comp in comps for c, _ in comp.rows), "a component piece")
    return comps


# ---------------------------------------------------------------------------
# Halfspace systems in the argument space X
# ---------------------------------------------------------------------------


class Polyhedron:
    """A polyhedron {x : <a_i, x> <= r_i} in the argument space.

    Each row is kept as integers (a, r, s), one scale s >= 1 per row: the
    row is <a/s, x> <= r/s, so membership of x = k/d is <a, k> <= r d.
    ``rows`` is the Fraction view."""

    __slots__ = ("dim", "irows")

    def __init__(self, dim: int, rows: Iterable[Tuple[Sequence, object]] = ()):
        rows = [(tuple(a), r) for a, r in rows]
        _check_lengths(dim, (a for a, _ in rows), "a domain row")
        self.dim = dim
        self.irows = tuple((k[:-1], k[-1], s) for k, s in (_int_dir((*a, r)) for a, r in rows))

    @property
    def rows(self) -> Tuple[Tuple[Vec, Fraction], ...]:
        return tuple((tuple(Fraction(c, s) for c in a), Fraction(r, s)) for a, r, s in self.irows)

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
        k, d = _int_dir(x)
        _check_lengths(self.dim, (k,), "a point")
        return all(sum(map(mul, a, k)) <= r * d for a, r, _ in self.irows)

    def compose(self, base: Vec, cols: Sequence[Vec], extra=()) -> "Polyhedron":
        """The polyhedron {y : base + Σ_j y_j cols_j in self}, cut by the y-rows extra."""
        k, d = _int_dir([*base, *chain(*cols)])  # base and cols over one d
        it = iter(k)
        kb, *kcols = [tuple(islice(it, len(base))) for _ in range(len(cols) + 1)]
        # <a/s, kb/d + Σ y_j kc_j/d> <= r/s is <(<a, kc_j>)_j, y> <= r d - <a, kb> over s d
        out = Polyhedron(len(cols), extra)
        out.irows = tuple(
            (tuple(sum(map(mul, a, c)) for c in kcols), r * d - sum(map(mul, a, kb)), s * d)
            for a, r, s in self.irows
        ) + out.irows
        return out


# ---------------------------------------------------------------------------
# Piecewise-linear scalar functions of the argument
# ---------------------------------------------------------------------------


class _PWL:
    """Pointwise best (min or max, per subclass) of finitely many affine forms,
    kept as integer rows (c, k) over one denominator den >= 1: the piece value
    at x is (<c, x> + k)/den."""

    __slots__ = ("rows", "den")

    def __init__(self, pieces: Iterable[Tuple[Sequence, object]]):
        pieces = [(tuple(c), k) for c, k in pieces]
        if not pieces:
            raise LatticeError(f"{self._what} needs at least one piece")
        ints, self.den = _int_dir([v for c, k in pieces for v in (*c, k)])
        it = iter(ints)
        self.rows = tuple((tuple(islice(it, len(c))), next(it)) for c, _ in pieces)

    @classmethod
    def _of_rows(cls, rows, den: int):
        """The trusted path of compose and of the offset scaling: rows as they are."""
        pwl = object.__new__(cls)
        pwl.rows, pwl.den = tuple(rows), den
        return pwl

    @property
    def pieces(self) -> Tuple[Tuple[Vec, Fraction], ...]:
        """The pieces (c, k) as Fractions: the value is the best <c, x> + k."""
        d = self.den
        return tuple((tuple(Fraction(v, d) for v in c), Fraction(k, d)) for c, k in self.rows)

    def at(self, k: Sequence[int], d: int) -> List[int]:
        """The piece values at x = k/d: the integers <c, k> + b d over den*d."""
        return [sum(map(mul, c, k)) + b * d for c, b in self.rows]

    def value(self, x: Sequence) -> Fraction:
        k, d = _int_dir(x)
        return Fraction(self._best(self.at(k, d)), self.den * d)

    def compose(self, base: Vec, cols: Sequence[Vec]):
        """The same kind of function of y, at x = base + Σ_j y_j cols_j."""
        k, d = _int_dir([*base, *chain(*cols)])  # base and cols over one d
        it = iter(k)
        kb, *kcols = [tuple(islice(it, len(base))) for _ in range(len(cols) + 1)]
        return self._of_rows(
            [
                (tuple(sum(map(mul, c, col)) for col in kcols), sum(map(mul, c, kb)) + b * d)
                for c, b in self.rows
            ],
            self.den * d,
        )

    def first_piece(self, values: Sequence[int], u: Sequence[int]):
        """Along the ray t -> x + t u/d from a point x where the pieces take
        ``values`` (integers over den*d, as from ``at``), u integer: the value
        at 0 and the active slope on (0, t1], as integers over den*d, and the
        first crossing t1 (None when that piece stays active)."""
        best = self._best
        lines = [(a, sum(map(mul, c, u))) for a, (c, _) in zip(values, self.rows)]
        alpha = best(values)
        beta = best(s for a, s in lines if a == alpha)
        # a piece with a better slope is behind at 0 and takes over at its crossing
        t1 = min(
            (Fraction(a - alpha, beta - s) for a, s in lines if s != beta and best(s, beta) == s),
            default=None,
        )
        return alpha, beta, t1

    def __repr__(self):
        return f"{type(self).__name__}({list(self.pieces)})"


class ConcavePWL(_PWL):
    """Pointwise minimum of finitely many affine forms (concave by construction)."""

    __slots__ = ()
    _best = min
    _what = "a piecewise-linear offset"


class ConvexPWL(_PWL):
    """Pointwise maximum of finitely many affine forms (convex by construction)."""

    __slots__ = ()
    _best = max
    _what = "a piecewise-linear component"


class FirstRows(NamedTuple):
    """The first linear piece of an exact ray t -> f(x + t u), t >= 0:
    f(x + t u) = {z : <normals_i, z> <= (alpha_i + beta_i t)/den} for
    0 <= t <= t1, t1 the first offset bend or domain end (None: neither).
    Integers over one den keep the Dini arithmetic off Fractions; ``slopes``
    are psi's first slopes over den for an epigraphical extension psi + C."""

    normals: tuple
    alpha: List[int]
    beta: List[int]
    den: int
    t1: Optional[Fraction]
    slopes: Optional[List[int]] = None


# ---------------------------------------------------------------------------
# Set-valued functions
# ---------------------------------------------------------------------------


# t-rows (coefficient, bound) of the parameter ranges of restrict and ray_restrict
_HALF_LINE = (((-1,), 0),)
_UNIT_INTERVAL = _HALF_LINE + (((1,), 1),)


class SetFunction:
    """Common interface of the function constructors."""

    workspace: Workspace
    xdim: int
    is_exact: bool = True
    declared_convex: bool = True
    tolerance: Fraction = Fraction(0)  # an oracle's numeric tolerance
    name: str = ""

    def __init__(self):
        self._cache = {}  # kernel.Point record per argument, keyed by its (k, d)
        self._rays = {}  # calculus._Ray per (x, u), keyed by their (k, d)

    def point(self, x: Sequence) -> Point:
        """The memo record of the argument x; a Point is keyed as it is."""
        key = _int_dir(x)
        p = self._cache.get(key)
        if p is None:
            _check_lengths(self.xdim, key[:1], "an argument")
            p = self._cache[key] = Point(*key)
        return p

    def eval(self, x: Sequence) -> UpperSet:
        return self.value_at(self.point(x))

    def value_at(self, p: Point) -> UpperSet:
        """f(x) for the record p of x."""
        if p.value is None:
            p.value = self._eval(p)
        return p.value

    def _eval(self, p: Point) -> UpperSet:
        raise NotImplementedError

    def scalarize(self, zstar: Sequence, x: Sequence) -> ExtReal:
        """The scalarization value inf{-<z*, z> : z in f(x)} (+∞ iff f(x) = ∅)."""
        return self.phi_at(self.point(x), zstar)

    def phi_at(self, p: Point, zstar: Sequence) -> ExtReal:
        """φ(x, z*) for the record p of x, kept in its row per z*."""
        z = tuple(zstar)
        phi = p.phi.get(z)
        if phi is None:
            phi = p.phi[z] = self._scalarize(p, z)
        return phi

    def _scalarize(self, p: Point, z: tuple) -> ExtReal:
        return self.value_at(p).neg_support(z)

    def _compose(self, base: Vec, cols: Sequence[Vec], extra) -> "SetFunction":
        """The function y -> f(base + Σ_j y_j cols_j), ∅ where a y-row of extra fails."""
        raise NotImplementedError

    def restrict(self, x0: Sequence, x: Sequence) -> "SetFunction":
        """The segment function t -> f(x0 + t(x - x0)) on [0, 1], ∅ outside."""
        b = as_vec(x0)
        return self._compose(b, (tuple(q - p for p, q in zip(b, as_vec(x))),), _UNIT_INTERVAL)

    def ray_restrict(self, x: Sequence, u: Sequence) -> "SetFunction":
        """The ray function t -> f(x + t*u) for t >= 0 (no [0,1] cap)."""
        return self._compose(as_vec(x), (as_vec(u),), _HALF_LINE)

    def shift_arg(self, m: Sequence) -> "SetFunction":
        """The function x -> f(m + x)."""
        n = self.xdim
        units = tuple(tuple(Fraction(int(i == j)) for i in range(n)) for j in range(n))
        return self._compose(as_vec(m), units, ())


class RowFunction(SetFunction):
    """An exact function whose value is a system of rows over piecewise-linear
    functions ``pwls`` of x, ∅ outside a domain polyhedron.  A subclass reads
    the rows off the PWL values and slopes through one hook, ``_rows``."""

    def __init__(
        self, workspace: Workspace, xdim: int, pwls: tuple, domain: Optional[Polyhedron], name: str
    ):
        super().__init__()
        self.workspace = workspace
        self.xdim = xdim
        self.pwls = pwls
        self.domain = domain if domain is not None else Polyhedron.whole(xdim)
        self.name = name

    def _rows(self, values: List[int], slopes: List[int], den: int, t1) -> FirstRows:
        """The rows of f(x + t u) from the PWL values at x and their first
        slopes along u, integers over den, and t1."""
        raise NotImplementedError

    def _pieces(self, p: Point) -> List[List[int]]:
        """The piece values of every PWL at f's record p, evaluated once per record."""
        if p.pieces is None:
            p.pieces = [pwl.at(p.k, p.d) for pwl in self.pwls]
        return p.pieces

    def _rows_along(self, p: Point, ku, du: int, ends=()) -> FirstRows:
        """The first rows of the ray t -> f(x + t ku/du) from f's record p of x,
        the domain aside: t1 is the first PWL bend or the least of ends."""
        d = lcm(p.d, du)
        sx, ku = d // p.d, [c * (d // du) for c in ku]  # values and ku over one d
        den = lcm(*(pwl.den for pwl in self.pwls))
        firsts = [
            (pwl.first_piece([a * sx for a in vals] if sx > 1 else vals, ku), den // pwl.den)
            for pwl, vals in zip(self.pwls, self._pieces(p))
        ]
        values, slopes = ([first[i] * s for first, s in firsts] for i in (0, 1))
        bends = [t for (*_, t), _ in firsts if t is not None]
        return self._rows(values, slopes, den * d, min([*ends, *bends], default=None))

    def first_rows(self, x: Sequence, u: Sequence) -> Optional[FirstRows]:
        """The first rows of the ray t -> f(x + t u); None if it leaves the domain at once."""
        p, (ku, du) = self.point(x), _int_dir(u)
        # a row <a, k/d + t ku/du> <= r of x = k/d ends the ray at t = (r d - <a, k>) du/(<a, ku> d)
        ends = [
            Fraction((r * p.d - sum(map(mul, a, p.k))) * du, au * p.d)
            for a, r, _ in self.domain.irows
            if (au := sum(map(mul, a, ku))) > 0
        ]
        if ends and min(ends) <= 0:
            return None
        return self._rows_along(p, ku, du, ends)

    def _eval(self, p: Point) -> UpperSet:
        ws = self.workspace
        if not self.domain.contains(p):
            return ws.empty_set()
        # the normals are primitive and in C^- by construction, so the rows
        # skip the checks of Workspace.upper_set
        rows = self._rows_along(p, (0,) * len(p.k), 1)
        facet = ws.geom.facet
        return UpperSet(ws, [facet(n, a, rows.den) for n, a in zip(rows.normals, rows.alpha)])

    def _compose(self, base, cols, extra):
        # the trusted path: this function's fields with the composed PWLs and
        # domain, and empty memos; the constructor's checks are not rerun
        g = object.__new__(type(self))
        g.__dict__.update(
            self.__dict__,
            xdim=len(cols),
            domain=self.domain.compose(base, cols, extra),
            pwls=tuple(p.compose(base, cols) for p in self.pwls),
            _cache={},
            _rays={},
        )
        return g


class ParamPolyFunction(RowFunction):
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
        normals = tuple(normals)
        offsets = tuple(offsets)
        _check_lengths(workspace.dim, normals, "a normal")
        if len(offsets) != len(normals):
            raise LatticeError("need one offset per normal")
        _check_lengths(xdim, (c for off in offsets for c, _ in off.rows), "an offset piece")
        self.normals = tuple(_primitive_dir(n) for n in normals)
        for n in self.normals:
            if not workspace.cone.in_dual(n):
                raise NormalOutsideDualCone(f"normal {n} is not in C^-")
        offsets = tuple(map(_primitive_offset, normals, offsets))
        super().__init__(workspace, xdim, offsets, domain, name)

    @property
    def offsets(self) -> Tuple[ConcavePWL, ...]:
        return self.pwls

    def _rows(self, values, slopes, den, t1):
        """The normals N_i, with the offset values and slopes."""
        return FirstRows(self.normals, values, slopes, den, t1)


def _primitive_offset(normal, offset: ConcavePWL) -> ConcavePWL:
    """normal = (g/den)*n for the primitive n, so <normal, z> <= offset(x) is
    <n, z> <= offset(x)*den/g, as in Workspace.upper_set."""
    k, den = _int_dir(normal)
    g = gcd(*k)
    if g == den:
        return offset
    return ConcavePWL._of_rows(
        [(tuple(den * c for c in cf), den * b) for cf, b in offset.rows], offset.den * g
    )


class VectorFunction(SetFunction):
    """A vector-valued map psi on a domain in X, exact PWL or numeric oracle,
    and its own epigraphical extension: as a set function f(x) = psi(x) + C."""

    def psi_at(self, x: Sequence) -> Optional[Tuple[Tuple[int, ...], int]]:
        """psi(x) in the integer form (k, d) of kernel._int_dir, None outside the domain."""
        raise NotImplementedError

    def psi(self, x: Sequence) -> Optional[Vec]:
        v = self.psi_at(x)
        return None if v is None else tuple(Fraction(c, v[1]) for c in v[0])

    def domain_contains(self, x: Sequence) -> bool:
        return self.psi_at(x) is not None


class EpiVectorFunction(RowFunction, VectorFunction):
    """An exact piecewise-linear vector function psi on a domain S, which is
    its own epigraphical extension: as a set function f(x) = psi(x) + C on S,
    ∅ outside.  psi, f(x) and the first rows read one evaluation of the
    components per point record."""

    def __init__(
        self,
        workspace: Workspace,
        xdim: int,
        components: Iterable[ConvexPWL],
        domain: Optional[Polyhedron] = None,
        name: str = "",
        declared_convex: bool = True,
    ):
        super().__init__(workspace, xdim, _components(workspace, xdim, components), domain, name)
        self.declared_convex = declared_convex

    @property
    def components(self) -> Tuple[ConvexPWL, ...]:
        return self.pwls

    def psi_at(self, x: Sequence) -> Optional[Tuple[Tuple[int, ...], int]]:
        p = self.point(x)
        if not self.domain.contains(p):
            return None
        den = lcm(*(c.den for c in self.pwls))
        values = [c._best(v) * (den // c.den) for c, v in zip(self.pwls, self._pieces(p))]
        g = gcd(den * p.d, *values)
        return tuple(c // g for c in values), den * p.d // g

    def _rows(self, values, slopes, den, t1):
        """psi + t s + C as rows over the facet normals n of C:
        alpha_n = <n, psi>, beta_n = <n, s>; s is kept for vector_dini."""
        normals = self.workspace.cone.facet_normals
        alpha = [sum(map(mul, n, values)) for n in normals]
        beta = [sum(map(mul, n, slopes)) for n in normals]
        return FirstRows(normals, alpha, beta, den, t1, slopes)

    def as_parampoly(self) -> ParamPolyFunction:
        """Exact conversion when every cone facet normal is componentwise <= 0."""
        normals = self.workspace.cone.facet_normals
        offsets = []
        for n in normals:
            if any(c > 0 for c in n):
                raise LatticeError("conversion requires componentwise nonpositive facet normals")
            combos = [((Fraction(0),) * self.xdim, Fraction(0))]
            for w, comp in zip(n, self.components):
                if w:  # w < 0 turns the max-of-affine into a min-of-affine
                    combos = [
                        (tuple(a + w * b for a, b in zip(c0, c1)), k0 + w * k1)
                        for c0, k0 in combos
                        for c1, k1 in comp.pieces
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
        tolerance: object = DEFAULT_TOLERANCE,
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

    def _call(self, p: Point):
        """The handle's answer at the record p; its errors are OracleFailure."""
        try:
            return self.evaluator(p.x)
        except Exception as exc:  # noqa: BLE001 - oracle errors are wrapped
            raise OracleFailure(str(exc)) from exc

    def _eval(self, p: Point) -> UpperSet:
        value = self._call(p)
        if not isinstance(value, UpperSet):
            raise OracleFailure("oracle evaluator must return an UpperSet")
        return value

    def _compose(self, base, cols, extra):
        params = Polyhedron(len(cols), extra)
        coords = list(zip(base, zip(*cols)))

        def composed(y: Vec) -> UpperSet:
            if not params.contains(y):
                return self.workspace.empty_set()
            return self.eval(tuple(b + _dot(y, c) for b, c in coords))

        return OracleFunction(
            self.workspace, len(cols), composed, self.declared_convex, self.tolerance,
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

    def _eval(self, p: Point) -> UpperSet:
        return inf_family(self.workspace, [m.eval(p) for m in self.members])

    def _scalarize(self, p: Point, z: tuple) -> ExtReal:
        return ext_min(m.scalarize(z, p) for m in self.members)

    def _compose(self, base, cols, extra):
        return FiniteInfFunction(
            [m._compose(base, cols, extra) for m in self.members], name=self.name
        )


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
    _check_lengths(f.xdim, pts, "a translation point")
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


def infimum_over_domain(f: ParamPolyFunction) -> UpperSet:
    """The lattice infimum of f over its whole domain.

    The graph of f is a polyhedron, so the infimum is its projection onto Z:
    every argument column is eliminated, and the elimination finds no
    solution when the domain is empty.
    """
    out = fourier_motzkin([(cx + cz, k) for cx, cz, k in _graph_rows(f)], f.xdim)
    return f.workspace.empty_set() if out is None else f.workspace.upper_set(out)


def _graph_rows(f: ParamPolyFunction):
    """The graph {(x, z) : x in the domain, <N_i, z> <= piece(x) for every
    piece} as integer rows (x-coefficients, z-coefficients, bound), sense <=."""
    zero_z = (0,) * f.workspace.dim
    rows = [
        (tuple(-c for c in cx), tuple(off.den * c for c in n), k)
        for n, off in zip(f.normals, f.offsets)
        for cx, k in off.rows
    ]
    rows += [(a, zero_z, r) for a, r, _ in f.domain.irows]
    return rows


def _hull_rows_of_points(xdim: int, pts: List[Vec]):
    """Integer H-rep rows (a, b), <a, x> <= b, of the convex hull of finitely many points in X."""
    geom = GEOMETRY.get(xdim)
    if geom is None:
        raise LatticeError(f"convex hulls need 1 or 2 argument dimensions, got {xdim}")
    facets, _, _ = geom.hrep_from_vrep([geom.point(p) for p in pts], [])
    # a facet <normal, x> <= cn/cd has cd >= 1
    return [(tuple(c * f[-1] for c in _facet_normal(f)), f[-2]) for f in facets]


def fourier_motzkin(rows, k: int):
    """Eliminate the first k columns from integer rows (coefs, bound), sense <=.

    Each row with a positive first coefficient is combined with each row with
    a negative one, by the integer multipliers |c_0| of the other.  Of the rows
    with one primitive direction coefs/g (g their gcd) only the least bound/g
    stays.  None when a row 0 <= b < 0 shows the system has no solution.
    """
    for _ in range(k):
        pos = [(coefs, b) for coefs, b in rows if coefs[0] > 0]
        neg = [(coefs, b) for coefs, b in rows if coefs[0] < 0]
        out = [(coefs[1:], b) for coefs, b in rows if coefs[0] == 0]
        for cp, bp in pos:
            for cn, bn in neg:
                p, q = -cn[0], cp[0]
                out.append((tuple(p * a + q * c for a, c in zip(cp[1:], cn[1:])), p * bp + q * bn))
        least = {}
        for coefs, b in out:
            g = gcd(*coefs)
            if g == 0:
                if b < 0:
                    return None
                continue
            key = tuple(c // g for c in coefs)
            kept = least.get(key)
            if kept is None or b * kept[0] < kept[2] * g:  # b/g < the kept bound/g
                least[key] = (g, coefs, b)
        rows = [(coefs, b) for _, coefs, b in least.values()]
    return rows


def _fm_translate(f: ParamPolyFunction, pts: List[Vec]) -> ParamPolyFunction:
    """Exact inf-translation by co(pts): the translation m is eliminated from
    <N_i, z> <= piece(m + x), m + x in the domain and m in co(pts)."""
    xdim, zdim = f.xdim, f.workspace.dim
    zero_zx = (0,) * (zdim + xdim)
    rows = [(cx + cz + cx, k) for cx, cz, k in _graph_rows(f)]
    rows += [(a + zero_zx, r) for a, r in _hull_rows_of_points(xdim, pts)]
    out = fourier_motzkin(rows, xdim)
    groups = {}
    dom_rows = []
    # no solution: the empty domain 0 <= -1, and no normals
    for coefs, b in [(zero_zx, -1)] if out is None else out:
        nz, nx = coefs[:zdim], coefs[zdim:]
        g = gcd(*nz)
        if g == 0:
            dom_rows.append((nx, b))
        else:
            # <nz, z> <= b - <nx, x> is <nz/g, z> <= (<-nx, x> + b)/g
            piece = (tuple(Fraction(-c, g) for c in nx), Fraction(b, g))
            groups.setdefault(tuple(c // g for c in nz), []).append(piece)
    # no normals: every value is the whole space on the domain
    normals = sorted(groups)
    return ParamPolyFunction(
        f.workspace,
        xdim,
        normals,
        [ConcavePWL(groups[n]) for n in normals],
        Polyhedron(xdim, dom_rows),
        name=f"inf-translate({f.name}; co M)",
    )


# ---------------------------------------------------------------------------
# Lower-semicontinuity probes
# ---------------------------------------------------------------------------


# a finite stand-in for the neighborhood base of 0: radii shrinking to zero,
# sampled at k r / _LSC_SAMPLES (k = 1.._LSC_SAMPLES), and the margin by which a
# sampled scalarization must drop to refute lower semicontinuity
_LSC_RADII = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 32), Fraction(1, 128))
_LSC_SAMPLES = 4
_LSC_TOLERANCE = Fraction(1, 10**6)


@dataclass(frozen=True)
class ProbeResult:
    holds: bool
    certified: bool


def _segment_samples(radius: Fraction):
    return [radius * Fraction(k, _LSC_SAMPLES) for k in range(1, _LSC_SAMPLES + 1)]


def lattice_lsc_probe(f: SetFunction, x0: Sequence, x: Sequence) -> ProbeResult:
    """Checks f(x0) ≼ liminf of the segment function at 0.

    Exact constructors are certified: their offsets vary continuously and
    their domains are closed, so the liminf never exceeds the value.  Oracle
    functions are sampled; sampling can refute or support, never certify.
    """
    if f.is_exact:
        return ProbeResult(holds=True, certified=True)
    g = f.restrict(x0, x)
    v0 = g.eval((Fraction(0),))
    hulls = [
        inf_family(f.workspace, [g.eval((t,)) for t in _segment_samples(r)] + [v0])
        for r in _LSC_RADII
    ]
    return ProbeResult(holds=v0.leq(sup_family(f.workspace, hulls)), certified=False)


def cminus_lsc_probe(f: SetFunction, x0: Sequence, x: Sequence, directions):
    """Scalar lower-semicontinuity of each scalarization along the segment at 0.

    Returns {direction: ProbeResult}.  A direction with value +∞ at 0 fails
    exactly when nearby sampled values stay bounded (the value jumps down in
    the limit); exact constructors are certified to hold.
    """
    if f.is_exact:
        return {tuple(z): ProbeResult(holds=True, certified=True) for z in directions}
    g = f.restrict(x0, x)
    results = {}
    for zstar in directions:
        z = tuple(zstar)
        phi0 = g.scalarize(z, (Fraction(0),))
        if phi0.is_minus_inf:
            results[z] = ProbeResult(holds=True, certified=False)
            continue
        if phi0.is_plus_inf:
            threshold = ExtReal(1 / _LSC_TOLERANCE)
        else:
            threshold = ExtReal(phi0.value - _LSC_TOLERANCE)
        # refuted when every radius has a sample at or below the threshold
        refuted = all(
            any([g.scalarize(z, (t,)) <= threshold for t in _segment_samples(r)])
            for r in _LSC_RADII
        )
        results[z] = ProbeResult(holds=not refuted, certified=False)
    return results
