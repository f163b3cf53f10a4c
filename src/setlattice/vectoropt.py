"""Vector optimization through epigraphical extensions: efficiency, the
space extended by directions at infinity, vector Dini derivatives as outer
limits, and the vector Stampacchia/Minty corollaries."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import le, mul
from typing import List, Sequence

from .calculus import _ray, scalar_dini, segment_criticals, set_derivative
from .extres import ExtReal
from .kernel import (
    LatticeError,
    UpperSet,
    Vec,
    Workspace,
    _along,
    _dot,
    _int_dir,
    _primitive_dir,
    as_vec,
)
from .setfun import (  # VectorFunction is re-exported: the interface of psi
    EpiVectorFunction,
    OracleFunction,
    SetFunction,
    VectorFunction,
)
from .vi import CandidateSpace, minimal_scan, run_checker

class EmptyGrid(LatticeError):
    pass


class InconsistentLimitData(LatticeError):
    pass


# ---------------------------------------------------------------------------
# Points at infinity
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtendedPoint:
    """A point of Z or an infinite element: a direction up to positive scaling,
    canonicalized to unit L1 norm (the zero direction collapses to the origin)."""

    kind: str  # "fin" | "inf"
    vector: Vec

    @staticmethod
    def finite(v: Sequence) -> "ExtendedPoint":
        return ExtendedPoint("fin", as_vec(v))

    @staticmethod
    def at_infinity(direction: Sequence) -> "ExtendedPoint":
        d = as_vec(direction)
        norm = sum(abs(c) for c in d)
        if norm == 0:
            return ExtendedPoint("fin", d)
        return ExtendedPoint("inf", tuple(c / norm for c in d))

    @property
    def is_infinite(self) -> bool:
        return self.kind == "inf"

    def to_json(self):
        return {"kind": self.kind, "vector": [str(c) for c in self.vector]}


@dataclass
class DiniLimitSet:
    """Cluster values of the vector differential quotient in Z ∪ Z_inf."""

    finite_points: List[Vec] = field(default_factory=list)
    infinite_dirs: List[ExtendedPoint] = field(default_factory=list)
    exact: bool = True
    diagnostic: dict = field(default_factory=dict)

    @property
    def is_empty(self) -> bool:
        return not self.finite_points and not self.infinite_dirs

    def to_json(self):
        return {
            "finite": [[str(c) for c in p] for p in self.finite_points],
            "infinite": [d.to_json() for d in self.infinite_dirs],
            "exact": self.exact,
            "diagnostic": {k: str(v) for k, v in self.diagnostic.items()},
        }


# ---------------------------------------------------------------------------
# Vector-valued functions
# ---------------------------------------------------------------------------


class OracleVectorFunction(OracleFunction, VectorFunction):
    """A numeric oracle psi: the handle (``evaluator``) maps x to a rational
    vector, None outside the domain.  It is its own epigraphical extension
    psi + C and calls the handle once per point record, whose ``pieces`` keep
    the answer, as a row function keeps its piece values there."""

    def psi_at(self, x):
        p = self.point(x)
        if p.pieces is None:
            v = self._call(p)
            p.pieces = [None if v is None else _int_dir(v)]
        return p.pieces[0]

    def _eval(self, p):
        v = self.psi(p)
        return self.workspace.empty_set() if v is None else self.workspace.translated_cone(v)


def epigraphical(psi: VectorFunction) -> SetFunction:
    """The epigraphical extension x -> psi(x) + C, ∅ outside the domain: every
    vector function is its own.  The name stays for the benchmark tracer."""
    return psi


# ---------------------------------------------------------------------------
# Efficiency
# ---------------------------------------------------------------------------


def efficient_set(psi: VectorFunction, grid: Sequence[Sequence]) -> List[Vec]:
    """Grid points whose value is efficient in psi[grid], in grid order."""
    pairs = [(x, psi.psi_at(x)) for x in map(as_vec, grid)]
    for x, v in pairs:
        if v is None:
            raise EmptyGrid(f"grid point {x} is outside the domain")
    return _efficient(psi.workspace, pairs)


def _efficient(ws: Workspace, pairs: Sequence) -> List:
    """The points x of the (x, psi(x)) pairs whose value is efficient, in
    order; psi(x) is given in integer form (k, d).

    Each value is read once in cone coordinates, key(v) = (<n, v>) over the
    facet normals n of C = {d : <n, d> <= 0}, as integers over one common
    denominator of all values.  Then psi(x) lies in psi(y) + C
    off y + (C ∩ -C) exactly when key(x) <= key(y) componentwise and the keys
    differ, so x is efficient iff its key is maximal.  A key above another is
    lexicographically larger, so one descending pass finds the maximal keys.
    """
    if not pairs:
        raise EmptyGrid("efficiency scan needs a nonempty grid")
    normals = ws.cone.facet_normals
    den = lcm(*(d for _, (_, d) in pairs))
    keys = [(x, tuple(sum(map(mul, n, k)) * (den // d) for n in normals)) for x, (k, d) in pairs]
    maximal = set()
    for kx in sorted({kx for _, kx in keys}, reverse=True):
        if not any(all(map(le, kx, m)) for m in maximal):
            maximal.add(kx)
    return [x for x, kx in keys if kx in maximal]


def efficiency_minimality_bridge(
    psi: VectorFunction, grid: Sequence[Sequence], directions
) -> dict:
    """Cross-check: a grid point is efficient iff it is a minimizer of psi + C.

    "efficient" is the efficient_set list, in grid order."""
    eff = efficient_set(psi, grid)
    space = CandidateSpace.of(grid)
    reports = minimal_scan(psi, space.points, space, directions)
    mismatches = [
        x for x, rep in zip(space.points, reports) if rep.conditions["a"] != (x in eff)
    ]
    return {"efficient": eff, "agrees": not mismatches, "mismatches": mismatches}


def eff_plus_cone_identity(psi: VectorFunction, grid: Sequence[Sequence]) -> bool:
    """The union of minimal values equals the efficient values plus the cone.

    The minimal values come from the lattice order of the kernel, not from
    the cone coordinates of efficient_set, so each side checks the other."""
    tc = psi.workspace.translated_cone
    values = {tc(psi.psi(x)) for x in map(as_vec, grid)}
    minimal_values = {v for v in values if not any(w.leq(v) and w != v for w in values)}
    eff_values = {tc(psi.psi(x)) for x in efficient_set(psi, grid)}
    return minimal_values == eff_values


# ---------------------------------------------------------------------------
# Vector Dini derivatives
# ---------------------------------------------------------------------------


def vector_dini(psi: VectorFunction, x0: Sequence, u: Sequence) -> DiniLimitSet:
    """Outer limit of the quotient (psi(x0 + t u) - psi(x0)) / t as t drops to 0.

    Exact PWL data stabilizes to a single finite point; oracle trails are
    classified as convergent, norm-divergent with a stabilizing direction,
    or undecided.
    """
    if isinstance(psi, EpiVectorFunction):
        # the first rows of psi's own ray hold its first slopes; records are read as they are
        p = psi.point(x0)
        if not psi.domain.contains(p):
            raise LatticeError("base point is outside the domain")
        rows = _ray(psi, p, u).rows(psi)
        if rows is None:
            return DiniLimitSet(exact=True, diagnostic={"note": "no admissible t"})
        slopes = tuple(Fraction(s, rows.den) for s in rows.slopes)
        return DiniLimitSet(finite_points=[slopes], exact=True)
    x0, uu = as_vec(x0), as_vec(u)
    base = psi.psi(x0)
    if base is None:
        raise LatticeError("base point is outside the domain")
    tol = psi.tolerance
    trail = []
    t = Fraction(1)
    for _ in range(24):
        xt = tuple(a + t * b for a, b in zip(x0, uu))
        v = psi.psi(xt)
        if v is not None:
            trail.append(tuple((a - b) / t for a, b in zip(v, base)))
        t = t / 2
    if not trail:
        return DiniLimitSet(exact=False, diagnostic={"note": "no admissible t"})
    tail = trail[-5:]
    norms = [sum(abs(c) for c in q) for q in tail]
    if all(
        max(abs(a - b) for a, b in zip(p, q)) <= tol
        for p, q in zip(tail, tail[1:])
    ):
        return DiniLimitSet(finite_points=[tail[-1]], exact=False)
    blown_up = all(n > 1 / tol for n in norms[-3:])
    growing = all(
        3 * n2 >= 4 * n1 and n2 > n1 for n1, n2 in zip(norms, norms[1:])
    )
    if blown_up or growing:
        dirs = [tuple(c / n for c in q) for q, n in zip(tail, norms) if n > 0]
        if len(dirs) >= 2 and all(
            max(abs(a - b) for a, b in zip(p, q)) <= Fraction(1, 1000)
            for p, q in zip(dirs[:-1], dirs[1:])
        ):
            return DiniLimitSet(
                infinite_dirs=[ExtendedPoint.at_infinity(dirs[-1])],
                exact=False,
                diagnostic={"norm_tail": norms[-1]},
            )
    return DiniLimitSet(exact=False, diagnostic={"note": "undecided", "norm_tail": norms[-1]})


def infdir_plus_cone(workspace: Workspace, z: Sequence) -> UpperSet:
    """The lattice shadow z_inf + C of a direction at infinity.

    Zero gives C; directions outside -C give ∅; otherwise the exact limit of
    the translated cones {t z} + C, a cone generated by C and z.
    """
    zz = as_vec(z)
    if all(c == 0 for c in zz):
        return workspace.cone_set()
    cone = workspace.cone
    if not cone.contains(tuple(-c for c in zz)):
        return workspace.empty_set()
    rays = list(cone.generators) + [_primitive_dir(zz)]
    return UpperSet._from_generators(workspace, [workspace.geom.ORIGIN], rays)


def classify_dini(
    psi: VectorFunction,
    x0: Sequence,
    x: Sequence,
    dlimit: DiniLimitSet,
    directions,
) -> dict:
    """Check the cluster values of the vector quotient against the epigraphical
    derivative: finite limits reproduce it exactly, infinite directions land
    in -C and their cones inside its recession, and mixed limits force the
    lineality space."""
    ws = psi.workspace
    x0 = as_vec(x0)
    xx = as_vec(x)
    u = tuple(b - a for a, b in zip(x0, xx))
    D = set_derivative(psi, x0, u)
    tol = psi.tolerance
    finite_ok = True
    scalar_ok = True
    for z in dlimit.finite_points:
        zc = ws.translated_cone(z)
        if D.exact and dlimit.exact:
            if zc != D.value:
                finite_ok = False
        else:
            if not (zc.leq(D.value) or D.value.leq(zc)):
                finite_ok = False
        for zs in directions:
            lhs = scalar_dini(psi, zs, x0, u)
            rhs = ExtReal(-_dot(as_vec(zs), z))
            if lhs == rhs:
                continue
            if lhs.is_finite and rhs.is_finite and abs(lhs.value - rhs.value) <= tol:
                continue
            scalar_ok = False
    infinite_ok = True
    for d in dlimit.infinite_dirs:
        vec = d.vector
        if not ws.cone.contains(tuple(-c for c in vec)):
            infinite_ok = False
            continue
        shadow = infdir_plus_cone(ws, vec)
        rec = D.value.recession()
        if rec.is_empty:
            infinite_ok = False
            continue
        if not D.exact:
            # a finite quotient sample cannot show the recession the outer
            # limit accrues along its divergence directions; fold them in
            rays = list(rec.rayset) + [_primitive_dir(vec)]
            rec = UpperSet._from_generators(ws, [ws.geom.ORIGIN], rays)
        if not rec.leq(shadow):
            infinite_ok = False
    mixed_ok = True
    if dlimit.finite_points and dlimit.infinite_dirs:
        for d in dlimit.infinite_dirs:
            if not ws.cone.in_lineality(d.vector):
                mixed_ok = False
    if dlimit.is_empty and dlimit.exact:
        raise InconsistentLimitData("an exact Dini limit set cannot be empty")
    return {
        "finite_matches_derivative": finite_ok,
        "scalar_dini_matches": scalar_ok,
        "infinite_directions_valid": infinite_ok,
        "mixed_forces_lineality": mixed_ok,
        "exact": dlimit.exact and D.exact,
    }


# ---------------------------------------------------------------------------
# Vector Minty principle
# ---------------------------------------------------------------------------

# the segment parameters sampled at every grid point
DEFAULT_T_PARAMS = (Fraction(1, 8), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def vector_minty_check(
    psi: VectorFunction, x0: Sequence, grid: Sequence[Sequence], directions
) -> dict:
    """The three vector Minty forms over grid points and segment parameters.

    (i)  the scalarized form: some scalarization strictly decreases toward
         the base from every differing segment point;
    (ii) the inner form: the vector Dini set at differing segment points
         avoids the cone and its directions at infinity;
    (iii) for a pointed cone, agreement of (i) with efficiency on the grid,
         plus the polyhedral finite-direction Minty check.
    """
    ws = psi.workspace
    x0 = as_vec(x0)
    pts = [as_vec(x) for x in grid]
    p0 = psi.point(x0)
    base_val = psi.psi_at(p0)
    if base_val is None:
        raise LatticeError("base point is outside the domain")
    scalar_ok = inner_ok = single_valued = True
    witnesses, reached = [], [(p0, base_val)]  # (psi's record, psi) of x0 and the segment points
    zero = ExtReal(0)
    for x in pts:
        ts = list(DEFAULT_T_PARAMS)
        if psi.is_exact and x != x0:
            # close the sample under the segment's kinks, where off-grid
            # dominators of piecewise-linear data live, and the endpoint
            crit = segment_criticals(psi, x0, x, directions)
            ts += [t for t in crit if t not in ts] + [Fraction(1)]
        px = psi.point(x)
        u_x, u_back = _along(px, p0, -1), _along(p0, px, -1)  # x - x0 and x0 - x
        for t in ts:
            p = psi.point(_along(p0, u_x, t))
            vt = psi.psi_at(p)
            if vt is None:
                continue
            reached.append((p, vt))
            if vt == base_val:
                continue
            # exact psi reads mvi_M_finite's ray (xt, x0 - xt) = (xt, t u_back): t > 0 moves
            # no sign and no membership in C; oracle psi samples other points under u_back
            u = _along(p0, p, -1) if psi.is_exact else u_back
            if not any(scalar_dini(psi, z, p, u) < zero for z in directions):
                scalar_ok = False
                witnesses.append({"form": "scalar", "x": x, "t": t})
            dl = vector_dini(psi, p, u)
            if len(dl.finite_points) + len(dl.infinite_dirs) != 1 or dl.infinite_dirs:
                single_valued = False
            limits = [*dl.finite_points, *(d.vector for d in dl.infinite_dirs)]
            if any(ws.cone.contains(q) for q in limits):
                inner_ok = False
                witnesses.append({"form": "inner", "x": x, "t": t})
    space = CandidateSpace.of(list(pts) + [p for p, _ in reached], base=x0)
    mvi = run_checker("mvi_M_finite", psi, x0, space, list(ws.cone.facet_normals))
    reached += [(p, v) for p in map(psi.point, pts) if (v := psi.psi_at(p)) is not None]
    is_efficient = p0 in _efficient(ws, reached)
    return {
        "scalar_form": scalar_ok,
        "inner_form": inner_ok,
        "mvi_M_finite": mvi.holds,
        "efficient": is_efficient,
        "pointed_cone": ws.cone.is_pointed,
        "single_valued_quotients": single_valued,
        "agrees_with_efficiency": scalar_ok == is_efficient and mvi.holds == is_efficient,
        "witnesses": witnesses,
        "exact": psi.is_exact,
    }
