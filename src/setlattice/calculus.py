"""Differential quotients, set-valued directional derivatives, scalar Dini
derivatives, and the strong/weak regularity checks.

For exact piecewise-linear data the monotone differential quotient is
analyzed symbolically on a small initial interval (0, t̂) whose endpoint is
the least positive root of the finitely many affine sign conditions that
control the quotient's combinatorial structure; the limit is then read off
exactly.  Oracle functions are sampled on a geometric grid and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .extres import MINUS_INF, PLUS_INF, ExtReal
from .kernel import (
    LatticeError,
    UpperSet,
    Vec,
    as_vec,
    inf_family,
    sup_family,
    to_frac,
)
from .setfun import (
    EpiVectorFunction,
    OracleFunction,
    ParamPolyFunction,
    Polyhedron,
    SetFunction,
    level_set,
)


class NotDeclaredConvex(LatticeError):
    pass


@dataclass
class DerivativeResult:
    """Outcome of a set-valued directional derivative computation."""

    value: UpperSet
    exact: bool
    stabilization_t: Optional[Fraction] = None
    samples: List[Tuple[Fraction, UpperSet]] = field(default_factory=list)
    diagnostic: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "value": self.value.to_json(),
            "exact": self.exact,
            "t_star": None if self.stabilization_t is None else str(self.stabilization_t),
            "samples": [[str(t), s.to_json()] for t, s in self.samples],
            "diagnostic": {k: str(v) for k, v in self.diagnostic.items()},
        }


def diff_quotient(f: SetFunction, x: Sequence, u: Sequence, t) -> UpperSet:
    """(1/t) * (f(x + t u) ÷ f(x)) for t > 0."""
    t = to_frac(t)
    if t <= 0:
        raise LatticeError("quotient parameter must be positive")
    xx = as_vec(x)
    uu = as_vec(u)
    xt = tuple(a + t * b for a, b in zip(xx, uu))
    return f.eval(xt).residual(f.eval(xx)).scale(1 / t)


# ---------------------------------------------------------------------------
# First-order analysis of exact one-parameter families
# ---------------------------------------------------------------------------


def _all_crossings(off, window: Fraction):
    """All crossing parameters of a 1-var min- or max-of-affine inside (0, window)."""
    out = []
    pieces = off.pieces
    for i in range(len(pieces)):
        (si,), ci = pieces[i]
        for j in range(i + 1, len(pieces)):
            (sj,), cj = pieces[j]
            if si == sj:
                continue
            root = (cj - ci) / (si - sj)
            if 0 < root < window:
                out.append(root)
    return out


def _domain_exit(domain: Polyhedron) -> Optional[Fraction]:
    """The upper end of a one-parameter domain (None = unbounded)."""
    hi: Optional[Fraction] = None
    for (a,), r in domain.rows:
        if a > 0:
            bound = r / a
            if hi is None or bound < hi:
                hi = bound
    return hi


def _shape_roots(normals, dim: int, offs):
    """Candidate parameters t at which the system {<N_i, z> <= p_i + q_i t},
    offs = [(p_i, q_i)], changes shape: two parallel rows swap or close the
    set, or a vertex trajectory crosses a third row.  Returns the roots,
    unfiltered (callers keep the range they need), and the vertex
    trajectories v(t) = (x0 + x1 t, y0 + y1 t) as ((x0, x1), (y0, y1))."""
    roots: List[Fraction] = []
    m = len(normals)
    verts = []
    for i in range(m):
        ni = normals[i]
        pi, qi = offs[i]
        for j in range(i + 1, m):
            nj = normals[j]
            pj, qj = offs[j]
            D = 0 if dim == 1 else ni[0] * nj[1] - nj[0] * ni[1]
            if D == 0:
                p, q = (pi - pj, qi - qj) if ni == nj else (pi + pj, qi + qj)
                if q != 0:
                    roots.append(-p / q)
                continue
            vx = ((pi * nj[1] - pj * ni[1]) / D, (qi * nj[1] - qj * ni[1]) / D)
            vy = ((ni[0] * pj - nj[0] * pi) / D, (ni[0] * qj - nj[0] * qi) / D)
            verts.append((vx, vy))
            for nk, (pk, qk) in zip(normals, offs):
                p = nk[0] * vx[0] + nk[1] * vy[0] - pk
                q = nk[0] * vx[1] + nk[1] * vy[1] - qk
                if q != 0:
                    roots.append(-p / q)
    return roots, verts


def _swap_roots(verts, directions) -> List[Fraction]:
    """Parameters t at which two vertex trajectories swap in <z*, v(t)>, per
    z* in directions; unfiltered."""
    roots: List[Fraction] = []
    for z in directions:
        vals = [
            (z[0] * vx[0] + z[1] * vy[0], z[0] * vx[1] + z[1] * vy[1])
            for vx, vy in verts
        ]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                q = vals[i][1] - vals[j][1]
                if q != 0:
                    roots.append((vals[j][0] - vals[i][0]) / q)
    return roots


class _RayAnalysis:
    """Exact structure of t -> f(x + t u) near t = 0+ for a ParamPoly ray:
    on (0, t0] the offsets are alpha_i + beta_i t; sigma_i is the support of
    f(x) in the normal N_i."""

    __slots__ = ("ws", "normals", "alpha", "beta", "sigma", "verts", "t0")

    def __init__(self, g: ParamPolyFunction, exit_t: Optional[Fraction], value_at_base: UpperSet):
        self.ws = g.workspace
        self.normals = g.normals
        self.alpha = []
        self.beta = []
        roots: List[Fraction] = [] if exit_t is None else [exit_t]
        for off in g.offsets:
            a, b, t1 = off.first_piece()
            self.alpha.append(a)
            self.beta.append(b)
            if t1 is not None:
                roots.append(t1)
        # finite: the normal bounds its own system
        self.sigma = [value_at_base.support(n).value for n in self.normals]
        dim = self.ws.dim
        shape, self.verts = _shape_roots(self.normals, dim, list(zip(self.alpha, self.beta)))
        roots.extend(shape)
        rho = [(a - s, b) for a, s, b in zip(self.alpha, self.sigma, self.beta)]
        roots.extend(_shape_roots(self.normals, dim, rho)[0])
        self.t0 = min([r for r in roots if r > 0] + [Fraction(1)])

    def threshold(self, directions) -> Fraction:
        """t0, lowered to the first optimal-basis switch of <z*, v(t)> over directions."""
        t = self.t0
        for r in _swap_roots(self.verts, directions):
            if 0 < r < t:
                t = r
        return t

    def value(self, t: Fraction) -> UpperSet:
        """f(x + t u) for 0 < t <= t0."""
        return self.ws.upper_set(
            [(n, a + b * t) for n, a, b in zip(self.normals, self.alpha, self.beta)]
        )


class _EpiRay:
    """First slopes of the components of an epivector ray, and a t with every
    component affine on (0, that]."""

    __slots__ = ("slopes", "that")

    def __init__(self, g: EpiVectorFunction, exit_t: Optional[Fraction]):
        roots: List[Fraction] = [] if exit_t is None else [exit_t]
        self.slopes = []
        for comp in g.components:
            _, slope, t1 = comp.first_piece()
            self.slopes.append(slope)
            if t1 is not None:
                roots.append(t1)
        self.that = min(roots + [Fraction(1)])


_UNSET = object()
_EXACT_RAYS = (ParamPolyFunction, EpiVectorFunction)


class _Ray:
    """The memo record of one ray t -> f(x + t u), kept in ``f._rays``.

    ``set_derivative``, ``scalar_dini`` and ``first_linear_sample`` fill it
    lazily: the ray's first-order shape, the derivative, and the Dini value
    per z*.  Cached results are shared; callers must not mutate them.
    """

    __slots__ = ("x", "u", "_shape", "derivative", "dini")

    def __init__(self, x: Vec, u: Vec):
        self.x = x
        self.u = u
        self._shape = _UNSET
        self.derivative: Optional[DerivativeResult] = None
        self.dini = {}

    def shape(self, f: SetFunction):
        """A _RayAnalysis or _EpiRay; None when the ray leaves the domain at once.
        f is one of _EXACT_RAYS; ParamPoly rays need f(x) nonempty."""
        if self._shape is _UNSET:
            g = f.ray_restrict(self.x, self.u)
            exit_t = _domain_exit(g.domain)
            if exit_t is not None and exit_t <= 0:
                self._shape = None
            elif isinstance(g, EpiVectorFunction):
                self._shape = _EpiRay(g, exit_t)
            else:
                self._shape = _RayAnalysis(g, exit_t, f.eval(self.x))
        return self._shape


def _ray(f: SetFunction, x: Sequence, u: Sequence) -> _Ray:
    xx = as_vec(x)
    uu = as_vec(u)
    rec = f._rays.get((xx, uu))
    if rec is None:
        f.check_arity(xx)
        f.check_arity(uu)
        rec = f._rays[(xx, uu)] = _Ray(xx, uu)
    return rec


def set_derivative(f: SetFunction, x: Sequence, u: Sequence) -> DerivativeResult:
    """Set-valued directional derivative f'(x, u) = inf over t of the quotient."""
    if not f.declared_convex:
        raise NotDeclaredConvex("directional derivatives need a declared-convex function")
    rec = _ray(f, x, u)
    if rec.derivative is None:
        rec.derivative = _set_derivative(f, rec)
    return rec.derivative


def _set_derivative(f: SetFunction, rec: _Ray) -> DerivativeResult:
    ws = f.workspace
    xx, uu = rec.x, rec.u
    vx = f.eval(xx)
    if vx.is_empty:
        return DerivativeResult(ws.whole_space(), exact=f.is_exact)
    if all(c == 0 for c in uu):
        return DerivativeResult(vx.recession(), exact=f.is_exact)
    if isinstance(f, OracleFunction):
        return _sampled_derivative(f, xx, uu)
    if not isinstance(f, _EXACT_RAYS):
        raise NotDeclaredConvex(
            "exact derivatives are available for parametric and epigraphical functions"
        )
    ana = rec.shape(f)
    if ana is None:
        return DerivativeResult(ws.empty_set(), exact=True)
    if isinstance(ana, _EpiRay):
        teval = ana.that / 2
        value = ws.translated_cone(ana.slopes)
        result = DerivativeResult(value, exact=True)
        q = diff_quotient(f, xx, uu, teval)
        result.samples.append((teval, q))
        if q == value:
            result.stabilization_t = teval
        return result
    teval = ana.t0 / 2
    rho = [
        (a - s) + b * teval for a, s, b in zip(ana.alpha, ana.sigma, ana.beta)
    ]
    probe = [(n, r) for n, r in zip(ana.normals, rho)]
    probe_set = ws.upper_set(probe)
    if probe_set.is_empty:
        return DerivativeResult(
            ws.empty_set(), exact=True, stabilization_t=teval,
            samples=[(teval, ws.empty_set())],
        )
    limit_cons = [
        (n, b)
        for n, a, s, b in zip(ana.normals, ana.alpha, ana.sigma, ana.beta)
        if a == s
    ]
    value = ws.upper_set(limit_cons)
    result = DerivativeResult(value, exact=True)
    q = diff_quotient(f, xx, uu, teval)
    result.samples.append((teval, q))
    tprobe = teval
    for _ in range(3):
        if q == value:
            result.stabilization_t = tprobe
            break
        tprobe = tprobe / 2
        q = diff_quotient(f, xx, uu, tprobe)
    else:
        if q == value:
            result.stabilization_t = tprobe
    return result


def _sampled_derivative(f: OracleFunction, xx, uu) -> DerivativeResult:
    ws = f.workspace
    quotients = []
    ts = []
    t = Fraction(1)
    for _ in range(20):
        quotients.append(diff_quotient(f, xx, uu, t))
        ts.append(t)
        t = t / 2
    value = inf_family(ws, quotients)
    converged = True
    last, prev = quotients[-1], quotients[-2]
    for d in ws.directions:
        a = last.neg_support(d)
        b = prev.neg_support(d)
        if a.is_finite and b.is_finite:
            if abs(a.value - b.value) > f.tolerance:
                converged = False
        elif a != b:
            converged = False
    return DerivativeResult(
        value,
        exact=False,
        samples=list(zip(ts[-3:], quotients[-3:])),
        diagnostic={"converged": converged, "grid_steps": 20},
    )


# ---------------------------------------------------------------------------
# Scalar Dini derivatives
# ---------------------------------------------------------------------------


def scalar_dini(f: SetFunction, zstar: Sequence, x: Sequence, u: Sequence) -> ExtReal:
    """Dini derivative of the scalarization: inf over t of (phi(x+tu) ÷ phi(x))/t."""
    rec = _ray(f, x, u)
    z = as_vec(zstar)
    d = rec.dini.get(z)
    if d is None:
        d = rec.dini[z] = _scalar_dini(f, rec, z)
    return d


def _scalar_dini(f: SetFunction, rec: _Ray, z: Vec) -> ExtReal:
    xx, uu = rec.x, rec.u
    vx = f.eval(xx)
    if vx.is_empty:
        return MINUS_INF
    if all(c == 0 for c in uu):
        phi0 = vx.neg_support(z)
        return MINUS_INF if phi0.is_minus_inf else ExtReal(0)
    if isinstance(f, OracleFunction):
        return _sampled_scalar_dini(f, z, xx, uu)
    if not isinstance(f, _EXACT_RAYS):
        raise NotDeclaredConvex(
            "exact scalar derivatives are available for parametric and epigraphical functions"
        )
    ana = rec.shape(f)
    if ana is None:
        return PLUS_INF
    if isinstance(ana, _EpiRay):
        return ExtReal(sum((-w * s for w, s in zip(z, ana.slopes)), Fraction(0)))
    phi0 = vx.neg_support(z)
    if phi0.is_minus_inf:
        return MINUS_INF
    that = ana.threshold((z,))
    ta = that / 2
    tb = that / 4
    pa = ana.value(ta).neg_support(z)
    pb = ana.value(tb).neg_support(z)
    if pa.is_minus_inf or pb.is_minus_inf:
        return MINUS_INF
    if pa.is_plus_inf or pb.is_plus_inf:
        return PLUS_INF
    slope = (pa.value - pb.value) / (ta - tb)
    if pb.value - slope * tb != phi0.value:
        raise LatticeError(
            "internal error: scalarization not affine on the certified interval"
        )
    return ExtReal(slope)


def _sampled_scalar_dini(f: OracleFunction, z, xx, uu) -> ExtReal:
    from .extres import residual as ext_residual

    phi0 = f.eval(xx).neg_support(z)
    best = PLUS_INF
    t = Fraction(1)
    for _ in range(20):
        xt = tuple(a + t * b for a, b in zip(xx, uu))
        phit = f.eval(xt).neg_support(z)
        quotient = ext_residual(phit, phi0)
        if quotient.is_finite:
            quotient = ExtReal(quotient.value / t)
        val = quotient
        if val < best:
            best = val
        t = t / 2
    return best


def scalarized_derivative_intersection(
    f: SetFunction, x: Sequence, u: Sequence, directions
) -> UpperSet:
    """Intersection over z* of the level halfspaces of the scalar Dini values.

    Sampled Dini values of oracle functions are upper bounds of the monotone
    limit, so the oracle tolerance is subtracted to keep the intersection an
    outer approximation of the true set.
    """
    ws = f.workspace
    margin = Fraction(0) if f.is_exact else getattr(f, "tolerance", Fraction(0))
    pieces = []
    for z in directions:
        d = scalar_dini(f, z, x, u)
        if d.is_finite and margin:
            d = ExtReal(d.value - margin)
        pieces.append(level_set(ws, z, d))
    return sup_family(ws, pieces)


@dataclass
class RegularityReport:
    strong: bool
    weak: bool
    exact: bool
    failing_strong: list
    failing_weak: bool
    derivative: DerivativeResult
    intersection: UpperSet


def regularity_check(f: SetFunction, x: Sequence, u: Sequence, directions) -> RegularityReport:
    """Strong regularity: scalarizing the derivative equals the scalar Dini value
    per direction; weak regularity: the derivative equals the intersection of
    the scalar level halfspaces.  Strong implies weak on rich direction sets."""
    D = set_derivative(f, x, u)
    tol = getattr(f, "tolerance", Fraction(0))
    failing = []
    for z in directions:
        lhs = D.value.neg_support(z)
        rhs = scalar_dini(f, z, x, u)
        if lhs == rhs:
            continue
        if not D.exact and lhs.is_finite and rhs.is_finite and abs(lhs.value - rhs.value) <= tol:
            continue
        failing.append(tuple(z))
    inter = scalarized_derivative_intersection(f, x, u, directions)
    weak = D.value == inter
    return RegularityReport(
        strong=not failing,
        weak=weak,
        exact=f.is_exact and D.exact,
        failing_strong=failing,
        failing_weak=not weak,
        derivative=D,
        intersection=inter,
    )


# ---------------------------------------------------------------------------
# Critical parameters of exact segments (used to enrich candidate spaces)
# ---------------------------------------------------------------------------


def first_linear_sample(
    f: SetFunction, x: Sequence, u: Sequence, directions
) -> Optional[Fraction]:
    """A parameter t with every scalarization affine on (0, t]; None when the
    data is inexact or the base lies outside the domain."""
    if not isinstance(f, _EXACT_RAYS):
        return None
    rec = _ray(f, x, u)
    if all(c == 0 for c in rec.u):
        return None
    if f.eval(rec.x).is_empty:
        return None
    ana = rec.shape(f)
    if ana is None:
        return None
    if isinstance(ana, _EpiRay):
        return ana.that / 2
    return ana.threshold(directions) / 2


def segment_criticals(f: SetFunction, x0: Sequence, x: Sequence, directions) -> List[Fraction]:
    """Parameters in (0,1) where the value family along [x0, x] changes shape."""
    one = Fraction(1)
    if not isinstance(f, _EXACT_RAYS):
        return []
    g = f.restrict(x0, x)
    epi = isinstance(g, EpiVectorFunction)
    roots = set()
    for off in g.components if epi else g.offsets:
        roots.update(_all_crossings(off, one))
    for (a,), rr in g.domain.rows:
        if a != 0 and 0 < rr / a < one:
            roots.add(rr / a)
    if epi:
        return sorted(roots)
    cuts = sorted(roots)
    bounds = [Fraction(0)] + cuts + [one]
    for lo, hi in zip(bounds, bounds[1:]):
        if hi <= lo:
            continue
        mid = (lo + hi) / 2
        offs = []
        for off in g.offsets:
            best = None
            for (s,), c in off.pieces:
                val = c + s * mid
                if best is None or val < best[0]:
                    best = (val, (c, s))
            offs.append(best[1])
        shape, verts = _shape_roots(g.normals, g.workspace.dim, offs)
        for r in shape + _swap_roots(verts, directions):
            if lo < r < hi:
                roots.add(r)
    return sorted(roots)
