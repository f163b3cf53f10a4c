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
    as_vec,
    inf_family,
    sup_family,
    to_frac,
)
from .setfun import (
    ConcavePWL,
    ConvexPWL,
    EpiVectorFunction,
    OracleFunction,
    ParamPolyFunction,
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


def _first_piece(off: ConcavePWL):
    """Initial value, active slope and first crossing t of a 1-var min-of-affine."""
    alpha = min(c for _, c in off.pieces)
    beta = min(s[0] for s, c in off.pieces if c == alpha)
    t1 = None
    for (s,), c in off.pieces:
        if c > alpha and s < beta:
            root = (c - alpha) / (beta - s)
            if t1 is None or root < t1:
                t1 = root
    return alpha, beta, t1


def _first_piece_max(comp: ConvexPWL):
    """Initial value, active slope and first crossing t of a 1-var max-of-affine."""
    alpha = max(c for _, c in comp.pieces)
    beta = max(s[0] for s, c in comp.pieces if c == alpha)
    t1 = None
    for (s,), c in comp.pieces:
        if c < alpha and s > beta:
            root = (alpha - c) / (s - beta)
            if t1 is None or root < t1:
                t1 = root
    return alpha, beta, t1


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


def _domain_exit(g) -> Optional[Fraction]:
    """Least positive t excluded by the t-domain rows (None = unbounded)."""
    hi: Optional[Fraction] = None
    for (a,), r in g.domain.rows:
        if a > 0:
            bound = r / a
            if hi is None or bound < hi:
                hi = bound
    return hi


class _RayAnalysis:
    """Exact structure of t -> f(x + t u) near t = 0+ for a ParamPoly ray."""

    def __init__(self, g: ParamPolyFunction, value_at_base: UpperSet):
        self.g = g
        self.ws = g.workspace
        self.normals = g.normals
        self.alpha = []
        self.beta = []
        roots: List[Fraction] = []
        for off in g.offsets:
            a, b, t1 = _first_piece(off)
            self.alpha.append(a)
            self.beta.append(b)
            if t1 is not None:
                roots.append(t1)
        self.t_dom = _domain_exit(g)
        if self.t_dom is not None and self.t_dom > 0:
            roots.append(self.t_dom)
        self.sigma = []
        for n in self.normals:
            s = value_at_base.support(n)
            self.sigma.append(s.value)  # finite: the normal bounds its own system
        roots.extend(self._system_roots(list(zip(self.alpha, self.beta))))
        rho = [(a - s, b) for a, s, b in zip(self.alpha, self.sigma, self.beta)]
        roots.extend(self._system_roots(rho))
        self.base_roots = roots
        self._vertex_lines = self._vertices_for(list(zip(self.alpha, self.beta)))

    # -- affine helpers (offsets as (const, slope) pairs) -----------------

    def _vertices(self, offs):
        """Vertex trajectories (affine in t) of {<N_i, z> <= offs_i(t)}."""
        verts = []
        n = self.normals
        for i in range(len(n)):
            ai, bi = n[i][0], n[i][1]
            for j in range(i + 1, len(n)):
                aj, bj = n[j][0], n[j][1]
                D = ai * bj - aj * bi
                if D == 0:
                    continue
                (pi, qi), (pj, qj) = offs[i], offs[j]
                vx = ((pi * bj - pj * bi) / D, (qi * bj - qj * bi) / D)
                vy = ((ai * pj - aj * pi) / D, (ai * qj - aj * qi) / D)
                verts.append((i, j, vx, vy))
        return verts

    def _system_roots(self, offs) -> List[Fraction]:
        """Positive roots of the sign conditions controlling the system's shape."""
        roots: List[Fraction] = []
        n = self.normals
        m = len(n)
        if self.ws.dim == 1:
            for i in range(m):
                for j in range(i + 1, m):
                    pi, qi = offs[i]
                    pj, qj = offs[j]
                    if n[i][0] == n[j][0]:
                        p, q = pi - pj, qi - qj
                    else:
                        p, q = pi + pj, qi + qj
                    if q != 0:
                        root = -p / q
                        if root > 0:
                            roots.append(root)
            return roots
        for i in range(m):
            for j in range(i + 1, m):
                if n[i][0] * n[j][1] - n[i][1] * n[j][0] != 0:
                    continue
                pi, qi = offs[i]
                pj, qj = offs[j]
                if n[i] == n[j]:
                    p, q = pi - pj, qi - qj
                else:
                    p, q = pi + pj, qi + qj
                if q != 0:
                    root = -p / q
                    if root > 0:
                        roots.append(root)
        for i, j, vx, vy in self._vertices_for(offs):
            for k in range(m):
                p = n[k][0] * vx[0] + n[k][1] * vy[0] - offs[k][0]
                q = n[k][0] * vx[1] + n[k][1] * vy[1] - offs[k][1]
                if q != 0:
                    root = -p / q
                    if root > 0:
                        roots.append(root)
        return roots

    def _vertices_for(self, offs):
        if self.ws.dim == 1:
            return []
        return self._vertices(offs)

    def threshold(self, extra_roots: Sequence[Fraction] = ()) -> Fraction:
        roots = [r for r in list(self.base_roots) + list(extra_roots) if r > 0]
        if not roots:
            return Fraction(1)
        return min(min(roots), Fraction(1))

    def zstar_roots(self, zstar) -> List[Fraction]:
        """Crossing parameters of vertex values of <z*, v(t)> (optimal-basis switches)."""
        z = as_vec(zstar)
        vals = []
        for _, _, vx, vy in self._vertex_lines:
            vals.append((z[0] * vx[0] + z[1] * vy[0], z[0] * vx[1] + z[1] * vy[1]))
        roots = []
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                p = vals[i][0] - vals[j][0]
                q = vals[i][1] - vals[j][1]
                if q != 0:
                    root = -p / q
                    if root > 0:
                        roots.append(root)
        return roots


def _exact_ray(f: SetFunction, x, u):
    """ray-restriction for exact variants, or None."""
    if isinstance(f, ParamPolyFunction):
        return f.ray_restrict(x, u)
    if isinstance(f, EpiVectorFunction):
        return f.ray_restrict(x, u)
    return None


def set_derivative(f: SetFunction, x: Sequence, u: Sequence) -> DerivativeResult:
    """Set-valued directional derivative f'(x, u) = inf over t of the quotient."""
    if not f.declared_convex:
        raise NotDeclaredConvex("directional derivatives need a declared-convex function")
    ws = f.workspace
    xx = as_vec(x)
    uu = as_vec(u)
    vx = f.eval(xx)
    if vx.is_empty:
        return DerivativeResult(ws.whole_space(), exact=f.is_exact)
    if all(c == 0 for c in uu):
        return DerivativeResult(vx.recession(), exact=f.is_exact)
    if isinstance(f, OracleFunction):
        return _sampled_derivative(f, xx, uu)
    if isinstance(f, EpiVectorFunction):
        return _epivector_derivative(f, xx, uu, vx)
    if not isinstance(f, ParamPolyFunction):
        raise NotDeclaredConvex(
            "exact derivatives are available for parametric and epigraphical functions"
        )
    g = f.ray_restrict(xx, uu)
    exit_t = _domain_exit(g)
    if exit_t is not None and exit_t <= 0:
        return DerivativeResult(ws.empty_set(), exact=True)
    ana = _RayAnalysis(g, vx)
    that = ana.threshold()
    teval = that / 2
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


def _epivector_derivative(f: EpiVectorFunction, xx, uu, vx) -> DerivativeResult:
    g = f.ray_restrict(xx, uu)
    exit_t = _domain_exit(g)
    if exit_t is not None and exit_t <= 0:
        return DerivativeResult(f.workspace.empty_set(), exact=True)
    slopes = []
    roots = []
    for comp in g.components:
        _, slope, t1 = _first_piece_max(comp)
        slopes.append(slope)
        if t1 is not None:
            roots.append(t1)
    if exit_t is not None:
        roots.append(exit_t)
    that = min(roots + [Fraction(1)])
    teval = that / 2
    value = f.workspace.translated_cone(slopes)
    result = DerivativeResult(value, exact=True)
    q = diff_quotient(f, xx, uu, teval)
    result.samples.append((teval, q))
    if q == value:
        result.stabilization_t = teval
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
    ws = f.workspace
    xx = as_vec(x)
    uu = as_vec(u)
    z = as_vec(zstar)
    vx = f.eval(xx)
    if vx.is_empty:
        return MINUS_INF
    if all(c == 0 for c in uu):
        phi0 = vx.neg_support(z)
        return MINUS_INF if phi0.is_minus_inf else ExtReal(0)
    if isinstance(f, OracleFunction):
        return _sampled_scalar_dini(f, z, xx, uu)
    if isinstance(f, EpiVectorFunction):
        return _epivector_scalar_dini(f, z, xx, uu)
    if not isinstance(f, ParamPolyFunction):
        raise NotDeclaredConvex(
            "exact scalar derivatives are available for parametric and epigraphical functions"
        )
    g = f.ray_restrict(xx, uu)
    exit_t = _domain_exit(g)
    if exit_t is not None and exit_t <= 0:
        return PLUS_INF
    phi0 = vx.neg_support(z)
    if phi0.is_minus_inf:
        return MINUS_INF
    cache = getattr(f, "_ray_cache", None)
    if cache is None:
        cache = f._ray_cache = {}
    key = (xx, uu)
    ana = cache.get(key)
    if ana is None:
        ana = _RayAnalysis(g, vx)
        cache[key] = ana
    that = ana.threshold(ana.zstar_roots(z))
    ta = that / 2
    tb = that / 4
    pa = g.eval((ta,)).neg_support(z)
    pb = g.eval((tb,)).neg_support(z)
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


def _epivector_scalar_dini(f: EpiVectorFunction, z, xx, uu) -> ExtReal:
    g = f.ray_restrict(xx, uu)
    exit_t = _domain_exit(g)
    if exit_t is not None and exit_t <= 0:
        return PLUS_INF
    slope = Fraction(0)
    for w, comp in zip(z, g.components):
        slope += -to_frac(w) * _first_piece_max(comp)[1]
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
    xx = as_vec(x)
    uu = as_vec(u)
    if all(c == 0 for c in uu):
        return None
    if isinstance(f, EpiVectorFunction):
        g = f.ray_restrict(xx, uu)
        exit_t = _domain_exit(g)
        if exit_t is not None and exit_t <= 0:
            return None
        roots = [] if exit_t is None else [exit_t]
        for comp in g.components:
            t1 = _first_piece_max(comp)[2]
            if t1 is not None:
                roots.append(t1)
        return min(roots + [Fraction(1)]) / 2
    if not isinstance(f, ParamPolyFunction):
        return None
    vx = f.eval(xx)
    if vx.is_empty:
        return None
    g = f.ray_restrict(xx, uu)
    exit_t = _domain_exit(g)
    if exit_t is not None and exit_t <= 0:
        return None
    ana = _RayAnalysis(g, vx)
    extra: List[Fraction] = []
    for z in directions:
        extra.extend(ana.zstar_roots(z))
    return ana.threshold(extra) / 2


def segment_criticals(f: SetFunction, x0: Sequence, x: Sequence, directions) -> List[Fraction]:
    """Parameters in (0,1) where the value family along [x0, x] changes shape."""
    one = Fraction(1)
    if isinstance(f, EpiVectorFunction):
        g = f.restrict(x0, x)
        roots = set()
        for comp in g.components:
            roots.update(_all_crossings(comp, one))
        for (a,), rr in g.domain.rows:
            if a != 0:
                r = rr / a
                if 0 < r < one:
                    roots.add(r)
        return sorted(roots)
    if not isinstance(f, ParamPolyFunction):
        return []
    g = f.restrict(x0, x)
    level1 = set()
    for off in g.offsets:
        for r in _all_crossings(off, one):
            level1.add(r)
    for (a,), rr in g.domain.rows:
        if a != 0:
            r = rr / a
            if 0 < r < one:
                level1.add(r)
    cuts = sorted(level1)
    roots = set(cuts)
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
            c, s = best[1]
            offs.append((c, s))
        roots.update(_interval_roots(g, offs, lo, hi, directions))
    return sorted(roots)


def _interval_roots(g: ParamPolyFunction, offs, lo, hi, directions):
    """Affine sign-change roots of the value system inside (lo, hi)."""
    n = g.normals
    m = len(n)
    out = set()

    def keep(root):
        if lo < root < hi:
            out.add(root)

    if g.workspace.dim == 1:
        for i in range(m):
            for j in range(i + 1, m):
                pi, qi = offs[i]
                pj, qj = offs[j]
                p, q = (pi - pj, qi - qj) if n[i][0] == n[j][0] else (pi + pj, qi + qj)
                if q != 0:
                    keep(-p / q)
        return out
    verts = []
    for i in range(m):
        ai, bi = n[i]
        for j in range(i + 1, m):
            aj, bj = n[j]
            D = ai * bj - aj * bi
            if D == 0:
                pi, qi = offs[i]
                pj, qj = offs[j]
                p, q = (pi - pj, qi - qj) if n[i] == n[j] else (pi + pj, qi + qj)
                if q != 0:
                    keep(-p / q)
                continue
            pi, qi = offs[i]
            pj, qj = offs[j]
            vx = ((pi * bj - pj * bi) / D, (qi * bj - qj * bi) / D)
            vy = ((ai * pj - aj * pi) / D, (ai * qj - aj * qi) / D)
            verts.append((vx, vy))
            for k in range(m):
                p = n[k][0] * vx[0] + n[k][1] * vy[0] - offs[k][0]
                q = n[k][0] * vx[1] + n[k][1] * vy[1] - offs[k][1]
                if q != 0:
                    keep(-p / q)
    for z in directions:
        zz = as_vec(z)
        vals = [
            (zz[0] * vx[0] + zz[1] * vy[0], zz[0] * vx[1] + zz[1] * vy[1])
            for vx, vy in verts
        ]
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                p = vals[i][0] - vals[j][0]
                q = vals[i][1] - vals[j][1]
                if q != 0:
                    keep(-p / q)
    return out
