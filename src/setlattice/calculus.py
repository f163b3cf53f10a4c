"""Differential quotients, set-valued directional derivatives, scalar Dini
derivatives, and the strong/weak regularity checks.

Exact functions (``setfun.RowFunction``: ParamPoly and epigraphical) share
one ray record, the first rows of t -> f(x + t u): on (0, t1] the value is
{z : <n_i, z> <= alpha_i + beta_i t}, read through ``first_rows``.  The
scalar Dini value comes from those rows by LP duality,
σ(z* | f(x + t u)) = min over the dual bases λ >= 0, Σ λ_i n_i = z*, of
Σ λ_i (alpha_i + beta_i t), so it is minus the beta-part of the
lexicographically least (λ·alpha, λ·beta), with no set built.  The set
derivative keeps the rows tight at the base; one quotient, taken below the
first root of the affine sign conditions that shape the value family,
confirms it.
Oracle functions are sampled on a geometric grid and flagged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .extres import MINUS_INF, PLUS_INF, ExtReal, residual as ext_residual
from .kernel import (
    DirectionSet,
    LatticeError,
    Point,
    UpperSet,
    _along,
    _check_lengths,
    _int_dir,
    inf_family,
    to_frac,
)
from .setfun import FirstRows, OracleFunction, RowFunction, SetFunction


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
    p = f.point(x)
    return f.value_at(f.point(_along(p, u, t))).residual(f.value_at(p)).scale(1 / t)


# ---------------------------------------------------------------------------
# First-order analysis of exact one-parameter families
# ---------------------------------------------------------------------------


def _all_crossings(off):
    """All crossing parameters of a 1-var min- or max-of-affine inside (0, 1)."""
    out = []
    for ((si,), ci), ((sj,), cj) in combinations(off.rows, 2):
        if si != sj:
            root = Fraction(cj - ci, si - sj)
            if 0 < root < 1:
                out.append(root)
    return out


def _cross(a, b):
    """a_0 b_1 - a_1 b_0; 0 for vectors of the line, which are all parallel."""
    return a[0] * b[-1] - a[-1] * b[0]


def _shape_roots(normals, p, q):
    """The parameters t > 0 at which the system {<n_i, z> <= p_i + q_i t}
    changes shape: two parallel rows swap or close the set, or a vertex
    trajectory crosses a third row.  p and q are integers over one
    denominator, which cancels in every root, so each root is one Fraction
    of cross-multiplied integers.  Returns the roots and the vertex
    trajectories as integers (x0, x1, y0, y1, D) over their cross product D:
    v(t) = ((x0 + x1 t)/D, (y0 + y1 t)/D), in units of that denominator."""
    roots: List[Fraction] = []
    verts = []
    for i, j in combinations(range(len(normals)), 2):
        ni, nj = normals[i], normals[j]
        D = _cross(ni, nj)
        if D == 0:
            a, b = (p[i] - p[j], q[i] - q[j]) if ni == nj else (p[i] + p[j], q[i] + q[j])
            if a * b < 0:
                roots.append(Fraction(-a, b))
            continue
        x0, x1 = p[i] * nj[1] - p[j] * ni[1], q[i] * nj[1] - q[j] * ni[1]
        y0, y1 = ni[0] * p[j] - nj[0] * p[i], ni[0] * q[j] - nj[0] * q[i]
        verts.append((x0, x1, y0, y1, D))
        # <n_k, v(t)> = p_k + q_k t at t = a/b
        for nk, pk, qk in zip(normals, p, q):
            a = nk[0] * x0 + nk[1] * y0 - pk * D
            b = qk * D - nk[0] * x1 - nk[1] * y1
            if a * b > 0:
                roots.append(Fraction(a, b))
    return roots, verts


def _swap_roots(verts, directions) -> List[Fraction]:
    """The parameters t > 0 at which two vertex trajectories swap in
    <z*, v(t)>, per z* in directions."""
    roots: List[Fraction] = []
    for z in directions if verts else ():
        k, _ = _int_dir(z)  # a positive scale of z* moves no root
        vals = [(k[0] * x0 + k[1] * y0, k[0] * x1 + k[1] * y1, D) for x0, x1, y0, y1, D in verts]
        for (a0, a1, da), (b0, b1, db) in combinations(vals, 2):
            # a0/da + a1/da t = b0/db + b1/db t, cross-multiplied by da db
            a, b = b0 * da - a0 * db, a1 * db - b1 * da
            if a * b > 0:
                roots.append(Fraction(a, b))
    return roots


def _pinched(rows: FirstRows) -> bool:
    """Whether the rows' values are empty for small t > 0; they are not at 0.

    By Farkas the system is empty at t exactly when some positive circuit
    λ > 0, Σ λ_i n_i = 0 (an opposite pair, or in the plane a triple around
    the origin) has Σ λ_i (alpha_i + beta_i t) < 0.  These sums are >= 0 at
    t = 0, so near 0 it takes a circuit with λ·alpha = 0 > λ·beta.  Circuits
    exist only when C^- holds opposite normals."""
    n, a, b = rows.normals, rows.alpha, rows.beta
    for i, j in combinations(range(len(n)), 2):
        # primitive normals that are parallel and differ are opposite
        if _cross(n[i], n[j]) == 0 and n[i] != n[j] and a[i] + a[j] == 0 > b[i] + b[j]:
            return True
    for ijk in combinations(range(len(n)), 3):
        i, j, k = ijk
        lam = (_cross(n[j], n[k]), _cross(n[k], n[i]), _cross(n[i], n[j]))
        if max(lam) < 0:
            lam = tuple(-c for c in lam)
        if min(lam) > 0:
            la = sum(c * a[r] for c, r in zip(lam, ijk))
            if la == 0 > sum(c * b[r] for c, r in zip(lam, ijk)):
                return True
    return False


def _weighted(basis, values) -> Fraction:
    """λ·values for a dual basis (((row, λ numerator), ...), λ denominator)."""
    lam, d = basis
    return Fraction(sum(l * values[i] for i, l in lam), d)


_UNSET = object()


class _Ray:
    """The memo record of one ray t -> f(x + t u), kept in ``f._rays``.

    For exact f it holds the ray's ``setfun.FirstRows``, read once through
    ``f.first_rows`` (an epigraphical ray psi + C has the facet normals of C
    as rows), and what is built from them on demand: the emptiness near 0,
    the shape, the derivative and the Dini value per z*.  Other modules read
    the last two through ``read_derivative`` and ``read_dini``, and must not
    mutate them.
    """

    __slots__ = ("p", "u", "_rows", "_pinched", "_shape", "derivative", "dini")

    def __init__(self, p: Point, u: Point):
        self.p = p  # f's record of x
        self.u = u
        self._rows = _UNSET
        self._pinched = None
        self._shape = None
        self.derivative: Optional[DerivativeResult] = None
        self.dini = {}

    def rows(self, f: SetFunction) -> Optional[FirstRows]:
        """The first rows; None when the ray leaves the domain at once.
        f is a RowFunction."""
        if self._rows is _UNSET:
            self._rows = f.first_rows(self.p, self.u)
        return self._rows

    def read_derivative(self, f: SetFunction) -> DerivativeResult:
        """The derivative, through ``set_derivative`` only on a miss."""
        return set_derivative(f, self.p, self.u) if self.derivative is None else self.derivative

    def read_dini(self, f: SetFunction, z) -> ExtReal:
        """The Dini value at z*, through ``scalar_dini`` only on a miss."""
        d = self.dini.get(tuple(z))
        return scalar_dini(f, z, self.p, self.u) if d is None else d

    def dual_dini(self, z: tuple) -> ExtReal:
        """The scalar Dini value at z* by LP duality; rows(f) is not None and
        f(x) is nonempty.

        For small t, σ(z* | f(x + t u)) is the least Σ λ_i (alpha_i + beta_i t)
        over the dual bases λ >= 0, Σ λ_i n_i = z*: singletons, and
        independent pairs with both λ > 0 (a zero λ repeats a singleton).
        So the Dini value is minus the beta-part of the lexicographically
        least (λ·alpha, λ·beta); with no basis, σ = +∞ and it is -∞.  Values
        empty for small t read +∞ first, for every z*: φ(x + t u) is +∞ there
        and +∞ ÷ σ(z* | f(x)) is +∞ also where σ = +∞.
        """
        rows = self._rows
        normals = rows.normals
        if self._pinched is None:
            self._pinched = _pinched(rows)
        if self._pinched:  # values empty for small t > 0: φ is +∞ there
            return PLUS_INF
        k, den = _int_dir(z)  # z* = k/den: the λ are found for k
        if not any(k):
            return ExtReal(0)
        bases = []  # (((row, λ numerator), ...), λ denominator)
        for i, n in enumerate(normals):
            if _cross(n, k) == 0:
                d = sum(map(mul, n, k))
                if d > 0:
                    bases.append((((i, d),), sum(map(mul, n, n))))
        for i, j in combinations(range(len(normals)), 2):
            d = _cross(normals[i], normals[j])
            li = _cross(k, normals[j])
            lj = _cross(normals[i], k)
            if li * d > 0 and lj * d > 0:
                bases.append((((i, li), (j, lj)), d))
        if not bases:
            return MINUS_INF
        beta = rows.beta
        if len(bases) > 1:  # the least λ·alpha, then the least λ·beta
            bases.sort(key=lambda basis: (_weighted(basis, rows.alpha), _weighted(basis, beta)))
        lam, d = bases[0]
        return ExtReal(Fraction(-sum(l * beta[i] for i, l in lam), d * den * rows.den))

    def shape(self, f: SetFunction):
        """(slack, t0, vertex trajectories of the rows): slack_i has the sign
        of alpha_i - σ(n_i | f(x)), zero on the rows tight at the base; rows(f)
        is not None and f(x) is nonempty, so each σ is finite."""
        if self._shape is None:
            normals, alpha, beta, den, t1, _ = self._rows
            vx = f.value_at(self.p)
            sigma = [vx._sup(n) for n in normals]  # σ_i = sn/sd
            w = lcm(*(sd for _, sd in sigma))
            # alpha_i/den - sigma_i and beta_i/den over den*w
            slack = [a * w - sn * (den * w // sd) for a, (sn, sd) in zip(alpha, sigma)]
            roots, verts = _shape_roots(normals, alpha, beta)
            roots += _shape_roots(normals, slack, [b * w for b in beta])[0]
            self._shape = slack, min([*roots, Fraction(1), t1 or Fraction(1)]), verts
        return self._shape


def _ray(f: SetFunction, x: Sequence, u: Sequence) -> _Ray:
    """f's record of the ray (x, u), keyed by their integer forms; Points,
    such as a ray's own x and u, are keyed as they are."""
    p = f.point(x)
    ku, du = _int_dir(u)
    key = (p.k, p.d, ku, du)
    rec = f._rays.get(key)
    if rec is None:
        _check_lengths(f.xdim, (ku,), "a direction")
        rec = f._rays[key] = _Ray(p, u if type(u) is Point else Point(ku, du))
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
    vx = f.value_at(rec.p)
    if vx.is_empty:
        return DerivativeResult(ws.whole_space(), exact=f.is_exact)
    if not any(rec.u.k):
        return DerivativeResult(vx.recession(), exact=f.is_exact)
    if isinstance(f, OracleFunction):
        return _sampled_derivative(f, rec.p, rec.u)
    if not isinstance(f, RowFunction):
        raise NotDeclaredConvex(
            "exact derivatives are available for parametric and epigraphical functions"
        )
    rows = rec.rows(f)
    if rows is None:
        return DerivativeResult(ws.empty_set(), exact=True)
    slack, t0, _ = rec.shape(f)
    # the quotient q_t is {<n_i, w> <= (alpha_i - sigma_i)/t + beta_i}: below
    # t0 it keeps its shape, so it is its limit, where the slack rows
    # (alpha_i > sigma_i) have left and the tight ones stay
    teval = t0 / 2
    facet = ws.geom.facet  # f's normals are primitive and in C^-, as for eval
    value = UpperSet(
        ws, [facet(n, b, rows.den) for n, s, b in zip(rows.normals, slack, rows.beta) if s == 0]
    )
    q = diff_quotient(f, rec.p, rec.u, teval)
    return DerivativeResult(
        value, exact=True, stabilization_t=teval if q == value else None, samples=[(teval, q)]
    )


def _sampled_derivative(f: OracleFunction, p: Point, u: Point) -> DerivativeResult:
    ws = f.workspace
    quotients = []
    ts = []
    t = Fraction(1)
    for _ in range(20):
        quotients.append(diff_quotient(f, p, u, t))
        ts.append(t)
        t = t / 2
    value = inf_family(ws, quotients)
    converged = True
    last, prev = quotients[-1], quotients[-2]
    for d in ws.directions:
        a, b = last.neg_support(d), prev.neg_support(d)
        close = a.is_finite and b.is_finite and abs(a.value - b.value) <= f.tolerance
        converged = converged and (close or a == b)
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
    z = tuple(zstar)  # equal rationals are equal keys; the dual works on _int_dir(z)
    d = rec.dini.get(z)
    if d is None:
        _check_lengths(f.workspace.dim, (z,), "z*")
        d = rec.dini[z] = _scalar_dini(f, rec, z)
    return d


def _require_dini(f: SetFunction):
    """Raise unless f has scalar Dini derivatives: exact rows or an oracle to sample."""
    if not isinstance(f, (RowFunction, OracleFunction)):
        raise NotDeclaredConvex(
            "exact scalar derivatives are available for parametric and epigraphical functions"
        )


def _scalar_dini(f: SetFunction, rec: _Ray, z: tuple) -> ExtReal:
    if f.value_at(rec.p).is_empty:
        return MINUS_INF
    if not any(rec.u.k):
        return MINUS_INF if f.phi_at(rec.p, z).is_minus_inf else ExtReal(0)
    if isinstance(f, OracleFunction):
        return _sampled_scalar_dini(f, z, rec.p, rec.u)
    _require_dini(f)
    if rec.rows(f) is None:
        return PLUS_INF
    return rec.dual_dini(z)


def _sampled_scalar_dini(f: OracleFunction, z, p: Point, u: Point) -> ExtReal:
    phi0 = f.phi_at(p, z)
    best = PLUS_INF
    t = Fraction(1)
    for _ in range(20):
        quotient = ext_residual(f.phi_at(f.point(_along(p, u, t)), z), phi0)
        best = min(best, ExtReal(quotient.value / t) if quotient.is_finite else quotient)
        t = t / 2
    return best


def scalarized_derivative_intersection(
    f: SetFunction, x: Sequence, u: Sequence, directions
) -> UpperSet:
    """Intersection over z* of the level halfspaces of the scalar Dini values."""
    return _level_set(f, directions, [scalar_dini(f, z, x, u) for z in directions])


def _level_set(f: SetFunction, directions, dinis: Sequence[ExtReal]) -> UpperSet:
    """The intersection of the level halfspaces of the Dini values per direction.

    Sampled Dini values of oracle functions are upper bounds of the monotone
    limit, so the oracle tolerance is subtracted to keep the intersection an
    outer approximation of the true set.
    """
    ws = f.workspace
    margin = f.tolerance
    if any(d.is_plus_inf for d in dinis):
        return ws.empty_set()
    # each finite d gives the level halfspace <z*, w> <= -(d - margin); -inf gives Z
    rows = [(z, margin - d.value) for z, d in zip(directions, dinis) if d.is_finite]
    if isinstance(directions, DirectionSet) and directions.cone == ws.cone:
        # checked items: primitive and in C^-, so the rows skip the checks of upper_set
        facet = ws.geom.facet
        return UpperSet(ws, [facet(z, b.numerator, b.denominator) for z, b in rows])
    return ws.upper_set(rows)


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
    return regularity_of(f, D, directions, [scalar_dini(f, z, x, u) for z in directions])


def regularity_of(f: SetFunction, D: DerivativeResult, directions, dinis) -> RegularityReport:
    """regularity_check from the derivative D and the Dini row over the directions."""
    tol = f.tolerance
    failing = []
    for z, rhs in zip(directions, dinis):
        lhs = D.value.neg_support(z)
        if lhs == rhs:
            continue
        if not D.exact and lhs.is_finite and rhs.is_finite and abs(lhs.value - rhs.value) <= tol:
            continue
        failing.append(tuple(z))
    inter = _level_set(f, directions, dinis)
    weak = D.value == inter
    return RegularityReport(not failing, weak, f.is_exact and D.exact, failing, not weak, D, inter)


# ---------------------------------------------------------------------------
# Critical parameters of exact segments (used to enrich candidate spaces)
# ---------------------------------------------------------------------------


def first_linear_sample(
    f: SetFunction, x: Sequence, u: Sequence, directions
) -> Optional[Fraction]:
    """A parameter t with every scalarization affine on (0, t]; None when the
    data is inexact or the base lies outside the domain."""
    if not isinstance(f, RowFunction):
        return None
    rec = _ray(f, x, u)
    if not any(rec.u.k) or f.value_at(rec.p).is_empty or rec.rows(f) is None:
        return None
    # t0, lowered to the first optimal-basis switch of <z*, v(t)> over directions
    _, t0, verts = rec.shape(f)
    return min(_swap_roots(verts, directions) + [t0]) / 2


def segment_criticals(f: SetFunction, x0: Sequence, x: Sequence, directions) -> List[Fraction]:
    """Parameters in (0,1) where the value family along [x0, x] changes shape."""
    if not isinstance(f, RowFunction):
        return []
    g = f.restrict(x0, x)
    roots = set()
    for pwl in g.pwls:
        roots.update(_all_crossings(pwl))
    for (a,), r, _ in g.domain.irows:
        if a != 0 and 0 < (root := Fraction(r, a)) < 1:
            roots.add(root)
    bounds = [Fraction(0), *sorted(roots), Fraction(1)]
    for lo, hi in zip(bounds, bounds[1:]):
        # every PWL is affine on (lo, hi), so the ray from lo has fixed rows there
        rows = g._rows_along(g.point((lo,)), (1,), 1)
        shape, verts = _shape_roots(rows.normals, rows.alpha, rows.beta)
        roots.update(lo + r for r in shape + _swap_roots(verts, directions) if lo + r < hi)
    return sorted(roots)
