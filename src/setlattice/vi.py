"""Stampacchia/Minty variational-inequality checkers, optimality oracles
(infimum attainment, minimality, infimizers, solutions) and the auditor for
the web of implications among them.

All universal quantifiers over the argument space are relativized to a
finite candidate space; existential direction quantifiers are relativized
to a finite direction sample.  Reports always name both.  On exact
instances the auditor enriches the space with the critical parameters of
every segment and the directions with all facet normals that occur, which
keeps every audited implication faithful to the underlying statements.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .calculus import (
    DerivativeResult,
    _Ray,
    _ray,
    _require_dini,
    first_linear_sample,
    regularity_of,
    segment_criticals,
)
from .extres import ExtReal, residual as ext_residual
from .kernel import (
    DirectionSet,
    LatticeError,
    Point,
    UpperSet,
    Vec,
    _along,
    as_vec,
    inf_family,
)
from .setfun import (
    EmptyTranslationSet,
    EpiVectorFunction,
    ParamPolyFunction,
    RowFunction,
    SetFunction,
    inf_translate,
)


class BaseOutsideDomain(LatticeError):
    pass


@dataclass(frozen=True)
class CandidateSpace:
    """Finite stand-in for 'for all x in X'; the base point is always a member.

    ``lines``: the critical parameters of f per half-line from the base, as
    ``enrich_space`` leaves them for the audit that enriched the space (see
    ``_line_criticals``); None on every other space."""

    points: Tuple[Vec, ...]
    lines: Optional[Dict[Tuple[int, ...], List[Fraction]]] = field(
        default=None, compare=False, repr=False
    )

    @staticmethod
    def of(points: Iterable[Sequence], base: Optional[Sequence] = None) -> "CandidateSpace":
        pts = [as_vec(p) for p in points]
        if base is not None:
            pts.append(as_vec(base))
        return CandidateSpace(tuple(sorted(dict.fromkeys(pts))))

    def with_base(self, base: Sequence) -> "CandidateSpace":
        return CandidateSpace.of(self.points, base)

    def __len__(self):
        return len(self.points)


def _translation_space(space: CandidateSpace, pts: List[Vec], origin: Vec) -> CandidateSpace:
    """Every candidate shifted against every translation point, based at the origin:
    the arguments of the inf-translation by pts that the space reaches."""
    shifted = [tuple(p - q for p, q in zip(x, m)) for x in space.points for m in pts]
    return CandidateSpace.of(shifted, base=origin)


@dataclass
class ViReport:
    inequality: str
    holds: bool
    witnesses: List[dict] = field(default_factory=list)
    exact: bool = True
    space_size: int = 0
    notes: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "inequality": self.inequality,
            "holds": self.holds,
            "witnesses": [_witness_json(w) for w in self.witnesses],
            "exact": self.exact,
            "space_size": self.space_size,
            "notes": {k: str(v) for k, v in self.notes.items()},
        }


def _witness_json(w: dict) -> dict:
    out = {}
    for k, v in w.items():
        if isinstance(v, tuple):
            out[k] = [str(c) for c in v]
        else:
            out[k] = str(v)
    return out


def _require_base(f: SetFunction, x0: Vec):
    if f.eval(x0).is_empty:
        raise BaseOutsideDomain(f"base point {x0} is outside the domain")


# ---------------------------------------------------------------------------
# The ten inequalities: one table, one loop
# ---------------------------------------------------------------------------

_ZERO = ExtReal(0)


def _half_line(p0: Point, p: Point) -> Tuple[Tuple[int, ...], Fraction]:
    """(u, c) with x - x0 = c u, u a primitive integer vector and c > 0, for
    the records p0 of x0 and p of x ≠ x0."""
    d = lcm(p0.d, p.d)
    k = [a * (d // p.d) - b * (d // p0.d) for a, b in zip(p.k, p0.k)]
    g = gcd(*k)
    return tuple(a // g for a in k), Fraction(g, d)


class _Reading:
    """A ray (x, c u) read off f's record of a ray (x', u) that has the same
    derivative per unit of u: f'(x, c u) = c f'(x', u), and so for each Dini
    value.  The scaled values are kept here, never in the record, which
    keeps its own t* and samples."""

    __slots__ = ("ray", "c", "_derivative", "_dini")

    def __init__(self, ray: _Ray, c=1):
        self.ray, self.c, self._derivative, self._dini = ray, c, None, {}

    def derivative(self, f: SetFunction) -> DerivativeResult:
        if self.c == 1:
            return self.ray.read_derivative(f)
        if self._derivative is None:
            D = self.ray.read_derivative(f)
            self._derivative = DerivativeResult(D.value.scale(self.c), D.exact)
        return self._derivative

    def dini(self, f: SetFunction, z) -> ExtReal:
        if self.c == 1:
            return self.ray.read_dini(f, z)
        d = self._dini.get(z)
        if d is None:
            d = self._dini[z] = self.ray.read_dini(f, z).scale(self.c)
        return d


class _Row:
    """A candidate x: f's record of x, which holds f(x) and its
    scalarizations, and the table's readings of the Stampacchia ray
    (x0, x - x0) and the Minty ray (x, x0 - x), one reading when x = x0,
    each made on first use (``_Table.stampacchia``, ``_Table.minty``)."""

    def __init__(self, f: SetFunction, p0: Point, x: Vec):
        self.f, self.p0, self.x, self.p = f, p0, x, f.point(x)
        self.stampacchia: Optional[_Reading] = None
        self.minty: Optional[_Reading] = None

    @cached_property
    def value(self) -> UpperSet:
        return self.f.value_at(self.p)

    @cached_property
    def line(self) -> Optional[Tuple[Tuple[int, ...], Fraction]]:
        """(u, c): x lies on the half-line x0 + s u at s = c; None at x0."""
        return None if self.p == self.p0 else _half_line(self.p0, self.p)


class _Table:
    """One row per candidate x for (f, x0, directions), read by the checks, the
    regularity loop, enrichment and the segment infima; with enrich, the
    directions are enriched before any Dini value is read.  A derivative is
    inexact only where f is.

    An exact row function is read line by line.  Its derivative and Dini
    values are positively homogeneous in the direction, so every Stampacchia
    ray (x0, c u), u primitive, reads f's record of (x0, u), scaled by c.
    ``lines`` holds the critical parameters of each half-line x0 + s u
    (``_line_criticals``; None: not computed).  Between two consecutive ones
    the rows of f and their vertex structure are fixed, so s -> f(x0 + s u)
    is affine in the Minkowski sense on the closed stretch, and its
    derivative toward x0 is the same at every point of it: every Minty ray
    (x, -c u) with f(x) ≠ ∅ reads the record of (x', -u) for one x' of that
    stretch, scaled by c; a critical point belongs to the stretch below it.
    Every other function reads one record per ray: an oracle's sampled
    quotients are not exactly homogeneous."""

    def __init__(
        self, f: SetFunction, x0: Vec, space: CandidateSpace, directions, enrich=False, lines=None
    ):
        self.f, self.x0, self.p0 = f, x0, f.point(x0)
        self.v0 = f.value_at(self.p0)
        self.origin = (0,) * f.workspace.dim
        self.lines = lines  # only a row function's: see _line_criticals
        self.stretches = {}  # (u, stretch index) -> the record of (x', -u)
        self.rows = [_Row(f, self.p0, x) for x in space.points]
        self.directions = self.enriched(directions) if enrich else directions
        self.dirs = tuple(self.directions)

    def stampacchia(self, row: _Row) -> _Reading:
        if row.stampacchia is None:
            f, p0 = self.f, self.p0
            if row.line is not None and isinstance(f, RowFunction):
                u, c = row.line
                row.stampacchia = _Reading(_ray(f, p0, Point(u, 1)), c)
            else:
                row.stampacchia = _Reading(_ray(f, p0, _along(row.p, p0, -1)))
        return row.stampacchia

    def minty(self, row: _Row) -> _Reading:
        if row.minty is None:
            if row.line is None:
                row.minty = self.stampacchia(row)
            elif self.lines is None or row.value.is_empty:
                row.minty = _Reading(_ray(self.f, row.p, _along(self.p0, row.p, -1)))
            else:
                u, c = row.line
                key = (u, bisect_left(self.lines[u], c))
                rec = self.stretches.get(key)
                if rec is None:
                    rec = self.stretches[key] = _ray(self.f, row.p, Point(tuple(-a for a in u), 1))
                row.minty = _Reading(rec, c)
        return row.minty

    @cached_property
    def rec0(self):
        return self.v0.recession()

    @cached_property
    def bounded(self):  # the indices of the directions z* with phi(x0) > -inf
        return [k for k, z in enumerate(self.dirs) if not self.f.phi_at(self.p0, z).is_minus_inf]

    def derivative(self, ray: _Reading) -> DerivativeResult:
        return ray.derivative(self.f)

    def dini(self, ray: _Reading, k: int) -> ExtReal:
        return ray.dini(self.f, self.dirs[k])

    def phi(self, row: _Row, k: int) -> ExtReal:
        return self.f.phi_at(row.p, self.dirs[k])

    def check(self, name: str) -> ViReport:
        ineq = _INEQUALITIES[name]
        if ineq.dini:
            _require_dini(self.f)
        report = ViReport(name, True, exact=self.f.is_exact, space_size=len(self.rows))
        if ineq.guard and self.v0.is_whole:
            report.notes["guard"] = "f(x0) = Z"
            return report
        agreement = True
        for row in self.rows:
            if ineq.form == "M" and (row.value == self.v0 or row.value.is_empty and not ineq.minty):
                continue
            verdict = ineq.test(self, row, self.minty(row) if ineq.minty else self.stampacchia(row))
            if ineq.note:
                verdict, other = verdict
                agreement = agreement and other in (None, verdict)
            if isinstance(verdict, list):
                report.witnesses.extend(verdict)
            elif not verdict:
                report.witnesses.append({"x": row.x})
        if ineq.by_direction:
            rank = {tuple(z): k for k, z in enumerate(self.dirs)}
            report.witnesses.sort(key=lambda w: rank[w["zstar"]])
        if ineq.note:
            report.notes[ineq.note] = agreement
        report.holds = not report.witnesses
        return report

    def regularity(self) -> dict:
        """SR and WR along the Stampacchia rays from x0 toward every other x
        and the Minty rays from every x toward x0."""
        flags = dict.fromkeys(("SR_stampacchia", "WR_stampacchia", "SR_minty", "WR_minty"), True)
        for row in self.rows:
            stampacchia, minty = self.stampacchia(row), self.minty(row)
            rays = (("stampacchia", stampacchia),) if minty is not stampacchia else ()
            for side, ray in rays + (("minty", minty),):
                dinis = [self.dini(ray, k) for k in range(len(self.dirs))]
                rep = regularity_of(self.f, self.derivative(ray), self.directions, dinis)
                flags[f"SR_{side}"] = flags[f"SR_{side}"] and rep.strong
                flags[f"WR_{side}"] = flags[f"WR_{side}"] and rep.weak
        return flags

    def segment_monotone(self):
        """For each differing candidate: inf of f over the segment stays below the
        endpoint value and differs from it.  Returns (holds, exact)."""
        holds = exact = True
        rows = [row for row in self.rows if row.value != self.v0 and not row.value.is_empty]
        for row, seg_inf, seg_exact in self.segment_infima(rows):
            exact = exact and seg_exact
            holds = holds and seg_inf.leq(row.value) and seg_inf != row.value
        return holds, exact

    def segment_infima(self, rows):
        """(row, inf f[x0, x], exact) for the given rows, x ≠ x0 with f(x) ≠ ∅.

        The paper takes the infimum over the open segment.  For exact
        functions it equals the one over the closed segment [x0, x]: they
        are continuous on a closed polyhedral domain that holds x0 and x, so
        each end value is a limit of values inside the segment and lies in
        the closed hull the infimum takes.  f is affine in the Minkowski
        sense between two critical parameters of the line, so each value
        there lies in the hull of the values at the two ends, and the
        infimum is the running hull of f(x0), f at the critical points below
        x, and f(x), one line at a time.  That is exact where
        ``_exact_segments`` holds; elsewhere, and without ``lines``, f is
        sampled inside the open segment."""
        f = self.f
        if self.lines is None or not _exact_segments(f):
            for row in rows:
                yield row, _sampled_segment_infimum(f, self.x0, row.x), False
            return
        ws, p0 = f.workspace, self.p0
        by_line = {}
        for row in rows:
            u, c = row.line
            by_line.setdefault(u, []).append((c, row))
        for u, line in by_line.items():
            below, crits = self.v0, iter(self.lines[u])
            s = next(crits, None)
            for c, row in sorted(line, key=lambda entry: entry[0]):
                while s is not None and s < c:
                    below = inf_family(ws, [below, f.value_at(f.point(_along(p0, u, s)))])
                    s = next(crits, None)
                yield row, inf_family(ws, [below, row.value]), True

    def enriched(self, directions: DirectionSet) -> DirectionSet:
        """The directions plus the facet normals of every value and derivative met."""
        extra = []
        for row in self.rows:
            extra.extend(n for n, _ in row.value.constraints)
            for ray in (self.stampacchia(row), self.minty(row)) if row.line is not None else ():
                try:
                    D = self.derivative(ray)
                except LatticeError:
                    continue
                extra.extend(n for n, _ in D.value.constraints)
        extra = [n for n in extra if any(c != 0 for c in n)]
        return directions.union(extra)

    def dini_witnesses(self, row, ray, ks, fails) -> List[dict]:
        dinis = ((k, self.dini(ray, k)) for k in ks)
        return [{"x": row.x, "zstar": tuple(self.dirs[k]), "dini": d} for k, d in dinis if fails(d)]

    def svi_I(self, row, ray):
        """phi(x0) = -inf or 0 <= phi'(x0, x - x0), for every z*."""
        return self.dini_witnesses(row, ray, self.bounded, lambda d: d < _ZERO)

    def SVI_I(self, row, ray):
        """0+f(x0) ≼ f'(x0, x - x0)."""
        return self.rec0.leq(self.derivative(ray).value)

    def mvi_I(self, row, ray):
        """phi'(x, x0 - x) <= 0, for every z*."""
        return self.dini_witnesses(row, ray, range(len(self.dirs)), lambda d: _ZERO < d)

    def MVI_I(self, row, ray):
        """f'(x, x0 - x) ≼ 0+f(x0); the equivalent form is 0 ∈ f'(x, x0 - x)."""
        D = self.derivative(ray)
        comparable = D.exact and not row.value.is_empty
        return D.value.leq(self.rec0), D.value.contains_point(self.origin) if comparable else None

    def svi_M(self, row, ray):
        """phi'(x0, x - x0) > 0 for some z*."""
        return any(_ZERO < self.dini(ray, k) for k in range(len(self.dirs)))

    def SVI_M(self, row, ray):
        """0 ∉ f'(x0, x - x0); the equivalent form f'(x0, x - x0) ∩ -0+f(x0) = ∅
        is read as 0 ∉ f'(x0, x - x0) + 0+f(x0)."""
        D = self.derivative(ray)
        meets = D.value.add(self.rec0).contains_point(self.origin)
        return not D.value.contains_point(self.origin), not meets if D.exact else None

    def svi_M2(self, row, ray):
        """-inf = phi(x0) < phi(x) or phi'(x0, x - x0) > 0, for some z*."""
        return any(
            (k not in self.bounded and not self.phi(row, k).is_minus_inf)
            or _ZERO < self.dini(ray, k)
            for k in range(len(self.dirs))
        )

    def mvi_M(self, row, ray):
        """phi(x) > -inf and phi'(x, x0 - x) < 0, for some z*."""
        ks = range(len(self.dirs))
        return any(not self.phi(row, k).is_minus_inf and self.dini(ray, k) < _ZERO for k in ks)

    def MVI_M(self, row, ray):
        """0+f(x) ⋠ f'(x, x0 - x)."""
        return not row.value.recession().leq(self.derivative(ray).value)


@dataclass(frozen=True)
class _Inequality:
    """One row of the inequality grid.

    minty: derivatives at x toward x0 (Minty), else at x0 toward x
    (Stampacchia).  form: "I" (infimizer) or "M" (minimality); M rows skip
    every x with f(x) = f(x0), Stampacchia M rows also every f(x) = ∅.
    guard: f(x0) = Z passes.  test(table, row, ray): the witnesses at x, or
    whether x passes, and with a note also the verdict of an equivalent form
    (None if not comparable); the note says if both agreed at every x.
    by_direction: witnesses are listed z*-major.  dini: the test reads scalar
    Dini values, so a function without them raises before any x is read."""

    minty: bool
    form: str
    guard: bool
    test: Callable
    note: Optional[str] = None
    by_direction: bool = False
    dini: bool = False


_INEQUALITIES = {
    "SVI_I": _Inequality(False, "I", False, _Table.SVI_I),
    "svi_I": _Inequality(False, "I", False, _Table.svi_I, by_direction=True, dini=True),
    "MVI_I": _Inequality(True, "I", False, _Table.MVI_I, "membership_form_agrees"),
    "mvi_I": _Inequality(True, "I", False, _Table.mvi_I, dini=True),
    "SVI_M": _Inequality(False, "M", True, _Table.SVI_M, "intersection_form_agrees"),
    "svi_M": _Inequality(False, "M", True, _Table.svi_M, dini=True),
    "svi_M2": _Inequality(False, "M", False, _Table.svi_M2, dini=True),
    "MVI_M": _Inequality(True, "M", False, _Table.MVI_M),
    "mvi_M": _Inequality(True, "M", False, _Table.mvi_M, dini=True),
    # mvi_M over the finite direction sample the caller passes
    "mvi_M_finite": _Inequality(True, "M", False, _Table.mvi_M, dini=True),
}

INEQUALITY_IDS = tuple(_INEQUALITIES)


def run_checker(name: str, f: SetFunction, x0, space: CandidateSpace, directions) -> ViReport:
    """Check the inequality `name` (one of INEQUALITY_IDS) at x0 against every
    x of the space; the scalarized forms range over the directions."""
    if name not in _INEQUALITIES:
        raise LatticeError(f"unknown inequality id {name!r}")
    x0 = as_vec(x0)
    _require_base(f, x0)
    return _Table(f, x0, space, directions).check(name)


# ---------------------------------------------------------------------------
# Optimality oracles
# ---------------------------------------------------------------------------


@dataclass
class ConditionReport:
    kind: str
    conditions: Dict[str, bool]
    witnesses: Dict[str, list]
    consistent: bool
    exact: bool

    def to_json(self):
        return {
            "kind": self.kind,
            "conditions": self.conditions,
            "witnesses": {k: [_witness_json(w) for w in v] for k, v in self.witnesses.items()},
            "consistent": self.consistent,
            "exact": self.exact,
        }


def _values(f: SetFunction, points, directions) -> list:
    """(x, f(x), [φ(x, z*) per z* of the directions]) per point, from f's records."""
    recs = [(x, f.point(x)) for x in points]
    return [(x, f.value_at(p), [f.phi_at(p, z) for z in directions]) for x, p in recs]


def infimum_at_point_check(
    f: SetFunction, x0, space: CandidateSpace, directions
) -> ConditionReport:
    """The equivalent characterizations (a)-(e) of f(x0) = inf f[space], plus
    the implied recession condition (f)."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    [(_, v0, phis0)] = _values(f, [x0], directions)
    rec0 = v0.recession()
    conds = {k: True for k in "abcdef"}
    wits = {k: [] for k in "abcdef"}
    table = _values(f, space.points, directions)
    inf_all = inf_family(f.workspace, [vx for _, vx, _ in table] + [v0])
    if v0 != inf_all:
        conds["a"] = False
        wits["a"].append({"inf": "differs"})
    for x, vx, phis in table:
        if not v0.residual_contains_origin(vx):
            conds["d"] = False
            wits["d"].append({"x": x})
        if not rec0.leq(vx.residual(v0)):
            conds["f"] = False
            wits["f"].append({"x": x})
        for z, phi0, phix in zip(directions, phis0, phis):
            if phix < phi0:
                conds["b"] = False
                wits["b"].append({"x": x, "zstar": tuple(z)})
            if _ZERO < ext_residual(phi0, phix):
                conds["c"] = False
                wits["c"].append({"x": x, "zstar": tuple(z)})
            if not phi0.is_minus_inf and ext_residual(phix, phi0) < _ZERO:
                conds["e"] = False
                wits["e"].append({"x": x, "zstar": tuple(z)})
    equiv = conds["a"] == conds["b"] == conds["c"] == conds["d"] == conds["e"]
    implied = (not conds["e"]) or conds["f"]
    return ConditionReport(
        kind="infimum_at_point",
        conditions=conds,
        witnesses=wits,
        consistent=equiv and implied,
        exact=f.is_exact,
    )


def minimal_check(f: SetFunction, x0, space: CandidateSpace, directions) -> ConditionReport:
    """The equivalent characterizations (a)-(e) of minimality of f(x0) in f[space]."""
    return minimal_scan(f, [x0], space, directions)[0]


def minimal_scan(
    f: SetFunction, bases: Iterable[Sequence], space: CandidateSpace, directions
) -> List[ConditionReport]:
    """minimal_check at every base over one space: each value and its
    scalarizations over the directions are read once, from f's records."""
    bases = [as_vec(x0) for x0 in bases]
    for x0 in bases:
        _require_base(f, x0)
    table = _values(f, space.points, directions)
    reports = []
    for _, v0, phis0 in _values(f, bases, directions):
        conds = {k: True for k in "abcde"}
        wits = {k: [] for k in "abcde"}
        for x, vx, phis in table:
            if vx == v0:
                continue
            pairs = list(zip(phis0, phis))
            failed = {
                "a": vx.leq(v0),
                "b": not any(phi0 < phix for phi0, phix in pairs),
                "c": not any(
                    not phix.is_minus_inf and ext_residual(phi0, phix) < _ZERO
                    for phi0, phix in pairs
                ),
                "d": not any(_ZERO < ext_residual(phix, phi0) for phi0, phix in pairs),
                "e": vx.residual_contains_origin(v0),
            }
            for k, fails in failed.items():
                if fails:
                    conds[k] = False
                    wits[k].append({"x": x})
        consistent = conds["a"] == conds["b"] == conds["c"] == conds["d"] == conds["e"]
        reports.append(ConditionReport("minimal", conds, wits, consistent, f.is_exact))
    return reports


@dataclass
class InfimizerReport:
    is_infimizer: bool
    translation_agrees: bool
    svi_at_zero: Optional[ViReport]
    exact: bool
    notes: dict = field(default_factory=dict)

    def to_json(self):
        return {
            "is_infimizer": self.is_infimizer,
            "translation_agrees": self.translation_agrees,
            "svi_at_zero": None if self.svi_at_zero is None else self.svi_at_zero.to_json(),
            "exact": self.exact,
            "notes": {k: str(v) for k, v in self.notes.items()},
        }


def infimizer_check(
    f: SetFunction, M: Sequence[Sequence], space: CandidateSpace, directions
) -> InfimizerReport:
    """Does inf f[M] equal inf f[space]?  Also reports the inf-translation
    agreement f̂(0; M) = f̂(0; co M) and the strict scalar Stampacchia verdict
    for the convexified translation at 0."""
    if not M:
        raise EmptyTranslationSet("infimizer candidate set must be nonempty")
    pts = [as_vec(m) for m in M]
    ws = f.workspace
    inf_M = inf_family(ws, [f.eval(m) for m in pts])
    inf_all = inf_family(ws, [f.eval(x) for x in space.points])
    verdict = inf_M == inf_all
    origin = (Fraction(0),) * f.xdim
    exact = f.is_exact
    svi_zero = None
    corollary_consistent = None
    try:
        fhat = inf_translate(f, pts, convex=True)
        fhat0_convex = fhat.eval(origin)
        agrees = inf_M == fhat0_convex  # inf_M is the finite translation f̂(0; M)
        probe = _translation_space(space, pts, origin)
        if not fhat0_convex.is_empty:
            probe_dirs = directions
            if fhat.is_exact:
                # a first-linear-piece sample per segment plus the value facet
                # normals suffice for the strict-Stampacchia/infimum bridge
                extra_pts = []
                for x in probe.points:
                    if x == origin:
                        continue
                    t = first_linear_sample(fhat, origin, x, directions)
                    if t is not None and 0 < t < 1:
                        extra_pts.append(tuple(t * c for c in x))
                probe = CandidateSpace.of(list(probe.points) + extra_pts, base=origin)
                facet_dirs = [n for x in probe.points for n, _ in fhat.eval(x).constraints]
                probe_dirs = directions.union(facet_dirs)
            svi_zero = run_checker("svi_I", fhat, origin, probe, probe_dirs)
            # the faithful form of the corollary compares against the
            # translated infimum over the same (enriched) probe space
            probe_inf = inf_family(
                f.workspace, [fhat.eval(x) for x in probe.points]
            )
            corollary_consistent = svi_zero.holds == (fhat0_convex == probe_inf)
    except LatticeError as exc:
        agrees = True
        exact = False
        svi_zero = None
        note = str(exc)
    else:
        note = ""
    report = InfimizerReport(
        is_infimizer=verdict,
        translation_agrees=agrees,
        svi_at_zero=svi_zero,
        exact=exact,
    )
    if note:
        report.notes["convex_translation"] = note
    if corollary_consistent is not None:
        report.notes["corollary_consistent"] = corollary_consistent
    return report


@dataclass
class SolutionReport:
    is_solution: bool
    infimizer: InfimizerReport
    minimal_failures: List[Vec]
    exact: bool

    def to_json(self):
        return {
            "is_solution": self.is_solution,
            "infimizer": self.infimizer.to_json(),
            "minimal_failures": [[str(c) for c in v] for v in self.minimal_failures],
            "exact": self.exact,
        }


def solution_check(
    f: SetFunction, M: Sequence[Sequence], space: CandidateSpace, directions
) -> SolutionReport:
    """An infimizer consisting of only minimizers."""
    inf_rep = infimizer_check(f, M, space, directions)
    pts = [as_vec(m) for m in M]
    bases = [m for m in pts if not f.eval(m).is_empty]
    minimal = dict(zip(bases, minimal_scan(f, bases, space, directions)))
    failures = [m for m in pts if m not in minimal or not minimal[m].conditions["a"]]
    return SolutionReport(
        is_solution=inf_rep.is_infimizer and not failures,
        infimizer=inf_rep,
        minimal_failures=failures,
        exact=inf_rep.exact and all(rep.exact for rep in minimal.values()),
    )


# ---------------------------------------------------------------------------
# Enrichment helpers (exact relativization closure)
# ---------------------------------------------------------------------------


def _line_criticals(f: SetFunction, x0: Vec, points, directions):
    """The critical parameters s of f on each half-line x0 + s u, u primitive,
    that holds one of the points: one ``segment_criticals`` call per line,
    on the segment to its farthest point, in units of u.  The criticals of
    [x0, x] for a nearer x are those below it.  None unless f is a row
    function."""
    if not isinstance(f, RowFunction):
        return None
    p0 = f.point(x0)
    far = {}
    for x in points:
        p = f.point(x)
        if p != p0:
            u, c = _half_line(p0, p)
            if u not in far or far[u][0] < c:
                far[u] = c, x
    return {u: [t * c for t in segment_criticals(f, x0, x, directions)] for u, (c, x) in far.items()}


def enrich_space(
    f: SetFunction, x0, space: CandidateSpace, directions
) -> CandidateSpace:
    """Add the critical segment parameters between the base and every
    candidate, and the midpoints between them.  The new space keeps each
    half-line's criticals in ``lines``: its points lie on the same half-lines,
    none beyond the farthest candidate."""
    x0 = as_vec(x0)
    lines = _line_criticals(f, x0, space.points, directions)
    p0 = f.point(x0)
    pts = list(space.points)
    for x in space.points if lines else ():
        p = f.point(x)
        if p == p0:
            continue
        u, c = _half_line(p0, p)
        crits = [s for s in lines[u] if s < c]
        if not crits:
            continue
        partition = [0, *crits, c]
        mids = [(lo + hi) / 2 for lo, hi in zip(partition, partition[1:])]
        pts.extend(tuple(a + s * b for a, b in zip(x0, u)) for s in crits + mids)
    return CandidateSpace(CandidateSpace.of(pts, base=x0).points, lines)


def enrich_directions(
    f: SetFunction, x0, space: CandidateSpace, directions: DirectionSet
) -> DirectionSet:
    """Add facet normals of every value and derivative met over the space."""
    return _Table(f, as_vec(x0), space, directions, enrich=True).directions


# ---------------------------------------------------------------------------
# Implication audit
# ---------------------------------------------------------------------------


@dataclass
class AuditItem:
    name: str
    premise: str
    conclusion: str
    condition: str
    premise_holds: bool
    conclusion_holds: bool
    condition_holds: Optional[bool]
    status: str  # ok | violation | inconclusive

    def to_json(self):
        return self.__dict__.copy()


@dataclass
class AuditReport:
    reports: Dict[str, ViReport]
    infimum: ConditionReport
    minimal: ConditionReport
    items: List[AuditItem]
    regularity: dict
    lsc: dict
    space: CandidateSpace
    directions: Tuple[Tuple[int, ...], ...]
    exact: bool

    @property
    def violations(self) -> List[AuditItem]:
        return [i for i in self.items if i.status == "violation"]

    def to_json(self):
        return {
            "reports": {k: v.to_json() for k, v in self.reports.items()},
            "infimum": self.infimum.to_json(),
            "minimal": self.minimal.to_json(),
            "items": [i.to_json() for i in self.items],
            "regularity": {k: bool(v) for k, v in self.regularity.items()},
            "lsc": {k: bool(v) for k, v in self.lsc.items()},
            "space": [[str(c) for c in p] for p in self.space.points],
            "directions": [list(d) for d in self.directions],
            "exact": self.exact,
        }

    def matrix_text(self) -> str:
        width = max(len(i.name) for i in self.items) + 2
        lines = [
            f"{'implication':<{width}}premise conclusion condition status",
        ]
        for i in self.items:
            cond = "-" if i.condition_holds is None else ("yes" if i.condition_holds else "no")
            lines.append(
                f"{i.name:<{width}}"
                f"{str(i.premise_holds):<8}"
                f"{str(i.conclusion_holds):<11}"
                f"{cond:<10}"
                f"{i.status}"
            )
        return "\n".join(lines)


# The audited implications: (premise, conclusion, side condition).  SR and WR
# are the strong and weak regularity along the premise's own rays (from x0
# toward x for a Stampacchia premise, from x toward x0 for a Minty one).
IMPLICATIONS = (
    ("svi_I", "SVI_I", None),
    ("SVI_I", "svi_I", "SR"),
    ("MVI_I", "mvi_I", None),
    ("mvi_I", "MVI_I", "WR"),
    ("svi_M", "SVI_M", None),
    ("SVI_M", "svi_M", "WR"),
    ("MVI_M", "mvi_M", None),
    ("mvi_M", "MVI_M", "SR"),
    ("svi_M", "svi_M2", None),
    ("svi_I", "infimum", None),
    ("infimum", "svi_I", None),
    ("infimum", "MVI_I", None),
    ("MVI_I", "infimum", "lattice-lsc"),
    ("mvi_I", "infimum", "C--lsc"),
    ("SVI_M", "minimal", None),
    ("svi_M2", "minimal", None),
    ("minimal", "mvi_M", None),
    ("mvi_M_finite", "minimal", "M*-lsc"),
    ("mvi_M", "segment-monotone", None),
    ("segment-monotone", "mvi_M", None),
)


def implication_audit(
    f: SetFunction,
    x0,
    space: CandidateSpace,
    directions: DirectionSet,
    enrich: bool = True,
) -> AuditReport:
    """Run every checker and optimality oracle and audit the implication web.

    A 'violation' is a failed implication whose premise, conclusion and side
    condition were all computed exactly; on approximate instances failures
    are reported as 'inconclusive'.
    """
    x0 = as_vec(x0)
    _require_base(f, x0)
    space = space.with_base(x0)
    if enrich:
        space = enrich_space(f, x0, space, directions)
        lines = space.lines
    else:
        lines = _line_criticals(f, x0, space.points, directions)
    table = _Table(f, x0, space, directions, enrich, lines)
    directions = table.directions

    reports = {name: table.check(name) for name in INEQUALITY_IDS}

    infimum = infimum_at_point_check(f, x0, space, directions)
    minimal = minimal_check(f, x0, space, directions)

    regularity = table.regularity()

    # An exact function is l.s.c. along every segment, in the lattice and
    # in each scalarization: its offsets vary continuously and its domain is
    # closed, so the liminf never exceeds the value.  An oracle's l.s.c. is
    # not known: it is assumed, and an implication that needs it is at best
    # inconclusive, since an oracle audit is not exact.
    lsc = {"lattice": True, "cminus": True, "certified": f.is_exact}

    monotone, monotone_exact = table.segment_monotone()

    exact = f.is_exact  # so are the reports, the oracles and the derivatives
    holds = {
        **{name: rep.holds for name, rep in reports.items()},
        "infimum": infimum.conditions["a"],
        "minimal": minimal.conditions["a"],
        "segment-monotone": monotone,
        "lattice-lsc": lsc["lattice"],
        "C--lsc": lsc["cminus"],
        "M*-lsc": lsc["cminus"],
    }
    # facts that are trusted only where their probes were exact
    uncertain = {"segment-monotone": not monotone_exact}
    items = []
    for premise, conclusion, cond in IMPLICATIONS:
        if cond in ("SR", "WR"):
            side = "minty" if _INEQUALITIES[premise].minty else "stampacchia"
            cond_value = regularity[f"{cond}_{side}"]
        else:
            cond_value = holds[cond] if cond else None
        p, c = holds[premise], holds[conclusion]
        if not (p and (cond_value is None or cond_value)) or c:
            status = "ok"
        elif not exact or any(uncertain.get(k) for k in (premise, conclusion, cond)):
            status = "inconclusive"
        else:
            status = "violation"
        name = f"{premise} + {cond} => {conclusion}" if cond else f"{premise} => {conclusion}"
        items.append(AuditItem(name, premise, conclusion, cond or "", p, c, cond_value, status))

    return AuditReport(
        reports=reports,
        infimum=infimum,
        minimal=minimal,
        items=items,
        regularity=regularity,
        lsc=lsc,
        space=space,
        directions=tuple(directions),
        exact=exact,
    )


def implication_audit_for_set(
    f: SetFunction,
    M: Sequence[Sequence],
    space: CandidateSpace,
    directions: DirectionSet,
) -> AuditReport:
    """Audit a candidate infimizer set by translating it to the origin.

    The problem 'is M an infimizer' becomes 'is {0} an infimizer of the
    inf-translation by co M', which the pointwise audit can interrogate; the
    probe space shifts every candidate against every translation point.
    """
    pts = [as_vec(m) for m in M]
    fhat = inf_translate(f, pts, convex=True)
    origin = (Fraction(0),) * f.xdim
    return implication_audit(fhat, origin, _translation_space(space, pts, origin), directions)


def _exact_segments(f: SetFunction) -> bool:
    """Whether the audit reads inf f[x0, x] exactly, from the values on the
    line: for a ParamPoly f, and for an EpiVector f whose cone facet normals
    are all <= 0 (the condition of ``as_parampoly``).  On other cones a
    componentwise convex psi need not make psi + C convex, although it is
    declared so, and the infimum is sampled."""
    if isinstance(f, EpiVectorFunction):
        return all(c <= 0 for n in f.workspace.cone.facet_normals for c in n)
    return isinstance(f, ParamPolyFunction)


def _sampled_segment_infimum(f: SetFunction, x0: Vec, x: Vec) -> UpperSet:
    """The lattice infimum of f at 15 points inside the open segment (x0, x)."""
    g = f.restrict(x0, x)
    samples = [Fraction(k, 16) for k in range(1, 16)]
    return inf_family(g.workspace, [g.eval((t,)) for t in samples])
