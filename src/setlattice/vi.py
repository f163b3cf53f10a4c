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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .calculus import (
    regularity_check,
    scalar_dini,
    segment_criticals,
    set_derivative,
)
from .extres import ExtReal, residual as ext_residual
from .kernel import (
    DirectionSet,
    LatticeError,
    Vec,
    as_vec,
    feasible_with,
    inf_family,
    mirror_facets,
)
from .setfun import (
    EpiVectorFunction,
    LscProbe,
    ParamPolyFunction,
    SetFunction,
    cminus_lsc_probe,
    inf_translate,
    inf_translation,
    lattice_lsc_probe,
)

INEQUALITY_IDS = (
    "SVI_I",
    "svi_I",
    "MVI_I",
    "mvi_I",
    "SVI_M",
    "svi_M",
    "svi_M2",
    "MVI_M",
    "mvi_M",
    "mvi_M_finite",
)


class BaseOutsideDomain(LatticeError):
    pass


def _vsub(a: Vec, b: Vec) -> Vec:
    return tuple(p - q for p, q in zip(a, b))


@dataclass(frozen=True)
class CandidateSpace:
    """Finite stand-in for 'for all x in X'; the base point is always a member."""

    points: Tuple[Vec, ...]
    base: Optional[Vec] = None

    @staticmethod
    def of(points: Iterable[Sequence], base: Optional[Sequence] = None) -> "CandidateSpace":
        pts = []
        for p in points:
            v = as_vec(p)
            if v not in pts:
                pts.append(v)
        b = None
        if base is not None:
            b = as_vec(base)
            if b not in pts:
                pts.append(b)
        return CandidateSpace(tuple(sorted(pts)), b)

    def with_base(self, base: Sequence) -> "CandidateSpace":
        return CandidateSpace.of(self.points, base)

    def __len__(self):
        return len(self.points)


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
# The ten inequality checkers
# ---------------------------------------------------------------------------


def check_svi_i(f: SetFunction, x0, space: CandidateSpace, directions) -> ViReport:
    """Strict scalarized Stampacchia: phi(x0) = -inf or 0 <= phi'(x0, x - x0)."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    zero = ExtReal(0)
    report = ViReport("svi_I", True, exact=f.is_exact, space_size=len(space))
    for z in directions:
        if f.scalarize(z, x0).is_minus_inf:
            continue
        for x in space.points:
            d = scalar_dini(f, z, x0, _vsub(x, x0))
            if d < zero:
                report.holds = False
                report.witnesses.append({"x": x, "zstar": tuple(z), "dini": d})
    return report


def check_svi_I(f, x0, space, directions):  # noqa: N802 - paper-style alias
    return check_svi_i(f, x0, space, directions)


def check_SVI_I(f: SetFunction, x0, space: CandidateSpace) -> ViReport:
    """Strict set-valued Stampacchia: 0+f(x0) ≼ f'(x0, x - x0) for all x."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    rec0 = f.eval(x0).recession()
    report = ViReport("SVI_I", True, exact=f.is_exact, space_size=len(space))
    for x in space.points:
        D = set_derivative(f, x0, _vsub(x, x0))
        report.exact = report.exact and D.exact
        if not rec0.leq(D.value):
            report.holds = False
            report.witnesses.append({"x": x})
    return report


def check_mvi_i(f: SetFunction, x0, space: CandidateSpace, directions) -> ViReport:
    """Strict scalarized Minty: phi'(x, x0 - x) <= 0 for all x, z*."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    zero = ExtReal(0)
    report = ViReport("mvi_I", True, exact=f.is_exact, space_size=len(space))
    for x in space.points:
        u = _vsub(x0, x)
        for z in directions:
            d = scalar_dini(f, z, x, u)
            if zero < d:
                report.holds = False
                report.witnesses.append({"x": x, "zstar": tuple(z), "dini": d})
    return report


def check_MVI_I(f: SetFunction, x0, space: CandidateSpace) -> ViReport:
    """Strict set-valued Minty: f'(x, x0 - x) ≼ 0+f(x0), equivalently 0 ∈ f'."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    rec0 = f.eval(x0).recession()
    origin = (Fraction(0),) * f.workspace.dim
    report = ViReport("MVI_I", True, exact=f.is_exact, space_size=len(space))
    agreement = True
    for x in space.points:
        D = set_derivative(f, x, _vsub(x0, x))
        report.exact = report.exact and D.exact
        holds_here = D.value.leq(rec0)
        member = D.value.contains_point(origin)
        if D.exact and not f.eval(x).is_empty and holds_here != member:
            agreement = False
        if not holds_here:
            report.holds = False
            report.witnesses.append({"x": x})
    report.notes["membership_form_agrees"] = agreement
    return report


def check_svi_M(f: SetFunction, x0, space: CandidateSpace, directions) -> ViReport:
    """Scalarized Stampacchia (minimality form): a strictly positive scalar
    derivative exists toward every differing value."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    v0 = f.eval(x0)
    zero = ExtReal(0)
    report = ViReport("svi_M", True, exact=f.is_exact, space_size=len(space))
    if v0.is_whole:
        report.notes["guard"] = "f(x0) = Z"
        return report
    for x in space.points:
        vx = f.eval(x)
        if vx.is_empty or vx == v0:
            continue
        if not any(
            zero < scalar_dini(f, z, x0, _vsub(x, x0)) for z in directions
        ):
            report.holds = False
            report.witnesses.append({"x": x})
    return report


def check_SVI_M(f: SetFunction, x0, space: CandidateSpace) -> ViReport:
    """Set-valued Stampacchia (minimality form): 0 ∉ f'(x0, x - x0) toward
    every differing value; the intersection form with -0+f(x0) is cross-checked."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    v0 = f.eval(x0)
    origin = (Fraction(0),) * f.workspace.dim
    report = ViReport("SVI_M", True, exact=f.is_exact, space_size=len(space))
    if v0.is_whole:
        report.notes["guard"] = "f(x0) = Z"
        return report
    rec0_mirror = mirror_facets(v0.recession())
    agreement = True
    for x in space.points:
        vx = f.eval(x)
        if vx.is_empty or vx == v0:
            continue
        D = set_derivative(f, x0, _vsub(x, x0))
        report.exact = report.exact and D.exact
        member = D.value.contains_point(origin)
        intersects = feasible_with(D.value, rec0_mirror)
        if D.exact and member != intersects:
            agreement = False
        if member:
            report.holds = False
            report.witnesses.append({"x": x})
    report.notes["intersection_form_agrees"] = agreement
    return report


def check_svi_M2(f: SetFunction, x0, space: CandidateSpace, directions) -> ViReport:
    """Disjunctive scalarized Stampacchia: -inf = phi(x0) < phi(x), or a
    strictly positive scalar derivative."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    v0 = f.eval(x0)
    zero = ExtReal(0)
    report = ViReport("svi_M2", True, exact=f.is_exact, space_size=len(space))
    for x in space.points:
        vx = f.eval(x)
        if vx.is_empty or vx == v0:
            continue
        ok = False
        for z in directions:
            phi0 = f.scalarize(z, x0)
            phix = f.scalarize(z, x)
            if phi0.is_minus_inf and not phix.is_minus_inf:
                ok = True
                break
            if zero < scalar_dini(f, z, x0, _vsub(x, x0)):
                ok = True
                break
        if not ok:
            report.holds = False
            report.witnesses.append({"x": x})
    return report


def check_mvi_M(
    f: SetFunction, x0, space: CandidateSpace, directions, inequality_id: str = "mvi_M"
) -> ViReport:
    """Scalarized Minty (minimality form): toward every differing value some
    scalarization is finite at x and strictly decreasing toward x0."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    v0 = f.eval(x0)
    zero = ExtReal(0)
    report = ViReport(inequality_id, True, exact=f.is_exact, space_size=len(space))
    for x in space.points:
        if f.eval(x) == v0:
            continue
        u = _vsub(x0, x)
        ok = False
        for z in directions:
            if f.scalarize(z, x).is_minus_inf:
                continue
            if scalar_dini(f, z, x, u) < zero:
                ok = True
                break
        if not ok:
            report.holds = False
            report.witnesses.append({"x": x})
    return report


def check_mvi_M_finite(f, x0, space, finite_directions) -> ViReport:
    return check_mvi_M(f, x0, space, finite_directions, inequality_id="mvi_M_finite")


def check_MVI_M(f: SetFunction, x0, space: CandidateSpace) -> ViReport:
    """Set-valued Minty (minimality form): 0+f(x) ⋠ f'(x, x0 - x) toward
    every differing value."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    v0 = f.eval(x0)
    report = ViReport("MVI_M", True, exact=f.is_exact, space_size=len(space))
    for x in space.points:
        vx = f.eval(x)
        if vx == v0:
            continue
        D = set_derivative(f, x, _vsub(x0, x))
        report.exact = report.exact and D.exact
        if vx.recession().leq(D.value):
            report.holds = False
            report.witnesses.append({"x": x})
    return report


_CHECKERS = {
    "svi_I": lambda f, x0, sp, dirs: check_svi_i(f, x0, sp, dirs),
    "SVI_I": lambda f, x0, sp, dirs: check_SVI_I(f, x0, sp),
    "mvi_I": lambda f, x0, sp, dirs: check_mvi_i(f, x0, sp, dirs),
    "MVI_I": lambda f, x0, sp, dirs: check_MVI_I(f, x0, sp),
    "svi_M": lambda f, x0, sp, dirs: check_svi_M(f, x0, sp, dirs),
    "SVI_M": lambda f, x0, sp, dirs: check_SVI_M(f, x0, sp),
    "svi_M2": lambda f, x0, sp, dirs: check_svi_M2(f, x0, sp, dirs),
    "mvi_M": lambda f, x0, sp, dirs: check_mvi_M(f, x0, sp, dirs),
    "MVI_M": lambda f, x0, sp, dirs: check_MVI_M(f, x0, sp),
    "mvi_M_finite": lambda f, x0, sp, dirs: check_mvi_M_finite(f, x0, sp, dirs),
}


def run_checker(name: str, f, x0, space, directions) -> ViReport:
    try:
        checker = _CHECKERS[name]
    except KeyError:
        raise LatticeError(f"unknown inequality id {name!r}") from None
    return checker(f, x0, space, directions)


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

    @property
    def holds(self) -> bool:
        return self.conditions[self.primary]

    @property
    def primary(self) -> str:
        return "a"

    def to_json(self):
        return {
            "kind": self.kind,
            "conditions": self.conditions,
            "witnesses": {k: [_witness_json(w) for w in v] for k, v in self.witnesses.items()},
            "consistent": self.consistent,
            "exact": self.exact,
        }


def infimum_at_point_check(
    f: SetFunction, x0, space: CandidateSpace, directions
) -> ConditionReport:
    """The equivalent characterizations (a)-(e) of f(x0) = inf f[space], plus
    the implied recession condition (f)."""
    x0 = as_vec(x0)
    _require_base(f, x0)
    v0 = f.eval(x0)
    rec0 = v0.recession()
    zero = ExtReal(0)
    conds = {k: True for k in "abcdef"}
    wits = {k: [] for k in "abcdef"}
    inf_all = inf_family(f.workspace, [f.eval(x) for x in space.points] + [v0])
    if v0 != inf_all:
        conds["a"] = False
        wits["a"].append({"inf": "differs"})
    origin = (Fraction(0),) * f.workspace.dim
    for x in space.points:
        vx = f.eval(x)
        q = v0.residual(vx)
        if not q.contains_point(origin):
            conds["d"] = False
            wits["d"].append({"x": x})
        qb = vx.residual(v0)
        if not rec0.leq(qb):
            conds["f"] = False
            wits["f"].append({"x": x})
        for z in directions:
            phi0 = f.scalarize(z, x0)
            phix = f.scalarize(z, x)
            if phix < phi0:
                conds["b"] = False
                wits["b"].append({"x": x, "zstar": tuple(z)})
            if zero < ext_residual(phi0, phix):
                conds["c"] = False
                wits["c"].append({"x": x, "zstar": tuple(z)})
            if not phi0.is_minus_inf and ext_residual(phix, phi0) < zero:
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
    x0 = as_vec(x0)
    _require_base(f, x0)
    v0 = f.eval(x0)
    zero = ExtReal(0)
    conds = {k: True for k in "abcde"}
    wits = {k: [] for k in "abcde"}
    origin = (Fraction(0),) * f.workspace.dim
    for x in space.points:
        vx = f.eval(x)
        if vx == v0:
            continue
        if vx.leq(v0):
            conds["a"] = False
            wits["a"].append({"x": x})
        found_b = found_c = found_d = False
        for z in directions:
            phi0 = f.scalarize(z, x0)
            phix = f.scalarize(z, x)
            if phi0 < phix:
                found_b = True
            if not phix.is_minus_inf and ext_residual(phi0, phix) < zero:
                found_c = True
            if zero < ext_residual(phix, phi0):
                found_d = True
        if not found_b:
            conds["b"] = False
            wits["b"].append({"x": x})
        if not found_c:
            conds["c"] = False
            wits["c"].append({"x": x})
        if not found_d:
            conds["d"] = False
            wits["d"].append({"x": x})
        if vx.residual(v0).contains_point(origin):
            conds["e"] = False
            wits["e"].append({"x": x})
    consistent = (
        conds["a"] == conds["b"] == conds["c"] == conds["d"] == conds["e"]
    )
    return ConditionReport(
        kind="minimal",
        conditions=conds,
        witnesses=wits,
        consistent=consistent,
        exact=f.is_exact,
    )


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
        from .setfun import EmptyTranslationSet

        raise EmptyTranslationSet("infimizer candidate set must be nonempty")
    pts = [as_vec(m) for m in M]
    ws = f.workspace
    inf_M = inf_family(ws, [f.eval(m) for m in pts])
    inf_all = inf_family(ws, [f.eval(x) for x in space.points])
    verdict = inf_M == inf_all
    origin = (Fraction(0),) * f.xdim
    fhat0_finite = inf_translation(f, pts, origin)
    exact = f.is_exact
    svi_zero = None
    corollary_consistent = None
    try:
        fhat = inf_translate(f, pts, convex=True)
        fhat0_convex = fhat.eval(origin)
        agrees = fhat0_finite == fhat0_convex
        probe_points = []
        for x in space.points:
            for m in pts:
                probe_points.append(_vsub(x, m))
        probe = CandidateSpace.of(probe_points, base=origin)
        if not fhat0_convex.is_empty:
            probe_dirs = directions
            if fhat.is_exact:
                # a first-linear-piece sample per segment plus the value facet
                # normals suffice for the strict-Stampacchia/infimum bridge
                from .calculus import first_linear_sample

                extra_pts = []
                for x in probe.points:
                    if x == origin:
                        continue
                    t = first_linear_sample(fhat, origin, x, directions)
                    if t is not None and 0 < t < 1:
                        extra_pts.append(tuple(t * c for c in x))
                probe = CandidateSpace.of(
                    list(probe.points) + extra_pts, base=origin
                )
                facet_dirs = []
                for x in probe.points:
                    v = fhat.eval(x)
                    if not v.is_empty:
                        facet_dirs.extend(n for n, _ in v.constraints)
                probe_dirs = directions.union(facet_dirs, f.workspace.cone)
            svi_zero = check_svi_i(fhat, origin, probe, probe_dirs)
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
    failures = []
    exact = inf_rep.exact
    for m in M:
        mm = as_vec(m)
        if f.eval(mm).is_empty:
            failures.append(mm)
            continue
        rep = minimal_check(f, mm, space, directions)
        exact = exact and rep.exact
        if not rep.conditions["a"]:
            failures.append(mm)
    return SolutionReport(
        is_solution=inf_rep.is_infimizer and not failures,
        infimizer=inf_rep,
        minimal_failures=failures,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# Enrichment helpers (exact relativization closure)
# ---------------------------------------------------------------------------


def enrich_space(
    f: SetFunction, x0, space: CandidateSpace, directions
) -> CandidateSpace:
    """Add the critical segment parameters between the base and every candidate."""
    x0 = as_vec(x0)
    pts = list(space.points)
    if not f.is_exact:
        return CandidateSpace.of(pts, base=x0)
    for x in space.points:
        if x == x0:
            continue
        crits = segment_criticals(f, x0, x, directions)
        if not crits:
            continue
        partition = [Fraction(0)] + list(crits) + [Fraction(1)]
        ts = set(crits)
        for lo, hi in zip(partition, partition[1:]):
            if hi > lo:
                ts.add((lo + hi) / 2)
        for t in ts:
            if 0 < t < 1:
                pts.append(tuple(a + t * (b - a) for a, b in zip(x0, x)))
    return CandidateSpace.of(pts, base=x0)


def enrich_directions(
    f: SetFunction, x0, space: CandidateSpace, directions: DirectionSet
) -> DirectionSet:
    """Add facet normals of every value and derivative met over the space."""
    cone = f.workspace.cone
    x0 = as_vec(x0)
    extra = []
    for x in space.points:
        v = f.eval(x)
        if not v.is_empty:
            extra.extend(n for n, _ in v.constraints)
        for base, other in ((x0, x), (x, x0)):
            if base == other:
                continue
            try:
                D = set_derivative(f, base, _vsub(other, base))
            except LatticeError:
                continue
            if not D.value.is_empty:
                extra.extend(n for n, _ in D.value.constraints)
    extra = [n for n in extra if any(c != 0 for c in n)]
    return directions.union(extra, cone)


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


def implication_audit(
    f: SetFunction,
    x0,
    space: CandidateSpace,
    directions: DirectionSet,
    enrich: bool = True,
    probe: Optional[LscProbe] = None,
) -> AuditReport:
    """Run every checker and optimality oracle and audit the implication web.

    A 'violation' is a failed implication whose premise, conclusion and side
    condition were all computed exactly; on approximate instances failures
    are reported as 'inconclusive'.
    """
    x0 = as_vec(x0)
    _require_base(f, x0)
    if enrich:
        space = enrich_space(f, x0, space.with_base(x0), directions)
        directions = enrich_directions(f, x0, space, directions)
    else:
        space = space.with_base(x0)

    reports: Dict[str, ViReport] = {}
    for name in INEQUALITY_IDS:
        reports[name] = run_checker(name, f, x0, space, directions)

    infimum = infimum_at_point_check(f, x0, space, directions)
    minimal = minimal_check(f, x0, space, directions)

    sr_stamp = True
    wr_stamp = True
    sr_minty = True
    wr_minty = True
    reg_exact = True
    for x in space.points:
        if x != x0:
            rep = regularity_check(f, x0, _vsub(x, x0), directions)
            sr_stamp = sr_stamp and rep.strong
            wr_stamp = wr_stamp and rep.weak
            reg_exact = reg_exact and rep.exact
        rep2 = regularity_check(f, x, _vsub(x0, x), directions)
        sr_minty = sr_minty and rep2.strong
        wr_minty = wr_minty and rep2.weak
        reg_exact = reg_exact and rep2.exact

    lattice_lsc = True
    cminus_lsc = True
    lsc_certified = True
    for x in space.points:
        if x == x0:
            continue
        pr = lattice_lsc_probe(f, x0, x, probe)
        lattice_lsc = lattice_lsc and pr.holds
        lsc_certified = lsc_certified and pr.certified
        for res in cminus_lsc_probe(f, x0, x, directions, probe).values():
            cminus_lsc = cminus_lsc and res.holds
            lsc_certified = lsc_certified and res.certified

    monotone, monotone_exact = _monotone_segment_characterization(f, x0, space)

    exact = (
        f.is_exact
        and all(r.exact for r in reports.values())
        and infimum.exact
        and minimal.exact
        and reg_exact
    )
    _LSC_CONDS = ("lattice-lsc", "C--lsc", "M*-lsc")
    _MONOTONE = "segment-monotone"

    def item(name, premise, conclusion, cond_name=None, cond_value=None):
        p = _lookup(reports, infimum, minimal, monotone, premise)
        c = _lookup(reports, infimum, minimal, monotone, conclusion)
        applicable = p and (cond_value is None or cond_value)
        ok = (not applicable) or c
        if ok:
            status = "ok"
        elif not exact:
            status = "inconclusive"
        elif cond_name in _LSC_CONDS and not lsc_certified:
            status = "inconclusive"
        elif _MONOTONE in (premise, conclusion) and not monotone_exact:
            status = "inconclusive"
        else:
            status = "violation"
        return AuditItem(
            name=name,
            premise=premise,
            conclusion=conclusion,
            condition=cond_name or "",
            premise_holds=p,
            conclusion_holds=c,
            condition_holds=cond_value,
            status=status,
        )

    items = [
        item("svi_I => SVI_I", "svi_I", "SVI_I"),
        item("SVI_I + SR => svi_I", "SVI_I", "svi_I", "SR", sr_stamp),
        item("MVI_I => mvi_I", "MVI_I", "mvi_I"),
        item("mvi_I + WR => MVI_I", "mvi_I", "MVI_I", "WR", wr_minty),
        item("svi_M => SVI_M", "svi_M", "SVI_M"),
        item("SVI_M + WR => svi_M", "SVI_M", "svi_M", "WR", wr_stamp),
        item("MVI_M => mvi_M", "MVI_M", "mvi_M"),
        item("mvi_M + SR => MVI_M", "mvi_M", "MVI_M", "SR", sr_minty),
        item("svi_M => svi_M2", "svi_M", "svi_M2"),
        item("svi_I => infimum", "svi_I", "infimum"),
        item("infimum => svi_I", "infimum", "svi_I"),
        item("infimum => MVI_I", "infimum", "MVI_I"),
        item("MVI_I + lattice-lsc => infimum", "MVI_I", "infimum", "lattice-lsc", lattice_lsc),
        item("mvi_I + C--lsc => infimum", "mvi_I", "infimum", "C--lsc", cminus_lsc),
        item("SVI_M => minimal", "SVI_M", "minimal"),
        item("svi_M2 => minimal", "svi_M2", "minimal"),
        item("minimal => mvi_M", "minimal", "mvi_M"),
        item(
            "mvi_M_finite + M*-lsc => minimal",
            "mvi_M_finite",
            "minimal",
            "M*-lsc",
            cminus_lsc,
        ),
        item("mvi_M => segment-monotone", "mvi_M", "segment-monotone"),
        item("segment-monotone => mvi_M", "segment-monotone", "mvi_M"),
    ]

    return AuditReport(
        reports=reports,
        infimum=infimum,
        minimal=minimal,
        items=items,
        regularity={
            "SR_stampacchia": sr_stamp,
            "WR_stampacchia": wr_stamp,
            "SR_minty": sr_minty,
            "WR_minty": wr_minty,
        },
        lsc={
            "lattice": lattice_lsc,
            "cminus": cminus_lsc,
            "certified": lsc_certified,
        },
        space=space,
        directions=tuple(directions),
        exact=exact,
    )


def implication_audit_for_set(
    f: SetFunction,
    M: Sequence[Sequence],
    space: CandidateSpace,
    directions: DirectionSet,
    enrich: bool = True,
    probe: Optional[LscProbe] = None,
) -> AuditReport:
    """Audit a candidate infimizer set by translating it to the origin.

    The problem 'is M an infimizer' becomes 'is {0} an infimizer of the
    inf-translation by co M', which the pointwise audit can interrogate; the
    probe space shifts every candidate against every translation point.
    """
    pts = [as_vec(m) for m in M]
    fhat = inf_translate(f, pts, convex=True)
    origin = (Fraction(0),) * f.xdim
    probe_points = [_vsub(x, m) for x in space.points for m in pts]
    probe_space = CandidateSpace.of(probe_points, base=origin)
    return implication_audit(fhat, origin, probe_space, directions, enrich, probe)


def _lookup(reports, infimum, minimal, monotone, key: str) -> bool:
    if key in reports:
        return reports[key].holds
    if key == "infimum":
        return infimum.conditions["a"]
    if key == "minimal":
        return minimal.conditions["a"]
    if key == "segment-monotone":
        return monotone
    raise LatticeError(f"unknown audit key {key!r}")


def _monotone_segment_characterization(f: SetFunction, x0: Vec, space: CandidateSpace):
    """For each differing candidate: inf of f over the open segment stays
    below the endpoint value and differs from it.  Returns (holds, exact)."""
    v0 = f.eval(x0)
    holds = True
    exact = True
    for x in space.points:
        vx = f.eval(x)
        if vx == v0 or vx.is_empty:
            continue
        seg_inf, seg_exact = _open_segment_infimum(f, x0, x)
        exact = exact and seg_exact
        if not (seg_inf.leq(vx) and seg_inf != vx):
            holds = False
    return holds, exact


def _open_segment_infimum(f: SetFunction, x0: Vec, x: Vec):
    ws = f.workspace
    if isinstance(f, EpiVectorFunction):
        try:
            f = f.as_parampoly()
        except LatticeError:
            pass
    if isinstance(f, ParamPolyFunction):
        zero = tuple(Fraction(0) for _ in x0)
        fhat = inf_translate(f, [zero, _vsub(x, x0)], convex=True)
        return fhat.eval(x0), True
    g = f.restrict(x0, x)
    samples = [Fraction(k, 16) for k in range(1, 16)]
    return inf_family(ws, [g.eval((t,)) for t in samples]), False
