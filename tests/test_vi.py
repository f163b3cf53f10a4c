import hashlib
import json
import random
from bisect import bisect_left
from fractions import Fraction
from itertools import product

import pytest

from setlattice import calculus, vi
from setlattice.calculus import (
    NotDeclaredConvex,
    regularity_check,
    scalar_dini,
    segment_criticals,
    set_derivative,
)
from setlattice.extres import ExtReal, residual as ext_residual
from setlattice.instances import (
    heyde_a,
    heyde_b,
    no_solution_line,
    orthant_workspace,
    random_concave_pwl,
    random_convex_pwl,
    random_dual_direction,
    random_grid,
    random_parampoly,
    random_workspace,
)
from setlattice.kernel import (
    DirectionSet,
    LatticeError,
    Workspace,
    _facet_normal,
    _primitive_dir,
    inf_family,
)
from setlattice.setfun import (
    ConcavePWL,
    EpiVectorFunction,
    FiniteInfFunction,
    OracleFunction,
    ParamPolyFunction,
    Polyhedron,
    RowFunction,
    _graph_rows,
    fourier_motzkin,
    inf_translate,
)
from setlattice.vi import (
    BaseOutsideDomain,
    CandidateSpace,
    ConditionReport,
    _Table,
    _line_criticals,
    enrich_directions,
    enrich_space,
    implication_audit,
    implication_audit_for_set,
    infimizer_check,
    infimum_at_point_check,
    INEQUALITY_IDS,
    minimal_check,
    minimal_scan,
    run_checker,
    solution_check,
    ViReport,
)

F = Fraction


@pytest.fixture
def ws():
    return orthant_workspace()


@pytest.fixture
def absdiag(ws):
    pieces = [((1,), 0), ((-1,), 0)]
    return ParamPolyFunction(
        ws, 1, [(-1, 0), (0, -1)], [ConcavePWL(pieces), ConcavePWL(pieces)]
    )


@pytest.fixture
def grid():
    return CandidateSpace.of([(-1,), (F(-1, 2),), (0,), (F(1, 2),), (1,)])


def test_svi_i_at_optimum_and_off_optimum(absdiag, grid, ws):
    assert run_checker("svi_I", absdiag, (0,), grid, ws.directions).holds
    rep = run_checker("svi_I", absdiag, (F(1, 2),), grid, ws.directions)
    assert not rep.holds
    assert any(w["x"] == (F(0),) for w in rep.witnesses)


def test_base_outside_domain(grid, ws):
    f = heyde_a()
    space = CandidateSpace.of([(0, 0), (1, 1)])
    with pytest.raises(BaseOutsideDomain):
        run_checker("svi_I", f, (-1, 0), space, ws.directions)


def test_strict_set_checkers(absdiag, grid, ws):
    assert run_checker("SVI_I", absdiag, (0,), grid, ws.directions).holds
    assert run_checker("MVI_I", absdiag, (0,), grid, ws.directions).holds
    assert run_checker("mvi_I", absdiag, (0,), grid, ws.directions).holds
    rep = run_checker("MVI_I", absdiag, (0,), grid, ws.directions)
    assert rep.notes["membership_form_agrees"]
    assert not run_checker("MVI_I", absdiag, (F(1, 2),), grid, ws.directions).holds


def test_minimality_checkers(absdiag, grid, ws):
    # 0 is the unique minimizer of the diagonal distance function
    assert run_checker("svi_M", absdiag, (0,), grid, ws.directions).holds
    assert run_checker("SVI_M", absdiag, (0,), grid, ws.directions).holds
    assert run_checker("svi_M2", absdiag, (0,), grid, ws.directions).holds
    assert run_checker("mvi_M", absdiag, (0,), grid, ws.directions).holds
    assert run_checker("MVI_M", absdiag, (0,), grid, ws.directions).holds
    assert run_checker("SVI_M", absdiag, (0,), grid, ws.directions).notes["intersection_form_agrees"]
    for name in ("svi_M", "MVI_M"):
        assert not run_checker(name, absdiag, (F(1, 2),), grid, ws.directions).holds, name


# sha256 of the sorted-key JSON of every ViReport, recorded from the
# hand-written checkers that the inequality table replaced.  It pins the
# witnesses and their order (svi_I lists them z*-major, every other id
# x-major), the exact flag and the notes.
GOLDEN_REPORTS = {
    "absdiag": {
        "SVI_I": "6405e52555897a3059137e22071dd42fc9c813c15a5f7c056f9e9766d58fe8d0",
        "svi_I": "cbf5e8c50bfa4be31efddf38f3ed4997fab52e9bb02613f9c8a6292cbd9115a7",
        "MVI_I": "83bfdee98a45c18262fea53237355cf046396bed189991614b7b6d90c20f2c89",
        "mvi_I": "af0e6462ae3c25f8a2705c61acd4f00e046cf998ec88d261dfa9d445f8a44077",
        "SVI_M": "150112119803d2a4321be386a71b0821d5d76f9c1befcc1e62eb8497f43605a2",
        "svi_M": "fb0c850f7178a5de1acd0f25fa7de7422944cf2773839a79e2758ad828db5433",
        "svi_M2": "53e668531e65166533905d3ed84c2b05cbc7273bdfa68144a61eee393a6c2b52",
        "MVI_M": "c0d448474fdb8098d09f7ea466bf509c306e1040070515f349b3347a310e6291",
        "mvi_M": "15f967d51a536add3d8a83c4a556d74b54314bf68eb5571de48ad9b2d06e1b12",
        "mvi_M_finite": "4002501842a9cbf773c71bf6c8d272f398f8118c204a1ebd24a64bc7acecd2a1",
    },
    "random57": {
        "SVI_I": "6b5790fb8e4bc7ccada181e0bfdbc2b4ac0de3b6d4059fef8a7cbb90763cd6ca",
        "svi_I": "4ac4ae348e6af69c365814861612e41670b642d63be8459d41a6af6205c45729",
        "MVI_I": "644d3c44a9eb5f274009e00dd1187119350ca3526bfc97238fd3bbabd90db66a",
        "mvi_I": "821f5eb8f573e1985064f5ec8299d1c800e129f38d77e17a322aad3ccb98567e",
        "SVI_M": "7c81cfa21f8ca869419189b5b2ef6a7e9b757c352cd819d886c5cb6add1ba611",
        "svi_M": "59a9324614dbd187dcf01feaaed57009a74d9135b757b2690c53a091bcba0de4",
        "svi_M2": "274c066710ec0050219e0756aa43bab562a3afcce87134314f858a9621918cc9",
        "MVI_M": "127e50ffc3ad39dd716549aaa0a65978ebe356e8059d0235d9746d373961b307",
        "mvi_M": "95d9017c5daa8fe2be560cca65747eb0a8bffcfc4f3e616345e2da6d2bb51487",
        "mvi_M_finite": "b73d634027e0c9f2e84855abc932da2fa1fb9bd3afeb65c29d8f8091e98bda79",
    },
    "heyde_b": {
        "SVI_I": "b04fb56a456b3a36539018ba804bf7870ec3499c9d53264b2ddc738133a83e1a",
        "svi_I": "c0ba4ea11a7206a03f9c42bbf23a7388b550259108974f9fd8924e1801d64421",
        "MVI_I": "d57e7340e686bd7cc55d9c1c269ff229b1805dca1fa6d75ecc062209c8bae269",
        "mvi_I": "3713568f570ed854183b7c14e6ccd43f97f898eef7a795d54aa9badfe8915907",
        "SVI_M": "303cfdd86c2308838e6a7ffcbc69d849a36d9aee903ae00455d5fc139095c0d3",
        "svi_M": "10b68a0eb384ea4138ea85f8093907e93772712c57ec5c2c9abd079b98f8ff5f",
        "svi_M2": "2c04799ed35d6f87d0c0c57230f625ede493616fcdf74207b2890810ece8078c",
        "MVI_M": "94e99919378e28cbe0fbe196c4caa55a2099f7b6ce6ed87708b44844869509e4",
        "mvi_M": "de7e3b256171c480f1012ab3e258817d65c70725a50d3110a7aa91aefdb404ec",
        "mvi_M_finite": "9dbdcaf3799f9f49c35173afebac70beda9cb23bbae43528b3ed6ebc6fc24c8f",
    },
}


def test_reports_match_golden(absdiag, grid, ws):
    # a random cone and directions; some grid points lie outside the domain
    rng = random.Random(57)
    rws = random_workspace(rng)
    f = random_parampoly(rng, rws, 2, max_normals=2, max_pieces=2)
    pts = random_grid(rng, 2, 6, span=6)
    x0 = next(x for x in pts if not f.eval(x).is_empty)
    hb = heyde_b()
    cases = {
        "absdiag": (absdiag, (F(1, 2),), grid, ws.directions),
        "random57": (f, x0, CandidateSpace.of(pts, base=x0), rws.directions),
        "heyde_b": (
            hb,
            (F(1, 2),),
            CandidateSpace.of([(F(k, 4),) for k in range(5)]),
            hb.workspace.directions,
        ),
    }
    assert sorted(GOLDEN_REPORTS["absdiag"]) == sorted(INEQUALITY_IDS)
    for label, (fn, base, space, dirs) in cases.items():
        for name in INEQUALITY_IDS:
            rep = run_checker(name, fn, base, space, dirs)
            text = json.dumps(rep.to_json(), sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == GOLDEN_REPORTS[label][name], (label, name, text)
    # the instance spreads svi_I's witnesses over several z* and x, so their
    # order is pinned
    rep = run_checker("svi_I", *cases["random57"])
    assert len({w["zstar"] for w in rep.witnesses}) >= 2
    assert len({w["x"] for w in rep.witnesses}) >= 2


# sha256 of the sorted-key JSON of the ConditionReports at every base in the
# domain, recorded before minimal_check and infimum_at_point_check took each
# phi(x0) once per direction ahead of their loops over x.
GOLDEN_CONDITIONS = {
    "parampoly61": {
        "minimal_check": "6e2510d4fcf8abb64fb386bb45046b29940be21d7af56285783c65edcddbe013",
        "infimum_at_point_check": "a6a015a82aa183d740ee674c99177a0ca76eb3baa81752b90ce67d64fa8b2283",
    },
    "epivector61": {
        "minimal_check": "0b4c1b51cd8477ee8bc0b7946ea21b8d43d690bc805018e1d8d68c8f794dc6ba",
        "infimum_at_point_check": "3e6fc675deeb8d70bf4e278fe3843e8c2b70155a7314e73542104d678c977055",
    },
    "heyde_b": {
        "minimal_check": "0bac1e3ae6e001cc5e9e46516158ab7acef2eff7a277eee01018500aed260f39",
        "infimum_at_point_check": "ab3116e280b9c05bb05c528ae7f33b1faffdd970e978553411633433402d92ac",
    },
}


def test_condition_reports_match_golden():
    rng = random.Random(61)
    rws = random_workspace(rng)
    f = random_parampoly(rng, rws, 2, max_normals=2, max_pieces=2)
    pts = random_grid(rng, 2, 6, span=6)
    ows = orthant_workspace()
    epi = EpiVectorFunction(ows, 1, [random_convex_pwl(rng, 1) for _ in range(2)])
    hb = heyde_b()
    quarters = [(F(k, 4),) for k in range(-1, 6)]
    cases = {
        "parampoly61": (f, CandidateSpace.of(pts), rws.directions),
        "epivector61": (epi, CandidateSpace.of(quarters), ows.directions),
        "heyde_b": (hb, CandidateSpace.of(quarters), hb.workspace.directions),
    }
    for label, (fn, space, dirs) in cases.items():
        bases = [x for x in space.points if not fn.eval(x).is_empty]
        assert len(bases) >= 4, label
        for check in (minimal_check, infimum_at_point_check):
            reps = [check(fn, x0, space, dirs).to_json() for x0 in bases]
            # some base fails a condition, so the witness lists are pinned too
            assert any(not all(r["conditions"].values()) for r in reps), (label, check)
            text = json.dumps(reps, sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
            assert digest == GOLDEN_CONDITIONS[label][check.__name__], (label, check)


_ZERO = ExtReal(0)


def _reference_minimal(f, x0, space, directions) -> ConditionReport:
    """minimal_check as a pairwise body: the canonical residual and
    f.scalarize for every pair (x0, x)."""
    v0 = f.eval(x0)
    conds = {k: True for k in "abcde"}
    wits = {k: [] for k in "abcde"}
    origin = (F(0),) * f.workspace.dim
    for x in space.points:
        vx = f.eval(x)
        if vx == v0:
            continue
        found = dict.fromkeys("bcd", False)
        for z in directions:
            phi0, phix = f.scalarize(z, x0), f.scalarize(z, x)
            found["b"] |= phi0 < phix
            found["c"] |= not phix.is_minus_inf and ext_residual(phi0, phix) < _ZERO
            found["d"] |= _ZERO < ext_residual(phix, phi0)
        failed = {
            "a": vx.leq(v0),
            **{k: not v for k, v in found.items()},
            "e": vx.residual(v0).contains_point(origin),
        }
        for k in "abcde":
            if failed[k]:
                conds[k] = False
                wits[k].append({"x": x})
    consistent = len(set(conds.values())) == 1
    return ConditionReport("minimal", conds, wits, consistent, f.is_exact)


def _reference_infimum_d(f, x0, space):
    """Condition (d) of infimum_at_point_check with the canonical residual:
    0 ∈ f(x0) ÷ f(x) for every x, and its witnesses."""
    v0 = f.eval(x0)
    origin = (F(0),) * f.workspace.dim
    return [{"x": x} for x in space.points if not v0.residual(f.eval(x)).contains_point(origin)]


def _scan_cases(rng):
    """ParamPoly, EpiVector, FiniteInf and Oracle functions over random cones,
    on spaces that repeat points and hold points outside the domain."""
    for k in range(40):
        ws = random_workspace(rng, rng.choice([1, 2]))
        xdim = rng.choice([1, 2])
        if k % 4 == 0:
            f = random_parampoly(rng, ws, xdim)
        elif k % 4 == 1:
            comps = [random_convex_pwl(rng, xdim) for _ in range(ws.dim)]
            f = EpiVectorFunction(ws, xdim, comps, Polyhedron.box([(-1, 1)] * xdim))
        elif k % 4 == 2:
            f = FiniteInfFunction([random_parampoly(rng, ws, xdim, max_normals=2) for _ in "ab"])
        else:
            f = OracleFunction(ws, xdim, random_parampoly(rng, ws, xdim).eval)
        pts = random_grid(rng, xdim, rng.randint(3, 6))
        yield f, CandidateSpace(tuple(pts + pts[::2])), ws.directions


def test_minimal_scan_matches_the_pairwise_reference():
    rng = random.Random(1709)
    seen = dict.fromkeys(("failing", "inf_d_failing", "empty_base", "kinds"), 0)
    kinds = set()
    for f, space, dirs in _scan_cases(rng):
        bases = [x for x in space.points if not f.eval(x).is_empty]
        reports = [r.to_json() for r in minimal_scan(f, bases, space, dirs)]
        assert reports == [_reference_minimal(f, x, space, dirs).to_json() for x in bases]
        seen["failing"] += sum(not all(r["conditions"].values()) for r in reports)
        for x in bases:
            rep = infimum_at_point_check(f, x, space, dirs)
            want = _reference_infimum_d(f, x, space)
            assert (rep.conditions["d"], rep.witnesses["d"]) == (not want, want)
            seen["inf_d_failing"] += bool(want)
        empty = [x for x in space.points if f.eval(x).is_empty]
        if empty:
            seen["empty_base"] += 1
            for check in (minimal_check, infimum_at_point_check):
                with pytest.raises(BaseOutsideDomain):
                    check(f, empty[0], space, dirs)
            with pytest.raises(BaseOutsideDomain):
                minimal_scan(f, bases + empty[:1], space, dirs)
        kinds.add(type(f).__name__)
    seen["kinds"] = len(kinds)
    assert seen["kinds"] == 4 and min(seen.values()) >= 4, seen


def test_svi_M_whole_space_guard(ws):
    f = ParamPolyFunction(ws, 1, [], [], name="whole")
    space = CandidateSpace.of([(0,), (1,)])
    rep = run_checker("svi_M", f, (0,), space, ws.directions)
    assert rep.holds and rep.notes.get("guard") == "f(x0) = Z"


def test_infimum_conditions_consistent(absdiag, grid, ws):
    rep = infimum_at_point_check(absdiag, (0,), grid, ws.directions)
    assert all(rep.conditions.values()) and rep.consistent
    rep2 = infimum_at_point_check(absdiag, (F(1, 2),), grid, ws.directions)
    assert not rep2.conditions["a"] and rep2.consistent


def test_minimal_conditions_consistent(absdiag, grid, ws):
    rep = minimal_check(absdiag, (0,), grid, ws.directions)
    assert all(rep.conditions.values()) and rep.consistent
    rep2 = minimal_check(absdiag, (F(1, 2),), grid, ws.directions)
    assert not rep2.conditions["a"] and rep2.consistent


def test_heyde_a_every_domain_point_minimal():
    f = heyde_a()
    space = CandidateSpace.of(
        [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (F(1, 2), F(1, 2)), (0, -2), (3, 0)]
    )
    for x in space.points:
        if f.eval(x).is_empty:
            continue
        rep = minimal_check(f, x, space, f.workspace.directions)
        assert rep.conditions["a"], x
        assert rep.consistent


def test_heyde_a_corner_solution():
    f = heyde_a()
    corners = [(1, 1), (1, 2), (2, 1), (2, 2)]
    space = CandidateSpace.of(corners + [(F(3, 2), F(3, 2))])
    rep = solution_check(f, corners, space, f.workspace.directions)
    assert rep.is_solution
    assert rep.infimizer.translation_agrees


def test_heyde_b_only_right_endpoint_minimal():
    f = heyde_b()
    grid = CandidateSpace.of([(F(k, 4),) for k in range(5)])
    minimal = [
        x
        for x in grid.points
        if minimal_check(f, x, grid, f.workspace.directions).conditions["a"]
    ]
    assert minimal == [(F(1),)]


def test_no_solution_line_behaviour():
    f = no_solution_line()
    dirs = f.workspace.directions
    pts = [(F(k),) for k in range(6)]
    space = CandidateSpace.of(pts)
    assert infimizer_check(f, pts, space, dirs).is_infimizer
    assert infimizer_check(f, [(F(4),), (F(5),)], space, dirs).is_infimizer
    assert not infimizer_check(f, [(F(0),), (F(1),)], space, dirs).is_infimizer
    probe = CandidateSpace.of(pts + [(F(6),)])
    minimal = [
        x for x in space.points if minimal_check(f, x, probe, dirs).conditions["a"]
    ]
    assert minimal == []
    assert not solution_check(f, [(F(4),), (F(5),)], probe, dirs).is_solution


def test_dom_f_is_always_an_infimizer(ws, absdiag):
    space = CandidateSpace.of([(-1,), (0,), (2,)])
    rep = infimizer_check(absdiag, list(space.points), space, ws.directions)
    assert rep.is_infimizer


def test_infimizer_corollary_for_singleton():
    """A singleton translation is a plain argument shift; the reported
    strict-Stampacchia verdict must agree with the translated infimum over
    the same enriched probe space."""
    rng = random.Random(88)
    ws = orthant_workspace()
    for _ in range(10):
        f = random_parampoly(rng, ws, 1, with_domain=False)
        pts = random_grid(rng, 1, 5)
        space = CandidateSpace.of(pts)
        hull = inf_family(ws, [f.eval(x) for x in space.points])
        for m in space.points:
            rep = infimizer_check(f, [m], space, ws.directions)
            assert rep.is_infimizer == (f.eval(m) == hull)
            assert rep.translation_agrees
            assert rep.notes.get("corollary_consistent", True)


def test_enrichment_adds_breakpoints(ws, absdiag):
    space = CandidateSpace.of([(-1,), (1,)])
    enriched = enrich_space(absdiag, (F(-1, 2),), space, ws.directions)
    # the kink of |x| at 0 lies between the base and the right candidate
    assert (F(0),) in enriched.points
    dirs = enrich_directions(absdiag, (0,), enriched, ws.directions)
    assert len(dirs) >= len(ws.directions)


def test_audit_no_violations_on_small_random_corpus():
    rng = random.Random(424242)
    checked = 0
    for _ in range(12):
        ws = random_workspace(rng)
        xdim = rng.choice([1, 2])
        f = random_parampoly(rng, ws, xdim, max_normals=2, max_pieces=2)
        pts = random_grid(rng, xdim, 4)
        dom_pts = [x for x in pts if not f.eval(x).is_empty]
        if not dom_pts:
            continue
        x0 = rng.choice(dom_pts)
        audit = implication_audit(f, x0, CandidateSpace.of(pts), ws.directions)
        assert audit.violations == [], audit.matrix_text()
        checked += 1
    assert checked >= 6


def test_audit_on_oracle_is_inconclusive_not_violating():
    f = heyde_b()
    space = CandidateSpace.of([(F(k, 2),) for k in range(3)])
    audit = implication_audit(f, (F(1, 2),), space, f.workspace.directions)
    assert audit.violations == []
    assert not audit.exact


# sha256 of the matrix text and sorted-key JSON of heyde_b's audit at 1/2 over
# the quarters of [0, 1]: an oracle's l.s.c. conditions are assumed, not certified
HEYDE_B_AUDIT = "06f5f9ea5b19556d0a2191d9cd67c2dc2c4af2c4f3de8507c0cea39948d2879f"


def test_oracle_audit_digest_pinned():
    f = heyde_b()
    space = CandidateSpace.of([(F(k, 4),) for k in range(5)])
    audit = implication_audit(f, (F(1, 2),), space, f.workspace.directions)
    assert audit.lsc == {"lattice": True, "cminus": True, "certified": False}
    text = audit.matrix_text() + "\n" + json.dumps(audit.to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == HEYDE_B_AUDIT


LSC_CONDITIONS = ("lattice-lsc", "C--lsc", "M*-lsc")
QUARTERS = [(F(k, 4),) for k in range(5)]


def _segment_oracle(ws, value_at, name):
    """An oracle on [0, 1] with values value_at(t) + C, ∅ outside."""

    def evaluator(x):
        t = x[0]
        if t < 0 or t > 1:
            return ws.empty_set()
        return ws.translated_cone(value_at(t))

    return OracleFunction(ws, 1, evaluator, name=name)


def test_exact_audit_lsc_certified(absdiag, grid, ws):
    audit = implication_audit(absdiag, (0,), grid, ws.directions)
    assert audit.lsc == {"lattice": True, "cminus": True, "certified": True}


def test_continuous_oracle_lsc_not_refuted(ws):
    # f(t) = (-t, -t) + C falls with slope 2 in the sum of the coordinates: no
    # finite sample grid can tell that from a jump, so an oracle's l.s.c. is never refuted
    slide = _segment_oracle(ws, lambda t: (-t, -t), "slide")
    cases = [(slide, x0) for x0 in QUARTERS] + [(heyde_b(), (0,))]
    for f, x0 in cases:
        audit = implication_audit(f, x0, CandidateSpace.of(QUARTERS), f.workspace.directions)
        assert audit.lsc == {"lattice": True, "cminus": True, "certified": False}
        items = [i for i in audit.items if i.condition in LSC_CONDITIONS]
        assert len(items) == 3 and all(i.condition_holds for i in items)


def test_jump_oracle_lsc_items_inconclusive(ws):
    # f(0) = C, f(t) = (-1, -1) + C on (0, 1]: the base is a Minty point but no
    # infimizer.  The l.s.c. conditions are not known, so the two items that
    # need them are inconclusive, never "ok" by a refuted condition.
    jump = _segment_oracle(ws, lambda t: (0, 0) if t == 0 else (-1, -1), "jump")
    audit = implication_audit(jump, (0,), CandidateSpace.of(QUARTERS), ws.directions)
    items = {i.name: i for i in audit.items if i.condition in LSC_CONDITIONS}
    for name in ("MVI_I + lattice-lsc => infimum", "mvi_I + C--lsc => infimum"):
        item = items[name]
        assert (item.premise_holds, item.conclusion_holds, item.condition_holds) == (
            True,
            False,
            True,
        )
        assert item.status == "inconclusive"
    assert all(i.condition_holds for i in items.values())


def test_audit_matrix_text(absdiag, ws):
    audit = implication_audit(
        absdiag, (0,), CandidateSpace.of([(-1,), (1,)]), ws.directions
    )
    text = audit.matrix_text()
    assert "implication" in text and "svi_I => SVI_I" in text


def test_one_dimensional_workspace_audit():
    w1 = Workspace(1, [(1,)], [(-1,)])
    f1 = ParamPolyFunction(w1, 1, [(-1,)], [ConcavePWL([((1,), 0), ((-1,), 0)])])
    space = CandidateSpace.of([(-1,), (F(-1, 2),), (0,), (1,)])
    audit = implication_audit(f1, (0,), space, w1.directions)
    assert audit.violations == [] and audit.reports["svi_I"].holds
    off = implication_audit(f1, (1,), space, w1.directions)
    assert off.violations == [] and not off.minimal.conditions["a"]


def test_implication_audit_for_set():
    from setlattice.vi import implication_audit_for_set

    w1 = Workspace(1, [(1,)], [(-1,)])
    f1 = ParamPolyFunction(w1, 1, [(-1,)], [ConcavePWL([((1,), 0), ((-1,), 0)])])
    space = CandidateSpace.of([(-1,), (0,), (1,)])
    # a set containing the minimizer is an infimizer: the translated audit
    # sees the infimum attained at the origin
    audit = implication_audit_for_set(f1, [(-1,), (1,)], space, w1.directions)
    assert audit.violations == []
    assert audit.infimum.conditions["a"]
    bad = implication_audit_for_set(f1, [(1,)], space, w1.directions)
    assert bad.violations == [] and not bad.infimum.conditions["a"]


def infimum_over_domain(f: ParamPolyFunction):
    """The reference lattice infimum of f over its whole domain.

    The graph of f is a polyhedron, so the infimum is its projection onto Z:
    every argument column is eliminated by Fourier–Motzkin, and the
    elimination finds no solution when the domain is empty.
    """
    out = fourier_motzkin([(cx + cz, k) for cx, cz, k in _graph_rows(f)], f.xdim)
    return f.workspace.empty_set() if out is None else f.workspace.upper_set(out)


def _reference_segment_infimum(f, x0, x):
    """inf f[x0, x] by one elimination step on the segment restriction of a
    ParamPoly f, or of an EpiVector f's ParamPoly form."""
    if isinstance(f, EpiVectorFunction):
        f = f.as_parampoly()
    return infimum_over_domain(f.restrict(x0, x))


def _segment_infimum(f, x0, x):
    """inf f[x0, x] and whether it is exact, as the audit's table reads them."""
    space = CandidateSpace.of([x], base=x0)
    dirs = f.workspace.directions
    table = _Table(f, x0, space, dirs, lines=_line_criticals(f, x0, space.points, dirs))
    [(_, seg_inf, exact)] = table.segment_infima([row for row in table.rows if row.x == x])
    return seg_inf, exact


def _segment_cases():
    """Seeded ParamPoly and EpiVector functions with (x0, x) pairs in their domains:
    1-D and 2-D workspaces, one and two arguments, box and whole domains, and
    normals given as twice or 3/2 times a primitive one."""
    cases = []
    for seed, (wdim, xdim, boxed, scale) in enumerate(
        product((1, 2), (1, 2), (False, True), (1, 2, F(3, 2)))
    ):
        rng = random.Random(9000 + seed)
        domain = Polyhedron.box([(-1, 2)] * xdim) if boxed else Polyhedron.whole(xdim)
        ws = random_workspace(rng, dim=wdim)
        g = random_parampoly(rng, ws, xdim)
        normals = [tuple(scale * c for c in n) for n in g.normals]
        offsets = [random_concave_pwl(rng, xdim) for _ in normals]
        cases.append((rng, ParamPolyFunction(ws, xdim, normals, offsets, domain)))
        orthant = Workspace(1, [(1,)], [(-1,)]) if wdim == 1 else orthant_workspace()
        comps = [random_convex_pwl(rng, xdim) for _ in range(wdim)]
        cases.append((rng, EpiVectorFunction(orthant, xdim, comps, domain)))
    for rng, f in cases:
        pts = [x for x in random_grid(rng, f.xdim, 4) if not f.eval(x).is_empty]
        for x0, x in zip(pts, pts[1:]):
            yield f, tuple(map(F, x0)), tuple(map(F, x))


def test_segment_infimum_matches_whole_function_translation():
    seen = set()
    for f, x0, x in _segment_cases():
        step = tuple(q - p for p, q in zip(x0, x))
        oracle = inf_translate(f, [(F(0),) * f.xdim, step], convex=True).eval(x0)
        assert _segment_infimum(f, x0, x) == (oracle, True), (f, x0, x)
        assert _reference_segment_infimum(f, x0, x) == oracle, (f, x0, x)
        # an oracle that eliminates nothing: f is affine between the segment's
        # critical parameters, so the infimum is spanned by the values there
        ts = [F(0), F(1)] + segment_criticals(f, x0, x, f.workspace.directions)
        values = [f.eval(tuple(p + t * d for p, d in zip(x0, step))) for t in ts]
        assert oracle == inf_family(f.workspace, values), (f, x0, x)
        seen.add((f.workspace.dim, f.xdim, isinstance(f, EpiVectorFunction)))
    assert len(seen) == 8


def test_segment_infimum_hand_case():
    # f(x) = {z : -z <= min(x, 1 - x)} on [0, 1]: the segment dips to -z <= 1/2
    # in its middle, which neither end value shows
    w1 = Workspace(1, [(1,)])
    tent = ConcavePWL([((1,), 0), ((-1,), 1)])
    f = ParamPolyFunction(w1, 1, [(-1,)], [tent], Polyhedron.box([(0, 1)]))
    x0, x = (F(0),), (F(1),)
    assert _segment_infimum(f, x0, x) == (w1.upper_set([((-1,), F(1, 2))]), True)
    assert inf_family(w1, [f.eval(x0), f.eval(x)]) == w1.upper_set([((-1,), 0)])


def test_infimum_over_domain_empty_and_whole():
    w1 = Workspace(1, [(1,)])
    tent = ConcavePWL([((1,), 0), ((-1,), 1)])
    gap = Polyhedron(1, [((1,), -1), ((-1,), -1)])  # x <= -1 and x >= 1
    assert infimum_over_domain(ParamPolyFunction(w1, 1, [(-1,)], [tent], gap)).is_empty
    # on the whole line the tent still peaks at 1/2; the offset x has no bound
    peak = w1.upper_set([((-1,), F(1, 2))])
    assert infimum_over_domain(ParamPolyFunction(w1, 1, [(-1,)], [tent])) == peak
    ramp = ConcavePWL([((1,), 0)])
    assert infimum_over_domain(ParamPolyFunction(w1, 1, [(-1,)], [ramp])).is_whole


# SVI_M's intersection form f'(x0, x - x0) ∩ -0+f(x0) = ∅ on raw rows, as the
# audit read it before the sum form 0 ∉ f'(x0, x - x0) + 0+f(x0): A's facets
# and the mirrored facets of R in one emptiness test.  It is the reference for
# 0 ∈ A + R and for the reference run's SVI_M.


def feasible_with(upper, extra_facets) -> bool:
    """Is A ∩ {extra halfspaces} nonempty?  (Raw geometric test.)"""
    if upper.is_empty:
        return False
    combined = list(upper.facets) + [f for f in extra_facets]
    canon, _, _ = upper.workspace.geom.vrep_from_hrep(combined)
    return canon is not None


def mirror_facets(upper):
    """Facet system of -A = {-z : z in A} (not an upper set in general)."""
    if upper.is_empty:
        return None
    return [tuple(-c for c in _facet_normal(f)) + f[-2:] for f in upper.facets]


def test_feasibility_helpers(ws):
    cone = ws.cone_set()
    mirrored = mirror_facets(cone)
    # the cone and its mirror meet only at the origin, which is feasible
    assert feasible_with(cone, mirrored)
    # a strictly shifted cone misses the mirrored cone entirely
    assert not feasible_with(ws.translated_cone((1, 1)), mirrored)


def _random_upper(rng, ws):
    """∅, Z, or rows with normals in C^-; a "flat" draw pairs each row whose
    opposite normal is in C^- too with its opposite, which pins the set to a
    line or a point in that normal."""
    kind = rng.choice(["empty", "whole", "rows", "rows", "flat"])
    if kind == "empty":
        return ws.empty_set()
    if kind == "whole":
        return ws.whole_space()
    rows = []
    for _ in range(8):
        n = tuple(rng.randint(-2, 2) for _ in range(ws.dim))
        if any(n) and ws.cone.in_dual(n) and len(rows) < 3:
            b = F(rng.randint(-6, 6), rng.randint(1, 3))
            rows.append((n, b))
            m = tuple(-c for c in n)
            if kind == "flat" and ws.cone.in_dual(m):
                rows.append((m, -b))
    return ws.upper_set(rows)


def _is_flat(a):
    cons = a.constraints
    return any(tuple(-c for c in n) == m and b + d == 0 for n, b in cons for m, d in cons)


def test_sum_form_matches_mirrored_intersection():
    """0 ∈ A + R, one canonical sum and a membership, agrees with the raw-row
    test A ∩ -R ≠ ∅ over 1-D and 2-D upper sets A and recession cones R, on
    ordering cones {0}, half-lines, a wedge, a ray, a line and a half-plane."""
    cones = [
        Workspace(1, []),
        Workspace(1, [(1,)]),
        Workspace(1, [(-1,)]),
        Workspace(2, []),
        orthant_workspace(),
        Workspace(2, [(2, -1), (-1, 3)]),
        Workspace(2, [(1, 1)]),
        Workspace(2, [(1, -1), (-1, 1)]),
        Workspace(2, [(0, 1), (1, 0), (-1, 0)]),
    ]
    rng = random.Random(2131)
    seen = dict.fromkeys(("empty", "whole", "flat", "meets", "misses", "flat_R"), 0)
    dims = set()
    for _ in range(600):
        ws = rng.choice(cones)
        a = _random_upper(rng, ws)
        b = _random_upper(rng, ws)
        r = ws.cone_set() if b.is_empty else b.recession()
        meets = a.add(r).contains_point((F(0),) * ws.dim)
        assert meets == feasible_with(a, mirror_facets(r)), (a, r)
        seen["empty"] += a.is_empty
        seen["whole"] += a.is_whole
        seen["flat"] += not a.is_empty and _is_flat(a)
        seen["meets" if meets else "misses"] += 1
        seen["flat_R"] += _is_flat(r) and not r.is_whole
        dims.add(ws.dim)
    assert dims == {1, 2} and min(seen.values()) >= 10, seen


# The per-inequality checker loop as it was before the audit shared one table:
# every test re-derives its ray and reads set_derivative, scalar_dini, f.eval
# and f.scalarize afresh.  It is the reference for run_checker, the audit's
# reports, its regularity flags and direction enrichment.


class _ReferenceRun:
    def __init__(self, f, x0, directions, report):
        self.f, self.x0, self.directions, self.report = f, x0, directions, report
        self.v0 = f.eval(x0)
        self.rec0 = self.v0.recession()
        self.origin = (F(0),) * f.workspace.dim
        self.bounded_dirs = [z for z in directions if not f.scalarize(z, x0).is_minus_inf]

    def derivative(self, base, u):
        D = set_derivative(self.f, base, u)
        self.report.exact = self.report.exact and D.exact
        return D

    def dini_witnesses(self, x, base, u, directions, fails):
        dinis = ((z, scalar_dini(self.f, z, base, u)) for z in directions)
        return [{"x": x, "zstar": tuple(z), "dini": d} for z, d in dinis if fails(d)]

    def svi_I(self, x, base, u):
        return self.dini_witnesses(x, base, u, self.bounded_dirs, lambda d: d < _ZERO)

    def SVI_I(self, x, base, u):
        return self.rec0.leq(self.derivative(base, u).value)

    def mvi_I(self, x, base, u):
        return self.dini_witnesses(x, base, u, self.directions, lambda d: _ZERO < d)

    def MVI_I(self, x, base, u):
        D = self.derivative(base, u)
        comparable = D.exact and not self.f.eval(x).is_empty
        return D.value.leq(self.rec0), D.value.contains_point(self.origin) if comparable else None

    def svi_M(self, x, base, u):
        return any(_ZERO < scalar_dini(self.f, z, base, u) for z in self.directions)

    def SVI_M(self, x, base, u):
        D = self.derivative(base, u)
        meets = feasible_with(D.value, mirror_facets(self.rec0))
        return not D.value.contains_point(self.origin), not meets if D.exact else None

    def svi_M2(self, x, base, u):
        return any(
            (z not in self.bounded_dirs and not self.f.scalarize(z, x).is_minus_inf)
            or _ZERO < scalar_dini(self.f, z, base, u)
            for z in self.directions
        )

    def mvi_M(self, x, base, u):
        return any(
            not self.f.scalarize(z, x).is_minus_inf and scalar_dini(self.f, z, base, u) < _ZERO
            for z in self.directions
        )

    def MVI_M(self, x, base, u):
        return not self.f.eval(x).recession().leq(self.derivative(base, u).value)


# name: (minty, form, guard, test, note, by_direction)
_REFERENCE_ROWS = {
    "SVI_I": (False, "I", False, _ReferenceRun.SVI_I, None, False),
    "svi_I": (False, "I", False, _ReferenceRun.svi_I, None, True),
    "MVI_I": (True, "I", False, _ReferenceRun.MVI_I, "membership_form_agrees", False),
    "mvi_I": (True, "I", False, _ReferenceRun.mvi_I, None, False),
    "SVI_M": (False, "M", True, _ReferenceRun.SVI_M, "intersection_form_agrees", False),
    "svi_M": (False, "M", True, _ReferenceRun.svi_M, None, False),
    "svi_M2": (False, "M", False, _ReferenceRun.svi_M2, None, False),
    "MVI_M": (True, "M", False, _ReferenceRun.MVI_M, None, False),
    "mvi_M": (True, "M", False, _ReferenceRun.mvi_M, None, False),
    "mvi_M_finite": (True, "M", False, _ReferenceRun.mvi_M, None, False),
}


def _vsub(a, b):
    return tuple(p - q for p, q in zip(a, b))


# the forms that read scalar Dini values; a function without them (neither
# exact rows nor an oracle) fails such a form before any x is read
_DINI_FORMS = ("svi_I", "mvi_I", "svi_M", "svi_M2", "mvi_M", "mvi_M_finite")


def _reference_checker(name, f, x0, space, directions):
    minty, form, guard, test, note, by_direction = _REFERENCE_ROWS[name]
    if name in _DINI_FORMS and not isinstance(f, (RowFunction, OracleFunction)):
        raise NotDeclaredConvex(
            "exact scalar derivatives are available for parametric and epigraphical functions"
        )
    report = ViReport(name, True, exact=f.is_exact, space_size=len(space))
    run = _ReferenceRun(f, x0, directions, report)
    if guard and run.v0.is_whole:
        report.notes["guard"] = "f(x0) = Z"
        return report
    agreement = True
    for x in space.points:
        if form == "M":
            vx = f.eval(x)
            if vx == run.v0 or (vx.is_empty and not minty):
                continue
        base, u = (x, _vsub(x0, x)) if minty else (x0, _vsub(x, x0))
        verdict = test(run, x, base, u)
        if note:
            verdict, other = verdict
            agreement = agreement and other in (None, verdict)
        if isinstance(verdict, list):
            report.witnesses.extend(verdict)
        elif not verdict:
            report.witnesses.append({"x": x})
    if by_direction:
        rank = {tuple(z): k for k, z in enumerate(directions)}
        report.witnesses.sort(key=lambda w: rank[w["zstar"]])
    if note:
        report.notes[note] = agreement
    report.holds = not report.witnesses
    return report


def _reference_enrich_directions(f, x0, space, directions):
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
    return directions.union(extra)


def _reference_regularity(f, x0, space, directions):
    flags = dict.fromkeys(("SR_stampacchia", "WR_stampacchia", "SR_minty", "WR_minty"), True)
    for x in space.points:
        rays = (("stampacchia", x0, x), ("minty", x, x0)) if x != x0 else (("minty", x, x0),)
        for side, base, other in rays:
            rep = regularity_check(f, base, _vsub(other, base), directions)
            flags[f"SR_{side}"] = flags[f"SR_{side}"] and rep.strong
            flags[f"WR_{side}"] = flags[f"WR_{side}"] and rep.weak
    return flags


def _outcome(call):
    """What a call returns, as JSON, or the type and message of what it raises."""
    try:
        out = call()
    except LatticeError as exc:
        return ("raises", type(exc).__name__, str(exc))
    return out.to_json() if hasattr(out, "to_json") else out


def _reference_audit(f, x0, space, directions):
    space = enrich_space(f, x0, space.with_base(x0), directions)
    dirs = _reference_enrich_directions(f, x0, space, directions)
    try:
        reports = {n: _reference_checker(n, f, x0, space, dirs).to_json() for n in INEQUALITY_IDS}
    except LatticeError as exc:
        return ("raises", type(exc).__name__, str(exc))
    return reports, _reference_regularity(f, x0, space, dirs), tuple(dirs)


def _audit_outcome(f, x0, space, directions):
    try:
        audit = implication_audit(f, x0, space, directions)
    except LatticeError as exc:
        return ("raises", type(exc).__name__, str(exc))
    reports = {name: rep.to_json() for name, rep in audit.reports.items()}
    return reports, audit.regularity, audit.directions


def test_audit_table_matches_per_inequality_reference():
    rng = random.Random(1931)
    seen = dict.fromkeys(("repeats", "empty", "raises", "inexact", "inexact_notes", "grown"), 0)
    for k, (f, space, dirs) in enumerate(_scan_cases(rng)):
        if k % 8 == 1:  # an epigraphical function that is not declared convex
            f = EpiVectorFunction(
                f.workspace, f.xdim, f.components, f.domain, declared_convex=False
            )
        bases = [x for x in space.points if not f.eval(x).is_empty]
        if not bases:
            continue
        x0 = bases[len(bases) // 2]
        seen["repeats"] += len(set(space.points)) < len(space.points)
        seen["empty"] += len(bases) < len(space.points)
        # the one-name case over a space with repeated points, base directions first
        for name in INEQUALITY_IDS:
            got = _outcome(lambda: run_checker(name, f, x0, space, dirs))
            assert got == _outcome(lambda: _reference_checker(name, f, x0, space, dirs)), (k, name)
            if isinstance(got, dict) and not got["exact"]:
                seen["inexact"] += 1
                seen["inexact_notes"] += bool(got["notes"])
        want = _reference_enrich_directions(f, x0, space, dirs)
        assert enrich_directions(f, x0, space, dirs).items == want.items, k
        # then the audit on the same function object, from the cone's facet normals
        # alone (so that enrichment adds directions) or from the workspace's
        adirs = dirs if k % 2 else DirectionSet(f.workspace.cone, [])
        got, ref = _audit_outcome(f, x0, space, adirs), _reference_audit(f, x0, space, adirs)
        assert got == ref, k
        if ref[0] == "raises":
            seen["raises"] += 1
        else:
            seen["grown"] += len(ref[2]) > len(adirs)
            # the audit's exact flag is f's: so is every report's
            assert all(rep["exact"] == f.is_exact for rep in ref[0].values()), k
    assert min(seen.values()) >= 4, seen


def test_finite_inf_dini_forms_are_decided_from_f_alone():
    """A FiniteInf function has no Dini derivative, so each scalar form raises
    before its guard and before any x or direction is read: permuting or
    extending the direction set leaves one outcome kind per form."""
    rng = random.Random(2153)
    cases = 0
    kinds = {name: set() for name in INEQUALITY_IDS}
    while cases < 24:
        ws = random_workspace(rng, rng.choice([1, 2]))
        xdim = rng.choice([1, 2])
        f = FiniteInfFunction([random_parampoly(rng, ws, xdim, max_normals=2) for _ in "ab"])
        pts = random_grid(rng, xdim, rng.randint(3, 5))
        bases = [x for x in pts if not f.eval(x).is_empty]
        if not bases:
            continue
        cases += 1
        x0, space = bases[0], CandidateSpace.of(pts)
        dirs = list(ws.directions)
        extra = [d for d in (random_dual_direction(rng, ws) for _ in range(3)) if d is not None]
        variants = [dirs, dirs[::-1], rng.sample(dirs, len(dirs)), dirs + extra, extra[::-1] + dirs]
        for name in INEQUALITY_IDS:
            outcomes = [_outcome(lambda: run_checker(name, f, x0, space, d)) for d in variants]
            kind = {o[:2] if isinstance(o, tuple) else "report" for o in outcomes}
            assert len(kind) == 1, (cases, name, kind)
            kinds[name] |= kind
    for name in _DINI_FORMS:
        assert kinds[name] == {("raises", "NotDeclaredConvex")}, name


def _fresh(f):
    """A new exact function object with f's data: its ray records start empty."""
    if isinstance(f, EpiVectorFunction):
        return EpiVectorFunction(f.workspace, f.xdim, f.components, f.domain)
    return ParamPolyFunction(f.workspace, f.xdim, f.normals, f.offsets, f.domain)


def _exact_audits(rng):
    """Seeded exact audits, each a call: ParamPoly on random cones and EpiVector
    on orthants (facet normals <= 0), over 1-D and 2-D argument and value
    spaces, with and without enrichment, then one audit of a set."""
    for k in range(72):
        wdim, xdim, epi, enrich = 1 + k % 2, 1 + k // 2 % 2, k // 4 % 2, k // 8 % 4 != 0
        if epi:
            ws = Workspace(1, [(1,)], [(-1,)]) if wdim == 1 else orthant_workspace()
            comps = [random_convex_pwl(rng, xdim) for _ in range(wdim)]
            f = EpiVectorFunction(ws, xdim, comps, Polyhedron.box([(-1, 1)] * xdim))
        else:
            ws = random_workspace(rng, wdim)
            f = random_parampoly(rng, ws, xdim)
        pts = random_grid(rng, xdim, rng.randint(3, 5))
        bases = [x for x in pts if not f.eval(x).is_empty]
        if bases:
            x0, space = rng.choice(bases), CandidateSpace.of(pts)
            kind = "enriched" if enrich else "plain"
            yield kind, lambda: implication_audit(f, x0, space, ws.directions, enrich=enrich)
    w1 = Workspace(1, [(1,)], [(-1,)])
    f1 = ParamPolyFunction(w1, 1, [(-1,)], [ConcavePWL([((1,), 0), ((-1,), 0)])])
    space = CandidateSpace.of([(-1,), (0,), (1,), (2,)])
    yield "set", lambda: implication_audit_for_set(f1, [(-1,), (1,)], space, w1.directions)


def test_line_readings_match_fresh_rays(monkeypatch):
    """Each row's derivative and Dini row, read through the audit's table off
    the records of its half-line and stretch, equal set_derivative and
    scalar_dini on the row's own rays of a new function object; the segment
    infima and monotonicity equal a Fourier-Motzkin infimum per candidate."""
    tables = []

    class Recording(_Table):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            tables.append(self)

    monkeypatch.setattr(vi, "_Table", Recording)
    rng = random.Random(2707)
    seen = dict.fromkeys(("scaled", "shared", "criticals", "not_monotone"), 0)
    kinds = dict.fromkeys(("enriched", "plain", "set"), 0)
    for kind, audit in _exact_audits(rng):
        tables.clear()
        audit()
        [t] = tables
        g = _fresh(t.f)
        minty = {}
        for row in t.rows:
            back = tuple(a - b for a, b in zip(t.x0, row.x))
            stampacchia = (t.stampacchia(row), t.x0, tuple(-c for c in back))
            for reading, base, u in (stampacchia, (t.minty(row), row.x, back)):
                D = set_derivative(g, base, u)
                got = t.derivative(reading)
                assert (got.value, got.exact) == (D.value, D.exact), (row.x, u)
                dinis = [t.dini(reading, k) for k in range(len(t.dirs))]
                assert dinis == [scalar_dini(g, z, base, u) for z in t.dirs], (row.x, u)
                seen["scaled"] += reading.c != 1
            minty.setdefault(id(t.minty(row).ray), []).append(row)
        seen["shared"] += any(len(rows) > 1 for rows in minty.values())
        rows = [r for r in t.rows if r.value != t.v0 and not r.value.is_empty]
        want = {r.x: _reference_segment_infimum(g, t.x0, r.x) for r in rows}
        got = {r.x: (seg_inf, exact) for r, seg_inf, exact in t.segment_infima(rows)}
        assert got == {x: (v, True) for x, v in want.items()}
        monotone = all(want[r.x].leq(r.value) and want[r.x] != r.value for r in rows)
        assert t.segment_monotone() == (monotone, True)
        kinds[kind] += 1
        seen["criticals"] += any(t.lines.values())
        seen["not_monotone"] += not monotone
    assert sum(kinds.values()) >= 60 and min(kinds.values()) >= 1, kinds
    assert min(seen.values()) >= 4, seen


def test_audit_reads_one_ray_per_line_and_stretch(monkeypatch):
    """On a grown audit, set_derivative runs once per half-line from x0 (the
    Stampacchia rays), once per linear stretch of a line with points in the
    domain (the Minty rays), once at x0 and once per point outside the
    domain; segment_criticals runs once per half-line."""
    calls = {"set_derivative": 0, "segment_criticals": 0}

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(calculus, "set_derivative", counting("set_derivative", set_derivative))
    monkeypatch.setattr(vi, "segment_criticals", counting("segment_criticals", segment_criticals))
    ws = orthant_workspace()
    offsets = [ConcavePWL([((1, 0), 0), ((-1, 1), 1)]), ConcavePWL([((0, 1), 0), ((1, -1), F(1, 2))])]
    f = ParamPolyFunction(ws, 2, [(-1, 0), (0, -1)], offsets, Polyhedron.box([(-1, 1)] * 2))
    x0, pts = (F(0), F(0)), [(x, y) for x in (-2, -1, 0, 1, 2) for y in (-1, 0, 1)]
    audit = implication_audit(f, x0, CandidateSpace.of(pts), ws.directions)
    assert audit.exact and len(audit.space) > len(pts)

    g = _fresh(f)
    lines = {}  # primitive u -> [(c, x)] with x - x0 = c u
    for x in audit.space.points:
        if x != x0:
            step = [a - b for a, b in zip(x, x0)]
            u = _primitive_dir(step)
            lines.setdefault(u, []).append((next(s / d for s, d in zip(step, u) if d), x))
    stretches, empty = set(), 0
    for u, line in lines.items():
        c_far, far = max(line)
        crits = [t * c_far for t in segment_criticals(g, x0, far, ws.directions)]
        for c, x in line:
            if g.eval(x).is_empty:
                empty += 1
            else:
                stretches.add((u, bisect_left(crits, c)))
    per_line = [sum(1 for v, _ in stretches if v == u) for u in lines]
    assert empty > 0 and max(per_line) >= 2
    assert calls["segment_criticals"] == len(lines)
    assert calls["set_derivative"] == len(lines) + len(stretches) + 1 + empty
