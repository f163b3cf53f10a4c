"""Acceptance suite: every criterion at its declared corpus size and
tolerance, one printed pass/fail line per criterion (run with -s to see
them as the suite progresses)."""

import random
import time
from fractions import Fraction


from setlattice import inf_family, sup_family
from setlattice.calculus import (
    diff_quotient,
    regularity_check,
    scalar_dini,
    scalarized_derivative_intersection,
    set_derivative,
)
from setlattice.cli import main as cli_main
from setlattice.extres import ext_min, residual as ext_residual
from setlattice.instances import (
    BUILTIN_NAMES,
    circle,
    example23_sets,
    example23_workspace,
    heyde_a,
    heyde_b,
    no_solution_line,
    noncommutation_trail,
    orthant_workspace,
    random_grid,
    random_parampoly,
    random_pwl_vector,
    random_upper_set,
    random_workspace,
)
from setlattice.scenario import builtin_scenario, run_scenario
from setlattice.vectoropt import (
    eff_plus_cone_identity,
    efficiency_minimality_bridge,
    epigraphical,
    infdir_plus_cone,
    vector_minty_check,
)
from setlattice.vi import (
    CandidateSpace,
    implication_audit,
    infimizer_check,
    minimal_check,
    solution_check,
)

F = Fraction
TOL = F(1, 10**6)


def announce(criterion: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, detail


def test_criterion_1_lattice_laws():
    rng = random.Random(1001)
    t0 = time.perf_counter()
    violations = 0
    n = 1000
    third = F(1, 3)
    for _ in range(n):
        ws = random_workspace(rng)
        a = random_upper_set(rng, ws, allow_empty=True)
        b = random_upper_set(rng, ws)
        d = random_upper_set(rng, ws)
        m = random_upper_set(rng, ws, allow_empty=True)
        s = F(rng.randint(1, 6), rng.randint(1, 3))
        q = a.residual(b)
        if not a.leq(b.add(q)):
            violations += 1
        if a.leq(b.add(m)) != q.leq(m):
            violations += 1
        if b.add(inf_family(ws, [a, d])) != inf_family(ws, [b.add(a), b.add(d)]):
            violations += 1
        if q.scale(s) != a.scale(s).residual(b.scale(s)):
            violations += 1
        lhs = (a.scale(third).add(b.scale(1 - third))).residual(d)
        rhs = a.residual(d).scale(third).add(b.residual(d).scale(1 - third))
        if not lhs.leq(rhs):
            violations += 1
        if not a.residual(d).leq(a.residual(b).add(b.residual(d))):
            violations += 1
        if not a.is_empty and a.residual(a) != a.recession():
            violations += 1
    elapsed = time.perf_counter() - t0
    announce(
        1,
        violations == 0 and elapsed < 60,
        f"lattice laws on {n} instances, {violations} violations, {elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_scalarization():
    rng = random.Random(2002)
    violations = 0
    n = 1000
    for _ in range(n):
        ws = random_workspace(rng)
        sets = [random_upper_set(rng, ws, allow_empty=True) for _ in range(3)]
        hull = inf_family(ws, sets)
        for z in ws.directions:
            if hull.neg_support(z) != ext_min(s.neg_support(z) for s in sets):
                violations += 1
        a, b = sets[0], sets[1]
        q = a.residual(b)
        for z in ws.directions:
            if not ext_residual(a.neg_support(z), b.neg_support(z)) <= q.neg_support(z):
                violations += 1
    ws = example23_workspace()
    A, B = example23_sets(ws)
    golden = A.residual(B).is_empty
    vals = {
        z: ext_residual(A.neg_support(z), B.neg_support(z))
        for z in [(1, 0), (-1, 0), (0, -1)]
    }
    golden = golden and vals[(1, 0)].value == 1 and vals[(-1, 0)].value == 1
    golden = golden and vals[(0, -1)].value == 0
    announce(
        2,
        violations == 0 and golden,
        f"scalarization lemmas on {n} instances ({violations} violations); "
        f"gap example exact (empty residual, horizontal residuals +1)",
    )


def test_criterion_3_recession():
    rng = random.Random(3003)
    violations = 0
    n = 600
    for _ in range(n):
        ws = random_workspace(rng)
        a = random_upper_set(rng, ws)
        b = random_upper_set(rng, ws)
        ra, rb = a.recession(), b.recession()
        # recession cone via finite scalarizations
        halves = [ws.upper_set([(z, 0)]) for z in ws.directions if a.neg_support(z).is_finite]
        approx = sup_family(ws, halves) if halves else ws.whole_space()
        if not approx.leq(ra):
            violations += 1
        if all(n_ in [tuple(d) for d in ws.directions] for n_, _ in a.constraints):
            if approx != ra:
                violations += 1
        # finite scalarizations lie in the dual of the recession cone
        for z in ws.directions:
            if a.neg_support(z).is_finite:
                if any(sum(zi * ri for zi, ri in zip(z, r)) > 0 for r in ra.rayset):
                    violations += 1
        # recession of sums, monotonicity
        if a.add(b).recession() != inf_family(ws, [ra, rb]):
            violations += 1
        if a.add(b).recession() != ra.add(rb):
            violations += 1
        if a.leq(b) and not ra.leq(rb):
            violations += 1
        # residual chain and equality
        q = a.residual(b)
        if not q.is_empty:
            if not (q.recession().leq(ra) and ra.leq(rb)):
                violations += 1
            if q.recession() != ra:
                violations += 1
    # segment recession constancy on parametric instances
    seg_checked = 0
    for _ in range(120):
        ws = random_workspace(rng)
        f = random_parampoly(rng, ws, 2, with_domain=False)
        x0 = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        x = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
        if x == x0:
            continue
        recs = []
        for t in (F(1, 8), F(1, 3), F(1, 2), F(5, 7), F(7, 8)):
            xt = tuple(a0 + t * (b0 - a0) for a0, b0 in zip(x, x0))
            v = f.eval(xt)
            if not v.is_empty:
                recs.append(v.recession())
        if len(recs) < 2:
            continue
        seg_checked += 1
        if any(r != recs[0] for r in recs):
            violations += 1
        ends = [f.eval(x), f.eval(x0)]
        if all(not v.is_empty for v in ends):
            bound = inf_family(ws, [v.recession() for v in ends])
            if not recs[0].leq(bound):
                violations += 1
    announce(
        3,
        violations == 0 and seg_checked >= 60,
        f"recession lemmas on {n} set instances + {seg_checked} segments, "
        f"{violations} violations",
    )


def test_criterion_4_derivatives():
    rng = random.Random(4004)
    violations = 0
    n = 500
    for _ in range(n):
        ws = random_workspace(rng)
        xdim = rng.choice([1, 2])
        f = random_parampoly(rng, ws, xdim, with_domain=False)
        x = tuple(F(rng.randint(-2, 2)) for _ in range(xdim))
        u = tuple(F(rng.randint(-2, 2)) for _ in range(xdim))
        # quotient monotonicity
        quots = [diff_quotient(f, x, u, t) for t in (F(1, 8), F(1, 2), 1)]
        for small, big in zip(quots, quots[1:]):
            if not small.leq(big):
                violations += 1
        # positive homogeneity and zero direction
        s = F(rng.randint(1, 5), rng.randint(1, 2))
        Du = set_derivative(f, x, u).value
        if set_derivative(f, x, tuple(s * c for c in u)).value != Du.scale(s):
            violations += 1
        zero_dir = set_derivative(f, x, (F(0),) * xdim).value
        if f.eval(x).is_empty:
            if not zero_dir.is_whole:
                violations += 1
        elif zero_dir != f.eval(x).recession():
            violations += 1
        # sublinearity
        u2 = tuple(F(rng.randint(-2, 2)) for _ in range(xdim))
        lam = F(rng.randint(1, 3), 4)
        mix = tuple(lam * a + (1 - lam) * b for a, b in zip(u, u2))
        bound = Du.scale(lam).add(set_derivative(f, x, u2).value.scale(1 - lam))
        if not set_derivative(f, x, mix).value.leq(bound):
            violations += 1
        # scalar derivative below the scalarized derivative
        for z in ws.directions:
            if not scalar_dini(f, z, x, u) <= Du.neg_support(z):
                violations += 1
    # circle builtin: exact empty set side, scalar sides within 1e-6
    c = circle()
    D = set_derivative(c, (0,), (1,))
    circle_ok = D.value.is_empty
    for z in [(1,), (-1,)]:
        d = scalar_dini(c, z, (0,), (1,))
        circle_ok = circle_ok and d.is_finite and abs(d.value) <= TOL
    inter = scalarized_derivative_intersection(c, (0,), (1,), c.workspace.directions)
    circle_ok = circle_ok and not inter.is_empty and inter.contains_point((0,))
    for _, off in inter.constraints:
        circle_ok = circle_ok and abs(off) <= TOL
    rep = regularity_check(c, (0,), (1,), c.workspace.directions)
    circle_ok = circle_ok and not rep.weak
    announce(
        4,
        violations == 0 and circle_ok,
        f"derivative laws on {n} instances ({violations} violations); "
        f"circle: empty derivative vs ~{{0}} intersection, WR fails",
    )


def test_criterion_5_implication_audit():
    rng = random.Random(5005)
    t0 = time.perf_counter()
    audited = 0
    bad = []
    while audited < 200:
        ws = random_workspace(rng)
        xdim = rng.choice([1, 2])
        f = random_parampoly(
            rng, ws, xdim, max_normals=rng.choice([2, 3]), max_pieces=2
        )
        pts = random_grid(rng, xdim, rng.randint(3, 6))
        dom_pts = [x for x in pts if not f.eval(x).is_empty]
        if not dom_pts:
            continue
        x0 = rng.choice(dom_pts)
        space = CandidateSpace.of(pts)
        audit = implication_audit(f, x0, space, ws.directions)
        if len(audit.space) > 25:
            continue
        audited += 1
        if audit.violations:
            bad.append((f.normals, x0, [i.name for i in audit.violations]))
    elapsed = time.perf_counter() - t0
    announce(
        5,
        not bad and elapsed < 300,
        f"implication audit on {audited} exact instances, "
        f"{len(bad)} violating, {elapsed:.1f}s (< 300s)"
        + (f"; first: {bad[0]}" if bad else ""),
    )


def test_criterion_6_golden_examples():
    ok = True
    details = []
    # Heyde (a): every grid point of the domain passes minimal_check
    f = heyde_a()
    dirs = f.workspace.directions
    grid = CandidateSpace.of(
        [(0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (2, 2),
         (F(3, 2), F(3, 2)), (3, 0), (0, -2), (F(1, 2), 4)]
    )
    for x in grid.points:
        if f.eval(x).is_empty:
            continue
        if not minimal_check(f, x, grid, dirs).conditions["a"]:
            ok = False
            details.append(f"heyde_a not minimal at {x}")
    corners = [(1, 1), (1, 2), (2, 1), (2, 2)]
    square = CandidateSpace.of(corners + [(F(3, 2), F(3, 2))])
    if not solution_check(f, corners, square, dirs).is_solution:
        ok = False
        details.append("heyde_a declared M is not a solution")
    # Heyde (b): exactly x = 1 minimal on the [0,1] grid at tolerance 1e-6
    g = heyde_b(tolerance=TOL)
    bgrid = CandidateSpace.of([(F(k, 4),) for k in range(5)])
    minimal = [
        x for x in bgrid.points
        if minimal_check(g, x, bgrid, g.workspace.directions).conditions["a"]
    ]
    if minimal != [(F(1),)]:
        ok = False
        details.append(f"heyde_b minimal set {minimal}")
    # no-solution line: declared families are infimizers, minimal set empty
    h = no_solution_line()
    hdirs = h.workspace.directions
    pts = [(F(k),) for k in range(6)]
    space = CandidateSpace.of(pts)
    if not infimizer_check(h, pts, space, hdirs).is_infimizer:
        ok = False
        details.append("whole grid not an infimizer")
    if not infimizer_check(h, [(F(4),), (F(5),)], space, hdirs).is_infimizer:
        ok = False
        details.append("tail family not an infimizer")
    probe = CandidateSpace.of(pts + [(F(6),)])
    if any(minimal_check(h, x, probe, hdirs).conditions["a"] for x in space.points):
        ok = False
        details.append("no-solution grid has a surviving minimizer")
    if solution_check(h, [(F(4),), (F(5),)], probe, hdirs).is_solution:
        ok = False
        details.append("no-solution line reported a solution")
    announce(6, ok, "golden examples " + ("all reproduced" if ok else "; ".join(details)))


def test_criterion_7_vector_suite():
    rng = random.Random(7007)
    ws = orthant_workspace()
    violations = 0
    # SR certified on every sampled epigraphical instance
    for _ in range(40):
        psi = random_pwl_vector(rng, ws, 1)
        fx = epigraphical(psi)
        x = (F(rng.randint(-2, 2)),)
        u = (F(rng.randint(-2, 2)),)
        rep = regularity_check(fx, x, u, ws.directions)
        if not (rep.strong and rep.exact):
            violations += 1
    # efficiency <=> minimality bridge and the Eff + C identity
    bridged = 0
    for _ in range(100):
        psi = random_pwl_vector(rng, ws, rng.choice([1, 2]))
        grid = random_grid(rng, psi.xdim, rng.randint(4, 9))
        res = efficiency_minimality_bridge(psi, grid, ws.directions)
        if not res["agrees"]:
            violations += 1
        if not eff_plus_cone_identity(psi, grid):
            violations += 1
        bridged += 1
    # the three direction-shadow cases
    shadows_ok = (
        infdir_plus_cone(ws, (0, -1)) == ws.upper_set([((-1, 0), 0)])
        and infdir_plus_cone(ws, (1, 1)).is_empty
        and infdir_plus_cone(ws, (0, 0)) == ws.cone_set()
    )
    # vector Minty principle in both directions
    minty_checked = 0
    for _ in range(25):
        psi = random_pwl_vector(rng, ws, 1, max_pieces=2)
        grid = random_grid(rng, 1, 5)
        for x0 in grid[:2]:
            rep = vector_minty_check(psi, x0, grid, ws.directions)
            if not rep["agrees_with_efficiency"]:
                violations += 1
            minty_checked += 1
    # the noncommutation example
    hull6 = inf_family(ws, [ws.translated_cone(p) for p in noncommutation_trail(6)])
    hull12 = inf_family(ws, [ws.translated_cone(p) for p in noncommutation_trail(12)])
    shadow = infdir_plus_cone(ws, (0, -1))
    noncomm = (
        hull12.leq(hull6)
        and hull12 != hull6
        and shadow == ws.upper_set([((-1, 0), 0)])
        and shadow != hull12
    )
    announce(
        7,
        violations == 0 and shadows_ok and noncomm and bridged == 100,
        f"vector suite: SR certified, {bridged} bridge instances, "
        f"{minty_checked} Minty bases, shadows and noncommutation exact; "
        f"{violations} violations",
    )


def test_criterion_8_determinism_and_cli(tmp_path):
    ok = True
    details = []
    for name in BUILTIN_NAMES:
        first = run_scenario(builtin_scenario(name)).dumps()
        second = run_scenario(builtin_scenario(name)).dumps()
        if first != second:
            ok = False
            details.append(f"{name} not byte-identical")
        code = cli_main(["check-vi", "--scenario", f"builtin:{name}"])
        if code != 0:
            ok = False
            details.append(f"{name} exit {code}")
    bad = tmp_path / "broken.json"
    bad.write_text("{ definitely not json")
    if cli_main(["check-vi", "--scenario", str(bad)]) != 1:
        ok = False
        details.append("malformed scenario did not exit 1")
    announce(
        8,
        ok,
        "all builtin reports byte-identical with exit 0; broken scenario exits 1"
        + ("" if ok else "; " + "; ".join(details)),
    )
