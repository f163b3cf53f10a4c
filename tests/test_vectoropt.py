import ast
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from setlattice.calculus import scalar_dini, segment_criticals, set_derivative
from setlattice.extres import ExtReal
from setlattice.instances import (
    infdir_example,
    noncommutation_trail,
    orthant_workspace,
    random_convex_pwl,
    random_grid,
    random_dual_direction,
    random_pwl_vector,
)
from setlattice.kernel import Workspace, _int_dir, as_vec, inf_family
from setlattice.setfun import (
    ConvexPWL,
    EpiVectorFunction,
    OracleFailure,
    OracleFunction,
    Polyhedron,
    SetFunction,
)
from setlattice.vectoropt import (
    DEFAULT_T_PARAMS,
    DiniLimitSet,
    EmptyGrid,
    ExtendedPoint,
    OracleVectorFunction,
    _efficient,
    classify_dini,
    eff_plus_cone_identity,
    efficiency_minimality_bridge,
    efficient_set,
    epigraphical,
    infdir_plus_cone,
    vector_dini,
    vector_minty_check,
)
from setlattice.vi import CandidateSpace, minimal_check, run_checker

F = Fraction


@pytest.fixture
def ws():
    return Workspace(2, [(1, 0), (0, 1)], [(-1, 0), (0, -1)])


@pytest.fixture
def vee(ws):
    # psi(x) = (|x|, |x-1|): efficient exactly on [0, 1]
    return EpiVectorFunction(
        ws,
        1,
        [ConvexPWL([((1,), 0), ((-1,), 0)]), ConvexPWL([((1,), -1), ((-1,), 1)])],
        name="vee",
    )


def test_extended_point_canonicalization():
    a = ExtendedPoint.at_infinity((0, -2))
    b = ExtendedPoint.at_infinity((0, -7))
    assert a == b and a.kind == "inf"
    assert ExtendedPoint.at_infinity((0, 0)) == ExtendedPoint.finite((0, 0))


def test_epigraphical_values(vee, ws):
    f = epigraphical(vee)
    assert f.eval((0,)) == ws.translated_cone((0, 1))
    assert f.scalarize((-1, -1), (F(1, 2),)).value == 1
    # quotient identity: (1/t)(f(x_t) ÷ f(x0)) = {(psi(x_t)-psi(x0))/t} + C
    from setlattice.calculus import diff_quotient

    t = F(1, 4)
    q = diff_quotient(f, (F(1, 2),), (1,), t)
    slope = tuple(
        (a - b) / t
        for a, b in zip(vee.psi((F(1, 2) + t,)), vee.psi((F(1, 2),)))
    )
    assert q == ws.translated_cone(slope)


def test_efficient_set(vee):
    grid = [(F(k, 4),) for k in range(-4, 9)]
    eff = efficient_set(vee, grid)
    assert eff == [(F(k, 4),) for k in range(0, 5)]
    assert efficient_set(vee, [(F(5),)]) == [(F(5),)]
    with pytest.raises(EmptyGrid):
        efficient_set(vee, [])


def test_bridge_and_identity(vee):
    grid = [(F(k, 4),) for k in range(-4, 9)]
    bridge = efficiency_minimality_bridge(vee, grid, vee.workspace.directions)
    assert bridge["agrees"]
    assert eff_plus_cone_identity(vee, grid)


def test_random_bridge():
    rng = random.Random(31415)
    ws = orthant_workspace()
    for _ in range(10):
        psi = random_pwl_vector(rng, ws, 1)
        grid = random_grid(rng, 1, 7)
        bridge = efficiency_minimality_bridge(psi, grid, ws.directions)
        assert bridge["agrees"]
        assert eff_plus_cone_identity(psi, grid)


def test_vector_dini_exact(vee):
    dl = vector_dini(vee, (0,), (1,))
    assert dl.exact and dl.finite_points == [(F(1), F(-1))]
    rep = classify_dini(vee, (0,), (1,), dl, vee.workspace.directions)
    assert all(v for k, v in rep.items() if k != "exact")


def test_vector_dini_divergent_direction():
    psi = infdir_example()
    dl = vector_dini(psi, (0,), (1,))
    assert not dl.finite_points
    assert len(dl.infinite_dirs) == 1 and not dl.exact
    d = dl.infinite_dirs[0]
    assert d.kind == "inf"
    target = ExtendedPoint.at_infinity((0, -1)).vector
    assert sum(abs(a - b) for a, b in zip(d.vector, target)) < F(1, 1000)
    rep = classify_dini(psi, (0,), (1,), dl, psi.workspace.directions)
    assert rep["infinite_directions_valid"]


def test_infdir_plus_cone_cases(ws):
    assert infdir_plus_cone(ws, (0, -1)) == ws.upper_set([((-1, 0), 0)])
    assert infdir_plus_cone(ws, (1, 1)).is_empty
    assert infdir_plus_cone(ws, (0, 0)) == ws.cone_set()
    # a direction inside -C with strictly negative pairing on every sampled
    # functional blows up to the whole space
    assert infdir_plus_cone(ws, (-1, -1)).is_whole


def test_pointed_cone_forbids_mixed_limits(ws):
    dl = DiniLimitSet(
        finite_points=[(F(0), F(0))],
        infinite_dirs=[ExtendedPoint.at_infinity((0, -1))],
        exact=False,
    )
    vee_fn = EpiVectorFunction(
        ws,
        1,
        [ConvexPWL([((1,), 0)]), ConvexPWL([((1,), 0)])],
    )
    rep = classify_dini(vee_fn, (0,), (1,), dl, ws.directions)
    assert not rep["mixed_forces_lineality"]


def test_noncommutation_witness(ws):
    """The hull of the trail cones blows up toward the whole space while the
    limit-direction shadow stays a fixed halfplane: adding the cone does not
    commute with taking the limit of the singletons."""
    hull6 = inf_family(ws, [ws.translated_cone(p) for p in noncommutation_trail(6)])
    hull12 = inf_family(ws, [ws.translated_cone(p) for p in noncommutation_trail(12)])
    shadow = infdir_plus_cone(ws, (0, -1))
    assert shadow == ws.upper_set([((-1, 0), 0)])
    # the hulls grow strictly and their support values diverge
    assert hull12.leq(hull6) and hull12 != hull6
    assert hull6.support((-1, 0)).value == 6
    assert hull12.support((-1, 0)).value == 12
    # the shadow never equals any finite-stage hull and is not the whole space
    assert shadow != hull6 and shadow != hull12 and not shadow.is_whole


def test_vector_minty_both_directions(vee):
    grid = [(F(k, 4),) for k in range(-4, 9)]
    at_eff = vector_minty_check(vee, (F(1, 2),), grid, vee.workspace.directions)
    assert at_eff["efficient"] and at_eff["scalar_form"] and at_eff["inner_form"]
    assert at_eff["mvi_M_finite"] and at_eff["agrees_with_efficiency"]
    assert at_eff["single_valued_quotients"] and at_eff["pointed_cone"]
    at_bad = vector_minty_check(vee, (F(-1, 2),), grid, vee.workspace.directions)
    assert not at_bad["efficient"] and not at_bad["scalar_form"]
    assert not at_bad["mvi_M_finite"] and at_bad["agrees_with_efficiency"]
    assert at_bad["witnesses"]


def test_vector_minty_random_instances():
    rng = random.Random(2718)
    ws = orthant_workspace()
    agree = 0
    for _ in range(8):
        psi = random_pwl_vector(rng, ws, 1, max_pieces=2)
        grid = random_grid(rng, 1, 5)
        for x0 in grid[:2]:
            rep = vector_minty_check(psi, x0, grid, ws.directions)
            assert rep["agrees_with_efficiency"], (psi.components, x0, rep)
            agree += 1
    assert agree >= 8


def test_minimizer_matches_efficiency_definitionally(vee):
    f = epigraphical(vee)
    grid = [(F(k, 2),) for k in range(-2, 5)]
    space = CandidateSpace.of(grid)
    eff = set(efficient_set(vee, grid))
    for x in space.points:
        rep = minimal_check(f, x, space, vee.workspace.directions)
        assert rep.conditions["a"] == (x in eff)


def test_wedge_cone_efficiency_bridge():
    ww = Workspace(2, [(2, 1), (1, 2)])
    psi = EpiVectorFunction(
        ww, 1, [ConvexPWL([((1,), 0), ((-1,), 0)]), ConvexPWL([((1,), -1), ((-1,), 1)])]
    )
    grid = [(F(k, 2),) for k in range(-2, 5)]
    eff = efficient_set(psi, grid)
    # the wider cone dominates more aggressively than the orthant
    assert eff == [(F(0),), (F(1, 2),), (F(1),)]
    assert efficiency_minimality_bridge(psi, grid, ww.directions)["agrees"]


def test_lineality_cone_efficiency():
    # a halfplane cone orders only by the second component, up to its line
    whp = Workspace(2, [(1, 0), (-1, 0), (0, 1)])
    assert not whp.cone.is_pointed
    psi = EpiVectorFunction(
        whp, 1, [ConvexPWL([((1,), 0), ((-1,), 0)]), ConvexPWL([((2,), 0)])]
    )
    grid = [(F(k, 2),) for k in range(-2, 3)]
    assert efficient_set(psi, grid) == [(F(-1),)]
    assert efficiency_minimality_bridge(psi, grid, whp.directions)["agrees"]


def _scenario_cones():
    """The ordering cones of the scenarios benchmark, read from the literal
    SCENARIO_CONES in perfbench/workloads.py."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["SCENARIO_CONES"]:
            return ast.literal_eval(node.value)
    raise LookupError("SCENARIO_CONES not found")


def _lattice_efficient(psi, grid):
    """Brute force in the lattice order: x is efficient iff no value
    psi(y) + C is a strict superset of psi(x) + C."""
    tc = psi.workspace.translated_cone
    values = [tc(psi.psi(x)) for x in grid]
    return [
        as_vec(x)
        for x, v in zip(grid, values)
        if not any(w.leq(v) and w != v for w in values)
    ]


def _mirrored_pwl(rng):
    """A convex component of |x|, so x and -x tie in value."""
    pieces = []
    for _ in range(rng.randint(1, 2)):
        c, k = F(rng.randint(0, 2)), F(rng.randint(-3, 3), rng.randint(1, 2))
        pieces += [((c,), k), ((-c,), k)]
    return ConvexPWL(pieces)


def test_efficient_set_matches_lattice_order_oracle():
    rng = random.Random(2718)
    cones = _scenario_cones() + [[(1, 0), (-1, 0), (0, 1)]]  # the last has a line
    assert any(not Workspace(2, g).cone.is_pointed for g in cones)
    checked = 0
    for gens in cones:
        ws = Workspace(2, gens)
        for trial in range(12):
            xdim = 1 + trial % 2
            if trial % 4 == 3:
                psi = EpiVectorFunction(ws, 1, [_mirrored_pwl(rng) for _ in range(2)])
                grid = [(F(k, 2),) for k in range(-4, 5)]
            else:
                psi = random_pwl_vector(rng, ws, xdim, max_pieces=2)
                grid = random_grid(rng, xdim, 6)
            # repeated grid points keep their place and multiplicity
            grid = grid + [grid[0], grid[len(grid) // 2]]
            eff = efficient_set(psi, grid)
            assert eff == _lattice_efficient(psi, grid), (gens, trial)
            assert eff_plus_cone_identity(psi, grid)
            checked += len(grid) - len(set(eff))
    # the cases must exercise dominated points, not only all-efficient grids
    assert checked > 100


def _per_component_dini(psi, x0, u):
    """The first slopes composed component by component: None when the ray
    leaves the domain at once."""
    x0, u = as_vec(x0), as_vec(u)
    ends = [r / a for (a,), r in psi.domain.compose(x0, (u,)).rows if a > 0]
    if min(ends, default=1) <= 0:
        return None
    slopes = []
    for c in psi.components:
        pieces = c.compose(x0, (u,)).pieces
        at_zero = max(k for _, k in pieces)
        slopes.append(max(s for (s,), k in pieces if k == at_zero))
    return tuple(slopes)


def test_vector_dini_reads_the_shared_ray_record():
    rng = random.Random(1618)
    ws = orthant_workspace()
    checked = {"exit": 0, "zero": 0, "slopes": 0}
    for trial in range(40):
        xdim = 1 + trial % 2
        comps = [random_convex_pwl(rng, xdim, max_pieces=3) for _ in range(2)]
        psi = EpiVectorFunction(ws, xdim, comps, Polyhedron.box([(-2, 2)] * xdim))
        assert epigraphical(psi) is epigraphical(psi)
        bases = [tuple(F(rng.randint(-4, 4), 2) for _ in range(xdim)) for _ in range(3)]
        # a corner of the box, with directions that point out of it
        bases.append((F(2),) * xdim)
        dirs = [tuple(F(rng.randint(-2, 2)) for _ in range(xdim)) for _ in range(3)]
        dirs += [(F(1),) * xdim, (F(0),) * xdim]
        for x0 in bases:
            for u in dirs:
                dl = vector_dini(psi, x0, u)
                want = _per_component_dini(psi, x0, u)
                assert dl.exact
                if want is None:
                    assert dl.is_empty and dl.diagnostic == {"note": "no admissible t"}
                    checked["exit"] += 1
                else:
                    assert dl.finite_points == [want] and not dl.infinite_dirs
                    checked["zero" if not any(u) else "slopes"] += 1
                    # set_derivative reads the same ray record
                    x = tuple(a + b for a, b in zip(x0, u))
                    rep = classify_dini(psi, x0, x, dl, ws.directions)
                    assert rep["finite_matches_derivative"] and rep["scalar_dini_matches"]
    assert min(checked.values()) > 0, checked


def _all_pairs_efficient(psi, grid):
    """Efficiency by the pairwise definition on cone coordinates."""
    normals = psi.workspace.cone.facet_normals
    keys = [(as_vec(x), tuple(sum(a * b for a, b in zip(n, psi.psi(x))) for n in normals)) for x in grid]
    return [
        x
        for x, kx in keys
        if not any(ky != kx and all(a <= b for a, b in zip(kx, ky)) for _, ky in keys)
    ]


def _reference_vector_minty(psi, x0, grid, directions, t_params=DEFAULT_T_PARAMS):
    """vector_minty_check as a plain loop: every segment point xt reads the ray
    (xt, x0 - x) and psi anew, an oracle psi's set function is a fresh
    wrapper of its handle, and efficiency is the all-pairs scan."""
    ws = psi.workspace
    f = psi if psi.is_exact else _wrapped_extension(psi)
    x0 = as_vec(x0)
    base_val = psi.psi(x0)
    pts = [as_vec(x) for x in grid]
    scalar_ok = inner_ok = single_valued = True
    witnesses, seg_points = [], []
    for x in pts:
        ts = [F(t) for t in t_params]
        if psi.is_exact and x != x0:
            ts += [t for t in segment_criticals(f, x0, x, directions) if t not in ts] + [F(1)]
        for t in ts:
            xt = tuple(a + t * (b - a) for a, b in zip(x0, x))
            vt = psi.psi(xt)
            if vt is None:
                continue
            seg_points.append(xt)
            if vt == base_val:
                continue
            u_back = tuple(a - b for a, b in zip(x0, x))
            if not any(scalar_dini(f, z, xt, u_back) < ExtReal(0) for z in directions):
                scalar_ok = False
                witnesses.append({"form": "scalar", "x": x, "t": t})
            dl = vector_dini(psi, xt, u_back)
            if len(dl.finite_points) + len(dl.infinite_dirs) != 1 or dl.infinite_dirs:
                single_valued = False
            points = list(dl.finite_points) + [d.vector for d in dl.infinite_dirs]
            if any(ws.cone.contains(p) for p in points):
                inner_ok = False
                witnesses.append({"form": "inner", "x": x, "t": t})
    space = CandidateSpace.of(pts + seg_points + [x0], base=x0)
    mvi = run_checker("mvi_M_finite", f, x0, space, list(ws.cone.facet_normals))
    eff = _all_pairs_efficient(psi, [p for p in space.points if psi.psi_at(p) is not None])
    efficient = x0 in eff
    return {
        "scalar_form": scalar_ok,
        "inner_form": inner_ok,
        "mvi_M_finite": mvi.holds,
        "efficient": efficient,
        "pointed_cone": ws.cone.is_pointed,
        "single_valued_quotients": single_valued,
        "agrees_with_efficiency": scalar_ok == efficient and mvi.holds == efficient,
        "witnesses": witnesses,
        "exact": psi.is_exact,
    }


def _square_oracle(ws):
    """psi(s) = (s^2, (s - 1)^2) as an oracle: its quotient trail settles to
    the tolerance only for steps |u| <= 1, so a scaled ray reads other values."""
    return OracleVectorFunction(ws, 1, lambda x: (x[0] ** 2, (x[0] - 1) ** 2), name="square")


def _wrapped_extension(psi):
    """psi + C as a fresh OracleFunction that calls psi's handle at every
    evaluation and reads none of psi's point records: the reference of an
    oracle psi's own extension."""
    ws = psi.workspace

    def evaluator(x):
        v = psi.evaluator(x)
        return ws.empty_set() if v is None else ws.translated_cone(as_vec(v))

    return OracleFunction(ws, psi.xdim, evaluator, tolerance=psi.tolerance, name=psi.name)


def test_oracle_psi_is_its_own_extension():
    """An oracle psi is a set function and its own extension: on seeded rays
    its values, scalarizations, derivatives and Dini values are those of a
    wrapper that calls its handle anew."""
    rng = random.Random(2525)
    orthant = orthant_workspace()
    for make in (lambda: _square_oracle(orthant), infdir_example):
        psi, ref = make(), _wrapped_extension(make())
        assert isinstance(psi, SetFunction) and epigraphical(psi) is psi
        inside = 0
        for _ in range(6):
            x = (F(rng.randint(-2, 6), 4),)
            u = (F(rng.choice([-2, -1, 1, 3]), rng.choice([1, 2, 4])),)
            inside += psi.psi_at(x) is not None
            assert psi.eval(x) == ref.eval(x), (x, u)
            assert set_derivative(psi, x, u) == set_derivative(ref, x, u), (x, u)
            for z in orthant.directions:
                assert psi.scalarize(z, x) == ref.scalarize(z, x), (x, z)
                assert scalar_dini(psi, z, x, u) == scalar_dini(ref, z, x, u), (x, u, z)
        assert inside >= 3, psi.name


def test_oracle_handle_runs_once_per_point():
    """Over the two square-oracle Minty cases the handle runs once per
    distinct point of each psi, 1,664 calls in all."""
    orthant = orthant_workspace()
    square = [(F(k, 4),) for k in range(-3, 8)]
    total = 0
    for x0 in ((F(1, 2),), (F(-1, 4),)):
        calls = Counter()

        def handle(x, calls=calls):
            calls[tuple(x)] += 1
            return (x[0] ** 2, (x[0] - 1) ** 2)

        psi = OracleVectorFunction(orthant, 1, handle, name="square")
        vector_minty_check(psi, x0, square, orthant.directions)
        assert set(calls.values()) == {1}, max(calls.values())
        total += sum(calls.values())
    assert total == 1664


def test_oracle_handle_errors_are_oracle_failures():
    """A raising handle gives OracleFailure from psi, from f(x) = psi(x) + C
    and from the vector Dini quotient alike."""

    def broken(x):
        raise ZeroDivisionError("no value here")

    psi = OracleVectorFunction(orthant_workspace(), 1, broken)
    for read in (psi.psi, psi.eval, lambda x: vector_dini(psi, x, (1,))):
        with pytest.raises(OracleFailure, match="no value here"):
            read((F(1, 2),))


@pytest.mark.parametrize(
    "answer", [lambda x: (x[0],), lambda x: (x[0], 1, 7)], ids=["short", "long"]
)
def test_oracle_answer_of_wrong_length_is_an_oracle_failure(answer):
    """On the 2-D orthant, a handle that answers one coordinate or three is
    refused by psi, by f(x) = psi(x) + C and by the efficient set, instead of
    a missing coordinate read as 0 or a third one dropped."""
    grid = [(F(1, 2),), (1,)]
    reads = (
        lambda psi: psi.psi(grid[0]),
        lambda psi: psi.eval(grid[0]),
        lambda psi: efficient_set(psi, grid),
    )
    for read in reads:
        psi = OracleVectorFunction(orthant_workspace(), 1, answer)
        with pytest.raises(OracleFailure, match="coordinates, expected 2"):
            read(psi)


def _minty_cases():
    """(make psi, x0, grid, directions); make builds a fresh psi, so the check
    and the reference share no memo."""
    rng = random.Random(2020)
    cases = []
    for gens in _scenario_cones() + [[(1, 0), (-1, 0), (0, 1)]]:
        ws = Workspace(2, gens)
        extra = [random_dual_direction(rng, ws) for _ in range(2)]
        ws = Workspace(2, gens, list(ws.cone.facet_normals) + [e for e in extra if e])
        for trial in range(4):
            xdim = 1 + trial % 2
            comps = [random_convex_pwl(rng, xdim, max_pieces=3) for _ in range(2)]
            box = Polyhedron.box([(-1, 1)] * xdim) if trial >= 2 else None
            grid = random_grid(rng, xdim, 5)
            inside = [x for x in grid if box is None or box.contains(as_vec(x))]
            if not inside:
                continue
            # x0 from the grid, repeated grid points, and points off a box
            grid = grid + [grid[0], inside[-1]]
            make = (lambda ws=ws, xdim=xdim, comps=comps, box=box:
                    EpiVectorFunction(ws, xdim, comps, box))
            cases += [(make, inside[0], grid, ws.directions), (make, inside[-1], grid, ws.directions)]
    orthant = orthant_workspace()
    pwl = random_pwl_vector(rng, orthant, 1, max_pieces=3)
    wrap = lambda: OracleVectorFunction(orthant, 1, pwl.psi, name="wrapped")
    grid = [(F(k, 2),) for k in range(-4, 5)]
    cases += [(wrap, (F(0),), grid, orthant.directions), (wrap, (F(1),), grid, orthant.directions)]
    cases.append((infdir_example, (F(0),), [(F(k, 4),) for k in range(-1, 6)], orthant.directions))
    cases.append((infdir_example, (F(1, 2),), [(F(k, 4),) for k in range(0, 5)], orthant.directions))
    square = [(F(k, 4),) for k in range(-3, 8)]
    cases.append((lambda: _square_oracle(orthant), (F(1, 2),), square, orthant.directions))
    cases.append((lambda: _square_oracle(orthant), (F(-1, 4),), square, orthant.directions))
    return cases


def test_vector_minty_matches_reference():
    seen = {"exact": 0, "oracle": 0, "witnesses": 0, "efficient": 0, "not_single": 0}
    for make, x0, grid, directions in _minty_cases():
        got = vector_minty_check(make(), x0, grid, directions)
        want = _reference_vector_minty(make(), x0, grid, directions)
        assert got == want, (x0, grid)
        seen["exact" if got["exact"] else "oracle"] += 1
        seen["witnesses"] += bool(got["witnesses"])
        seen["efficient"] += got["efficient"]
        seen["not_single"] += not got["single_valued_quotients"]
    # the cases must reach both kinds of psi and both verdicts
    assert min(seen.values()) > 0 and seen["efficient"] < seen["exact"] + seen["oracle"], seen


_KEY = st.fractions(min_value=-2, max_value=2, max_denominator=2)


def _coordinates(dim):
    """A stand-in workspace whose cone has the unit facet normals, so a value
    is its own key, in any number of components."""
    unit = tuple(tuple(int(i == j) for j in range(dim)) for i in range(dim))
    return SimpleNamespace(cone=SimpleNamespace(facet_normals=unit))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_efficient_matches_pairwise_definition(data):
    dim = data.draw(st.integers(1, 4))
    pool = data.draw(st.lists(st.tuples(*[_KEY] * dim), min_size=1, max_size=6))
    # values drawn from a small pool repeat: duplicate keys, equal keys at
    # different points and ties in one coordinate
    values = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    pairs = [((F(i),), v) for i, v in enumerate(values)]
    want = [
        x
        for x, v in pairs
        if not any(w != v and all(a <= b for a, b in zip(v, w)) for _, w in pairs)
    ]
    assert _efficient(_coordinates(dim), [(x, _int_dir(v)) for x, v in pairs]) == want


def test_efficient_on_a_cone_with_a_line():
    # C = {z2 >= 0}: values that differ along the line z1 have one key
    ws = Workspace(2, [(1, 0), (-1, 0), (0, 1)])
    pairs = [((F(0),), (F(5), F(1))), ((F(1),), (F(-3), F(1))), ((F(2),), (F(0), F(2)))]
    pairs += [((F(3),), (F(7), F(1))), ((F(4),), (F(0), F(2)))]
    assert _efficient(ws, [(x, _int_dir(v)) for x, v in pairs]) == [(F(0),), (F(1),), (F(3),)]
    with pytest.raises(EmptyGrid):
        _efficient(ws, [])
