"""The three seeded workloads: inputs, one timed item, and its correctness check.

Each workload is a closed loop with one client: the next item starts when the
previous one has returned.  ``inputs`` runs during set-up and builds only
plain data and immutable values (workspaces, offsets, upper sets, scenario
files).  ``run`` is the timed item; it builds every set-valued function it
uses from that data, so the memo dicts the program hangs on function objects
start empty in every item, as they do for a user who runs one audit.
``check`` runs after the item's clock has stopped.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# audit: criterion-5-shaped implication audits
# ---------------------------------------------------------------------------

# The structure of the i-th item (argument dimension, grid size, number of
# normals, pieces per offset, boxed domain), and whether enrichment grows it,
# follow one sequence shared by every seed, drawn as criterion 5 draws them;
# the seed draws the contents (cone, directions, normals, coefficients, grid,
# base point).  Structure and growth explain most of an audit's cost, so runs
# on different seeds time nearly the same mix of small and large audits.
AUDIT_STRUCTURE_SEED = "audit-structure"
AUDIT_PILOT_SEED = "audit-pilot"
AUDIT_MAX_DRAWS = 8


@dataclass(frozen=True)
class AuditSpec:
    workspace: object
    xdim: int
    normals: tuple
    offsets: tuple
    domain: object
    points: Tuple[tuple, ...]
    base: tuple


def parampoly_structure(rng, max_grid):
    """(xdim, grid size, normals, pieces per offset, boxed domain), drawn as
    criterion 5 and ``instances.random_parampoly`` draw them."""
    xdim = rng.choice([1, 2])
    normals = rng.randint(1, rng.choice([2, 3]))
    pieces = [rng.randint(1, 2) for _ in range(normals)]
    boxed = rng.random() < 0.5
    return xdim, rng.randint(3, max_grid), normals, pieces, boxed


def parampoly_function(lib, rng, ws, xdim, count, pieces, boxed):
    """``instances.random_parampoly`` with the counts given; as there, a
    normal drawn twice is kept once."""
    inst, setfun = lib["instances"], lib["setfun"]
    normals = []
    for _ in range(count):
        n = inst.random_dual_direction(rng, ws)
        if n is not None and n not in normals:
            normals.append(n)
    if not normals:
        normals = [ws.cone.facet_normals[0]]
    offsets = [
        setfun.ConcavePWL(
            [
                (
                    tuple(Fraction(rng.randint(-2, 2)) for _ in range(xdim)),
                    Fraction(rng.randint(-4, 4), rng.randint(1, 2)),
                )
                for _ in range(k)
            ]
        )
        for k in pieces[: len(normals)]
    ]
    domain = setfun.Polyhedron.box([(-4, 4)] * xdim) if boxed else setfun.Polyhedron.whole(xdim)
    return setfun.ParamPolyFunction(ws, xdim, normals, offsets, domain, name="random")


def audit_candidate(lib, rng, shape):
    """A function and an audit spec with the given structure and random contents."""
    inst = lib["instances"]
    xdim, size, normals, pieces, boxed = shape
    while True:
        ws = inst.random_workspace(rng)
        f = parampoly_function(lib, rng, ws, xdim, normals, pieces, boxed)
        pts = inst.random_grid(rng, xdim, size)
        # this throwaway f is evaluated here; the timed item builds its own
        dom = [x for x in pts if not f.eval(x).is_empty]
        if dom:
            break
    return f, AuditSpec(ws, xdim, f.normals, f.offsets, f.domain, tuple(pts), rng.choice(dom))


def audit_grows(lib, f, spec) -> bool:
    """Does enrichment add candidates?  The audits it grows make the tail."""
    vi = lib["vi"]
    space = vi.CandidateSpace.of(spec.points, base=spec.base)
    return len(vi.enrich_space(f, spec.base, space, spec.workspace.directions)) > len(space)


def audit_growth_plan(lib, count) -> str:
    """Whether enrichment grows the i-th audit, for natural draws of contents
    with the shared structure: one "0"/"1" per item, stored in expected.json."""
    structure = random.Random(AUDIT_STRUCTURE_SEED)
    pilot = random.Random(AUDIT_PILOT_SEED)
    flags = []
    for _ in range(count):
        f, spec = audit_candidate(lib, pilot, parampoly_structure(structure, 6))
        flags.append("1" if audit_grows(lib, f, spec) else "0")
    return "".join(flags)


def audit_inputs(lib, rng, count, work_dir, expected):
    """Audit specs whose structure and growth follow the shared sequence; the
    contents are redrawn (at most AUDIT_MAX_DRAWS times) until enrichment
    grows the audit exactly when the plan says it does."""
    plan = expected["audit_growth_plan"]
    structure = random.Random(AUDIT_STRUCTURE_SEED)
    specs = []
    for i in range(count):
        shape = parampoly_structure(structure, 6)
        grows = plan[i % len(plan)] == "1"
        for _ in range(AUDIT_MAX_DRAWS):
            f, spec = audit_candidate(lib, rng, shape)
            if audit_grows(lib, f, spec) == grows:
                break
        specs.append(spec)
    return specs


def audit_run(lib, spec: AuditSpec):
    f = lib["setfun"].ParamPolyFunction(
        spec.workspace, spec.xdim, spec.normals, spec.offsets, spec.domain, name="random"
    )
    space = lib["vi"].CandidateSpace.of(spec.points)
    return lib["vi"].implication_audit(f, spec.base, space, spec.workspace.directions)


def audit_check(spec, audit, expected) -> bool:
    return len(audit.violations) == 0


def audit_digest(audit) -> str:
    """Digest of the implication matrix and the full audit JSON."""
    return sha256(audit.matrix_text() + "\n" + json.dumps(audit.to_json(), sort_keys=True))


# ---------------------------------------------------------------------------
# lattice: criterion-1-shaped lattice-law instances
# ---------------------------------------------------------------------------


def lattice_inputs(lib, rng, count, work_dir, expected):
    inst = lib["instances"]
    items = []
    for _ in range(count):
        ws = inst.random_workspace(rng)
        a = inst.random_upper_set(rng, ws, allow_empty=True)
        b = inst.random_upper_set(rng, ws)
        d = inst.random_upper_set(rng, ws)
        m = inst.random_upper_set(rng, ws, allow_empty=True)
        s = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        items.append((ws, a, b, d, m, s))
    return items


THIRD = Fraction(1, 3)


def lattice_run(lib, item):
    """The laws of criterion 1, plus the join law of ``sup_family`` and the
    support function of ``inf_family``; returns how many failed."""
    inf_family = lib["kernel"].inf_family
    sup_family = lib["kernel"].sup_family
    ext_max = lib["extres"].ext_max
    ws, a, b, d, m, s = item
    q = a.residual(b)
    lhs = a.scale(THIRD).add(b.scale(1 - THIRD)).residual(d)
    rhs = a.residual(d).scale(THIRD).add(b.residual(d).scale(1 - THIRD))
    hull = inf_family(ws, [a, d])
    laws = [
        a.leq(b.add(q)),
        a.leq(b.add(m)) == q.leq(m),
        b.add(hull) == inf_family(ws, [b.add(a), b.add(d)]),
        q.scale(s) == a.scale(s).residual(b.scale(s)),
        lhs.leq(rhs),
        a.residual(d).leq(a.residual(b).add(b.residual(d))),
        a.is_empty or a.residual(a) == a.recession(),
        sup_family(ws, [a, d]).leq(m) == (a.leq(m) and d.leq(m)),
        all(hull.support(z) == ext_max([a.support(z), d.support(z)]) for z in ws.directions),
    ]
    return laws.count(False)


def lattice_check(item, violations, expected) -> bool:
    return violations == 0


# ---------------------------------------------------------------------------
# scenarios: `setlattice check-vi` on builtin and generated scenario files
# ---------------------------------------------------------------------------

BUILTINS = (
    "example23",
    "heyde_a",
    "heyde_b",
    "circle",
    "infdir_example",
    "no_solution_line",
)
# Generated files per builtin pass; each pass runs the six builtins once.
GENERATED_PER_PASS = 18
CHECK_VI_IDS = ["svi_I", "MVI_I", "svi_M", "mvi_M"]
SCENARIO_STRUCTURE_SEED = "scenario-structure"


@dataclass(frozen=True)
class ScenarioItem:
    label: str
    source: str
    report: str
    builtin: bool


def _rat(x) -> str:
    return str(Fraction(x))


def _vec(v) -> list:
    return [_rat(c) for c in v]


def _pieces(pwl) -> list:
    return [[_vec(c), _rat(k)] for c, k in pwl.pieces]


# Wedges that contain the nonnegative orthant.  ``psi`` has convex components,
# so it is C-convex, as the vector Minty principle requires, only for such C.
SCENARIO_CONES = [
    [(1, 0), (0, 1)],
    [(1, -1), (0, 1)],
    [(1, -2), (0, 1)],
    [(1, 0), (-1, 1)],
    [(1, 0), (-2, 1)],
]


def scenario_workspace(lib, rng):
    kernel, inst = lib["kernel"], lib["instances"]
    cone = kernel.Workspace(2, rng.choice(SCENARIO_CONES))
    extra = [inst.random_dual_direction(rng, cone) for _ in range(2)]
    return kernel.Workspace(
        2, cone.cone.generators, list(cone.cone.facet_normals) + [e for e in extra if e]
    )


def scenario_doc(lib, rng, structure, name):
    """A random scenario with a parametric-polyhedron function ``f`` and a
    piecewise-linear vector function ``psi`` over one random ordering cone.
    As for ``audit``, the sizes come from ``structure``, shared by all seeds,
    and the contents from ``rng``."""
    inst = lib["instances"]
    xdim, size, normals, pieces, boxed = parampoly_structure(structure, 5)
    psi_pieces = [structure.randint(1, 2) for _ in range(2)]
    vgrid_size = structure.randint(4, 7)
    while True:
        ws = scenario_workspace(lib, rng)
        f = parampoly_function(lib, rng, ws, xdim, normals, pieces, boxed)
        pts = inst.random_grid(rng, xdim, size)
        dom = [x for x in pts if not f.eval(x).is_empty]
        if dom and len(pts) > 1:
            break
    base = rng.choice(dom)
    other = rng.choice([p for p in pts if p != base])
    psi = [
        [
            [[_rat(rng.randint(-2, 2))], _rat(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))]
            for _ in range(k)
        ]
        for k in psi_pieces
    ]
    vgrid = inst.random_grid(rng, 1, vgrid_size)
    return {
        "schema": 1,
        "name": name,
        "workspace": {
            "dim": ws.dim,
            "cone": [list(g) for g in ws.cone.generators],
            "directions": [list(z) for z in ws.directions],
        },
        "functions": {
            "f": {
                "variant": "parampoly",
                "xdim": xdim,
                "normals": [list(n) for n in f.normals],
                "offsets": [_pieces(off) for off in f.offsets],
                "domain": [[_vec(a), _rat(r)] for a, r in f.domain.rows],
            },
            "psi": {
                "variant": "pwlvector",
                "xdim": 1,
                "components": psi,
            },
        },
        "spaces": {
            "grid": {"points": [_vec(p) for p in pts]},
            "vgrid": {"points": [_vec(p) for p in vgrid]},
        },
        "tasks": [
            {
                "op": "check_vi",
                "function": "f",
                "space": "grid",
                "base": _vec(base),
                "inequalities": CHECK_VI_IDS,
            },
            {
                "op": "regularity",
                "function": "f",
                "x": _vec(base),
                "u": _vec(o - b for o, b in zip(other, base)),
            },
            {"op": "minimal_scan", "function": "f", "space": "grid"},
            {"op": "efficient_set", "function": "psi", "grid": "vgrid"},
            {"op": "vector_minty", "function": "psi", "base": _vec(rng.choice(vgrid)), "grid": "vgrid"},
        ],
    }


def scenarios_inputs(lib, rng, count, work_dir, expected):
    """``count`` generated scenario files, interleaved with the builtins:
    every pass is the six builtins followed by GENERATED_PER_PASS files."""
    os.makedirs(work_dir, exist_ok=True)
    structure = random.Random(SCENARIO_STRUCTURE_SEED)
    items = []
    for k in range(count):
        if k % GENERATED_PER_PASS == 0:
            for name in BUILTINS:
                items.append(
                    ScenarioItem(
                        name, f"builtin:{name}", os.path.join(work_dir, f"{name}.report.json"), True
                    )
                )
        label = f"generated-{k}"
        path = os.path.join(work_dir, f"{label}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario_doc(lib, rng, structure, label), fh)
        items.append(ScenarioItem(label, path, os.path.join(work_dir, f"{label}.report.json"), False))
    return items


def scenarios_run(lib, item: ScenarioItem):
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        return lib["cli"].main(["check-vi", "--scenario", item.source, "--report", item.report])


def scenarios_check(item: ScenarioItem, code, expected) -> bool:
    if code != 0:
        return False
    with open(item.report, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(item.report)  # a later pass must not read this report again
    if report["hard_failures"] != 0:
        return False
    if item.builtin:
        return tasks_digest(report) == expected["scenario_tasks_sha256"][item.label]
    for task in report["tasks"]:
        if task["op"] == "efficient_set" and task["bridge_agrees"] is not True:
            return False
        if task["op"] == "vector_minty" and task["report"]["agrees_with_efficiency"] is not True:
            return False
    return True


def tasks_digest(report) -> str:
    """Digest of a report's task results; ``environment`` is left out."""
    return sha256(json.dumps(report["tasks"], sort_keys=True))
