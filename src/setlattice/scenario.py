"""Scenario loading and execution: a JSON scenario names a workspace,
functions, candidate spaces and a task list; running it produces a
deterministic JSON report and optional SVG plots."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional

from .calculus import (
    regularity_check,
    scalar_dini,
    set_derivative,
)
from .extres import residual as ext_residual
from .instances import (
    BUILTIN_NAMES,
    builtin_function,
    example23_sets,
    example23_workspace,
    noncommutation_trail,
)
from .kernel import (
    DirectionSet,
    LatticeError,
    UpperSet,
    Workspace,
    frac_str,
    inf_family,
)
from .setfun import (
    ConcavePWL,
    ConvexPWL,
    EpiVectorFunction,
    ParamPolyFunction,
    Polyhedron,
    SetFunction,
)
from .svgplot import render_svg
from .vectoropt import (
    VectorFunction,
    classify_dini,
    efficiency_minimality_bridge,
    epigraphical,
    infdir_plus_cone,
    vector_dini,
    vector_minty_check,
)
from .vi import (
    INEQUALITY_IDS,
    CandidateSpace,
    implication_audit,
    infimizer_check,
    minimal_scan,
    run_checker,
    solution_check,
)

SCHEMA_VERSION = 1
DEFAULT_TOLERANCE = Fraction(1, 10**6)

# Largest candidate space a "box" grid may enumerate.
MAX_SPACE_POINTS = 10_000


class ValidationError(LatticeError):
    pass


class TaskError(LatticeError):
    pass


def _rat(x) -> Fraction:
    if isinstance(x, bool):
        raise ValidationError(f"expected a rational, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"bad rational {x!r}") from exc
    raise ValidationError(f"expected a rational, got {x!r}")


def parse_tolerance(x) -> Fraction:
    """A nonnegative rational tolerance, from a scenario field or the CLI flag."""
    tol = _rat(x)
    if tol < 0:
        raise ValidationError(f"tolerance must be nonnegative, got {x!r}")
    return tol


def _vec(x) -> tuple:
    if not isinstance(x, (list, tuple)):
        raise ValidationError(f"expected a vector, got {x!r}")
    return tuple(_rat(c) for c in x)


def _int(x) -> int:
    if isinstance(x, bool):
        raise ValidationError(f"expected an integer, got {x!r}")
    try:
        return int(x)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"expected an integer, got {x!r}") from exc


def _pairs(x) -> list:
    """A list of two-element entries, such as (normal, offset) rows."""
    if not isinstance(x, list) or not all(
        isinstance(p, (list, tuple)) and len(p) == 2 for p in x
    ):
        raise ValidationError(f"expected a list of pairs, got {x!r}")
    return x


def _field(obj, key: str):
    """A required field of a scenario object."""
    if not isinstance(obj, dict):
        raise ValidationError(f"expected an object, got {obj!r}")
    if key not in obj:
        raise ValidationError(f"missing field {key!r}")
    return obj[key]


def _arity(f, v: tuple, what: str) -> tuple:
    if len(v) != f.xdim:
        raise ValidationError(f"{what} has {len(v)} coordinates, the function takes {f.xdim}")
    return v


def _in_args(f, x, key: str) -> tuple:
    """A point or direction in the argument space of f."""
    return _arity(f, _vec(x), repr(key))


def _arg(f, task: dict, key: str) -> tuple:
    return _in_args(f, _field(task, key), key)


def _list(items, key: str) -> list:
    """A list-valued scenario field."""
    if not isinstance(items, list):
        raise ValidationError(f"{key!r} must be a list, got {items!r}")
    return items


def _arg_list(f, task: dict, key: str) -> List[tuple]:
    return [_in_args(f, p, key) for p in _list(_field(task, key), key)]


@dataclass
class Scenario:
    name: str
    workspace: Optional[Workspace]
    functions: Dict[str, object]
    sets: Dict[str, UpperSet]
    spaces: Dict[str, List[tuple]]
    tasks: List[dict]
    tolerance: Fraction = DEFAULT_TOLERANCE

    @staticmethod
    def from_json(
        doc: dict, name: str = "scenario", tolerance: Optional[Fraction] = None
    ) -> "Scenario":
        """Parse a scenario; ``tolerance``, when given, overrides the document's."""
        if not isinstance(doc, dict):
            raise ValidationError("scenario document must be an object")
        if doc.get("schema", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ValidationError("unsupported schema version")
        name = doc.get("name", name)
        doc_tol = parse_tolerance(doc["tolerance"]) if "tolerance" in doc else DEFAULT_TOLERANCE
        if tolerance is None:
            tolerance = doc_tol
        ws = None
        if "workspace" in doc:
            w = doc["workspace"]
            try:
                ws = Workspace(
                    _int(_field(w, "dim")),
                    [_vec(g) for g in w.get("cone", [])],
                    [_vec(d) for d in w.get("directions", [])],
                )
            except (TypeError, LatticeError) as exc:
                raise ValidationError(f"bad workspace: {exc}") from exc
        functions: Dict[str, object] = {}
        for fname, spec in _table(doc, "functions").items():
            try:
                functions[fname] = _build_function(ws, spec, tolerance)
            except LatticeError as exc:
                raise ValidationError(f"bad function {fname!r}: {exc}") from exc
        sets: Dict[str, UpperSet] = {}
        for sname, spec in _table(doc, "sets").items():
            if ws is None:
                raise ValidationError("named sets need a workspace")
            try:
                sets[sname] = _build_set(ws, spec)
            except LatticeError as exc:
                raise ValidationError(f"bad set {sname!r}: {exc}") from exc
        spaces: Dict[str, List[tuple]] = {}
        for gname, spec in _table(doc, "spaces").items():
            spaces[gname] = _build_space(spec)
        tasks = doc.get("tasks", [])
        if not isinstance(tasks, list) or not all(isinstance(t, dict) for t in tasks):
            raise ValidationError("tasks must be a list of objects")
        return Scenario(name, ws, functions, sets, spaces, tasks, tolerance)


def _table(doc: dict, key: str) -> dict:
    table = doc.get(key, {})
    if not isinstance(table, dict):
        raise ValidationError(f"{key} must be an object")
    return table


def _build_function(ws: Optional[Workspace], spec: dict, tolerance: Fraction):
    if not isinstance(spec, dict) or "variant" not in spec:
        raise ValidationError(f"bad function spec {spec!r}")
    variant = spec["variant"]
    if variant == "builtin":
        bname = spec.get("name")
        if bname not in BUILTIN_NAMES:
            raise ValidationError(f"unknown builtin {bname!r}")
        return builtin_function(bname, tolerance)
    if ws is None:
        raise ValidationError("non-builtin functions need a workspace")
    xdim = _int(spec.get("xdim", ws.dim))
    if xdim < 1:
        raise ValidationError(f"xdim must be positive, got {xdim}")
    domain = Polyhedron(
        xdim, [(_vec(a), _rat(r)) for a, r in _pairs(spec.get("domain", []))]
    )
    if variant == "parampoly":
        normals = [_vec(n) for n in _list(_field(spec, "normals"), "normals")]
        offsets = [
            ConcavePWL([(_vec(c), _rat(k)) for c, k in _pairs(pieces)])
            for pieces in _list(_field(spec, "offsets"), "offsets")
        ]
        return ParamPolyFunction(ws, xdim, normals, offsets, domain, name=spec.get("name", ""))
    if variant in ("epivector", "pwlvector"):
        comps = [
            ConvexPWL([(_vec(c), _rat(k)) for c, k in _pairs(pieces)])
            for pieces in _list(_field(spec, "components"), "components")
        ]
        return EpiVectorFunction(ws, xdim, comps, domain, name=spec.get("name", ""))
    raise ValidationError(f"unknown function variant {variant!r}")


def _build_set(ws: Workspace, spec: dict) -> UpperSet:
    if not isinstance(spec, dict):
        raise ValidationError(f"bad set spec {spec!r}")
    if spec.get("tag") == "empty":
        return ws.empty_set()
    cons = [
        (_vec(_field(item, "n")), _rat(_field(item, "b")))
        for item in _list(spec.get("constraints", []), "constraints")
    ]
    return ws.upper_set(cons)


def _build_space(spec) -> List[tuple]:
    if isinstance(spec, dict) and "points" in spec:
        return [_vec(p) for p in _list(spec["points"], "points")]
    if isinstance(spec, dict) and "box" in spec:
        step = _rat(spec.get("step", 1))
        if step <= 0:
            raise ValidationError("grid step must be positive")
        rows = [(_rat(lo), _rat(hi)) for lo, hi in _pairs(spec["box"])]
        counts = [max(0, (hi - lo) // step + 1) for lo, hi in rows]
        total = math.prod(counts)
        if total > MAX_SPACE_POINTS:
            raise ValidationError(f"box grid has {total} points, more than {MAX_SPACE_POINTS}")
        if not total:
            return []
        axes = [[lo + k * step for k in range(n)] for (lo, _), n in zip(rows, counts)]
        pts = [()]
        for axis in axes:
            pts = [p + (v,) for p in pts for v in axis]
        return pts
    raise ValidationError(f"bad space spec {spec!r}")


# ---------------------------------------------------------------------------
# Task dispatch
# ---------------------------------------------------------------------------


def _lookup(table: dict, name, what: str):
    """The entry called name; a name that is not a string names nothing."""
    if not isinstance(name, str) or name not in table:
        raise ValidationError(f"unknown {what} {name!r}")
    return table[name]


def _function_of(scn: Scenario, task: dict):
    return _lookup(scn.functions, task.get("function"), "function")


def _set_function_of(scn: Scenario, task: dict) -> SetFunction:
    f = _function_of(scn, task)
    if isinstance(f, VectorFunction):
        return epigraphical(f)
    if isinstance(f, tuple):
        raise ValidationError("task needs a set-valued function")
    return f


def _vector_function_of(scn: Scenario, task: dict) -> VectorFunction:
    f = _function_of(scn, task)
    if not isinstance(f, VectorFunction):
        raise ValidationError("task needs a vector-valued function")
    return f


def _space_of(scn: Scenario, task: dict, f, key: str = "space") -> List[tuple]:
    """The points of the task's named space, in the argument space of f."""
    gname = task.get(key)
    points = _lookup(scn.spaces, gname, "space")
    return [_arity(f, p, f"a point of space {gname!r}") for p in points]


def _named_set(scn: Scenario, key: str) -> UpperSet:
    return _lookup(scn.sets, key, "set")


def _dirs_for(obj) -> DirectionSet:
    return obj.workspace.directions


def run_task(scn: Scenario, task: dict) -> dict:
    op = task.get("op")
    out = {"op": op}
    if op == "eval":
        f = _set_function_of(scn, task)
        out["value"] = f.eval(_arg(f, task, "x")).to_json()
    elif op == "residual":
        a = _named_set(scn, _field(task, "a"))
        b = _named_set(scn, _field(task, "b"))
        out["value"] = a.residual(b).to_json()
    elif op == "scalar_residuals":
        a = _named_set(scn, _field(task, "a"))
        b = _named_set(scn, _field(task, "b"))
        vals = {}
        for z in a.workspace.directions:
            r = ext_residual(a.neg_support(z), b.neg_support(z))
            vals[",".join(map(str, z))] = r.to_json()
        out["values"] = vals
        out["residual_empty"] = a.residual(b).is_empty
    elif op == "check_vi":
        f = _set_function_of(scn, task)
        base = _arg(f, task, "base")
        space = CandidateSpace.of(_space_of(scn, task, f), base=base)
        names = _list(task.get("inequalities", ["svi_I"]), "inequalities")
        for n in names:
            if n not in INEQUALITY_IDS:
                raise ValidationError(f"unknown inequality id {n!r}")
        out["reports"] = [
            run_checker(n, f, base, space, _dirs_for(f)).to_json()
            for n in names
        ]
    elif op == "implication_audit":
        f = _set_function_of(scn, task)
        base = _arg(f, task, "base")
        space = CandidateSpace.of(_space_of(scn, task, f), base=base)
        enrich = task.get("enrich", True)
        if not isinstance(enrich, bool):
            raise ValidationError(f"enrich must be true or false, got {enrich!r}")
        audit = implication_audit(f, base, space, _dirs_for(f), enrich=enrich)
        out["audit"] = audit.to_json()
        out["matrix"] = audit.matrix_text()
        out["violations"] = len(audit.violations)
    elif op == "derivative":
        f = _set_function_of(scn, task)
        out["result"] = set_derivative(f, _arg(f, task, "x"), _arg(f, task, "u")).to_json()
    elif op == "scalar_dini":
        f = _set_function_of(scn, task)
        x, u = _arg(f, task, "x"), _arg(f, task, "u")
        out["values"] = {
            ",".join(map(str, z)): scalar_dini(f, z, x, u).to_json() for z in _dirs_for(f)
        }
    elif op == "regularity":
        f = _set_function_of(scn, task)
        rep = regularity_check(f, _arg(f, task, "x"), _arg(f, task, "u"), _dirs_for(f))
        out["strong"] = rep.strong
        out["weak"] = rep.weak
        out["exact"] = rep.exact
        out["derivative"] = rep.derivative.to_json()
        out["intersection"] = rep.intersection.to_json()
    elif op == "minimal_scan":
        f = _set_function_of(scn, task)
        pts = _space_of(scn, task, f)
        probe = CandidateSpace.of(
            _space_of(scn, task, f, "probe_space") if "probe_space" in task else pts
        )
        bases = [x for x in pts if not f.eval(x).is_empty]
        reports = minimal_scan(f, bases, probe, _dirs_for(f))
        out["minimal"] = [
            [frac_str(c) for c in x] for x, rep in zip(bases, reports) if rep.conditions["a"]
        ]
    elif op == "infimizer":
        f = _set_function_of(scn, task)
        space = CandidateSpace.of(_space_of(scn, task, f))
        out["report"] = infimizer_check(
            f, _arg_list(f, task, "M"), space, _dirs_for(f)
        ).to_json()
    elif op == "solution":
        f = _set_function_of(scn, task)
        space = CandidateSpace.of(_space_of(scn, task, f))
        out["report"] = solution_check(
            f, _arg_list(f, task, "M"), space, _dirs_for(f)
        ).to_json()
    elif op == "efficient_set":
        psi = _vector_function_of(scn, task)
        grid = _space_of(scn, task, psi, "grid" if "grid" in task else "space")
        bridge = efficiency_minimality_bridge(psi, grid, _dirs_for(psi))
        out["efficient"] = [[frac_str(c) for c in p] for p in bridge["efficient"]]
        out["bridge_agrees"] = bridge["agrees"]
    elif op == "vector_dini":
        psi = _vector_function_of(scn, task)
        base, direction = _arg(psi, task, "base"), _arg(psi, task, "direction")
        dl = vector_dini(psi, base, direction)
        out["limit"] = dl.to_json()
        out["classification"] = {
            k: v if isinstance(v, bool) else str(v)
            for k, v in classify_dini(
                psi,
                base,
                tuple(b + d for b, d in zip(base, direction)),
                dl,
                _dirs_for(psi),
            ).items()
        }
    elif op == "vector_minty":
        psi = _vector_function_of(scn, task)
        rep = vector_minty_check(
            psi, _arg(psi, task, "base"), _space_of(scn, task, psi, "grid" if "grid" in task else "space"), _dirs_for(psi)
        )
        out["report"] = {
            k: (v if isinstance(v, bool) else str(v))
            for k, v in rep.items()
            if k != "witnesses"
        }
        out["witness_count"] = len(rep["witnesses"])
    elif op == "infdir_plus_cone":
        ws = scn.workspace
        if ws is None:
            raise ValidationError("infdir_plus_cone needs a workspace")
        direction = _vec(_field(task, "direction"))
        if len(direction) != ws.dim:
            raise ValidationError(f"direction has {len(direction)} coordinates, expected {ws.dim}")
        out["value"] = infdir_plus_cone(ws, direction).to_json()
    elif op == "noncommutation":
        ws = scn.workspace or example23_workspace()
        count = _int(task.get("count", 6))
        hull = inf_family(
            ws, [ws.translated_cone(p) for p in noncommutation_trail(count)]
        )
        hull2 = inf_family(
            ws, [ws.translated_cone(p) for p in noncommutation_trail(2 * count)]
        )
        shadow = infdir_plus_cone(ws, (0, -1))
        out["trail_hull"] = hull.to_json()
        out["direction_shadow"] = shadow.to_json()
        # the trail hulls grow without bound while the shadow stays proper
        out["noncommutation"] = (
            hull2.leq(hull) and hull2 != hull and not shadow.is_whole
        )
    elif op == "plot":
        names = _list(task.get("sets", []), "sets")
        pairs = [(n, _named_set(scn, n)) for n in names]
        out["svg"] = render_svg(pairs)
        out["sets"] = names
    else:
        raise ValidationError(f"unknown task op {op!r}")
    return out


@dataclass
class Report:
    scenario: str
    environment: dict
    tasks: List[dict] = field(default_factory=list)
    hard_failures: int = 0

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "scenario": self.scenario,
            "environment": self.environment,
            "tasks": self.tasks,
            "hard_failures": self.hard_failures,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


def run_scenario(scn: Scenario) -> Report:
    from . import __version__

    report = Report(
        scenario=scn.name,
        environment={
            "package": f"setlattice {__version__}",
            "tolerance": frac_str(scn.tolerance),
        },
    )
    for t in scn.tasks:
        res = run_task(scn, t)
        report.tasks.append(res)
        report.hard_failures += int(res.get("violations", 0))
    return report


# ---------------------------------------------------------------------------
# Builtin scenarios
# ---------------------------------------------------------------------------


def builtin_scenario(name: str, tolerance: Optional[Fraction] = None) -> Scenario:
    tol = DEFAULT_TOLERANCE if tolerance is None else tolerance
    if name == "example23":
        ws = example23_workspace()
        A, B = example23_sets(ws)
        scn = Scenario(
            name,
            ws,
            {},
            {"A": A, "B": B, "A_div_B": A.residual(B)},
            {},
            [
                {"op": "residual", "a": "A", "b": "B"},
                {"op": "scalar_residuals", "a": "A", "b": "B"},
                {"op": "plot", "sets": ["A", "B", "A_div_B"]},
            ],
            tol,
        )
        return scn
    if name == "heyde_a":
        grid = [
            [0, 0], [1, 0], [0, 1], [1, 1], [1, 2], [2, 1], [2, 2],
            ["3/2", "3/2"], [3, 0], [0, -2],
        ]
        return Scenario.from_json(
            {
                "name": name,
                "functions": {"f": {"variant": "builtin", "name": "heyde_a"}},
                "spaces": {
                    "grid": {"points": grid},
                    "corners": {"points": [[1, 1], [1, 2], [2, 1], [2, 2]]},
                    "square": {"points": [[1, 1], [1, 2], [2, 1], [2, 2], ["3/2", "3/2"]]},
                },
                "tasks": [
                    {"op": "minimal_scan", "function": "f", "space": "grid"},
                    {
                        "op": "solution",
                        "function": "f",
                        "M": [[1, 1], [1, 2], [2, 1], [2, 2]],
                        "space": "square",
                    },
                ],
            },
            name,
            tol,
        )
    if name == "heyde_b":
        return Scenario.from_json(
            {
                "name": name,
                "functions": {"f": {"variant": "builtin", "name": "heyde_b"}},
                "spaces": {"grid": {"points": [[0], ["1/4"], ["1/2"], ["3/4"], [1]]}},
                "tasks": [{"op": "minimal_scan", "function": "f", "space": "grid"}],
            },
            name,
            tol,
        )
    if name == "circle":
        return Scenario.from_json(
            {
                "name": name,
                "functions": {"f": {"variant": "builtin", "name": "circle"}},
                "spaces": {},
                "tasks": [
                    {"op": "derivative", "function": "f", "x": [0], "u": [1]},
                    {"op": "regularity", "function": "f", "x": [0], "u": [1]},
                ],
            },
            name,
            tol,
        )
    if name == "infdir_example":
        scn = Scenario.from_json(
            {
                "name": name,
                "workspace": {
                    "dim": 2,
                    "cone": [[1, 0], [0, 1]],
                    "directions": [[-1, 0], [0, -1]],
                },
                "functions": {"psi": {"variant": "builtin", "name": "infdir_example"}},
                "spaces": {},
                "tasks": [
                    {"op": "vector_dini", "function": "psi", "base": [0], "direction": [1]},
                    {"op": "infdir_plus_cone", "direction": [0, -1]},
                    {"op": "infdir_plus_cone", "direction": [1, 1]},
                    {"op": "infdir_plus_cone", "direction": [0, 0]},
                    {"op": "noncommutation", "count": 6},
                ],
            },
            name,
            tol,
        )
        return scn
    if name == "no_solution_line":
        return Scenario.from_json(
            {
                "name": name,
                "functions": {"f": {"variant": "builtin", "name": "no_solution_line"}},
                "spaces": {
                    "grid": {"points": [[0], [1], [2], [3], [4], [5]]},
                    "probe": {"points": [[0], [1], [2], [3], [4], [5], [6]]},
                    "tail": {"points": [[4], [5]]},
                },
                "tasks": [
                    {
                        "op": "infimizer",
                        "function": "f",
                        "M": [[0], [1], [2], [3], [4], [5]],
                        "space": "grid",
                    },
                    {"op": "infimizer", "function": "f", "M": [[4], [5]], "space": "grid"},
                    {"op": "infimizer", "function": "f", "M": [[0], [1], [2]], "space": "grid"},
                    {
                        "op": "minimal_scan",
                        "function": "f",
                        "space": "grid",
                        "probe_space": "probe",
                    },
                    {
                        "op": "solution",
                        "function": "f",
                        "M": [[4], [5]],
                        "space": "probe",
                    },
                ],
            },
            name,
            tol,
        )
    raise ValidationError(f"unknown builtin scenario {name!r}")


def load_scenario(path_or_name: str, tolerance: Optional[Fraction] = None) -> Scenario:
    """A builtin (``builtin:NAME``) or a scenario file; ``tolerance``, when
    given, overrides the scenario's before its functions are built."""
    if path_or_name.startswith("builtin:"):
        return builtin_scenario(path_or_name.split(":", 1)[1], tolerance)
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read scenario: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed scenario JSON: {exc}") from exc
    return Scenario.from_json(doc, path_or_name, tolerance)
