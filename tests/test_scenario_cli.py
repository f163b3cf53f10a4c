import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import setlattice
import setlattice.cli as cli
from setlattice.cli import main
from setlattice.instances import BUILTIN_NAMES
from setlattice.scenario import (
    builtin_scenario,
    load_scenario,
    run_scenario,
)

F = Fraction


def run_builtin(name):
    return run_scenario(builtin_scenario(name))


def task_by_op(report, op):
    return [t for t in report.tasks if t["op"] == op]


def test_example23_report_values():
    rep = run_builtin("example23")
    res = task_by_op(rep, "residual")[0]
    assert res["value"] == {"tag": "empty"}
    scal = task_by_op(rep, "scalar_residuals")[0]
    assert scal["residual_empty"] is True
    assert scal["values"]["1,0"] == {"t": "fin", "n": "1", "d": "1"}
    assert scal["values"]["-1,0"] == {"t": "fin", "n": "1", "d": "1"}
    assert scal["values"]["0,-1"] == {"t": "fin", "n": "0", "d": "1"}
    svg = task_by_op(rep, "plot")[0]["svg"]
    assert svg.startswith("<svg") and "A_div_B (empty)" in svg


def test_heyde_a_scenario():
    rep = run_builtin("heyde_a")
    scan = task_by_op(rep, "minimal_scan")[0]
    # every grid point lies in the domain and is minimal
    assert len(scan["minimal"]) == 10
    sol = task_by_op(rep, "solution")[0]
    assert sol["report"]["is_solution"] is True


def test_heyde_b_scenario():
    rep = run_builtin("heyde_b")
    scan = task_by_op(rep, "minimal_scan")[0]
    assert scan["minimal"] == [["1"]]


def test_circle_scenario():
    rep = run_builtin("circle")
    der = task_by_op(rep, "derivative")[0]
    assert der["result"]["value"] == {"tag": "empty"}
    reg = task_by_op(rep, "regularity")[0]
    assert reg["weak"] is False and reg["exact"] is False
    assert rep.hard_failures == 0


def test_infdir_scenario():
    rep = run_builtin("infdir_example")
    shadows = task_by_op(rep, "infdir_plus_cone")
    assert shadows[0]["value"]["constraints"] == [{"n": [-1, 0], "b": "0"}]
    assert shadows[1]["value"] == {"tag": "empty"}
    assert shadows[2]["value"]["constraints"] == [
        {"n": [-1, 0], "b": "0"},
        {"n": [0, -1], "b": "0"},
    ]
    non = task_by_op(rep, "noncommutation")[0]
    assert non["noncommutation"] is True
    dini = task_by_op(rep, "vector_dini")[0]
    assert dini["limit"]["infinite"]


def test_no_solution_scenario():
    rep = run_builtin("no_solution_line")
    inf_tasks = task_by_op(rep, "infimizer")
    assert inf_tasks[0]["report"]["is_infimizer"] is True
    assert inf_tasks[1]["report"]["is_infimizer"] is True
    assert inf_tasks[2]["report"]["is_infimizer"] is False
    scan = task_by_op(rep, "minimal_scan")[0]
    assert scan["minimal"] == []
    sol = task_by_op(rep, "solution")[0]
    assert sol["report"]["is_solution"] is False


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_reports_deterministic(name):
    a = run_builtin(name).dumps()
    b = run_builtin(name).dumps()
    assert a == b


# sha256 of each builtin's `check-vi --report` file.  A change that moves a
# report must say why and record the new digest here.
BUILTIN_REPORT_SHA256 = {
    "example23": "fc92e5e3ac0a900368dea30676f55b0346ab50a82707a500a8d935915cba7ec6",
    "heyde_a": "02721a43acc3be575605f4411decddea91a366b76e7a3a6fd4494cb3f7c6fa7a",
    "heyde_b": "5c1763826a5bedfbc65200f02ef3e56a0ea50daa7288e689f57814bbe161d731",
    "circle": "717ba814740f160a66b25d719255112cea532538daa97b65a846e48702115f51",
    "infdir_example": "701b8d91a270a95b7bb49028e4560dfaa154054285ab3849b442c02201f42a88",
    "no_solution_line": "e0469cd075363b6dfc869c13b9d249952146ce2761a325856c660c8833ebdbbf",
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_builtin_report_bytes_pinned(name, tmp_path):
    path = tmp_path / "report.json"
    assert main(["check-vi", "--scenario", f"builtin:{name}", "--report", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == BUILTIN_REPORT_SHA256[name]


def test_scenario_json_round_trip(tmp_path):
    doc = {
        "schema": 1,
        "name": "toy",
        "workspace": {
            "dim": 2,
            "cone": [[1, 0], [0, 1]],
            "directions": [[-1, 0], [0, -1], [-1, -1]],
        },
        "functions": {
            "f": {
                "variant": "parampoly",
                "xdim": 1,
                "normals": [[-1, 0], [0, -1]],
                "offsets": [[[["1"], "0"], [["-1"], "0"]], [[["1"], "0"], [["-1"], "0"]]],
                "domain": [],
            }
        },
        "spaces": {"grid": {"box": [["-1", "1"]], "step": "1/2"}},
        "tasks": [
            {"op": "check_vi", "function": "f", "base": [0], "space": "grid",
             "inequalities": ["svi_I", "SVI_I", "mvi_I", "MVI_I"]},
            {"op": "implication_audit", "function": "f", "base": [0], "space": "grid"},
        ],
    }
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(str(path))
    rep = run_scenario(scn)
    checks = task_by_op(rep, "check_vi")[0]["reports"]
    assert all(r["holds"] for r in checks)
    audit = task_by_op(rep, "implication_audit")[0]
    assert audit["violations"] == 0
    assert rep.hard_failures == 0


def test_both_vector_spellings_serve_the_vector_tasks(tmp_path):
    """"epivector" and "pwlvector" build one kind of function, an exact psi
    that is its own epigraphical extension, so both serve the vector tasks
    (efficient_set, vector_minty, vector_dini) and the set-valued ones alike."""
    comps = [[[["1"], "0"], [["-1"], "0"]], [[["1"], "-1"], [["-1"], "1"]]]
    spec = {"xdim": 1, "components": comps, "domain": [[["1"], "2"], [["-1"], "1"]]}
    ops = [
        {"op": "efficient_set", "grid": "g"},
        {"op": "vector_minty", "base": ["1/2"], "grid": "g"},
        {"op": "vector_minty", "base": ["-1/2"], "grid": "g"},
        {"op": "vector_dini", "base": ["1/2"], "direction": ["1"]},
        {"op": "minimal_scan", "space": "g"},
        {"op": "check_vi", "base": ["1/2"], "space": "g", "inequalities": ["svi_I", "MVI_M"]},
    ]
    doc = {
        "schema": 1,
        "name": "spellings",
        "workspace": {"dim": 2, "cone": [[1, 0], [0, 1]], "directions": [[-1, 0], [0, -1]]},
        "functions": {name: {"variant": name, **spec} for name in ("epivector", "pwlvector")},
        "spaces": {"g": {"box": [["-1", "2"]], "step": "1/2"}},
        "tasks": [{**op, "function": name} for name in ("epivector", "pwlvector") for op in ops],
    }
    path = tmp_path / "spellings.json"
    path.write_text(json.dumps(doc))
    assert main(["check-vi", "--scenario", str(path)]) == 0
    tasks = run_scenario(load_scenario(str(path))).tasks
    epi, pwl = tasks[: len(ops)], tasks[len(ops):]
    assert epi == pwl
    assert epi[0]["efficient"] == [["0"], ["1/2"], ["1"]] and epi[0]["bridge_agrees"] is True
    assert epi[1]["report"]["efficient"] is True and epi[2]["report"]["efficient"] is False
    assert all(t["report"]["agrees_with_efficiency"] is True for t in epi[1:3])


_WS = {"dim": 2, "cone": [[1, 0], [0, 1]], "directions": [[-1, 0], [0, -1]]}
_F1 = {
    "variant": "parampoly",
    "xdim": 1,
    "normals": [[-1, 0], [0, -1]],
    "offsets": [[[["1"], "0"]], [[["-1"], "0"]]],
}
_HEYDE_B = {"variant": "builtin", "name": "heyde_b"}

# malformed scenarios; each must exit 1 with a validation error
MALFORMED = {
    "eval_without_x": {
        "workspace": _WS, "functions": {"f": _F1}, "tasks": [{"op": "eval", "function": "f"}],
    },
    "constraint_without_b": {
        "workspace": _WS, "sets": {"A": {"constraints": [{"n": [-1, 0]}]}},
    },
    "parampoly_without_normals": {
        "workspace": _WS,
        "functions": {"f": {"variant": "parampoly", "xdim": 1, "offsets": []}},
    },
    "task_not_an_object": {"tasks": [5]},
    "box_row_one_bound": {"spaces": {"g": {"box": [["0"]]}}},
    "count_not_an_integer": {"tasks": [{"op": "noncommutation", "count": "x"}]},
    "offset_count_mismatch": {
        "workspace": _WS,
        "functions": {"f": dict(_F1, offsets=[[[["1"], "0"]]])},
    },
    "eval_arity": {
        "workspace": _WS,
        "functions": {"f": _F1},
        "tasks": [{"op": "eval", "function": "f", "x": [0, 5, 7]}],
    },
    "derivative_arity": {
        "workspace": _WS,
        "functions": {"f": _F1},
        "tasks": [{"op": "derivative", "function": "f", "x": [0], "u": [1, 2]}],
    },
    "points_not_a_list": {"spaces": {"g": {"points": 5}}},
    "constraints_not_a_list": {"workspace": _WS, "sets": {"A": {"constraints": 5}}},
    "normals_not_a_list": {
        "workspace": _WS,
        "functions": {"f": dict(_F1, normals=5)},
    },
    "inequalities_not_a_list": {
        "workspace": _WS,
        "functions": {"f": _F1},
        "spaces": {"g": {"points": [[0]]}},
        "tasks": [{"op": "check_vi", "function": "f", "base": [0], "space": "g", "inequalities": 5}],
    },
    "plot_sets_not_a_list": {"tasks": [{"op": "plot", "sets": 5}]},
    # 2·10⁹ + 1 points: rejected before any is enumerated
    "box_too_large": {"spaces": {"g": {"box": [["-1000000000", "1000000000"]], "step": "1"}}},
    "unknown_inequality_id": {
        "workspace": _WS,
        "functions": {"f": _F1},
        "spaces": {"g": {"points": [[0]]}},
        "tasks": [{"op": "check_vi", "function": "f", "base": [0], "space": "g", "inequalities": ["nope"]}],
    },
    # 2-D space points against the 1-D builtin heyde_b
    "check_vi_space_arity": {
        "functions": {"b": _HEYDE_B},
        "spaces": {"g": {"points": [[1, 2]]}},
        "tasks": [{"op": "check_vi", "function": "b", "base": [0], "space": "g"}],
    },
    "minimal_scan_space_arity": {
        "functions": {"b": _HEYDE_B},
        "spaces": {"g": {"points": [[1, 2]]}},
        "tasks": [{"op": "minimal_scan", "function": "b", "space": "g"}],
    },
    # normals of the wrong length for the 2-D workspace
    "normal_three_coordinates": {
        "workspace": _WS,
        "functions": {"f": dict(_F1, normals=[[-1, 0, 5], [0, -1]])},
        "tasks": [{"op": "eval", "function": "f", "x": [0]}],
    },
    "normal_one_coordinate": {
        "workspace": _WS,
        "functions": {"f": dict(_F1, normals=[[-1], [0, -1]])},
        "tasks": [{"op": "eval", "function": "f", "x": [0]}],
    },
    # a 2-coefficient offset piece and domain row for xdim 1
    "offset_piece_arity": {
        "workspace": _WS,
        "functions": {"f": dict(_F1, offsets=[[[["1", "2"], "0"]], [[["-1"], "0"]]])},
        "tasks": [{"op": "eval", "function": "f", "x": [0]}],
    },
    "domain_row_arity": {
        "workspace": _WS,
        "functions": {"f": dict(_F1, domain=[[["1", "2"], "3"]])},
        "tasks": [{"op": "eval", "function": "f", "x": [0]}],
    },
    "xdim_not_positive": {
        "workspace": _WS,
        "functions": {"f": dict(_F1, xdim=0, offsets=[[[[], "0"]], [[[], "0"]]])},
    },
    "set_normal_arity": {
        "workspace": _WS,
        "sets": {"A": {"constraints": [{"n": [-1, 0, 5], "b": "0"}]}},
    },
}


def test_cli_exit_codes(tmp_path, capsys):
    # healthy builtin: exit 0
    assert main(["check-vi", "--scenario", "builtin:circle"]) == 0
    # malformed JSON: exit 1
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert main(["check-vi", "--scenario", str(bad)]) == 1
    # structurally broken scenario: exit 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps({"workspace": {"dim": 7}}))
    assert main(["check-vi", "--scenario", str(broken)]) == 1
    negative = tmp_path / "negative.json"
    negative.write_text(json.dumps({"schema": 1, "tolerance": "-1/2", "tasks": []}))
    assert main(["check-vi", "--scenario", str(negative)]) == 1
    missing = tmp_path / "nope.json"
    assert main(["check-vi", "--scenario", str(missing)]) == 1
    for label, doc in MALFORMED.items():
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["check-vi", "--scenario", str(path)]) == 1, label
        err = capsys.readouterr().err
        assert err.startswith("validation error:"), (label, err)
        assert "Traceback" not in err, label


def test_example23_is_not_a_function_builtin(tmp_path, capsys):
    """example23 is a pair of sets: as a function it is refused when the
    scenario is parsed, even if no task uses it, while the builtin scenario
    of that name still runs."""
    path = tmp_path / "pair.json"
    path.write_text(json.dumps({"functions": {"e": {"variant": "builtin", "name": "example23"}}}))
    assert main(["check-vi", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("validation error: bad function 'e'") and "pair of sets" in err, err
    assert main(["check-vi", "--scenario", "builtin:example23"]) == 0


def test_audit_enrich_is_a_json_boolean(tmp_path, capsys):
    """false audits the space as given, true adds the critical parameters of
    each segment (here the kink of -|x| at 0), and any other value is malformed."""
    kink = dict(_F1, offsets=[[[["1"], "0"], [["-1"], "0"]]] * 2)

    def audit_doc(enrich):
        task = {"op": "implication_audit", "function": "f", "base": [-1], "space": "g"}
        return {
            "schema": 1,
            "workspace": _WS,
            "functions": {"f": kink},
            "spaces": {"g": {"points": [[-1], [1]]}},
            "tasks": [dict(task, enrich=enrich)],
        }

    spaces = {}
    for enrich in (False, True):
        path = tmp_path / f"{enrich}.json"
        path.write_text(json.dumps(audit_doc(enrich)))
        audit = task_by_op(run_scenario(load_scenario(str(path))), "implication_audit")[0]
        spaces[enrich] = audit["audit"]["space"]
    assert spaces[False] == [["-1"], ["1"]]
    assert ["0"] in spaces[True] and len(spaces[True]) > 2
    for enrich in ("false", "true", 0, 1, None, [], {}):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(audit_doc(enrich)))
        capsys.readouterr()
        assert main(["check-vi", "--scenario", str(path)]) == 1, enrich
        assert capsys.readouterr().err.startswith("validation error:"), enrich


# one small scenario with cheap tasks; every field of it is dropped or retyped
_FUZZ_DOC = {
    "schema": 1,
    "name": "fuzz",
    "tolerance": "1/1000",
    "workspace": {"dim": 2, "cone": [[1, 0], [0, 1]], "directions": [[-1, -1]]},
    "sets": {
        "A": {"constraints": [{"n": [-1, 0], "b": "1"}, {"n": [0, -1], "b": "0"}]},
        "B": {"tag": "empty"},
    },
    "functions": {
        "f": {
            "variant": "parampoly",
            "xdim": 1,
            "normals": [[-1, 0], [0, -1]],
            "offsets": [[[["1"], "0"], [["-1"], "1"]], [[["-1"], "0"]]],
            # wide enough that a coordinate retyped to 5 stays inside: a base
            # outside the domain is a task error (exit 2), not malformed input
            "domain": [[["1"], "8"], [["-1"], "8"]],
        },
        "psi": {
            "variant": "epivector",
            "xdim": 1,
            "components": [[[["1"], "0"]], [[["-1"], "0"]]],
        },
    },
    "spaces": {"g": {"points": [[0], ["1/2"], [1]]}, "b": {"box": [["0", "1"]], "step": "1/2"}},
    "tasks": [
        {"op": "eval", "function": "f", "x": [0]},
        {"op": "residual", "a": "A", "b": "B"},
        {"op": "check_vi", "function": "f", "base": [0], "space": "g",
         "inequalities": ["svi_I", "MVI_M"]},
        {"op": "minimal_scan", "function": "psi", "space": "b"},
        {"op": "derivative", "function": "f", "x": [0], "u": [1]},
        {"op": "infdir_plus_cone", "direction": [0, -1]},
    ],
}
_DROP = object()


def _fuzz_mutations(node, path=()):
    """(path, replacement) for every field and list entry below node."""
    if isinstance(node, dict):
        entries = node.items()
    elif isinstance(node, list):
        entries = enumerate(node)
    else:
        return
    for key, child in entries:
        for replacement in (_DROP, 5, "x", None, [], {}):
            yield path + (key,), replacement
        yield from _fuzz_mutations(child, path + (key,))


def test_malformed_scenario_fuzz(tmp_path, capsys):
    path = tmp_path / "mutant.json"
    failures = []
    count = 0
    for where, replacement in _fuzz_mutations(_FUZZ_DOC):
        doc = json.loads(json.dumps(_FUZZ_DOC))
        parent = doc
        for key in where[:-1]:
            parent = parent[key]
        if replacement is _DROP:
            del parent[where[-1]]
        else:
            parent[where[-1]] = replacement
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        label = (where, "drop" if replacement is _DROP else replacement)
        try:
            code = main(["check-vi", "--scenario", str(path)])
        except Exception as exc:  # noqa: BLE001 - the fuzz reports any escape
            failures.append((label, repr(exc)))
            continue
        err = capsys.readouterr().err
        if code not in (0, 1) or (code == 1 and not err.startswith("validation error:")):
            failures.append((label, code, err))
        count += 1
    assert not failures, failures
    assert count > 700


@pytest.mark.parametrize("tolerance", ["abc", "1/0", "-1"])
def test_cli_bad_tolerance(tolerance, capsys):
    code = main(["check-vi", "--scenario", "builtin:example23", "--tolerance", tolerance])
    err = capsys.readouterr().err
    assert code == 1
    assert "validation error" in err
    assert "Traceback" not in err


def test_tolerance_reaches_builtin_functions(tmp_path, monkeypatch, capsys):
    doc = {
        "schema": 1,
        "tolerance": "1/10",
        "functions": {
            name: {"variant": "builtin", "name": name}
            for name in ("heyde_b", "circle", "infdir_example")
        },
    }
    path = tmp_path / "tol.json"
    path.write_text(json.dumps(doc))
    scn = load_scenario(str(path))
    assert [f.tolerance for f in scn.functions.values()] == [F(1, 10)] * 3
    assert load_scenario("builtin:circle").functions["f"].tolerance == F(1, 10**6)
    # the --tolerance override is applied before the functions are built
    loaded = []

    def spy(*args):
        loaded.append(load_scenario(*args))
        return loaded[-1]

    monkeypatch.setattr(cli, "load_scenario", spy)
    assert main(["check-vi", "--scenario", "builtin:circle", "--tolerance", "1/10"]) == 0
    assert loaded[0].functions["f"].tolerance == F(1, 10)
    coarse = capsys.readouterr().out
    assert main(["check-vi", "--scenario", "builtin:circle"]) == 0
    # the oracle derivative is only resolved to the tolerance, so its values move
    assert coarse.replace('"1/10"', "") != capsys.readouterr().out.replace('"1/1000000"', "")


def test_cli_report_and_plot_files(tmp_path):
    report = tmp_path / "r.json"
    plot = tmp_path / "p.svg"
    code = main(
        [
            "check-vi",
            "--scenario",
            "builtin:example23",
            "--report",
            str(report),
            "--plot",
            str(plot),
        ]
    )
    assert code == 0
    doc = json.loads(report.read_text())
    assert doc["schema"] == 1 and doc["scenario"] == "example23"
    assert plot.read_text().startswith("<svg")


def test_cli_plot_writes_the_first_plot_task(tmp_path):
    doc = {
        "schema": 1,
        "name": "two_plots",
        "workspace": {"dim": 2, "cone": [[1, 0], [0, 1]]},
        "sets": {
            "A": {"constraints": [{"n": [-1, 0], "b": "1"}, {"n": [0, -1], "b": "0"}]},
            "B": {"constraints": [{"n": [-1, -1], "b": "2"}]},
        },
        "tasks": [{"op": "plot", "sets": ["A"]}, {"op": "plot", "sets": ["B"]}],
    }
    scenario = tmp_path / "two_plots.json"
    scenario.write_text(json.dumps(doc))
    plot = tmp_path / "p.svg"
    assert main(["check-vi", "--scenario", str(scenario), "--plot", str(plot)]) == 0
    first, second = task_by_op(run_scenario(load_scenario(str(scenario))), "plot")
    assert first["svg"] != second["svg"]
    assert plot.read_text() == first["svg"]


@pytest.mark.parametrize("flag, what", [("--report", "report"), ("--plot", "plot")])
def test_cli_write_failure_is_a_validation_error(flag, what, tmp_path, capsys):
    # the scenario runs; writing into a directory that does not exist must fail cleanly
    target = tmp_path / "missing" / "out"
    assert main(["check-vi", "--scenario", "builtin:example23", flag, str(target)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"validation error: cannot write {what}: ") and "Traceback" not in err
    assert not target.parent.exists()


def test_cli_entry_point_subprocess():
    # the child imports the same setlattice as this process, installed or not
    src = os.path.dirname(os.path.dirname(setlattice.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "setlattice.cli", "check-vi", "--scenario", "builtin:heyde_b"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert '"scenario": "heyde_b"' in proc.stdout


def test_lattice_eval():
    assert main(["lattice-eval", "--expr", "inf(T(1,0), T(0,1)) / C"]) == 0
    assert main(["lattice-eval", "--expr", "leq(C, T(1,2))"]) == 0
    assert main(["lattice-eval", "--expr", "T(1,0)", "--cone", '[["1/2",1],[0,1]]']) == 0
    assert main(["lattice-eval", "--expr", "import os"]) == 1
    assert main(["lattice-eval", "--expr", "__import__('os')"]) == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["--expr", "rec(1, 2)"],
        ["--expr", "H()"],
        ["--expr", "scale(T(1,0), 2)"],
        ["--expr", "leq(1, 2)"],
        ["--expr", "inf(1)"],
        ["--expr", "T(1,0) + 2"],
        ["--expr", "C / 0"],
        ["--expr", "2 * 3"],
        ["--expr", "T(C)"],
        ["--expr", "T(1)"],  # one coordinate in 2-D
        ["--expr", "sigma(T(1,0))"],  # no direction
        ["--expr", "sigma(C)"],
        ["--expr", "T(1, 0, x=2)"],
        ["--expr", "C", "--cone", "5"],
        ["--expr", "C", "--directions", "5"],
        ["--expr", "C", "--cone", '[[1,"a"]]'],
        ["--expr", "C", "--cone", "[[1,0,0]]"],
        ["--expr", "C", "--cone", "[[0.1,1]]"],  # rationals are written "1/10"
    ],
)
def test_lattice_eval_rejects_bad_input(argv, capsys):
    assert main(["lattice-eval", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("validation error:")


def test_lattice_eval_value(capsys):
    main(["lattice-eval", "--expr", "rec(T(3,4))"])
    out = json.loads(capsys.readouterr().out.strip())
    assert out["constraints"] == [{"n": [-1, 0], "b": "0"}, {"n": [0, -1], "b": "0"}]
    main(["lattice-eval", "--expr", "sigma(-1, 0, T(1, 2))"])
    out2 = json.loads(capsys.readouterr().out.strip())
    assert out2 == {"t": "fin", "n": "-1", "d": "1"}
