import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import setlattice
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


_WS = {"dim": 2, "cone": [[1, 0], [0, 1]], "directions": [[-1, 0], [0, -1]]}
_F1 = {
    "variant": "parampoly",
    "xdim": 1,
    "normals": [[-1, 0], [0, -1]],
    "offsets": [[[["1"], "0"]], [[["-1"], "0"]]],
}

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


@pytest.mark.parametrize("tolerance", ["abc", "1/0", "-1"])
def test_cli_bad_tolerance(tolerance, capsys):
    code = main(["check-vi", "--scenario", "builtin:example23", "--tolerance", tolerance])
    err = capsys.readouterr().err
    assert code == 1
    assert "validation error" in err
    assert "Traceback" not in err


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
    assert main(["lattice-eval", "--expr", "import os"]) == 1
    assert main(["lattice-eval", "--expr", "__import__('os')"]) == 1


def test_lattice_eval_value(capsys):
    main(["lattice-eval", "--expr", "rec(T(3,4))"])
    out = json.loads(capsys.readouterr().out.strip())
    assert out["constraints"] == [{"n": [-1, 0], "b": "0"}, {"n": [0, -1], "b": "0"}]
    main(["lattice-eval", "--expr", "sigma(-1, 0, T(1, 2))"])
    out2 = json.loads(capsys.readouterr().out.strip())
    assert out2 == {"t": "fin", "n": "-1", "d": "1"}
