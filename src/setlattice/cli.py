"""Command-line front end: `check-vi` runs scenarios and writes reports,
`lattice-eval` evaluates ad-hoc expressions in the set lattice."""

from __future__ import annotations

import argparse
import ast
import json
import sys
from fractions import Fraction

from .kernel import LatticeError, UpperSet, Workspace, inf_family, sup_family
from .scenario import (
    TaskError,
    ValidationError,
    load_scenario,
    parse_tolerance,
    run_scenario,
)


def _cmd_check_vi(args) -> int:
    try:
        tol = None if args.tolerance is None else parse_tolerance(args.tolerance)
        report = run_scenario(load_scenario(args.scenario, tol))
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (TaskError, LatticeError) as exc:
        print(f"task error: {exc}", file=sys.stderr)
        return 2
    payload = report.dumps()
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(payload)
    if args.plot:
        svg = None
        for task in report.tasks:
            if task.get("op") == "plot":
                svg = task.get("svg")
        if svg is not None:
            with open(args.plot, "w", encoding="utf-8") as fh:
                fh.write(svg)
        else:
            print("no plot task in scenario", file=sys.stderr)
    summary = {
        "scenario": report.scenario,
        "tasks": len(report.tasks),
        "hard_failures": report.hard_failures,
    }
    print(json.dumps(summary, sort_keys=True))
    for task in report.tasks:
        if "matrix" in task:
            print(task["matrix"])
    if not args.report:
        print(payload, end="")
    return 2 if report.hard_failures else 0


# -- lattice-eval -----------------------------------------------------------

_ALLOWED_CALLS = {
    "T",       # translated cone T(1, 2)
    "point",   # singleton (needs C = {0})
    "H",       # halfspace H(n1, n2, offset)
    "inf",
    "sup",
    "rec",     # recession cone
    "scale",
    "sigma",   # support value sigma(d1, d2, A)
    "leq",
}


class _Evaluator(ast.NodeVisitor):
    def __init__(self, ws: Workspace):
        self.ws = ws

    def run(self, text: str):
        try:
            tree = ast.parse(text, mode="eval")
        except SyntaxError as exc:
            raise ValidationError(f"bad expression: {exc}") from exc
        return self.visit(tree.body)

    def visit(self, node):  # noqa: A003
        if isinstance(node, ast.Expression):
            return self.visit(node.body)
        if isinstance(node, ast.BinOp):
            left = self.visit(node.left)
            right = self.visit(node.right)
            if isinstance(node.op, ast.Add):
                return left.add(right)
            if isinstance(node.op, ast.Div):
                return left.residual(right)
            if isinstance(node.op, ast.Mult):
                if isinstance(left, Fraction):
                    return right.scale(left)
                if isinstance(right, Fraction):
                    return left.scale(right)
            raise ValidationError("operator not supported in set expressions")
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
            v = self.visit(node.operand)
            if isinstance(v, Fraction):
                return -v
            raise ValidationError("cannot negate a set")
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, int):
                raise ValidationError("only integer literals are allowed")
            return Fraction(node.value)
        if isinstance(node, ast.Name):
            if node.id == "C":
                return self.ws.cone_set()
            if node.id == "Z":
                return self.ws.whole_space()
            if node.id == "E":
                return self.ws.empty_set()
            raise ValidationError(f"unknown name {node.id!r}")
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _ALLOWED_CALLS:
                raise ValidationError("unknown function in expression")
            name = node.func.id
            args = [self.visit(a) for a in node.args]
            return self._call(name, args)
        raise ValidationError(f"unsupported syntax {type(node).__name__}")

    def _call(self, name, args):
        if name == "T":
            return self.ws.translated_cone(args)
        if name == "point":
            return self.ws.translated_cone(args)
        if name == "H":
            *normal, offset = args
            return self.ws.upper_set([(tuple(normal), offset)])
        if name == "inf":
            return inf_family(self.ws, args)
        if name == "sup":
            return sup_family(self.ws, args)
        if name == "rec":
            (a,) = args
            return a.recession()
        if name == "scale":
            t, a = args
            return a.scale(t)
        if name == "sigma":
            *d, a = args
            return a.support(tuple(d))
        if name == "leq":
            a, b = args
            return a.leq(b)
        raise ValidationError(f"unknown call {name!r}")


def _cmd_lattice_eval(args) -> int:
    try:
        cone = json.loads(args.cone)
        dirs = json.loads(args.directions) if args.directions else []
        ws = Workspace(args.dim, cone, dirs)
        value = _Evaluator(ws).run(args.expr)
    except (ValidationError, LatticeError, json.JSONDecodeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    if isinstance(value, UpperSet):
        print(json.dumps(value.to_json(), sort_keys=True))
    elif isinstance(value, bool):
        print(json.dumps(value))
    elif isinstance(value, Fraction):
        print(json.dumps(str(value)))
    else:
        print(json.dumps(value.to_json(), sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="setlattice",
        description="Exact set-lattice calculus and variational-inequality checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check-vi", help="run a scenario and emit a report")
    p_check.add_argument("--scenario", required=True, help="path or builtin:<name>")
    p_check.add_argument("--report", help="write the JSON report here")
    p_check.add_argument("--plot", help="write the first plot task's SVG here")
    p_check.add_argument("--tolerance", help="rational tolerance override, e.g. 1/1000000")
    p_check.set_defaults(func=_cmd_check_vi)

    p_eval = sub.add_parser("lattice-eval", help="evaluate a set expression")
    p_eval.add_argument("--expr", required=True, help="e.g. 'inf(T(1,0), T(0,1)) / C'")
    p_eval.add_argument("--dim", type=int, default=2)
    p_eval.add_argument("--cone", default="[[1,0],[0,1]]", help="cone generators as JSON")
    p_eval.add_argument("--directions", help="extra dual directions as JSON")
    p_eval.set_defaults(func=_cmd_lattice_eval)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
