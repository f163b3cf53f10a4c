"""Command-line front end: `check-vi` runs scenarios and writes reports,
`lattice-eval` evaluates ad-hoc expressions in the set lattice."""

from __future__ import annotations

import argparse
import ast
import functools
import json
import sys
from fractions import Fraction

from .kernel import LatticeError, UpperSet, Workspace, inf_family, sup_family
from .scenario import (
    TaskError,
    ValidationError,
    _list,
    _vec,
    load_scenario,
    parse_tolerance,
    run_scenario,
)


def _write(path: str, text: str, what: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {what}: {exc}") from exc


def _cmd_check_vi(args) -> int:
    try:
        tol = None if args.tolerance is None else parse_tolerance(args.tolerance)
        report = run_scenario(load_scenario(args.scenario, tol))
        payload = report.dumps()
        if args.report:
            _write(args.report, payload, "report")
        if args.plot:
            svg = next((t.get("svg") for t in report.tasks if t.get("op") == "plot"), None)
            if svg is not None:
                _write(args.plot, svg, "plot")
            else:
                print("no plot task in scenario", file=sys.stderr)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    except (TaskError, LatticeError) as exc:
        print(f"task error: {exc}", file=sys.stderr)
        return 2
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

# argument kinds ("n" a number, "N" one per coordinate, "s" a set, "s*" any
# number of sets) and value of each call
_CALLS = {
    "T": ("N", lambda ws, a: ws.translated_cone(a)),  # translated cone T(1, 2)
    "point": ("N", lambda ws, a: ws.translated_cone(a)),  # singleton (needs C = {0})
    "H": ("Nn", lambda ws, a: ws.upper_set([(tuple(a[:-1]), a[-1])])),  # H(n1, n2, offset)
    "inf": ("s*", inf_family),
    "sup": ("s*", sup_family),
    "rec": ("s", lambda ws, a: a[0].recession()),  # recession cone
    "scale": ("ns", lambda ws, a: a[1].scale(a[0])),
    "sigma": ("Ns", lambda ws, a: a[-1].support(tuple(a[:-1]))),  # sigma(d1, d2, A)
    "leq": ("ss", lambda ws, a: a[0].leq(a[1])),
}


def _kind(value) -> str:
    """'n' for a number, 's' for a set, '?' for a truth or support value."""
    return "n" if isinstance(value, Fraction) else "s" if isinstance(value, UpperSet) else "?"


def _signature(kinds: str) -> str:
    names = {"n": "number", "s": "set"}
    return "(" + ", ".join(names.get(k, "truth or support value") for k in kinds) + ")"


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
            kinds = _kind(left) + _kind(right)
            if isinstance(node.op, ast.Add) and kinds == "ss":
                return left.add(right)
            if isinstance(node.op, ast.Div) and kinds == "ss":
                return left.residual(right)
            if isinstance(node.op, ast.Mult) and kinds in ("ns", "sn"):
                t, a = (left, right) if kinds == "ns" else (right, left)
                return a.scale(t)
            raise ValidationError(
                f"operator not supported on {_signature(kinds)}: "
                "+ and / take two sets, * a number and a set"
            )
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
            if not isinstance(node.func, ast.Name) or node.func.id not in _CALLS:
                raise ValidationError("unknown function in expression")
            if node.keywords:
                raise ValidationError("keyword arguments are not supported")
            args = [self.visit(a) for a in node.args]
            want, call = _CALLS[node.func.id]
            want = "s" * len(args) if want == "s*" else want.replace("N", "n" * self.ws.dim)
            got = "".join(map(_kind, args))
            if got != want:
                raise ValidationError(
                    f"{node.func.id} takes {_signature(want)}, got {_signature(got)}"
                )
            return call(self.ws, args)
        raise ValidationError(f"unsupported syntax {type(node).__name__}")


def _points(text: str, dim: int, what: str) -> list:
    """A JSON list of points of dim rationals, written as in a scenario file."""
    try:
        points = [_vec(p) for p in _list(json.loads(text), what)]
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what}: {exc}") from exc
    if any(len(p) != dim for p in points):
        raise ValidationError(f"{what} must hold points of {dim} coordinates")
    return points


def _cmd_lattice_eval(args) -> int:
    try:
        cone = _points(args.cone, args.dim, "--cone")
        dirs = _points(args.directions, args.dim, "--directions") if args.directions else []
        ws = Workspace(args.dim, cone, dirs)
        value = _Evaluator(ws).run(args.expr)
    except (ValidationError, LatticeError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 1
    if isinstance(value, (bool, Fraction)):
        print(json.dumps(value if isinstance(value, bool) else str(value)))
    else:  # a set or a support value
        print(json.dumps(value.to_json(), sort_keys=True))
    return 0


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call: a parse leaves it as it was."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
