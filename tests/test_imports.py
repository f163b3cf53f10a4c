"""Every module of the package reads each name it imports.

An import that nothing reads is left over from code that moved away.  The
check parses each module with the standard library's ``ast`` and compares
the names its imports bind with the names it reads; a module's ``__all__``
counts as reading the names it lists.  A deliberate re-export that no code
of its own module reads is named in ``REEXPORTS``.
"""

import ast
from pathlib import Path

import setlattice

PACKAGE = Path(setlattice.__file__).resolve().parent

# (module, name): imported for the importers of the module
REEXPORTS = {
    ("setfun", "ArityMismatch"),  # the arity errors of set functions
    ("vectoropt", "VectorFunction"),  # the interface of psi
}


def _imported(tree: ast.Module) -> dict:
    """The names the module's imports bind, with the line of each."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    return bound


def _read(tree: ast.Module) -> set:
    """The names the module reads, and the strings of its ``__all__``."""
    names = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(path: Path) -> list:
    """(line, name) of every imported name the module never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = _read(tree)
    return sorted(
        (line, name)
        for name, line in _imported(tree).items()
        if name not in read and (path.stem, name) not in REEXPORTS
    )


def test_every_import_is_read():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    unused = {p.name: found for p in modules if (found := unused_imports(p))}
    assert not unused, unused


def test_every_reexport_is_imported():
    """The allowlist holds no name its module no longer imports."""
    for module, name in REEXPORTS:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        assert name in _imported(tree), (module, name)


def test_a_leftover_import_is_caught(tmp_path):
    source = (
        "from .calculus import _ray, segment_criticals\n"
        "from .vi import run_checker\n"
        "\n"
        "_ray()\n"
    )
    path = tmp_path / "vectoropt.py"
    path.write_text(source, encoding="utf-8")
    assert unused_imports(path) == [(1, "segment_criticals"), (2, "run_checker")]
