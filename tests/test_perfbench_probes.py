"""The benchmark tracer must find every name it probes.

``perfbench/tracer.py`` wraps public functions and methods by name; a probe
that finds nothing raises ``ProbeError`` and fails every ``--trace 1`` run.
This test installs the tracer in a child process, so a refactor that moves
or renames a probed name fails here too.
"""

import os
import subprocess
import sys
from pathlib import Path

import setlattice

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

CHILD = """
import importlib, pkgutil, sys
import setlattice
for mod in pkgutil.iter_modules(setlattice.__path__):
    importlib.import_module("setlattice." + mod.name)
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
Tracer().install()
"""


def test_tracer_binds_every_probe():
    src = os.path.dirname(os.path.dirname(setlattice.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(PERFBENCH)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    assert "ProbeError" not in proc.stderr
