"""Spans around the public names of each setlattice module, installed from outside.

The tracer never edits the program's source: it replaces every binding of
each probed name (module attributes, including names other modules imported
with ``from ... import``, and methods on the classes that define them) with a
wrapper that records a span.  A span is ``(probe, start, end, parent, item)``;
spans stay in memory and are written out once, when the run ends.

A probe that finds nothing to wrap raises ``ProbeError``, so a refactor that
moves or renames a public name makes the traced run fail instead of silently
reporting zero time for that layer.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from time import perf_counter


class ProbeError(RuntimeError):
    pass


# (metric prefix, home modules, attribute).  Functions are wrapped at every
# module attribute that is the same object as the home module's attribute;
# geometry lives in ``_geom_py`` and is re-exported by ``backend`` while that
# module exists.
FUNCTION_PROBES = [
    ("geom.vrep_from_hrep", ("backend", "_geom_py"), "vrep_from_hrep"),
    ("geom.hrep_from_vrep", ("backend", "_geom_py"), "hrep_from_vrep"),
    ("geom.vrep_inside_hrep", ("backend", "_geom_py"), "vrep_inside_hrep"),
    ("kernel.inf_family", ("kernel",), "inf_family"),
    ("kernel.sup_family", ("kernel",), "sup_family"),
    ("setfun.inf_translate", ("setfun",), "inf_translate"),
    ("calculus.set_derivative", ("calculus",), "set_derivative"),
    ("calculus.scalar_dini", ("calculus",), "scalar_dini"),
    ("calculus.regularity_check", ("calculus",), "regularity_check"),
    ("calculus.segment_criticals", ("calculus",), "segment_criticals"),
    (
        "calculus.scalarized_derivative_intersection",
        ("calculus",),
        "scalarized_derivative_intersection",
    ),
    ("vi.implication_audit", ("vi",), "implication_audit"),
    ("vi.run_checker", ("vi",), "run_checker"),
    ("vi.enrich_space", ("vi",), "enrich_space"),
    ("vi.enrich_directions", ("vi",), "enrich_directions"),
    ("vi.minimal_check", ("vi",), "minimal_check"),
    ("vi.infimum_at_point_check", ("vi",), "infimum_at_point_check"),
    ("vi.infimizer_check", ("vi",), "infimizer_check"),
    ("vectoropt.epigraphical", ("vectoropt",), "epigraphical"),
    ("vectoropt.efficient_set", ("vectoropt",), "efficient_set"),
    (
        "vectoropt.efficiency_minimality_bridge",
        ("vectoropt",),
        "efficiency_minimality_bridge",
    ),
    ("vectoropt.vector_minty_check", ("vectoropt",), "vector_minty_check"),
    ("vectoropt.vector_dini", ("vectoropt",), "vector_dini"),
    ("scenario.load_scenario", ("scenario",), "load_scenario"),
    ("scenario.run_task", ("scenario",), "run_task"),
    ("cli.main", ("cli",), "main"),
]

# (metric prefix, module, class, attribute).  The method is wrapped on the
# class and on every subclass that overrides it.
METHOD_PROBES = [
    ("kernel.upper_set", "kernel", "Workspace", "upper_set"),
    ("kernel.support", "kernel", "UpperSet", "support"),
    ("kernel.add", "kernel", "UpperSet", "add"),
    ("kernel.residual", "kernel", "UpperSet", "residual"),
    ("kernel.scale", "kernel", "UpperSet", "scale"),
    ("kernel.leq", "kernel", "UpperSet", "leq"),
    ("kernel.recession", "kernel", "UpperSet", "recession"),
    ("setfun.eval", "setfun", "SetFunction", "eval"),
    ("setfun.ray_restrict", "setfun", "SetFunction", "ray_restrict"),
    ("setfun.restrict", "setfun", "SetFunction", "restrict"),
]

# Canonicalisations: UpperSet built from a facet system, or from generators.
CANON = "kernel.canon"

# Probes whose argument tuples are hashed per item, for distinct/hit ratios.
KEYED = {
    "setfun.eval",
    "setfun.ray_restrict",
    "calculus.scalar_dini",
    "calculus.set_derivative",
}

PROBE_NAMES = [p[0] for p in FUNCTION_PROBES] + [p[0] for p in METHOD_PROBES] + [CANON]


def _freeze(value):
    """A hashable stand-in for an argument, compared by value where possible."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    try:
        hash(value)
    except TypeError:
        return ("id", id(value))
    return value


class Tracer:
    def __init__(self):
        self.names = list(PROBE_NAMES)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.spans = []
        self.stack = []
        self.item = -1
        self.seen = {name: set() for name in KEYED}
        self.distinct = dict.fromkeys(KEYED, 0)
        self.space_in = 0
        self.space_out = 0
        self.report_bytes = 0

    # -- items ------------------------------------------------------------

    def begin_item(self, item: int):
        """Argument keys are per item: each item starts with fresh objects."""
        self.item = item
        for name, keys in self.seen.items():
            self.distinct[name] += len(keys)
            keys.clear()

    def finish(self):
        self.begin_item(-1)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, keyed: bool = False, after=None):
        probe = self.index[name]
        spans = self.spans
        stack = self.stack
        seen = self.seen.get(name) if keyed else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            if seen is not None:
                seen.add((_freeze(args), _freeze(sorted(kwargs.items()))))
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (probe, start, end, parent, self.item)
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _after_enrich_space(self, args, kwargs, result):
        space = args[2] if len(args) > 2 else kwargs["space"]
        self.space_in += len(space)
        self.space_out += len(result)

    def _count_report_bytes(self, fn):
        @functools.wraps(fn)
        def dumps(*args, **kwargs):
            text = fn(*args, **kwargs)
            self.report_bytes += len(text.encode("utf-8"))
            return text

        return dumps

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every probe in the setlattice modules loaded in ``sys.modules``."""
        modules = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == "setlattice" or name.startswith("setlattice."))
        ]
        after = {"vi.enrich_space": self._after_enrich_space}
        for name, homes, attr in FUNCTION_PROBES:
            originals = []
            for home in homes:
                mod = _module(home)
                if mod is not None and hasattr(mod, attr):
                    obj = getattr(mod, attr)
                    if obj not in originals:
                        originals.append(obj)
            bound = 0
            for orig in originals:
                wrapper = self._span(name, orig, name in KEYED, after.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)
                            bound += 1
            if not bound:
                raise ProbeError(f"probe {name}: nothing named {attr!r} to wrap")
        for name, home, cls_name, attr in METHOD_PROBES:
            base = getattr(_module(home), cls_name, None)
            if base is None:
                raise ProbeError(f"probe {name}: no class {home}.{cls_name}")
            classes = [c for c in _classes(modules) if issubclass(c, base) and attr in vars(c)]
            if not classes:
                raise ProbeError(f"probe {name}: no class defines {attr!r}")
            for cls in classes:
                setattr(cls, attr, self._span(name, vars(cls)[attr], name in KEYED))
        self._install_canon(_module("kernel"))
        report = getattr(_module("scenario"), "Report", None)
        if report is None or "dumps" not in vars(report):
            raise ProbeError("probe scenario.report_bytes: no Report.dumps")
        report.dumps = self._count_report_bytes(report.dumps)

    def _install_canon(self, kernel):
        cls = getattr(kernel, "UpperSet", None)
        gen = vars(cls).get("_from_generators") if cls is not None else None
        if cls is None or not isinstance(gen, classmethod):
            raise ProbeError(f"probe {CANON}: no UpperSet._from_generators")
        init = cls.__init__
        traced_init = self._span(CANON, init)

        @functools.wraps(init)
        def __init__(self_, workspace, facets=None):
            if facets is None:
                init(self_, workspace)
            else:
                traced_init(self_, workspace, facets)

        cls.__init__ = __init__
        cls._from_generators = classmethod(self._span(CANON, gen.__func__))

    # -- results ----------------------------------------------------------

    def layer_stats(self):
        """Per probe: call count and self time (span minus its child spans)."""
        child = [0.0] * len(self.spans)
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for probe, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for idx, (probe, start, end, _, _) in enumerate(self.spans):
            calls[probe] += 1
            self_s[probe] += end - start - child[idx]
        return {name: (calls[i], self_s[i]) for i, name in enumerate(self.names)}

    def key_stats(self):
        """Per keyed probe: distinct argument tuples per item, summed."""
        return dict(self.distinct)

    def write(self, path):
        """All spans as gzip JSON lines: a header with the probe names, then one
        ``[probe, start, end, parent, item]`` row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"probes": self.names}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _module(name):
    return sys.modules.get(f"setlattice.{name}")


def _classes(modules):
    seen = {}
    for mod in modules:
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__.startswith("setlattice"):
                seen[id(value)] = value
    return list(seen.values())
