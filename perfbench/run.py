#!/usr/bin/env python3
"""setlattice benchmark: seeded workloads, end-to-end metrics, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 40 --trace 0

``--trace 0`` times items for ``--seconds`` with no tracing and reports the
end-to-end metrics.  ``--trace 1`` runs a fixed number of items (set by the
workload and ``--seconds``) twice, untraced and then traced, and reports
per-layer call counts and self-time shares plus the tracing overhead.  Every
item's output is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--record-expected`` recomputes ``perfbench/expected.json`` (the digests the
checks compare against, and the audit growth plan) from the current code and
exits.  See ``DESIGN.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
EXPECTED = os.path.join(HERE, "expected.json")

sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads as wl  # noqa: E402

MODULES = ("extres", "kernel", "setfun", "calculus", "vi", "vectoropt", "instances", "scenario", "cli")
SETUP_REPEATS = 3
MIN_ITEMS = 100  # item_p90_ms then has at least ten samples above it
REFERENCE_SEED = 0
AUDIT_REFERENCE_ITEMS = 12


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    check: Callable
    # inputs built in set-up; a run that gets through them all starts over,
    # with fresh function objects
    pool: int
    # items per second of --seconds in a traced run (run untraced, then traced)
    trace_per_s: float


WORKLOADS = {
    "audit": Workload(wl.audit_inputs, wl.audit_run, wl.audit_check, 300, 2.0),
    "lattice": Workload(wl.lattice_inputs, wl.lattice_run, wl.lattice_check, 600, 60.0),
    "scenarios": Workload(wl.scenarios_inputs, wl.scenarios_run, wl.scenarios_check, 240, 3.0),
}


def load_library():
    """Import setlattice afresh, so that every set-up repeat pays the import."""
    for name in [n for n in sys.modules if n == "setlattice" or n.startswith("setlattice.")]:
        del sys.modules[name]
    importlib.import_module("setlattice")
    return {name: importlib.import_module(f"setlattice.{name}") for name in MODULES}


def seeded_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


def set_up(name: str, seed: int, count: int, work_dir: str, expected):
    """Import and build inputs SETUP_REPEATS times; keep the last, report the median."""
    times = []
    for rep in range(SETUP_REPEATS):
        shutil.rmtree(work_dir, ignore_errors=True)
        gc.collect()
        start = perf_counter()
        lib = load_library()
        inputs = WORKLOADS[name].inputs(lib, seeded_rng(name, seed), count, work_dir, expected)
        times.append(perf_counter() - start)
    return lib, inputs, statistics.median(times)


class Loop:
    """Runs items one after another and records each item's time and verdict."""

    def __init__(self, name, lib, expected, tracer=None):
        self.work = WORKLOADS[name]
        self.lib = lib
        self.expected = expected
        self.tracer = tracer
        self.times = []
        self.failed = 0

    def item(self, spec):
        work = self.work
        if self.tracer is not None:
            self.tracer.begin_item(len(self.times))
        ok = True
        start = perf_counter()
        try:
            result = work.run(self.lib, spec)
        except Exception:  # an item that raises is a failed item, never retried
            ok = False
            traceback.print_exc(file=sys.stderr)
        self.times.append(perf_counter() - start)
        if ok:
            try:
                ok = work.check(spec, result, self.expected)
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
        if not ok:
            self.failed += 1
            print(f"failed item {len(self.times) - 1}: {spec!r:.200}", file=sys.stderr)

    def for_seconds(self, inputs, seconds):
        start = perf_counter()
        i = 0
        while perf_counter() - start < seconds or i < MIN_ITEMS:
            self.item(inputs[i % len(inputs)])
            i += 1
        return perf_counter() - start

    def over(self, inputs):
        start = perf_counter()
        for spec in inputs:
            self.item(spec)
        return perf_counter() - start


def audit_reference(lib, expected, work_dir):
    """Audit the first items of the reference seed and compare their digests."""
    specs = wl.audit_inputs(
        lib, seeded_rng("audit", REFERENCE_SEED), AUDIT_REFERENCE_ITEMS, work_dir, expected
    )
    failed = 0
    for spec, digest in zip(specs, expected["audit_sha256"]):
        try:
            ok = wl.audit_digest(wl.audit_run(lib, spec)) == digest
        except Exception:
            ok = False
            traceback.print_exc(file=sys.stderr)
        if not ok:
            failed += 1
            print(f"reference audit mismatch: {spec!r:.200}", file=sys.stderr)
    return len(specs), failed


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(name, lib, inputs, setup_s, seconds, expected, work_dir):
    loop = Loop(name, lib, expected)
    wall = loop.for_seconds(inputs, seconds)
    attempted, failed = len(loop.times), loop.failed
    if name == "audit":
        ref_attempted, ref_failed = audit_reference(lib, expected, work_dir)
        attempted += ref_attempted
        failed += ref_failed
    deciles = statistics.quantiles(loop.times, n=10)
    metrics = {
        "items_per_s": metric(len(loop.times) / wall, "1/s"),
        "item_p50_ms": metric(statistics.median(loop.times) * 1e3, "ms"),
        "item_p90_ms": metric(deciles[8] * 1e3, "ms"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": metric((attempted - failed) / attempted, "frac"),
    }
    print(
        f"{name}: {len(loop.times)} timed items in {wall:.2f} s; "
        f"{attempted} checked, {failed} failed",
        file=sys.stderr,
    )
    return attempted, failed, metrics


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(name, seed, lib, inputs, seconds, expected):
    count = max(1, math.ceil(WORKLOADS[name].trace_per_s * seconds))
    items = [inputs[i % len(inputs)] for i in range(count)]
    plain = Loop(name, lib, expected)
    plain_wall = plain.over(items)
    tracer = tracing.Tracer()
    tracer.install()
    traced = Loop(name, lib, expected, tracer)
    traced_wall = traced.over(items)
    tracer.finish()

    layers = tracer.layer_stats()
    keys = tracer.key_stats()
    metrics = {}
    for probe, (calls, self_s) in layers.items():
        if probe != "cli.main":
            metrics[f"{probe}.calls"] = metric(calls, "count")
        metrics[f"{probe}.self_frac"] = metric(self_s / traced_wall, "frac")

    def calls(probe):
        return layers[probe][0]

    for probe in ("setfun.ray_restrict", "calculus.scalar_dini", "calculus.set_derivative"):
        metrics[f"{probe}.distinct_ratio"] = metric(ratio(keys[probe], calls(probe)), "ratio")
    evals = calls("setfun.eval")
    metrics.update(
        {
            "kernel.vrep_per_canon": metric(
                ratio(calls("geom.vrep_from_hrep"), calls(tracing.CANON)), "ratio"
            ),
            "setfun.eval.hit_ratio": metric(
                1 - ratio(keys["setfun.eval"], evals) if evals else 0.0, "ratio"
            ),
            "vi.space_growth": metric(ratio(tracer.space_out, tracer.space_in), "ratio"),
            "scenario.report_bytes": metric(tracer.report_bytes, "bytes"),
            "trace.overhead_frac": metric(traced_wall / plain_wall - 1, "frac"),
            "trace.wall_s": metric(traced_wall, "s"),
        }
    )
    os.makedirs(OUT_ROOT, exist_ok=True)
    span_file = os.path.join(OUT_ROOT, f"spans-{name}-seed{seed}.jsonl.gz")
    tracer.write(span_file)
    print(
        f"{name}: {count} items untraced {plain_wall:.2f} s, traced {traced_wall:.2f} s; "
        f"{len(tracer.spans)} spans in {span_file}",
        file=sys.stderr,
    )
    attempted = len(plain.times) + len(traced.times)
    return attempted, plain.failed + traced.failed, metrics


def record_expected(work_dir):
    lib = load_library()
    plan = wl.audit_growth_plan(lib, WORKLOADS["audit"].pool)
    specs = wl.audit_inputs(
        lib,
        seeded_rng("audit", REFERENCE_SEED),
        AUDIT_REFERENCE_ITEMS,
        work_dir,
        {"audit_growth_plan": plan},
    )
    audit = [wl.audit_digest(wl.audit_run(lib, spec)) for spec in specs]
    scenarios = {}
    for name in wl.BUILTINS:
        item = wl.ScenarioItem(name, f"builtin:{name}", os.path.join(work_dir, f"{name}.json"), True)
        os.makedirs(work_dir, exist_ok=True)
        if wl.scenarios_run(lib, item) != 0:
            raise SystemExit(f"builtin scenario {name} did not exit 0")
        with open(item.report, "r", encoding="utf-8") as fh:
            scenarios[name] = wl.tasks_digest(json.load(fh))
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "reference_seed": REFERENCE_SEED,
                "audit_growth_plan": plan,
                "audit_sha256": audit,
                "scenario_tasks_sha256": scenarios,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "setlattice", "__init__.py")):
        print(f"setlattice sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        if args.record_expected:
            record_expected(work_dir)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        with open(EXPECTED, "r", encoding="utf-8") as fh:
            expected = json.load(fh)
        work = WORKLOADS[args.workload]
        lib, inputs, setup_s = set_up(args.workload, args.seed, work.pool, work_dir, expected)
        if args.trace:
            attempted, failed, metrics = per_layer(
                args.workload, args.seed, lib, inputs, args.seconds, expected
            )
        else:
            attempted, failed, metrics = end_to_end(
                args.workload, lib, inputs, setup_s, args.seconds, expected, work_dir
            )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    for key, m in metrics.items():
        print(f"{key:<48} {m['value']:>16.6g} {m['unit']}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
