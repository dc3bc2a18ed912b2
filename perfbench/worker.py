"""One pass of one workload, in a fresh interpreter with a fresh store.

Usage::

    python -m perfbench.worker MODE WORKLOAD SEED STORE_DIR OUT_JSON

``MODE`` is

``setup``
    import ``repro``, resolve the specs, open the store, start the first
    experiment and stop at its first cell; writes the wall-clock instant
    the first cell was reached (the parent subtracts its spawn instant).
``cold``
    run the workload untraced against the empty store.
``traced``
    run it with every layer wrapped (:mod:`perfbench.layers`), write the
    spans next to ``OUT_JSON``, then re-run it untraced against the now
    filled store (the warm read pass).

The parent (``run.py``) starts every worker, so each pass is cold: new
process, new in-process caches, new store directory.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
import traceback
from contextlib import nullcontext

from perfbench import checks
from perfbench.workloads import PRESET, WORKLOADS


class _FirstCell(Exception):
    """Raised from the event sink to stop a setup pass at its first cell."""


def _plan(workload: str, seed: int) -> list[dict]:
    from repro.runner.registry import get_experiment

    plan = []
    for name in WORKLOADS[workload]:
        exp = get_experiment(name)
        overrides = {"seed": seed} if "seed" in exp.accepted_params() else {}
        spec = exp.spec(PRESET, overrides)
        plan.append({
            "experiment": name,
            "overrides": overrides,
            "params": spec.kwargs,
            "cells": [cell.name for cell in exp.cells(spec)],
        })
    return plan


def _provenance(plan: list[dict], seed: int) -> dict:
    import numpy
    import scipy

    import repro

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "repro_file": repro.__file__,
        "preset": PRESET,
        "params": {p["experiment"]: p["params"] for p in plan},
    }


class _Recorder:
    """Event sink + ``SimStats.summary`` hook: who produced which output.

    It also adds up the work counted at layer boundaries: packets injected
    and delivered by every simulation, and messages generated by motifs.
    """

    def __init__(self, stop_at_first_cell: bool = False) -> None:
        self.stop = stop_at_first_cell
        self.current: str | None = None
        self.rows: dict[str, list[dict]] = {}
        self.summaries: list[tuple[str | None, bool, int]] = []
        self.first_cell_unix: float | None = None
        self.delivered = 0
        self.injected = 0
        self.messages = 0

    def __call__(self, event: dict) -> None:
        if event["type"] == "cell-start":
            if self.first_cell_unix is None:
                self.first_cell_unix = time.time()
            if self.stop:
                raise _FirstCell
            self.current = event["cell"]
        elif event["type"] == "cell-result":
            self.rows[event["cell"]] = event["rows"]

    def on_summary(self, stats, summary: dict) -> None:
        """Record one simulation's outcome.

        The engines set ``stats.undelivered`` only when finite buffers
        wedge, so it reads 0 on a lossless run that lost packets.  The
        count here is the engines' own: injected minus delivered minus
        dropped.
        """
        delivered = int(summary["delivered"])
        undelivered = stats.n_injected - delivered - stats.n_dropped
        self.delivered += delivered
        self.injected += stats.n_injected
        self.summaries.append((self.current, bool(summary["deadlocked"]), undelivered))

    def on_generate(self, messages: list) -> None:
        self.messages += len(messages)

    def hook_summaries(self) -> None:
        from repro.sim.stats import SimStats

        original = SimStats.summary
        recorder = self

        def summary(stats):
            out = original(stats)
            recorder.on_summary(stats, out)
            return out

        SimStats.summary = summary


def _run_all(plan, cache, recorder, errors, tracer=None) -> None:
    from repro.runner.executor import run_experiment

    for item in plan:
        name = item["experiment"]
        ctx = tracer.span(f"experiments.{name}") if tracer else nullcontext()
        with ctx:
            try:
                run_experiment(name, PRESET, item["overrides"], jobs=1, cache=cache, events=recorder)
            except Exception as exc:  # a failed cell is a counted failure, not a crash
                traceback.print_exc(file=sys.stderr)
                errors[name] = repr(exc)


def _cells_report(plan, recorder, errors) -> dict:
    failures = checks.check_summaries(recorder.summaries)
    for item in plan:
        delivered = {c: recorder.rows[c] for c in item["cells"] if c in recorder.rows}
        failures = checks.merge(failures, checks.check_rows(item["experiment"], delivered))
        if item["experiment"] in errors:
            # Charge the error to the cells it cost; an error after every
            # cell delivered (merging, storing) is charged to all of them.
            hit = [c for c in item["cells"] if c not in recorder.rows] or item["cells"]
            failures = checks.merge(failures, {c: [errors[item["experiment"]]] for c in hit})
    return {
        cell: {
            "experiment": item["experiment"],
            "digest": checks.digest(recorder.rows[cell]) if cell in recorder.rows else None,
            "failures": failures.get(cell, []),
        }
        for item in plan
        for cell in item["cells"]
    }


def _warm_pass(plan, cache, rows, cells) -> float:
    """Re-run against the filled store; its rows must equal the cold rows."""
    from repro.runner.executor import run_experiment

    seconds = 0.0
    for item in plan:
        t0 = time.perf_counter()
        try:
            reports = run_experiment(item["experiment"], PRESET, item["overrides"], jobs=1, cache=cache)
        except Exception as exc:  # counted against the cells, like a cold failure
            traceback.print_exc(file=sys.stderr)
            reports, reason = None, f"warm rerun raised {exc!r}"
        seconds += time.perf_counter() - t0
        if reports is not None:
            cold_rows = [row for c in item["cells"] for row in rows.get(c, [])]
            warm_rows = [row for r in reports for row in r.result.rows]
            if all(r.from_cache for r in reports) and checks.digest(warm_rows) == checks.digest(cold_rows):
                continue
            reason = "warm rerun did not return the cold rows from the store"
        for c in item["cells"]:
            cells[c]["failures"].append(reason)
    return seconds


def main(argv: list[str]) -> int:
    mode, workload, seed, store, out_path = argv
    seed = int(seed)
    import repro  # noqa: F401  (setup: the package import itself)
    from repro.utils.diskcache import DiskCache, set_default_cache

    plan = _plan(workload, seed)
    cache = set_default_cache(DiskCache(store))
    recorder = _Recorder(stop_at_first_cell=(mode == "setup"))
    result: dict = {"mode": mode, "workload": workload}

    if mode == "setup":
        from repro.runner.executor import run_experiment

        try:
            run_experiment(plan[0]["experiment"], PRESET, plan[0]["overrides"],
                           jobs=1, cache=cache, events=recorder)
        except _FirstCell:
            pass
        result["first_cell_unix"] = recorder.first_cell_unix
        _write(out_path, result)
        return 0 if recorder.first_cell_unix is not None else 1

    recorder.hook_summaries()
    errors: dict[str, str] = {}
    tracer = None
    if mode == "traced":
        from perfbench import layers
        from perfbench.tracing import Tracer

        tracer = Tracer()
        layers.install(tracer, recorder.on_generate)
    cpu0, t0 = time.process_time(), time.perf_counter()
    if tracer:
        with tracer.span(layers.ROOT):
            _run_all(plan, cache, recorder, errors, tracer)
        tracer.uninstall()
    else:
        _run_all(plan, cache, recorder, errors)
    result["wall_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["cells"] = _cells_report(plan, recorder, errors)
    result["provenance"] = _provenance(plan, seed)

    if tracer:
        metrics = layers.layer_metrics(tracer, recorder.delivered, recorder.injected, recorder.messages)
        metrics["store.bytes_written"] = cache.stats()["bytes"]
        metrics["store.warm_rerun_s"] = _warm_pass(plan, cache, recorder.rows, result["cells"])
        metrics["store.hits"] = cache.hits
        metrics["store.misses"] = cache.misses
        metrics["process.cpu_s"] = result["cpu_s"]
        result["metrics"] = metrics
        spans_path = out_path[: -len(".json")] + "-spans.json"
        _write(spans_path, {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans})
        result["spans_file"] = spans_path
    _write(out_path, result)
    return 0


def _write(path: str, obj: dict) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, default=repr)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
