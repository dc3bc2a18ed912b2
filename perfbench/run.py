"""Cold end-to-end benchmark of the paper workloads, with a traced breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload structural --seed 1 --seconds 10 --trace 0

``--trace 0`` measures what a user waits for: fresh-interpreter set-up
(``setup_s``, the median of several set-ups), then cold passes of the
workload, each in a new process with a new, empty store, until
``--seconds`` have been measured (``wall_s`` and ``peak_rss_mb`` are
medians over the passes).  ``--trace 1`` runs one untraced cold pass and
one traced cold pass followed by a warm re-run against the filled store,
and reports the per-layer metrics of :mod:`perfbench.layers`.

Every pass checks its outputs (:mod:`perfbench.checks`); failed cells are
reported as ``failed`` of ``attempted``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
Run records, spans and row digests go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import LAYER_SPANS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

OUT = ROOT / "perfbench" / "out"
SRC = ROOT / "src"
#: Metric names, units and bounds: ``end_to_end`` for a timed run,
#: ``per_layer`` for a traced one.
SPEC = ROOT / "BENCHMARK.json"
#: Fresh-interpreter set-ups per timed run (after one discarded warm-up
#: that compiles bytecode, a cost users pay once, not per run).
SETUP_SAMPLES = 5
#: Every child must end before this many seconds from start.
DEADLINE_S = 170.0
#: BLAS/OpenMP threads per pass.  On a 2-core host a second OpenBLAS thread
#: made ``fig5`` slower (11.0 s vs 8.9 s wall) at twice the CPU time, and
#: its spin-waits make wall time depend on what else runs on the host.
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """A pass produced no measurement; the run prints no result."""


class Runner:
    """Spawns worker passes for one workload and seed."""

    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.nproc = len(os.sched_getaffinity(0))
        self.env = self._env()

    def _env(self) -> dict[str, str]:
        env = dict(os.environ)
        env.pop("REPRO_CACHE", None)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
        env.update(dict.fromkeys(BLAS_THREAD_VARS, BLAS_THREADS))
        return env

    def spawn(self, mode: str) -> tuple[dict, float]:
        """Run one worker pass with a fresh store; returns (result, spawn unix time)."""
        tag = f"{self.workload}-{mode}"
        out_json = OUT / f"{tag}.json"
        log = OUT / f"{tag}.log"
        out_json.unlink(missing_ok=True)
        store = tempfile.mkdtemp(prefix="store-", dir=OUT)
        self.env["REPRO_CACHE_DIR"] = store
        cmd = [sys.executable, "-m", "perfbench.worker", mode, self.workload,
               str(self.seed), store, str(out_json)]
        try:
            with open(log, "w") as fh:
                spawned = time.time()
                proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=fh,
                                        stderr=subprocess.STDOUT)
                try:
                    code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
                    raise BenchError(f"{mode} pass passed the {DEADLINE_S:.0f} s deadline (log: {log})")
        finally:
            shutil.rmtree(store, ignore_errors=True)
        if code != 0 or not out_json.is_file():
            tail = log.read_text()[-2000:]
            raise BenchError(f"{mode} pass exited {code} without a result:\n{tail}")
        result = json.loads(out_json.read_text())
        repro_file = result.get("provenance", {}).get("repro_file")
        if repro_file is not None and not Path(repro_file).resolve().is_relative_to(SRC.resolve()):
            raise BenchError(f"worker imported repro from {repro_file}, not from {SRC}")
        return result, spawned

    def provenance(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "nproc": self.nproc,
            "blas_threads": {var: self.env[var] for var in BLAS_THREAD_VARS},
            "source_sha256": source_hash(),
            "model": "unvalidated: no hardware reference; digests check determinism only",
        }


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_digests(passes: list[dict], key: list[str]) -> dict[str, list[str]]:
    """Cells whose row digest differs between runs of the same code and seed.

    The reference is the digest recorded by an earlier run of this source
    tree, workload and seed (``out/digests.json``), else this run's first
    pass; a cell that never had a digest is left to the other checks.
    """
    record_path = OUT / "digests.json"
    record = json.loads(record_path.read_text()) if record_path.is_file() else {}
    node = record
    for k in key:
        node = node.setdefault(k, {})
    failures: dict[str, list[str]] = {}
    for result in passes:
        for cell, info in result["cells"].items():
            if info["digest"] is None:
                continue
            ref = node.setdefault(cell, info["digest"])
            if ref != info["digest"]:
                failures.setdefault(cell, []).append("row digest differs between runs of the same code and seed")
    tmp = record_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True))
    os.replace(tmp, record_path)
    return failures


def account(passes: list[dict], digest_failures: dict[str, list[str]]) -> tuple[int, int, list[str]]:
    """(attempted, failed, reasons) over every cell of every pass."""
    attempted = failed = 0
    reasons: list[str] = []
    for result in passes:
        for cell, info in result["cells"].items():
            attempted += 1
            why = list(info["failures"]) + digest_failures.get(cell, [])
            if info["digest"] is None and not why:
                why = ["no rows"]
            if why:
                failed += 1
                reasons.extend(f"{cell}: {w}" for w in why)
    return attempted, failed, reasons


def timed(runner: Runner, seconds: float) -> tuple[list[dict], dict[str, float]]:
    runner.spawn("setup")  # warm-up: bytecode compilation, page cache
    setups = []
    for _ in range(SETUP_SAMPLES):
        result, spawned = runner.spawn("setup")
        setups.append(result["first_cell_unix"] - spawned)
    passes: list[dict] = []
    start = time.monotonic()
    while not passes or time.monotonic() - start < seconds:
        passes.append(runner.spawn("cold")[0])
    metrics = {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    print(f"setup_s samples: {[round(s, 4) for s in setups]}")
    print(f"cold passes: {[round(p['wall_s'], 3) for p in passes]} s")
    return passes, metrics


def traced(runner: Runner) -> tuple[list[dict], dict[str, float]]:
    cold = runner.spawn("cold")[0]
    trace = runner.spawn("traced")[0]
    metrics = dict(trace["metrics"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - cold["wall_s"]
    print(f"untraced cold pass {cold['wall_s']:.3f} s, traced {metrics['trace.wall_s']:.3f} s")
    print(f"spans: {trace['spans_file']}")
    wall = metrics["trace.wall_s"]
    shares = {f"{span}_s": metrics[f"{span}_s"] for span in LAYER_SPANS}
    shares["runner.self_s"] = metrics["runner.self_s"]
    print("self time by layer (sums to the traced wall):")
    for name, value in sorted(shares.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<28} {value:9.3f} s  {value / wall:6.1%}")
    return [cold, trace], metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0 (drivers derive numpy seeds from it)")
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed, deadline)
    try:
        if args.trace:
            passes, metrics = traced(runner)
        else:
            passes, metrics = timed(runner, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    provenance = runner.provenance()
    provenance.update(passes[0]["provenance"])
    digest_failures = check_digests(passes, [provenance["source_sha256"], args.workload, str(args.seed)])
    attempted, failed, reasons = account(passes, digest_failures)
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        metrics["failed_cells_frac"] = failed / attempted
    record = {"provenance": provenance, "metrics": metrics, "failures": reasons,
              "passes": [{k: v for k, v in p.items() if k != "provenance"} for p in passes]}
    (OUT / f"{args.workload}-trace{args.trace}.json").write_text(json.dumps(record, indent=1, default=repr))
    print("provenance: " + json.dumps(provenance, sort_keys=True, default=repr))
    for reason in reasons:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
