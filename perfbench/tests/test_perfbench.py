"""Self-tests of the benchmark: tracing arithmetic, checks, accounting.

Run from the repository root::

    python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from perfbench import checks, layers, run, worker  # noqa: E402
from perfbench.tracing import NAME, PARENT, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


@pytest.fixture
def fake_package(monkeypatch):
    """``fakepkg.lib`` defines run -> bfs; ``fakepkg.user`` binds both directly."""
    lib = types.ModuleType("fakepkg.lib")

    def bfs(depth: int = 0) -> int:
        _busy(0.002)
        return lib.bfs(depth - 1) + 1 if depth > 0 else 1

    def run_sim() -> int:
        _busy(0.003)
        n = lib.bfs() + lib.bfs(depth=2)
        _busy(0.001)
        return n

    lib.bfs, lib.run_sim = bfs, run_sim
    user = types.ModuleType("fakepkg.user")
    user.bfs, user.run_sim = bfs, run_sim  # `from fakepkg.lib import ...`
    pkg = types.ModuleType("fakepkg")
    for name, mod in (("fakepkg", pkg), ("fakepkg.lib", lib), ("fakepkg.user", user)):
        monkeypatch.setitem(sys.modules, name, mod)
    return lib, user


def test_wrap_rebinds_every_alias_and_uninstall_restores(fake_package):
    lib, user = fake_package
    original = lib.bfs
    tracer = Tracer()
    assert tracer.wrap_function(original, "graphs.bfs", "fakepkg") == 2
    assert user.bfs is lib.bfs is not original
    user.bfs()
    assert [s[NAME] for s in tracer.spans] == ["graphs.bfs"]
    tracer.uninstall()
    assert user.bfs is lib.bfs is original


def test_self_times_sum_to_traced_wall_without_double_counting(fake_package):
    lib, user = fake_package
    tracer = Tracer()
    tracer.wrap_function(lib.run_sim, "sim.run", "fakepkg")
    tracer.wrap_function(lib.bfs, "graphs.bfs", "fakepkg")
    with tracer.span(layers.ROOT):
        with tracer.span("experiments.fig6"):
            user.run_sim()
        _busy(0.001)
    tracer.uninstall()

    own = tracer.self_times()
    wall = tracer.spans[0][2] - tracer.spans[0][1]
    assert sum(own) == pytest.approx(wall, abs=1e-9)
    assert all(t >= 0 for t in own)
    by = tracer.by_name()
    # bfs(depth=2) recurses through the wrapped alias: 4 bfs spans, but only
    # the 2 outermost count as calls; their time sits in graphs.bfs, not sim.run.
    assert sum(1 for s in tracer.spans if s[NAME] == "graphs.bfs") == 4
    assert by["graphs.bfs"]["calls"] == 2
    assert 0.008 <= by["graphs.bfs"]["self_s"] < 0.05
    assert 0.004 <= by["sim.run"]["self_s"] < 0.05
    nested = [s for s in tracer.spans if s[NAME] == "graphs.bfs" and tracer.spans[s[PARENT]][NAME] == "sim.run"]
    assert len(nested) == 2

    metrics = layers.layer_metrics(tracer, delivered=0, injected=0, messages=0)
    total = sum(metrics[f"{span}_s"] for span in layers.LAYER_SPANS) + metrics["runner.self_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], abs=1e-9)
    assert metrics["sim.run_calls"] == 1 and metrics["graphs.bfs_calls"] == 2


def test_install_on_repro_partitions_a_real_call(tmp_path):
    from repro.experiments.common import structural_row
    from repro.topology import build_lps
    from repro.utils.diskcache import DiskCache, get_default_cache, set_default_cache

    topo = build_lps(11, 7)
    previous = get_default_cache()
    set_default_cache(DiskCache(tmp_path))
    tracer = Tracer()
    try:
        layers.install(tracer, on_generate=lambda messages: None)
        with tracer.span(layers.ROOT):
            structural_row(topo, with_bisection=True, bisection_repeats=1)
    finally:
        tracer.uninstall()
        set_default_cache(previous)
    import repro.experiments.common as common
    from repro.partition.multilevel import bisection_bandwidth

    assert common.bisection_bandwidth is bisection_bandwidth  # restored
    metrics = layers.layer_metrics(tracer, delivered=0, injected=0, messages=0)
    assert metrics["partition.bisection_calls"] == 1
    assert metrics["spectral.eigen_calls"] == 1
    assert metrics["graphs.metrics_s"] > 0
    total = sum(metrics[f"{span}_s"] for span in layers.LAYER_SPANS) + metrics["runner.self_s"]
    assert total == pytest.approx(metrics["trace.wall_s"], abs=1e-9)


def _fig9_rows(halo_speedup: float) -> dict[str, list[dict]]:
    cells = {}
    for motif, speedup in (("Halo3D-26", halo_speedup), ("Sweep3D", 1.0),
                           ("FFT (balanced)", 0.9), ("FFT (unbalanced)", 1.1)):
        cells[f"fig9[motif_names={motif}]"] = [
            {"motif": motif, "topology": "DragonFly", "speedup_vs_df": 1.0},
            {"motif": motif, "topology": "SpectralFly", "speedup_vs_df": speedup},
        ]
    return cells


def _pass(cells: dict[str, list[dict]], failures: checks.Failures) -> dict:
    return {"cells": {c: {"experiment": "fig9", "digest": checks.digest(rows), "failures": failures.get(c, [])}
                      for c, rows in cells.items()}}


def test_forced_check_failure_raises_failed_cells_frac():
    good = _fig9_rows(1.2)
    assert checks.check_rows("fig9", good) == {}
    assert run.account([_pass(good, {})], {})[:2] == (4, 0)

    bad = _fig9_rows(0.5)  # Halo3D-26 must beat DragonFly
    failures = checks.check_rows("fig9", bad)
    assert list(failures) == ["fig9[motif_names=Halo3D-26]"]
    attempted, failed, reasons = run.account([_pass(bad, failures)], {})
    assert failed / attempted == 0.25 and reasons

    stuck = checks.check_summaries([("fig9[motif_names=Sweep3D]", True, 3)])
    assert run.account([_pass(good, stuck)], {})[1] == 1


def test_lost_packets_on_a_lossless_run_fail_the_cell(monkeypatch):
    """``SimStats.undelivered`` stays 0 unless finite buffers wedge; the
    recorder must still see packets that were injected but never arrived."""
    from repro.sim.stats import SimStats

    monkeypatch.setattr(SimStats, "summary", SimStats.summary)  # undone after the test
    recorder = worker._Recorder()
    recorder.hook_summaries()
    cell = "fig6[pattern=uniform]"
    recorder({"type": "cell-start", "cell": cell})
    whole = SimStats(latencies_ns=[10.0, 12.0], hops=[2, 3], n_injected=2)
    lossy = SimStats(latencies_ns=[10.0, 12.0], hops=[2, 3], n_injected=5)
    assert whole.summary()["undelivered"] == lossy.summary()["undelivered"] == 0
    recorder({"type": "cell-result", "cell": cell, "rows": [{"topology": "SpectralFly", "speedup_vs_df": 1.0}]})

    assert recorder.summaries == [(cell, False, 0), (cell, False, 3)]
    assert (recorder.delivered, recorder.injected) == (4, 7)
    plan = [{"experiment": "fig6", "cells": [cell]}]
    cells = worker._cells_report(plan, recorder, {})
    assert cells[cell]["failures"] == ["simulation deadlocked=False undelivered=3"]
    assert run.account([{"cells": cells}], {})[:2] == (1, 1)


def test_table1_check_uses_paper_tolerances():
    row = {"topology": "LPS(23,11)", "diameter": 3, "paper_diam": 3,
           "avg_distance": 2.35, "paper_avg": 2.35, "mu1": 0.66, "paper_mu1": 0.65}
    assert checks.check_rows("table1", {"table1[classes=2]": [row]}) == {}
    off = dict(row, topology="SF(17)", mu1=0.66, paper_mu1=0.64)
    assert checks.check_rows("table1", {"table1[classes=2]": [off]})


def test_digest_mismatch_between_runs_is_a_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    cells = _fig9_rows(1.2)
    first, second = _pass(cells, {}), _pass(cells, {})
    changed = "fig9[motif_names=Sweep3D]"
    second["cells"][changed]["digest"] = "0" * 64
    assert run.check_digests([first], ["src", "wl", "1"]) == {}
    failures = run.check_digests([second], ["src", "wl", "1"])  # recorded reference
    assert list(failures) == [changed]
    assert run.account([second], failures)[1] == 1


def test_benchmark_json_names_match_the_code():
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
