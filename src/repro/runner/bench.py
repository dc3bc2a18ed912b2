"""Tracked performance benchmarks: ``python -m repro bench``.

Simulated packets/second is the binding constraint on how many
loads x patterns x topologies x sizes the reproduction can sweep, so the
simulator's speed is a tracked artifact rather than folklore.  This module
measures three sections of cells, each a plain dict run by the one
:func:`run_cell` (build outside the timer, time the engine run alone,
turn the stats into a row) under the one best-of-``repeats`` loop
:func:`run_section`:

* ``cells`` — the small-preset saturation driver's engine
  (:func:`repro.experiments.common.build_synthetic_sim`) across
  topology x routing x pattern, reporting packets/s and events/s;
* ``scenario_cells`` — a closed-loop motif, a chunk-level collective, a
  mid-run-faulted, a congested (finite credits + lossy channel) and a
  searched-topology run, labelled by :data:`WORKLOAD_LABELS`;
* ``scale_cells`` — oracle-routed LPS instances past the dense-table
  wall on the batched engine.

Plus **micro benchmarks** — the per-hop primitives the fast path is built
from: directed-edge-id lookup, minimal-next-hop selection, and
single-draw vs block-drawn RNG.

Results are written to ``BENCH_sim.json``; the committed copy at the repo
root records the perf trajectory (the pre-optimization baseline is stored
in the same file under ``"baseline"``).  See ``docs/performance.md``.
"""

from __future__ import annotations

import json
import platform
import statistics
import time
from pathlib import Path
from typing import Any

# Presets: which cells the end-to-end sweep runs.  ``smoke`` is sized for
# CI (seconds); ``small`` is the tracked configuration committed in
# BENCH_sim.json; ``full`` is paper scale (slow, opt-in).  Every cell runs
# once per entry in ``backends`` — the event engine rows carry the headline
# summary (comparable to the recorded baseline), the batched rows feed
# ``summary_batched`` and the batched-vs-event speedup.
#
# ``scenarios`` are the capability-gap cells added when the batched engine
# learnt motifs and fault schedules: one closed-loop motif run, one
# mid-run-faulted open-loop run, one chunk-level collective schedule
# (ring allreduce lowered to a motif DAG), one congested run (finite
# credit/backpressure buffers plus a lossy retransmitting channel), and
# one searched-topology open-loop run (an edge-swap-annealed Jellyfish —
# no algebraic structure, so it keeps the routing hot path honest on
# irregular instances; see docs/search.md), each timed per backend
# (engine run only — workload generation, topology construction, and the
# spectral search itself stay outside the timer).  Their batched-vs-event
# speedups land in ``summary_scenarios``.
BENCH_PRESETS: dict[str, dict[str, Any]] = {
    "smoke": {
        "scale": "small",
        "topologies": ("SpectralFly",),
        "cells": (("minimal", "shuffle"), ("ugal", "shuffle")),
        "load": 0.5,
        "n_ranks": 256,
        "packets_per_rank": 5,
        "backends": ("event", "batched"),
        "scenarios": {
            "motif": {"topology": "SpectralFly", "routing": "minimal",
                      "motif": "fft-unbalanced", "n_ranks": 256},
            "faulted": {"topology": "SpectralFly", "routing": "ugal",
                        "pattern": "random", "load": 0.5, "n_ranks": 256,
                        "packets_per_rank": 10, "fail_fraction": 0.1,
                        "recover": True},
            "collective": {"topology": "SpectralFly", "routing": "minimal",
                           "collective": "allreduce", "algorithm": "ring",
                           "n_ranks": 64, "total_bytes": 1 << 15},
            "congested": {"topology": "SpectralFly", "routing": "ugal",
                          "pattern": "random", "load": 0.55, "n_ranks": 256,
                          "packets_per_rank": 8, "buffer_packets": 1,
                          "loss_prob": 0.02, "max_attempts": 2},
            "searched": {"n_routers": 48, "radix": 4, "budget": 40,
                         "routing": "ugal", "pattern": "random",
                         "load": 0.5, "concentration": 2, "n_ranks": 64,
                         "packets_per_rank": 8},
        },
        "scale_cells": (
            {"name": "LPS(5,23)-cayley", "p": 5, "q": 23,
             "oracle": "cayley", "routing": "minimal", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 4096,
             "packets_per_rank": 4},
        ),
    },
    "small": {
        "scale": "small",
        "topologies": None,  # all topologies of the small size class
        "cells": (
            ("minimal", "shuffle"),
            ("valiant", "shuffle"),
            ("ugal", "shuffle"),
            ("ugal", "random"),
        ),
        "load": 0.5,
        "n_ranks": 512,
        "packets_per_rank": 15,
        "backends": ("event", "batched"),
        "scenarios": {
            "motif": {"topology": "SpectralFly", "routing": "minimal",
                      "motif": "fft-unbalanced", "n_ranks": 512},
            "faulted": {"topology": "SpectralFly", "routing": "ugal",
                        "pattern": "random", "load": 0.5, "n_ranks": 512,
                        "packets_per_rank": 15, "fail_fraction": 0.1,
                        "recover": True},
            "collective": {"topology": "SpectralFly", "routing": "minimal",
                           "collective": "allreduce", "algorithm": "ring",
                           "n_ranks": 128, "total_bytes": 1 << 16},
            "congested": {"topology": "SpectralFly", "routing": "ugal",
                          "pattern": "random", "load": 0.55, "n_ranks": 512,
                          "packets_per_rank": 15, "buffer_packets": 1,
                          "loss_prob": 0.02, "max_attempts": 2},
            "searched": {"n_routers": 98, "radix": 6, "budget": 120,
                         "routing": "ugal", "pattern": "random",
                         "load": 0.5, "concentration": 2, "n_ranks": 128,
                         "packets_per_rank": 12},
        },
        # Million-node-regime cells: SpectralFly instances far past the
        # dense-table wall (LPS(5,47) has 103,776 routers; its n x n
        # int16 distance matrix alone would be ~21.5 GB), routed through
        # the on-demand Cayley oracle on the batched engine.
        "scale_cells": (
            {"name": "LPS(5,23)-cayley", "p": 5, "q": 23,
             "oracle": "cayley", "routing": "minimal", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 4096,
             "packets_per_rank": 4},
            {"name": "LPS(5,47)-cayley", "p": 5, "q": 47,
             "oracle": "cayley", "routing": "minimal", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 16384,
             "packets_per_rank": 4},
        ),
    },
    "full": {
        "scale": "paper",
        "topologies": None,
        "cells": (
            ("minimal", "shuffle"),
            ("valiant", "shuffle"),
            ("ugal", "shuffle"),
            ("ugal", "random"),
        ),
        "load": 0.5,
        "n_ranks": 8192,
        "packets_per_rank": 15,
        "backends": ("event", "batched"),
        "scenarios": {
            "motif": {"topology": "SpectralFly", "routing": "minimal",
                      "motif": "fft-unbalanced", "n_ranks": 8192},
            "faulted": {"topology": "SpectralFly", "routing": "ugal",
                        "pattern": "random", "load": 0.5, "n_ranks": 8192,
                        "packets_per_rank": 15, "fail_fraction": 0.1,
                        "recover": True},
            "collective": {"topology": "SpectralFly", "routing": "minimal",
                           "collective": "allreduce", "algorithm": "ring",
                           "n_ranks": 1024, "total_bytes": 1 << 18},
            "congested": {"topology": "SpectralFly", "routing": "ugal",
                          "pattern": "random", "load": 0.55, "n_ranks": 8192,
                          "packets_per_rank": 15, "buffer_packets": 1,
                          "loss_prob": 0.02, "max_attempts": 2},
            "searched": {"n_routers": 512, "radix": 8, "budget": 300,
                         "routing": "ugal", "pattern": "random",
                         "load": 0.5, "concentration": 4, "n_ranks": 2048,
                         "packets_per_rank": 15},
        },
        "scale_cells": (
            {"name": "LPS(5,47)-cayley", "p": 5, "q": 47,
             "oracle": "cayley", "routing": "minimal", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 65536,
             "packets_per_rank": 8},
            {"name": "LPS(5,47)-valiant-cayley", "p": 5, "q": 47,
             "oracle": "cayley", "routing": "valiant", "pattern": "random",
             "load": 0.3, "concentration": 2, "n_ranks": 65536,
             "packets_per_rank": 8},
        ),
    },
}

#: Seed shared by every cell so before/after runs are comparable.
BENCH_SEED = 0


#: The sections of a bench run, named as in ``BENCH_sim.json``.
SECTIONS = ("cells", "scenario_cells", "scale_cells")

#: Scenario kind -> the ``workload`` label of its rows, formatted from the
#: cell's own keys.
WORKLOAD_LABELS = {
    "motif": "motif:{motif}",
    "collective": "collective:{collective}-{algorithm}",
    "faulted": "faulted:{fail_fraction}",
    "congested": "congested:b{buffer_packets}-p{loss_prob}",
    "searched": "searched:b{budget}",
}

#: Cell keys a row echoes (when the cell has them).
_ROW_KEYS = ("name", "routing", "pattern", "load", "oracle", "n_ranks",
             "packets_per_rank")


# ---------------------------------------------------------------------------
# Cells: one runner for every section
# ---------------------------------------------------------------------------
def _make_motif(kind: str, n_ranks: int):
    from repro.workloads import FFTMotif, Halo3D26Motif, Sweep3DMotif
    from repro.workloads.halo3d import default_halo_grid

    if kind == "fft-balanced":
        return FFTMotif.balanced(n_ranks)
    if kind == "fft-unbalanced":
        return FFTMotif.unbalanced(n_ranks)
    if kind == "halo3d":
        return Halo3D26Motif(default_halo_grid(n_ranks), iterations=2)
    if kind == "sweep3d":
        import math

        side = int(math.isqrt(n_ranks))
        return Sweep3DMotif((side, side), sweeps=2)
    raise ValueError(f"unknown bench motif {kind!r}")


def _build_topology(cell: dict[str, Any]):
    """The cell's topology and its concentration (endpoints per router).

    ``p``/``q`` build an LPS instance (the scale cells), ``n_routers`` an
    edge-swap-searched one, and otherwise ``topology`` names an entry of
    the ``scale`` size class in :data:`repro.topology.SIM_CONFIGS`.
    """
    from repro.topology import SIM_CONFIGS, build_lps, swap_searched_topology

    if "p" in cell:
        return build_lps(cell["p"], cell["q"]), cell["concentration"]
    if "n_routers" in cell:
        topo = swap_searched_topology(
            cell["n_routers"], cell["radix"], budget=cell["budget"],
            seed=BENCH_SEED,
        )
        return topo, cell["concentration"]
    spec = SIM_CONFIGS[cell["scale"]]["topologies"][cell["topology"]]
    return spec["build"](), spec["concentration"]


def _assemble(cell: dict[str, Any], backend: str):
    """Build everything ``cell`` needs on ``backend``, running nothing.

    Returns ``(topology, net, run)``: ``run()`` is the engine run to time,
    ``net`` the open-loop simulator (``None`` for closed-loop cells).
    """
    from functools import partial

    from repro.experiments.common import build_synthetic_sim, cached_tables
    from repro.routing import make_routing
    from repro.sim import ChannelConfig, SimConfig
    from repro.sim.faults import FaultSchedule
    from repro.workloads import CollectiveMotif, run_collective, run_motif

    topo, concentration = _build_topology(cell)
    opts: dict[str, Any] = {"concentration": concentration}
    if "buffer_packets" in cell:
        # Finite credit/backpressure input buffers of ``buffer_packets``
        # packets — the saturation-congestion configuration.
        opts["finite_buffers"] = cell["buffer_packets"] > 0
        opts["buffer_bytes"] = max(cell["buffer_packets"], 1) * 4096
    if cell.get("loss_prob", 0.0) > 0.0:
        opts["channel"] = ChannelConfig(
            loss_prob=cell["loss_prob"], jitter_ns=10.0,
            max_attempts=cell.get("max_attempts", 2), backoff_ns=30.0,
            seed=BENCH_SEED,
        )
    cfg = SimConfig(**opts)
    if "motif" in cell or "collective" in cell:
        # Closed loop: the message DAG (or collective schedule) is built
        # here, outside the timer.
        policy = make_routing(cell["routing"], cached_tables(topo),
                              seed=BENCH_SEED)
        kw = {"placement_seed": BENCH_SEED + 1, "backend": backend}
        if "collective" in cell:
            motif = CollectiveMotif(
                cell["collective"], cell["algorithm"], cell["n_ranks"],
                total_bytes=cell["total_bytes"],
            )
            motif.generate()
            return topo, None, partial(run_collective, topo, policy, motif,
                                       cfg, **kw)
        motif = _make_motif(cell["motif"], cell["n_ranks"])
        kw["messages"] = motif.generate()
        return topo, None, partial(run_motif, topo, policy, motif, cfg, **kw)
    faults = None
    if "fail_fraction" in cell:
        # Links fail a quarter of the way through the injection horizon
        # and (with ``recover``) come back at three quarters.
        horizon = (
            cell["packets_per_rank"] * cfg.packet_bytes
            / (cell["load"] * cfg.bytes_per_ns)
        )
        faults = FaultSchedule.random_link_faults(
            topo.graph,
            cell["fail_fraction"],
            t_fail=0.25 * horizon,
            seed=BENCH_SEED + 1,
            t_recover=0.75 * horizon if cell.get("recover", True) else None,
        )
    net = build_synthetic_sim(
        topo,
        cell["routing"],
        cell["pattern"],
        cell["load"],
        concentration=concentration,
        n_ranks=cell["n_ranks"],
        packets_per_rank=cell["packets_per_rank"],
        seed=BENCH_SEED,
        config=cfg,
        faults=faults,
        backend=backend,
        oracle=cell.get("oracle"),
    )
    return topo, net, net.run


def _rate(n: int, wall: float) -> float:
    return round(n / wall, 1) if wall > 0 else 0.0


def run_cell(cell: dict[str, Any], backend: str = "event") -> dict[str, Any]:
    """Run one bench cell on ``backend`` and turn its stats into a row.

    The cell's keys say what runs: ``topology`` (with ``scale``), ``p``/
    ``q`` or ``n_routers`` pick the topology; ``motif`` or ``collective``
    a closed-loop run, otherwise ``routing``/``pattern``/``load`` open-loop
    traffic; ``fail_fraction`` adds a mid-run link-fault schedule,
    ``buffer_packets``/``loss_prob`` finite credit buffers and a lossy
    retransmitting channel, ``oracle`` the on-demand routing oracle;
    ``kind`` labels a scenario row's ``workload`` (:data:`WORKLOAD_LABELS`).

    Only the engine run is timed (``wall_s``); building the topology,
    tables, workload and simulator is ``setup_wall_s``.  An ``oracle``
    cell must never materialise the dense distance matrix — asserted, not
    assumed, since that is what keeps the million-node path honest.
    """
    from repro.errors import SimulationError

    t0 = time.perf_counter()
    topo, net, run = _assemble(cell, backend)
    setup_wall = time.perf_counter() - t0
    t0 = time.perf_counter()
    out = run()
    wall = time.perf_counter() - t0
    if "oracle" in cell and net.tables._dist is not None:
        raise SimulationError(
            f"bench cell {cell.get('name', topo.name)!r} materialised the "
            "dense distance matrix; the oracle seam leaked"
        )
    row: dict[str, Any] = {"topology": topo.name, "backend": backend}
    if "kind" in cell:
        row["workload"] = WORKLOAD_LABELS[cell["kind"]].format(**cell)
    row.update((k, cell[k]) for k in _ROW_KEYS if k in cell)
    if net is None:
        n = int(out["n_messages"])
        row.update(messages=n, delivered=int(out["delivered"]),
                   messages_per_s=_rate(n, wall))
        for key in ("makespan_ns", "mean_latency_ns", "chunk_done_p99_ns"):
            if key in out:
                row[key] = round(float(out[key]), 2)
    else:
        summary = out.summary()
        delivered = int(summary.get("delivered", 0))
        row.update(
            delivered=delivered,
            dropped=int(out.n_dropped),
            retransmits=int(out.n_retransmits),
            events=int(out.n_events),
            packets_per_s=_rate(delivered, wall),
            events_per_s=_rate(int(out.n_events), wall),
            mean_latency_ns=round(float(summary.get("mean_latency_ns", 0.0)), 2),
            mean_hops=round(float(summary.get("mean_hops", 0.0)), 4),
        )
    if "oracle" in cell:
        row["routers"] = topo.n_routers
        row["dense_table_bytes_avoided"] = int(topo.n_routers) ** 2 * 2
    row["setup_wall_s"] = round(setup_wall, 4)
    row["wall_s"] = round(wall, 4)
    return row


def section_cells(preset: str, section: str) -> list[dict[str, Any]]:
    """The cells of one section of ``preset``, each a self-contained dict.

    ``cells`` crosses the preset's topologies with its (routing, pattern)
    pairs; ``scenario_cells`` tags each scenario with its ``kind``;
    ``scale_cells`` are taken as they are.
    """
    spec = BENCH_PRESETS[preset]
    if section == "cells":
        from repro.topology import SIM_CONFIGS

        names = spec["topologies"] or tuple(
            SIM_CONFIGS[spec["scale"]]["topologies"]
        )
        return [
            {"scale": spec["scale"], "topology": name, "routing": routing,
             "pattern": pattern, "load": spec["load"],
             "n_ranks": spec["n_ranks"],
             "packets_per_rank": spec["packets_per_rank"]}
            for name in names
            for routing, pattern in spec["cells"]
        ]
    if section == "scenario_cells":
        return [
            {"scale": spec["scale"], "kind": kind, **sc}
            for kind, sc in (spec.get("scenarios") or {}).items()
        ]
    if section == "scale_cells":
        return list(spec.get("scale_cells") or ())
    raise ValueError(f"unknown bench section {section!r}; options {SECTIONS}")


def run_section(
    preset: str,
    section: str,
    repeats: int = 1,
    progress=None,
    backends: tuple[str, ...] | None = None,
) -> list[dict[str, Any]]:
    """Run every cell of one ``section`` of ``preset``; keep the best wall.

    Each cell runs once per backend in ``backends`` (default: the
    preset's list) — so the tracked file carries event and batched rows
    for the same work at the same seed — except an ``oracle`` cell, which
    runs on the batched engine alone.
    """
    if backends is None:
        backends = BENCH_PRESETS[preset].get("backends", ("event",))
    rows: list[dict[str, Any]] = []
    for cell in section_cells(preset, section):
        for backend in ("batched",) if "oracle" in cell else backends:
            best = min(
                (run_cell(cell, backend) for _ in range(max(1, repeats))),
                key=lambda row: row["wall_s"],
            )
            rows.append(best)
            if progress is not None:
                label = best.get("name") or best.get("workload") or (
                    f"{best['topology']} {best['pattern']}"
                )
                unit, rate = (
                    ("msg", best["messages_per_s"]) if "messages_per_s" in best
                    else ("pkt", best["packets_per_s"])
                )
                progress(
                    f"  {label:>26} {best['routing']:>8} {best['backend']:>8}: "
                    f"{rate:>10,.0f} {unit}/s ({best['wall_s']:.2f}s)"
                )
    return rows


def summarize_scenarios(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Per-scenario batched-vs-event speedups (same cell, same seed)."""
    out: dict[str, Any] = {}
    by_workload: dict[str, dict[str, float]] = {}
    for r in rows:
        by_workload.setdefault(r["workload"], {})[r["backend"]] = r["wall_s"]
    for workload, walls in sorted(by_workload.items()):
        if "event" in walls and "batched" in walls and walls["batched"] > 0:
            key = workload.split(":", 1)[0] + "_speedup_vs_event"
            out[key] = round(walls["event"] / walls["batched"], 2)
    return out


def summarize(rows: list[dict[str, Any]]) -> dict[str, Any]:
    """Aggregate cells into the headline packets/s (total work / total wall)."""
    total_pkts = sum(r["delivered"] for r in rows)
    total_events = sum(r["events"] for r in rows)
    total_wall = sum(r["wall_s"] for r in rows)
    return {
        "cells": len(rows),
        "total_packets": total_pkts,
        "total_events": total_events,
        "total_wall_s": round(total_wall, 3),
        "packets_per_s": round(total_pkts / total_wall, 1) if total_wall else 0.0,
        "events_per_s": round(total_events / total_wall, 1) if total_wall else 0.0,
        "median_cell_packets_per_s": round(
            statistics.median(r["packets_per_s"] for r in rows), 1
        )
        if rows
        else 0.0,
    }


# ---------------------------------------------------------------------------
# Micro benchmarks
# ---------------------------------------------------------------------------
def _time_loop(fn, n: int) -> float:
    """Ops/second of ``fn(i)`` over ``n`` iterations."""
    t0 = time.perf_counter()
    for i in range(n):
        fn(i)
    dt = time.perf_counter() - t0
    return n / dt if dt > 0 else 0.0


def run_micro(n_ops: int = 50_000) -> dict[str, float]:
    """Per-hop primitive rates on the small SpectralFly topology."""
    import numpy as np

    from repro.routing import RoutingTables, make_routing
    from repro.topology import build_lps
    from repro.utils.rng import as_rng

    topo = build_lps(11, 7)
    g = topo.graph
    tables = RoutingTables(g)
    policy = make_routing("minimal", tables, seed=0)

    rng = np.random.default_rng(12345)
    n = g.n
    # Pre-draw query operands so the timed loops measure lookups only.
    us = rng.integers(0, n, size=n_ops).tolist()
    heads = np.repeat(np.arange(n), np.diff(g.indptr))
    pick = rng.integers(0, len(g.indices), size=n_ops)
    edge_u = heads[pick].tolist()
    edge_v = g.indices[pick].tolist()
    ds = rng.integers(0, n, size=n_ops).tolist()
    pairs = [(u, d) for u, d in zip(us, ds) if u != d]

    out = {
        "edge_id_lookups_per_s": _time_loop(
            lambda i: tables.directed_edge_id(edge_u[i], edge_v[i]), n_ops
        ),
        "min_next_hop_draws_per_s": _time_loop(
            lambda i: policy._random_minimal(*pairs[i % len(pairs)]), n_ops
        ),
    }

    # RNG: one generator call per value vs one refilled block per 2^13 values.
    single = as_rng(7)
    out["rng_single_draws_per_s"] = _time_loop(
        lambda i: int(single.integers(8)), n_ops
    )
    block_rng = as_rng(7)
    state = {"buf": [], "pos": 0}

    def batched(i):
        pos = state["pos"]
        buf = state["buf"]
        if pos >= len(buf):
            buf = state["buf"] = block_rng.random(8192).tolist()
            pos = 0
        state["pos"] = pos + 1
        return int(buf[pos] * 8)

    out["rng_batched_draws_per_s"] = _time_loop(batched, n_ops)
    return {k: round(v, 1) for k, v in out.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def run_bench(
    preset: str = "small",
    out_path: str | Path | None = "BENCH_sim.json",
    repeats: int = 1,
    baseline: dict[str, Any] | None = None,
    micro: bool = True,
    progress=print,
    backends: tuple[str, ...] | None = None,
) -> dict[str, Any]:
    """Run the benchmark suite and (optionally) write ``BENCH_sim.json``.

    ``summary`` aggregates the *event* cells (comparable to the recorded
    baseline across PRs); when batched cells ran, ``summary_batched``
    aggregates those and carries ``speedup_vs_event`` (same cells, same
    seed, total-packets / total-wall of each engine).
    """
    import numpy as np

    if preset not in BENCH_PRESETS:
        raise ValueError(
            f"unknown bench preset {preset!r}; options {list(BENCH_PRESETS)}"
        )
    if progress is not None:
        progress(f"== repro bench — preset {preset!r}, repeats {repeats}")
    t0 = time.perf_counter()
    rows, scenario_rows, scale_rows = (
        run_section(preset, section, repeats=repeats, progress=progress,
                    backends=backends)
        for section in SECTIONS
    )
    event_rows = [r for r in rows if r["backend"] == "event"]
    batched_rows = [r for r in rows if r["backend"] == "batched"]
    # The headline summary always says which engine(s) it aggregates:
    # event cells when any ran (comparable across PRs), otherwise whatever
    # did — a batched-only run must not masquerade as event numbers.
    summary = summarize(event_rows or rows)
    summary["backend"] = (
        "event" if event_rows
        else ",".join(sorted({r["backend"] for r in rows}))
    )
    result: dict[str, Any] = {
        "schema": 3,
        "kind": "repro-sim-perf",
        "preset": preset,
        "seed": BENCH_SEED,
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
        },
        "cells": rows,
        "summary": summary,
    }
    if batched_rows and event_rows:
        # Only alongside event cells — a batched-only run's aggregates are
        # already the (tagged) headline summary, not worth duplicating.
        sb = summarize(batched_rows)
        if summary["packets_per_s"]:
            sb["speedup_vs_event"] = round(
                sb["packets_per_s"] / summary["packets_per_s"], 2
            )
        result["summary_batched"] = sb
    if scenario_rows:
        result["scenario_cells"] = scenario_rows
        ss = summarize_scenarios(scenario_rows)
        if ss:
            result["summary_scenarios"] = ss
    if scale_rows:
        result["scale_cells"] = scale_rows
    if micro:
        if progress is not None:
            progress("  micro benchmarks...")
        result["micro"] = run_micro()
    if baseline:
        result["baseline"] = baseline
        base = float(baseline.get("packets_per_s", 0.0))
        # The recorded baselines are event-engine measurements; comparing
        # a batched-only run against one would fake a ~5x "optimisation".
        if base > 0 and summary["backend"] == "event":
            result["summary"]["speedup_vs_baseline"] = round(
                summary["packets_per_s"] / base, 2
            )
    result["bench_wall_s"] = round(time.perf_counter() - t0, 2)
    if progress is not None:
        progress(
            f"== {summary['backend']}: {summary['total_packets']:,} "
            f"packets in {summary['total_wall_s']:.2f}s of simulation -> "
            f"{summary['packets_per_s']:,.0f} pkt/s, "
            f"{summary['events_per_s']:,.0f} events/s"
        )
        if "summary_batched" in result and event_rows:
            sb = result["summary_batched"]
            progress(
                f"== batched: {sb['total_packets']:,} packets in "
                f"{sb['total_wall_s']:.2f}s -> {sb['packets_per_s']:,.0f} "
                f"pkt/s ({sb.get('speedup_vs_event', 0):.2f}x the event "
                "engine)"
            )
        if "summary_scenarios" in result:
            ss = result["summary_scenarios"]
            progress(
                "== scenarios: "
                + ", ".join(f"{k} {v:.2f}x" for k, v in ss.items())
            )
        if "scale_cells" in result:
            progress(
                "== scale: "
                + ", ".join(
                    f"{r['name']} {r['packets_per_s']:,.0f} pkt/s"
                    for r in result["scale_cells"]
                )
            )
        if "speedup_vs_baseline" in result["summary"]:
            progress(
                f"== speedup vs recorded baseline: "
                f"{result['summary']['speedup_vs_baseline']:.2f}x"
            )
    if out_path is not None:
        path = Path(out_path)
        path.write_text(json.dumps(result, indent=2) + "\n")
        if progress is not None:
            progress(f"== wrote {path}")
    return result


# ---------------------------------------------------------------------------
# Regression check: fresh run vs the committed BENCH_sim.json
# ---------------------------------------------------------------------------
#: ``bench --check`` flags a regression when a fresh throughput figure
#: falls more than this fraction below the committed one.  25% absorbs
#: machine-to-machine and run-to-run noise while still catching a real
#: hot-path regression; being *faster* than the committed file never fails.
CHECK_TOLERANCE = 0.25


def compare_to_committed(
    committed: dict[str, Any], fresh: dict[str, Any],
    tolerance: float = CHECK_TOLERANCE,
) -> list[str]:
    """Regressions of ``fresh`` vs ``committed``; empty list == healthy.

    Compared figures: the event-engine headline packets/s, the batched
    packets/s, the batched speedup over the event engine — the last one is
    machine-independent, so it is the strongest signal on CI hardware that
    differs from the machine that produced the committed file — each
    scenario speedup and each scale cell's packets/s.  A figure the
    committed file has and the fresh run lacks is reported too: a run that
    silently lost a section is not healthy.
    """
    problems: list[str] = []

    def check(label: str, old: float | None, new: float | None) -> None:
        if not old:
            return
        if new is None:
            problems.append(
                f"{label}: missing from the fresh run (committed {old:,.1f})"
            )
        elif new < (1.0 - tolerance) * old:
            problems.append(
                f"{label}: fresh {new:,.1f} is more than "
                f"{tolerance:.0%} below committed {old:,.1f}"
            )

    old_s = committed.get("summary", {})
    new_s = fresh.get("summary", {})
    # Headline summaries are only comparable when they aggregate the same
    # engine (schema-1 files predate the tag and were event-only).
    if old_s.get("backend", "event") == new_s.get("backend", "event"):
        check(
            f"{old_s.get('backend', 'event')} packets/s",
            old_s.get("packets_per_s"),
            new_s.get("packets_per_s"),
        )
    old_b = committed.get("summary_batched", {})
    new_b = fresh.get("summary_batched", {})
    check(
        "batched packets/s",
        old_b.get("packets_per_s"),
        new_b.get("packets_per_s"),
    )
    check(
        "batched speedup vs event",
        old_b.get("speedup_vs_event"),
        new_b.get("speedup_vs_event"),
    )
    # Scenario speedups are same-machine ratios like the headline speedup,
    # so they transfer to CI hardware too.
    new_ss = fresh.get("summary_scenarios", {})
    for key, old in sorted(committed.get("summary_scenarios", {}).items()):
        check(f"scenario {key}", old, new_ss.get(key))
    # Scale cells (oracle-routed, past the dense-table wall) are
    # matched by name; a preset may gain instances, not drop them.
    new_sc = {r["name"]: r for r in fresh.get("scale_cells", [])}
    for r in committed.get("scale_cells", []):
        check(
            f"scale cell {r['name']} packets/s",
            r.get("packets_per_s"),
            new_sc.get(r["name"], {}).get("packets_per_s"),
        )
    return problems


def run_check(
    committed_path: str | Path = "BENCH_sim.json",
    repeats: int = 1,
    tolerance: float = CHECK_TOLERANCE,
    progress=print,
) -> int:
    """``python -m repro bench --check``: 0 if healthy, 1 on regression.

    Re-runs the committed file's own preset (never overwriting the file)
    and compares with :func:`compare_to_committed`.  Wired into CI's
    non-gating perf-smoke job.
    """
    path = Path(committed_path)
    if not path.exists():
        if progress is not None:
            progress(f"bench --check: no committed file at {path}")
        return 1
    committed = json.loads(path.read_text())
    preset = committed.get("preset", "small")
    if progress is not None:
        progress(f"== bench --check vs {path} (preset {preset!r})")
    fresh = run_bench(
        preset=preset,
        out_path=None,
        repeats=repeats,
        micro=False,
        progress=progress,
    )
    problems = compare_to_committed(committed, fresh, tolerance=tolerance)
    if progress is not None:
        if problems:
            for p in problems:
                progress(f"REGRESSION {p}")
        else:
            progress(
                f"== check ok: within {tolerance:.0%} of the committed "
                "figures (or faster)"
            )
    return 1 if problems else 0
