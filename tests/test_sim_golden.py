"""Golden-stats regression corpus for the event and batched engines.

``tests/golden/sim_small.json`` pins the **exact** :class:`SimStats` of a
handful of seeded small-preset cells — every per-packet latency and hop
count, every counter, bit for bit.  The event engine is pinned across
every scenario family; the batched engine (schema 7) gets its own
section, because it is deterministic per seed even though it is only
*statistically* equivalent to the event engine.  The differential harness
(``test_sim_differential.py``) and the throughput benchmarks only watch
aggregate numbers; this corpus is what catches *silent behaviour drift*
— a reordered RNG draw, an off-by-one in queue accounting, a changed
tie-break — that leaves the means within tolerance but changes the
simulation.

The corpus covers every small-size-class topology family and every
routing policy at least once.  Floats survive the JSON round-trip exactly
(``json`` serialises via ``repr``), so equality here is equality of the
simulated trajectories.

If a change *intentionally* alters an engine's behaviour (a new RNG
batching scheme, a semantic fix), regenerate with::

    python scripts/make_golden_sim.py

and explain the regeneration in the commit message — the diff of the
corpus is the reviewable record of what moved.
"""

from __future__ import annotations

import dataclasses
import json
import pathlib

import pytest

from repro.experiments.common import build_synthetic_sim, cached_tables
from repro.routing import make_routing
from repro.sim import BatchedSimulator, ChannelConfig, SimConfig
from repro.sim.faults import FaultSchedule
from repro.sim.placement import place_ranks
from repro.topology import SIM_CONFIGS
from repro.workloads import (
    CollectiveMotif,
    FFTMotif,
    Halo3D26Motif,
    Sweep3DMotif,
    run_collective,
    run_motif,
)

# Runs in the dedicated differential/golden CI matrix job (see ci.yml).
pytestmark = pytest.mark.differential

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "sim_small.json"

#: The corpus cells: (family, routing, pattern, load, seed).  Small-preset
#: topologies at reduced rank/packet counts so the corpus stays compact
#: and the regression test stays fast.
CELLS = [
    ("SpectralFly", "minimal", "shuffle", 0.4, 7),
    ("SpectralFly", "ugal", "random", 0.5, 7),
    ("DragonFly", "valiant", "shuffle", 0.4, 7),
    ("DragonFly", "ugal-g", "transpose", 0.3, 7),
    ("SlimFly", "ugal", "shuffle", 0.6, 7),
    ("BundleFly", "minimal", "random", 0.4, 7),
]
N_RANKS = 64
PACKETS_PER_RANK = 5

#: Every SimStats field the event engine fills for a fault-free open-loop
#: run (fault counters included deliberately: they must stay zero).
FIELDS = (
    "latencies_ns",
    "hops",
    "bytes_delivered",
    "t_first_inject",
    "t_last_delivery",
    "n_injected",
    "max_queue_bytes",
    "valiant_choices",
    "minimal_choices",
    "deadlocked",
    "undelivered",
    "n_events",
    "n_dropped",
    "n_requeued",
    "nonminimal_hops",
)


#: Motif corpus cells: (family, routing, motif-kind, placement_seed).
#: The oracle for the batched engine's closed-loop mode is the event
#: engine's DAG runner, so the runner itself is pinned bit-for-bit here
#: *before* the differential harness compares the batched engine to it.
MOTIF_CELLS = [
    ("SpectralFly", "minimal", "fft", 7),
    ("DragonFly", "ugal", "halo3d", 7),
    ("SlimFly", "valiant", "sweep3d", 7),
]

#: Faulted corpus cells: (family, routing, fail_fraction, recover, seed).
#: Pins the event engine's degraded path — drops by cause, requeues,
#: non-minimal hops, and the full epoch ledger — bit-for-bit.
FAULT_CELLS = [
    ("SpectralFly", "ugal", 0.1, True, 7),
    ("BundleFly", "minimal", 0.15, False, 7),
    ("DragonFly", "ugal-g", 0.05, True, 7),
]

#: Collective corpus cells (schema 3):
#: (family, routing, collective, algorithm, n_ranks, seed).  Pins the
#: chunk-level schedules end to end on the event engine — the full
#: ``run_collective`` summary including every per-chunk completion time
#: (``chunk_done_ns``), bit for bit.  Covers all four algorithms and a
#: non-power-of-two rank count (the fold path).
COLLECTIVE_CELLS = [
    ("SpectralFly", "minimal", "allreduce", "ring", 12, 7),
    ("DragonFly", "ugal", "reduce-scatter", "rabenseifner", 11, 7),
    ("SlimFly", "valiant", "allgather", "binary-tree", 16, 7),
    ("BundleFly", "minimal", "allreduce", "recursive-doubling", 16, 7),
]
COLLECTIVE_BYTES = 1 << 13

#: Congestion corpus cells (schema 4):
#: (family, routing, buffer_packets, loss_prob, max_attempts, seed).
#: ``buffer_packets=0`` means unbounded buffers, ``loss_prob=0.0`` means no
#: channel — so the list covers finite-only, lossy-only, and the stacked
#: finite+lossy paths the congestion work added to the event engine.  Drop
#: and retransmit ledgers are pinned alongside the usual per-packet fields.
CONGESTION_CELLS = [
    ("SpectralFly", "minimal", 2, 0.0, 1, 7),
    ("DragonFly", "ugal", 1, 0.0, 1, 7),
    ("SlimFly", "minimal", 0, 0.08, 1, 7),
    ("BundleFly", "minimal", 0, 0.05, 3, 7),
    ("SpectralFly", "valiant", 2, 0.04, 2, 7),
]


#: Oracle corpus cells (schema 5):
#: (family, oracle, routing, pattern, load, seed).  The same event engine,
#: but routed through an on-demand oracle instead of the dense distance
#: matrix (PR 8's scaling seam).  Oracle answers are bit-identical to
#: dense answers, so these cells pin that the *lazy* path — Cayley ball
#: lookups on SpectralFly, landmark rows on DragonFly — reproduces the
#: exact trajectories the dense tables would.
ORACLE_CELLS = [
    ("SpectralFly", "cayley", "minimal", "tornado", 0.5, 11),
    ("DragonFly", "landmark", "valiant", "random", 0.4, 11),
]

#: Searched-topology corpus cells (schema 6):
#: (n_routers, radix, budget, routing, pattern, load, seed).  The topology
#: itself is the product of a seeded edge-swap search
#: (:mod:`repro.search`), so alongside the usual event-engine stats the
#: cell pins the candidate's graph ``content_hash`` — the search
#: *trajectory* is part of the pinned behaviour, exactly as the
#: determinism contract in docs/search.md promises.
SEARCHED_CELLS = [
    (48, 4, 60, "minimal", "random", 0.5, 7),
]

#: Batched-engine corpus cells (schema 7): ``(kind, cell)`` where ``cell``
#: is a tuple of the event section of the same kind, run on
#: ``backend="batched"``.  Open-loop cells cover all four policies, then
#: one cell each for the fault epochs, the credit + lossy-link loop, the
#: closed-loop motif and collective driver, and oracle routing.  Every
#: :class:`SimStats` field is pinned, ``n_events`` and
#: ``max_queue_bytes`` included.
BATCHED_CELLS = [
    ("open", ("SpectralFly", "minimal", "shuffle", 0.4, 7)),
    ("open", ("DragonFly", "valiant", "shuffle", 0.4, 7)),
    ("open", ("SpectralFly", "ugal", "random", 0.5, 7)),
    ("open", ("DragonFly", "ugal-g", "transpose", 0.3, 7)),
    ("fault", ("BundleFly", "minimal", 0.15, False, 7)),
    ("congestion", ("SpectralFly", "valiant", 2, 0.04, 2, 7)),
    ("motif", ("DragonFly", "ugal", "halo3d", 7)),
    ("collective",
     ("DragonFly", "ugal", "reduce-scatter", "rabenseifner", 11, 7)),
    ("oracle", ("SpectralFly", "cayley", "minimal", "tornado", 0.5, 11)),
]

def make_motif(kind: str, n_ranks: int):
    """The corpus motif instances (small and fixed, like the cells)."""
    if kind == "fft":
        return FFTMotif.balanced(n_ranks)
    if kind == "halo3d":
        return Halo3D26Motif((4, 4, 4), iterations=1)
    if kind == "sweep3d":
        return Sweep3DMotif((8, 8), sweeps=1)
    raise ValueError(kind)


def cell_id(cell) -> str:
    family, routing, pattern, load, seed = cell
    return f"{family}-{routing}-{pattern}-l{load}-s{seed}"


def motif_cell_id(cell) -> str:
    family, routing, kind, seed = cell
    return f"{family}-{routing}-{kind}-s{seed}"


def fault_cell_id(cell) -> str:
    family, routing, fraction, recover, seed = cell
    return (
        f"{family}-{routing}-f{fraction}"
        f"-{'rec' if recover else 'norec'}-s{seed}"
    )


def collective_cell_id(cell) -> str:
    family, routing, coll, algo, p, seed = cell
    return f"{family}-{routing}-{coll}-{algo}-p{p}-s{seed}"


def oracle_cell_id(cell) -> str:
    family, oracle, routing, pattern, load, seed = cell
    return f"{family}-{oracle}-{routing}-{pattern}-l{load}-s{seed}"


def congestion_cell_id(cell) -> str:
    family, routing, bufp, loss, attempts, seed = cell
    return f"{family}-{routing}-b{bufp}-p{loss}-a{attempts}-s{seed}"


def searched_cell_id(cell) -> str:
    n, radix, budget, routing, pattern, load, seed = cell
    return f"searched-n{n}-k{radix}-b{budget}-{routing}-{pattern}-l{load}-s{seed}"


def _open_net(cell, backend):
    family, routing, pattern, load, seed = cell
    spec = SIM_CONFIGS["small"]["topologies"][family]
    return build_synthetic_sim(
        spec["build"](),
        routing,
        pattern,
        load,
        concentration=spec["concentration"],
        n_ranks=N_RANKS,
        packets_per_rank=PACKETS_PER_RANK,
        seed=seed,
        backend=backend,
    )


def collect_cell(cell) -> dict:
    """Run one corpus cell on the event backend; return its stats dict."""
    stats = _open_net(cell, "event").run()
    return {field: getattr(stats, field) for field in FIELDS}


def collect_motif_cell(cell) -> dict:
    """Run one motif cell on the event engine; pin its full summary.

    ``run_motif``'s summary already carries every per-run observable a
    motif produces (latency percentiles, hops, makespan, counters); the
    floats round-trip JSON exactly, so equality pins the trajectory.
    """
    family, routing, kind, seed = cell
    spec = SIM_CONFIGS["small"]["topologies"][family]
    topo = spec["build"]()
    tables = cached_tables(topo)
    policy = make_routing(routing, tables, seed=seed)
    out = run_motif(
        topo, policy, make_motif(kind, N_RANKS),
        SimConfig(concentration=spec["concentration"]),
        placement_seed=seed + 1, backend="event",
    )
    return out


def _fault_net(cell, backend):
    family, routing, fraction, recover, seed = cell
    spec = SIM_CONFIGS["small"]["topologies"][family]
    topo = spec["build"]()
    cfg = SimConfig(concentration=spec["concentration"])
    load = 0.5
    horizon = (
        PACKETS_PER_RANK * cfg.packet_bytes / (load * cfg.bytes_per_ns)
    )
    schedule = FaultSchedule.random_link_faults(
        topo.graph,
        fraction,
        t_fail=0.25 * horizon,
        seed=seed * 13 + 1,
        t_recover=0.75 * horizon if recover else None,
    )
    return build_synthetic_sim(
        topo, routing, "random", load,
        concentration=spec["concentration"], n_ranks=N_RANKS,
        packets_per_rank=PACKETS_PER_RANK, seed=seed,
        faults=schedule, backend=backend,
    )


def collect_fault_cell(cell) -> dict:
    """Run one faulted open-loop cell on the event engine; pin SimStats.

    Includes the fault-specific observables on top of :data:`FIELDS`:
    drops by cause and the complete epoch ledger.
    """
    stats = _fault_net(cell, "event").run()
    out = {field: getattr(stats, field) for field in FIELDS}
    out["drops"] = dict(stats.drops)
    out["epochs"] = list(stats.epochs)
    return out


def collect_collective_cell(cell) -> dict:
    """Run one collective cell on the event engine; pin its full summary.

    ``run_collective``'s output carries the whole observable surface of a
    chunk-level schedule — delivery counters, makespan, final ownership,
    and the per-chunk completion instants (``chunk_done_ns``), so equality
    pins each chunk's trajectory, not just the aggregate.
    """
    family, routing, coll, algo, p, seed = cell
    spec = SIM_CONFIGS["small"]["topologies"][family]
    topo = spec["build"]()
    tables = cached_tables(topo)
    policy = make_routing(routing, tables, seed=seed)
    return run_collective(
        topo, policy,
        CollectiveMotif(coll, algo, p, total_bytes=COLLECTIVE_BYTES),
        SimConfig(concentration=spec["concentration"]),
        placement_seed=seed + 1, backend="event",
    )


def _congestion_net(cell, backend):
    family, routing, bufp, loss, attempts, seed = cell
    spec = SIM_CONFIGS["small"]["topologies"][family]
    channel = None
    if loss > 0.0:
        channel = ChannelConfig(
            loss_prob=loss, jitter_ns=12.0, extra_latency_ns=3.0,
            max_attempts=attempts, backoff_ns=30.0, seed=seed,
        )
    cfg = SimConfig(
        concentration=spec["concentration"],
        finite_buffers=bufp > 0,
        buffer_bytes=max(bufp, 1) * 4096,
        channel=channel,
    )
    return build_synthetic_sim(
        spec["build"](), routing, "random", 0.5,
        concentration=spec["concentration"], n_ranks=N_RANKS,
        packets_per_rank=PACKETS_PER_RANK, seed=seed,
        config=cfg, backend=backend,
    )


def collect_congestion_cell(cell) -> dict:
    """Run one congested open-loop cell on the event engine; pin SimStats.

    On top of :data:`FIELDS` this pins the congestion-specific ledgers:
    drops itemized by cause and the retransmit counter — the exact
    accounting the batched engine must reproduce.
    """
    stats = _congestion_net(cell, "event").run()
    out = {field: getattr(stats, field) for field in FIELDS}
    out["drops"] = dict(stats.drops)
    out["n_retransmits"] = stats.n_retransmits
    return out


def _run_oracle_net(cell, backend):
    family, oracle, routing, pattern, load, seed = cell
    spec = SIM_CONFIGS["small"]["topologies"][family]
    net = build_synthetic_sim(
        spec["build"](),
        routing,
        pattern,
        load,
        concentration=spec["concentration"],
        n_ranks=N_RANKS,
        packets_per_rank=PACKETS_PER_RANK,
        seed=seed,
        backend=backend,
        oracle=oracle,
    )
    assert net.tables.is_lazy and net.tables._dist is None
    stats = net.run()
    assert net.tables._dist is None, "oracle cell densified mid-run"
    return stats


def collect_oracle_cell(cell) -> dict:
    """Run one oracle-routed open-loop cell on the event engine.

    The run must stay lazy end to end (no dense matrix materialised);
    the pinned stats are the same :data:`FIELDS` as the dense cells.
    """
    stats = _run_oracle_net(cell, "event")
    return {field: getattr(stats, field) for field in FIELDS}


def collect_searched_cell(cell) -> dict:
    """Build a searched topology and run it on the event engine.

    Pins the search output (the candidate's ``content_hash`` plus its
    seed/best fitness to full float precision) *and* the resulting
    simulation trajectory, so either a drifted search RNG or a drifted
    engine fails this cell.
    """
    from repro.topology.searched import swap_searched_topology

    n, radix, budget, routing, pattern, load, seed = cell
    topo = swap_searched_topology(n, radix, budget=budget, seed=seed)
    net = build_synthetic_sim(
        topo, routing, pattern, load,
        concentration=2, n_ranks=N_RANKS,
        packets_per_rank=PACKETS_PER_RANK, seed=seed, backend="event",
    )
    stats = net.run()
    out = {field: getattr(stats, field) for field in FIELDS}
    out["graph_hash"] = topo.graph.content_hash()
    out["seed_fitness"] = topo.provenance["seed_fitness"]
    out["best_fitness"] = topo.provenance["best_fitness"]
    return out


def batched_cell_id(entry) -> str:
    kind, cell = entry
    ids = {
        "open": cell_id,
        "fault": fault_cell_id,
        "congestion": congestion_cell_id,
        "motif": motif_cell_id,
        "collective": collective_cell_id,
        "oracle": oracle_cell_id,
    }
    return f"{kind}:{ids[kind](cell)}"


def _closed_loop_stats(family, routing, motif, seed):
    """Run a motif DAG on the batched closed-loop driver directly.

    Mirrors ``run_motif``'s batched path but keeps the raw
    :class:`SimStats` (the motif summary drops ``n_events`` and
    ``max_queue_bytes``) and the per-message delivery instants that
    ``run_collective`` derives its chunk completion times from.
    """
    spec = SIM_CONFIGS["small"]["topologies"][family]
    topo = spec["build"]()
    policy = make_routing(routing, cached_tables(topo), seed=seed)
    net = BatchedSimulator(
        topo, policy, SimConfig(concentration=spec["concentration"]),
        tables=policy.tables,
    )
    r2e = place_ranks(motif.n_ranks, net.n_endpoints, seed=seed + 1)
    stats = net.run_closed_loop(motif.generate(), r2e)
    out = dataclasses.asdict(stats)
    out["t_delivered_ns"] = net._t_del.tolist()
    return out


def collect_batched_cell(entry) -> dict:
    """Run one batched-engine cell; pin every SimStats field."""
    kind, cell = entry
    if kind == "motif":
        family, routing, motif_kind, seed = cell
        return _closed_loop_stats(
            family, routing, make_motif(motif_kind, N_RANKS), seed
        )
    if kind == "collective":
        family, routing, coll, algo, p, seed = cell
        motif = CollectiveMotif(coll, algo, p, total_bytes=COLLECTIVE_BYTES)
        return _closed_loop_stats(family, routing, motif, seed)
    if kind == "oracle":
        stats = _run_oracle_net(cell, "batched")
    else:
        build = {
            "open": _open_net,
            "fault": _fault_net,
            "congestion": _congestion_net,
        }[kind]
        stats = build(cell, "batched").run()
    return dataclasses.asdict(stats)


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        f"missing {GOLDEN_PATH}; generate it with "
        "`python scripts/make_golden_sim.py`"
    )
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenCorpus:
    def test_corpus_matches_cell_list(self, golden):
        assert list(golden["cells"]) == [cell_id(c) for c in CELLS]
        assert list(golden["motif_cells"]) == [
            motif_cell_id(c) for c in MOTIF_CELLS
        ]
        assert list(golden["fault_cells"]) == [
            fault_cell_id(c) for c in FAULT_CELLS
        ]
        assert list(golden["collective_cells"]) == [
            collective_cell_id(c) for c in COLLECTIVE_CELLS
        ]
        assert list(golden["congestion_cells"]) == [
            congestion_cell_id(c) for c in CONGESTION_CELLS
        ]
        assert list(golden["oracle_cells"]) == [
            oracle_cell_id(c) for c in ORACLE_CELLS
        ]
        assert list(golden["searched_cells"]) == [
            searched_cell_id(c) for c in SEARCHED_CELLS
        ]
        assert list(golden["batched"]) == [
            batched_cell_id(c) for c in BATCHED_CELLS
        ]
        assert golden["schema"] == 7
        assert golden["backends"] == ["event", "batched"]
        assert golden["n_ranks"] == N_RANKS
        assert golden["packets_per_rank"] == PACKETS_PER_RANK

    @pytest.mark.parametrize("cell", CELLS, ids=cell_id)
    def test_event_backend_bit_for_bit(self, golden, cell):
        expected = golden["cells"][cell_id(cell)]
        actual = collect_cell(cell)
        for field in FIELDS:
            assert actual[field] == expected[field], (
                f"SimStats.{field} drifted in {cell_id(cell)} — if the "
                "change is intentional, regenerate the corpus with "
                "scripts/make_golden_sim.py and say so in the commit"
            )

    @pytest.mark.parametrize("cell", MOTIF_CELLS, ids=motif_cell_id)
    def test_event_motif_bit_for_bit(self, golden, cell):
        expected = golden["motif_cells"][motif_cell_id(cell)]
        actual = collect_motif_cell(cell)
        assert set(actual) == set(expected)
        for key in expected:
            assert actual[key] == expected[key], (
                f"motif summary {key!r} drifted in {motif_cell_id(cell)} — "
                "the event DAG runner is the batched engine's oracle; if "
                "the change is intentional, regenerate with "
                "scripts/make_golden_sim.py and say so in the commit"
            )

    @pytest.mark.parametrize("cell", FAULT_CELLS, ids=fault_cell_id)
    def test_event_faulted_bit_for_bit(self, golden, cell):
        expected = golden["fault_cells"][fault_cell_id(cell)]
        actual = collect_fault_cell(cell)
        assert set(actual) == set(expected)
        for key in expected:
            assert actual[key] == expected[key], (
                f"faulted SimStats {key!r} drifted in "
                f"{fault_cell_id(cell)} — the degraded event path is the "
                "batched engine's oracle; if the change is intentional, "
                "regenerate with scripts/make_golden_sim.py and say so in "
                "the commit"
            )

    @pytest.mark.parametrize("cell", COLLECTIVE_CELLS, ids=collective_cell_id)
    def test_event_collective_bit_for_bit(self, golden, cell):
        expected = golden["collective_cells"][collective_cell_id(cell)]
        actual = collect_collective_cell(cell)
        assert set(actual) == set(expected)
        for key in expected:
            assert actual[key] == expected[key], (
                f"collective summary {key!r} drifted in "
                f"{collective_cell_id(cell)} — per-chunk completion times "
                "are pinned bit for bit; if the change is intentional, "
                "regenerate with scripts/make_golden_sim.py and say so in "
                "the commit"
            )

    @pytest.mark.parametrize("cell", CONGESTION_CELLS, ids=congestion_cell_id)
    def test_event_congested_bit_for_bit(self, golden, cell):
        expected = golden["congestion_cells"][congestion_cell_id(cell)]
        actual = collect_congestion_cell(cell)
        assert set(actual) == set(expected)
        for key in expected:
            assert actual[key] == expected[key], (
                f"congested SimStats {key!r} drifted in "
                f"{congestion_cell_id(cell)} — the finite-buffer/lossy "
                "event path is the batched engine's oracle; if the change "
                "is intentional, regenerate with scripts/make_golden_sim.py "
                "and say so in the commit"
            )

    @pytest.mark.parametrize("cell", ORACLE_CELLS, ids=oracle_cell_id)
    def test_event_oracle_bit_for_bit(self, golden, cell):
        expected = golden["oracle_cells"][oracle_cell_id(cell)]
        actual = collect_oracle_cell(cell)
        for field in FIELDS:
            assert actual[field] == expected[field], (
                f"oracle-routed SimStats.{field} drifted in "
                f"{oracle_cell_id(cell)} — lazy routing must reproduce the "
                "dense trajectories exactly; if the change is intentional, "
                "regenerate with scripts/make_golden_sim.py and say so in "
                "the commit"
            )

    @pytest.mark.parametrize("cell", SEARCHED_CELLS, ids=searched_cell_id)
    def test_event_searched_bit_for_bit(self, golden, cell):
        expected = golden["searched_cells"][searched_cell_id(cell)]
        actual = collect_searched_cell(cell)
        assert set(actual) == set(expected)
        for key in expected:
            assert actual[key] == expected[key], (
                f"searched-topology cell {key!r} drifted in "
                f"{searched_cell_id(cell)} — the cell pins the search "
                "trajectory (graph_hash, fitness) AND the simulation; if "
                "the change is intentional, regenerate with "
                "scripts/make_golden_sim.py and say so in the commit"
            )

    @pytest.mark.parametrize("entry", BATCHED_CELLS, ids=batched_cell_id)
    def test_batched_backend_bit_for_bit(self, golden, entry):
        expected = golden["batched"][batched_cell_id(entry)]
        actual = collect_batched_cell(entry)
        assert set(actual) == set(expected)
        for key in expected:
            assert actual[key] == expected[key], (
                f"batched SimStats {key!r} drifted in "
                f"{batched_cell_id(entry)}; if the change is intentional, "
                "regenerate with scripts/make_golden_sim.py and say so in "
                "the commit"
            )

    def test_batched_cells_exercise_every_loop(self, golden):
        # Each scenario cell must reach the loop branch it exists to pin.
        cells = golden["batched"]
        by_kind = {k: cells[batched_cell_id((k, c))] for k, c in BATCHED_CELLS}
        assert {c[1][1] for c in BATCHED_CELLS if c[0] == "open"} == {
            "minimal", "valiant", "ugal", "ugal-g"
        }
        assert by_kind["fault"]["n_requeued"] + by_kind["fault"][
            "n_dropped"] > 0
        assert by_kind["congestion"]["n_retransmits"] > 0
        assert len(by_kind["collective"]["t_delivered_ns"]) > 0
        for c in cells.values():
            assert c["n_events"] > 0 and c["max_queue_bytes"] > 0

    def test_searched_cell_actually_searched(self, golden):
        # A searched cell whose candidate equals its seed pins nothing
        # about the search; the fitness gain must be strictly positive.
        for c in golden["searched_cells"].values():
            assert c["best_fitness"] > c["seed_fitness"]
            assert c["n_injected"] > 0

    def test_oracle_cells_cover_both_lazy_kinds(self, golden):
        assert {c[1] for c in ORACLE_CELLS} == {"cayley", "landmark"}
        # The cells must have genuinely simulated something.
        for c in golden["oracle_cells"].values():
            assert c["n_injected"] > 0
            assert len(c["latencies_ns"]) == c["n_injected"]

    def test_congestion_cells_actually_exercise_the_features(self, golden):
        # A congestion corpus where the channel never drops, never
        # retransmits, or the buffers never matter pins nothing.
        cells = golden["congestion_cells"].values()
        assert any(c["n_dropped"] > 0 for c in cells)
        assert any(c["n_retransmits"] > 0 for c in cells)
        for c in cells:
            assert sum(c["drops"].values()) == c["n_dropped"]
            assert len(c["latencies_ns"]) + c["n_dropped"] == c["n_injected"]

    def test_collective_cells_pin_per_chunk_times(self, golden):
        # Every collective cell carries one completion instant per chunk,
        # the last of which *is* the makespan (the exact-boundary drain
        # invariant), and a complete ownership end state.
        for c in golden["collective_cells"].values():
            assert len(c["chunk_done_ns"]) == c["n_chunks"] == c["n_ranks"]
            assert max(c["chunk_done_ns"]) == c["makespan_ns"]
            assert c["ownership_complete"] is True

    def test_fault_cells_actually_exercise_faults(self, golden):
        # A faulted corpus that never drops or reroutes pins nothing.
        cells = golden["fault_cells"].values()
        assert any(c["n_dropped"] > 0 for c in cells)
        assert any(c["nonminimal_hops"] > 0 for c in cells)
        assert all(len(c["epochs"]) > 0 for c in cells)

    def test_corpus_spans_families_and_routings(self):
        assert {c[0] for c in CELLS} == set(
            SIM_CONFIGS["small"]["topologies"]
        )
        assert {c[1] for c in CELLS} == {
            "minimal", "valiant", "ugal", "ugal-g"
        }
        # The scenario cells keep their own axes covered too.
        assert {c[2] for c in MOTIF_CELLS} == {"fft", "halo3d", "sweep3d"}
        assert {c[3] for c in FAULT_CELLS} == {True, False}
        # Collective cells span all four algorithms and include the
        # non-power-of-two fold path.
        assert {c[3] for c in COLLECTIVE_CELLS} == {
            "ring", "recursive-doubling", "binary-tree", "rabenseifner"
        }
        assert any(c[4] & (c[4] - 1) for c in COLLECTIVE_CELLS)
