"""The process-sharded batched engine (``backend="sharded"``).

The sharded engine is the batched cycle loop fanned out over forked
workers that own contiguous router ranges and exchange boundary packets
per cycle (BSP over pipes; see ``docs/scaling.md``).  Pinned here:

* **Conservation** — every injected packet is delivered, exactly once,
  under any worker count.
* **Determinism** — a fixed ``(seed, shard_workers)`` gives identical
  stats across repeat runs.
* **Statistical agreement** — aggregate latency/hops match the
  single-process batched engine closely (the sharded loop makes the same
  routing decisions; only RNG streams differ per worker).
* **Honest refusals** — ugal (needs global queue state) and every
  unsupported capability raise canonically instead of silently running
  wrong.
* **Worker crashes** — a worker that dies mid-run raises a structured
  ``ShardWorkerError`` and leaves no child process behind.

``MIN_PACKETS_TO_SHARD`` is monkeypatched to 0 so these small runs take
the real forked path rather than the single-process fallback.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp

import numpy as np
import pytest

import repro.sim.sharded as sharded_mod
from repro.errors import (
    BackendCapabilityError,
    ShardWorkerError,
    SimulationError,
)
from repro.experiments.common import build_synthetic_sim
from repro.routing import RoutingTables, make_routing
from repro.sim import ShardedSimulator, SimConfig
from repro.sim.faults import FaultSchedule
from repro.topology import build_lps

from repro.partition import contiguous_ranges


@pytest.fixture(scope="module")
def topo():
    return build_lps(3, 5)


@pytest.fixture(autouse=True)
def always_fork(monkeypatch):
    monkeypatch.setattr(sharded_mod, "MIN_PACKETS_TO_SHARD", 0)


def _stats_dict(stats):
    d = dataclasses.asdict(stats)
    # n_events counts per-worker bookkeeping; max_queue_bytes is a local
    # peak — both are diagnostics, not simulation results.
    d.pop("n_events", None)
    d.pop("max_queue_bytes", None)
    return d


def _run(topo, workers, seed=0, routing="minimal", load=0.5, ppr=6,
         pattern="random"):
    net = build_synthetic_sim(
        topo, routing, pattern, load, concentration=2, n_ranks=32,
        packets_per_rank=ppr, seed=seed, backend="sharded",
        config=SimConfig(concentration=2, shard_workers=workers),
    )
    return net.run()


class TestContiguousRanges:
    def test_partitions_exactly_and_front_loads_the_remainder(self):
        spans = contiguous_ranges(10, 3)
        assert spans == [(0, 4), (4, 7), (7, 10)]
        for n, k in [(1, 1), (7, 7), (100, 3), (5, 8)]:
            spans = contiguous_ranges(n, k)
            assert spans[0][0] == 0 and spans[-1][1] == n
            for (a, b), (c, _) in zip(spans, spans[1:]):
                # Abutting, ordered; spans may be empty only when k > n
                # (the engine caps workers at n_routers, so it never
                # sees an empty span).
                assert b == c and b >= a
            if k <= n:
                assert all(b > a for a, b in spans)

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError, match="at least one part"):
            contiguous_ranges(5, 0)


class TestConservation:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_every_packet_delivers_exactly_once(self, topo, workers):
        stats = _run(topo, workers, seed=workers)
        assert stats.n_injected == 32 * 6
        assert len(stats.latencies_ns) == stats.n_injected
        assert len(stats.hops) == stats.n_injected
        # Zero hops is legal: both endpoints on the same router.
        assert min(stats.hops) >= 0
        assert min(stats.latencies_ns) > 0

    def test_valiant_also_conserves(self, topo):
        stats = _run(topo, 2, seed=5, routing="valiant")
        assert len(stats.latencies_ns) == stats.n_injected > 0
        # Valiant detours must show up as extra hops on average.
        minimal = _run(topo, 2, seed=5, routing="minimal")
        assert np.mean(stats.hops) > np.mean(minimal.hops)


class TestDeterminism:
    def test_identical_stats_across_repeat_runs(self, topo):
        a = _stats_dict(_run(topo, 2, seed=11))
        b = _stats_dict(_run(topo, 2, seed=11))
        assert a == b

    def test_seed_changes_the_run(self, topo):
        a = _run(topo, 2, seed=11)
        b = _run(topo, 2, seed=12)
        assert sorted(a.latencies_ns) != sorted(b.latencies_ns)


class TestAgreementWithBatched:
    @pytest.mark.parametrize("routing", ["minimal", "valiant"])
    def test_aggregates_match_single_process_engine(self, topo, routing):
        net = build_synthetic_sim(
            topo, routing, "random", 0.5, concentration=2, n_ranks=32,
            packets_per_rank=12, seed=3, backend="batched",
        )
        ref = net.run()
        got = _run(topo, 2, seed=3, routing=routing, ppr=12)
        assert got.n_injected == ref.n_injected
        assert len(got.latencies_ns) == len(ref.latencies_ns)
        # Worker RNG streams differ from the batched engine's single
        # stream, so runs are statistically — not bitwise — equivalent.
        assert np.mean(got.hops) == pytest.approx(np.mean(ref.hops), rel=0.05)
        assert np.mean(got.latencies_ns) == pytest.approx(
            np.mean(ref.latencies_ns), rel=0.10
        )

    def test_minimal_routing_hop_counts_are_exact_distances(self, topo):
        """Hops on minimal routing are distance-determined, so the sharded
        engine must reproduce the batched multiset exactly."""
        net = build_synthetic_sim(
            topo, "minimal", "transpose", 0.5, concentration=2, n_ranks=32,
            packets_per_rank=8, seed=9, backend="batched",
        )
        ref = net.run()
        got = _run(topo, 3, seed=9, ppr=8, pattern="transpose")
        # Same sources, same destinations, same minimal distances.
        assert sorted(got.hops) == sorted(ref.hops)


class TestRefusals:
    def test_ugal_needs_global_queue_state(self, topo):
        tables = RoutingTables(topo.graph)
        with pytest.raises(SimulationError, match="ugal"):
            ShardedSimulator(
                topo, make_routing("ugal", tables, seed=0),
                SimConfig(concentration=2), tables=tables,
            )

    def test_fault_schedules_are_refused_canonically(self, topo):
        schedule = FaultSchedule.random_link_faults(
            topo.graph, 0.05, t_fail=2000.0, seed=1
        )
        with pytest.raises(BackendCapabilityError):
            build_synthetic_sim(
                topo, "minimal", "random", 0.5, concentration=2, n_ranks=8,
                packets_per_rank=2, seed=0, faults=schedule,
                backend="sharded",
            )

    def test_closed_loop_is_refused_canonically(self, topo):
        tables = RoutingTables(topo.graph)
        net = ShardedSimulator(
            topo, make_routing("minimal", tables, seed=0),
            SimConfig(concentration=2), tables=tables,
        )
        with pytest.raises(BackendCapabilityError):
            net.run_closed_loop([], np.arange(4, dtype=np.int64))


class TestFallback:
    def test_below_threshold_runs_single_process(self, topo, monkeypatch):
        monkeypatch.setattr(sharded_mod, "MIN_PACKETS_TO_SHARD", 10**9)
        stats = _run(topo, 2, seed=1)
        assert len(stats.latencies_ns) == stats.n_injected > 0

    def test_one_worker_requested_runs_single_process(self, topo):
        a = _stats_dict(_run(topo, 1, seed=4))
        assert a["n_injected"] > 0


class TestOracleBackedSharding:
    def test_sharded_run_with_cayley_oracle_stays_lazy(self, topo):
        """The tentpole composition: oracle routing + sharded engine, no
        dense matrix anywhere."""
        net = build_synthetic_sim(
            topo, "minimal", "random", 0.4, concentration=2, n_ranks=32,
            packets_per_rank=4, seed=7, backend="sharded", oracle="cayley",
            config=SimConfig(concentration=2, shard_workers=2),
        )
        stats = net.run()
        assert len(stats.latencies_ns) == stats.n_injected > 0
        assert net.tables._dist is None


class TestWorkerCrash:
    def test_crash_raises_structured_error_and_reaps_workers(
        self, topo, monkeypatch
    ):
        real_loop = ShardedSimulator._worker_loop

        def crash_worker_1(self, wid, lo, hi, conn, root):
            if wid == 1:
                raise RuntimeError("injected worker crash")
            return real_loop(self, wid, lo, hi, conn, root)

        monkeypatch.setattr(ShardedSimulator, "_worker_loop", crash_worker_1)
        with pytest.raises(ShardWorkerError) as info:
            _run(topo, 3, seed=2)
        err = info.value
        assert isinstance(err, SimulationError)
        assert err.worker == 1
        assert err.span == contiguous_ranges(topo.graph.n, 3)[1]
        assert f"routers [{err.span[0]}, {err.span[1]})" in str(err)
        # The surviving workers were terminated and joined, not leaked.
        assert mp.active_children() == []
