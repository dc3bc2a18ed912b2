"""The scale path: the batched engine routed through an on-demand oracle.

Past the dense-table wall (``DENSE_ORACLE_MAX`` routers) the only way to
simulate an LPS instance is the batched engine with a
:class:`~repro.routing.oracles.CayleyOracle` (or, off the algebraic
families, a :class:`~repro.routing.oracles.LandmarkOracle`) behind
:class:`~repro.routing.tables.RoutingTables`.  The bench scale cells take
exactly this path.  Pinned here, on ``LPS(3,5)`` where the dense matrix is
still cheap enough to compare against:

* **Conservation** — every injected packet is delivered exactly once,
  under every routing policy, and the tables never densify.
* **Invisibility** — an oracle run is bit-identical to the same run on
  the dense tables, open-loop and closed-loop alike (the oracles answer
  min-next-hop sets in the same order, so the policies consume the same
  RNG stream).
* **Determinism** — a fixed seed reproduces the run; a new seed moves it.
* **Engine agreement** — minimal-routing hop counts are distance-bound,
  so the batched multiset equals the event engine's exactly.
* **Retired backend** — ``backend="sharded"`` is an unknown engine at
  every entry point, with the canonical error naming the options.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import BackendCapabilityError
from repro.experiments.common import build_synthetic_sim
from repro.routing import RoutingTables, make_routing
from repro.routing.oracles import oracle_for
from repro.runner.bench import run_cell
from repro.sim import SimConfig
from repro.topology import build_lps
from repro.workloads import FFTMotif, Halo3D26Motif, Sweep3DMotif, run_motif

ROUTINGS = ("minimal", "valiant", "ugal", "ugal-g")
ORACLES = ("cayley", "landmark")
PATTERNS = ("random", "shuffle", "reverse", "transpose", "tornado")
MOTIFS = [
    ("fft", lambda: FFTMotif((4, 4))),
    ("halo3d", lambda: Halo3D26Motif((4, 4, 2), iterations=1)),
    ("sweep3d", lambda: Sweep3DMotif((4, 4), sweeps=1)),
]

N_RANKS = 32
PACKETS_PER_RANK = 6


@pytest.fixture(scope="module")
def topo():
    return build_lps(3, 5)


def _build(topo, routing="minimal", oracle="cayley", backend="batched",
           pattern="random", seed=3):
    return build_synthetic_sim(
        topo, routing, pattern, 0.5, concentration=2, n_ranks=N_RANKS,
        packets_per_rank=PACKETS_PER_RANK, seed=seed, backend=backend,
        oracle=oracle,
    )


class TestOpenLoopThroughOracle:
    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_every_packet_delivers_once_and_tables_stay_lazy(
        self, topo, routing, oracle
    ):
        net = _build(topo, routing, oracle)
        stats = net.run()
        assert stats.n_injected == N_RANKS * PACKETS_PER_RANK
        assert len(stats.latencies_ns) == stats.n_injected
        assert len(stats.hops) == stats.n_injected
        # Zero hops is legal: both endpoints on the same router.
        assert min(stats.hops) >= 0
        assert min(stats.latencies_ns) > 0
        assert net.tables.is_lazy
        assert net.tables._dist is None, "oracle run densified"

    @pytest.mark.parametrize("oracle", ORACLES)
    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_run_is_bit_identical_to_dense_tables(self, topo, routing, oracle):
        lazy = _build(topo, routing, oracle).run()
        dense = _build(topo, routing, None).run()
        assert dataclasses.asdict(lazy) == dataclasses.asdict(dense)

    @pytest.mark.parametrize("oracle", ORACLES)
    def test_valiant_detours_add_hops(self, topo, oracle):
        valiant = _build(topo, "valiant", oracle).run()
        minimal = _build(topo, "minimal", oracle).run()
        assert np.mean(valiant.hops) > np.mean(minimal.hops)


class TestDeterminism:
    @pytest.mark.parametrize("routing", ROUTINGS)
    def test_repeat_runs_are_identical(self, topo, routing):
        a = _build(topo, routing, seed=11).run()
        b = _build(topo, routing, seed=11).run()
        assert dataclasses.asdict(a) == dataclasses.asdict(b)

    def test_seed_changes_the_run(self, topo):
        a = _build(topo, seed=11).run()
        b = _build(topo, seed=12).run()
        assert sorted(a.latencies_ns) != sorted(b.latencies_ns)


class TestAgreementWithEventEngine:
    @pytest.mark.parametrize("pattern", PATTERNS)
    def test_minimal_hop_counts_match_exactly(self, topo, pattern):
        """Minimal-routing hops are fixed by the distances, so both engines
        deliver the same multiset on the same sources and destinations."""
        batched = _build(topo, pattern=pattern, seed=9).run()
        event = _build(topo, pattern=pattern, seed=9, backend="event").run()
        assert batched.n_injected == event.n_injected > 0
        assert sorted(batched.hops) == sorted(event.hops)


class TestClosedLoopThroughOracle:
    @pytest.mark.parametrize("name,factory", MOTIFS,
                             ids=[m[0] for m in MOTIFS])
    @pytest.mark.parametrize("oracle", ORACLES)
    def test_motif_is_bit_identical_to_dense_tables(
        self, topo, oracle, name, factory
    ):
        lazy = RoutingTables(topo.graph, oracle=oracle_for(topo, kind=oracle))
        dense = RoutingTables(topo.graph)
        cfg = SimConfig(concentration=2)
        got = run_motif(topo, make_routing("ugal", lazy, seed=0), factory(),
                        cfg, placement_seed=2, backend="batched")
        ref = run_motif(topo, make_routing("ugal", dense, seed=0), factory(),
                        cfg, placement_seed=2, backend="batched")
        assert got == ref
        assert got["delivered"] == len(factory().generate())
        assert lazy._dist is None, "closed-loop oracle run densified"


class TestScaleCell:
    def test_landmark_cell_runs_on_batched(self):
        cell = {
            "name": "LPS(3,5)-landmark", "p": 3, "q": 5,
            "oracle": "landmark", "routing": "minimal", "pattern": "random",
            "load": 0.3, "concentration": 2, "n_ranks": 64,
            "packets_per_rank": 2,
        }
        row = run_cell(cell, "batched")
        assert (row["backend"], row["oracle"]) == ("batched", "landmark")
        assert row["delivered"] == 64 * 2
        # The dense matrix it avoided: 120 x 120 distances of 2 bytes.
        assert row["dense_table_bytes_avoided"] == 120 * 120 * 2


class TestRetiredShardedBackend:
    def _assert_unknown(self, info):
        msg = str(info.value)
        assert "unknown simulator backend 'sharded'" in msg
        assert "options: event, batched" in msg

    def test_sim_config_rejects_it(self):
        with pytest.raises(BackendCapabilityError) as info:
            SimConfig(concentration=2, backend="sharded")
        self._assert_unknown(info)

    def test_build_synthetic_sim_rejects_it(self, topo):
        with pytest.raises(BackendCapabilityError) as info:
            _build(topo, backend="sharded")
        self._assert_unknown(info)

    def test_run_motif_rejects_it(self, topo):
        tables = RoutingTables(topo.graph)
        with pytest.raises(BackendCapabilityError) as info:
            run_motif(topo, make_routing("minimal", tables, seed=0),
                      FFTMotif((4, 4)), SimConfig(concentration=2),
                      backend="sharded")
        self._assert_unknown(info)
