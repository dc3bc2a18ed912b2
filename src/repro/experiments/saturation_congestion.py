"""Saturation under congestion: does the routing ranking survive realism?

The paper's simulations (and every sweep up to this one) assume ideal
links and unbounded router buffers, where minimal routing wins almost
every benign-traffic cell — shortest paths, no detours, nothing pushes
back.  This experiment re-runs the routing comparison with the two
realism knobs the congestion work added (``docs/congestion.md``):

* **finite buffers** — credit/backpressure flow control with one-packet
  input buffers, where a hot link stalls its whole upstream tree;
* **lossy links** — per-crossing loss with bounded retransmit, which
  taxes long paths more than short ones (more crossings, more draws).

The headline observable is the *routing ranking* per cell — the policies
ordered by mean latency — and whether it differs from the ideal-network
ranking of the same family.  Under tight buffers the ranking inverts on
every paper family: minimal routing concentrates traffic onto few links,
and once those links push back, adaptive spreading (UGAL) overtakes it —
exactly the regime argument for adaptive routing that ideal-network
sweeps cannot show (``tests/test_experiments_congestion.py`` pins one
such inversion).
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, build_synthetic_sim
from repro.sim import ChannelConfig, SimConfig
from repro.topology import SIM_CONFIGS

#: (buffer_packets, loss_prob) regimes: ideal baseline first (the ranking
#: reference), then each knob alone, then both stacked.  buffer_packets=0
#: means unbounded buffers; loss_prob=0 means no channel attached.
REGIMES = ((0, 0.0), (1, 0.0), (0, 0.05), (1, 0.05))


def _ranking(latencies: dict[str, float]) -> tuple[str, ...]:
    return tuple(sorted(latencies, key=lambda r: latencies[r]))


def run(
    scale: str = "small",
    families: tuple[str, ...] = (
        "SpectralFly", "DragonFly", "SlimFly", "BundleFly"
    ),
    routings: tuple[str, ...] = ("minimal", "valiant", "ugal"),
    regimes: tuple[tuple[int, float], ...] = REGIMES,
    pattern: str = "tornado",
    load: float = 0.55,
    packets_per_rank: int = 10,
    max_attempts: int = 2,
    seed: int = 0,
    backend: str = "batched",
) -> ExperimentResult:
    cfg = SIM_CONFIGS[scale]
    rows = []
    for name in families:
        spec = cfg["topologies"][name]
        topo = spec["build"]()
        baseline_ranking: tuple[str, ...] | None = None
        for buffer_packets, loss_prob in regimes:
            channel = None
            if loss_prob > 0.0:
                channel = ChannelConfig(
                    loss_prob=loss_prob, jitter_ns=10.0,
                    max_attempts=max_attempts, backoff_ns=30.0, seed=seed,
                )
            sim_cfg = SimConfig(
                concentration=spec["concentration"],
                finite_buffers=buffer_packets > 0,
                buffer_bytes=max(buffer_packets, 1) * 4096,
                channel=channel,
            )
            latencies: dict[str, float] = {}
            delivered_min = 1.0
            dropped = 0
            retransmits = 0
            for routing in routings:
                net = build_synthetic_sim(
                    topo, routing, pattern, load,
                    concentration=spec["concentration"],
                    n_ranks=cfg["n_ranks"],
                    packets_per_rank=packets_per_rank, seed=seed,
                    config=sim_cfg, backend=backend,
                )
                stats = net.run()
                out = stats.summary()
                latencies[routing] = out["mean_latency_ns"]
                delivered_min = min(delivered_min, out["delivered_fraction"])
                dropped += stats.n_dropped
                retransmits += stats.n_retransmits
            ranking = _ranking(latencies)
            if baseline_ranking is None:
                # regimes[0] is the ideal network: the ranking reference.
                baseline_ranking = ranking
            rows.append(
                {
                    "topology": name,
                    "buffers": (
                        "unbounded" if buffer_packets == 0
                        else f"{buffer_packets} pkt"
                    ),
                    "loss_prob": loss_prob,
                    "best_routing": ranking[0],
                    "ranking": ">".join(ranking),
                    "ranking_inverted": ranking != baseline_ranking,
                    **{
                        f"{r}_latency_ns": round(latencies[r])
                        for r in routings
                    },
                    "min_delivered_fraction": round(delivered_min, 4),
                    "dropped": dropped,
                    "retransmits": retransmits,
                }
            )
    return ExperimentResult(
        experiment=(
            f"Saturation under congestion — {pattern} traffic at "
            f"{load:.0%} load ({scale} scale)"
        ),
        rows=rows,
        notes=(
            "ranking orders the policies by mean latency (best first); "
            "ranking_inverted compares against the same family's "
            "unbounded/lossless baseline.  Tight buffers reward path "
            "diversity: expect UGAL to overtake minimal at 1-packet "
            "buffers (see docs/congestion.md)."
        ),
    )


if __name__ == "__main__":
    print(run().to_text())
