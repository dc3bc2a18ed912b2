"""Saturation analysis: where does each topology stop absorbing load?

Section VI observes that "at or beyond 70% of the network capacity, the
network becomes saturated".  This experiment makes that observation
measurable: sweep the offered load, record mean latency, and report the
saturation knee — the lowest load whose mean latency exceeds
``knee_factor`` x the lowest-load latency.  Topologies with more bisection
bandwidth and path diversity saturate later; SpectralFly's knee should sit
at or above every competitor's under permutation traffic.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, run_synthetic_sim
from repro.topology import SIM_CONFIGS

DEFAULT_LOADS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def find_knee(latencies: list[tuple[float, float]], knee_factor: float) -> float | None:
    """Lowest load whose latency exceeds knee_factor x the base latency.

    ``latencies`` is a list of (load, mean latency) sorted by load; returns
    None when the sweep never saturates.
    """
    if not latencies:
        return None
    base = latencies[0][1]
    for load, lat in latencies:
        if lat > knee_factor * base:
            return load
    return None


def run(
    scale: str = "small",
    pattern: str = "shuffle",
    loads: tuple[float, ...] = DEFAULT_LOADS,
    routing: str = "ugal",
    packets_per_rank: int = 15,
    knee_factor: float = 1.5,
    seed: int = 0,
    backend: str = "batched",
) -> ExperimentResult:
    cfg = SIM_CONFIGS[scale]
    rows = []
    for name, spec in cfg["topologies"].items():
        topo = spec["build"]()
        series = []
        for load in loads:
            res = run_synthetic_sim(
                topo,
                routing,
                pattern,
                load,
                concentration=spec["concentration"],
                n_ranks=cfg["n_ranks"],
                packets_per_rank=packets_per_rank,
                seed=seed,
                backend=backend,
            )
            series.append((load, res["mean_latency_ns"]))
        knee = find_knee(series, knee_factor)
        rows.append(
            {
                "topology": name,
                "pattern": pattern,
                "routing": routing,
                "base_latency_ns": round(series[0][1]),
                "top_latency_ns": round(series[-1][1]),
                "saturation_load": knee if knee is not None else ">max",
                "latency_series": "/".join(f"{int(l)}" for _, l in series),
            }
        )
    return ExperimentResult(
        experiment=f"Saturation sweep — {pattern} traffic, {routing} routing "
        f"({scale} scale)",
        rows=rows,
        notes=f"saturation_load = first load with mean latency > "
        f"{knee_factor}x the {loads[0]:.0%}-load latency; higher is better",
    )


if __name__ == "__main__":
    print(run().to_text())
