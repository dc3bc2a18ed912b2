"""Figure 8: Valiant vs minimal routing on SpectralFly.

Runs the four micro-benchmarks on the SpectralFly instance only, under both
minimal and Valiant routing, and reports Valiant's time normalised to
minimal.  Paper shape: Valiant helps the structured patterns (shuffle,
reverse, transpose) and *hurts* random traffic, whose minimal paths are
already diverse.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, run_synthetic_sim, speedup
from repro.topology import SIM_CONFIGS

PATTERNS = ("random", "shuffle", "reverse", "transpose")
LOADS = (0.1, 0.2, 0.3, 0.5, 0.6, 0.7)


def run(
    scale: str = "small",
    patterns: tuple[str, ...] = PATTERNS,
    loads: tuple[float, ...] = LOADS,
    packets_per_rank: int = 20,
    seed: int = 0,
    backend: str = "batched",
) -> ExperimentResult:
    cfg = SIM_CONFIGS[scale]
    spec = cfg["topologies"]["SpectralFly"]
    topo = spec["build"]()
    rows = []
    for pattern in patterns:
        for load in loads:
            res_min = run_synthetic_sim(
                topo, "minimal", pattern, load,
                concentration=spec["concentration"],
                n_ranks=cfg["n_ranks"],
                packets_per_rank=packets_per_rank, seed=seed,
                backend=backend,
            )
            res_val = run_synthetic_sim(
                topo, "valiant", pattern, load,
                concentration=spec["concentration"],
                n_ranks=cfg["n_ranks"],
                packets_per_rank=packets_per_rank, seed=seed,
                backend=backend,
            )
            rows.append(
                {
                    "pattern": pattern,
                    "load": load,
                    "minimal_max_ns": round(res_min["max_latency_ns"]),
                    "valiant_max_ns": round(res_val["max_latency_ns"]),
                    "valiant_speedup_vs_minimal": round(
                        speedup(res_min, res_val), 3
                    ),
                }
            )
    return ExperimentResult(
        experiment=f"Fig 8 — Valiant vs minimal on SpectralFly ({scale} scale)",
        rows=rows,
        notes="expected shape: speedup > 1 for structured patterns at high "
        "load, < 1 for random traffic (Valiant doubles path length without "
        "adding useful diversity)",
    )


if __name__ == "__main__":
    import sys

    print(run(scale=sys.argv[1] if len(sys.argv) > 1 else "small").to_text())
