"""Figure 7: minimal routing, random traffic — speedup vs DragonFly-Min.

Same engine as Fig. 6 with routing pinned to minimal and the random
pattern; the paper notes bit shuffle and transpose show the same shape.
"""

from __future__ import annotations

from repro.experiments.fig6 import LOADS, run as _run_fig6
from repro.experiments.common import ExperimentResult


def run(
    scale: str = "small",
    loads: tuple[float, ...] = LOADS,
    packets_per_rank: int = 20,
    seed: int = 0,
    backend: str = "batched",
) -> ExperimentResult:
    res = _run_fig6(
        scale=scale,
        patterns=("random",),
        loads=loads,
        routing="minimal",
        packets_per_rank=packets_per_rank,
        seed=seed,
        backend=backend,
    )
    res.experiment = f"Fig 7 — random traffic, minimal routing ({scale} scale)"
    res.notes = "expected shape: SpectralFly best under minimal routing too"
    return res


if __name__ == "__main__":
    import sys

    print(run(scale=sys.argv[1] if len(sys.argv) > 1 else "small").to_text())
