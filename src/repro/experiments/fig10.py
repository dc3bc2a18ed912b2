"""Figure 10: Ember motifs under UGAL routing — speedup vs DragonFly-UGAL."""

from __future__ import annotations

from repro.experiments.common import ExperimentResult
from repro.experiments.fig9 import run as _run_fig9


def run(scale: str = "small", seed: int = 0,
        motif_names: tuple[str, ...] | None = None,
        backend: str = "batched") -> ExperimentResult:
    res = _run_fig9(scale=scale, routing="ugal", seed=seed,
                    motif_names=motif_names, backend=backend)
    res.experiment = f"Fig 10 — Ember motifs, UGAL routing ({scale} scale)"
    res.notes = (
        "expected shape: SpectralFly ahead on Halo3D-26/Sweep3D; DragonFly "
        "ahead on the FFT motifs with SpectralFly second (~90% of DragonFly "
        "on balanced FFT)"
    )
    return res


if __name__ == "__main__":
    import sys

    print(run(scale=sys.argv[1] if len(sys.argv) > 1 else "small").to_text())
