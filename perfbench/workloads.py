"""The benchmark's workloads: finite batches of registry experiments.

Each workload runs its experiments in order, in one fresh interpreter, with
``jobs=1``, the registry's ``small`` preset and the preset's own backend.
Experiments whose driver accepts a ``seed`` get the benchmark seed as an
override (``--set seed=<s>`` on the CLI); the others are deterministic.
README.md beside this file says why each workload was chosen.
"""

from __future__ import annotations

PRESET = "small"

#: workload name -> registry experiments it runs, in order.
WORKLOADS: dict[str, tuple[str, ...]] = {
    # 64 open-loop UGAL simulations: the engine's open-loop path.
    "open-loop-synthetic": ("fig6",),
    # Dependency-driven motif and collective DAGs: the closed-loop path
    # plus message/schedule compilation in the workloads layer.
    "closed-loop-motifs": ("fig9", "collectives"),
    # Graph metrics, eigensolves and bisection under link failures; no
    # simulation at all.
    "structural": ("table1", "fig5"),
}

#: Every experiment any workload runs (one per-experiment wall metric each).
EXPERIMENTS: tuple[str, ...] = tuple(
    name for names in WORKLOADS.values() for name in names
)
