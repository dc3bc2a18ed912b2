"""Figure 5: structural properties under random link failures.

For each topology of a size class and each failure proportion, deletes that
share of links uniformly at random and measures diameter, average hop count
and bisection bandwidth, averaged over CV-stopped trials (paper
footnote 1).  The paper plots the ~600-vertex class (failures up to 60%)
and the ~5K class (up to 80%).
"""

from __future__ import annotations

import numpy as np

from repro.experiments.common import ExperimentResult, cached_size_class
from repro.graphs.bfs import distance_profile
from repro.graphs.failures import resilience_trials
from repro.graphs.metrics import average_distance, diameter
from repro.partition import bisection_bandwidth


def run(
    class_id: int = 2,
    proportions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
    seed: int = 0,
    cv_target: float = 0.10,
    max_trials_per_batch: int = 3,
    families: tuple[str, ...] = ("LPS", "SlimFly", "BundleFly", "DragonFly"),
) -> ExperimentResult:
    """Resilience curves for one size class.

    ``max_trials_per_batch`` bounds the CV-stopping escalation so the
    default run finishes quickly; raise it (the paper effectively uses
    hundreds of trials) for tighter error bars.
    """
    topos = cached_size_class(class_id)
    rows = []
    for fam in families:
        topo = topos[fam]
        for prop in proportions:
            if prop == 0.0:
                g = topo.graph
                _, diam, mean = distance_profile(g)
                rows.append(
                    {
                        "topology": topo.name,
                        "failed": 0.0,
                        "diameter": float(diam),
                        "avg_hops": round(mean, 3),
                        "bisection": float(bisection_bandwidth(g, repeats=2, seed=seed)),
                        "trials": 1,
                    }
                )
                continue
            rng = np.random.default_rng(seed)
            diam_mean, n1 = resilience_trials(
                topo.graph, prop, lambda g: float(diameter(g)),
                seed=rng, cv_target=cv_target,
                max_trials_per_batch=max_trials_per_batch,
            )
            dist_mean, _ = resilience_trials(
                topo.graph, prop, average_distance,
                seed=rng, cv_target=cv_target,
                max_trials_per_batch=max_trials_per_batch,
            )
            bw_mean, _ = resilience_trials(
                topo.graph, prop,
                lambda g: float(bisection_bandwidth(g, repeats=1, seed=0)),
                seed=rng, cv_target=cv_target,
                max_trials_per_batch=max_trials_per_batch,
            )
            rows.append(
                {
                    "topology": topo.name,
                    "failed": prop,
                    "diameter": round(diam_mean, 2),
                    "avg_hops": round(dist_mean, 3),
                    "bisection": round(bw_mean, 1),
                    "trials": n1,
                }
            )
    return ExperimentResult(
        experiment=f"Fig 5 — structural properties under link failures (class {class_id})",
        rows=rows,
        notes="expected shape: SlimFly diameter jumps from 2 to ~4 at 10% "
        "failures while LPS grows more slowly; LPS keeps the bisection lead; "
        "SlimFly keeps the lowest average hop count",
    )


if __name__ == "__main__":
    print(run().to_text())
