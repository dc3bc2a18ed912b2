"""Random link-failure machinery for the Section IV-A resilience study.

The paper deletes a proportion of edges uniformly at random and reports
structural metrics "averaged over sufficiently many trials", where the trial
count is grown until the coefficient of variation of batch means drops below
10% (footnote 1).  :func:`resilience_trials` reproduces that adaptive
protocol.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import ConstructionError
from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_rng


def sample_edge_failures(
    g: CSRGraph, proportion: float, seed: int | np.random.Generator | None = 0
) -> np.ndarray:
    """Draw the undirected edges that fail at ``proportion``, as an (r, 2) array.

    This is the single sampling primitive shared by the offline study
    (:func:`delete_random_edges`) and the dynamic fault schedules
    (:meth:`repro.sim.faults.FaultSchedule.random_link_faults`): at the same
    seed both damage the same links.
    """
    if not 0.0 <= proportion < 1.0:
        raise ValueError("proportion must be in [0, 1)")
    rng = as_rng(seed)
    edges = g.edge_array()
    m = len(edges)
    n_remove = int(round(proportion * m))
    if n_remove == 0:
        return np.empty((0, 2), dtype=np.int64)
    chosen = rng.choice(m, size=n_remove, replace=False)
    return edges[np.sort(chosen)]


def delete_random_edges(
    g: CSRGraph, proportion: float, seed: int | np.random.Generator | None = 0
) -> CSRGraph:
    """Return a copy of ``g`` with ``proportion`` of its edges removed."""
    removed = sample_edge_failures(g, proportion, seed)
    if len(removed) == 0:
        return g
    return g.without_edges(removed)


def resilience_trials(
    g: CSRGraph,
    proportion: float,
    metric: Callable[[CSRGraph], float],
    seed: int | np.random.Generator | None = 0,
    cv_target: float = 0.10,
    batches: int = 10,
    initial_trials: int = 1,
    max_trials_per_batch: int = 100,
    require_connected: bool = True,
) -> tuple[float, int]:
    """Average ``metric`` over random edge-failure trials, CV-stopped.

    Runs ``batches`` batches of ``x`` trials each, starting at
    ``x = initial_trials``.  While the coefficient of variation of the
    batch means exceeds ``cv_target``, the whole batch set is rerun with
    ``x`` grown tenfold (the paper's powers-of-10 escalation), capped at
    ``max_trials_per_batch``; the run at the cap is the last.  Disconnected
    trial graphs are redrawn when ``require_connected`` (the paper only
    evaluates below the disconnection threshold, where this is rare).

    Returns ``(mean, total_trials_used)``.

    RNG contract
    ------------
    Every trial draws its failed-edge set from its **own spawned substream**
    of the seed, so a trial's draws depend only on (seed, call, trial
    index) — never on how many values an earlier trial consumed (e.g.
    disconnected-graph redraws) or on anything the metric does with a
    shared generator.  When ``seed`` is an existing ``Generator`` (the
    pattern ``fig5`` uses to decorrelate metrics), each call consumes
    exactly **one** spawn from it regardless of how many trials it runs, so
    adding a metric after existing ones — or a metric converging slower and
    escalating its trial count — cannot perturb any other call's trial
    draws (regression-tested in ``tests/test_graphs_failures.py``).
    """
    from repro.graphs.metrics import is_connected

    rng = as_rng(seed)
    if isinstance(seed, np.random.Generator):
        # One spawn per call, however many trials end up running.
        rng = rng.spawn(1)[0]
    x = initial_trials
    while True:
        batch_means = np.empty(batches)
        total = 0
        for b in range(batches):
            vals = np.empty(x)
            for t in range(x):
                trial_rng = rng.spawn(1)[0]
                for _redraw in range(50):
                    trial = delete_random_edges(g, proportion, trial_rng)
                    if not require_connected or is_connected(trial):
                        break
                else:
                    raise ConstructionError(
                        f"could not draw a connected graph at failure "
                        f"proportion {proportion}"
                    )
                vals[t] = metric(trial)
                total += 1
            batch_means[b] = vals.mean()
        mean = float(batch_means.mean())
        std = float(batch_means.std(ddof=1))
        cv = std / abs(mean) if mean != 0 else 0.0
        if cv <= cv_target or x >= max_trials_per_batch:
            return mean, total
        x = min(x * 10, max_trials_per_batch)
