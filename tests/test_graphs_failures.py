"""Tests for random edge-failure machinery."""

import numpy as np
import pytest

from repro.errors import ConstructionError
from repro.graphs.failures import delete_random_edges, resilience_trials
from repro.graphs.generators import complete_graph, hypercube_graph
from repro.graphs.metrics import average_distance, diameter, is_connected


class TestDeleteRandomEdges:
    def test_exact_count(self):
        g = complete_graph(10)  # 45 edges
        h = delete_random_edges(g, 0.2, seed=0)
        assert h.num_edges == 45 - 9

    def test_zero_proportion_identity(self):
        g = complete_graph(6)
        assert delete_random_edges(g, 0.0, seed=0) is g

    def test_subset_of_original(self):
        g = hypercube_graph(4)
        h = delete_random_edges(g, 0.3, seed=1)
        orig = {tuple(e) for e in g.edge_array()}
        assert all(tuple(e) in orig for e in h.edge_array())

    def test_seeded_reproducible(self):
        g = complete_graph(12)
        a = delete_random_edges(g, 0.4, seed=5)
        b = delete_random_edges(g, 0.4, seed=5)
        assert np.array_equal(a.edge_array(), b.edge_array())

    def test_invalid_proportion(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            delete_random_edges(g, 1.0)
        with pytest.raises(ValueError):
            delete_random_edges(g, -0.1)


class TestResilienceTrials:
    def test_mean_and_count(self):
        g = complete_graph(16)
        mean, total = resilience_trials(
            g, 0.1, lambda h: float(diameter(h)), seed=0,
            max_trials_per_batch=2,
        )
        assert mean >= 1.0
        assert total >= 10  # at least `batches` trials ran

    def test_metric_monotone_under_failures(self):
        # Average distance should not decrease when edges fail.
        g = hypercube_graph(4)
        base = average_distance(g)
        mean, _ = resilience_trials(
            g, 0.25, average_distance, seed=3, max_trials_per_batch=2
        )
        assert mean >= base - 1e-9

    def test_connectivity_enforced(self):
        g = complete_graph(8)
        mean, _ = resilience_trials(
            g,
            0.5,
            lambda h: 1.0 if is_connected(h) else 0.0,
            seed=4,
            max_trials_per_batch=2,
        )
        assert mean == 1.0

    def test_no_connected_draw_raises_construction_error(self):
        # Failing 90% of a 4-cycle's edges always disconnects it, so every
        # redraw fails and the trial gives up with a structured error.
        g = hypercube_graph(2)
        with pytest.raises(ConstructionError, match="proportion 0.9"):
            resilience_trials(g, 0.9, diameter, seed=0,
                              require_connected=True)


class TestResilienceTrialsRngStreams:
    """Regression: per-trial substreams (see the RNG contract docstring).

    Historically every trial drew straight from the one shared stream, so a
    preceding ``resilience_trials`` call consuming a different number of
    draws (more trials after CV escalation, disconnected-graph redraws)
    perturbed every later call's trial graphs.  Each call now consumes
    exactly one spawn from a shared generator and each trial gets its own
    spawned substream.
    """

    @staticmethod
    def _trial_hashes_after(first_call_kwargs):
        """Run a first metric with the given kwargs, then record the trial
        graphs of an identical second metric off the same shared generator."""
        from repro.graphs.metrics import average_distance

        g = hypercube_graph(4)
        rng = np.random.default_rng(7)
        resilience_trials(
            g, 0.3, average_distance, seed=rng, **first_call_kwargs
        )
        hashes = []

        def capture(h):
            hashes.append(h.content_hash())
            return float(h.num_edges)

        resilience_trials(g, 0.2, capture, seed=rng, max_trials_per_batch=1)
        return hashes

    def test_first_call_trial_count_does_not_perturb_second(self):
        # cv_target=0.0 forces the first call to escalate to its trial cap,
        # so the two scenarios consume very different numbers of trials
        # (and redraws); the second call's trial graphs must not move.
        few = self._trial_hashes_after(dict(max_trials_per_batch=1))
        many = self._trial_hashes_after(
            dict(max_trials_per_batch=5, cv_target=0.0)
        )
        assert few == many

    def test_same_integer_seed_reproduces_trials(self):
        g = hypercube_graph(4)
        seen: list[list[str]] = []
        for _ in range(2):
            hashes = []

            def capture(h):
                hashes.append(h.content_hash())
                return float(h.num_edges)

            resilience_trials(g, 0.25, capture, seed=9,
                              max_trials_per_batch=2)
            seen.append(hashes)
        assert seen[0] == seen[1]

    def test_shared_generator_decorrelates_metrics(self):
        # The fig5 pattern: consecutive calls on one generator must see
        # *different* trial graphs (that is the point of sharing it).
        g = hypercube_graph(4)
        rng = np.random.default_rng(3)
        first, second = [], []

        def cap(store):
            def metric(h):
                store.append(h.content_hash())
                return float(h.num_edges)
            return metric

        resilience_trials(g, 0.25, cap(first), seed=rng,
                          max_trials_per_batch=1)
        resilience_trials(g, 0.25, cap(second), seed=rng,
                          max_trials_per_batch=1)
        assert first != second
