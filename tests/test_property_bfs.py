"""Property tests (hypothesis): the bit-parallel distance profile against
per-source BFS.

:func:`~repro.graphs.bfs.level_counts` must count exactly the pairs that
``np.bincount`` over per-source :func:`~repro.graphs.bfs.bfs_distances`
counts, for any source list (duplicates and subsets included), any block
size, and graphs with isolated vertices; the public
:func:`~repro.graphs.bfs.distance_profile` and
:func:`~repro.graphs.metrics.diameter` follow from it and raise on a
disconnected graph.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.bfs import UNREACHED, bfs_distances, distance_profile, level_counts
from repro.graphs.csr import CSRGraph
from repro.graphs.metrics import diameter

#: Block sizes around the 64-bit word boundary, one source per block, and
#: the default 8-word block.
BATCHES = (1, 63, 64, 65, 512)


@st.composite
def graphs(draw, max_n=80):
    """A random simple graph, optionally threaded by a Hamiltonian path
    (connected), with ``isolated`` trailing vertices that no edge touches."""
    core = draw(st.integers(min_value=1, max_value=max_n))
    isolated = draw(st.integers(min_value=0, max_value=3))
    m = draw(st.integers(min_value=0, max_value=3 * core))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, core - 1), st.integers(0, core - 1)),
            min_size=m,
            max_size=m,
        )
    )
    if draw(st.booleans()):
        perm = draw(st.permutations(range(core)))
        edges += list(zip(perm[:-1], perm[1:]))
    arr = np.array(edges, dtype=np.int64).reshape(-1, 2)
    return CSRGraph.from_edges(core + isolated, arr)


@st.composite
def graph_and_sources(draw):
    g = draw(graphs())
    sources = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(0, g.n - 1), min_size=0, max_size=2 * g.n + 70),
        )
    )
    return g, sources


def reference_counts(g: CSRGraph, sources) -> tuple[np.ndarray, int]:
    """Pairs per distance and unreached pairs, one BFS per source."""
    counts = np.zeros(1, dtype=np.int64)
    unreached = 0
    for s in sources:
        dist = bfs_distances(g, int(s))
        reached = dist[dist != UNREACHED]
        unreached += g.n - len(reached)
        binned = np.bincount(reached)
        if len(binned) > len(counts):
            counts = np.concatenate([counts, np.zeros(len(binned) - len(counts), np.int64)])
        counts[: len(binned)] += binned
    return counts, unreached


class TestBitParallelProfile:
    @given(graph_and_sources(), st.sampled_from(BATCHES))
    @settings(max_examples=150, deadline=None)
    def test_level_counts_match_per_source_bfs(self, gs, batch):
        g, sources = gs
        src = np.arange(g.n) if sources is None else np.array(sources, dtype=np.int64)
        counts, unreached = level_counts(g, src, batch)
        want_counts, want_unreached = reference_counts(g, src)
        assert counts.tolist() == want_counts.tolist()
        assert unreached == want_unreached

    @given(graph_and_sources(), st.sampled_from(BATCHES))
    @settings(max_examples=150, deadline=None)
    def test_profile_matches_bincount(self, gs, batch):
        g, sources = gs
        src = np.arange(g.n) if sources is None else np.array(sources, dtype=np.int64)
        want, unreached = reference_counts(g, src)
        if unreached:
            with pytest.raises(ValueError):
                distance_profile(g, sources, batch)
            return
        hist, diam, mean = distance_profile(g, sources, batch)
        want[0] = 0
        assert hist.tolist() == want.tolist()
        if want.sum():
            assert diam == len(want) - 1 == int(np.flatnonzero(want).max())
            assert mean == float((np.arange(len(want)) * want).sum() / want.sum())

    @given(graphs(), st.sampled_from(BATCHES))
    @settings(max_examples=100, deadline=None)
    def test_diameter_is_max_eccentricity(self, g, batch):
        ecc = [bfs_distances(g, s).max() for s in range(g.n)]
        if max(ecc) == UNREACHED:
            with pytest.raises(ValueError):
                distance_profile(g, batch=batch)
            with pytest.raises(ValueError):
                diameter(g)
            return
        assert distance_profile(g, batch=batch)[1] == max(ecc)
        assert diameter(g) == max(ecc)


class TestDisconnected:
    def test_isolated_vertex_raises(self):
        g = CSRGraph.from_edges(4, np.array([[0, 1], [1, 2]]))
        with pytest.raises(ValueError):
            distance_profile(g)
        with pytest.raises(ValueError):
            diameter(g)
        counts, unreached = level_counts(g, np.arange(4))
        assert counts.tolist() == [4, 4, 2] and unreached == 6

    def test_duplicate_sources_count_twice(self):
        g = CSRGraph.from_edges(3, np.array([[0, 1], [1, 2]]))
        once, _ = level_counts(g, np.array([0]))
        twice, _ = level_counts(g, np.array([0, 0]))
        assert twice.tolist() == (2 * once).tolist()
