"""Structural graph metrics used throughout the paper's evaluation.

Diameter, average shortest-path distance, girth, connectivity and
bipartiteness — the columns of Table I.  All metrics operate on
:class:`~repro.graphs.csr.CSRGraph` and use the vectorised BFS kernels.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.bfs import UNREACHED, bfs_distances, distance_profile
from repro.graphs.csr import CSRGraph


def is_connected(g: CSRGraph) -> bool:
    """True iff the graph is connected (single BFS)."""
    if g.n == 0:
        return True
    return bool(np.all(bfs_distances(g, 0) != UNREACHED))


def is_bipartite(g: CSRGraph) -> bool:
    """2-colourability test via BFS layering.

    For LPS graphs this is a Legendre-symbol check in disguise:
    LPS(p, q) is bipartite iff (p/q) = -1 (the PGL case).
    """
    color = np.full(g.n, -1, dtype=np.int8)
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        frontier = np.array([start], dtype=np.int64)
        while len(frontier):
            nxt = []
            for v in frontier:
                nbrs = g.neighbors(v)
                same = nbrs[color[nbrs] == color[v]]
                if len(same):
                    return False
                fresh = nbrs[color[nbrs] == -1]
                color[fresh] = 1 - color[v]
                nxt.append(fresh)
            frontier = np.unique(np.concatenate(nxt)) if nxt else np.empty(0, np.int64)
    return True


def diameter(g: CSRGraph, sample: int | None = None, seed: int = 0) -> int:
    """Maximum eccentricity; raises ``ValueError`` on a disconnected graph.

    ``sample`` limits the number of BFS sources (exact when None); for
    vertex-transitive graphs a single source is exact, and callers that know
    transitivity pass ``sample=1``.
    """
    return distance_profile(g, _pick_sources(g.n, sample, seed))[1]


def average_distance(g: CSRGraph, sample: int | None = None, seed: int = 0) -> float:
    """Mean hop distance over ordered vertex pairs (excluding self-pairs)."""
    sources = _pick_sources(g.n, sample, seed)
    _, _, mean = distance_profile(g, sources)
    return mean


def _pick_sources(n: int, sample: int | None, seed: int) -> np.ndarray:
    if sample is None or sample >= n:
        return np.arange(n, dtype=np.int64)
    rng = np.random.default_rng(seed)
    return rng.choice(n, size=sample, replace=False).astype(np.int64)


def girth(g: CSRGraph, assume_vertex_transitive: bool = False, sample: int | None = None) -> int:
    """Length of the shortest cycle (``0`` if the graph is a forest).

    BFS from each root; a non-tree edge between vertices at depths ``d(u)``
    and ``d(v)`` closes a cycle of length ``d(u) + d(v) + 1`` through the
    root.  The minimum over all roots is the girth; for vertex-transitive
    graphs (every Cayley graph, hence every LPS/SlimFly instance) one root
    suffices.
    """
    roots: np.ndarray
    if assume_vertex_transitive:
        roots = np.array([0], dtype=np.int64)
    elif sample is not None:
        roots = _pick_sources(g.n, sample, 0)
    else:
        roots = np.arange(g.n, dtype=np.int64)
    best = np.iinfo(np.int64).max
    for root in roots:
        best = min(best, _girth_from_root(g, int(root), best))
        if best == 3:
            break
    return 0 if best == np.iinfo(np.int64).max else int(best)


def _girth_from_root(g: CSRGraph, root: int, cutoff: int) -> int:
    """Shortest cycle through ``root``; stops exploring past ``cutoff``."""
    dist = np.full(g.n, UNREACHED, dtype=np.int64)
    parent = np.full(g.n, -1, dtype=np.int64)
    dist[root] = 0
    frontier = [root]
    best = cutoff
    level = 0
    while frontier and 2 * level + 1 < best:
        nxt = []
        for u in frontier:
            for v in g.neighbors(u):
                v = int(v)
                if dist[v] == UNREACHED:
                    dist[v] = level + 1
                    parent[v] = u
                    nxt.append(v)
                elif v != parent[u] and dist[v] >= level:
                    # Non-tree edge: cycle through the root of length
                    # dist[u] + dist[v] + 1 (paths may share a prefix, which
                    # only shortens the true cycle, so this is an upper bound
                    # that is tight for *some* root — taking the min over
                    # roots yields the exact girth).
                    best = min(best, int(dist[u] + dist[v] + 1))
        frontier = nxt
        level += 1
    return best


def edge_connectivity_lower_bound(g: CSRGraph) -> int:
    """Trivial lower bound: min degree (tight for LPS graphs, which have
    optimal edge connectivity by vertex-transitivity)."""
    return int(g.degrees().min())
