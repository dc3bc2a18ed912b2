"""Reference graph generators.

These are not interconnect topologies from the paper; they exist to validate
the spectral and metric pipelines against closed-form answers (hypercube,
cycle, torus, complete graphs) and to provide the random-regular baseline
(Jellyfish-style) whose sub-Ramanujan spectral gap the paper contrasts with
LPS graphs.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConstructionError, ParameterError
from repro.graphs.csr import CSRGraph
from repro.utils.rng import as_rng


def complete_graph(n: int) -> CSRGraph:
    """K_n."""
    u, v = np.triu_indices(n, k=1)
    return CSRGraph.from_edges(n, np.stack([u, v], axis=1))


def cycle_graph(n: int) -> CSRGraph:
    """C_n."""
    if n < 3:
        raise ParameterError("cycle needs n >= 3")
    u = np.arange(n)
    return CSRGraph.from_edges(n, np.stack([u, (u + 1) % n], axis=1))


def hypercube_graph(d: int) -> CSRGraph:
    """The d-dimensional hypercube Q_d on 2^d vertices."""
    n = 1 << d
    verts = np.arange(n)
    edges = [np.stack([verts, verts ^ (1 << b)], axis=1) for b in range(d)]
    return CSRGraph.from_edges(n, np.concatenate(edges))


def torus_graph(dims: tuple[int, ...]) -> CSRGraph:
    """k-ary n-dimensional torus (each dim >= 3 gives degree 2 per dim)."""
    dims = tuple(int(d) for d in dims)
    n = int(np.prod(dims))
    coords = np.stack(
        np.unravel_index(np.arange(n), dims), axis=1
    )
    edges = []
    for axis, size in enumerate(dims):
        shifted = coords.copy()
        shifted[:, axis] = (shifted[:, axis] + 1) % size
        nbr = np.ravel_multi_index(tuple(shifted.T), dims)
        edges.append(np.stack([np.arange(n), nbr], axis=1))
    return CSRGraph.from_edges(n, np.concatenate(edges))


def random_regular_graph(
    n: int, k: int, seed: int | np.random.Generator | None = 0, max_tries: int = 200
) -> CSRGraph:
    """Random k-regular simple graph via the configuration model with retries.

    Pair stubs uniformly at random; if the pairing creates self-loops or
    parallel edges, redraw (for the sparse regimes used here the acceptance
    probability is comfortably positive).  This is the Jellyfish substrate.
    """
    if n * k % 2 != 0:
        raise ParameterError("n * k must be even")
    if k >= n:
        raise ParameterError("need k < n")
    rng = as_rng(seed)
    stubs = np.repeat(np.arange(n), k)
    for _ in range(max_tries):
        perm = rng.permutation(len(stubs))
        pairs = stubs[perm].reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        keys = np.minimum(pairs[:, 0], pairs[:, 1]) * n + np.maximum(
            pairs[:, 0], pairs[:, 1]
        )
        if len(np.unique(keys)) != len(keys):
            continue
        g = CSRGraph.from_edges(n, pairs)
        return g
    # Fall back to pairing + edge-swap repair for awkward (n, k).
    return _repairing_configuration_model(n, k, rng)


def _repairing_configuration_model(
    n: int, k: int, rng: np.random.Generator
) -> CSRGraph:
    """Configuration model followed by double-edge swaps to remove defects."""
    stubs = rng.permutation(np.repeat(np.arange(n), k))
    pairs = [tuple(sorted(p)) for p in stubs.reshape(-1, 2)]
    edge_set: set[tuple[int, int]] = set()
    bad: list[tuple[int, int]] = []
    for u, v in pairs:
        if u == v or (u, v) in edge_set:
            bad.append((u, v))
        else:
            edge_set.add((u, v))
    guard = 0
    while bad:
        guard += 1
        if guard > 100_000:
            raise ConstructionError("edge-swap repair failed to converge")
        u, v = bad.pop()
        x, y = list(edge_set)[rng.integers(len(edge_set))]
        # Swap (u,v),(x,y) -> (u,x),(v,y) when that removes the defect.
        e1, e2 = tuple(sorted((u, x))), tuple(sorted((v, y)))
        if (
            u != x
            and v != y
            and e1 not in edge_set
            and e2 not in edge_set
            and e1 != e2
        ):
            edge_set.remove((x, y))
            edge_set.add(e1)
            edge_set.add(e2)
        else:
            bad.append((u, v))
    return CSRGraph.from_edges(n, np.array(sorted(edge_set)))
