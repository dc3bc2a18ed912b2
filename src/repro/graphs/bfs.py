"""Level-synchronous BFS kernels.

Three kernels are provided:

* :func:`bfs_distances` — single-source frontier BFS using vectorised
  neighbour gathering (no per-vertex Python loop).
* :func:`distance_matrix` — multi-source hop distances as blocked
  sparse-matrix x dense-block products, used where the per-pair distances
  themselves are needed (routing tables).
* :func:`distance_profile` — the all-sources distance histogram, diameter
  and mean (Table I, Fig. 5), computed bit-parallel: every vertex holds a
  ``uint64`` bitset with one bit per source, one BFS level for all sources
  is a gather of the frontier bitsets over the CSR neighbour lists, an OR
  per row (``np.bitwise_or.reduceat``) and a mask by ``~visited``, and
  ``np.bitwise_count`` of the new bits is that level's histogram bin.
  Sources go in blocks of ``batch`` (512, i.e. 8 words per vertex, by
  default), so a block's largest temporary — the gathered bitsets —
  holds ``nnz x 64`` bytes.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.csr import CSRGraph

UNREACHED = np.iinfo(np.int32).max


def _gather_neighbors(g: CSRGraph, frontier: np.ndarray) -> np.ndarray:
    """Concatenate neighbour lists of all frontier vertices (vectorised)."""
    starts = g.indptr[frontier]
    counts = g.indptr[frontier + 1] - starts
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    # positions = starts[i] + (0..counts[i]-1) for each frontier vertex i,
    # computed without a Python loop via the repeat/cumsum ramp idiom.
    cum_before = np.cumsum(counts) - counts
    positions = np.repeat(starts - cum_before, counts) + np.arange(total)
    return g.indices[positions].astype(np.int64)


def bfs_distances(g: CSRGraph, source: int) -> np.ndarray:
    """Hop distances from ``source``; unreachable vertices get ``UNREACHED``."""
    dist = np.full(g.n, UNREACHED, dtype=np.int32)
    dist[source] = 0
    frontier = np.array([source], dtype=np.int64)
    level = 0
    while len(frontier):
        level += 1
        nbrs = _gather_neighbors(g, frontier)
        nbrs = nbrs[dist[nbrs] == UNREACHED]
        if len(nbrs) == 0:
            break
        frontier = np.unique(nbrs)
        dist[frontier] = level
    return dist


def distance_matrix(
    g: CSRGraph,
    sources: np.ndarray | None = None,
    batch: int = 512,
    dtype=np.int16,
) -> np.ndarray:
    """All-(or some-)pairs hop distances via blocked sparse matmul BFS.

    Returns an array of shape ``(len(sources), n)``; unreachable pairs hold
    ``-1``.  Memory is ``O(n * batch)`` per block plus the output.
    """
    if sources is None:
        sources = np.arange(g.n, dtype=np.int64)
    sources = np.asarray(sources, dtype=np.int64)
    adj = g.adjacency(dtype=np.float32)
    out = np.full((len(sources), g.n), -1, dtype=dtype)
    for lo in range(0, len(sources), batch):
        block = sources[lo : lo + batch]
        width = len(block)
        dist = np.full((g.n, width), -1, dtype=dtype)
        frontier = np.zeros((g.n, width), dtype=np.float32)
        frontier[block, np.arange(width)] = 1.0
        visited = frontier > 0
        dist[visited] = 0
        level = 0
        while True:
            level += 1
            frontier = adj @ frontier
            new = (frontier > 0) & ~visited
            if not new.any():
                break
            dist[new] = level
            visited |= new
            frontier = new.astype(np.float32)
        out[lo : lo + width] = dist.T
    return out


if hasattr(np, "bitwise_count"):

    def _popcount(words: np.ndarray) -> int:
        return int(np.bitwise_count(words).sum())

else:  # numpy < 2.0

    def _popcount(words: np.ndarray) -> int:
        return int(np.unpackbits(words.view(np.uint8)).sum())


def level_counts(
    g: CSRGraph, sources: np.ndarray, batch: int = 512
) -> tuple[np.ndarray, int]:
    """Bit-parallel multi-source BFS: (pairs per hop distance, unreached pairs).

    ``counts[d]`` is the number of (source, vertex) pairs at distance ``d``,
    self pairs included in ``counts[0]``; a source listed twice counts
    twice.  The second value is the number of pairs with no path.
    """
    sources = np.asarray(sources, dtype=np.int64)
    n = g.n
    # reduceat needs strictly increasing, in-range row offsets, so rows with
    # no neighbours are left out of it (they never receive a bit).
    nonempty = np.diff(g.indptr) > 0
    offsets = g.indptr[:-1][nonempty]
    counts = [0]
    unreached = 0
    for lo in range(0, len(sources), batch):
        block = sources[lo : lo + batch]
        width = len(block)
        bit = np.arange(width)
        frontier = np.zeros((n, (width + 63) // 64), dtype=np.uint64)
        np.bitwise_or.at(
            frontier, (block, bit >> 6), np.uint64(1) << (bit & 63).astype(np.uint64)
        )
        visited = frontier.copy()
        counts[0] += width
        reached = width
        level = 0
        while True:
            level += 1
            new = np.zeros_like(frontier)
            new[nonempty] = np.bitwise_or.reduceat(frontier[g.indices], offsets, axis=0)
            new &= ~visited
            found = _popcount(new)
            if not found:
                break
            if level == len(counts):
                counts.append(0)
            counts[level] += found
            reached += found
            visited |= new
            frontier = new
        unreached += width * n - reached
    return np.array(counts, dtype=np.int64), unreached


def distance_profile(
    g: CSRGraph, sources: np.ndarray | None = None, batch: int = 512
) -> tuple[np.ndarray, int, float]:
    """Return (histogram of pairwise distances, diameter, mean distance).

    The histogram counts (source, vertex) pairs by hop distance with the
    (u, u) self pairs dropped; the diameter is the largest distance from
    any source (the graph diameter when ``sources`` is every vertex).
    Raises ``ValueError`` if some vertex is unreachable from a source.
    """
    if sources is None:
        sources = np.arange(g.n, dtype=np.int64)
    hist, unreached = level_counts(g, sources, batch)
    if unreached:
        raise ValueError("graph is disconnected; distances undefined")
    hist[0] = 0  # drop the (u, u) self pairs
    total_pairs = int(hist.sum())
    if not total_pairs:
        return hist, 0, 0.0
    mean = float((np.arange(len(hist)) * hist).sum() / total_pairs)
    return hist, len(hist) - 1, mean
