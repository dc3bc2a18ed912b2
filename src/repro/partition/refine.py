"""Fiduccia--Mattheyses refinement with balance constraint.

One FM pass greedily moves the best-gain movable vertex (respecting the
balance tolerance), locks it, updates neighbour gains, and finally rolls
back to the best prefix seen.  Passes repeat until a pass yields no
improvement.  Gains live in a lazy max-heap keyed ``(-gain, v)``, so ties
go to the lowest vertex id, which keeps the implementation compact while
staying O(m log n) per pass.  The pass copies its state (gains, sides,
side weights, locks, CSR rows and edge weights) into plain Python lists
once, because the move loop does per-vertex work where numpy scalar
indexing would cost more than the arithmetic.  A pass stops popping once
no vertex has an unpopped heap entry at its current gain: every entry
left would be skipped.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.partition.weighted import WeightedGraph


def _gains(wg: WeightedGraph, labels: np.ndarray) -> np.ndarray:
    """gain[v] = (external edge weight) - (internal edge weight)."""
    heads = np.repeat(np.arange(wg.n), np.diff(wg.indptr))
    crossing = labels[heads] != labels[wg.indices]
    signed = np.where(crossing, wg.eweights, -wg.eweights)
    return np.bincount(heads, weights=signed, minlength=wg.n).astype(np.int64)


def fm_refine(
    wg: WeightedGraph,
    labels: np.ndarray,
    balance_tol: float = 0.02,
    max_passes: int = 8,
) -> tuple[np.ndarray, int]:
    """Refine a bisection in place; returns (labels, cut value).

    ``balance_tol`` is the allowed relative deviation of each side's vertex
    weight from W/2 (plus one maximum vertex weight of slack, so coarse
    levels with heavy vertices remain feasible).
    """
    labels = labels.astype(np.int8).copy()
    total_w = wg.total_vweight()
    max_vw = int(wg.vweights.max())
    slack = max(int(balance_tol * total_w), max_vw)
    lo_limit = total_w // 2 - slack
    hi_limit = (total_w + 1) // 2 + slack

    cut = wg.cut_value(labels)
    for _ in range(max_passes):
        improved, labels, cut = _fm_pass(wg, labels, cut, lo_limit, hi_limit)
        if not improved:
            break
    return labels, cut


def _fm_pass(
    wg: WeightedGraph,
    labels: np.ndarray,
    cut: int,
    lo_limit: int,
    hi_limit: int,
) -> tuple[bool, np.ndarray, int]:
    gains = _gains(wg, labels).tolist()
    side = labels.tolist()
    vweights = wg.vweights.tolist()
    indptr = wg.indptr.tolist()
    indices = wg.indices.tolist()
    twice_w = (2 * wg.eweights).tolist()
    side_w = [0, 0]
    for s, vw in zip(side, vweights):
        side_w[s] += vw
    locked = [False] * wg.n
    # A vertex is live while it has a heap entry at its current gain that
    # has not been popped: popping it moves or drops the vertex, a gain
    # update makes it live again.  Once no vertex is live, every entry
    # left in the heap would be skipped, so the pass ends there.
    live = [True] * wg.n
    n_live = wg.n
    heap = [(-gain, v) for v, gain in enumerate(gains)]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush

    moves: list[int] = []
    cut_trace: list[int] = []
    cur_cut = cut
    while n_live:
        neg_gain, v = pop(heap)
        if not live[v] or -neg_gain != gains[v]:
            continue  # stale entry
        live[v] = False
        n_live -= 1
        src = side[v]
        dst = 1 - src
        vw = vweights[v]
        # Balance feasibility of moving v from src to dst.
        if side_w[src] - vw < lo_limit or side_w[dst] + vw > hi_limit:
            continue
        # Apply the move.
        locked[v] = True
        side[v] = dst
        side_w[src] -= vw
        side_w[dst] += vw
        cur_cut -= gains[v]
        moves.append(v)
        cut_trace.append(cur_cut)
        # Update neighbour gains.
        lo, hi = indptr[v], indptr[v + 1]
        for u, w2 in zip(indices[lo:hi], twice_w[lo:hi]):
            if locked[u]:
                continue
            gain = gains[u] - w2 if side[u] == dst else gains[u] + w2
            gains[u] = gain
            push(heap, (-gain, u))
            if not live[u]:
                live[u] = True
                n_live += 1

    if not moves:
        return False, labels, cut
    best_cut = min(cut_trace)
    if best_cut >= cut:
        return False, labels, cut  # roll back everything
    # Keep the moves up to the first best prefix; roll back the rest.
    best_idx = cut_trace.index(best_cut)
    moved = np.asarray(moves[: best_idx + 1], dtype=np.int64)
    labels[moved] = 1 - labels[moved]
    return True, labels, best_cut


def rebalance(wg: WeightedGraph, labels: np.ndarray) -> np.ndarray:
    """Force the bisection to exact balance (within one max vertex weight).

    Moves lowest-loss boundary-preferring vertices from the heavy side until
    sides differ by at most the largest vertex weight.  Used as the final
    step so reported cuts always correspond to genuine bisections.
    """
    labels = labels.astype(np.int8).copy()
    gains = _gains(wg, labels)
    total = wg.total_vweight()
    max_vw = int(wg.vweights.max())
    while True:
        w1 = int(wg.vweights[labels == 1].sum())
        w0 = total - w1
        if abs(w0 - w1) <= max_vw:
            return labels
        heavy = 0 if w0 > w1 else 1
        cands = np.flatnonzero(labels == heavy)
        best = cands[np.argmax(gains[cands])]
        labels[best] = 1 - heavy
        nbrs, wts = wg.neighbors(int(best))
        gains[best] = -gains[best]
        for u, w in zip(nbrs.tolist(), wts.tolist()):
            if labels[u] == labels[best]:
                gains[u] -= 2 * w
            else:
                gains[u] += 2 * w
