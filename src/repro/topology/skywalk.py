"""SkyWalk — a layout-aware randomized topology (Fujiwara et al. [40]).

SkyWalk targets low end-to-end latency under low-delay switches by keeping
cables short: routers are placed in the machine-room cabinet grid first and
links preferentially connect physically close routers.  The paper uses 20
random instantiations of SkyWalk in the same machine room as the
LPS/SlimFly layouts of Table II and Fig. 11.

This module implements the documented stand-in (see DESIGN.md): a random
near-regular graph drawn by scanning candidate pairs in a random (or
cable-length-biased) order and greedily consuming port budgets, with a
connectivity repair pass.

With the default ``tau=None`` the link selection is *uniformly random* —
which is what the paper's Table II SkyWalk numbers correspond to: its
reported average wire lengths (10.29 m and 21.09 m for the small and large
machine rooms) equal the mean random-pair cable length in those rooms, so
SkyWalk's latency advantage comes from its low hop count under low-delay
switches, not from short cables.  Pass a finite ``tau`` (metres of
exponential noise added to the cable length before ranking) to bias the
draw toward short cables.

Paper: Section VII — the wire-length/latency baseline of Table II and
Fig. 11.  Constraints: any ``(n_routers, radix)`` with ``radix <
n_routers`` (randomized near-regular construction; degree deviates by at
most one after the connectivity repair pass).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConstructionError, ParameterError
from repro.graphs.csr import CSRGraph
from repro.topology.base import Topology
from repro.utils.rng import as_rng


def build_skywalk(
    n_routers: int,
    radix: int,
    positions: np.ndarray | None = None,
    seed: int | np.random.Generator | None = 0,
    tau: float | None = None,
) -> Topology:
    """Construct a SkyWalk-style instance.

    Parameters
    ----------
    n_routers, radix:
        Size and port budget (matched to the topology being compared).
    positions:
        ``(n_routers, 2)`` physical router coordinates in metres.  When
        omitted, the default machine-room grid of
        :mod:`repro.layout.machine_room` is used.
    tau:
        ``None`` (default) draws links uniformly at random.  A finite value
        is the mean of the exponential noise added to cable lengths when
        ranking candidate links; smaller tau = stronger short-cable
        preference.
    """
    if radix >= n_routers:
        raise ParameterError("radix must be < n_routers")
    rng = as_rng(seed)
    if positions is None:
        from repro.layout.machine_room import MachineRoom

        room = MachineRoom(n_routers)
        positions = room.router_positions()
    positions = np.asarray(positions, dtype=np.float64)

    iu, iv = np.triu_indices(n_routers, k=1)
    if tau is None:
        order = rng.permutation(len(iu))
    else:
        # Rectilinear cable length (same metric as the layout cost model).
        d = np.abs(positions[iu] - positions[iv]).sum(axis=1)
        score = d + rng.exponential(tau, size=len(d))
        order = np.argsort(score)

    free = np.full(n_routers, radix, dtype=np.int64)
    chosen = []
    for idx in order:
        u, v = int(iu[idx]), int(iv[idx])
        if free[u] > 0 and free[v] > 0:
            free[u] -= 1
            free[v] -= 1
            chosen.append((u, v))
            if not free.any():
                break
    graph = CSRGraph.from_edges(n_routers, np.array(chosen, dtype=np.int64))
    graph = _repair_connectivity(graph, rng)
    return Topology(
        name=f"SkyWalk({n_routers},{radix})",
        family="SkyWalk",
        graph=graph,
        params={"n": n_routers, "radix": radix, "tau": tau},
        vertex_transitive=False,
    )


def _repair_connectivity(g: CSRGraph, rng: np.random.Generator) -> CSRGraph:
    """Join connected components with double-edge swaps (degree-preserving)."""
    from repro.graphs.bfs import UNREACHED, bfs_distances

    for _attempt in range(100):
        dist = bfs_distances(g, 0)
        if not np.any(dist == UNREACHED):
            return g
        inside = np.flatnonzero(dist != UNREACHED)
        outside = np.flatnonzero(dist == UNREACHED)
        edges = g.edge_array()
        in_mask = np.isin(edges[:, 0], inside) & np.isin(edges[:, 1], inside)
        out_mask = np.isin(edges[:, 0], outside) & np.isin(edges[:, 1], outside)
        in_ids = np.flatnonzero(in_mask)
        out_ids = np.flatnonzero(out_mask)
        if len(in_ids) == 0 or len(out_ids) == 0:
            raise ConstructionError(
                "cannot repair connectivity: no swap candidates"
            )
        e1 = edges[rng.choice(in_ids)]
        e2 = edges[rng.choice(out_ids)]
        # Swap (a,b),(c,d) -> (a,c),(b,d): joins the components.
        new = np.array([[e1[0], e2[0]], [e1[1], e2[1]]], dtype=np.int64)
        remaining = g.without_edges(np.stack([e1, e2]))
        g = CSRGraph.from_edges(
            g.n, np.concatenate([remaining.edge_array(), new])
        )
    raise ConstructionError("connectivity repair did not converge")
