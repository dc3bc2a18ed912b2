"""Golden regression corpus for the structural layer (Table I, Fig. 5).

``tests/golden/structural_small.json`` pins, for the size-class 1–2
topologies and ``delete_random_edges`` copies of them:

* the full :func:`~repro.graphs.bfs.distance_profile` — histogram,
  diameter and mean distance (floats round-trip exactly through JSON) —
  and the :func:`~repro.graphs.metrics.diameter` of every graph;
  disconnected copies are pinned as such and must raise ``ValueError``;
* the multilevel :func:`~repro.partition.bisect` cut and a sha256 of its
  labels at two seeds, on every class-1 graph and on the class-2 base
  graphs plus one failed copy each.  The labels digest pins the whole
  refinement path: coarse weighted FM levels, ``rebalance`` and the
  ``balance_tol=0.0`` final pass.

The BFS and Fiduccia–Mattheyses kernels behind these numbers may be
rewritten for speed, but every pinned value must stay identical.  If a
change *intentionally* alters them, regenerate with::

    python scripts/make_golden_structural.py

and explain the regeneration in the commit message.
"""

from __future__ import annotations

import functools
import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.graphs.bfs import distance_profile
from repro.graphs.csr import CSRGraph
from repro.graphs.failures import delete_random_edges
from repro.graphs.metrics import diameter
from repro.partition import bisect
from repro.topology import build_size_class

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "structural_small.json"

CLASSES = (1, 2)
FAMILIES = ("LPS", "SlimFly", "BundleFly", "DragonFly")
PROPORTIONS = (0.1, 0.2, 0.3)
FAILURE_SEEDS = (1, 2)
BISECT_SEEDS = (0, 1)
#: Failed copies of class-2 graphs that are bisected too (class 1 bisects
#: every copy); one copy keeps the test within a few seconds.
CLASS2_BISECTED = ((0.2, 1),)


def graph_id(name: str, proportion: float = 0.0, seed: int | None = None) -> str:
    if proportion == 0.0:
        return name
    return f"{name}@{proportion}#s{seed}"


@functools.lru_cache(maxsize=None)
def graph_cells() -> dict[str, tuple[CSRGraph, bool]]:
    """Every pinned graph, keyed by id, with whether it is bisected."""
    cells: dict[str, tuple[CSRGraph, bool]] = {}
    for cid in CLASSES:
        topos = build_size_class(cid)
        for fam in FAMILIES:
            topo = topos[fam]
            cells[graph_id(topo.name)] = (topo.graph, True)
            for prop in PROPORTIONS:
                for seed in FAILURE_SEEDS:
                    g = delete_random_edges(topo.graph, prop, seed)
                    bisected = cid == 1 or (prop, seed) in CLASS2_BISECTED
                    cells[graph_id(topo.name, prop, seed)] = (g, bisected)
    return cells


def collect_profile(g: CSRGraph) -> dict:
    try:
        hist, diam, mean = distance_profile(g)
    except ValueError:
        return {"disconnected": True}
    return {"hist": hist.tolist(), "diameter": diam, "mean": mean}


def collect_bisect(g: CSRGraph, seed: int) -> dict:
    labels, cut = bisect(g, seed)
    digest = hashlib.sha256(labels.astype(np.int8).tobytes()).hexdigest()
    return {"cut": int(cut), "labels_sha256": digest}


def bisect_cells() -> list[tuple[str, str, int]]:
    """(entry id, graph id, seed) for every pinned bisection."""
    return [
        (f"{gid}/seed={seed}", gid, seed)
        for gid, (_, bisected) in graph_cells().items()
        if bisected
        for seed in BISECT_SEEDS
    ]


# The generator imports this module before the corpus exists.
GOLDEN = (
    json.loads(GOLDEN_PATH.read_text())
    if GOLDEN_PATH.exists()
    else {"profiles": {}, "bisections": {}}
)


def test_corpus_matches_cell_list():
    assert GOLDEN["schema"] == 1
    assert sorted(GOLDEN["profiles"]) == sorted(graph_cells())
    assert sorted(GOLDEN["bisections"]) == sorted(e for e, _, _ in bisect_cells())


@pytest.mark.parametrize("gid", sorted(GOLDEN["profiles"]))
def test_profile_and_diameter(gid):
    g, _ = graph_cells()[gid]
    want = GOLDEN["profiles"][gid]
    assert collect_profile(g) == want
    if want.get("disconnected"):
        with pytest.raises(ValueError):
            diameter(g)
    else:
        assert diameter(g) == want["diameter"]


@pytest.mark.parametrize("entry", sorted(GOLDEN["bisections"]))
def test_bisection(entry):
    gid, _, seed = entry.rpartition("/seed=")
    g, _ = graph_cells()[gid]
    assert collect_bisect(g, int(seed)) == GOLDEN["bisections"][entry]
