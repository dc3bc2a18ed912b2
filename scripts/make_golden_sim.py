"""Regenerate the golden-stats corpus (``tests/golden/sim_small.json``).

The cell list, field set, and runner live in ``tests/test_sim_golden.py``
so the generator and the regression test can never disagree about what a
cell is.  The corpus pins the event engine plus a batched section.  Run
this only when a change *intentionally* alters the behaviour of one of
the two engines, commit the diff, and explain the
regeneration in the commit message.

Usage: python scripts/make_golden_sim.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
for p in (str(ROOT / "src"), str(ROOT / "tests")):
    if p not in sys.path:
        sys.path.insert(0, p)

from test_sim_golden import (  # noqa: E402
    BATCHED_CELLS,
    CELLS,
    COLLECTIVE_CELLS,
    CONGESTION_CELLS,
    FAULT_CELLS,
    GOLDEN_PATH,
    MOTIF_CELLS,
    N_RANKS,
    ORACLE_CELLS,
    PACKETS_PER_RANK,
    SEARCHED_CELLS,
    batched_cell_id,
    cell_id,
    collect_batched_cell,
    collect_cell,
    collect_collective_cell,
    collect_congestion_cell,
    collect_fault_cell,
    collect_motif_cell,
    collect_oracle_cell,
    collect_searched_cell,
    collective_cell_id,
    congestion_cell_id,
    fault_cell_id,
    motif_cell_id,
    oracle_cell_id,
    searched_cell_id,
)


def main() -> int:
    corpus = {
        "schema": 7,
        "kind": "repro-sim-golden",
        "backends": ["event", "batched"],
        "n_ranks": N_RANKS,
        "packets_per_rank": PACKETS_PER_RANK,
        "cells": {},
        "motif_cells": {},
        "fault_cells": {},
        "collective_cells": {},
        "congestion_cells": {},
        "oracle_cells": {},
        "searched_cells": {},
        "batched": {},
    }
    for cell in CELLS:
        name = cell_id(cell)
        print(f"  {name}...")
        corpus["cells"][name] = collect_cell(cell)
    for cell in MOTIF_CELLS:
        name = motif_cell_id(cell)
        print(f"  motif {name}...")
        corpus["motif_cells"][name] = collect_motif_cell(cell)
    for cell in FAULT_CELLS:
        name = fault_cell_id(cell)
        print(f"  faulted {name}...")
        corpus["fault_cells"][name] = collect_fault_cell(cell)
    for cell in COLLECTIVE_CELLS:
        name = collective_cell_id(cell)
        print(f"  collective {name}...")
        corpus["collective_cells"][name] = collect_collective_cell(cell)
    for cell in CONGESTION_CELLS:
        name = congestion_cell_id(cell)
        print(f"  congested {name}...")
        corpus["congestion_cells"][name] = collect_congestion_cell(cell)
    for cell in ORACLE_CELLS:
        name = oracle_cell_id(cell)
        print(f"  oracle {name}...")
        corpus["oracle_cells"][name] = collect_oracle_cell(cell)
    for cell in SEARCHED_CELLS:
        name = searched_cell_id(cell)
        print(f"  searched {name}...")
        corpus["searched_cells"][name] = collect_searched_cell(cell)
    for entry in BATCHED_CELLS:
        name = batched_cell_id(entry)
        print(f"  batched {name}...")
        corpus["batched"][name] = collect_batched_cell(entry)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=1) + "\n")
    n_lat = sum(len(c["latencies_ns"]) for c in corpus["cells"].values())
    print(
        f"wrote {GOLDEN_PATH} ({len(CELLS)} open-loop cells / {n_lat} "
        f"packets, {len(MOTIF_CELLS)} motif cells, "
        f"{len(FAULT_CELLS)} faulted cells, "
        f"{len(COLLECTIVE_CELLS)} collective cells, "
        f"{len(CONGESTION_CELLS)} congested cells, "
        f"{len(ORACLE_CELLS)} oracle cells, "
        f"{len(SEARCHED_CELLS)} searched cells, "
        f"{len(BATCHED_CELLS)} batched cells)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
