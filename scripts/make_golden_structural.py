"""Regenerate the structural golden corpus (``tests/golden/structural_small.json``).

The graph list and the collectors live in ``tests/test_structural_golden.py``
so the generator and the regression test can never disagree about what a
cell is.  Run this only when a change *intentionally* alters a distance
profile, a diameter or a bisection, commit the diff, and explain the
regeneration in the commit message.

Usage: python scripts/make_golden_structural.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
for p in (str(ROOT / "src"), str(ROOT / "tests")):
    if p not in sys.path:
        sys.path.insert(0, p)

from test_structural_golden import (  # noqa: E402
    GOLDEN_PATH,
    bisect_cells,
    collect_bisect,
    collect_profile,
    graph_cells,
)


def main() -> int:
    corpus = {"schema": 1, "kind": "repro-structural-golden",
              "profiles": {}, "bisections": {}}
    cells = graph_cells()
    for gid, (g, _) in cells.items():
        corpus["profiles"][gid] = collect_profile(g)
    for entry, gid, seed in bisect_cells():
        print(f"  bisect {entry}...")
        corpus["bisections"][entry] = collect_bisect(cells[gid][0], seed)
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=1) + "\n")
    n_disc = sum(1 for p in corpus["profiles"].values() if p.get("disconnected"))
    print(
        f"wrote {GOLDEN_PATH} ({len(corpus['profiles'])} profiles, "
        f"{n_disc} disconnected, {len(corpus['bisections'])} bisections)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
