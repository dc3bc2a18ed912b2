"""Regenerate the bench golden rows (``tests/golden/bench_rows.json``).

The preset is ``tests/test_bench.py``'s ``_TINY`` micro preset plus its
``_TINY_SCALE`` scale cell; the row collector lives in
``tests/test_bench_golden.py`` so the generator and the regression test
can never disagree about what a row is.  Run this only when a change
*intentionally* alters what a bench cell measures, commit the diff, and
explain the regeneration in the commit message.

Usage: python scripts/make_golden_bench.py
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
for p in (str(ROOT / "src"), str(ROOT / "tests")):
    if p not in sys.path:
        sys.path.insert(0, p)

from test_bench import _TINY, _TINY_SCALE  # noqa: E402
from test_bench_golden import GOLDEN_PATH, bench_rows  # noqa: E402


def main() -> int:
    # Round-trip through JSON first so the rows are made from exactly the
    # preset the test replays (tuples become lists).
    preset = json.loads(json.dumps({**_TINY, "scale_cells": (_TINY_SCALE,)}))
    rows = bench_rows(preset)
    corpus = {"schema": 1, "kind": "repro-bench-golden", "preset": preset,
              "rows": rows}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(corpus, indent=1) + "\n")
    counts = ", ".join(f"{len(v)} {k}" for k, v in rows.items())
    print(f"wrote {GOLDEN_PATH} ({counts})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
