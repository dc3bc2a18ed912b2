"""Golden rows for ``repro bench``: every cell of a micro preset, pinned.

``tests/golden/bench_rows.json`` stores a micro preset (the shape of
``tests/test_bench.py``'s ``_TINY`` plus ``_TINY_SCALE``: one end-to-end
cell, every scenario kind and one oracle-routed scale cell, each
on its engines) and every row :func:`repro.runner.bench.run_bench` made
of it, minus the timing keys.  Rows are deterministic at a fixed seed, so
a refactor of the bench harness must reproduce every pinned key with the
same value.  A fresh row may carry keys the golden row lacks only when
every row of the same shape in its section (same golden key set, e.g.
every open-loop row) gains the same ones.

If a change *intentionally* alters what a cell measures, regenerate with::

    python scripts/make_golden_bench.py

and explain the regeneration in the commit message.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any
from unittest import mock

import pytest

from repro.runner.bench import BENCH_PRESETS, run_bench

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "bench_rows.json"

SECTIONS = ("cells", "scenario_cells", "scale_cells")

#: Wall-clock figures: machine noise, never pinned.
TIMING_KEYS = frozenset(
    {"wall_s", "packets_per_s", "events_per_s", "messages_per_s",
     "setup_wall_s"}
)


def bench_rows(preset: dict[str, Any]) -> dict[str, list[dict[str, Any]]]:
    """Run ``preset`` through ``run_bench``; its rows per section, untimed."""
    with mock.patch.dict(BENCH_PRESETS, {"golden": preset}):
        result = run_bench("golden", out_path=None, micro=False,
                           progress=None)
    return {
        section: [
            {k: v for k, v in row.items() if k not in TIMING_KEYS}
            for row in result.get(section, [])
        ]
        for section in SECTIONS
    }


# The generator imports this module before the corpus exists.
GOLDEN = (
    json.loads(GOLDEN_PATH.read_text())
    if GOLDEN_PATH.exists()
    else {"preset": {}, "rows": {}}
)


@pytest.fixture(scope="module")
def fresh():
    return bench_rows(GOLDEN["preset"])


def test_corpus_covers_every_section():
    assert GOLDEN["schema"] == 1
    assert sorted(GOLDEN["rows"]) == sorted(SECTIONS)
    for section in SECTIONS:
        assert GOLDEN["rows"][section], section


@pytest.mark.parametrize("section", SECTIONS)
def test_rows_match_golden(fresh, section):
    want = GOLDEN["rows"][section]
    got = fresh[section]
    assert len(got) == len(want)
    gained: dict[frozenset, set[frozenset]] = {}
    for w, g in zip(want, got):
        assert {k: g.get(k, "<missing>") for k in w} == w
        gained.setdefault(frozenset(w), set()).add(frozenset(set(g) - set(w)))
    for shape, extras in gained.items():
        assert len(extras) == 1, (
            f"rows of one shape gained different keys: {sorted(map(sorted, extras))}"
        )
