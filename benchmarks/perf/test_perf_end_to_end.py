"""End-to-end simulator throughput: the smoke cells of ``repro bench``.

Runs the same cells as ``python -m repro bench --preset smoke`` under
pytest-benchmark, so simulator packets/s shows up in the ordinary
benchmark output alongside the figure regenerations.  Assertions check
only that the cells deliver all their traffic — speed is reported, never
gated (see ``BENCH_sim.json`` for the tracked trajectory).
"""

import pytest

from repro.runner.bench import BENCH_PRESETS, run_cell, section_cells

_CELLS = section_cells("smoke", "cells")


@pytest.mark.parametrize("backend", BENCH_PRESETS["smoke"]["backends"])
@pytest.mark.parametrize(
    "cell", _CELLS, ids=[f"{c['routing']}-{c['pattern']}" for c in _CELLS]
)
def test_smoke_cell_throughput(benchmark, cell, backend):
    routing, pattern = cell["routing"], cell["pattern"]
    row = benchmark.pedantic(
        run_cell,
        args=(cell, backend),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(
        f"{row['topology']} {routing}/{pattern} [{backend}]: "
        f"{row['packets_per_s']:,.0f} pkt/s, {row['events_per_s']:,.0f} ev/s"
    )
    assert row["delivered"] > 0
    assert row["events"] > row["delivered"]  # several events per packet
