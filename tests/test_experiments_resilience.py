"""The resilience-traffic experiment family: driver, registry, determinism."""

import pytest

from repro.experiments.resilience_traffic import run
from repro.runner.registry import get_experiment


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "0")


def _mini(**overrides):
    kwargs = dict(
        scale="small",
        families=("SpectralFly",),
        routings=("minimal",),
        fail_fractions=(0.0, 0.15),
        packets_per_rank=4,
        seed=0,
    )
    kwargs.update(overrides)
    return run(**kwargs)


# The driver defaults to the batched engine; every pin also holds on the
# event reference.
@pytest.mark.parametrize("backend", ["event", "batched"])
class TestDriver:
    def test_rows_and_columns(self, backend):
        res = _mini(backend=backend)
        assert len(res.rows) == 2  # 1 family x 1 routing x 2 fractions
        row = res.rows[1]
        assert row["failed"] == 0.15
        assert 0.0 < row["delivered_frac"] <= 1.0
        assert row["fault_epochs"] > 0
        assert row["nonminimal_hops"] >= 0
        # The pristine baseline row is self-normalised.
        assert res.rows[0]["max_vs_pristine"] == 1.0
        assert res.rows[0]["delivered_frac"] == 1.0

    def test_deterministic_per_seed(self, backend):
        assert _mini(backend=backend).rows == _mini(backend=backend).rows
        assert _mini(backend=backend).rows != _mini(seed=1, backend=backend).rows

    def test_recovery_toggle(self, backend):
        with_rec = _mini(recover=True, backend=backend)
        without = _mini(recover=False, backend=backend)
        # Recovery schedules a link-up per link-down: twice the epochs.
        assert (
            with_rec.rows[1]["fault_epochs"]
            == 2 * without.rows[1]["fault_epochs"]
        )


class TestRegistryEntry:
    def test_registered_with_presets(self):
        exp = get_experiment("resilience-traffic")
        assert set(exp.presets) == {"small", "full"}
        assert "resilience" in exp.tags
        # fail_fractions must NOT be a cell axis: the driver normalises
        # each (family, routing) group against its first fraction.
        assert "fail_fractions" not in exp.cell_axes
        assert exp.cell_axes == ("families", "routings")

    def test_small_preset_cells(self):
        exp = get_experiment("resilience-traffic")
        spec = exp.spec("small")
        cells = exp.cells(spec)
        # families x routings from the small preset.
        assert len(cells) == 4 * 2
        for cell in cells:
            assert cell.kwargs["fail_fractions"] == (0.0, 0.05, 0.15)
