"""Smoke + shape tests for the experiment drivers (tiny configurations).

Full-scale runs live in benchmarks/; here we check that every driver
produces the right rows and that the paper's qualitative shapes hold at
reduced scale where they are stable.
"""

import pytest

from repro.experiments import fig4, fig5, fig6, fig7, fig8, fig9, fig10, table1, table2, fig11
from repro.experiments.common import ExperimentResult


class TestTable1:
    @pytest.fixture(scope="class")
    def result(self):
        return table1.run(classes=(1,))

    def test_rows(self, result):
        assert isinstance(result, ExperimentResult)
        assert len(result.rows) == 4

    def test_matches_paper_exactly(self, result):
        for row in result.rows:
            assert row["diameter"] == row["paper_diam"]
            assert abs(row["avg_distance"] - row["paper_avg"]) <= 0.01

    def test_renders(self, result):
        text = result.to_text()
        assert "LPS(11,7)" in text and "DF(12)" in text


class TestFig4:
    def test_design_space(self):
        res = fig4.run_design_space(60)
        assert all(r["radix"] == r["p"] + 1 for r in res.rows)
        assert any(r["vertices"] == 120 for r in res.rows)

    def test_normalized_bisection(self):
        res = fig4.run_normalized_bisection(max_p=6, max_q=14, repeats=2)
        for r in res.rows:
            assert 0 < r["normalized"] <= 1
            assert r["fiedler_lower_norm"] <= r["normalized"] + 1e-9

    def test_feasible_sizes(self):
        res = fig4.run_feasible_sizes(max_vertices=2000)
        fams = {r["family"] for r in res.rows}
        assert fams == {"LPS", "SlimFly", "BundleFly", "DragonFly"}

    def test_bisection_comparison_lps_beats_df(self):
        res = fig4.run_bisection_comparison(classes=(1,), repeats=2)
        by_name = {r["topology"]: r for r in res.rows}
        assert by_name["LPS(11,7)"]["normalized"] > by_name["DF(12)"]["normalized"]


class TestFig5:
    def test_shape(self):
        res = fig5.run(
            class_id=1,
            proportions=(0.0, 0.1),
            max_trials_per_batch=1,
            families=("LPS", "SlimFly"),
        )
        assert len(res.rows) == 4
        by = {(r["topology"], r["failed"]): r for r in res.rows}
        # Failures cannot shrink diameter or average distance.
        assert by[("LPS(11,7)", 0.1)]["avg_hops"] >= by[("LPS(11,7)", 0.0)]["avg_hops"]
        # SlimFly's diameter must grow from 2 under 10% failures.
        assert by[("SF(7)", 0.1)]["diameter"] > 2


# The simulation drivers default to the batched engine; every shape check
# runs on the event reference too.
@pytest.mark.parametrize("backend", ["event", "batched"])
class TestSimFigures:
    def test_fig6_rows_and_baseline(self, backend):
        res = fig6.run(patterns=("random",), loads=(0.3,), packets_per_rank=5,
                       backend=backend)
        assert len(res.rows) == 4
        df = [r for r in res.rows if r["topology"] == "DragonFly"][0]
        assert df["speedup_vs_df"] == 1.0

    def test_fig7_minimal(self, backend):
        res = fig7.run(loads=(0.3,), packets_per_rank=5, backend=backend)
        assert all(r["routing"] == "minimal" for r in res.rows)

    def test_fig8_ratio_definition(self, backend):
        res = fig8.run(patterns=("shuffle",), loads=(0.3,), packets_per_rank=5,
                       backend=backend)
        row = res.rows[0]
        assert row["valiant_speedup_vs_minimal"] == pytest.approx(
            row["minimal_max_ns"] / row["valiant_max_ns"], abs=0.01
        )


@pytest.mark.parametrize("backend", ["event", "batched"])
class TestMotifFigures:
    def test_fig9_rows(self, backend):
        res = fig9.run(motif_names=("Sweep3D",), backend=backend)
        assert len(res.rows) == 4
        df = [r for r in res.rows if r["topology"] == "DragonFly"][0]
        assert df["speedup_vs_df"] == 1.0

    def test_fig10_uses_ugal(self, backend):
        res = fig10.run(motif_names=("Sweep3D",), backend=backend)
        assert all(r["routing"] == "ugal" for r in res.rows)


class TestLayoutArtifacts:
    def test_table2_row_fields(self):
        res = table2.run(pairs=[((11, 7), 9)], skywalk_instances=1,
                         bisection_repeats=1)
        assert len(res.rows) == 2
        for r in res.rows:
            assert r["electrical_links"] + r["optical_links"] > 0
            assert r["mw_per_gbps"] > 0
        # Paper: LPS(11,7) and SF(9) wire lengths within ~10%.
        a, b = res.rows[0]["avg_wire_m"], res.rows[1]["avg_wire_m"]
        assert abs(a - b) / max(a, b) < 0.15

    def test_fig11_ratios(self):
        res = fig11.run(
            pairs=[((11, 7), 9)],
            switch_latencies=(0.0, 200.0),
            skywalk_instances=1,
        )
        assert len(res.rows) == 4
        for r in res.rows:
            assert r["avg_ratio_vs_skywalk"] > 0
