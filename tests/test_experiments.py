"""Tests for the experiment drivers and result containers (:mod:`repro.experiments`)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.experiments.base import ExperimentResult, ExperimentSeries
from repro.experiments.config import ExperimentScale, paper_scale, quick_scale
from repro.experiments.figure6 import run_figure6
from repro.experiments.figure8 import run_figure8
from repro.experiments.figure9 import run_figure9
from repro.experiments.runner import available_experiments, run_all, run_experiment
from repro.experiments.tables import format_table, render_result, to_csv, write_csv
from repro.experiments.worked_example import EXPECTED_VALUES, run_worked_example

#: A deliberately tiny scale so the whole module runs in a few seconds.
TINY = ExperimentScale(
    dags_per_point=5,
    core_counts=(2, 8),
    fractions=[0.02, 0.15, 0.40],
    small_task_fractions=[0.05, 0.35],
    ilp_node_range=(3, 9),
    ilp_wcet_max=6,
    ilp_time_limit=10.0,
    seed=7,
)


class TestSeriesAndResult:
    def test_series_append_and_lookup(self):
        series = ExperimentSeries(label="m=2")
        series.append(0.1, 5.0)
        series.append(0.2, -1.0)
        assert len(series) == 2
        assert series.y_at(0.2) == -1.0
        with pytest.raises(KeyError):
            series.y_at(0.9)

    def test_series_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSeries(label="bad", x=[1.0], y=[])

    def test_crossover_detection(self):
        series = ExperimentSeries(label="m=2", x=[0.1, 0.2, 0.3], y=[-4.0, -1.0, 2.0])
        crossover = series.crossover()
        assert crossover == pytest.approx(0.2 + 0.1 / 3)
        flat = ExperimentSeries(label="none", x=[0.1, 0.2], y=[1.0, 2.0])
        assert flat.crossover() is None

    def test_crossover_at_exact_zero_sample(self):
        series = ExperimentSeries(label="z", x=[0.1, 0.2], y=[0.0, 3.0])
        assert series.crossover() == 0.1

    def test_max_and_min_points(self):
        series = ExperimentSeries(label="m", x=[1, 2, 3], y=[5.0, 9.0, 2.0])
        assert series.max_point() == (2, 9.0)
        assert series.min_point() == (3, 2.0)
        with pytest.raises(ValueError):
            ExperimentSeries(label="empty").max_point()

    def test_result_rows_and_labels(self):
        result = ExperimentResult(name="demo", title="demo", x_label="x", y_label="y")
        result.add_series(ExperimentSeries(label="a", x=[1.0, 2.0], y=[10.0, 20.0]))
        result.add_series(ExperimentSeries(label="b", x=[2.0], y=[99.0]))
        rows = result.rows()
        assert [row["x"] for row in rows] == [1.0, 2.0]
        assert rows[1]["b"] == 99.0
        assert rows[0]["b"] != rows[0]["b"]  # NaN for the missing point
        assert result.labels() == ["a", "b"]
        assert result.series_by_label("b").y == [99.0]
        with pytest.raises(KeyError):
            result.series_by_label("c")

    def test_json_round_trip(self, tmp_path):
        result = ExperimentResult(name="demo", title="t", x_label="x", y_label="y")
        result.add_series(ExperimentSeries(label="a", x=[1.0], y=[2.0]))
        path = tmp_path / "result.json"
        result.to_json(path)
        loaded = ExperimentResult.from_json(path)
        assert loaded.name == "demo"
        assert loaded.series[0].label == "a"
        assert loaded.series[0].y == [2.0]
        # Round trip through a plain string as well.
        assert ExperimentResult.from_json(result.to_json()).name == "demo"


class TestTables:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.5], ["bb", 22.25]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "22.25" in lines[3] or "22.2" in lines[3]

    def test_render_result_contains_labels(self):
        result = ExperimentResult(name="demo", title="My Title", x_label="x", y_label="y")
        result.add_series(ExperimentSeries(label="m=2", x=[1.0], y=[2.0]))
        text = render_result(result)
        assert "My Title" in text
        assert "m=2" in text

    def test_csv_export(self, tmp_path):
        result = ExperimentResult(name="demo", title="t", x_label="x", y_label="y")
        result.add_series(ExperimentSeries(label="a", x=[1.0, 2.0], y=[3.0, 4.0]))
        text = to_csv(result)
        assert text.splitlines()[0] == "x,a"
        path = write_csv(result, tmp_path / "out.csv")
        assert path.read_text().startswith("x,a")


class TestScales:
    def test_quick_and_paper_scales(self):
        quick = quick_scale()
        paper = paper_scale()
        assert paper.dags_per_point == 100
        assert paper.core_counts == (2, 4, 8, 16)
        assert quick.dags_per_point < paper.dags_per_point
        assert quick.ilp_wcet_max <= paper.ilp_wcet_max

    def test_with_helpers(self):
        scale = quick_scale().with_seed(99).with_dags_per_point(3)
        assert scale.seed == 99
        assert scale.dags_per_point == 3


class TestWorkedExample:
    def test_every_quoted_number_is_reproduced(self):
        result = run_worked_example()
        values = result.series[0].metadata["values"]
        for name, expected in EXPECTED_VALUES.items():
            assert values[name] == expected, name

    def test_result_structure(self):
        result = run_worked_example(cores=2)
        assert result.name == "worked-example"
        assert len(result.series) == 1
        assert len(result.series[0]) == len(EXPECTED_VALUES)


class TestFigureDrivers:
    def test_figure6_structure_and_shape(self):
        result = run_figure6(TINY)
        assert result.labels() == ["m=2", "m=8"]
        for series in result.series:
            assert len(series) == len(TINY.fractions)
        # The transformation must pay off for large offloaded fractions.
        assert result.series_by_label("m=2").y[-1] > 0

    def test_figure8_percentages_sum_to_100(self):
        result = run_figure8(TINY)
        for cores in TINY.core_counts:
            for index in range(len(TINY.fractions)):
                total = sum(
                    result.series_by_label(f"scenario {label} m={cores}").y[index]
                    for label in ("1", "2.1", "2.2")
                )
                assert total == pytest.approx(100.0)

    def test_figure8_scenario1_dominates_small_fractions(self):
        result = run_figure8(TINY)
        first = result.series_by_label("scenario 1 m=2").y[0]
        last = result.series_by_label("scenario 1 m=2").y[-1]
        assert first > last

    def test_figure9_gain_grows_with_offload_for_m2(self):
        result = run_figure9(TINY)
        series = result.series_by_label("m=2")
        assert series.y[-1] > series.y[0]
        assert series.metadata["max_observed_difference"] >= max(series.y)

    def test_figure9_gain_ordering_between_core_counts(self):
        result = run_figure9(TINY)
        # At the largest fraction the m=2 gain exceeds the m=8 gain (the
        # interference term is divided by m).
        assert (
            result.series_by_label("m=2").y[-1]
            > result.series_by_label("m=8").y[-1]
        )


class TestFigure7Driver:
    def test_figure7_increments_are_non_negative_and_shrink_for_het(self):
        from repro.experiments.figure7 import node_range_for_cores, run_figure7

        scale = replace(TINY, core_counts=(2,), dags_per_point=3)
        result = run_figure7(scale)
        het = result.series_by_label("R_het m=2")
        hom = result.series_by_label("R_hom m=2")
        # Upper bounds can never undercut the optimal makespan.
        assert all(value >= -1e-6 for value in het.y)
        assert all(value >= -1e-6 for value in hom.y)
        # The heterogeneous bound tightens as the offloaded share grows.
        assert het.y[-1] <= het.y[0] + 1e-9
        # Node ranges follow the paper's scheme (small for m=2, larger above).
        assert node_range_for_cores(scale, 2) == scale.ilp_node_range
        assert node_range_for_cores(scale, 8)[0] >= scale.ilp_node_range[1]


class TestRunner:
    def test_available_experiments(self):
        names = available_experiments()
        assert {"figure6", "figure7", "figure8", "figure9", "worked-example"} <= set(names)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("figure42")

    def test_run_experiment_dispatch(self):
        result = run_experiment("figure9", TINY)
        assert result.name == "figure9"

    def test_run_all_subset(self):
        results = run_all(TINY, names=["worked-example", "figure8"])
        assert set(results) == {"worked-example", "figure8"}
        assert all(isinstance(value, ExperimentResult) for value in results.values())


class TestAblations:
    def test_scheduler_ablation_structure(self):
        from repro.experiments.ablations import run_scheduler_ablation

        scale = replace(TINY, core_counts=(2,), fractions=[0.05, 0.3])
        result = run_scheduler_ablation(scale, cores=2)
        assert set(result.labels()) == {
            "breadth-first",
            "depth-first",
            "critical-path-first",
        }
        for series in result.series:
            assert len(series) == 2

    def test_service_ablation_matches_direct_ablation(self):
        # The served ablation (one request per cell, coalesced by the
        # facade into one column per platform and policy) must reproduce
        # the direct batched driver exactly for every deterministic policy.
        from repro.experiments.ablations import (
            ABLATION_POLICY_NAMES,
            run_scheduler_ablation,
            run_scheduler_ablation_service,
        )
        from repro.simulation.schedulers import policy_by_name

        names = [name for name in ABLATION_POLICY_NAMES if name != "random"]
        assert len(names) == 6
        scale = replace(quick_scale(), dags_per_point=3, fractions=[0.1, 0.3])
        direct = run_scheduler_ablation(
            scale, cores=4, policies=[policy_by_name(name) for name in names]
        )
        served = run_scheduler_ablation_service(scale, cores=4, policy_names=names)
        assert served.labels() == direct.labels() == names
        for name in names:
            expected = direct.series_by_label(name)
            actual = served.series_by_label(name)
            assert actual.x == expected.x
            assert actual.y == expected.y

    def test_ilp_ablation_oracles_agree(self):
        from repro.experiments.ablations import run_ilp_ablation

        result = run_ilp_ablation(TINY, cores=2, task_count=4)
        assert result.metadata["disagreements"] == 0
        ilp = result.series_by_label("ilp").y
        bnb = result.series_by_label("bnb").y
        assert ilp == pytest.approx(bnb)
