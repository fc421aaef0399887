"""Tests for the experiment harness and table rendering."""

from __future__ import annotations

import pytest

from repro.analysis import (
    PAPER_SIMILARITY,
    accuracy_ratio,
    compare_methods,
    dataset_for_table,
    epsilon_for_dataset,
    make_generator,
    methods_for_table,
    paper_similarity,
    render_method_table,
    render_method_table_with_reference,
    render_scalability_table,
    render_table1,
    render_table2,
    reproduction_delta,
    run_method_table,
    run_scalability,
    run_table1,
    speedup,
)
from repro.algorithms import minmax
from repro.algorithms.base import CSJAlgorithm
from repro.analysis.sweeps import scale_sweep
from repro.core.errors import ConfigurationError
from repro.core.types import CSJResult
from repro.datasets import PAPER_COUPLES, SyntheticGenerator, VKGenerator, build_couple
from repro.engine import BatchEngine, PairJob

TINY_SCALE = 1 / 2048


class TestTableConfiguration:
    def test_dataset_mapping(self):
        assert dataset_for_table(3) == "vk"
        assert dataset_for_table(6) == "vk"
        assert dataset_for_table(7) == "synthetic"
        assert dataset_for_table(10) == "synthetic"

    def test_invalid_table(self):
        with pytest.raises(ConfigurationError):
            dataset_for_table(12)

    def test_method_families(self):
        assert all(m.startswith("ap-") for m in methods_for_table(3))
        assert all(m.startswith("ex-") for m in methods_for_table(4))

    def test_epsilons(self):
        assert epsilon_for_dataset("vk") == 1
        assert epsilon_for_dataset("synthetic") == 15000
        with pytest.raises(ConfigurationError):
            epsilon_for_dataset("csv")

    def test_generator_factory(self):
        assert isinstance(make_generator("vk"), VKGenerator)
        assert isinstance(make_generator("synthetic"), SyntheticGenerator)


class TestSingleJoinRuntimes:
    """Tables 3-10 and the scale sweep report runtimes of single joins,
    so they reach the batch entry with one pair per call."""

    @pytest.fixture
    def batch_sizes(self, monkeypatch):
        sizes: list[int] = []
        depth = [0]

        def spying(original):
            def spy(algorithm, pairs, **kwargs):
                pairs = list(pairs)
                if not depth[0]:
                    sizes.append(len(pairs))
                depth[0] += 1
                try:
                    return original(algorithm, pairs, **kwargs)
                finally:
                    depth[0] -= 1

            return spy

        for owner in (CSJAlgorithm, minmax._MinMaxBase):
            monkeypatch.setattr(owner, "join_many", spying(owner.__dict__["join_many"]))
        return sizes

    def test_method_table_and_scale_sweep_join_one_pair_per_call(self, batch_sizes):
        run = run_method_table(
            4, scale=TINY_SCALE, couples=PAPER_COUPLES[:3], methods=("ex-minmax", "ex-baseline")
        )
        assert all(len(row.results) == 2 for row in run.rows)
        assert batch_sizes == [1] * 6
        batch_sizes.clear()
        points = scale_sweep(
            PAPER_COUPLES[0], VKGenerator(seed=7), scales=[1 / 2048, 1 / 1024, 1 / 512], epsilon=1
        )
        assert len(points) == 3
        assert batch_sizes == [1] * 3

    def test_a_run_of_one_method_is_one_batch(self, batch_sizes):
        generator = VKGenerator(seed=7)
        communities = [
            community
            for spec in PAPER_COUPLES[:3]
            for community in build_couple(spec, generator, scale=TINY_SCALE)
        ]
        jobs = [PairJob.build(2 * row, 2 * row + 1, "ex-minmax", 1) for row in range(3)]
        with BatchEngine(communities, screen=False) as engine:
            engine.run(jobs)
        assert batch_sizes == [3]


class TestRunMethodTable:
    @pytest.fixture(scope="class")
    def table4(self):
        return run_method_table(4, scale=TINY_SCALE, seed=7)

    def test_structure(self, table4):
        assert table4.table == 4
        assert table4.dataset == "vk"
        assert len(table4.rows) == 10
        assert table4.methods == methods_for_table(4)

    def test_every_cell_populated(self, table4):
        for row in table4.rows:
            for method in table4.methods:
                result = row.results[method]
                assert isinstance(result, CSJResult)
                assert result.elapsed_seconds >= 0

    def test_exact_methods_agree_per_row(self, table4):
        for row in table4.rows:
            assert row.similarity_percent("ex-baseline") == pytest.approx(
                row.similarity_percent("ex-minmax")
            )

    def test_superego_never_above_exact(self, table4):
        for row in table4.rows:
            assert (
                row.similarity_percent("ex-superego")
                <= row.similarity_percent("ex-minmax") + 1e-9
            )

    def test_subset_of_couples(self):
        run = run_method_table(
            3, scale=TINY_SCALE, couples=PAPER_COUPLES[:2], methods=("ap-minmax",)
        )
        assert len(run.rows) == 2
        assert run.methods == ("ap-minmax",)

    def test_telemetry_records_per_row(self):
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        run = run_method_table(
            3,
            scale=TINY_SCALE,
            couples=PAPER_COUPLES[:3],
            methods=("ap-minmax", "ex-minmax"),
            metrics=metrics,
        )
        assert len(run.telemetry) == 6  # 3 couples x 2 methods
        for row in run.rows:
            assert [record.method for record in row.telemetry] == [
                "ap-minmax",
                "ex-minmax",
            ]
            for record in row.telemetry:
                assert record.disposition == "computed"
                assert record.size_b <= record.size_a
        assert metrics.counter("repro_algo_joins_total", method="ex-minmax", engine="numpy") == 3

    def test_render_runtime_layout(self, table4):
        rendered = render_method_table(table4)
        assert "Table 4" in rendered
        assert "Ex-MinMax" in rendered
        assert "%" in rendered
        assert "Restaurants | Food_recipes" in rendered

    def test_render_reference_layout(self, table4):
        rendered = render_method_table_with_reference(table4)
        assert "paper" in rendered
        # Paper value for cID 1 / ex-minmax is 20.81.
        assert "20.81" in rendered

    def test_csv_export(self, table4):
        from repro.analysis.tables import method_table_csv

        csv = method_table_csv(table4)
        lines = csv.splitlines()
        # header + 10 couples x 3 methods
        assert len(lines) == 1 + 30
        assert lines[0].startswith("table,dataset,epsilon")
        assert all(line.count(",") == lines[0].count(",") for line in lines)

    def test_scalability_csv(self):
        from repro.analysis.tables import scalability_csv

        cells = run_scalability(
            scale=TINY_SCALE, categories=("Job_search",), steps=(1,)
        )
        csv = scalability_csv(cells, scale=TINY_SCALE)
        assert csv.splitlines()[0].startswith("scale,category")
        assert "Job_search" in csv


class TestScalability:
    def test_cells_and_rendering(self):
        cells = run_scalability(
            scale=TINY_SCALE, categories=("Job_search", "Medicine"), steps=(1, 2)
        )
        assert len(cells) == 4
        assert {cell.category for cell in cells} == {"Job_search", "Medicine"}
        rendered = render_scalability_table(cells, scale=TINY_SCALE)
        assert "Table 11" in rendered
        assert "Job_search" in rendered

    def test_sizes_grow_with_step(self):
        cells = run_scalability(
            scale=1 / 512, categories=("Sport",), steps=(1, 2, 3, 4)
        )
        sizes = [cell.average_size for cell in cells]
        assert sizes == sorted(sizes)


class TestTable1:
    def test_run_and_render(self):
        run = run_table1(n_users=800, seed=7)
        assert len(run.vk_ranking) == 27
        assert len(run.synthetic_ranking) == 27
        assert run.vk_ranking[0].category == "Entertainment"
        rendered = render_table1(run)
        assert "Table 1" in rendered
        assert "Entertainment" in rendered


class TestTable2:
    def test_render(self):
        rendered = render_table2()
        assert "Quick Recipes" in rendered
        assert "166850908" in rendered  # VK Pay page id
        assert rendered.count("\n") >= 21


class TestPaperReference:
    def test_all_method_tables_present(self):
        assert set(PAPER_SIMILARITY) == {3, 4, 5, 6, 7, 8, 9, 10}

    def test_each_table_has_ten_rows_of_three_methods(self):
        for table, rows in PAPER_SIMILARITY.items():
            assert len(rows) == 10
            for cells in rows.values():
                assert len(cells) == 3

    def test_lookup(self):
        assert paper_similarity(4, 1, "ex-minmax") == pytest.approx(20.81)
        assert paper_similarity(4, 1, "no-such") is None
        assert paper_similarity(99, 1, "ex-minmax") is None

    def test_exact_tables_on_synthetic_agree_across_methods(self):
        for rows in (PAPER_SIMILARITY[8], PAPER_SIMILARITY[10]):
            for cells in rows.values():
                assert len(set(cells.values())) == 1


class TestMetrics:
    def make_result(self, similarity_matched: int, elapsed: float) -> CSJResult:
        return CSJResult(
            method="m",
            exact=True,
            size_b=100,
            size_a=120,
            epsilon=1,
            pairs_b=range(similarity_matched),
            pairs_a=range(similarity_matched),
            elapsed_seconds=elapsed,
        )

    def test_accuracy_ratio(self):
        approx = self.make_result(18, 1.0)
        exact = self.make_result(20, 5.0)
        assert accuracy_ratio(approx, exact) == pytest.approx(0.9)

    def test_accuracy_ratio_zero_exact(self):
        assert accuracy_ratio(self.make_result(0, 1), self.make_result(0, 1)) == 1.0

    def test_speedup(self):
        fast = self.make_result(10, 1.0)
        slow = self.make_result(10, 4.0)
        assert speedup(fast, slow) == pytest.approx(4.0)

    def test_compare_methods(self):
        results = {
            "ex-baseline": self.make_result(20, 4.0),
            "ex-minmax": self.make_result(20, 1.0),
        }
        comparisons = compare_methods(
            results, exact_method="ex-minmax", baseline_method="ex-baseline"
        )
        by_name = {c.method: c for c in comparisons}
        assert by_name["ex-minmax"].speedup_vs_baseline == pytest.approx(4.0)
        assert by_name["ex-baseline"].accuracy_vs_exact == pytest.approx(1.0)

    def test_reproduction_delta(self):
        assert reproduction_delta(20.5, 20.0) == pytest.approx(0.5)
        assert reproduction_delta(20.5, None) is None
