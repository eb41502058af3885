"""Integration tests: the experiment harness end to end at the tiny scale."""

import pytest

from repro.core.config import DEFAConfig
from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentResult, register_experiment
from repro.experiments import (
    fig1b_latency_breakdown,
    fig6b_reduction,
    fig7a_parallelism,
    fig8_breakdown,
    table1_asic_comparison,
)
from repro.experiments import workload_runs
from repro.experiments.workload_runs import prepare_run, run_defa_cached
from repro.utils.serialization import save_json


@pytest.fixture(scope="module", autouse=True)
def _clear_caches_after_module():
    yield
    # Drop the memoized runs so later modules do not carry their memory.
    workload_runs._RUN_CACHE.clear()
    workload_runs._DEFA_CACHE.clear()


class TestRegistry:
    def test_all_paper_experiments_registered(self):
        expected = {"fig1b", "fig6a", "fig6b", "fig7a", "fig7b", "fig8", "fig9", "table1"}
        assert expected <= set(EXPERIMENTS)

    def test_register_decorator(self):
        @register_experiment("dummy_test_experiment")
        def run() -> ExperimentResult:
            return ExperimentResult("dummy_test_experiment", "t", ["a"], [[1]])

        assert EXPERIMENTS["dummy_test_experiment"]().rows == [[1]]
        del EXPERIMENTS["dummy_test_experiment"]

    def test_result_table_and_serialization(self, tmp_path):
        result = ExperimentResult("x", "title", ["a", "b"], [[1, 2.0]], notes=["n"])
        text = result.as_table()
        assert "title" in text and "note: n" in text
        save_json(tmp_path / "x.json", {"rows": result.rows})


class TestWorkloadRuns:
    def test_prepare_run_cached(self):
        a = prepare_run("deformable_detr", scale="tiny", num_layers=1, seed=0)
        b = prepare_run("deformable_detr", scale="tiny", num_layers=1, seed=0)
        assert a is b
        assert a.baseline_memory.shape == (a.spec.num_tokens, 256)

    def test_defa_run_cached(self):
        run = prepare_run("deformable_detr", scale="tiny", num_layers=1, seed=0)
        config = DEFAConfig.paper_default()
        a = run_defa_cached(run, config, "deformable_detr", "tiny", seed=0)
        b = run_defa_cached(run, config, "deformable_detr", "tiny", seed=0)
        assert a is b


class TestFastExperiments:
    def test_fig1b(self):
        result = fig1b_latency_breakdown.run(scale="paper")
        assert len(result.rows) == 3
        for row in result.rows:
            measured, published = row[1], row[2]
            assert 50.0 < measured < 80.0
            assert abs(measured - published) < 15.0

    def test_fig8(self):
        result = fig8_breakdown.run()
        data = result.data
        assert 2.0 < data["total_area_mm2"] < 3.5
        assert data["area_fractions"]["sram"] > 0.5
        assert data["energy_fractions"]["dram"] > max(
            data["energy_fractions"]["sram"], data["energy_fractions"]["logic"]
        )

    def test_table1(self):
        result = table1_asic_comparison.run()
        assert len(result.rows) == 5
        improvements = result.data["ee_improvements"]
        assert all(v > 1.0 for v in improvements.values())

    def test_published_table1_improvements(self):
        result = table1_asic_comparison.run()
        published = result.data["published_ee_improvements"]
        assert published["ELSA"] == pytest.approx(3.7, abs=0.1)


class TestAlgorithmExperimentsTiny:
    """Slower experiments exercised at the tiny scale to keep CI fast."""

    def test_fig6b_shape_of_result(self):
        result = fig6b_reduction.run(scale="tiny")
        assert len(result.rows) == 3
        for name, payload in result.data.items():
            assert 0.5 < payload["sampling_point_reduction"] < 1.0
            assert 0.0 < payload["flops_reduction"] < 1.0

    def test_fig7a_boost_above_one(self):
        result = fig7a_parallelism.run(scale="tiny")
        for name, payload in result.data.items():
            assert payload["boost"] > 1.2
