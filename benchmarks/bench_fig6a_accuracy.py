"""Benchmark regenerating Fig. 6(a): detection accuracy under the DEFA algorithm."""

from conftest import run_once

from repro.experiments import fig6a_accuracy


def test_fig6a_accuracy(benchmark):
    result = run_once(benchmark, fig6a_accuracy.run, scale="small")
    print()
    print(result.as_table())
    for name, payload in result.data["per_model"].items():
        # The DEFA configuration costs only a small fraction of the baseline AP...
        assert payload["estimated_defa_ap"] > 0.9 * payload["published_defa_ap"]
        # ...while INT8 quantization is catastrophic (the paper's 9.7 AP drop).
        assert payload["estimated_int8_ap"] < payload["estimated_defa_ap"]
