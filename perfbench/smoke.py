"""Smoke test of the benchmark itself, at toy sizes.

Run from the root of the repository::

    python3 -m pytest perfbench/smoke.py -q

It checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, traced and untraced; that a deliberately corrupted program
output is counted as failed; and that the benchmark refuses to run where
there is no program to measure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", trace, "--tiny"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if trace == "0":
        assert "failed_frac" in proc.stdout
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_corrupted_output_counts_in_failed_frac(monkeypatch):
    from repro.core.encoder_runner import DEFAEncoderRunner

    original = DEFAEncoderRunner.forward

    def corrupted(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        if self.resolved_backend().name != "reference":
            result.memory[0, 0] += 1.0
        return result

    monkeypatch.setattr(DEFAEncoderRunner, "forward", corrupted)
    args = run.parse_args(
        ["--workload", "encode_coco", "--seed", "3", "--seconds", "0.2", "--trace", "0", "--tiny"]
    )
    out = run.run(args, import_s=0.0)
    assert out["result"]["failed"] >= 1
    assert out["result"]["correct"] is False
    report = {name: value for name, value, _ in out["report"]}
    assert report["failed_frac"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    proc = _bench(
        "--workload", "encode_coco", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
