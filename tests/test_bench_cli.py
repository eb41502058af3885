"""CLI tests for the benchmark harness and the regression gate.

``benchmarks/run_all.py`` and ``benchmarks/compare_bench.py`` are the CI
perf contract: drift detection (``--check``), the speedup-regression fence
and the friendly argument validation.  These tests drive both ``main()``
entry points against tmp-path JSON fixtures in the probe-record layout (and
monkeypatched benchmark runners, so nothing slow executes), pin the exit
codes CI relies on (0 = pass, 1 = regression/drift, 2 = argparse error), and
check the harness's interleaved timer against a fake clock.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

BENCHMARKS_DIR = Path(__file__).resolve().parent.parent / "benchmarks"
if str(BENCHMARKS_DIR) not in sys.path:
    sys.path.insert(0, str(BENCHMARKS_DIR))

import compare_bench  # noqa: E402  (path set up above)
import run_all  # noqa: E402

from repro.eval.profiler import ProbeRecord, time_interleaved  # noqa: E402


def _probe(name, ratios=None, serving=None, counters=None, equivalence=()):
    return asdict(
        ProbeRecord(
            name=name,
            config={},
            ratios=dict(ratios or {}),
            serving=dict(serving or {}),
            counters=dict(counters or {}),
            equivalence=[
                {"probe": probe, "max_abs_diff": drift, "tolerance": tol}
                for probe, drift, tol in equivalence
            ],
        )
    )


def _record(engine_speedup=4.0, sweep_half=5.0, encoder_drift=1e-3, sweep_drift=1e-4):
    """A minimal run_all record in the probe-record layout."""
    return {
        "name": "run_all",
        "config": {"scale": "compact", "repeats": 1},
        "benchmarks": [
            _probe(
                "batched_engine",
                ratios={"speedup": engine_speedup},
                equivalence=[("batched_engine", 1e-6, 1e-5)],
            ),
            _probe(
                "sparse_speedup",
                ratios={
                    "max_speedup": 7.0,
                    "speedup_at_half_pixel_reduction": sweep_half,
                    "encoder_speedup": 3.0,
                    "encoder_ffn_speedup": 1.4,
                },
                equivalence=[
                    ("sparse_speedup[fwp_k=1.0, pap=0.035]", sweep_drift, 5e-3),
                    ("sparse_speedup.encoder", encoder_drift, 1e-2),
                    ("sparse_speedup.encoder_blockwise.fp32", 2e-6, 1e-5),
                    ("sparse_speedup.encoder_blockwise.int12", 3e-3, 2e-2),
                ],
            ),
            _probe(
                "serving",
                serving={
                    "p50_ms": {"value": 50.0, "better": "lower"},
                    "throughput_rps": {"value": 300.0, "better": "higher"},
                },
                counters={"num_retried": 4, "watchdog_kills": 0},
                equivalence=[("serving", 0.0, 0.0)],
            ),
        ],
    }


def _drift_probe(drift):
    """The fp32 encoder lockstep probe at a given drift (tolerance 1e-5)."""
    return ProbeRecord(
        **_probe(
            "encoder_equivalence_fp32",
            ratios={"speedup": 3.0},
            equivalence=[("encoder_equivalence_fp32", drift, 1e-5)],
        )
    )


def _write(tmp_path, name, record):
    path = tmp_path / name
    path.write_text(json.dumps(record))
    return path


class TestProbeRecordLayout:
    def test_tracked_sections_are_qualified_by_probe_name(self):
        record = _record()
        ratios = compare_bench.tracked(record, "ratios")
        assert ratios["batched_engine.speedup"] == 4.0
        assert ratios["sparse_speedup.max_speedup"] == 7.0
        assert ratios["sparse_speedup.speedup_at_half_pixel_reduction"] == 5.0
        assert ratios["sparse_speedup.encoder_speedup"] == 3.0
        assert ratios["sparse_speedup.encoder_ffn_speedup"] == 1.4
        assert compare_bench.tracked(record, "serving")["serving.p50_ms"] == {
            "value": 50.0,
            "better": "lower",
        }
        assert compare_bench.tracked(record, "counters") == {
            "serving.num_retried": 4,
            "serving.watchdog_kills": 0,
        }

    def test_equivalence_entries_are_read_as_recorded(self):
        probes = compare_bench.equivalence_entries(_record())
        by_name = {p["probe"]: p for p in probes}
        assert by_name["sparse_speedup.encoder"]["tolerance"] == 1e-2
        assert by_name["sparse_speedup.encoder_blockwise.fp32"]["tolerance"] == 1e-5
        assert by_name["sparse_speedup.encoder_blockwise.int12"]["max_abs_diff"] == 3e-3
        assert by_name["batched_engine"]["max_abs_diff"] == 1e-6
        assert "sparse_speedup[fwp_k=1.0, pap=0.035]" in by_name
        assert len(probes) == 6

    def test_diverged_encoder_trajectory_is_not_a_probe(self):
        """An end-to-end encoder run whose mask trajectories diverged is
        diagnostic only: its record carries no encoder equivalence entry."""
        from types import SimpleNamespace

        from bench_sparse_speedup import gate_encoder

        report = SimpleNamespace(
            mask_trajectory_matched=False, max_abs_diff=0.5, compiled_max_abs_diff=0.0
        )
        record = ProbeRecord(name="encoder_sparse", config={})
        gate_encoder(record, report, "encoder_sparse", "encoder_sparse.compiled")
        assert [p["probe"] for p in record.equivalence] == ["encoder_sparse.compiled"]
        report.mask_trajectory_matched = True
        gate_encoder(record, report, "encoder_sparse", "encoder_sparse.compiled")
        assert "encoder_sparse" in {p["probe"] for p in record.equivalence}

    def test_committed_baseline_is_readable_and_passes_against_itself(self):
        baseline = BENCHMARKS_DIR / "baselines" / "BENCH_compact.json"
        record = json.loads(baseline.read_text())
        for probe in record["benchmarks"]:
            assert set(probe) == {
                "name", "config", "timings_ms", "ratios", "serving", "counters", "equivalence"
            }
        assert len(compare_bench.equivalence_entries(record)) == 16
        rc = compare_bench.main(["--baseline", str(baseline), "--current", str(baseline)])
        assert rc == 0

    def test_committed_serving_baselines_fence_the_dispatch_mix(self):
        """Both serving probes of the baseline track one batch count per
        dispatch reason, so a record that drops one fails as lost coverage."""
        from repro.engine.serving import BATCH_REASONS

        baseline = BENCHMARKS_DIR / "baselines" / "BENCH_compact.json"
        record = json.loads(baseline.read_text())
        serving = {p["name"]: p["counters"] for p in record["benchmarks"]}
        for name in ("serving", "serving_faults"):
            mix = {key for key in serving[name] if key.startswith("batches_")}
            assert mix == {f"batches_{reason}" for reason in BATCH_REASONS}


class TestInterleavedTimer:
    def test_rounds_alternate_the_variants(self):
        calls = []
        timings = time_interleaved(
            {"a": lambda: calls.append("a"), "b": lambda: calls.append("b")},
            3,
            before_round=lambda: calls.append("|"),
            steps=2,
        )
        assert calls == ["|", "a", "b", "a", "b"] * 3
        assert timings.rounds == 3
        assert set(timings.best_s) == set(timings.spread) == {"a", "b"}
        assert all(spread >= 0.0 for spread in timings.spread.values())
        section = timings.ms()
        assert section["rounds"] == 3
        assert section["best"]["a"] == 1e3 * timings.best_s["a"]

    def test_best_and_spread_come_from_the_rounds(self, monkeypatch):
        from types import SimpleNamespace

        import repro.eval.profiler as profiler

        clock = iter([0.0, 2.0, 2.0, 3.0, 3.0, 7.0, 7.0, 8.0])  # a: 2, 4; b: 1, 1
        monkeypatch.setattr(profiler, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        timings = time_interleaved({"a": lambda: None, "b": lambda: None}, 2)
        assert timings.best_s == {"a": 2.0, "b": 1.0}
        assert timings.spread == {"a": 1.0, "b": 0.0}
        assert timings.ratio("a", "b") == 2.0

    def test_a_round_sums_its_steps(self, monkeypatch):
        from types import SimpleNamespace

        import repro.eval.profiler as profiler

        clock = iter([0.0, 1.0, 1.0, 3.0, 3.0, 6.0, 6.0, 7.0])  # a: 1 + 3; b: 2 + 1
        monkeypatch.setattr(profiler, "time", SimpleNamespace(perf_counter=lambda: next(clock)))
        timings = time_interleaved({"a": lambda: None, "b": lambda: None}, 1, steps=2)
        assert timings.best_s == {"a": 4.0, "b": 3.0}
        assert timings.rounds == 1

    def test_rounds_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            time_interleaved({"a": lambda: None}, 0)


class TestCompareBenchCli:
    def test_identical_records_pass(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record())
        curr = _write(tmp_path, "curr.json", _record())
        rc = compare_bench.main(["--baseline", str(base), "--current", str(curr)])
        assert rc == 0
        assert "benchmark comparison passed" in capsys.readouterr().out

    def test_speedup_regression_fails(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record(engine_speedup=4.0))
        curr = _write(tmp_path, "curr.json", _record(engine_speedup=2.0))
        rc = compare_bench.main(["--baseline", str(base), "--current", str(curr)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "BENCH REGRESSION" in captured.err
        assert "batched_engine.speedup" in captured.err

    def test_regression_within_tolerance_passes(self, tmp_path):
        base = _write(tmp_path, "base.json", _record(engine_speedup=4.0))
        curr = _write(tmp_path, "curr.json", _record(engine_speedup=3.5))
        rc = compare_bench.main(
            ["--baseline", str(base), "--current", str(curr), "--tolerance", "0.2"]
        )
        assert rc == 0

    def test_equivalence_drift_fails_even_with_better_speedups(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record())
        curr = _write(
            tmp_path, "curr.json", _record(engine_speedup=9.0, encoder_drift=5e-2)
        )
        rc = compare_bench.main(["--baseline", str(base), "--current", str(curr)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "sparse_speedup.encoder" in captured.err
        assert "drift" in captured.err

    def test_missing_metric_fails_unless_allowed(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record())
        current = _record()
        del current["benchmarks"][1]["ratios"]["encoder_ffn_speedup"]
        curr = _write(tmp_path, "curr.json", current)
        rc = compare_bench.main(["--baseline", str(base), "--current", str(curr)])
        assert rc == 1
        assert "absent from the current record" in capsys.readouterr().err
        rc = compare_bench.main(
            ["--baseline", str(base), "--current", str(curr), "--allow-missing"]
        )
        assert rc == 0

    def test_new_metric_in_current_is_reported_not_failed(self, tmp_path, capsys):
        baseline = _record()
        del baseline["benchmarks"][1]["ratios"]["encoder_speedup"]
        base = _write(tmp_path, "base.json", baseline)
        curr = _write(tmp_path, "curr.json", _record())
        rc = compare_bench.main(["--baseline", str(base), "--current", str(curr)])
        assert rc == 0
        assert "new" in capsys.readouterr().out

    def test_serving_metrics_regress_only_past_the_widened_fence(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record())
        current = _record()
        serving = current["benchmarks"][2]["serving"]
        serving["p50_ms"]["value"] = 110.0  # 2.2x: inside the (1 + 0.2) * 2 fence
        serving["throughput_rps"]["value"] = 100.0  # 1/3: past it, falling
        curr = _write(tmp_path, "curr.json", current)
        rc = compare_bench.main(["--baseline", str(base), "--current", str(curr)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "serving.throughput_rps: fell" in err
        assert "serving.p50_ms" not in err

    def test_missing_counter_fails_as_lost_coverage(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record())
        current = _record()
        del current["benchmarks"][2]["counters"]["watchdog_kills"]
        curr = _write(tmp_path, "curr.json", current)
        rc = compare_bench.main(["--baseline", str(base), "--current", str(curr)])
        assert rc == 1
        assert "fault-model coverage lost" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "baseline",
        [
            # The previous layout: top-level speedup fields, no sections.
            {"benchmarks": [{"name": "batched_engine", "speedup": 4.0}]},
            # A single-probe record without the benchmarks list.
            {"name": "batched_engine", "ratios": {"speedup": 4.0}},
            {"benchmarks": []},
        ],
    )
    def test_unreadable_baseline_fails_even_with_allow_missing(
        self, tmp_path, capsys, baseline
    ):
        base = _write(tmp_path, "base.json", baseline)
        curr = _write(tmp_path, "curr.json", _record())
        rc = compare_bench.main(
            ["--baseline", str(base), "--current", str(curr), "--allow-missing"]
        )
        assert rc == 1
        assert "yields no tracked metric" in capsys.readouterr().err

    def test_invalid_tolerance_is_an_argparse_error(self, tmp_path, capsys):
        base = _write(tmp_path, "base.json", _record())
        with pytest.raises(SystemExit) as excinfo:
            compare_bench.main(
                ["--baseline", str(base), "--current", str(base), "--tolerance", "1.5"]
            )
        assert excinfo.value.code == 2
        assert "--tolerance must be in [0, 1)" in capsys.readouterr().err

    def test_missing_record_file_is_a_friendly_exit(self, tmp_path):
        base = _write(tmp_path, "base.json", _record())
        with pytest.raises(SystemExit) as excinfo:
            compare_bench.main(
                ["--baseline", str(base), "--current", str(tmp_path / "nope.json")]
            )
        assert "not found" in str(excinfo.value)

    def test_invalid_json_is_a_friendly_exit(self, tmp_path):
        base = _write(tmp_path, "base.json", _record())
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SystemExit) as excinfo:
            compare_bench.main(["--baseline", str(base), "--current", str(bad)])
        assert "not valid JSON" in str(excinfo.value)


class TestRunAllCli:
    @pytest.fixture
    def fast_benchmarks(self, monkeypatch):
        """Replace every benchmark runner with a canned probe record."""
        record = _record()
        engine, sweep, serving = (ProbeRecord(**probe) for probe in record["benchmarks"])
        canned = {
            "run_engine_benchmark": lambda repeats: engine,
            "run_sparse_benchmark": lambda scale, repeats: sweep,
            "run_encoder_sparse_benchmark": lambda scale, repeats: ProbeRecord(
                **_probe(
                    "encoder_sparse",
                    ratios={"speedup": 3.0, "ffn_speedup": 1.3},
                    equivalence=[("encoder_sparse", 1e-3, 1e-2)],
                )
            ),
            "run_encoder_fp32_equivalence": lambda scale, repeats: _drift_probe(2e-6),
            "run_encoder_int12_equivalence": lambda scale, repeats: ProbeRecord(
                **_probe(
                    "encoder_equivalence_int12",
                    equivalence=[("encoder_equivalence_int12", 4e-3, 2e-2)],
                )
            ),
            "run_kernel_fusion_benchmark": lambda scale, repeats: ProbeRecord(
                **_probe("kernel_fusion", equivalence=[("kernel_fusion", 0.0, 0.0)])
            ),
            "run_sparse_fp32_equivalence": lambda scale, repeats: ProbeRecord(
                **_probe(
                    "sparse_equivalence_fp32",
                    ratios={"speedup": 2.0},
                    equivalence=[("sparse_equivalence_fp32", 1e-6, 1e-5)],
                )
            ),
            "run_serving_benchmark": lambda requests, repeats: serving,
            "run_serving_faults_benchmark": lambda requests, repeats: ProbeRecord(
                **{**_probe("serving_faults"), "counters": dict(serving.counters)}
            ),
            "run_streaming_benchmark": lambda scale, frames, repeats: ProbeRecord(
                **_probe("streaming", ratios={"speedup": 1.2})
            ),
        }
        for name, runner in canned.items():
            monkeypatch.setattr(run_all, name, runner)
        return record

    def test_writes_json_and_passes_check(self, tmp_path, capsys, fast_benchmarks):
        out = tmp_path / "BENCH_test.json"
        rc = run_all.main(["--json", str(out), "--check"])
        captured = capsys.readouterr()
        assert rc == 0
        assert out.exists()
        written = json.loads(out.read_text())
        assert [b["name"] for b in written["benchmarks"]] == list(run_all.PROBE_RUNNERS)
        assert written["benchmarks"][0] == fast_benchmarks["benchmarks"][0]
        assert "equivalence check (11 probes)" in captured.out
        assert "equivalence check passed" in captured.out

    def test_check_fails_on_drift_with_per_probe_summary(
        self, tmp_path, capsys, monkeypatch, fast_benchmarks
    ):
        monkeypatch.setattr(
            run_all,
            "run_encoder_fp32_equivalence",
            lambda scale, repeats: _drift_probe(5e-4),  # way past the fp32 tolerance
        )
        out = tmp_path / "BENCH_drift.json"
        rc = run_all.main(["--json", str(out), "--check"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "EQUIVALENCE DRIFT" in captured.err
        assert "encoder_equivalence_fp32" in captured.err
        assert "[DRIFT]" in captured.out or "DRIFT" in captured.out

    def test_without_check_drift_does_not_fail(
        self, tmp_path, monkeypatch, fast_benchmarks
    ):
        monkeypatch.setattr(
            run_all, "run_encoder_fp32_equivalence", lambda scale, repeats: _drift_probe(5e-4)
        )
        rc = run_all.main(["--json", str(tmp_path / "b.json")])
        assert rc == 0

    def test_unknown_scale_is_a_friendly_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_all.main(["--scale", "galactic"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown scale 'galactic'" in err
        assert "compact" in err  # the error lists the known scales

    @pytest.mark.parametrize("bad", ["0", "-3", "two"])
    def test_invalid_repeats_is_a_friendly_argparse_error(self, bad, capsys):
        with pytest.raises(SystemExit) as excinfo:
            run_all.main(["--repeats", bad])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "repeats" in err or "integer" in err

    def test_equivalence_probes_helper_marks_status(self, fast_benchmarks):
        record = {
            "name": "run_all",
            "benchmarks": [
                _probe("ok_probe", equivalence=[("ok_probe", 1e-7, 1e-5)]),
                _probe("bad_probe", equivalence=[("bad_probe", 1e-2, 1e-5)]),
            ],
        }
        probes = run_all.equivalence_probes(record)
        status = {p["probe"]: p["ok"] for p in probes}
        assert status == {"ok_probe": True, "bad_probe": False}
