"""Tests for the host-calibrated dispatch profiles (PR 9).

Covers the profile data model (schema round-trip, validation), the
active-profile registry, the committed-reference-default rule (loading the
committed profile reproduces the hand-tuned dispatch decisions bit for bit —
the PR 9 acceptance criterion), the auto-dispatch boundary semantics pinned
by the path-choice-parity invariant, and a tiny-grid calibration smoke run.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.core.pipeline import (
    SPARSE_AUTO_FFN_KEEP_MAX,
    SPARSE_AUTO_FFN_MIN_TOKENS,
    SPARSE_AUTO_MIN_QUERIES,
    SPARSE_AUTO_MIN_TOKENS,
    SPARSE_AUTO_PIXEL_KEEP_MAX,
    SPARSE_AUTO_QUERY_KEEP_MAX,
    use_sparse_rows,
)
from repro.kernels import (
    KERNEL_BACKENDS,
    PROFILE_ENV,
    CalibrationGrid,
    DispatchThresholds,
    ExecutionOptions,
    MachineProfile,
    calibrate,
    get_active_profile,
    reference_profile,
    resolve_profile,
    set_active_profile,
)
from repro.kernels import calibration
from repro.kernels.calibration import (
    PROFILE_SCHEMA_VERSION,
    REFERENCE_PROFILE_PATH,
    check_reference,
)
from repro.nn.encoder import DeformableEncoder
from repro.nn.grid_sample import (
    SPARSE_AUTO_MIN_SLOTS,
    SPARSE_AUTO_POINT_KEEP_MAX,
    use_sparse_gather,
)
from repro.utils.shapes import LevelShape


@pytest.fixture(autouse=True)
def _restore_active_profile():
    """Every test leaves the process-default profile as it found it."""
    previous = calibration._active_profile
    yield
    calibration._active_profile = previous


def _exact_keep_mask(size: int, kept: int) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[:kept] = True
    return mask


class TestDispatchThresholds:
    def test_defaults_are_the_hand_tuned_constants(self):
        """The module constants are derived from the dataclass defaults —
        one source of truth, and the committed values never drift."""
        t = DispatchThresholds()
        assert t.pixel_keep_max == SPARSE_AUTO_PIXEL_KEEP_MAX == 0.85
        assert t.min_tokens == SPARSE_AUTO_MIN_TOKENS == 512
        assert t.query_keep_max == SPARSE_AUTO_QUERY_KEEP_MAX == 0.85
        assert t.min_queries == SPARSE_AUTO_MIN_QUERIES == 512
        assert t.ffn_keep_max == SPARSE_AUTO_FFN_KEEP_MAX == 0.85
        assert t.ffn_min_tokens == SPARSE_AUTO_FFN_MIN_TOKENS == 512
        assert t.point_keep_max == SPARSE_AUTO_POINT_KEEP_MAX == 0.70
        assert t.min_slots == SPARSE_AUTO_MIN_SLOTS == 32768

    def test_validation(self):
        with pytest.raises(ValueError):
            DispatchThresholds(pixel_keep_max=1.5)
        with pytest.raises(ValueError):
            DispatchThresholds(point_keep_max=-0.1)
        with pytest.raises(ValueError):
            DispatchThresholds(min_tokens=-1)
        with pytest.raises(TypeError):
            DispatchThresholds(min_slots=0.5)
        with pytest.raises(TypeError):
            DispatchThresholds(min_queries=True)
        with pytest.raises(TypeError):
            DispatchThresholds(ffn_keep_max="0.5")

    def test_round_trip_rejects_unknown_and_missing_fields(self):
        t = DispatchThresholds(pixel_keep_max=0.6, min_slots=1024)
        assert DispatchThresholds.from_dict(t.to_dict()) == t
        with pytest.raises(ValueError, match="unknown threshold"):
            DispatchThresholds.from_dict({**t.to_dict(), "bogus": 1})
        partial = t.to_dict()
        partial.pop("min_tokens")
        with pytest.raises(ValueError, match="missing threshold"):
            DispatchThresholds.from_dict(partial)


class TestMachineProfile:
    def test_round_trip_and_save_load(self, tmp_path):
        profile = MachineProfile(
            name="test-host",
            thresholds=DispatchThresholds(pixel_keep_max=0.5, min_tokens=256),
            per_backend=(("fused", DispatchThresholds(min_slots=1)),),
            host=(("numpy", np.__version__),),
        )
        assert MachineProfile.from_dict(profile.to_dict()) == profile
        path = profile.save(tmp_path / "p.json")
        assert MachineProfile.load(path) == profile

    def test_validation(self):
        with pytest.raises(ValueError):
            MachineProfile(name="")
        with pytest.raises(ValueError):
            MachineProfile(name="x", schema_version=PROFILE_SCHEMA_VERSION + 1)
        with pytest.raises(ValueError, match="per_backend names"):
            MachineProfile(name="x", per_backend=(("gpu", DispatchThresholds()),))
        with pytest.raises(ValueError, match="duplicate"):
            MachineProfile(
                name="x",
                per_backend=(
                    ("fused", DispatchThresholds()),
                    ("fused", DispatchThresholds()),
                ),
            )
        with pytest.raises(ValueError, match="unknown profile"):
            MachineProfile.from_dict({**reference_profile().to_dict(), "extra": 1})

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            MachineProfile.load(path)

    def test_thresholds_for_override_and_default(self):
        override = DispatchThresholds(min_tokens=7)
        profile = MachineProfile(name="x", per_backend=(("fused", override),))
        assert profile.thresholds_for("fused") == override
        assert profile.thresholds_for("reference") == profile.thresholds
        assert profile.thresholds_for(None) == profile.thresholds


class TestReferenceProfile:
    """The committed-reference-default rule (acceptance criterion)."""

    def test_committed_file_equals_reference_profile(self):
        assert MachineProfile.load(REFERENCE_PROFILE_PATH) == reference_profile()

    def test_committed_file_is_canonical_json(self):
        """The file is exactly what ``save`` writes (sorted keys, trailing
        newline), so regeneration is diff-stable."""
        text = REFERENCE_PROFILE_PATH.read_text()
        assert text == json.dumps(
            reference_profile().to_dict(), indent=2, sort_keys=True
        ) + "\n"

    def test_check_reference_passes(self):
        assert check_reference() == []

    def test_check_reference_reports_drift(self, tmp_path):
        drifted = MachineProfile(
            name="reference", thresholds=DispatchThresholds(pixel_keep_max=0.2)
        )
        path = drifted.save(tmp_path / "drifted.json")
        failures = check_reference(path)
        assert any("differs from reference_profile" in f for f in failures)
        assert any("dispatch diverged" in f for f in failures)

    def test_check_reference_hint_names_the_runnable_entry(self, tmp_path):
        drifted = MachineProfile(name="drifted", thresholds=DispatchThresholds())
        failures = check_reference(drifted.save(tmp_path / "drifted.json"))
        assert any("`python -m repro.kernels --write-reference`" in f for f in failures)

    @pytest.mark.parametrize("backend_name", KERNEL_BACKENDS + (None,))
    def test_dispatch_parity_with_hand_tuned_constants(self, backend_name):
        """Sweeping representative shapes through ``use_sparse_rows`` /
        ``use_sparse_gather`` both ways — module constants vs. the committed
        profile's thresholds — every decision is identical, per backend."""
        loaded = MachineProfile.load(REFERENCE_PROFILE_PATH)
        thresholds = loaded.thresholds_for(backend_name)
        rng = np.random.default_rng(7)
        for rows in (64, 511, 512, 513, 2048, 4096):
            for keep in (0.05, 0.3, 0.5, 0.7, 0.85, 0.9, 1.0):
                kept = max(1, int(round(rows * keep)))
                mask = np.zeros(rows, dtype=bool)
                mask[rng.permutation(rows)[:kept]] = True
                assert use_sparse_rows(
                    mask, rows, SPARSE_AUTO_PIXEL_KEEP_MAX, SPARSE_AUTO_MIN_TOKENS, "auto"
                ) == use_sparse_rows(
                    mask, rows, thresholds.pixel_keep_max, thresholds.min_tokens, "auto"
                )
                point_mask = mask.reshape(1, rows, 1, 1, 1)  # one B = 1 image
                for slots in (rows * 4, SPARSE_AUTO_MIN_SLOTS):
                    assert use_sparse_gather(
                        point_mask, slots, "auto"
                    ) == use_sparse_gather(
                        point_mask, slots, "auto", thresholds=thresholds
                    )


class TestBoundarySemantics:
    """Exact-threshold behavior (the path-choice-parity invariant): minimum
    sizes compare ``<`` (exactly at the minimum is sparse-eligible), keep
    ratios compare ``<=`` (exactly at the crossover goes sparse), and the
    batched decision equals the single-image decision at the boundary."""

    def test_min_rows_boundary_is_strict(self):
        keep_max, min_rows = 0.5, 512
        mask = _exact_keep_mask(min_rows, min_rows // 4)
        assert use_sparse_rows(mask, min_rows, keep_max, min_rows, "auto")
        small = _exact_keep_mask(min_rows - 1, (min_rows - 1) // 4)
        assert not use_sparse_rows(small, min_rows - 1, keep_max, min_rows, "auto")

    def test_keep_ratio_boundary_is_inclusive(self):
        rows = 1024
        # Exactly at the crossover: 0.5 keep with keep_max=0.5 goes sparse.
        at = _exact_keep_mask(rows, rows // 2)
        assert use_sparse_rows(at, rows, 0.5, 512, "auto")
        above = _exact_keep_mask(rows, rows // 2 + 1)
        assert not use_sparse_rows(above, rows, 0.5, 512, "auto")

    def test_min_slots_boundary_is_strict(self):
        t = DispatchThresholds(min_slots=256, point_keep_max=0.5)
        mask = _exact_keep_mask(64, 16).reshape(1, 64, 1, 1, 1)
        assert use_sparse_gather(mask, 256, "auto", thresholds=t)
        assert not use_sparse_gather(mask, 255, "auto", thresholds=t)

    def test_point_keep_boundary_is_inclusive(self):
        t = DispatchThresholds(min_slots=1, point_keep_max=0.5)
        at = _exact_keep_mask(64, 32).reshape(1, 64, 1, 1, 1)
        assert use_sparse_gather(at, 256, "auto", thresholds=t)
        above = _exact_keep_mask(64, 33).reshape(1, 64, 1, 1, 1)
        assert not use_sparse_gather(above, 256, "auto", thresholds=t)

    def test_batched_equals_single_at_exact_crossover(self):
        """A calibrated profile whose value lands exactly on a measured keep
        fraction cannot flip batched-vs-single path choice: with every image
        exactly at the crossover, batched (max per-image fraction) and
        single-image dispatch agree — on both rules, sparse side and dense
        side of the boundary."""
        rows, keep_max = 1024, 0.5
        single_at = _exact_keep_mask(rows, rows // 2)
        batched_at = np.stack([single_at, single_at[::-1].copy()])
        assert use_sparse_rows(
            single_at, rows, keep_max, 512, "auto"
        ) == use_sparse_rows(batched_at, rows, keep_max, 512, "auto")
        assert use_sparse_rows(batched_at, rows, keep_max, 512, "auto")

        t = DispatchThresholds(min_slots=1, point_keep_max=keep_max)
        point_single = single_at.reshape(1, rows, 1, 1, 1)
        point_batched = batched_at.reshape(2, rows, 1, 1, 1)
        assert use_sparse_gather(
            point_single, rows * 4, "auto", thresholds=t
        ) == use_sparse_gather(
            point_batched, rows * 4, "auto", thresholds=t
        )

        # One image just above the crossover drags the whole batch dense —
        # exactly what each of its images alone would have decided is what
        # the strictest image decides.
        above = _exact_keep_mask(rows, rows // 2 + 1)
        mixed = np.stack([single_at, above])
        assert not use_sparse_rows(mixed, rows, keep_max, 512, "auto")
        assert not use_sparse_gather(
            mixed.reshape(2, rows, 1, 1, 1), rows * 4, "auto", thresholds=t
        )


class TestActiveProfileRegistry:
    def test_default_is_reference(self):
        calibration._active_profile = None
        assert get_active_profile() == reference_profile()

    def test_env_variable_seeds_the_default(self, tmp_path, monkeypatch):
        profile = MachineProfile(name="from-env", thresholds=DispatchThresholds(min_tokens=9))
        path = profile.save(tmp_path / "env.json")
        monkeypatch.setenv(PROFILE_ENV, str(path))
        calibration._active_profile = None
        assert get_active_profile() == profile
        monkeypatch.setenv(PROFILE_ENV, "reference")
        calibration._active_profile = None
        assert get_active_profile() == reference_profile()

    def test_set_and_reset(self):
        custom = MachineProfile(name="custom")
        assert set_active_profile(custom) is custom
        assert get_active_profile() is custom
        calibration._active_profile = None
        assert set_active_profile(None) == reference_profile()

    def test_resolve_profile_rules(self, tmp_path):
        custom = MachineProfile(name="direct")
        assert resolve_profile(custom) is custom
        assert resolve_profile("reference") == reference_profile()
        path = custom.save(tmp_path / "c.json")
        assert resolve_profile(str(path)) == custom
        set_active_profile(custom)
        assert resolve_profile(None) is custom
        with pytest.raises(TypeError):
            resolve_profile(42)


class TestProfileThreading:
    """machine_profile through ExecutionOptions and the runner."""

    def test_execution_options_validates_the_field(self):
        assert ExecutionOptions(machine_profile="reference").machine_profile == "reference"
        assert ExecutionOptions(machine_profile=MachineProfile(name="x"))
        with pytest.raises(TypeError, match="machine_profile"):
            ExecutionOptions(machine_profile=42)

    def _runner(self, profile=None):
        encoder = DeformableEncoder(
            num_layers=1, d_model=32, num_heads=2, num_levels=2,
            num_points=2, ffn_dim=64, rng=0,
        )
        options = ExecutionOptions(machine_profile=profile)
        return DEFAEncoderRunner(
            encoder, DEFAConfig(enable_query_pruning=True), options
        )

    def test_runner_resolves_profile_at_construction(self):
        runner = self._runner("reference")
        assert runner.machine_profile == reference_profile()
        assert runner.plan_stats()["profile"] == "reference"
        for layer in runner.defa_layers:
            assert layer.machine_profile == reference_profile()

    def test_profile_moves_stage_dispatch(self):
        """A profile with an unreachable min size pins the query/FFN stages
        dense where the reference profile compacts them."""
        mask = _exact_keep_mask(2048, 512)
        loose = self._runner(reference_profile())
        _, compact = loose.query_stage_plan(mask, 2048, loose.resolved_backend())
        assert compact
        _, ffn_compact = loose.ffn_stage_plan(mask, 2048, loose.resolved_backend())
        assert ffn_compact

        strict = self._runner(
            MachineProfile(name="strict", thresholds=DispatchThresholds(
                min_queries=1 << 20, ffn_min_tokens=1 << 20,
            ))
        )
        _, compact = strict.query_stage_plan(mask, 2048, strict.resolved_backend())
        assert not compact
        _, ffn_compact = strict.ffn_stage_plan(mask, 2048, strict.resolved_backend())
        assert not ffn_compact

    def test_per_backend_override_selected_by_resolved_backend(self):
        backend = "fused"
        override = DispatchThresholds(min_queries=1 << 20, ffn_min_tokens=1 << 20)
        profile = MachineProfile(name="pb", per_backend=((backend, override),))
        runner = self._runner(profile)
        runner.kernel_backend = backend
        mask = _exact_keep_mask(2048, 512)
        _, compact = runner.query_stage_plan(mask, 2048, runner.resolved_backend())
        assert not compact
        runner.kernel_backend = "reference"  # no override -> machine default
        _, compact = runner.query_stage_plan(mask, 2048, runner.resolved_backend())
        assert compact

    def test_forward_detailed_rejects_per_call_profile(self):
        runner = self._runner()
        attn = runner.defa_layers[0]
        shapes = [LevelShape(2, 2), LevelShape(2, 2)]
        with pytest.raises(ValueError, match="machine_profile"):
            attn.forward_detailed(
                np.zeros((4, 32), dtype=np.float32),
                np.zeros((4, 2, 2), dtype=np.float32),
                np.zeros((8, 32), dtype=np.float32),
                shapes,
                options=ExecutionOptions(machine_profile="reference"),
            )


class TestCalibrationSweep:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            CalibrationGrid(keep_ratios=())
        with pytest.raises(ValueError):
            CalibrationGrid(keep_ratios=(0.9, 0.3))
        with pytest.raises(ValueError):
            CalibrationGrid(keep_ratios=(0.0, 0.5))
        with pytest.raises(ValueError):
            CalibrationGrid(token_counts=(64, 32))
        with pytest.raises(ValueError):
            CalibrationGrid(repeats=0)

    def test_fit_crossover(self):
        sweep = {
            128: {0.3: (1.0, 2.0), 0.9: (1.0, 3.0)},
            1024: {0.3: (3.0, 1.0), 0.9: (3.0, 4.0)},
        }
        keep_max, min_size = calibration._fit_crossover(sweep, 0.85, 512)
        assert keep_max == 0.3
        assert min_size == 1024
        never_wins = {128: {0.3: (1.0, 2.0)}, 1024: {0.3: (1.0, 2.0)}}
        assert calibration._fit_crossover(never_wins, 0.85, 512) == (0.85, 512)

    def test_tiny_grid_calibrate_smoke(self):
        profile = calibrate(CalibrationGrid.tiny(), name="smoke")
        assert profile.name == "smoke"
        assert profile.per_backend  # at least one backend calibrated
        for backend_name, _ in profile.per_backend:
            assert backend_name in KERNEL_BACKENDS
        # The fitted profile is schema-valid and round-trips.
        assert MachineProfile.from_dict(profile.to_dict()) == profile

    def test_cli_calibrate_and_check(self, tmp_path, capsys):
        out = tmp_path / "host.json"
        assert calibration.main(["--grid", "tiny", "--output", str(out)]) == 0
        loaded = MachineProfile.load(out)
        assert MachineProfile.from_dict(loaded.to_dict()) == loaded
        assert calibration.main(["--check-reference"]) == 0
        assert "reference profile OK" in capsys.readouterr().out

    def test_package_entry_imports_calibration_once(self):
        """``python -m repro.kernels`` runs the CLI without runpy's
        double-import warning (the module is not run as ``__main__``)."""
        env = dict(os.environ)
        src = str(Path(calibration.__file__).resolve().parents[2])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
        done = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "repro.kernels", "--help"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: python -m repro.kernels")
        assert "RuntimeWarning" not in done.stderr
