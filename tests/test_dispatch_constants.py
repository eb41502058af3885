"""One set of dispatch constants for every host and kernel backend.

Every ``auto`` dense/sparse decision of the stack reads
:data:`repro.kernels.DISPATCH_THRESHOLDS`.  These tests pin

* the decision tables of both dispatch rules against the hand-tuned values
  (so no decision moves while the constants keep their one home);
* every dispatch site of an encoder forward — value projection, query-side
  projections, inter-block FFN stage and point gathering — at the boundaries
  of its thresholds, on every kernel backend;
* that no per-host dispatch surface is left: no profile option, bank field,
  environment variable, module, CLI or ``plan_stats()`` key.
"""

from __future__ import annotations

import importlib.util
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.core.pipeline import use_sparse_rows
from repro.engine import ModelBankSpec, StreamingConfig
from repro.kernels import (
    COMPILED_AVAILABLE,
    DISPATCH_THRESHOLDS,
    ExecutionOptions,
    resolve_profile,
)
from repro.nn.encoder import DeformableEncoder
from repro.nn.grid_sample import use_sparse_gather
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.utils.shapes import LevelShape

BACKENDS = ["reference", "fused"] + (["compiled"] if COMPILED_AVAILABLE else [])

HEADS, LEVELS, POINTS = 2, 2, 2
SLOTS_PER_QUERY = HEADS * LEVELS * POINTS * 4
"""Gather slots of one query: ``N_h * N_l * N_p`` points, 4 neighbours each."""

ARENA_KEYS = {"backend", "plans", "hits", "grows", "bytes"}
"""What ``plan_stats()`` reports for one runner: its backend and arena."""


def _random_mask(rows: int, kept: int, rng: np.random.Generator) -> np.ndarray:
    mask = np.zeros(rows, dtype=bool)
    mask[rng.permutation(rows)[:kept]] = True
    return mask


class TestDecisionTables:
    """The rules' decisions equal the hand-tuned crossovers written out:
    compact from 512 rows on at a keep fraction of at most 0.85, and point
    gathering compact from 32,768 slots per image on at a point keep
    fraction of at most 0.70."""

    @pytest.mark.parametrize("rows", [64, 511, 512, 513, 2048, 4096])
    def test_row_stages(self, rows):
        t = DISPATCH_THRESHOLDS
        stages = (
            (t.pixel_keep_max, t.min_tokens),
            (t.query_keep_max, t.min_queries),
            (t.ffn_keep_max, t.ffn_min_tokens),
        )
        rng = np.random.default_rng(rows)
        for keep in (0.05, 0.3, 0.5, 0.7, 0.85, 0.9, 1.0):
            kept = max(1, int(round(rows * keep)))
            mask = _random_mask(rows, kept, rng)
            expected = rows >= 512 and kept / rows <= 0.85
            for keep_max, min_rows in stages:
                assert use_sparse_rows(mask, rows, keep_max, min_rows, "auto") == expected

    @pytest.mark.parametrize("slots", [32767, 32768, 65536])
    def test_point_gathering(self, slots):
        t = DISPATCH_THRESHOLDS
        points = 1000
        rng = np.random.default_rng(slots)
        for kept in (50, 300, 699, 700, 701, 850, 1000):
            mask = _random_mask(points, kept, rng).reshape(1, points, 1, 1, 1)
            expected = slots >= 32768 and kept / points <= 0.70
            assert use_sparse_gather(mask, slots, t.point_keep_max, t.min_slots, "auto") == expected
            # A batch decides as its strictest image: pair with a sparse one.
            light = _random_mask(points, 50, rng).reshape(1, points, 1, 1, 1)
            batch = np.concatenate([light, mask])
            assert use_sparse_gather(batch, slots, t.point_keep_max, t.min_slots, "auto") == expected


# (level shapes, kept pixels of the second block's incoming mask,
#  expected row-stage decision, expected gather decision or None = the rule's)
SITE_CASES = {
    "at_keep_max": ((LevelShape(24, 40), LevelShape(12, 20)), 1020, True, None),
    "above_keep_max": ((LevelShape(24, 40), LevelShape(12, 20)), 1021, False, None),
    "at_min_size": ((LevelShape(16, 24), LevelShape(8, 16)), 128, True, False),
    "below_min_size": ((LevelShape(21, 21), LevelShape(7, 10)), 127, False, False),
    "at_min_slots": ((LevelShape(24, 32), LevelShape(16, 16)), 256, True, True),
    "below_min_slots": ((LevelShape(25, 33), LevelShape(9, 22)), 255, True, False),
}


@pytest.mark.parametrize("case", sorted(SITE_CASES))
@pytest.mark.parametrize("backend", BACKENDS)
def test_every_dispatch_site_reads_the_constants(backend, case):
    """One ``auto`` forward with a chosen incoming mask on the second block:
    its value projection, query-side projections and FFN stage decide with
    the row thresholds, its point gathering with the gather thresholds, on
    every backend alike."""
    shapes, kept, rows_sparse, gather_sparse = SITE_CASES[case]
    n_in = sum(s.num_pixels for s in shapes)
    encoder = DeformableEncoder(
        num_layers=2, d_model=32, num_heads=HEADS, num_levels=LEVELS,
        num_points=POINTS, ffn_dim=64, rng=0,
    )
    runner = DEFAEncoderRunner(
        encoder,
        DEFAConfig(quant_bits=None, enable_query_pruning=True),
        ExecutionOptions(sparse_mode="auto", kernel_backend=backend),
    )
    rng = np.random.default_rng(n_in)
    result = runner.forward(
        rng.standard_normal((n_in, 32)).astype(np.float32),
        sine_positional_encoding(shapes, 32),
        make_reference_points(shapes),
        list(shapes),
        fmap_masks=[None, _random_mask(n_in, kept, rng)],
    )
    stats = result.layer_stats[1]
    t = DISPATCH_THRESHOLDS
    assert stats.pixels_kept == kept and stats.num_queries == n_in
    assert rows_sparse == (n_in >= t.min_tokens and kept / n_in <= t.pixel_keep_max)
    assert stats.sparse_projection == rows_sparse
    assert stats.sparse_query == rows_sparse
    assert stats.sparse_ffn == rows_sparse
    rule = (
        n_in * SLOTS_PER_QUERY >= t.min_slots
        and stats.points_kept / stats.points_total <= t.point_keep_max
    )
    assert stats.sparse_gather == rule
    if gather_sparse is not None:
        assert stats.sparse_gather == gather_sparse


def _spec(**overrides) -> ModelBankSpec:
    spec = ModelBankSpec(
        num_layers=1, d_model=32, num_heads=HEADS, num_levels=LEVELS,
        num_points=POINTS, ffn_dim=64,
        classes=(("fp32", DEFAConfig(quant_bits=None)),),
        streams=(("vid", DEFAConfig(quant_bits=None), StreamingConfig()),),
    )
    return replace(spec, **overrides)


class TestNoHostCalibration:
    """The per-host dispatch surface is gone for good."""

    def test_execution_options_take_no_profile(self):
        with pytest.raises(TypeError, match="machine_profile"):
            ExecutionOptions(machine_profile="reference")

    def test_bank_spec_takes_no_profile(self):
        with pytest.raises(TypeError, match="machine_profile"):
            ModelBankSpec(machine_profile="reference")

    def test_no_calibration_module_or_cli(self):
        assert importlib.util.find_spec("repro.kernels.calibration") is None
        assert importlib.util.find_spec("repro.kernels.__main__") is None

    def test_profile_environment_variable_is_not_read(self, monkeypatch, tmp_path):
        """A profile path in the old environment variable, even one that
        does not exist, changes nothing: the runner builds and dispatches by
        the constants."""
        monkeypatch.setenv("REPRO_MACHINE_PROFILE", str(tmp_path / "missing.json"))
        runner = DEFAEncoderRunner(
            DeformableEncoder(num_layers=1, d_model=32, num_heads=HEADS,
                              num_levels=LEVELS, num_points=POINTS, ffn_dim=64, rng=0),
            DEFAConfig(enable_query_pruning=True),
            ExecutionOptions(sparse_mode="auto"),
        )
        rows = 2 * DISPATCH_THRESHOLDS.min_queries
        mask = _random_mask(rows, rows // 4, np.random.default_rng(0))
        assert runner.query_stage_plan(mask, rows)[1]
        assert runner.ffn_stage_plan(mask, rows)[1]

    def test_resolve_profile_names_the_one_set(self):
        assert resolve_profile(None).name == "reference"
        assert resolve_profile().name == "reference"

    @pytest.mark.parametrize("surface", ["runner", "bank_class", "bank_stream"])
    def test_plan_stats_report_backend_and_arena_only(self, surface):
        bank = _spec(kernel_backend="reference").build()
        shapes = [LevelShape(4, 6), LevelShape(2, 3)]
        n_in = sum(s.num_pixels for s in shapes)
        bank.streaming["vid"].forward(
            np.zeros((1, n_in, 32), np.float32), shapes, [("s0", 0)]
        )
        if surface == "runner":
            stats = bank.runners["fp32"].plan_stats()
            expected = ARENA_KEYS
        elif surface == "bank_class":
            stats = bank.plan_stats()["fp32"]
            expected = ARENA_KEYS
        else:
            stats = bank.plan_stats()["vid"]
            expected = ARENA_KEYS | {"sessions"}
        assert set(stats) == expected
        assert stats["backend"] == "reference"
