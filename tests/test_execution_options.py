"""Tests for the one-object execution-knob surface.

``ExecutionOptions`` bundles ``sparse_mode`` / ``kernel_backend`` /
``machine_profile``; every surface takes it as ``options=`` only, normalized
by ``normalize_execution_options`` (``None`` means defaults, anything else
that is not an ``ExecutionOptions`` is a ``TypeError``).
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.kernels import ExecutionOptions, normalize_execution_options
from repro.nn.encoder import DeformableEncoder
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.utils.shapes import LevelShape

SHAPES = [LevelShape(8, 12), LevelShape(4, 6)]
N_IN = sum(s.num_pixels for s in SHAPES)
D_MODEL = 32


def _encoder(seed: int = 0) -> DeformableEncoder:
    return DeformableEncoder(
        num_layers=2,
        d_model=D_MODEL,
        num_heads=4,
        num_levels=len(SHAPES),
        num_points=2,
        ffn_dim=64,
        rng=seed,
    )


class TestExecutionOptions:
    def test_defaults_inherit(self):
        options = ExecutionOptions()
        assert options.sparse_mode is None
        assert options.kernel_backend is None
        assert options.machine_profile is None

    def test_only_execution_knobs(self):
        """Each knob has one home: what is computed lives on DEFAConfig,
        detail collection on the forward calls."""
        names = [f.name for f in fields(ExecutionOptions)]
        assert names == ["sparse_mode", "kernel_backend", "machine_profile"]
        assert "kernel_backend" not in {f.name for f in fields(DEFAConfig)}

    def test_machine_profile_accepts_profile_spec_only(self):
        from repro.kernels import MachineProfile

        assert ExecutionOptions(machine_profile="reference").machine_profile == "reference"
        profile = MachineProfile(name="opts")
        assert ExecutionOptions(machine_profile=profile).machine_profile is profile
        with pytest.raises(TypeError, match="machine_profile"):
            ExecutionOptions(machine_profile=42)

    def test_machine_profile_picklable_inside_options(self):
        import pickle

        from repro.kernels import MachineProfile

        options = ExecutionOptions(machine_profile=MachineProfile(name="travels"))
        assert pickle.loads(pickle.dumps(options)) == options

    def test_invalid_sparse_mode_rejected(self):
        with pytest.raises(ValueError, match="sparse_mode"):
            ExecutionOptions(sparse_mode="blocky")

    def test_invalid_backend_name_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ExecutionOptions(kernel_backend="vulkan")

    def test_with_overrides(self):
        options = ExecutionOptions(sparse_mode="sparse")
        updated = options.with_overrides(kernel_backend="reference")
        assert updated.sparse_mode == "sparse"
        assert updated.kernel_backend == "reference"
        assert options.kernel_backend is None  # frozen: original unchanged

    def test_picklable(self):
        import pickle

        options = ExecutionOptions(sparse_mode="dense", kernel_backend="fused")
        assert pickle.loads(pickle.dumps(options)) == options


class TestNormalization:
    def test_none_means_defaults(self):
        assert normalize_execution_options(None, owner="X") == ExecutionOptions()

    def test_positional_string_rejected(self):
        with pytest.raises(TypeError, match="DEFAEncoderRunner.*ExecutionOptions"):
            DEFAEncoderRunner(_encoder(), DEFAConfig(), "dense")

    def test_non_options_object_rejected(self):
        with pytest.raises(TypeError, match="ExecutionOptions"):
            DEFAEncoderRunner(_encoder(), DEFAConfig(), object())

    def test_per_call_surfaces_reject_construction_knobs(self):
        runner = DEFAEncoderRunner(_encoder(), DEFAConfig(enable_query_pruning=True))
        src = np.zeros((N_IN, D_MODEL), dtype=np.float32)
        pos = sine_positional_encoding(SHAPES, D_MODEL)
        reference_points = make_reference_points(SHAPES)
        with pytest.raises(ValueError, match="per-block"):
            runner.defa_layers[0].forward_detailed(
                src + pos,
                reference_points,
                src,
                SHAPES,
                options=ExecutionOptions(sparse_mode="sparse"),
            )


class TestBackendPrecedence:
    """``kernel_backend`` lives on ExecutionOptions and the process default."""

    def test_block_per_call_over_construction_over_default(self):
        from repro.core.pipeline import DEFAAttention
        from repro.kernels import use_backend

        attn = _encoder().layers[0].self_attn
        pinned = DEFAAttention(attn, DEFAConfig(), ExecutionOptions(kernel_backend="reference"))
        unpinned = DEFAAttention(attn, DEFAConfig())
        for default in ("fused", "reference"):
            with use_backend(default):
                assert pinned._resolve_backend().name == "reference"
                assert pinned._resolve_backend("fused").name == "fused"
                assert unpinned._resolve_backend().name == default

    def test_runner_attribute_over_default(self):
        from repro.kernels import use_backend

        runner = DEFAEncoderRunner(
            _encoder(), DEFAConfig(), ExecutionOptions(kernel_backend="reference")
        )
        with use_backend("fused"):
            assert runner.resolved_backend().name == "reference"
            assert runner.plan_stats()["backend"] == "reference"
            runner.kernel_backend = None
            assert runner.resolved_backend().name == "fused"
