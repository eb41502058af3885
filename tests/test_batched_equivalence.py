"""Golden equivalence suite for the batched execution paths.

Every batched kernel must produce, per image, what the loop-based reference
oracles and the per-image calls produce — within ``1e-5`` absolute tolerance
against the oracles (the batch-first kernels may regroup float32 reductions)
and bit for bit against a single-image call, which runs the same body as a
``B = 1`` batch.  The
suite covers the raw operator (:class:`MSDeformAttn`), the encoder stack, and
the DEFA pipeline with each algorithm knob (PAP / FWP / quantization) toggled
independently, for batch sizes 1 and 3.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderResult, DEFAEncoderRunner
from repro.core.pipeline import DEFAAttention, DEFAAttentionOutput
from repro.kernels import ExecutionOptions
from repro.nn.encoder import DeformableEncoder
from repro.nn.grid_sample import (
    BatchedSamplingTrace,
    SamplingTrace,
    ms_deform_attn_core,
    ms_deform_attn_core_reference,
    multi_scale_neighbors,
)
from repro.nn.msdeform_attn import MSDeformAttn
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.utils.shapes import LevelShape

TOL = 1e-5

SHAPES = [LevelShape(8, 12), LevelShape(4, 6), LevelShape(2, 3)]
N_IN = sum(s.num_pixels for s in SHAPES)
D_MODEL = 32
NUM_HEADS = 4
NUM_POINTS = 2


@pytest.fixture(scope="module")
def attn() -> MSDeformAttn:
    return MSDeformAttn(
        d_model=D_MODEL,
        num_heads=NUM_HEADS,
        num_levels=len(SHAPES),
        num_points=NUM_POINTS,
        rng=0,
    )


def _batch_inputs(batch_size: int, seed: int = 1):
    rng = np.random.default_rng(seed)
    query = rng.standard_normal((batch_size, N_IN, D_MODEL)).astype(np.float32)
    value = rng.standard_normal((batch_size, N_IN, D_MODEL)).astype(np.float32)
    reference = make_reference_points(SHAPES)
    return query, value, reference


class TestBatchedKernels:
    def test_core_matches_reference_per_image(self):
        rng = np.random.default_rng(2)
        batch = 3
        value = rng.standard_normal((batch, N_IN, NUM_HEADS, D_MODEL // NUM_HEADS)).astype(
            np.float32
        )
        locs = rng.uniform(
            0.0, 1.0, size=(batch, 17, NUM_HEADS, len(SHAPES), NUM_POINTS, 2)
        ).astype(np.float32)
        weights = rng.random((batch, 17, NUM_HEADS, len(SHAPES), NUM_POINTS)).astype(
            np.float32
        )
        mask = rng.random(weights.shape) > 0.3
        batched = ms_deform_attn_core(value, SHAPES, locs, weights, point_mask=mask)
        assert batched.shape == (batch, 17, D_MODEL)
        for b in range(batch):
            reference = ms_deform_attn_core_reference(
                value[b], SHAPES, locs[b], weights[b], point_mask=mask[b]
            )
            np.testing.assert_allclose(batched[b], reference, atol=TOL)
            single = ms_deform_attn_core(
                value[b], SHAPES, locs[b], weights[b], point_mask=mask[b]
            )
            np.testing.assert_array_equal(batched[b], single)

    def test_batched_trace_matches_per_image(self):
        rng = np.random.default_rng(3)
        locs = rng.uniform(
            -0.1, 1.1, size=(2, 9, NUM_HEADS, len(SHAPES), NUM_POINTS, 2)
        ).astype(np.float32)
        batched = multi_scale_neighbors(SHAPES, locs)
        assert isinstance(batched, BatchedSamplingTrace)
        assert batched.batch_size == 2
        for b in range(2):
            single = multi_scale_neighbors(SHAPES, locs[b])
            assert isinstance(single, SamplingTrace)
            image = batched.image(b)
            for field in ("levels", "rows", "cols", "flat_indices", "weights", "valid"):
                np.testing.assert_array_equal(getattr(image, field), getattr(single, field))


class TestBatchedMSDeformAttn:
    @staticmethod
    def _intermediates(attn, query, reference, value):
        """Attention probabilities, sampling offsets and locations and the
        projected values, from the helpers ``forward`` composes."""
        offsets = attn.project_sampling_offsets(query)
        return {
            "attention_weights": attn.attention_probabilities(query),
            "sampling_offsets": offsets,
            "sampling_locations": attn.compute_sampling_locations(reference, offsets, SHAPES),
            "value": attn.value_proj(value),
        }

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_forward_matches_loop(self, attn, batch_size):
        query, value, reference = _batch_inputs(batch_size)
        batched = attn.forward(query, reference, value, SHAPES)
        assert batched.shape == (batch_size, N_IN, D_MODEL)
        batched_parts = self._intermediates(attn, query, reference, value)
        for b in range(batch_size):
            single = attn.forward(query[b], reference, value[b], SHAPES)
            np.testing.assert_allclose(batched[b], single, atol=TOL)
            single_parts = self._intermediates(attn, query[b], reference, value[b])
            for name, part in single_parts.items():
                np.testing.assert_allclose(batched_parts[name][b], part, atol=TOL)

    @pytest.mark.parametrize("per_image_reference", [False, True])
    def test_single_image_is_image_zero_of_a_batch(self, attn, per_image_reference):
        """One path: ``forward(q)`` equals image 0 of ``forward(q[None])``
        bit for bit, whether the batch shares its reference points or
        carries its own, and so do the intermediates it composes."""
        query, value, reference = _batch_inputs(1)
        batch_reference = reference[None] if per_image_reference else reference
        np.testing.assert_array_equal(
            attn.forward(query[0], reference, value[0], SHAPES),
            attn.forward(query, batch_reference, value, SHAPES)[0],
        )
        single = self._intermediates(attn, query[0], reference, value[0])
        batched = self._intermediates(attn, query, batch_reference, value)
        for name, part in single.items():
            np.testing.assert_array_equal(part, batched[name][0])

    def test_per_image_reference_points(self, attn):
        query, value, reference = _batch_inputs(2)
        per_image_ref = np.stack([reference, reference])
        shared = attn.forward(query, reference, value, SHAPES)
        explicit = attn.forward(query, per_image_ref, value, SHAPES)
        np.testing.assert_allclose(shared, explicit, atol=TOL)

    def test_mixed_batching_raises(self, attn):
        query, value, reference = _batch_inputs(2)
        with pytest.raises(ValueError):
            attn.forward(query, reference, value[0], SHAPES)
        with pytest.raises(ValueError):
            attn.forward(query[:1], reference, value, SHAPES)


class TestBatchedEncoder:
    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_encoder_matches_loop(self, batch_size):
        encoder = DeformableEncoder(
            num_layers=2,
            d_model=D_MODEL,
            num_heads=NUM_HEADS,
            num_levels=len(SHAPES),
            num_points=NUM_POINTS,
            ffn_dim=64,
            rng=0,
        )
        _, value, reference = _batch_inputs(batch_size, seed=4)
        pos = sine_positional_encoding(SHAPES, D_MODEL)
        batched = encoder.forward(value, pos, reference, SHAPES)
        assert batched.shape == (batch_size, N_IN, D_MODEL)
        for b in range(batch_size):
            single = encoder.forward(value[b], pos, reference, SHAPES)
            np.testing.assert_allclose(batched[b], single, atol=TOL)


def _defa_configs() -> dict[str, DEFAConfig]:
    return {
        "baseline": DEFAConfig.baseline(),
        "pap_only": DEFAConfig.baseline().with_overrides(enable_pap=True),
        "fwp_only": DEFAConfig.baseline().with_overrides(enable_fwp=True),
        "quant_only": DEFAConfig.baseline().with_overrides(quant_bits=12),
        "full": DEFAConfig(),
    }


class TestBatchedDEFAAttention:
    @pytest.mark.parametrize("batch_size", [1, 3])
    @pytest.mark.parametrize("config_name", sorted(_defa_configs()))
    def test_matches_single_image_loop(self, attn, batch_size, config_name):
        config = _defa_configs()[config_name]
        defa = DEFAAttention(attn, config)
        query, value, reference = _batch_inputs(batch_size, seed=5)
        batched = defa.forward_detailed(query, reference, value, SHAPES)
        assert batched.output.shape == (batch_size, N_IN, D_MODEL)
        assert len(batched.images) == batch_size
        for b in range(batch_size):
            single = defa.forward_detailed(query[b], reference, value[b], SHAPES)
            image = batched.images[b]
            np.testing.assert_allclose(image.output, single.output, atol=TOL)
            np.testing.assert_allclose(batched.output[b], single.output, atol=TOL)
            np.testing.assert_array_equal(image.point_mask, single.point_mask)
            np.testing.assert_array_equal(image.fmap_mask_next, single.fmap_mask_next)
            np.testing.assert_allclose(
                image.attention_weights, single.attention_weights, atol=TOL
            )
            np.testing.assert_allclose(image.fwp.thresholds, single.fwp.thresholds)
            assert image.stats.points_kept == single.stats.points_kept
            assert image.stats.pixels_kept == single.stats.pixels_kept
            assert image.stats.pixels_kept_next == single.stats.pixels_kept_next
            assert image.stats.mask_applied == single.stats.mask_applied

    @pytest.mark.parametrize("config_name", ["fwp_only", "full"])
    def test_with_incoming_masks(self, attn, config_name):
        config = _defa_configs()[config_name]
        defa = DEFAAttention(attn, config)
        batch_size = 3
        query, value, reference = _batch_inputs(batch_size, seed=6)
        rng = np.random.default_rng(7)
        masks = rng.random((batch_size, N_IN)) > 0.4
        batched = defa.forward_detailed(query, reference, value, SHAPES, fmap_mask=masks)
        for b in range(batch_size):
            single = defa.forward_detailed(
                query[b], reference, value[b], SHAPES, fmap_mask=masks[b]
            )
            image = batched.images[b]
            np.testing.assert_allclose(image.output, single.output, atol=TOL)
            assert image.stats.pixels_kept == single.stats.pixels_kept
            assert image.stats.mask_applied and single.stats.mask_applied

    def test_bad_batched_mask_shape_raises(self, attn):
        defa = DEFAAttention(attn, DEFAConfig())
        query, value, reference = _batch_inputs(2, seed=8)
        with pytest.raises(ValueError):
            defa.forward_detailed(
                query, reference, value, SHAPES, fmap_mask=np.ones(N_IN, dtype=bool)
            )


class TestBatchedEncoderRunner:
    @pytest.mark.parametrize("config_name", ["baseline", "full"])
    def test_runner_matches_loop(self, config_name):
        config = _defa_configs()[config_name]
        encoder = DeformableEncoder(
            num_layers=2,
            d_model=D_MODEL,
            num_heads=NUM_HEADS,
            num_levels=len(SHAPES),
            num_points=NUM_POINTS,
            ffn_dim=64,
            rng=0,
        )
        runner = DEFAEncoderRunner(encoder, config)
        _, value, reference = _batch_inputs(3, seed=9)
        pos = sine_positional_encoding(SHAPES, D_MODEL)
        batched = runner.forward(value, pos, reference, SHAPES, collect_details=True)
        assert len(batched.images) == 3
        for b in range(3):
            single = runner.forward(value[b], pos, reference, SHAPES, collect_details=True)
            np.testing.assert_allclose(batched.images[b].memory, single.memory, atol=TOL)
            np.testing.assert_allclose(batched.memory[b], single.memory, atol=TOL)
            assert len(batched.images[b].layer_stats) == len(single.layer_stats)
            for stats_b, stats_s in zip(batched.images[b].layer_stats, single.layer_stats):
                assert stats_b.points_kept == stats_s.points_kept
                assert stats_b.pixels_kept == stats_s.pixels_kept
                assert stats_b.pixels_kept_next == stats_s.pixels_kept_next
                assert stats_b.mask_applied == stats_s.mask_applied


def _assert_same_result(got, want):
    """Bit-for-bit equality of two per-image encoder results."""
    np.testing.assert_array_equal(got.memory, want.memory)
    assert len(got.fmap_masks) == len(want.fmap_masks)
    for a, b in zip(got.fmap_masks, want.fmap_masks):
        np.testing.assert_array_equal(a, b)
    assert got.layer_stats == want.layer_stats


class TestSingleImageIsB1Batch:
    """A single image runs as a B=1 batch: ``forward(x)`` and
    ``forward(x[None]).images[0]`` take the same code and agree bit for bit."""

    CONFIGS = {
        "fp32": DEFAConfig(quant_bits=None, fwp_k=1.0, enable_query_pruning=True),
        "int12": DEFAConfig(quant_bits=12, fwp_k=1.0, enable_query_pruning=True),
    }

    def _runner(self, config_name, backend, sparse_mode="auto"):
        encoder = DeformableEncoder(
            num_layers=3,
            d_model=D_MODEL,
            num_heads=NUM_HEADS,
            num_levels=len(SHAPES),
            num_points=NUM_POINTS,
            ffn_dim=64,
            rng=4,
        )
        options = ExecutionOptions(sparse_mode=sparse_mode, kernel_backend=backend)
        return DEFAEncoderRunner(encoder, self.CONFIGS[config_name], options)

    @pytest.mark.parametrize("sparse_mode", ["dense", "sparse"])
    @pytest.mark.parametrize("backend", ["reference", "fused"])
    @pytest.mark.parametrize("config_name", ["fp32", "int12"])
    def test_single_equals_b1_batch(self, config_name, backend, sparse_mode):
        runner = self._runner(config_name, backend, sparse_mode)
        _, value, reference = _batch_inputs(1, seed=11)
        pos = sine_positional_encoding(SHAPES, D_MODEL)
        single = runner.forward(value[0], pos, reference, SHAPES)
        assert isinstance(single, DEFAEncoderResult)
        assert single.memory.shape == (N_IN, D_MODEL)
        _assert_same_result(single, runner.forward(value, pos, reference, SHAPES).images[0])

    @pytest.mark.parametrize("backend", ["reference", "fused"])
    def test_single_fmap_masks_override_equals_b1_batch(self, backend):
        runner = self._runner("int12", backend)
        _, value, reference = _batch_inputs(1, seed=12)
        pos = sine_positional_encoding(SHAPES, D_MODEL)
        cold = runner.forward(value[0], pos, reference, SHAPES)
        # A streaming-style override: the cold trajectory intersected with a
        # dirty set, one (N_in,) entry per block.
        dirty = np.random.default_rng(13).random(N_IN) < 0.6
        masks = [None] + [m & dirty for m in cold.fmap_masks[:-1]]
        single = runner.forward(value[0], pos, reference, SHAPES, fmap_masks=masks)
        batch_masks = [None if m is None else m[None] for m in masks]
        batched = runner.forward(value, pos, reference, SHAPES, fmap_masks=batch_masks)
        _assert_same_result(single, batched.images[0])
        assert [s.pixels_kept for s in single.layer_stats[1:]] == [
            int(m.sum()) for m in masks[1:]
        ]

    def test_batched_fmap_masks_override_matches_per_image(self):
        runner = self._runner("fp32", "fused")
        _, value, reference = _batch_inputs(2, seed=14)
        pos = sine_positional_encoding(SHAPES, D_MODEL)
        rng = np.random.default_rng(15)
        masks = [None] + [rng.random((2, N_IN)) < 0.5 for _ in range(2)]
        batched = runner.forward(value, pos, reference, SHAPES, fmap_masks=masks)
        for b in range(2):
            per_image = [None if m is None else m[b] for m in masks]
            single = runner.forward(value[b], pos, reference, SHAPES, fmap_masks=per_image)
            _assert_same_result(single, batched.images[b])

    def test_attention_block_returns_single_image_record(self, attn):
        defa = DEFAAttention(attn, DEFAConfig(fwp_k=1.0, enable_query_pruning=True))
        query, value, reference = _batch_inputs(1, seed=16)
        mask = np.random.default_rng(17).random(N_IN) < 0.5
        single = defa.forward_detailed(query[0], reference, value[0], SHAPES, fmap_mask=mask)
        batched = defa.forward_detailed(query, reference, value, SHAPES, fmap_mask=mask[None])
        assert isinstance(single, DEFAAttentionOutput)
        assert single.output.shape == (N_IN, D_MODEL)
        assert type(single.trace_executed) is type(batched.images[0].trace_executed)
        np.testing.assert_array_equal(single.output, batched.output[0])
        np.testing.assert_array_equal(single.fmap_mask_next, batched.images[0].fmap_mask_next)
        assert single.stats == batched.images[0].stats
        with pytest.raises(ValueError, match="fmap_mask"):
            defa.forward_detailed(query[0], reference, value[0], SHAPES, fmap_mask=mask[:-1])
