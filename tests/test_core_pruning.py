"""Tests for the DEFA algorithm level: config, FWP, PAP, range narrowing, FLOPs."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import DEFAULT_LEVEL_RANGES, DEFAConfig
from repro.core.flops import msdeform_attn_flops
from repro.core.fwp import compute_fmap_mask
from repro.core.pap import compute_point_mask, point_keep_mask
from repro.core.range_narrowing import RangeNarrowing, full_fmap_storage_bits
from repro.core.sampling_stats import sampled_frequency
from repro.kernels import ExecutionPlan
from repro.nn.msdeform_attn import MSDeformAttn
from repro.nn.tensor_utils import softmax
from repro.utils.shapes import LevelShape


class TestDEFAConfig:
    def test_defaults_enable_everything(self):
        config = DEFAConfig()
        assert config.enable_fwp and config.enable_pap and config.enable_range_narrowing
        assert config.quant_bits == 12

    def test_baseline_disables_everything(self):
        config = DEFAConfig.baseline()
        assert not config.enable_fwp and not config.enable_pap
        assert config.quant_bits is None

    def test_with_overrides(self):
        config = DEFAConfig().with_overrides(fwp_k=1.5)
        assert config.fwp_k == 1.5
        assert config.enable_pap

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            DEFAConfig(pap_threshold=1.5)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            DEFAConfig(fwp_k=-0.1)

    def test_invalid_quant_bits(self):
        with pytest.raises(ValueError):
            DEFAConfig(quant_bits=1)

    def test_effective_ranges_levelwise(self):
        assert DEFAConfig().effective_ranges(4) == DEFAULT_LEVEL_RANGES == (8.0, 7.0, 7.0, 6.0)
        assert DEFAConfig().effective_ranges(3) == (8.0, 7.0, 7.0)

    def test_effective_ranges_unified(self):
        config = DEFAConfig(unified_range=True)
        assert config.effective_ranges(4) == (8.0, 8.0, 8.0, 8.0)

    def test_effective_ranges_disabled(self):
        config = DEFAConfig.baseline()
        assert all(np.isinf(r) for r in config.effective_ranges(4))

    def test_effective_ranges_too_few(self):
        with pytest.raises(ValueError, match="4 level ranges"):
            DEFAConfig().effective_ranges(5)

    def test_describe(self):
        desc = DEFAConfig().describe()
        assert "INT12" in desc["quantization"]

    def test_describe_range_narrowing(self):
        assert DEFAConfig().describe()["range_narrowing"] == "(8.0, 7.0, 7.0, 6.0)"
        unified = DEFAConfig(unified_range=True).describe()["range_narrowing"]
        assert unified == "unified (8.0, 7.0, 7.0, 6.0)"
        disabled = DEFAConfig(enable_range_narrowing=False).describe()["range_narrowing"]
        assert disabled == "off"


class TestPAP:
    def _probs(self, n_q=50, n_h=2, n_l=3, n_p=4, sharp=4.0, seed=0):
        rng = np.random.default_rng(seed)
        logits = sharp * rng.standard_normal((n_q, n_h, n_l * n_p))
        return softmax(logits, axis=-1).reshape(n_q, n_h, n_l, n_p)

    def test_mask_prunes_low_probabilities(self):
        probs = self._probs()
        result = compute_point_mask(probs, threshold=0.05)
        assert result.point_mask.mean() < 0.7
        assert np.all(probs[~result.point_mask] < 0.05)

    def test_zero_threshold_keeps_everything(self):
        probs = self._probs()
        result = compute_point_mask(probs, threshold=0.0)
        assert result.point_mask.all()

    def test_keep_top1_guarantee(self):
        probs = self._probs()
        result = compute_point_mask(probs, threshold=0.99)
        per_pair = result.point_mask.reshape(probs.shape[0], probs.shape[1], -1).sum(axis=-1)
        assert np.all(per_pair >= 1)

    def test_threshold_above_every_probability_keeps_only_the_argmax(self):
        probs = self._probs(sharp=0.5)  # max probability well under 0.99
        result = compute_point_mask(probs, threshold=0.99)
        n_q, n_h = probs.shape[:2]
        flat_mask = result.point_mask.reshape(n_q, n_h, -1)
        assert np.all(flat_mask.sum(axis=-1) == 1)
        top = np.argmax(probs.reshape(n_q, n_h, -1), axis=-1)
        assert np.all(np.take_along_axis(flat_mask, top[..., None], axis=-1))

    def test_plan_buffers_match_allocating_path(self):
        """The planned pipeline writes the keep-mask into its arena buffer
        (and keeps the raw probabilities next to it): the mask is the
        allocating path's, bit for bit."""
        probs = self._probs(seed=3)
        plan = ExecutionPlan()
        buffer = plan.buffer("pap.mask", probs.shape, bool)
        planned = point_keep_mask(probs, 0.05, out=buffer)
        fresh = compute_point_mask(probs, threshold=0.05)
        np.testing.assert_array_equal(planned, fresh.point_mask)
        assert np.shares_memory(planned, buffer)

    def test_survivors_keep_raw_probabilities(self):
        """Pruned mass is dropped, not redistributed over the survivors."""
        probs = self._probs()
        result = compute_point_mask(probs, threshold=0.05)
        expected = np.where(result.point_mask, probs, 0.0).astype(np.float32)
        np.testing.assert_array_equal(result.attention_weights, expected)
        assert result.kept_probability_mass < 1.0

    def test_high_sharpness_gives_high_reduction(self):
        """The paper's motivation: softmax exponentially amplifies differences."""
        flat = compute_point_mask(self._probs(sharp=0.1), threshold=0.04)
        sharp = compute_point_mask(self._probs(sharp=5.0), threshold=0.04)
        assert sharp.point_mask.mean() < flat.point_mask.mean()

    def test_invalid_shapes(self):
        with pytest.raises(ValueError):
            compute_point_mask(np.zeros((3, 3)), threshold=0.1)

    def test_invalid_threshold(self):
        with pytest.raises(ValueError):
            compute_point_mask(self._probs(), threshold=1.0)

    @given(st.floats(0.0, 0.2))
    @settings(max_examples=20, deadline=None)
    def test_monotone_in_threshold(self, threshold):
        probs = self._probs(seed=7)
        low = compute_point_mask(probs, threshold=threshold)
        high = compute_point_mask(probs, threshold=min(threshold + 0.05, 0.99))
        assert np.count_nonzero(high.point_mask) <= np.count_nonzero(low.point_mask)

    @given(
        seed=st.integers(0, 2**31 - 1),
        sharp=st.floats(0.1, 8.0),
        threshold=st.floats(0.0, 0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_keep_top1_invariant(self, seed, sharp, threshold):
        """The argmax point of every (query, head) is always kept.

        This must hold for *any* probability tensor and threshold — even ones
        where the threshold exceeds every probability of a pair.
        """
        probs = self._probs(n_q=12, sharp=sharp, seed=seed)
        result = compute_point_mask(probs, threshold=threshold)
        n_q, n_h = probs.shape[:2]
        flat_probs = probs.reshape(n_q, n_h, -1)
        flat_mask = result.point_mask.reshape(n_q, n_h, -1)
        top = np.argmax(flat_probs, axis=-1)
        q_idx, h_idx = np.meshgrid(np.arange(n_q), np.arange(n_h), indexing="ij")
        assert flat_mask[q_idx, h_idx, top].all()
        # ... and every kept point is either above threshold or the top-1.
        kept_not_top = flat_mask.copy()
        kept_not_top[q_idx, h_idx, top] = False
        assert np.all(flat_probs[kept_not_top] >= threshold)


class TestFWP:
    def _shapes(self):
        return [LevelShape(4, 4), LevelShape(2, 2)]

    def test_threshold_formula(self):
        shapes = self._shapes()
        freq = np.zeros(20)
        freq[:4] = 10.0  # mean of level 0 = 40/16 = 2.5
        result = compute_fmap_mask(freq, shapes, k=1.0)
        assert result.thresholds[0] == pytest.approx(2.5)
        # only the 4 high-frequency pixels survive in level 0
        assert result.fmap_mask[:16].sum() == 4
        # level 1 is all zeros -> threshold 0 -> everything kept
        assert result.fmap_mask[16:].all()

    def test_k_zero_keeps_all(self):
        freq = np.random.default_rng(0).integers(0, 10, 20).astype(float)
        result = compute_fmap_mask(freq, self._shapes(), k=0.0)
        assert result.fmap_mask.all()

    def test_monotone_in_k(self):
        freq = np.random.default_rng(0).integers(0, 10, 20).astype(float)
        kept = [
            compute_fmap_mask(freq, self._shapes(), k=k).num_kept for k in (0.2, 0.6, 1.2)
        ]
        assert kept[0] >= kept[1] >= kept[2]

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            compute_fmap_mask(np.zeros(5), self._shapes(), k=1.0)

    def test_negative_k_raises(self):
        with pytest.raises(ValueError):
            compute_fmap_mask(np.zeros(20), self._shapes(), k=-1.0)

    @given(
        seed=st.integers(0, 2**31 - 1),
        k=st.floats(0.0, 3.0),
        max_freq=st.integers(1, 50),
    )
    @settings(max_examples=40, deadline=None)
    def test_fwp_invariants_match_eq2(self, seed, k, max_freq):
        """Property check of Eq. 2: per-level thresholds are ``k * mean`` and
        the mask keeps exactly the pixels at or above them."""
        shapes = self._shapes()
        rng = np.random.default_rng(seed)
        freq = rng.integers(0, max_freq + 1, size=20).astype(float)
        result = compute_fmap_mask(freq, shapes, k=k)
        assert 0 <= result.num_kept <= result.fmap_mask.size
        # Recompute the Eq. 2 thresholds independently, level by level.
        offset = 0
        for lvl, shape in enumerate(shapes):
            level_freq = freq[offset : offset + shape.num_pixels]
            expected_threshold = k * level_freq.mean()
            assert result.thresholds[lvl] == pytest.approx(expected_threshold)
            expected_keep = level_freq >= expected_threshold
            np.testing.assert_array_equal(
                result.fmap_mask[offset : offset + shape.num_pixels], expected_keep
            )
            offset += shape.num_pixels


class TestBatchedPruningHelpers:
    def _batched_trace(self, batch=3, seed=0):
        from repro.nn.grid_sample import multi_scale_neighbors

        shapes = [LevelShape(4, 4), LevelShape(2, 2)]
        rng = np.random.default_rng(seed)
        locs = rng.uniform(-0.1, 1.1, size=(batch, 7, 2, 2, 3, 2)).astype(np.float32)
        return shapes, multi_scale_neighbors(shapes, locs), rng

    def test_sampled_frequency_matches_reference_per_image(self):
        from repro.core.sampling_stats import sampled_frequency_reference

        shapes, trace, rng = self._batched_trace()
        mask = rng.random((3, 7, 2, 2, 3)) > 0.4
        batched = sampled_frequency(trace, point_mask=mask)
        assert batched.shape == (3, 20)
        for b in range(3):
            reference = sampled_frequency_reference(trace.image(b), point_mask=mask[b])
            np.testing.assert_array_equal(batched[b], reference)
            single = sampled_frequency(trace.image(b), point_mask=mask[b])
            assert single.shape == (20,)
            np.testing.assert_array_equal(single, reference)

    def test_sampled_frequency_rejects_mismatched_mask(self):
        shapes, trace, _ = self._batched_trace()
        with pytest.raises(ValueError, match="point_mask"):
            sampled_frequency(trace, point_mask=np.ones((3, 7, 2, 2, 1), dtype=bool))
        with pytest.raises(ValueError, match="point_mask"):
            sampled_frequency(trace.image(0), point_mask=np.ones((3, 7, 2, 2, 3), dtype=bool))

    def test_compute_fmap_mask_batch_matches_per_image(self):
        shapes = [LevelShape(4, 4), LevelShape(2, 2)]
        rng = np.random.default_rng(1)
        freq = rng.integers(0, 9, size=(3, 20)).astype(float)
        batched = compute_fmap_mask(freq, shapes, k=0.8)
        assert len(batched) == 3
        for b in range(3):
            single = compute_fmap_mask(freq[b], shapes, k=0.8)
            np.testing.assert_array_equal(batched[b].fmap_mask, single.fmap_mask)
            np.testing.assert_array_equal(batched[b].thresholds, single.thresholds)

    def test_compute_fmap_mask_validation(self):
        shapes = [LevelShape(4, 4), LevelShape(2, 2)]
        with pytest.raises(ValueError):
            compute_fmap_mask(np.zeros((2, 2, 20)), shapes, k=1.0)
        with pytest.raises(ValueError):
            compute_fmap_mask(np.zeros((2, 5)), shapes, k=1.0)
        with pytest.raises(ValueError):
            compute_fmap_mask(np.zeros((2, 20)), shapes, k=-1.0)


class TestSamplingStats:
    def test_sampled_frequency_counts_neighbors(self, tiny_defa_output):
        freq = sampled_frequency(tiny_defa_output.trace)
        active = tiny_defa_output.trace.valid
        assert freq.sum() == np.count_nonzero(active)

    def test_point_mask_reduces_counts(self, tiny_defa_output):
        full = sampled_frequency(tiny_defa_output.trace)
        masked = sampled_frequency(tiny_defa_output.trace, point_mask=tiny_defa_output.point_mask)
        assert masked.sum() <= full.sum()


class TestRangeNarrowing:
    def test_clamp(self):
        narrowing = RangeNarrowing((2.0, 1.0))
        offsets = np.zeros((1, 1, 2, 1, 2), dtype=np.float32)
        offsets[..., 0, :, 0] = 5.0
        offsets[..., 1, :, 1] = -3.0
        clamped = narrowing.clamp_offsets(offsets)
        assert clamped[..., 0, :, 0].max() == pytest.approx(2.0)
        assert clamped[..., 1, :, 1].min() == pytest.approx(-1.0)

    def test_clamp_bitwise_matches_broadcast_clip(self):
        narrowing = RangeNarrowing((2.0, 1.5, 0.5))
        rng = np.random.default_rng(3)
        offsets = (rng.standard_normal((2, 7, 4, 3, 2, 2)) * 3).astype(np.float32)
        ranges = np.asarray(narrowing.level_ranges, dtype=np.float32)[:, None, None]
        expected = np.clip(offsets, -ranges, ranges)
        assert np.array_equal(expected, narrowing.clamp_offsets(offsets))
        assert np.array_equal(expected, narrowing.clamp_offsets_inplace(offsets))

    def test_unified_costs_more_storage(self):
        narrowing = RangeNarrowing((8.0, 7.0, 7.0, 6.0))
        overhead = narrowing.unified_storage_overhead(d_model=256)
        assert 0.1 < overhead < 0.5  # the paper quotes ~25 % extra

    def test_unified_of_uniform_is_identity(self):
        narrowing = RangeNarrowing((4.0, 4.0))
        assert narrowing.unified_storage_overhead(d_model=64) == pytest.approx(0.0)

    def test_storage_capped_by_level_size(self):
        narrowing = RangeNarrowing((100.0,))
        shapes = [LevelShape(4, 4)]
        capped = narrowing.storage_bits(d_model=8, spatial_shapes=shapes)
        assert capped == 16 * 8 * 12

    def test_full_fmap_storage_matches_paper_magnitude(self):
        """Sec 2.2: holding the full multi-scale fmap needs ~10 MB of buffer."""
        from repro.utils.shapes import make_level_shapes

        shapes = make_level_shapes(800, 1066, (8, 16, 32, 64))
        mb = full_fmap_storage_bits(shapes, d_model=256) / 8 / 1024 / 1024
        assert 6.0 < mb < 12.0

    def test_unified_uses_the_largest_range(self):
        unified = RangeNarrowing((8.0, 7.0, 6.0)).unified()
        assert unified.level_ranges == (8.0, 8.0, 8.0)
        assert unified.num_levels == 3

    def test_window_pixels(self):
        narrowing = RangeNarrowing((2.0, 1.5, 0.5))
        # (2 * ceil(R) + 2)^2: the window plus the bilinear guard row/column.
        assert narrowing.window_pixels(0) == 36
        assert narrowing.window_pixels(1) == 36
        assert narrowing.window_pixels(2) == 16
        with pytest.raises(ValueError):
            narrowing.window_pixels(3)
        with pytest.raises(ValueError):
            narrowing.window_pixels(-1)

    def test_storage_is_sum_of_windows(self):
        narrowing = RangeNarrowing((2.0, 1.0))
        assert narrowing.storage_bits(d_model=8) == (36 + 16) * 8 * 12

    def test_invalid_ranges(self):
        with pytest.raises(ValueError):
            RangeNarrowing(())
        with pytest.raises(ValueError):
            RangeNarrowing((0.0,))

    def test_mismatched_offsets_raise(self):
        narrowing = RangeNarrowing((2.0, 1.0))
        with pytest.raises(ValueError):
            narrowing.clamp_offsets(np.zeros((1, 1, 3, 1, 2)))


class TestFlops:
    def test_dense_equals_pruned_without_masks(self):
        breakdown = msdeform_attn_flops(64, 4, 3, 2, num_queries=100, num_tokens=100)
        assert breakdown.total_dense() == breakdown.total_pruned()
        assert breakdown.reduction() == 0.0

    def test_pruning_reduces_flops(self):
        dense = msdeform_attn_flops(64, 4, 3, 2, 100, 100)
        pruned = msdeform_attn_flops(64, 4, 3, 2, 100, 100, points_kept=100 * 4 * 3 * 2 // 5, pixels_kept=60)
        assert pruned.total_pruned() < dense.total_dense()
        assert 0.0 < pruned.reduction() < 1.0

    def test_every_dense_term_is_positive(self):
        dense = msdeform_attn_flops(32, 4, 3, 2, num_queries=100, num_tokens=100).dense
        for key in ("value_proj", "sampling_offsets", "attention_weights", "output_proj", "msgs"):
            assert dense[key] > 0

    def test_output_proj_not_in_default_total(self):
        breakdown = msdeform_attn_flops(64, 4, 3, 2, 100, 100)
        assert breakdown.total_dense(include_output_proj=True) > breakdown.total_dense()

    def test_value_proj_scales_with_pixels(self):
        full = msdeform_attn_flops(64, 4, 3, 2, 100, 100)
        half = msdeform_attn_flops(64, 4, 3, 2, 100, 100, pixels_kept=50)
        assert half.pruned["value_proj"] == full.dense["value_proj"] // 2

    def test_invalid_points_kept(self):
        with pytest.raises(ValueError):
            msdeform_attn_flops(64, 4, 3, 2, 10, 10, points_kept=10**9)

    def test_invalid_head_split(self):
        with pytest.raises(ValueError):
            msdeform_attn_flops(65, 4, 3, 2, 10, 10)

    def test_dense_projections_match_the_operator_weights(self):
        """Each projection costs 2 FLOPs per multiply-accumulate of the
        MSDeformAttn layer it describes."""
        attn = MSDeformAttn(d_model=64, num_heads=4, num_levels=3, num_points=2, rng=0)
        dense = msdeform_attn_flops(64, 4, 3, 2, num_queries=30, num_tokens=100).dense
        rows = {"value_proj": 100, "sampling_offsets": 30, "attention_weights": 30,
                "output_proj": 30}
        for name, n in rows.items():
            assert dense[name] == 2 * n * getattr(attn, name).weight.size
        assert set(dense) == set(rows) | {"softmax", "msgs", "aggregation"}

    def test_merge(self):
        a = msdeform_attn_flops(64, 4, 3, 2, 100, 100)
        merged = a.merged_with(a)
        assert merged.total_dense() == 2 * a.total_dense()
