"""Tests for the bilinear grid-sampling kernels."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.pe_array import bilinear_interpolate_factorized
from repro.nn.grid_sample import (
    bilinear_neighbors,
    bilinear_sample_level,
    bilinear_sample_level_reference,
    ms_deform_attn_core,
    ms_deform_attn_core_reference,
    ms_deform_attn_from_trace,
    multi_scale_neighbors,
)


class TestBilinearNeighbors:
    def test_center_of_pixel_has_unit_weight(self):
        # Location exactly at the centre of pixel (1, 2) in a 4x4 map.
        loc = np.array([(2 + 0.5) / 4.0, (1 + 0.5) / 4.0])
        rows, cols, weights, valid = bilinear_neighbors(loc, 4, 4)
        assert rows[0] == 1 and cols[0] == 2
        assert weights[0] == pytest.approx(1.0, abs=1e-6)
        assert np.all(valid)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(0)
        loc = rng.random((50, 2))
        _, _, weights, _ = bilinear_neighbors(loc, 7, 9)
        assert np.allclose(weights.sum(axis=-1), 1.0, atol=1e-5)

    def test_out_of_bounds_flagged(self):
        loc = np.array([-0.5, -0.5])
        _, _, _, valid = bilinear_neighbors(loc, 4, 4)
        assert not valid.any()

    def test_invalid_shape_raises(self):
        with pytest.raises(ValueError):
            bilinear_neighbors(np.zeros((3, 3)), 4, 4)

    def test_invalid_size_raises(self):
        with pytest.raises(ValueError):
            bilinear_neighbors(np.zeros(2), 0, 4)

    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
    @settings(max_examples=30, deadline=None)
    def test_weights_nonnegative_property(self, x, y):
        _, _, weights, _ = bilinear_neighbors(np.array([x, y]), 9, 11)
        assert np.all(weights >= -1e-6)
        assert weights.sum() == pytest.approx(1.0, abs=1e-5)


class TestBilinearSampling:
    def test_matches_reference_implementation(self):
        rng = np.random.default_rng(0)
        value = rng.standard_normal((6, 8, 3)).astype(np.float32)
        loc = rng.random((20, 2)).astype(np.float32)
        fast = bilinear_sample_level(value, loc)
        slow = bilinear_sample_level_reference(value, loc)
        assert np.allclose(fast, slow, atol=1e-5)

    def test_constant_map_samples_constant(self):
        value = np.full((5, 5, 2), 3.0, dtype=np.float32)
        loc = np.array([[0.5, 0.5], [0.25, 0.75]], dtype=np.float32)
        out = bilinear_sample_level(value, loc)
        assert np.allclose(out, 3.0, atol=1e-5)

    def test_zero_padding_outside(self):
        value = np.ones((4, 4, 1), dtype=np.float32)
        out = bilinear_sample_level(value, np.array([[-1.0, -1.0]], dtype=np.float32))
        assert np.allclose(out, 0.0)

    def test_interpolation_between_two_pixels(self):
        value = np.zeros((1, 2, 1), dtype=np.float32)
        value[0, 1, 0] = 2.0
        # Exactly halfway between the two pixel centres along x.
        out = bilinear_sample_level(value, np.array([[0.5, 0.5]], dtype=np.float32))
        assert out[0, 0] == pytest.approx(1.0, abs=1e-5)

    def test_bad_value_shape(self):
        with pytest.raises(ValueError):
            bilinear_sample_level(np.zeros((4, 4)), np.zeros((1, 2)))

    def test_factorized_bi_matches_standard_form(self):
        rng = np.random.default_rng(0)
        n0, n1, n2, n3 = rng.standard_normal(4)
        t0, t1 = rng.random(2)
        expected = (
            n0 * (1 - t1) * (1 - t0)
            + n1 * t1 * (1 - t0)
            + n2 * (1 - t1) * t0
            + n3 * t1 * t0
        )
        assert bilinear_interpolate_factorized(n0, n1, n2, n3, t0, t1) == pytest.approx(expected)


class TestMultiScale:
    def _locations(self, shapes, n_q=10, n_h=2, n_p=3, seed=0):
        rng = np.random.default_rng(seed)
        return rng.random((n_q, n_h, len(shapes), n_p, 2)).astype(np.float32)

    def test_trace_shapes(self, tiny_shapes):
        locs = self._locations(tiny_shapes)
        trace = multi_scale_neighbors(tiny_shapes, locs)
        assert trace.rows.shape == (10, 2, len(tiny_shapes), 3, 4)

    def test_trace_flat_indices_in_range(self, tiny_shapes):
        locs = self._locations(tiny_shapes)
        trace = multi_scale_neighbors(tiny_shapes, locs)
        n_in = sum(s.num_pixels for s in tiny_shapes)
        valid_idx = trace.flat_indices[trace.valid]
        assert valid_idx.min() >= 0 and valid_idx.max() < n_in
        assert np.all(trace.flat_indices[~trace.valid] == -1)

    def test_trace_level_consistency(self, tiny_shapes):
        locs = self._locations(tiny_shapes)
        trace = multi_scale_neighbors(tiny_shapes, locs)
        from repro.utils.shapes import level_start_indices

        starts = level_start_indices(tiny_shapes)
        sizes = [s.num_pixels for s in tiny_shapes]
        for lvl in range(len(tiny_shapes)):
            idx = trace.flat_indices[:, :, lvl][trace.valid[:, :, lvl]]
            assert np.all((idx >= starts[lvl]) & (idx < starts[lvl] + sizes[lvl]))

    def test_wrong_level_count_raises(self, tiny_shapes):
        locs = self._locations(tiny_shapes[:2])
        with pytest.raises(ValueError):
            multi_scale_neighbors(tiny_shapes, locs)

    def test_core_output_shape(self, tiny_shapes):
        rng = np.random.default_rng(0)
        n_in = sum(s.num_pixels for s in tiny_shapes)
        value = rng.standard_normal((n_in, 2, 4)).astype(np.float32)
        locs = self._locations(tiny_shapes)
        attn = np.full((10, 2, 3, 3), 1.0 / 9, dtype=np.float32)
        out = ms_deform_attn_core(value, tiny_shapes, locs, attn)
        assert out.shape == (10, 8)

    def test_core_and_trace_paths_agree(self, tiny_shapes):
        rng = np.random.default_rng(0)
        n_in = sum(s.num_pixels for s in tiny_shapes)
        value = rng.standard_normal((n_in, 2, 4)).astype(np.float32)
        locs = self._locations(tiny_shapes)
        attn = rng.random((10, 2, 3, 3)).astype(np.float32)
        attn /= attn.sum(axis=(-2, -1), keepdims=True)
        out_core = ms_deform_attn_core(value, tiny_shapes, locs, attn)
        trace = multi_scale_neighbors(tiny_shapes, locs)
        out_trace = ms_deform_attn_from_trace(value, trace, attn)
        assert np.allclose(out_core, out_trace, atol=1e-4)

    def test_core_matches_reference(self, tiny_shapes):
        """A single image runs the batch-first kernel as a B = 1 batch."""
        rng = np.random.default_rng(1)
        n_in = sum(s.num_pixels for s in tiny_shapes)
        value = rng.standard_normal((n_in, 2, 4)).astype(np.float32)
        locs = self._locations(tiny_shapes, seed=1)
        attn = rng.random((10, 2, 3, 3)).astype(np.float32)
        mask = rng.random(attn.shape) > 0.4
        out = ms_deform_attn_core(value, tiny_shapes, locs, attn, point_mask=mask)
        reference = ms_deform_attn_core_reference(value, tiny_shapes, locs, attn, point_mask=mask)
        np.testing.assert_allclose(out, reference, atol=1e-5)
        batch = ms_deform_attn_core(
            value[None], tiny_shapes, locs[None], attn[None], point_mask=mask[None]
        )
        np.testing.assert_array_equal(out, batch[0])

    def test_point_mask_zeroes_contribution(self, tiny_shapes):
        rng = np.random.default_rng(0)
        n_in = sum(s.num_pixels for s in tiny_shapes)
        value = rng.standard_normal((n_in, 2, 4)).astype(np.float32)
        locs = self._locations(tiny_shapes)
        attn = rng.random((10, 2, 3, 3)).astype(np.float32)
        mask = np.zeros((10, 2, 3, 3), dtype=bool)
        out = ms_deform_attn_core(value, tiny_shapes, locs, attn, point_mask=mask)
        assert np.allclose(out, 0.0)

    def test_value_token_mismatch_raises(self, tiny_shapes):
        value = np.zeros((5, 2, 4), dtype=np.float32)
        locs = self._locations(tiny_shapes)
        attn = np.zeros((10, 2, 3, 3), dtype=np.float32)
        with pytest.raises(ValueError):
            ms_deform_attn_core(value, tiny_shapes, locs, attn)

    def test_attention_weight_linearity(self, tiny_shapes):
        """Doubling all attention weights doubles the output (linearity)."""
        rng = np.random.default_rng(0)
        n_in = sum(s.num_pixels for s in tiny_shapes)
        value = rng.standard_normal((n_in, 2, 4)).astype(np.float32)
        locs = self._locations(tiny_shapes)
        attn = rng.random((10, 2, 3, 3)).astype(np.float32)
        out1 = ms_deform_attn_core(value, tiny_shapes, locs, attn)
        out2 = ms_deform_attn_core(value, tiny_shapes, locs, 2.0 * attn)
        assert np.allclose(out2, 2.0 * out1, atol=1e-4)
