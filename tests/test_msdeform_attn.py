"""Tests for the MSDeformAttn operator, encoder layers and positional utilities."""

import numpy as np
import pytest

from repro.nn.encoder import DeformableEncoder, DeformableEncoderLayer
from repro.nn.grid_sample import ms_deform_attn_from_trace, multi_scale_neighbors
from repro.nn.msdeform_attn import MSDeformAttn
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.utils.shapes import total_pixels


class TestPositional:
    def test_reference_points_shape_and_range(self, tiny_shapes):
        ref = make_reference_points(tiny_shapes)
        n_in = total_pixels(tiny_shapes)
        assert ref.shape == (n_in, len(tiny_shapes), 2)
        assert ref.min() > 0.0 and ref.max() < 1.0

    def test_reference_points_first_pixel_center(self, tiny_shapes):
        ref = make_reference_points(tiny_shapes)
        shape = tiny_shapes[0]
        assert ref[0, 0, 0] == pytest.approx(0.5 / shape.width)
        assert ref[0, 0, 1] == pytest.approx(0.5 / shape.height)

    def test_reference_points_same_across_levels(self, tiny_shapes):
        ref = make_reference_points(tiny_shapes)
        assert np.allclose(ref[:, 0, :], ref[:, -1, :])

    def test_empty_shapes_raises(self):
        with pytest.raises(ValueError):
            make_reference_points([])

    def test_sine_encoding_shape(self, tiny_shapes):
        pos = sine_positional_encoding(tiny_shapes, 32)
        assert pos.shape == (total_pixels(tiny_shapes), 32)
        assert np.all(np.isfinite(pos))

    def test_sine_encoding_dim_constraint(self, tiny_shapes):
        with pytest.raises(ValueError):
            sine_positional_encoding(tiny_shapes, 30)

    def test_sine_encoding_distinguishes_positions(self, tiny_shapes):
        pos = sine_positional_encoding(tiny_shapes, 32)
        assert not np.allclose(pos[0], pos[1])


class TestMSDeformAttn:
    def test_invalid_head_count(self):
        with pytest.raises(ValueError):
            MSDeformAttn(d_model=30, num_heads=4)

    def test_forward_shape(self, tiny_attn, tiny_shapes, tiny_inputs):
        query, ref, value = tiny_inputs
        out = tiny_attn(query, ref, value, tiny_shapes)
        assert out.shape == (query.shape[0], 32)
        assert np.all(np.isfinite(out))

    def test_intermediate_shapes(self, tiny_attn, tiny_shapes, tiny_inputs):
        query, ref, _ = tiny_inputs
        n_q = query.shape[0]
        assert tiny_attn.attention_probabilities(query).shape == (n_q, 4, 3, 2)
        offsets = tiny_attn.project_sampling_offsets(query)
        assert offsets.shape == (n_q, 4, 3, 2, 2)
        locations = tiny_attn.compute_sampling_locations(ref, offsets, tiny_shapes)
        assert locations.shape == (n_q, 4, 3, 2, 2)

    def test_attention_logits_are_the_pre_softmax_probabilities(self, tiny_attn, tiny_inputs):
        query = tiny_inputs[0]
        batch = np.stack([query, query[::-1]])
        logits = tiny_attn.project_attention_logits(batch)
        assert logits.shape == (2, query.shape[0], 4, 3 * 2)
        probs = tiny_attn.attention_probabilities(batch)
        shifted = np.exp(logits - logits.max(axis=-1, keepdims=True))
        expected = shifted / shifted.sum(axis=-1, keepdims=True)
        np.testing.assert_allclose(probs.reshape(logits.shape), expected, atol=1e-6)
        # The argmax point of every head survives the softmax unchanged.
        assert np.array_equal(
            probs.reshape(logits.shape).argmax(-1), logits.argmax(-1)
        )

    def test_attention_probabilities_normalized(self, tiny_attn, tiny_inputs):
        query, _, _ = tiny_inputs
        probs = tiny_attn.attention_probabilities(query)
        sums = probs.reshape(query.shape[0], 4, -1).sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-5)

    def test_sampling_locations_follow_offset_convention(self, tiny_attn, tiny_shapes, tiny_inputs):
        query, ref, _ = tiny_inputs
        offsets = tiny_attn.project_sampling_offsets(query)
        locs = tiny_attn.compute_sampling_locations(ref, offsets, tiny_shapes)
        # Deformable DETR convention: location = reference + offset / (W_l, H_l).
        normalizer = np.array([[s.width, s.height] for s in tiny_shapes], dtype=np.float32)
        expected = ref[:, None, :, None, :] + offsets / normalizer[None, None, :, None, :]
        assert np.allclose(locs, expected, atol=1e-5)

    @pytest.mark.parametrize("per_image_refs", [False, True])
    def test_sampling_locations_bitwise_match_broadcast_formula(
        self, tiny_attn, tiny_shapes, tiny_inputs, per_image_refs
    ):
        """The contiguous-operand layout changes no bits, batched and
        written in place over the offsets alike."""
        query, ref, _ = tiny_inputs
        offsets = tiny_attn.project_sampling_offsets(np.stack([query, query * 0.5]))
        if per_image_refs:
            ref = np.stack([ref, ref[::-1]])
        normalizer = np.array([[s.width, s.height] for s in tiny_shapes], dtype=np.float32)
        expected = ref[..., :, None, :, None, :] + offsets / normalizer[:, None, :]
        got = tiny_attn.compute_sampling_locations(ref, offsets, tiny_shapes)
        assert np.array_equal(expected.view(np.uint32), got.view(np.uint32))
        in_place = tiny_attn.compute_sampling_locations(ref, offsets, tiny_shapes, out=offsets)
        assert in_place is offsets
        assert np.array_equal(expected.view(np.uint32), in_place.view(np.uint32))

    def test_wrong_value_length_raises(self, tiny_attn, tiny_shapes, tiny_inputs):
        query, ref, value = tiny_inputs
        with pytest.raises(ValueError):
            tiny_attn(query, ref, value[:-1], tiny_shapes)

    def test_wrong_level_count_raises(self, tiny_attn, tiny_shapes, tiny_inputs):
        query, ref, _ = tiny_inputs
        offsets = tiny_attn.project_sampling_offsets(query)
        with pytest.raises(ValueError):
            tiny_attn.compute_sampling_locations(ref, offsets, tiny_shapes[:2])

    def test_zero_value_gives_bias_only_output(self, tiny_attn, tiny_shapes, tiny_inputs):
        query, ref, value = tiny_inputs
        out = tiny_attn(query, ref, np.zeros_like(value), tiny_shapes)
        # With zero values, the head outputs collapse to the value-projection
        # bias aggregated by probabilities summing to 1, then output proj.
        assert out.shape == (query.shape[0], 32)
        assert np.allclose(out, out[0], atol=1e-4)


class TestKernelComposition:
    """``forward`` is the MSGS kernel over the locations the module's
    projection helpers compute."""

    @pytest.fixture(scope="class")
    def attn(self):
        return MSDeformAttn(d_model=64, num_heads=8, num_levels=3, num_points=4, rng=3)

    @pytest.mark.parametrize("batch", [None, 2])
    def test_output_is_the_kernel_over_returned_locations(self, attn, tiny_shapes, batch):
        rng = np.random.default_rng(8)
        lead = () if batch is None else (batch,)
        n_in = total_pixels(tiny_shapes)
        x = rng.standard_normal(lead + (n_in, 64)).astype(np.float32)
        ref = make_reference_points(tiny_shapes)
        out = attn(x, ref, x, tiny_shapes)
        batched = x if batch else x[None]
        value = attn.value_proj(batched).reshape(batched.shape[:-1] + (8, 8))
        offsets = attn.project_sampling_offsets(batched)
        locations = attn.compute_sampling_locations(ref, offsets, tiny_shapes)
        trace = multi_scale_neighbors(tiny_shapes, locations)
        heads = ms_deform_attn_from_trace(value, trace, attn.attention_probabilities(batched))
        expected = attn.output_proj(heads)
        np.testing.assert_array_equal(expected if batch else expected[0], out)


class TestEncoder:
    def _inputs(self, shapes, d_model=32, seed=0):
        rng = np.random.default_rng(seed)
        n_in = total_pixels(shapes)
        src = rng.standard_normal((n_in, d_model)).astype(np.float32)
        pos = sine_positional_encoding(shapes, d_model)
        ref = make_reference_points(shapes)
        return src, pos, ref

    def test_layer_forward(self, tiny_shapes):
        layer = DeformableEncoderLayer(
            d_model=32, num_heads=4, num_levels=3, num_points=2, ffn_dim=64, rng=0
        )
        src, pos, ref = self._inputs(tiny_shapes)
        out = layer(src, pos, ref, tiny_shapes)
        assert out.shape == src.shape
        assert not np.allclose(out, src)

    def test_encoder_stacks_layers(self, tiny_shapes):
        encoder = DeformableEncoder(
            num_layers=2, d_model=32, num_heads=4, num_levels=3, num_points=2, ffn_dim=64, rng=0
        )
        src, pos, ref = self._inputs(tiny_shapes)
        x = src
        for layer in encoder.layers:
            x = layer(x, pos, ref, tiny_shapes)
        assert len(encoder.layers) == 2
        np.testing.assert_array_equal(encoder(src, pos, ref, tiny_shapes), x)

    def test_encoder_invalid_depth(self):
        with pytest.raises(ValueError):
            DeformableEncoder(num_layers=0)

    def test_encoder_layers_have_distinct_weights(self, tiny_shapes):
        encoder = DeformableEncoder(
            num_layers=2, d_model=32, num_heads=4, num_levels=3, num_points=2, ffn_dim=64, rng=0
        )
        w0 = encoder.layers[0].self_attn.value_proj.weight
        w1 = encoder.layers[1].self_attn.value_proj.weight
        assert not np.allclose(w0, w1)
