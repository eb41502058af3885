"""Tests for the NumPy NN substrate: tensor utils and modules."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.modules import (
    FFN_BLOCK_ROWS,
    FeedForward,
    GELU,
    LayerNorm,
    Linear,
    Module,
    ReLU,
    ffn_row_blocks,
)
from repro.nn.tensor_utils import (
    cosine_similarity,
    gelu,
    layer_norm,
    relu,
    softmax,
    xavier_uniform,
)


class TestTensorUtils:
    def test_softmax_sums_to_one(self):
        x = np.random.default_rng(0).standard_normal((5, 7))
        s = softmax(x, axis=-1)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-5)

    def test_softmax_stability_large_values(self):
        s = softmax(np.array([1000.0, 1000.0, 999.0]))
        assert np.all(np.isfinite(s))

    def test_softmax_monotonic(self):
        s = softmax(np.array([1.0, 2.0, 3.0]))
        assert s[0] < s[1] < s[2]

    def test_layer_norm_zero_mean_unit_var(self):
        x = np.random.default_rng(0).standard_normal((4, 16)).astype(np.float32)
        out = layer_norm(x, np.ones(16, np.float32), np.zeros(16, np.float32))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-4)
        assert np.allclose(out.var(axis=-1), 1.0, atol=1e-2)

    def test_relu(self):
        assert np.array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_gelu_shape_and_sign(self):
        x = np.array([-10.0, 0.0, 10.0], dtype=np.float32)
        y = gelu(x)
        assert y[0] == pytest.approx(0.0, abs=1e-3)
        assert y[2] == pytest.approx(10.0, abs=1e-3)

    def test_xavier_uniform_bounds(self):
        w = xavier_uniform(np.random.default_rng(0), 64, 32)
        bound = np.sqrt(6.0 / 96)
        assert w.shape == (64, 32)
        assert np.abs(w).max() <= bound + 1e-6

    def test_xavier_invalid(self):
        with pytest.raises(ValueError):
            xavier_uniform(np.random.default_rng(0), 0, 4)

    def test_cosine_similarity_identical(self):
        x = np.random.default_rng(0).standard_normal((3, 8))
        assert np.allclose(cosine_similarity(x, x), 1.0)

    def test_cosine_similarity_orthogonal(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[0.0, 1.0]])
        assert cosine_similarity(a, b)[0] == pytest.approx(0.0)

    @given(st.integers(1, 8), st.integers(1, 16))
    @settings(max_examples=20, deadline=None)
    def test_softmax_probability_axioms(self, rows, cols):
        x = np.random.default_rng(rows * 100 + cols).standard_normal((rows, cols))
        s = softmax(x)
        assert np.all(s >= 0)
        assert np.allclose(s.sum(axis=-1), 1.0, atol=1e-5)


class TestModules:
    def test_linear_shapes_and_bias(self):
        layer = Linear(8, 4, rng=0)
        out = layer(np.ones((3, 8), np.float32))
        assert out.shape == (3, 4)

    def test_linear_wrong_input_dim(self):
        layer = Linear(8, 4, rng=0)
        with pytest.raises(ValueError):
            layer(np.ones((3, 7), np.float32))

    def test_linear_invalid_dims(self):
        with pytest.raises(ValueError):
            Linear(0, 4)

    def test_layernorm_module(self):
        norm = LayerNorm(16)
        out = norm(np.random.default_rng(0).standard_normal((5, 16)))
        assert out.shape == (5, 16)

    def test_layernorm_invalid(self):
        with pytest.raises(ValueError):
            LayerNorm(0)

    def test_activations_are_modules(self):
        assert isinstance(ReLU(), Module) and isinstance(GELU(), Module)

    def test_feedforward(self):
        ffn = FeedForward(16, 32, rng=0)
        assert ffn(np.ones((2, 16), np.float32)).shape == (2, 16)

    def test_feedforward_gelu(self):
        ffn = FeedForward(8, 8, activation="gelu", rng=0)
        assert isinstance(ffn.activation, GELU)

    def test_feedforward_unknown_activation(self):
        with pytest.raises(ValueError):
            FeedForward(8, 8, activation="swish")

    @pytest.mark.parametrize("n", [0, 1, 2, 1023, 1024, 1025, 2049, 5000])
    def test_ffn_row_blocks_are_balanced_and_never_single_rows(self, n):
        blocks = ffn_row_blocks(n)
        assert blocks[0][0] == 0 and blocks[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(blocks, blocks[1:]))
        sizes = [hi - lo for lo, hi in blocks]
        assert max(sizes) <= FFN_BLOCK_ROWS and max(sizes) - min(sizes) <= 1
        if n >= 2:
            assert min(sizes) >= 2

    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    @pytest.mark.parametrize(
        "n",
        [1, 2, FFN_BLOCK_ROWS - 1, FFN_BLOCK_ROWS, FFN_BLOCK_ROWS + 1, 2 * FFN_BLOCK_ROWS + 1],
    )
    def test_blocked_forward_matches_forward_into(self, n, activation):
        ffn = FeedForward(16, 48, activation=activation, rng=0)
        x = np.random.default_rng(n).standard_normal((n, 16)).astype(np.float32)
        expected = ffn.forward(x)
        out = np.empty_like(expected)
        hidden = np.empty((ffn.hidden_rows(n), 48), np.float32)
        assert hidden.shape[0] <= FFN_BLOCK_ROWS
        got = ffn.forward_into(x, out, hidden)
        assert np.array_equal(expected.view(np.uint32), got.view(np.uint32))

    def test_forward_into_rejects_non_contiguous_out(self):
        ffn = FeedForward(8, 16, rng=0)
        x = np.ones((4, 8), np.float32)
        out = np.empty((4, 16), np.float32)[:, ::2]
        with pytest.raises(ValueError, match="contiguous"):
            ffn.forward_into(x, out, np.empty((4, 16), np.float32))
