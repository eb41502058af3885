"""Tests for the quantization substrate (INT12 / INT8 fake quantization)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.modules import Linear
from repro.quant.quantizer import (
    QuantSpec,
    compute_scale,
    dequantize,
    fake_quantize,
    quantize,
)
from repro.quant.qmodules import QuantizedLinear


def _rms_error(x: np.ndarray, spec: QuantSpec) -> float:
    """Root-mean-square error that fake-quantizing *x* introduces."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.sqrt(np.mean((x - fake_quantize(x, spec)) ** 2)))


class TestQuantSpec:
    def test_ranges(self):
        spec = QuantSpec(num_bits=8)
        assert spec.qmax == 127 and spec.qmin == -128
        spec12 = QuantSpec(num_bits=12)
        assert spec12.qmax == 2047 and spec12.qmin == -2048

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            QuantSpec(num_bits=1)


class TestQuantizeDequantize:
    def test_roundtrip_error_bounded_by_scale(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000).astype(np.float32)
        spec = QuantSpec(num_bits=12)
        scale = compute_scale(x, spec)
        recon = dequantize(quantize(x, scale, spec), scale)
        assert np.max(np.abs(recon - x)) <= scale * 0.5 + 1e-6

    def test_int12_much_better_than_int8(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(5000).astype(np.float32)
        err8 = _rms_error(x, QuantSpec(num_bits=8))
        err12 = _rms_error(x, QuantSpec(num_bits=12))
        assert err12 < err8 / 8

    def test_per_channel_scales(self):
        x = np.stack([np.ones(10), 100 * np.ones(10)], axis=1)
        spec = QuantSpec(num_bits=8, per_channel=True)
        scale = compute_scale(x, spec)
        assert scale.shape == (2,)
        assert scale[1] > scale[0]

    def test_clipping_at_extremes(self):
        spec = QuantSpec(num_bits=8)
        q = quantize(np.array([1e6]), np.array(1.0), spec)
        assert q[0] == spec.qmax

    def test_fake_quantize_idempotent(self):
        x = np.random.default_rng(0).standard_normal(100)
        spec = QuantSpec(num_bits=10)
        once = fake_quantize(x, spec)
        twice = fake_quantize(once, spec)
        assert np.allclose(once, twice, atol=1e-6)

    def test_zero_input(self):
        spec = QuantSpec(num_bits=8)
        assert np.allclose(fake_quantize(np.zeros(5), spec), 0.0)

    @given(st.integers(4, 16))
    @settings(max_examples=10, deadline=None)
    def test_error_decreases_with_bits(self, bits):
        x = np.random.default_rng(42).standard_normal(2000)
        err_low = _rms_error(x, QuantSpec(num_bits=bits))
        err_high = _rms_error(x, QuantSpec(num_bits=bits + 2))
        assert err_high <= err_low + 1e-9


def _single_image(qlinear: QuantizedLinear, x: np.ndarray) -> np.ndarray:
    """Oracle for one image: its activations fake-quantized with their own
    max-abs range, times the per-channel quantized weights, plus the bias."""
    x_q = fake_quantize(x, qlinear.activation_spec).astype(np.float32)
    return x_q @ qlinear.quantized_weight + qlinear.inner.bias


class TestQuantizedLinear:
    def test_close_to_fp32_at_int12(self):
        linear = Linear(32, 16, rng=0)
        qlinear = QuantizedLinear(linear, num_bits=12)
        x = np.random.default_rng(1).standard_normal((20, 32)).astype(np.float32)
        out = qlinear.forward_batched(x[None])[0]
        rel = np.linalg.norm(out - linear(x)) / np.linalg.norm(linear(x))
        assert rel < 0.01

    def test_int8_worse_than_int12(self):
        linear = Linear(32, 16, rng=0)
        x = np.random.default_rng(1).standard_normal((20, 32)).astype(np.float32)
        ref = linear(x)
        err8 = np.linalg.norm(QuantizedLinear(linear, 8).forward_batched(x[None])[0] - ref)
        err12 = np.linalg.norm(QuantizedLinear(linear, 12).forward_batched(x[None])[0] - ref)
        assert err12 < err8

    def test_one_image_batch_matches_single_image_oracle(self):
        linear = Linear(32, 16, rng=0)
        qlinear = QuantizedLinear(linear, 12)
        x = np.random.default_rng(3).standard_normal((20, 32)).astype(np.float32)
        np.testing.assert_allclose(
            qlinear.forward_batched(x[None])[0], _single_image(qlinear, x), rtol=1e-6, atol=1e-6
        )

    def test_flops_unchanged(self):
        linear = Linear(16, 8, rng=0)
        assert QuantizedLinear(linear, 12).flops(10) == linear.flops(10)

    def test_feature_properties(self):
        linear = Linear(16, 8, rng=0)
        qlinear = QuantizedLinear(linear, 12)
        assert qlinear.out_features == 8

    def test_weights_quantized_per_output_channel(self):
        """A small output channel next to a large one keeps its precision:
        each output column has its own weight scale."""
        linear = Linear(32, 2, rng=0)
        linear.weight[:, 1] *= 1000.0
        qlinear = QuantizedLinear(linear, 8)
        for col in range(2):
            step = np.max(np.abs(linear.weight[:, col])) / QuantSpec(num_bits=8).qmax
            err = np.abs(qlinear.quantized_weight[:, col] - linear.weight[:, col])
            assert np.max(err) <= 0.5 * step * (1 + 1e-5)

    def test_activation_range_is_dynamic(self):
        """Inputs far outside any fixed range are scaled, not clipped."""
        linear = Linear(32, 16, rng=0)
        qlinear = QuantizedLinear(linear, 12)
        x = 1000.0 * np.random.default_rng(1).standard_normal((20, 32)).astype(np.float32)
        out = qlinear.forward_batched(x[None])[0]
        rel = np.linalg.norm(out - linear(x)) / np.linalg.norm(linear(x))
        assert rel < 0.01

    def test_forward_batched_quantizes_each_image_with_its_own_range(self):
        linear = Linear(16, 8, rng=0)
        qlinear = QuantizedLinear(linear, 8)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((2, 30, 16)).astype(np.float32)
        x[1] *= 500.0  # a shared scale would flush image 0 to a few levels
        batched = qlinear.forward_batched(x)
        for b in range(2):
            np.testing.assert_allclose(
                batched[b], _single_image(qlinear, x[b]), rtol=1e-6, atol=1e-6
            )
        shared = _single_image(qlinear, x.reshape(60, 16))[:30]
        assert not np.allclose(batched[0], shared, rtol=1e-3, atol=1e-3)
