"""Quantized module wrappers.

:class:`QuantizedLinear` fake-quantizes both the weights and the input
activations of a :class:`repro.nn.modules.Linear` layer, which is how the
INT12 (and the rejected INT8) configuration of the paper is simulated.
"""

from __future__ import annotations

import numpy as np

from repro.nn.modules import Linear, Module
from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.quant.quantizer import QuantSpec, fake_quantize


class QuantizedLinear(Module):
    """A linear layer whose weights and activations are fake-quantized.

    Weights are quantized once, with one scale per output channel.  Input
    activations are quantized with a dynamic (per-call) max-abs range taken
    per image.

    Parameters
    ----------
    linear:
        The full-precision layer being wrapped (not copied; its parameters are
        reused).
    num_bits:
        Bit width of both quantizers (12 in the paper, 8 for the ablation).
    """

    def __init__(self, linear: Linear, num_bits: int) -> None:
        self.inner = linear
        self.activation_spec = QuantSpec(num_bits=num_bits)
        self.quantized_weight = fake_quantize(
            linear.weight, QuantSpec(num_bits=num_bits, per_channel=True)
        ).astype(FLOAT_DTYPE)

    @property
    def out_features(self) -> int:
        return self.inner.out_features

    def _matmul(self, x_q: np.ndarray) -> np.ndarray:
        return x_q @ self.quantized_weight + self.inner.bias

    def forward_batched(self, x: np.ndarray) -> np.ndarray:
        """Forward a batch ``(B, ..., D)`` with *per-image* activation scales.

        Dynamic activation quantization computes the max-abs over the array
        being quantized; one scale over the whole batch would therefore
        couple the images and break equivalence with per-image execution.
        This method computes one dynamic scale per batch element (identical
        to quantizing each image separately) while still performing a single
        batched matmul.
        """
        x = np.asarray(x, dtype=FLOAT_DTYPE)
        if x.ndim < 2:
            raise ValueError("batched input must have at least 2 dimensions")
        max_abs = np.max(np.abs(x), axis=tuple(range(1, x.ndim)), keepdims=True)
        x_q = fake_quantize(x, self.activation_spec, max_abs=max_abs).astype(FLOAT_DTYPE)
        return self._matmul(x_q)

    def forward_rows_batched(self, x: np.ndarray, flat_rows: np.ndarray) -> np.ndarray:
        """Project selected rows of a ``(B, N, D)`` batch with per-image scales.

        ``flat_rows`` indexes the flattened ``(B * N)`` row axis (rows of any
        image may be selected).  Each selected row is quantized with the
        dynamic scale of *its own image* — exactly the scales
        :meth:`forward_batched` derives — so the result matches the
        corresponding rows of ``forward_batched(x)`` while the matmul runs on
        the survivors only.
        """
        x = np.asarray(x, dtype=FLOAT_DTYPE)
        if x.ndim != 3:
            raise ValueError("forward_rows_batched expects a (B, N, D) input")
        batch, n_rows, _ = x.shape
        rows2d = x.reshape(batch * n_rows, x.shape[-1])[flat_rows]
        image = np.asarray(flat_rows, dtype=np.int64) // n_rows
        max_abs = np.max(np.abs(x), axis=(1, 2))[image][:, None]
        x_q = fake_quantize(rows2d, self.activation_spec, max_abs=max_abs).astype(FLOAT_DTYPE)
        return self._matmul(x_q)
