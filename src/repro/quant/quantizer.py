"""Symmetric uniform quantization primitives.

The paper quantizes the MSDeformAttn modules of the encoder layers to INT12
during inference and reports that INT8 is unusable (an average 9.7 AP drop).
This module provides the fake-quantization (quantize + dequantize) operators
used to reproduce that comparison in pure NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.tensor_utils import FLOAT_DTYPE


@dataclass(frozen=True)
class QuantSpec:
    """Description of a symmetric uniform quantizer.

    Parameters
    ----------
    num_bits:
        Bit width (e.g. 8 or 12).
    per_channel:
        If ``True``, scales are computed independently per output channel
        (last axis of the array being quantized).
    """

    num_bits: int = 12
    per_channel: bool = False

    def __post_init__(self) -> None:
        if not 2 <= self.num_bits <= 32:
            raise ValueError(f"num_bits must be in [2, 32], got {self.num_bits}")

    @property
    def qmax(self) -> int:
        """Largest representable positive integer level."""
        return 2 ** (self.num_bits - 1) - 1

    @property
    def qmin(self) -> int:
        """Most negative representable integer level."""
        return -(2 ** (self.num_bits - 1))


def compute_scale(x: np.ndarray, spec: QuantSpec, max_abs: float | np.ndarray | None = None) -> np.ndarray:
    """Quantization scale(s) for array *x* under *spec*.

    If *max_abs* is given it overrides the maximum over the whole array
    (the batched projections pass one range per image); otherwise the max
    absolute value of *x* is used.
    """
    x = np.asarray(x)
    if max_abs is None:
        if spec.per_channel and x.ndim >= 2:
            max_abs = np.max(np.abs(x.reshape(-1, x.shape[-1])), axis=0)
        else:
            max_abs = np.max(np.abs(x)) if x.size else 0.0
    max_abs = np.maximum(np.asarray(max_abs, dtype=np.float64), 1e-12)
    return (max_abs / spec.qmax).astype(np.float64)


def quantize(x: np.ndarray, scale: np.ndarray, spec: QuantSpec) -> np.ndarray:
    """Quantize *x* to integer levels (stored as ``int32``)."""
    x = np.asarray(x, dtype=np.float64)
    q = np.round(x / scale)
    return np.clip(q, spec.qmin, spec.qmax).astype(np.int32)


def dequantize(q: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Map integer levels back to real values."""
    return (np.asarray(q, dtype=np.float64) * scale).astype(FLOAT_DTYPE)


def fake_quantize(
    x: np.ndarray, spec: QuantSpec, max_abs: float | np.ndarray | None = None
) -> np.ndarray:
    """Quantize-then-dequantize *x*, simulating fixed-point inference error."""
    scale = compute_scale(x, spec, max_abs=max_abs)
    return dequantize(quantize(x, scale, spec), scale)
