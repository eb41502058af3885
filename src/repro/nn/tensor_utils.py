"""Elementary tensor operations shared across the NN substrate.

All functions work on ``float32`` NumPy arrays and are written to be
numerically stable (softmax subtracts the row max, layer norm uses an epsilon).
"""

from __future__ import annotations

import numpy as np

FLOAT_DTYPE = np.float32


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax along *axis*."""
    x = np.asarray(x, dtype=FLOAT_DTYPE)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def layer_norm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-5,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Layer normalization over the last dimension.

    With ``out`` (a float32 array of ``x.shape``, distinct from ``x``) the
    big elementwise passes run in-place into it — bit-identical to the
    allocating path (same operations in the same order; only the per-row
    mean/variance reductions still allocate, and those are ``D`` times
    smaller than the data).
    """
    x = np.asarray(x, dtype=FLOAT_DTYPE)
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    if out is None:
        normalized = (x - mean) / np.sqrt(var + eps)
        return normalized * weight + bias
    np.subtract(x, mean, out=out)
    denom = np.sqrt(var + eps)
    np.divide(out, denom, out=out)
    np.multiply(out, weight, out=out)
    np.add(out, bias, out=out)
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=FLOAT_DTYPE), 0.0)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation)."""
    x = np.asarray(x, dtype=FLOAT_DTYPE)
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def xavier_uniform(rng: np.random.Generator, fan_in: int, fan_out: int, gain: float = 1.0) -> np.ndarray:
    """Xavier/Glorot uniform initialization for a ``(fan_in, fan_out)`` weight."""
    if fan_in <= 0 or fan_out <= 0:
        raise ValueError("fan_in and fan_out must be positive")
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(FLOAT_DTYPE)


def cosine_similarity(a: np.ndarray, b: np.ndarray, axis: int = -1, eps: float = 1e-12) -> np.ndarray:
    """Cosine similarity between *a* and *b* along *axis*."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    num = np.sum(a * b, axis=axis)
    den = np.linalg.norm(a, axis=axis) * np.linalg.norm(b, axis=axis)
    return num / np.maximum(den, eps)
