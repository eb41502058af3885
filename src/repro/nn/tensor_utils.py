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


LAYER_NORM_BLOCK_BYTES = 1 << 18
"""Size of the float32 scratch the in-place :func:`layer_norm` squares its
centred rows into: one row block (256 rows at ``D = 256``)."""


def layer_norm(
    x: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    eps: float = 1e-5,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Layer normalization over the last dimension.

    With ``out`` (a C-contiguous float32 array of ``x.shape``, distinct from
    ``x``) the stage runs in place in it, bit-identical to the allocating
    path: the row sums are reduced once, ``x - mean`` is written once into
    ``out``, and its squares go through one row block of
    :data:`LAYER_NORM_BLOCK_BYTES` at a time.  That is ``x.mean`` /
    ``x.var`` step for step — the same pairwise row sums, divided by
    ``np.intp(D)`` with ``casting="unsafe"`` as NumPy's ``_mean`` / ``_var``
    do — without ``x.var``'s full-size centred copy.
    """
    x = np.asarray(x, dtype=FLOAT_DTYPE)
    if out is None:
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        normalized = (x - mean) / np.sqrt(var + eps)
        return normalized * weight + bias
    width = x.shape[-1]
    count = np.intp(width)
    rows = x.reshape(-1, width)
    centred = out.reshape(-1, width)
    mean = np.add.reduce(rows, axis=-1, keepdims=True)
    np.true_divide(mean, count, out=mean, casting="unsafe")
    np.subtract(rows, mean, out=centred)
    var = mean  # the mean is dead once the rows are centred
    step = max(1, LAYER_NORM_BLOCK_BYTES // (4 * width))
    squares = np.empty((min(step, rows.shape[0]), width), dtype=FLOAT_DTYPE)
    for lo in range(0, rows.shape[0], step):
        hi = min(lo + step, rows.shape[0])
        block = np.square(centred[lo:hi], out=squares[: hi - lo])
        np.add.reduce(block, axis=-1, keepdims=True, out=var[lo:hi])
    np.true_divide(var, count, out=var, casting="unsafe")
    np.add(var, eps, out=var)
    np.sqrt(var, out=var)
    np.divide(centred, var, out=centred)
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
