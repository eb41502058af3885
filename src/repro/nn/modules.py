"""Minimal module system: parameter containers with a functional ``__call__``.

The substrate only needs inference, so modules hold NumPy parameter arrays and
implement ``forward``; the tiny ``Module`` base class only makes them
callable, without pulling in any framework machinery.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor_utils import FLOAT_DTYPE, gelu, layer_norm, relu, xavier_uniform
from repro.utils.rng import as_rng


class Module:
    """Base class for all NN modules.

    Subclasses hold parameters as NumPy array attributes and sub-modules as
    :class:`Module` attributes, and implement :meth:`forward`.
    """

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine map ``y = x @ weight + bias`` with Xavier-uniform initialization."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        rng = as_rng(rng)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = xavier_uniform(rng, in_features, out_features)
        self.bias = np.zeros(out_features, dtype=FLOAT_DTYPE) if bias else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=FLOAT_DTYPE)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dimension {self.in_features}, got {x.shape[-1]}"
            )
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`forward` written into a caller-provided buffer.

        ``out`` must have shape ``x.shape[:-1] + (out_features,)`` and must
        not alias ``x``.  Bit-identical to :meth:`forward` (``np.matmul``
        with ``out=`` issues the same BLAS call — kernel choice depends on
        the row count, which is unchanged — and the in-place bias add is the
        same float operation); only the temporaries disappear.
        """
        x = np.asarray(x, dtype=FLOAT_DTYPE)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dimension {self.in_features}, got {x.shape[-1]}"
            )
        np.matmul(x, self.weight, out=out)
        if self.bias is not None:
            out += self.bias
        return out

    def flops(self, num_rows: int) -> int:
        """Multiply-accumulate FLOPs (2 per MAC) for *num_rows* input rows."""
        return int(2 * num_rows * self.in_features * self.out_features)


class LayerNorm(Module):
    """Layer normalization over the last dimension with learnable scale/shift."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        if normalized_shape <= 0:
            raise ValueError("normalized_shape must be positive")
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = np.ones(normalized_shape, dtype=FLOAT_DTYPE)
        self.bias = np.zeros(normalized_shape, dtype=FLOAT_DTYPE)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return layer_norm(x, self.weight, self.bias, self.eps)

    def forward_into(self, x: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`forward` written into ``out`` (same shape, not aliasing
        ``x``); bit-identical — see :func:`repro.nn.tensor_utils.layer_norm`.
        """
        return layer_norm(x, self.weight, self.bias, self.eps, out=out)


class ReLU(Module):
    """Rectified linear unit activation module."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return relu(x)


class GELU(Module):
    """GELU activation module (tanh approximation)."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return gelu(x)


FFN_BLOCK_ROWS = 1024
"""Most rows a :class:`FeedForward` pushes through its hidden layer at once.
Bounds the ``(rows, d_ffn)`` hidden activation at ``FFN_BLOCK_ROWS * d_ffn``
floats, however many rows the input has."""


def ffn_row_blocks(num_rows: int) -> list[tuple[int, int]]:
    """Balanced ``[lo, hi)`` row blocks of at most :data:`FFN_BLOCK_ROWS`.

    Block sizes differ by at most one row, larger blocks first, so no block
    is ever a single row unless the input is: a 1-row matmul takes BLAS's
    matrix-vector path, which rounds differently from the matrix-matrix
    path every other row count shares.
    """
    count = max(1, -(-num_rows // FFN_BLOCK_ROWS))
    base, extra = divmod(num_rows, count)
    blocks, lo = [], 0
    for i in range(count):
        hi = lo + base + (1 if i < extra else 0)
        blocks.append((lo, hi))
        lo = hi
    return blocks


class FeedForward(Module):
    """Transformer feed-forward block: ``Linear -> activation -> Linear``.

    Both forwards run the rows in the blocks of :func:`ffn_row_blocks`, so
    the hidden activation never exceeds :data:`FFN_BLOCK_ROWS` rows and the
    allocating and buffered paths issue the same matmuls.
    """

    def __init__(
        self,
        d_model: int,
        d_ffn: int,
        activation: str = "relu",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        rng = as_rng(rng)
        self.d_model = d_model
        self.d_ffn = d_ffn
        self.linear1 = Linear(d_model, d_ffn, rng=rng)
        self.linear2 = Linear(d_ffn, d_model, rng=rng)
        if activation == "relu":
            self.activation: Module = ReLU()
        elif activation == "gelu":
            self.activation = GELU()
        else:
            raise ValueError(f"unknown activation {activation!r}")

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=FLOAT_DTYPE)
        rows = x.reshape(-1, x.shape[-1])
        out = np.empty((rows.shape[0], self.d_model), dtype=FLOAT_DTYPE)
        for lo, hi in ffn_row_blocks(rows.shape[0]):
            out[lo:hi] = self.linear2(self.activation(self.linear1(rows[lo:hi])))
        return out.reshape(x.shape[:-1] + (self.d_model,))

    def hidden_rows(self, num_rows: int) -> int:
        """Rows the ``hidden`` buffer of :meth:`forward_into` needs for an
        input of *num_rows* rows: its largest row block."""
        lo, hi = ffn_row_blocks(num_rows)[0]
        return hi - lo

    def forward_into(
        self, x: np.ndarray, out: np.ndarray, hidden: np.ndarray
    ) -> np.ndarray:
        """:meth:`forward` through caller-provided buffers.

        ``hidden`` is a ``(hidden_rows(n), d_ffn)`` scratch for the
        post-activation intermediate of one row block, ``out`` the
        ``(..., d_model)`` result; neither may alias ``x``.  Only the ReLU
        activation supports the in-place path (GELU's tanh chain is not
        expressible as one in-place ufunc), so GELU configurations fall back
        to :meth:`forward`'s activation while keeping the buffered matmuls.
        Bit-identical to :meth:`forward` either way.
        """
        if not out.flags.c_contiguous:
            raise ValueError("FeedForward.forward_into: out must be C-contiguous")
        rows = x.reshape(-1, x.shape[-1])
        out_rows = out.reshape(-1, self.d_model)
        for lo, hi in ffn_row_blocks(rows.shape[0]):
            h = self.linear1.forward_into(rows[lo:hi], hidden[: hi - lo])
            if isinstance(self.activation, ReLU):
                np.maximum(h, 0.0, out=h)
            else:
                h = self.activation(h)
            self.linear2.forward_into(h, out_rows[lo:hi])
        return out

    def flops(self, num_rows: int) -> int:
        """FLOPs of both projections for *num_rows* tokens."""
        return self.linear1.flops(num_rows) + self.linear2.flops(num_rows)
