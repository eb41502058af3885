"""Minimal module system: parameter containers with a functional ``__call__``.

The substrate only needs inference, so modules hold NumPy parameter arrays and
implement ``forward``.  A tiny ``Module`` base class provides parameter
discovery (used by the quantization wrappers and the FLOP analyzer) without
pulling in any framework machinery.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor_utils import FLOAT_DTYPE, gelu, layer_norm, relu, xavier_uniform
from repro.utils.rng import as_rng


class Module:
    """Base class for all NN modules.

    Subclasses register parameters simply by assigning NumPy arrays to
    attributes and sub-modules by assigning :class:`Module` instances.
    :meth:`parameters` and :meth:`named_parameters` walk that structure.
    """

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def named_parameters(self, prefix: str = "") -> dict[str, np.ndarray]:
        """Return ``{qualified_name: array}`` for every parameter in the tree."""
        params: dict[str, np.ndarray] = {}
        for name, value in vars(self).items():
            qualified = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, np.ndarray):
                params[qualified] = value
            elif isinstance(value, Module):
                params.update(value.named_parameters(qualified))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        params.update(item.named_parameters(f"{qualified}.{i}"))
        return params

    def parameters(self) -> list[np.ndarray]:
        """Return all parameter arrays in the module tree."""
        return list(self.named_parameters().values())

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(p.size for p in self.parameters()))

    def named_modules(self, prefix: str = "") -> dict[str, "Module"]:
        """Return ``{qualified_name: module}`` for this module and all children."""
        modules: dict[str, Module] = {prefix or "": self}
        for name, value in vars(self).items():
            qualified = f"{prefix}.{name}" if prefix else name
            if isinstance(value, Module):
                modules.update(value.named_modules(qualified))
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        modules.update(item.named_modules(f"{qualified}.{i}"))
        return modules


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


class Sequential(Module):
    """Apply a list of modules in order."""

    def __init__(self, *modules: Module) -> None:
        self.layers = list(modules)

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer(x)
        return x


class FeedForward(Module):
    """Transformer feed-forward block: ``Linear -> activation -> Linear``."""

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
        return self.linear2(self.activation(self.linear1(x)))

    def forward_into(
        self, x: np.ndarray, out: np.ndarray, hidden: np.ndarray
    ) -> np.ndarray:
        """:meth:`forward` through caller-provided buffers.

        ``hidden`` holds the ``(..., d_ffn)`` post-activation intermediate
        (the largest FFN temporary), ``out`` the ``(..., d_model)`` result;
        neither may alias ``x``.  Only the ReLU activation supports the
        in-place path (GELU's tanh chain is not expressible as one in-place
        ufunc), so GELU configurations fall back to :meth:`forward` for the
        activation while keeping the buffered matmuls.  Bit-identical to
        :meth:`forward` either way.
        """
        self.linear1.forward_into(x, hidden)
        if isinstance(self.activation, ReLU):
            np.maximum(hidden, 0.0, out=hidden)
        else:
            hidden = self.activation(hidden)
        return self.linear2.forward_into(hidden, out)

    def flops(self, num_rows: int) -> int:
        """FLOPs of both projections for *num_rows* tokens."""
        return self.linear1.flops(num_rows) + self.linear2.flops(num_rows)
