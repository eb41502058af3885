"""Plan-aware fused projection helpers for the DEFA pipeline.

The quantized projections dominate the non-gather wall clock of the sparse
encoder: every :meth:`~repro.quant.qmodules.QuantizedLinear.
forward_rows_batched` call makes ~8 full passes over its activation block (float64 upcast, divide,
round, clip, int32 round-trip, rescale, matmul, bias), each allocating a
fresh temporary.  The helpers here execute the same projections through an
:class:`~repro.kernels.plan.ExecutionPlan` arena: row gathers via
``np.take(out=...)``, fake quantization through a reused float64 scratch
(see :func:`repro.quant.quantizer.fake_quantize`), matmul + bias in-place
into a reused output buffer.

Every helper is **bit-identical** to the module method it replaces:

* the dynamic activation scale is ``max(x.max(), -x.min())``, which equals
  ``np.max(np.abs(x))`` exactly (float negation and abs are exact) without
  materialising ``|x|``;
* the in-place quantize chain preserves the float64 op order (the int32
  round-trip it skips maps integral in-range float64 values to themselves);
* ``np.matmul(out=...)`` issues the same BLAS call for the same row count.

Per-channel activation specs fall back to the module's own scale computation
(no configuration in this repo uses them for activations, but correctness
must not depend on that).

Every helper accepts ``backend=None``: a backend exposing
``fake_quantize_into`` (the ``"compiled"`` backend's single-pass C chain)
takes over the quantize step when it supports the input, bit-identically;
otherwise — unsupported layout, numpy-only backend — the in-place numpy
chain runs as before, and the float64 scratch is only allocated on that
path.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.plan import ExecutionPlan
from repro.nn.modules import Linear
from repro.quant.qmodules import QuantizedLinear
from repro.quant.quantizer import fake_quantize

FLOAT_DTYPE = np.float32

__all__ = [
    "max_abs",
    "project_batched_into",
    "project_rows_batched_into",
]


def max_abs(x: np.ndarray, axis=None, keepdims: bool = False):
    """``np.max(np.abs(x), axis)`` without materialising ``|x|``.

    Exactly equal for any non-NaN floats: ``max|x| = max(max(x), -min(x))``.
    """
    if x.size == 0:
        return 0.0 if axis is None else np.zeros((), dtype=x.dtype)
    hi = x.max(axis=axis, keepdims=keepdims)
    lo = x.min(axis=axis, keepdims=keepdims)
    result = np.maximum(hi, -lo)
    return float(result) if axis is None else result


def _quantize_into(
    proj: QuantizedLinear,
    x: np.ndarray,
    scale_max_abs,
    plan: ExecutionPlan,
    name: str,
    backend=None,
) -> np.ndarray:
    """Fake-quantized activations of *x* in a reused float32 buffer."""
    x_q = plan.buffer(f"{name}.xq", x.shape, FLOAT_DTYPE)
    fq_into = getattr(backend, "fake_quantize_into", None)
    if fq_into is not None:
        result = fq_into(x, proj.activation_spec, scale_max_abs, x_q)
        if result is not None:
            return result
    scratch = plan.buffer(f"{name}.q64", x.shape, np.float64)
    fake_quantize(x, proj.activation_spec, max_abs=scale_max_abs, out=x_q, scratch=scratch)
    return x_q


def _matmul_bias_into(
    weight: np.ndarray, bias: np.ndarray | None, x: np.ndarray, out: np.ndarray
) -> np.ndarray:
    np.matmul(x, weight, out=out)
    if bias is not None:
        out += bias
    return out


def _full_array_scale(proj: QuantizedLinear, x: np.ndarray):
    """The dynamic activation scale :meth:`QuantizedLinear.forward` derives.

    ``None`` signals an unsupported (per-channel) configuration — the caller
    falls back to the module method.
    """
    if proj.activation_max_abs is not None:
        return proj.activation_max_abs
    if proj.activation_spec.per_channel:
        return None
    return max_abs(x)


def project_batched_into(
    proj: Linear | QuantizedLinear,
    x: np.ndarray,
    plan: ExecutionPlan,
    name: str,
    backend=None,
) -> np.ndarray:
    """``proj.forward_batched(x)`` / ``proj(x)`` into a plan buffer.

    Dynamic activation quantization stays *per image* (one scale per batch
    element, exactly the scales :meth:`QuantizedLinear.forward_batched`
    derives).
    """
    out = plan.buffer(f"{name}.out", x.shape[:-1] + (proj.out_features,), FLOAT_DTYPE)
    if isinstance(proj, QuantizedLinear):
        if proj.activation_spec.per_channel and proj.activation_max_abs is None:
            out[...] = proj.forward_batched(x)
            return out
        scale = proj.activation_max_abs
        if scale is None:
            reduce_axes = tuple(range(1, x.ndim))
            scale = max_abs(x, axis=reduce_axes, keepdims=True)
        x_q = _quantize_into(proj, x, scale, plan, name, backend=backend)
        return _matmul_bias_into(proj.quantized_weight, proj.inner.bias, x_q, out)
    return _matmul_bias_into(proj.weight, proj.bias, x, out)


def project_rows_batched_into(
    proj: Linear | QuantizedLinear,
    x: np.ndarray,
    flat_rows: np.ndarray,
    plan: ExecutionPlan,
    name: str,
    backend=None,
) -> np.ndarray:
    """``proj.forward_rows_batched(x, flat_rows)`` into a plan buffer.

    ``x`` has shape ``(B, N, D)`` and ``flat_rows`` indexes the flattened
    ``(B * N)`` row axis; each selected row is quantized with the dynamic
    scale of its own image, exactly as the module method does.
    """
    batch, n_rows = x.shape[0], x.shape[1]
    flat = x.reshape(batch * n_rows, x.shape[-1])
    out = plan.buffer(f"{name}.out", (flat_rows.shape[0], proj.out_features), FLOAT_DTYPE)
    if isinstance(proj, QuantizedLinear):
        if proj.activation_spec.per_channel and proj.activation_max_abs is None:
            out[...] = proj.forward_rows_batched(x, flat_rows)  # gathers internally
            return out
        scale = proj.activation_max_abs
        if scale is None:
            image = np.asarray(flat_rows, dtype=np.int64) // n_rows
            per_image = max_abs(x, axis=(1, 2))  # (B,)
            scale = per_image[image][:, None]
        x_rows = plan.take(f"{name}.rows", flat, flat_rows, axis=0)
        x_q = _quantize_into(proj, x_rows, scale, plan, name, backend=backend)
        return _matmul_bias_into(proj.quantized_weight, proj.inner.bias, x_q, out)
    x_rows = plan.take(f"{name}.rows", flat, flat_rows, axis=0)
    return _matmul_bias_into(proj.weight, proj.bias, x_rows, out)
