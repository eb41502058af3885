"""Plan-aware fused projection helpers for the DEFA pipeline.

The quantized projections dominate the non-gather wall clock of the sparse
encoder: every :meth:`~repro.quant.qmodules.QuantizedLinear.
forward_rows_batched` call makes ~8 full passes over its activation block
(float64 upcast, divide, round, clip, int32 round-trip, rescale, matmul,
bias), each allocating a fresh temporary.  :func:`project_into` executes the
same projections through an :class:`~repro.kernels.plan.ExecutionPlan`
arena, holding only the data that is live at one time:

* the row gather writes the shared ``proj.rows`` buffer and the quantized
  activations the shared ``proj.xq`` buffer — both are dead once the matmul
  returns, so every projection of the block reuses the same two buffers;
* fake quantization runs in row blocks through one float64 scratch of about
  :data:`QUANT_SCRATCH_BYTES` (``quant.q64``) instead of a float64 copy of
  the whole activation — small enough to stay in cache;
* projections that read the same input with the same activation spec (the
  attention-weight and sampling-offset heads both read the query) share one
  gather and one quantization;
* matmul + bias run in place into the ``{name}.out`` buffer of each
  projection, the only buffer that outlives the call.

Every helper is **bit-identical** to the module method it replaces:

* the dynamic activation scale is ``max(x.max(), -x.min())``, which equals
  ``np.max(np.abs(x))`` exactly (float negation and abs are exact) without
  materialising ``|x|``;
* the in-place quantize chain preserves the float64 op order, and every
  step is elementwise, so splitting it into row blocks changes no bits.  The
  int32 round trip it skips maps integral in-range float64 values to
  themselves, except that ``-0.0`` comes back as ``+0.0``: the quantized
  activations differ from the module's at most in the sign of a zero, which
  can reach a projection output only as the sign of a zero output;
* ``np.matmul(out=...)`` issues the same BLAS call for the same row count.

Every helper accepts ``backend=None``: a backend exposing
``fake_quantize_into`` (the ``"compiled"`` backend's single-pass C chain)
takes over the quantize step when it supports the input, bit-identically;
otherwise — unsupported layout, numpy-only backend — the blocked numpy
chain runs, and the float64 scratch is only allocated on that path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.kernels.plan import ExecutionPlan
from repro.nn.modules import Linear
from repro.quant.qmodules import QuantizedLinear
from repro.quant.quantizer import QuantSpec, compute_scale

FLOAT_DTYPE = np.float32

QUANT_SCRATCH_BYTES = 1 << 20
"""Size of the float64 scratch the quantize chain runs through: one row block
(512 rows at ``D = 256``)."""

__all__ = ["QUANT_SCRATCH_BYTES", "image_row_max_abs", "max_abs", "project_into"]


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
    spec: QuantSpec,
    x: np.ndarray,
    scale_max_abs,
    plan: ExecutionPlan,
    backend=None,
) -> np.ndarray:
    """Fake-quantized activations of *x* in the shared ``proj.xq`` buffer.

    ``scale_max_abs`` is a scalar, or broadcasts against ``x`` with a
    trailing axis of one (per-image ``(B, 1, 1)``, per-row ``(rows, 1)``).
    The divide → round → clip → rescale chain runs in row blocks through
    the ``quant.q64`` scratch; every step is elementwise, so the result
    equals :func:`repro.quant.quantizer.fake_quantize` bit for bit, up to
    the sign of zeros (that chain's int32 round trip turns ``-0.0`` into
    ``+0.0``).
    """
    x_q = plan.buffer("proj.xq", x.shape, FLOAT_DTYPE)
    fq_into = getattr(backend, "fake_quantize_into", None)
    if fq_into is not None:
        result = fq_into(x, spec, scale_max_abs, x_q)
        if result is not None:
            return result
    scale = compute_scale(x, spec, max_abs=scale_max_abs)
    # A 0-d scale stays the exact operand of the one-shot chain; any other
    # layout becomes one scale per row.
    scalar = np.ndim(scale) == 0
    if not scalar:
        scale = np.broadcast_to(scale, x.shape[:-1] + (1,)).reshape(-1, 1)
    width = x.shape[-1]
    rows = x.reshape(-1, width)
    out = x_q.reshape(-1, width)
    step = max(1, QUANT_SCRATCH_BYTES // (8 * width))
    scratch = plan.buffer("quant.q64", (min(step, rows.shape[0]), width), np.float64)
    for lo in range(0, rows.shape[0], step):
        hi = min(lo + step, rows.shape[0])
        s = scratch[: hi - lo]
        block_scale = scale if scalar else scale[lo:hi]
        np.divide(rows[lo:hi], block_scale, out=s)
        np.round(s, out=s)
        np.clip(s, spec.qmin, spec.qmax, out=s)
        np.multiply(s, block_scale, out=out[lo:hi], casting="unsafe")
    return x_q


def _matmul_bias_into(
    weight: np.ndarray, bias: np.ndarray, x: np.ndarray, out: np.ndarray
) -> np.ndarray:
    np.matmul(x, weight, out=out)
    out += bias
    return out


def _input_key(proj: Linear | QuantizedLinear):
    """What a projection's matmul input depends on besides ``x``: two
    projections with equal keys read the identical (gathered, quantized)
    input."""
    if not isinstance(proj, QuantizedLinear):
        return ("float",)
    return ("quantized", proj.activation_spec)


def _matmul_input(
    proj: Linear | QuantizedLinear,
    x: np.ndarray,
    rows: np.ndarray | None,
    plan: ExecutionPlan,
    backend=None,
    row_max_abs: np.ndarray | None = None,
) -> np.ndarray:
    """The (gathered, fake-quantized) matmul input of *proj* for ``x``."""
    x_in = x if rows is None else plan.take("proj.rows", x.reshape(-1, x.shape[-1]), rows)
    if not isinstance(proj, QuantizedLinear):
        return x_in
    # Dynamic: one scale per image, as forward_batched.
    if row_max_abs is not None:
        scale = row_max_abs
    elif rows is None:
        scale = max_abs(x, axis=tuple(range(1, x.ndim)), keepdims=True)
    else:
        image = np.asarray(rows, dtype=np.int64) // x.shape[1]
        scale = max_abs(x, axis=(1, 2))[image][:, None]
    return _quantize_into(proj.activation_spec, x_in, scale, plan, backend=backend)


def image_row_max_abs(rows: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``(K, 1)``: the max-abs of each compact row's image.

    ``rows`` holds the kept rows of a batch, image ``b`` in
    ``rows[bounds[b]:bounds[b + 1]]``.  When every row the compaction
    dropped is zero, an image's ``max|x|`` over its kept rows equals the one
    over all its rows (``max|x| >= 0``), so these are exactly the per-image
    scales :meth:`QuantizedLinear.forward_rows_batched` derives from the
    full batch.
    """
    scales = np.empty(len(bounds) - 1, dtype=rows.dtype)
    for b in range(scales.size):
        scales[b] = max_abs(rows[bounds[b] : bounds[b + 1]], axis=(0, 1))
    return np.repeat(scales, np.diff(bounds))[:, None]


def project_into(
    projs: Sequence[Linear | QuantizedLinear],
    x: np.ndarray,
    plan: ExecutionPlan,
    names: Sequence[str],
    rows: np.ndarray | None = None,
    backend=None,
    row_max_abs: np.ndarray | None = None,
) -> list[np.ndarray]:
    """Each ``proj.forward_batched(x)`` (``proj(x)`` unquantized), into the
    plan buffer ``{name}.out``.

    ``x`` has shape ``(B, N, D)``.  With ``rows`` — indices into the
    flattened ``(B * N)`` row axis — only those rows are projected, as
    ``proj.forward_rows_batched(x, rows)``: each selected row is quantized
    with the dynamic scale of its own image.  Dynamic activation
    quantization always stays per image (one scale per batch element,
    exactly the scales :meth:`QuantizedLinear.forward_batched` derives).

    ``x`` may instead be rows that are already compact, ``(K, D)``, with
    ``row_max_abs`` the ``(K, 1)`` max-abs of each row's image (see
    :func:`image_row_max_abs`); quantized projections then use those
    scales, and nothing is gathered.

    Consecutive projections whose matmul input is the same — unquantized,
    or quantized with the same activation spec — share one gather and one
    quantization.
    """
    lead = x.shape[:-1] if rows is None else (rows.shape[0],)
    outs = []
    shared_key, shared = None, None
    for proj, name in zip(projs, names, strict=True):
        out = plan.buffer(f"{name}.out", lead + (proj.out_features,), FLOAT_DTYPE)
        key = _input_key(proj)
        if key != shared_key:
            shared = _matmul_input(proj, x, rows, plan, backend, row_max_abs)
            shared_key = key
        if isinstance(proj, QuantizedLinear):
            _matmul_bias_into(proj.quantized_weight, proj.inner.bias, shared, out)
        else:
            _matmul_bias_into(proj.weight, proj.bias, shared, out)
        outs.append(out)
    return outs
