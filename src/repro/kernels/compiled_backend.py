"""The ``"compiled"`` kernel backend: C hot loops behind the registry (PR 7).

Loads the shared library built from ``src/repro/kernels/_c/defa_kernels.c``
(``python setup.py build_ext --inplace``) via :mod:`ctypes` and exposes it as
a backend object selected per-call/per-config exactly like ``"fused"``.  Two
entry points cover the four true hot loops of the sparse encoder:

* ``defa_gather_combine_segsum`` — the flat neighbour gather, the
  4-neighbour bilinear weight combine and the segment sum, fused into one
  pass over the kept points (no ``(K, 4, D_h)`` gather block, no ``(K, D_h)``
  contribution block — the numpy backends stream several MB per chunk
  through memory just to feed ``reduceat``);
* ``defa_fake_quantize`` — the divide → rint → clip → rescale chain of
  dynamic activation quantization in a single pass, replacing four
  full-array numpy passes plus a float64 scratch.

**Graceful degradation.**  When no library is found (no toolchain, never
built, stale ABI), :data:`COMPILED_AVAILABLE` is ``False`` and
:func:`repro.kernels.registry._lookup` resolves ``"compiled"`` to the fused
backend with a warning — never an ImportError.

**Numerics.**  Both kernels replicate the numpy op order exactly (see the C
source header): the combine accumulates the four neighbours sequentially in
float32 as einsum does, the segment sum replays ``np.add.reduceat``'s
``first + pairwise(rest)`` order including the shared 8 MiB chunk
boundaries, and the quantize chain is the same elementwise float64 sequence.
The backend is therefore *bit-identical* to ``"fused"`` on every supported
input, and :data:`COMPILED_EQUIVALENCE_TOL` — the backend's tier in the
equivalence probes and ``run_all --check`` gates — is exactly ``0.0``.  The
tier constant exists so that a platform where identity is unachievable (a
compiler that ignores ``-ffp-contract=off``, a non-IEEE libm ``rint``) can
widen *this backend's* gate explicitly without touching the 0.0
fused-vs-reference gate, the same per-comparison precedent as the PR 4
BLAS-row-count tolerance.

Inputs the C kernels do not support (non-contiguous arrays, unexpected
dtypes, per-channel/broadcast scale layouts) fall back to the inherited
fused implementations, which are bit-identical anyway — support is a pure
performance question, never a correctness one.
"""

from __future__ import annotations

import ctypes
from pathlib import Path

import numpy as np

from repro.kernels.backends import (
    _SPARSE_CONTRIB_BUDGET_BYTES,
    FLOAT_DTYPE,
    FusedBackend,
)
from repro.kernels.plan import ExecutionPlan
from repro.quant.quantizer import QuantSpec, compute_scale
from repro.utils.timing import kernel_section

__all__ = [
    "COMPILED_AVAILABLE",
    "COMPILED_EQUIVALENCE_TOL",
    "CompiledBackend",
]

COMPILED_EQUIVALENCE_TOL = 0.0
"""Compiled-vs-fused drift bound: the per-backend tolerance tier of the
``"compiled"`` backend in equivalence probes and CI gates.  Exactly zero —
the C kernels replicate the numpy float op order including reduceat's
pairwise summation — and deliberately separate from the fused-vs-reference
0.0 gate so a diverging platform would widen only this tier, explicitly."""

_ABI_VERSION = 1
"""Expected ``defa_kernels_abi()`` of the library; must match the C source.
A stale in-place build after a signature change is refused, not called."""

_LIB_STEM = "_defa_kernels"

_STACK_LEVELS = 48
"""Recursion head-room of the C pairwise segment sum (each level halves the
row count, so 48 covers any conceivable segment length)."""

_SUM_SCRATCH_ROWS = 9 + _STACK_LEVELS
"""Rows of the ``(rows, d_h)`` summation scratch: 1 result row + 8 unrolled
partial-sum rows + one row per recursion level."""


def _load_library() -> ctypes.CDLL | None:
    """The kernel library next to this module, or ``None`` when unusable."""
    here = Path(__file__).resolve().parent
    for path in sorted(here.glob(_LIB_STEM + "*")):
        if path.suffix not in {".so", ".dylib", ".pyd"}:
            continue
        try:
            lib = ctypes.CDLL(str(path))
            abi = lib.defa_kernels_abi
            lib.defa_gather_combine_segsum.restype = None
            lib.defa_fake_quantize.restype = None
        except (OSError, AttributeError):
            continue
        abi.restype = ctypes.c_int64
        abi.argtypes = []
        if abi() != _ABI_VERSION:
            continue
        return lib
    return None


_LIB = _load_library()

COMPILED_AVAILABLE = _LIB is not None
"""Whether the compiled kernel library was found and loaded.  ``False`` on
hosts that never ran ``setup.py build_ext`` (or have no C toolchain); the
registry then resolves ``"compiled"`` to ``"fused"`` with a warning."""


def _ptr(array: np.ndarray) -> ctypes.c_void_p:
    return ctypes.c_void_p(array.ctypes.data)


def _rowwise_scales(x: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, int] | None:
    """Flatten a broadcastable quantization scale to per-row form.

    Returns ``(scales_1d, row_size)`` such that ``scales_1d[i]`` applies to
    the ``i``-th block of ``row_size`` elements of C-ordered ``x`` — the
    layout ``defa_fake_quantize`` consumes.  Covers every scale shape the
    projection helpers produce: a scalar (full-array dynamic scale), the
    per-image ``(B, 1, 1)`` keepdims array and the per-row ``(rows, 1)``
    array.  ``None`` means the layout is not row-wise (e.g. per-channel
    scales broadcasting along a middle axis) and the caller must fall back.
    """
    scale = np.asarray(scale, dtype=np.float64)
    if scale.size == 1:
        return np.ascontiguousarray(scale.reshape(1)), x.size
    if scale.ndim != x.ndim:
        return None
    lead = scale.ndim
    while lead > 0 and scale.shape[lead - 1] == 1:
        lead -= 1
    if scale.shape[:lead] != x.shape[:lead]:
        return None
    return np.ascontiguousarray(scale.reshape(-1)), x.size // scale.size


class CompiledBackend(FusedBackend):
    """C-kernel variant of the fused backend (same plans, same bits).

    Inherits the fused backend's plan/arena conventions (``fused = True``:
    runners thread :class:`ExecutionPlan` arenas through it, a plan-less
    call gets a fresh plan) and overrides the two hot
    paths with single-pass C kernels.  Steady-state calls perform no
    allocations beyond the same plan buffers the fused backend uses — the C
    scratch rows live in the arena too.
    """

    name = "compiled"

    def compact_gather_aggregate(
        self,
        value_flat: np.ndarray,
        trace,
        attn_flat: np.ndarray,
        n_in: int,
        plan: ExecutionPlan | None = None,
    ) -> np.ndarray:
        d_h = int(value_flat.shape[1])
        n_h = trace.num_heads
        n_q, batch = trace.num_queries, trace.batch_size
        k = trace.num_kept
        supported = (
            value_flat.dtype == FLOAT_DTYPE
            and attn_flat.dtype == FLOAT_DTYPE
            and trace.weights.dtype == FLOAT_DTYPE
            and trace.kept.dtype == np.int64
            and trace.flat_indices.dtype == np.int64
            and trace.valid.dtype == np.bool_
            and value_flat.flags.c_contiguous
            and attn_flat.flags.c_contiguous
            and trace.kept.flags.c_contiguous
            and trace.flat_indices.flags.c_contiguous
            and trace.weights.flags.c_contiguous
            and trace.valid.flags.c_contiguous
            and trace.flat_indices.shape[1:] == (4,)
        )
        if not supported:
            return super().compact_gather_aggregate(
                value_flat, trace, attn_flat, n_in, plan=plan
            )
        if plan is None:
            plan = ExecutionPlan()
        output = plan.zeros("msgs.out", (batch * n_q * n_h, d_h), FLOAT_DTYPE)
        if k == 0:
            return output
        # Same chunking formula as the numpy backends: shared boundaries mean
        # a shared float summation order (partial sums flush per chunk).
        chunk = max(1, _SPARSE_CONTRIB_BUDGET_BYTES // (4 * 4 * max(d_h, 1)))
        points_per_seg = trace.num_levels * trace.num_points
        run_max = max(1, min(points_per_seg, chunk))
        contrib = plan.buffer("msgs.c_contrib", (run_max, d_h), FLOAT_DTYPE)
        sums = plan.buffer("msgs.c_sums", (_SUM_SCRATCH_ROWS, d_h), FLOAT_DTYPE)
        with kernel_section("aggregate"):  # gather+combine+segsum, one pass
            _LIB.defa_gather_combine_segsum(
                _ptr(value_flat),
                _ptr(trace.kept),
                _ptr(trace.flat_indices),
                _ptr(trace.weights),
                _ptr(trace.valid.view(np.uint8)),
                _ptr(attn_flat),
                ctypes.c_int64(k),
                ctypes.c_int64(d_h),
                ctypes.c_int64(n_in),
                ctypes.c_int64(n_h),
                ctypes.c_int64(n_q),
                ctypes.c_int64(points_per_seg),
                ctypes.c_int64(batch),
                ctypes.c_int64(chunk),
                _ptr(contrib),
                _ptr(sums),
                _ptr(output),
            )
        return output

    def fake_quantize_into(
        self,
        x: np.ndarray,
        spec: QuantSpec,
        max_abs,
        out: np.ndarray,
    ) -> np.ndarray | None:
        """Fused C fake-quantize chain into *out*; ``None`` = unsupported.

        Bit-identical to the blocked numpy chain of
        ``fused_ops._quantize_into`` (same float64 op sequence,
        elementwise), so it equals :func:`repro.quant.quantizer.fake_quantize`
        up to the sign of zeros.  Returns ``None`` when the input or scale
        layout is outside the C kernel's contract so the caller runs the
        numpy chain instead.
        """
        if (
            x.dtype != FLOAT_DTYPE
            or out.dtype != FLOAT_DTYPE
            or out.shape != x.shape
            or not x.flags.c_contiguous
            or not out.flags.c_contiguous
        ):
            return None
        if x.size == 0:
            return out
        scale = compute_scale(x, spec, max_abs=max_abs)
        rowwise = _rowwise_scales(x, scale)
        if rowwise is None:
            return None
        scales, row_size = rowwise
        _LIB.defa_fake_quantize(
            _ptr(x),
            _ptr(out),
            ctypes.c_int64(x.size),
            _ptr(scales),
            ctypes.c_int64(row_size),
            ctypes.c_double(spec.qmin),
            ctypes.c_double(spec.qmax),
        )
        return out
