"""The DEFA attention pipeline: MSDeformAttn with pruning-assisted grid sampling.

:class:`DEFAAttention` wraps a full-precision :class:`~repro.nn.msdeform_attn.
MSDeformAttn` module and executes it with the paper's rearranged dataflow
(Sec. 4.1):

1. attention probabilities are computed first and PAP derives the point mask;
2. the sampling offsets of the surviving points are generated and clamped by
   level-wise range narrowing;
3. the value projection ``V = X W^V`` is performed only for the fmap pixels
   kept by the FWP mask received from the *previous* block;
4. MSGS + aggregation run fused with the point mask applied, while the sampled
   frequency of every pixel is counted and the FWP mask for the *next* block is
   generated;
5. the output projection produces the block output.

All four linear projections are (optionally) fake-quantized to the configured
bit width.  The pipeline returns detailed statistics (kept points/pixels,
FLOP breakdown) that feed the Fig. 6 experiments and the hardware simulator.

Pruning executes through one of two equivalence-tested paths, selected by the
``sparse_mode`` switch (see :data:`SPARSE_MODES`): the masked-dense kernels
(pruned work simulated by zeroing — the hardware-faithful *numerics* with
dense software cost) or the compacted gather/scatter kernels (pruned pixels
and points skipped before any memory traffic — the paper's compute savings
realised as wall-clock speedup; see ``benchmarks/bench_sparse_speedup.py``).

Sparse execution v2 extends the compaction to the remaining dense stages: the
sparse path builds a *compacted sampling trace* (bilinear neighbour math for
kept points only, so the ``neighbors`` cost scales with the keep ratio) and,
under :attr:`DEFAConfig.enable_query_pruning`, FWP-pruned pixels stop acting
as queries — their offset/attention-head and output projections are skipped
via row-compacted projections while the dense path zeroes the same rows, so
the two paths remain equivalent to 1e-5 in fp32.

The block-sparse encoder (PR 4) carries the same mask through the
*inter-block* stages: under query pruning the residual adds, ``norm1``, FFN
and ``norm2`` of a pruned pixel are skipped as well — its row is frozen at
the block input — with the row-compacted execution living in
:meth:`repro.nn.encoder.DeformableEncoderLayer.forward_ffn_stage` and the
dispatch thresholds in :data:`~repro.kernels.DISPATCH_THRESHOLDS`
(``ffn_keep_max`` / ``ffn_min_tokens``) next to the others.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DEFAConfig
from repro.core.flops import FlopsBreakdown, msdeform_attn_flops
from repro.core.fwp import FWPResult, compute_fmap_mask, normalize_mask
from repro.kernels import (
    DISPATCH_THRESHOLDS,
    ExecutionOptions,
    ExecutionPlan,
    normalize_execution_options,
    resolve_backend,
)
from repro.kernels.fused_ops import image_row_max_abs, project_into
from repro.core.pap import PAPResult, compute_point_mask, point_keep_mask
from repro.core.range_narrowing import RangeNarrowing
from repro.core.sampling_stats import sampled_frequency, sampled_frequency_compact
from repro.nn.grid_sample import (
    SPARSE_MODES,  # noqa: F401 -- re-exported as repro.core.pipeline.SPARSE_MODES
    CompactSamplingTrace,
    SamplingTrace,
    ms_deform_attn_from_compact_trace,
    ms_deform_attn_from_trace,
    multi_scale_neighbors,
    multi_scale_neighbors_rows,
    multi_scale_neighbors_sparse,
    sparse_gather_rule,
    use_sparse_gather,
)
from repro.nn.modules import Linear
from repro.nn.msdeform_attn import MSDeformAttn
from repro.nn.tensor_utils import FLOAT_DTYPE, softmax
from repro.quant.qmodules import QuantizedLinear
from repro.utils.shapes import LevelShape, total_pixels
from repro.utils.timing import kernel_section

def use_sparse_rows(
    mask: np.ndarray | None,
    rows_per_image: int,
    keep_max: float,
    min_rows: int,
    sparse_mode: str,
) -> bool:
    """Shared dispatch rule of every row-compacted stage.

    No mask ⇒ dense by convention (the first block of an encoder never
    receives one).  ``"dense"``/``"sparse"`` force one path; ``"auto"``
    additionally requires the image to be large enough and the mask to
    actually prune.  ``mask`` is ``(N,)`` for one image or ``(B, N)`` for a
    batch; a batch uses the *maximum* per-image keep fraction (compact only
    when every image alone would go compact), so a batch and its images run
    alone make the same decision wherever possible.

    Boundary semantics (pinned by boundary-value tests; must match
    :func:`~repro.nn.grid_sample.use_sparse_gather`): the minimum size
    compares with ``<`` — ``rows_per_image == min_rows`` is sparse-eligible
    — and the keep ratio with ``<=`` — ``keep_fraction == keep_max`` goes
    sparse.
    """
    if mask is None or sparse_mode == "dense":
        return False
    if sparse_mode == "sparse":
        return True
    if rows_per_image < min_rows:
        return False
    per_image = np.count_nonzero(np.atleast_2d(mask), axis=-1)
    keep_fraction = float(per_image.max()) / max(rows_per_image, 1)
    return keep_fraction <= keep_max


@dataclass
class DEFALayerStats:
    """Pruning statistics of one DEFA attention block."""

    num_queries: int
    num_tokens: int
    points_total: int
    points_kept: int
    pixels_total: int
    pixels_kept: int
    """Pixels kept by the FWP mask applied to *this* block (from the previous block).

    First-block convention: FWP masks always come from the *previous* block,
    so the first block of an encoder (``fmap_mask is None``) has no mask to
    apply and ``pixels_kept == pixels_total`` — even when ``enable_fwp=True``
    and the block *generates* a mask for its successor.  The generated mask is
    accounted separately in :attr:`pixels_kept_next`.  Check
    :attr:`mask_applied` to distinguish "no mask received" from "a mask that
    happened to keep everything".
    """

    pixels_kept_next: int
    """Pixels kept by the mask generated for the *next* block."""

    flops: FlopsBreakdown

    mask_applied: bool = False
    """Whether an incoming FWP mask was applied to this block.

    ``False`` for the first block of an encoder run (``fmap_mask is None``),
    in which case :attr:`pixels_kept` equals :attr:`pixels_total` by
    convention rather than by measurement.
    """

    sparse_projection: bool = False
    """Whether the value projection ran on the compacted (kept-pixel) rows."""

    sparse_gather: bool = False
    """Whether MSGS + aggregation ran the compacted (kept-point) kernel.  The
    pipeline dispatches trace construction with the same decision, so this
    also says whether neighbour indices and weights were computed for kept
    points only (:func:`~repro.nn.grid_sample.multi_scale_neighbors_sparse`)."""

    sparse_query: bool = False
    """Whether the query-side projections (attention / offset / output heads)
    ran row-compacted over the queries kept by query pruning."""

    sparse_ffn: bool = False
    """Whether the *inter-block* FFN/LayerNorm stage that consumed this
    block's output ran row-compacted over the FWP-kept pixels (block-sparse
    encoder, PR 4).  The attention block itself does not run that stage, so
    this flag is recorded by :class:`~repro.core.encoder_runner.
    DEFAEncoderRunner` after it executes the stage; it stays ``False`` for
    operator-level :class:`DEFAAttention` calls, for the first encoder block
    (no incoming mask), and whenever query pruning is off or the stage ran
    masked-dense."""

    @property
    def point_reduction(self) -> float:
        """Fraction of sampling points removed by PAP."""
        return 1.0 - self.points_kept / self.points_total if self.points_total else 0.0

    @property
    def pixel_reduction(self) -> float:
        """Fraction of fmap pixels removed by the FWP mask applied to this block."""
        return 1.0 - self.pixels_kept / self.pixels_total if self.pixels_total else 0.0

    @property
    def pixel_reduction_next(self) -> float:
        """Fraction of fmap pixels the generated mask removes for the next block."""
        return 1.0 - self.pixels_kept_next / self.pixels_total if self.pixels_total else 0.0

    @property
    def flops_reduction(self) -> float:
        """Fractional FLOP reduction of the prunable operators (Fig. 6b metric)."""
        return self.flops.reduction()


@dataclass
class DEFAAttentionOutput:
    """Result of one DEFA attention block."""

    output: np.ndarray
    """Block output of shape ``(N_q, D)``; in a planned record under
    row-compacted query pruning, the image's ``(K_q, D)`` kept query rows."""

    stats: DEFALayerStats
    """Pruning / FLOP statistics."""

    fmap_mask_next: np.ndarray
    """FWP keep-mask generated for the next block (length ``N_in``)."""

    point_mask: np.ndarray | None
    """PAP keep-mask, shape ``(N_q, N_h, N_l, N_p)``; ``None`` in a planned
    record (one that :meth:`DEFAAttention.forward_kept_rows` returns)."""

    attention_weights: np.ndarray | None
    """Attention probabilities after PAP (pruned entries zeroed); ``None`` in
    a planned record."""

    sampling_locations: np.ndarray | None
    """Normalized sampling locations after range narrowing; ``None`` in a
    planned record."""

    trace_executed: SamplingTrace | CompactSamplingTrace
    """The trace the kernels actually consumed: a full :class:`SamplingTrace`
    on the dense path, a :class:`CompactSamplingTrace` (kept points only) on
    the sparse path."""

    fwp: FWPResult
    pap: PAPResult | None
    """The image's PAP result; ``None`` in a planned record."""

    _materialized_trace: SamplingTrace | None = field(default=None, repr=False)
    """Cache of the on-demand full trace (sparse-path outputs only)."""

    @property
    def trace(self) -> SamplingTrace:
        """Full integer sampling trace (consumed by the hardware simulator).

        Dense-path outputs return the executed trace directly.  Sparse-path
        outputs executed on a compacted trace, so the full trace is
        materialized from the recorded sampling locations on first access
        (and cached).  Either way the rows of pruned points are valid
        neighbour data for their (possibly zero-offset) locations; consumers
        must pair them with :attr:`point_mask`, exactly as before.
        """
        if isinstance(self.trace_executed, SamplingTrace):
            return self.trace_executed
        if self.sampling_locations is None:
            raise ValueError(
                "a planned record carries no sampling locations to build the full "
                "trace from; run the block without a plan (collect_details=True)"
            )
        if self._materialized_trace is None:
            self._materialized_trace = multi_scale_neighbors(
                self.trace_executed.spatial_shapes, self.sampling_locations
            )
        return self._materialized_trace


@dataclass
class DEFAAttentionBatchOutput:
    """Result of one DEFA attention block executed on an image batch.

    The heavy tensor work (projections, fused MSGS + aggregation) runs once
    for the whole batch; the per-image record list carries the FWP/PAP masks,
    traces and :class:`DEFALayerStats` of every image, exactly as if the
    images had been processed one by one.
    """

    output: np.ndarray
    """Batched block output of shape ``(B, N_q, D)``; from
    :meth:`DEFAAttention.forward_kept_rows` under row-compacted query
    pruning, the ``(K_q, D)`` kept query rows.  Each record's ``output`` is
    its image's slice of it."""

    images: list[DEFAAttentionOutput]
    """Per-image detailed outputs (views into the batched tensors)."""

    @property
    def fmap_mask_next(self) -> np.ndarray:
        """Stacked per-image FWP keep-masks for the next block, ``(B, N_in)``."""
        return np.stack([image.fmap_mask_next for image in self.images], axis=0)


class DEFAAttention:
    """MSDeformAttn executed with the DEFA algorithm-level optimizations.

    Parameters
    ----------
    attn:
        The wrapped full-precision attention module (its weights are reused).
    config:
        The :class:`DEFAConfig` describing which techniques are enabled.
    options:
        :class:`~repro.kernels.ExecutionOptions` bundling the execution
        knobs: ``sparse_mode`` (one of :data:`SPARSE_MODES`; ``None`` means
        ``"auto"``) controls whether FWP/PAP masks are executed with the
        compacted gather/scatter kernels (actual wall-clock savings) or the
        masked-dense kernels (pruning simulated by zeroing) — both paths are
        equivalence-tested to 1e-5; ``kernel_backend`` names the kernel
        backend for the compact-trace kernels (``None`` follows the process
        default — resolved per call, so :func:`repro.kernels.set_backend`
        takes effect immediately; the backends are bit-identical).
        ``auto`` compares with :data:`~repro.kernels.DISPATCH_THRESHOLDS`.

    :meth:`forward_detailed` is the plan-less block (every detail record);
    :meth:`forward_kept_rows` is the planned block the fused / compiled
    encoder runner executes, in an :class:`~repro.kernels.ExecutionPlan`
    arena.

    The block executes batch-first: a single ``(N_q, D)`` image runs as a
    ``B = 1`` batch through the same code as any ``(B, N_q, D)`` batch.
    """

    def __init__(
        self,
        attn: MSDeformAttn,
        config: DEFAConfig,
        options: ExecutionOptions | None = None,
    ) -> None:
        options = normalize_execution_options(options, owner="DEFAAttention")
        self.attn = attn
        self.config = config
        self.sparse_mode = options.sparse_mode or "auto"
        self.kernel_backend = options.kernel_backend

        self.range_narrowing: RangeNarrowing | None = None
        if config.enable_range_narrowing:
            self.range_narrowing = RangeNarrowing(config.effective_ranges(attn.num_levels))
        self._value_proj = self._maybe_quantize(attn.value_proj)
        self._output_proj = self._maybe_quantize(attn.output_proj)
        self._sampling_offsets = self._maybe_quantize(attn.sampling_offsets)
        self._attention_weights = self._maybe_quantize(attn.attention_weights)

    def _maybe_quantize(self, linear: Linear) -> Linear | QuantizedLinear:
        if self.config.quant_bits is None:
            return linear
        return QuantizedLinear(linear, self.config.quant_bits)

    def _resolve_backend(self, backend=None):
        """Per-call > construction > process-default resolution."""
        return resolve_backend(backend if backend is not None else self.kernel_backend)

    @staticmethod
    def _project_batched(proj: Linear | QuantizedLinear, x: np.ndarray) -> np.ndarray:
        """Apply a projection to a batch, keeping quantization per-image.

        Dynamic activation quantization derives its scale from the array being
        quantized, so a quantized projection must not see the whole batch as
        one array — that would couple the images through a shared scale.
        """
        if isinstance(proj, QuantizedLinear):
            return proj.forward_batched(x)
        return proj(x)

    # ------------------------------------------------------------ sparse path

    def _use_sparse_projection(
        self, fmap_mask: np.ndarray | None, tokens_per_image: int
    ) -> bool:
        """Whether the value projection runs on compacted (kept-pixel) rows."""
        t = DISPATCH_THRESHOLDS
        return use_sparse_rows(
            fmap_mask, tokens_per_image, t.pixel_keep_max, t.min_tokens, self.sparse_mode
        )

    def _use_sparse_query(
        self, query_keep: np.ndarray | None, queries_per_image: int
    ) -> bool:
        """Whether the query-side projections run on compacted (kept-query) rows."""
        t = DISPATCH_THRESHOLDS
        return use_sparse_rows(
            query_keep, queries_per_image, t.query_keep_max, t.min_queries, self.sparse_mode
        )

    @staticmethod
    def _project_rows_batched(
        proj: Linear | QuantizedLinear, x: np.ndarray, flat_rows: np.ndarray
    ) -> np.ndarray:
        """Project selected rows of a ``(B, N, D)`` batch; quantized
        projections keep the per-image dynamic scales of the full batch."""
        if isinstance(proj, QuantizedLinear):
            return proj.forward_rows_batched(x, flat_rows)
        return proj(x.reshape(-1, x.shape[-1])[flat_rows])

    @staticmethod
    def _projection_bias(proj: Linear | QuantizedLinear) -> np.ndarray:
        """The additive bias of a (possibly quantized) projection.

        Skipped rows of a row-compacted projection receive exactly this value:
        a zero input row projects to the bias on both paths (zero quantizes to
        zero under symmetric fake quantization).
        """
        return proj.inner.bias if isinstance(proj, QuantizedLinear) else proj.bias

    @staticmethod
    def _fold_query_mask(
        row_pap: PAPResult,
        points_shape: tuple[int, ...],
        query_keep: np.ndarray | None,
        kept_q: np.ndarray | None,
    ) -> PAPResult:
        """Combine a PAP result with the query keep-mask of query pruning
        (the plan-less path).

        Returns a :class:`PAPResult` over the full ``points_shape`` grid with
        pruned queries' points masked out and their attention weights zeroed.
        ``kept_q`` non-``None`` means *row_pap* was computed on the compacted
        kept rows (sparse query path) and is scattered back; otherwise it
        covers the full grid (dense path) and the pruned rows are zeroed.
        Either way the resulting masks, weights and counts are identical, so
        the two paths stay equivalent.
        """
        if query_keep is None:
            return row_pap
        if kept_q is not None:
            point_mask = np.zeros(points_shape, dtype=bool)
            weights = np.zeros(points_shape, dtype=FLOAT_DTYPE)
            point_mask[kept_q] = row_pap.point_mask
            weights[kept_q] = row_pap.attention_weights
        else:
            keep_rows = query_keep.reshape(query_keep.size, 1, 1, 1)
            point_mask = row_pap.point_mask & keep_rows
            weights = (row_pap.attention_weights * keep_rows).astype(FLOAT_DTYPE)
        return PAPResult(
            point_mask=point_mask,
            attention_weights=weights,
            threshold=row_pap.threshold,
        )

    def _planned_point_mask(self, probs: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
        """The PAP keep-mask of *probs* in the ``pap.mask`` arena buffer.

        The planned path keeps the raw probabilities next to it: every
        kernel reads a probability only where the mask keeps the point (the
        compact kernels gather kept entries, the dense one multiplies by the
        mask), and there the raw value is the PAP-pruned one.
        """
        mask = plan.buffer("pap.mask", probs.shape, bool)
        if not self.config.enable_pap:
            mask.fill(True)
            return mask
        return point_keep_mask(probs, self.config.pap_threshold, out=mask)

    def _fwp_masks(
        self,
        trace,
        sparse_gather: bool,
        point_masks: np.ndarray | None,
        spatial_shapes: list[LevelShape],
        batch: int,
    ) -> list[FWPResult]:
        """Step 4's frequency counting and per-image FWP mask generation."""
        with kernel_section("fwp"):
            if not self.config.enable_fwp:
                n_in = total_pixels(spatial_shapes)
                return [
                    FWPResult(
                        fmap_mask=np.ones(n_in, dtype=bool),
                        thresholds=np.zeros(len(spatial_shapes)),
                    )
                    for _ in range(batch)
                ]
            if sparse_gather:
                frequency = sampled_frequency_compact(trace)
            else:
                frequency = sampled_frequency(trace, point_mask=point_masks)
            return compute_fmap_mask(frequency, spatial_shapes, self.config.fwp_k)

    def _layer_stats(
        self,
        n_q: int,
        n_in: int,
        points_kept: int,
        mask_b: np.ndarray | None,
        fwp: FWPResult,
        sparse_projection: bool,
        sparse_gather: bool,
        sparse_query: bool,
    ) -> DEFALayerStats:
        """One image's :class:`DEFALayerStats`."""
        attn = self.attn
        pixels_kept = int(np.count_nonzero(mask_b)) if mask_b is not None else n_in
        return DEFALayerStats(
            num_queries=n_q,
            num_tokens=n_in,
            points_total=n_q * attn.num_heads * attn.num_levels * attn.num_points,
            points_kept=points_kept,
            pixels_total=n_in,
            pixels_kept=pixels_kept,
            pixels_kept_next=fwp.num_kept,
            flops=msdeform_attn_flops(
                d_model=attn.d_model,
                num_heads=attn.num_heads,
                num_levels=attn.num_levels,
                num_points=attn.num_points,
                num_queries=n_q,
                num_tokens=n_in,
                points_kept=points_kept,
                pixels_kept=pixels_kept,
            ),
            mask_applied=mask_b is not None,
            sparse_projection=sparse_projection,
            sparse_gather=sparse_gather,
            sparse_query=sparse_query,
        )

    def _project_values_batched(
        self,
        value_input: np.ndarray,
        fmap_mask: np.ndarray | None,
        plan: ExecutionPlan | None = None,
        backend=None,
    ) -> tuple[np.ndarray, bool]:
        """Value projection ``V = X W^V`` of a ``(B, N_in, D)`` batch under
        per-image FWP masks.

        Returns the ``(B, N_in, N_h, D_h)`` value tensor (pruned rows zero)
        and whether the compacted path ran.  The compacted path concatenates
        the kept rows of every image into one ``(sum_b N_kept_b, D)`` matmul
        (per-image quantization scales are preserved by
        :meth:`QuantizedLinear.forward_rows_batched`, so both paths quantize
        identically) and scatters the outputs back into the zero-initialised
        batch tensor.  With a ``plan`` the projection and the value tensor
        live in reused arena buffers (bit-identical values).
        """
        attn = self.attn
        batch, n_in = value_input.shape[0], value_input.shape[1]
        proj = self._value_proj
        if not self._use_sparse_projection(fmap_mask, n_in):
            if plan is not None:
                value = project_into(
                    (proj,), value_input, plan, ("value_proj",), backend=backend
                )[0].reshape(batch, n_in, attn.num_heads, attn.d_head)
                if fmap_mask is not None and not fmap_mask.all():
                    value[~fmap_mask] = 0  # plan buffer: zero in place, no copy
                return value, False
            value = self._project_batched(proj, value_input).reshape(
                batch, n_in, attn.num_heads, attn.d_head
            )
            if fmap_mask is not None and not fmap_mask.all():
                value = value.copy()
                value[~fmap_mask] = 0
            return value, False
        kept = np.flatnonzero(fmap_mask.reshape(-1))
        if plan is not None:
            value = plan.zeros("value", (batch * n_in, attn.d_model))
            if kept.size:
                value[kept] = project_into(
                    (proj,), value_input, plan, ("value_proj",), rows=kept, backend=backend
                )[0]
            return value.reshape(batch, n_in, attn.num_heads, attn.d_head), True
        value = np.zeros((batch * n_in, attn.d_model), dtype=FLOAT_DTYPE)
        if kept.size:
            value[kept] = self._project_rows_batched(proj, value_input, kept)
        return value.reshape(batch, n_in, attn.num_heads, attn.d_head), True

    # ---------------------------------------------------------------- forward

    def forward_detailed(
        self,
        query: np.ndarray,
        reference_points: np.ndarray,
        value_input: np.ndarray,
        spatial_shapes: list[LevelShape],
        fmap_mask: np.ndarray | None = None,
        options: ExecutionOptions | None = None,
    ) -> DEFAAttentionOutput | DEFAAttentionBatchOutput:
        """Run one DEFA attention block without an execution plan.

        This is the plan-less oracle and the details path: every record
        carries its ``point_mask``, ``attention_weights``,
        ``sampling_locations`` and ``pap``, and nothing returned aliases an
        arena.  The reference runner, ``collect_details=True`` and the
        detail consumers (the hardware simulator, the figures) run here; the
        planned block of the fused / compiled runner is
        :meth:`forward_kept_rows`, pinned bitwise against this one.

        Parameters
        ----------
        query:
            ``(N_q, D)`` query features (content + positional embedding), or
            a same-shape batch ``(B, N_q, D)``.
        reference_points:
            ``(N_q, N_l, 2)`` normalized reference points (shared across a
            batch; ``(B, N_q, N_l, 2)`` per-image points also accepted).
        value_input:
            ``(N_in, D)`` flattened multi-scale feature maps, or ``(B, N_in,
            D)`` for a batch.
        spatial_shapes:
            Pyramid level shapes.
        fmap_mask:
            FWP keep-mask produced by the *previous* block (``None`` for the
            first block — all pixels are kept by convention and the returned
            stats report ``pixels_kept == pixels_total`` with
            ``mask_applied=False``, even when ``enable_fwp=True``).  For a
            batch, a ``(B, N_in)`` array of per-image masks.  Integer masks
            are normalized to boolean once, here at the pipeline boundary
            (non-zero means *keep*); every downstream stage sees ``bool``.
        options:
            Per-call :class:`~repro.kernels.ExecutionOptions`.  Only
            ``kernel_backend`` is meaningful per call (``None`` follows the
            block's construction options and then the process default; the
            backends are bit-identical) — ``sparse_mode`` is fixed at
            construction, so a non-``None`` value here is an error.

        A single ``(N_q, D)`` image runs as a ``B = 1`` batch (its mask, if
        any, as ``(1, N_in)``) and returns that batch's only per-image record,
        a :class:`DEFAAttentionOutput`; a ``(B, N_q, D)`` batch returns a
        :class:`DEFAAttentionBatchOutput` whose per-image records match
        running each image alone.
        """
        options = normalize_execution_options(
            options, owner="DEFAAttention.forward_detailed"
        )
        if options.sparse_mode is not None:
            raise ValueError(
                "sparse_mode is a per-block property fixed at construction; "
                "set it when constructing the DEFAAttention, not per call"
            )
        query = np.asarray(query, dtype=FLOAT_DTYPE)
        value_input = np.asarray(value_input, dtype=FLOAT_DTYPE)
        single = query.ndim == 2
        if single:
            query, value_input = query[None], value_input[None]
            if fmap_mask is not None:
                fmap_mask = np.asarray(fmap_mask)[None]
        attn = self.attn
        backend = self._resolve_backend(options.kernel_backend)
        if value_input.ndim != 3 or value_input.shape[0] != query.shape[0]:
            raise ValueError("value_input must be (B, N_in, D) with the query's batch size")
        batch, n_q = query.shape[0], query.shape[1]
        n_in = value_input.shape[1]
        if n_in != total_pixels(spatial_shapes):
            raise ValueError("value_input length does not match spatial_shapes")
        if fmap_mask is not None:
            fmap_mask = normalize_mask(fmap_mask)  # once, at the boundary
            if fmap_mask.shape != (batch, n_in):
                raise ValueError("fmap_mask must have shape (N_in,), or (B, N_in) for a batch")

        # Query pruning (sparse execution v2): when enabled and the query set
        # is the pixel set (encoder self-attention), pixels pruned by the
        # incoming FWP mask stop acting as queries — every point of a pruned
        # query is pruned and its block output is the output-projection bias.
        # The dense path computes the projections for every query and zeroes
        # the pruned rows; the sparse path skips them with one row-compacted
        # projection across the whole batch (per-image dynamic quantization
        # scales preserved by QuantizedLinear.forward_rows_batched).
        prune_queries = (
            self.config.enable_query_pruning and fmap_mask is not None and n_q == n_in
        )
        query_keep = fmap_mask if prune_queries else None  # (B, N_q)
        sparse_query = prune_queries and self._use_sparse_query(query_keep, n_q)
        kept_q = np.flatnonzero(query_keep.reshape(-1)) if sparse_query else None

        # Step 1: attention probabilities (batched) + PAP masks.  PAP is a
        # per-(query, head) operation, so folding the batch axis into the
        # query axis gives per-image-identical masks from one vectorized call
        # (the row-compacted path folds the kept rows of every image the
        # same way).
        grid_shape = (batch * n_q, attn.num_heads, attn.num_levels, attn.num_points)
        with kernel_section("query_proj"):
            # Both query-side heads (the sampling offsets are used in step 2)
            # read the same query rows.
            heads = (self._attention_weights, self._sampling_offsets)
            if sparse_query:
                logits, offsets_proj = (
                    self._project_rows_batched(head, query, kept_q) for head in heads
                )
            else:
                logits, offsets_proj = (self._project_batched(head, query) for head in heads)
            logits = logits.reshape(-1, attn.num_heads, attn.num_levels * attn.num_points)
        probs = softmax(logits, axis=-1).reshape(
            logits.shape[0], attn.num_heads, attn.num_levels, attn.num_points
        )
        if self.config.enable_pap:
            row_pap = compute_point_mask(probs, threshold=self.config.pap_threshold)
        else:
            row_pap = PAPResult(
                point_mask=np.ones_like(probs, dtype=bool),
                attention_weights=probs,
                threshold=0.0,
            )
        pap_all = self._fold_query_mask(
            row_pap,
            grid_shape,
            None if query_keep is None else query_keep.reshape(-1),
            kept_q,
        )
        point_masks = pap_all.point_mask.reshape((batch, n_q) + grid_shape[1:])
        attn_weights = pap_all.attention_weights.reshape(point_masks.shape)
        paps = [
            PAPResult(
                point_mask=point_masks[b],
                attention_weights=attn_weights[b],
                threshold=pap_all.threshold,
            )
            for b in range(batch)
        ]

        # Step 2: sampling offsets + range narrowing (batched clamp).
        offsets_shape = (batch, n_q) + grid_shape[1:] + (2,)
        with kernel_section("query_proj"):
            if sparse_query:
                offsets = np.zeros(grid_shape + (2,), dtype=FLOAT_DTYPE)
                offsets[kept_q] = offsets_proj.reshape((kept_q.size,) + grid_shape[1:] + (2,))
                offsets = offsets.reshape(offsets_shape)
            else:
                offsets = offsets_proj.reshape(offsets_shape)
                if query_keep is not None:
                    # Dense path under query pruning: zero the pruned rows (in
                    # place — the projection is a fresh array) so both paths
                    # record identical offsets.
                    offsets *= query_keep[:, :, None, None, None, None]
        if self.range_narrowing is not None:
            offsets = self.range_narrowing.clamp_offsets(offsets)
        locations = attn.compute_sampling_locations(reference_points, offsets, spatial_shapes)

        # Step 3: value projection with the per-image FWP masks (compacted
        # across the batch when the sparse path is active).
        with kernel_section("value_proj"):
            value, sparse_projection = self._project_values_batched(
                value_input, fmap_mask, backend=backend
            )

        # Step 4: fused MSGS + aggregation over the whole batch, then
        # vectorized frequency counting and per-image FWP mask generation.
        # The sparse path builds the compacted trace (neighbour math for the
        # kept points of all images in one pass) and feeds both the kernel
        # and the frequency counter from it.
        effective_masks = (
            point_masks if (self.config.enable_pap or prune_queries) else None
        )
        sparse_gather = use_sparse_gather(
            effective_masks,
            point_masks[0].size * 4,  # per-image slots: keep batched == single
            DISPATCH_THRESHOLDS.point_keep_max,
            DISPATCH_THRESHOLDS.min_slots,
            self.sparse_mode,
        )
        if sparse_gather:
            with kernel_section("neighbors"):
                trace = multi_scale_neighbors_sparse(
                    spatial_shapes, locations, point_mask=effective_masks
                )
            head_outputs = ms_deform_attn_from_compact_trace(
                value, trace, attn_weights, backend=backend
            )
        else:
            with kernel_section("neighbors"):
                trace = multi_scale_neighbors(spatial_shapes, locations)
            head_outputs = ms_deform_attn_from_trace(
                value, trace, attn_weights, point_mask=point_masks
            )
        fwps = self._fwp_masks(trace, sparse_gather, point_masks, spatial_shapes, batch)

        # Step 5: output projection (batched; row-compacted under query
        # pruning — pruned queries' rows equal the projection bias).
        with kernel_section("output_proj"):
            heads_in = head_outputs.reshape(batch, n_q, attn.d_model)
            if sparse_query:
                output = np.zeros((batch * n_q, attn.d_model), dtype=FLOAT_DTYPE)
                output += self._projection_bias(self._output_proj)
                output[kept_q] = self._project_rows_batched(
                    self._output_proj, heads_in, kept_q
                )
                output = output.reshape(batch, n_q, attn.d_model)
            else:
                output = self._project_batched(self._output_proj, heads_in)

        image_traces = trace.images()
        images: list[DEFAAttentionOutput] = []
        for b in range(batch):
            stats = self._layer_stats(
                n_q,
                n_in,
                int(np.count_nonzero(point_masks[b])),
                fmap_mask[b] if fmap_mask is not None else None,
                fwps[b],
                sparse_projection,
                sparse_gather,
                sparse_query,
            )
            images.append(
                DEFAAttentionOutput(
                    output=output[b],
                    stats=stats,
                    fmap_mask_next=fwps[b].fmap_mask,
                    point_mask=point_masks[b],
                    attention_weights=attn_weights[b],
                    sampling_locations=locations[b],
                    trace_executed=image_traces[b],
                    fwp=fwps[b],
                    pap=paps[b],
                )
            )
        if single:
            return images[0]
        return DEFAAttentionBatchOutput(output=output, images=images)

    def forward_kept_rows(
        self,
        query: np.ndarray,
        kept_q: np.ndarray | None,
        reference_points: np.ndarray,
        value_input: np.ndarray,
        spatial_shapes: list[LevelShape],
        fmap_mask: np.ndarray | None,
        backend,
        plan: ExecutionPlan,
    ) -> DEFAAttentionBatchOutput:
        """The planned block: every fused / compiled encoder block runs here.

        It computes what :meth:`forward_detailed` computes, bit for bit (the
        same ufuncs on the same values in the same order, and matmuls over
        the same row counts), with every large intermediate in ``plan``'s
        arena buffers.  The queries are the pixels (``N_q = N_in``, encoder
        self-attention); ``value_input`` is the ``(B, N_in, D)`` batch,
        ``fmap_mask`` its boolean ``(B, N_in)`` incoming FWP mask or
        ``None`` (the caller normalizes and shape-checks it) and ``backend``
        a resolved backend.  ``query`` comes in one of two forms:

        * ``kept_q`` given (row-compacted query pruning): the sorted flat
          indices of ``fmap_mask``'s kept pixels on the ``(B * N_q)`` axis,
          and ``query`` their ``(K_q, D)`` rows.  The block stays in
          kept-query space: the PAP mask, the probabilities, the offsets and
          the sampling locations are ``(K_q, N_h, N_l, N_p[, 2])`` arrays,
          the compact trace is built from those rows (``kept`` in full point
          space as always), only a dense-gather dispatch expands them into
          full grids, and ``output`` is the ``(K_q, D)`` output projection of
          the kept rows.  Quantized projections scale each row by the
          ``max|query|`` of its image's kept rows, which equals the full
          query's when its pruned rows are zero, as the runner's are;
        * ``kept_q=None``: every query row, ``query`` the full ``(B, N_q,
          D)`` query and ``output`` ``(B, N_q, D)``.  Under query pruning
          (``enable_query_pruning`` and a mask) this is the masked-dense
          dispatch: the pruned rows' offsets are zeroed and the keep mask is
          ANDed into the PAP mask.  Every array is a view of the full grid:
          nothing is gathered or scattered.

        Each record's ``output`` is its image's slice of ``output``.  The
        returned arrays are arena buffers, valid until the plan's next
        forward.  Records carry no ``point_mask``, ``attention_weights``,
        ``sampling_locations`` or ``pap`` (all ``None``): the planned block
        never builds those per-image grids, and the runner reads none of
        them; detail consumers run :meth:`forward_detailed`.
        """
        attn = self.attn
        batch, n_in = value_input.shape[:2]
        if n_in != total_pixels(spatial_shapes):
            raise ValueError("value_input length does not match spatial_shapes")
        n_q = n_in
        n_h, n_l, n_p = attn.num_heads, attn.num_levels, attn.num_points
        points_per_image = n_q * n_h * n_l * n_p
        image_starts = np.arange(batch + 1, dtype=np.int64) * n_q
        quantized = self.config.quant_bits is not None
        prune_queries = self.config.enable_query_pruning and fmap_mask is not None
        if kept_q is None:
            # Every row: project_into takes each image's scale from the
            # (B, N_q, D) query, and the pruned queries are masked below.
            bounds, rows_shape, row_max_abs = image_starts, (batch, n_q), None
            query_keep = fmap_mask if prune_queries else None
        else:
            bounds = np.searchsorted(kept_q, image_starts)
            rows_shape, query_keep = (kept_q.size,), None
            row_max_abs = image_row_max_abs(query, bounds) if quantized else None

        # Step 1: attention probabilities and PAP masks of the query rows.
        with kernel_section("query_proj"):
            heads = (self._attention_weights, self._sampling_offsets)
            logits, offsets = project_into(
                heads, query, plan, ("attn_logits", "offsets"),
                backend=backend, row_max_abs=row_max_abs,
            )
        probs = _softmax_inplace(logits.reshape(-1, n_h, n_l * n_p), plan)
        probs = probs.reshape(-1, n_h, n_l, n_p)
        point_mask = self._planned_point_mask(probs, plan)
        if query_keep is not None:
            np.logical_and(point_mask, query_keep.reshape(-1, 1, 1, 1), out=point_mask)
        slices = list(zip(bounds[:-1], bounds[1:]))  # each image's rows
        points_kept = [int(np.count_nonzero(point_mask[lo:hi])) for lo, hi in slices]

        # Step 2: offsets, range narrowing and sampling locations, in place.
        offsets = offsets.reshape(rows_shape + (n_h, n_l, n_p, 2))
        if query_keep is not None:
            offsets *= query_keep[:, :, None, None, None, None]
        if self.range_narrowing is not None:
            self.range_narrowing.clamp_offsets_inplace(offsets)
        ref_rows = reference_points
        if kept_q is not None:
            ref = np.asarray(reference_points, dtype=FLOAT_DTYPE)
            ref_rows = ref.reshape(-1, n_l, 2)[kept_q if ref.ndim == 4 else kept_q % n_q]
        locations = attn.compute_sampling_locations(
            ref_rows, offsets, spatial_shapes, out=offsets
        )

        # Step 3: value projection.
        with kernel_section("value_proj"):
            value, sparse_projection = self._project_values_batched(
                value_input, fmap_mask, plan, backend=backend
            )

        # Step 4: MSGS + aggregation, then the FWP masks.
        masked = self.config.enable_pap or prune_queries
        sparse_gather = sparse_gather_rule(
            np.asarray(points_kept) if masked else None,
            points_per_image,
            points_per_image * 4,
            DISPATCH_THRESHOLDS.point_keep_max,
            DISPATCH_THRESHOLDS.min_slots,
            self.sparse_mode,
        )
        grid = (batch, n_q, n_h, n_l, n_p)
        full_mask = None
        if sparse_gather:
            with kernel_section("neighbors"):
                trace, row_kept = multi_scale_neighbors_rows(
                    spatial_shapes, locations, point_mask, kept_q, batch, n_q, plan
                )
            attn_flat = plan.take("msgs.attn", probs.reshape(-1), row_kept)
            head_outputs = backend.compact_gather_aggregate(
                value.reshape(-1, attn.d_head), trace, attn_flat, n_in, plan=plan
            )
        else:
            # The dense kernel reads full grids; a pruned query keeps no
            # point, so its zero rows contribute nothing.
            if kept_q is None:
                full_mask = point_mask.reshape(grid)
                full_probs = probs.reshape(grid)
                full_locations = locations.reshape(grid + (2,))
            else:
                full_mask = plan.zeros("fold.mask", grid, bool)
                full_probs = plan.zeros("fold.weights", grid)
                full_locations = plan.zeros("fold.locations", grid + (2,))
                for full, rows in (
                    (full_mask, point_mask), (full_probs, probs), (full_locations, locations)
                ):
                    full.reshape((batch * n_q,) + full.shape[2:])[kept_q] = rows
            with kernel_section("neighbors"):
                trace = multi_scale_neighbors(spatial_shapes, full_locations)
            head_outputs = ms_deform_attn_from_trace(
                value, trace, full_probs, point_mask=full_mask
            )
        fwps = self._fwp_masks(trace, sparse_gather, full_mask, spatial_shapes, batch)

        # Step 5: output projection of the query rows.
        with kernel_section("output_proj"):
            if kept_q is None:
                heads_in = head_outputs.reshape(batch, n_q, attn.d_model)
                heads_max_abs = None
            else:
                heads_in = plan.take(
                    "proj.rows", head_outputs.reshape(batch * n_q, attn.d_model), kept_q
                )
                heads_max_abs = image_row_max_abs(heads_in, bounds) if quantized else None
            (output,) = project_into(
                (self._output_proj,), heads_in, plan, ("output",), backend=backend,
                row_max_abs=heads_max_abs,
            )

        image_traces = trace.images()
        output_rows = output.reshape(-1, attn.d_model)
        records = []
        for b, (lo, hi) in enumerate(slices):
            stats = self._layer_stats(
                n_q, n_in, points_kept[b], None if fmap_mask is None else fmap_mask[b],
                fwps[b], sparse_projection, sparse_gather, kept_q is not None,
            )
            records.append(
                DEFAAttentionOutput(
                    output=output_rows[lo:hi],
                    stats=stats,
                    fmap_mask_next=fwps[b].fmap_mask,
                    point_mask=None,
                    attention_weights=None,
                    sampling_locations=None,
                    trace_executed=image_traces[b],
                    fwp=fwps[b],
                    pap=None,
                )
            )
        return DEFAAttentionBatchOutput(output=output, images=records)


def _softmax_inplace(logits: np.ndarray, plan: ExecutionPlan) -> np.ndarray:
    """Softmax over the last axis of a logits arena buffer, in place.

    The subtract / exp / divide chain of :func:`repro.nn.tensor_utils.
    softmax`, bit-identically.  The row maximum is a running ``np.maximum``
    over the columns of the short last axis instead of a reduction over
    every 16-wide row: max is exact, so both give the same value (up to the
    sign of a zero maximum, which ``x - max`` carries only into the sign of
    a zero, and ``exp`` maps either zero to 1).  The row sums are reduced
    before the divide overwrites them.
    """
    peak = plan.buffer("softmax.peak", logits.shape[:-1] + (1,))
    column = peak[..., 0]
    np.copyto(column, logits[..., 0])
    for j in range(1, logits.shape[-1]):
        np.maximum(column, logits[..., j], out=column)
    np.subtract(logits, peak, out=logits)
    np.exp(logits, out=logits)
    np.divide(logits, np.sum(logits, axis=-1, keepdims=True), out=logits)
    return logits
