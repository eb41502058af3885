"""Run a deformable encoder with the DEFA algorithm applied to every block.

FWP operates *across* MSDeformAttn blocks: the fmap mask generated while
sampling in block *i* prunes the value projection and memory accesses of
block *i+1*.  :class:`DEFAEncoderRunner` wires that propagation through a
:class:`~repro.nn.encoder.DeformableEncoder`.

With :attr:`DEFAConfig.enable_query_pruning` off (the paper's values-only FWP
semantics), each layer's LayerNorms and FFN run dense and unchanged — DEFA
only touches the attention block.  With query pruning on, the runner extends
the pruning to the whole encoder block (block-sparse encoder, PR 4): a pixel
pruned by the incoming FWP mask skips the residual adds, ``norm1``, the FFN
and ``norm2`` as well, and its row leaves the block *frozen at the block
input* (the frozen-value convention — see
:meth:`~repro.nn.encoder.DeformableEncoderLayer.forward_ffn_stage`).  The
stage executes row-compacted when the ``sparse_mode``/auto-threshold dispatch
selects it (wall-clock savings tracking the pixel keep ratio) and
masked-dense otherwise, with identical semantics either way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DEFAConfig
from repro.core.flops import FlopsBreakdown
from repro.core.fwp import normalize_mask
from repro.core.pipeline import (
    SPARSE_MODES,
    DEFAAttention,
    DEFAAttentionOutput,
    DEFALayerStats,
    use_sparse_rows,
)
from repro.kernels import (
    ExecutionOptions,
    ExecutionPlan,
    normalize_execution_options,
    resolve_backend,
    resolve_profile,
)
from repro.kernels.plan import thread_plan
from repro.nn.encoder import DeformableEncoder
from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.shapes import LevelShape


def arena_counters(plans) -> dict[str, int]:
    """``plans`` / ``hits`` / ``grows`` / ``bytes`` over the distinct plans of
    *plans*: a plan that several runners share counts once."""
    distinct = {id(plan): plan for plan in plans}.values()
    return {
        "plans": len(distinct),
        "hits": sum(p.hits for p in distinct),
        "grows": sum(p.grows for p in distinct),
        "bytes": sum(p.allocated_bytes for p in distinct),
    }


@dataclass
class DEFAEncoderResult:
    """Result of running an encoder under the DEFA algorithm."""

    memory: np.ndarray
    """Final encoder output of shape ``(N_in, D)``."""

    layer_stats: list[DEFALayerStats] = field(default_factory=list)
    """Per-layer pruning statistics."""

    layer_outputs: list[DEFAAttentionOutput] = field(default_factory=list)
    """Full per-layer attention outputs (present when ``collect_details=True``)."""

    fmap_masks: list[np.ndarray] = field(default_factory=list)
    """FWP keep-mask *generated* by each block (block *i*'s entry is the mask
    applied to block *i+1*).  Always collected — masks are ``N_in`` bools per
    block, cheap next to the tensors — so callers can compare the prune
    trajectories of two runs exactly without paying for
    ``collect_details=True``."""

    @property
    def mean_point_reduction(self) -> float:
        """Average PAP sampling-point reduction over all blocks."""
        if not self.layer_stats:
            return 0.0
        return float(np.mean([s.point_reduction for s in self.layer_stats]))

    @property
    def mean_pixel_reduction(self) -> float:
        """Average FWP fmap-pixel reduction over the blocks that receive a mask.

        The first block never has an incoming mask, so the average is taken
        over blocks 2..L (the paper's 43 % figure refers to the pruned fmap
        accesses of masked blocks).
        """
        masked = [s.pixel_reduction for s in self.layer_stats[1:]]
        if not masked:
            return 0.0
        return float(np.mean(masked))

    @property
    def mean_flops_reduction(self) -> float:
        """Average FLOP reduction of the prunable operators over all blocks."""
        if not self.layer_stats:
            return 0.0
        merged = FlopsBreakdown()
        for stats in self.layer_stats:
            merged = merged.merged_with(stats.flops)
        return merged.reduction()


@dataclass
class DEFAEncoderBatchResult:
    """Result of running an encoder under DEFA on an image batch."""

    memory: np.ndarray
    """Final encoder output of shape ``(B, N_in, D)``."""

    images: list[DEFAEncoderResult] = field(default_factory=list)
    """Per-image results (stats and, optionally, detailed layer outputs)."""


class DEFAEncoderRunner:
    """Execute a deformable encoder with DEFA applied to each attention block.

    One block loop serves batches and single images: a single ``(N_in, D)``
    image runs as a ``B = 1`` batch (see :meth:`forward`).

    Parameters
    ----------
    encoder:
        The full-precision encoder whose weights are reused.
    config:
        DEFA algorithm configuration.
    options:
        :class:`~repro.kernels.ExecutionOptions` bundling the execution
        knobs.

        ``sparse_mode`` is the execution switch forwarded to every
        :class:`DEFAAttention` block (see :data:`repro.core.pipeline.
        SPARSE_MODES`; ``None`` means ``"auto"``): ``"auto"`` runs the
        compacted gather/scatter kernels whenever the FWP/PAP reduction
        ratio makes them profitable, ``"dense"``/``"sparse"`` force one
        path.  The same switch governs the inter-block FFN/LayerNorm stage
        under query pruning (thresholds
        :attr:`~repro.kernels.DispatchThresholds.ffn_keep_max` /
        :attr:`~repro.kernels.DispatchThresholds.ffn_min_tokens` in
        ``"auto"``).

        ``kernel_backend`` is the kernel-backend specification (name,
        backend object, or ``None`` to follow the process default; the
        runner's ``kernel_backend`` attribute stays settable, so a benchmark
        can flip one runner between backends).  ``"reference"`` reproduces
        the PR 4 execution exactly — no execution plans, per-block
        allocation, every block through :meth:`DEFAAttention.
        forward_detailed`; ``"fused"`` (and ``"compiled"``) runs every block
        through the planned :meth:`DEFAAttention.forward_kept_rows`: the
        bit-identical fused kernels, with every per-block intermediate
        allocated from a per-shape-signature :class:`ExecutionPlan` (see
        :meth:`execution_plan`), reused across blocks and across forwards of
        the same shape signature.  ``collect_details=True`` runs the
        plan-less blocks on any backend.

        ``machine_profile`` is resolved once here and forwarded to every
        block.
    """

    def __init__(
        self,
        encoder: DeformableEncoder,
        config: DEFAConfig,
        options: ExecutionOptions | None = None,
    ) -> None:
        options = normalize_execution_options(options, owner="DEFAEncoderRunner")
        self.encoder = encoder
        self.config = config
        self.enable_sparse_ffn = True
        """Escape hatch for benchmarking: ``False`` pins the FFN stage to the
        masked-dense execution even in ``"sparse"`` mode, which gives the
        cost profile of sparse attention with dense inter-block work under
        the *same* frozen-row semantics.  Numerics are unaffected."""
        self.kernel_backend = options.kernel_backend
        self.machine_profile = resolve_profile(options.machine_profile)
        """The host dispatch profile (PR 9) governing every ``auto``
        crossover threshold of this runner — the blocks' row dispatch, the
        inter-block query/FFN stages and the point-gather rule — resolved
        once at construction (``None`` followed the process-default active
        profile) and forwarded to every block."""
        # The plans this runner holds alive, by (thread id, key), least
        # recently used first (see execution_plan).
        self._plans: OrderedDict[tuple, ExecutionPlan] = OrderedDict()
        block_options = ExecutionOptions(
            sparse_mode=options.sparse_mode or "auto",
            machine_profile=self.machine_profile,
        )
        self.defa_layers = [
            DEFAAttention(layer.self_attn, config, block_options)
            for layer in encoder.layers
        ]

    @property
    def sparse_mode(self) -> str:
        return self.defa_layers[0].sparse_mode if self.defa_layers else "auto"

    @sparse_mode.setter
    def sparse_mode(self, mode: str) -> None:
        if mode not in SPARSE_MODES:
            raise ValueError(f"sparse_mode must be one of {SPARSE_MODES}, got {mode!r}")
        for layer in self.defa_layers:
            layer.sparse_mode = mode

    def resolved_backend(self):
        """The kernel backend this runner executes with (runner attribute >
        process default, resolved per call so :func:`repro.kernels.
        set_backend` takes effect immediately)."""
        return resolve_backend(self.kernel_backend)

    MAX_EXECUTION_PLANS = 8
    """LRU bound on the execution plans this runner keeps alive.  Each warm
    plan holds every large per-block buffer of its workload (tens of MB at
    paper scale), so a long-lived runner fed heterogeneous image sizes must
    not keep one arena per distinct signature forever — past this bound the
    runner drops its least-recently-used plan, which is freed unless another
    runner of the thread still holds it; a dropped signature simply re-warms
    on next use."""

    def execution_plan(
        self, spatial_shapes: list[LevelShape], batch_size: int
    ) -> ExecutionPlan:
        """The calling thread's buffer arena for one ``(shape-signature,
        batch-size)``.

        The plan comes from the thread's registry
        (:func:`repro.kernels.plan.thread_plan`), so every runner in the
        thread shares it; this runner holds it in its LRU of at most
        :data:`MAX_EXECUTION_PLANS` plans.  A signature change means a *new*
        plan (the invalidation rule), while repeated forwards — across
        blocks, batches and runners of the same signature — reuse the warm
        arena and perform no large allocations.  ``batch_size`` is at least
        1: a single-image forward runs as a ``B = 1`` batch and shares the
        ``B = 1`` arena.
        """
        key = (tuple(s.as_tuple() for s in spatial_shapes), batch_size)
        plan = thread_plan(key)
        held = (threading.get_ident(), key)
        self._plans[held] = plan
        self._plans.move_to_end(held)  # refresh recency (true LRU)
        while len(self._plans) > self.MAX_EXECUTION_PLANS:
            self._plans.popitem(last=False)
        return plan

    def plan_stats(self) -> dict[str, int | str]:
        """Arena accounting over the execution plans this runner holds.

        ``hits``/``grows`` follow :class:`~repro.kernels.ExecutionPlan`
        semantics (buffer reuses vs. (re)allocations); ``bytes`` is the total
        steady-state arena footprint.  A plan is shared by every runner of
        its thread, so its counters include the other runners' requests and
        two runners that share a plan both count its bytes.  The serving
        engine reports this per worker as evidence that the warm-arena
        regime survives across requests (hits keep climbing, grows plateau
        once the plans are warm).
        ``backend`` names the kernel backend the runner *actually* executes
        with right now — after registry fallback, so a worker that requested
        ``"compiled"`` on a host without the built extension reports
        ``"fused"`` here.  ``profile`` names the active dispatch profile
        (``"reference"`` unless a calibrated host profile was installed).
        """
        return {
            "backend": self.resolved_backend().name,
            "profile": self.machine_profile.name,
            **arena_counters(self._plans.values()),
        }

    def query_stage_plan(
        self, fmap_mask: np.ndarray | None, queries_per_image: int, backend
    ) -> tuple[np.ndarray | None, bool]:
        """``(keep_mask, compact)`` for the pre-attention ``query = x + pos`` add.

        Under query pruning the FWP-pruned pixels of the incoming mask never
        act as queries, so their positional add is dead work: the compact
        path computes ``x + pos`` only on the kept rows (zeros elsewhere —
        exactly what the row-compacted projections read), the masked-dense
        path computes the full add and zeroes the pruned rows.  Both produce
        bit-identical query arrays, and zeroed pruned rows are observation-
        equivalent to the PR 4 full add (every projection of a pruned row is
        already masked out downstream).  The compact/masked choice follows
        the same :func:`~repro.core.pipeline.use_sparse_rows` gate as the
        query-side projections inside the attention block, under the
        thresholds of the (resolved) ``backend`` the forward runs with.
        ``fmap_mask`` is boolean: :meth:`forward` normalizes each block's
        mask once.
        """
        if not self.config.enable_query_pruning or fmap_mask is None:
            return None, False
        t = self.machine_profile.thresholds_for(backend.name)
        compact = use_sparse_rows(
            fmap_mask, queries_per_image, t.query_keep_max, t.min_queries, self.sparse_mode
        )
        return fmap_mask, compact

    def _build_query(
        self,
        x: np.ndarray,
        pos: np.ndarray,
        keep_mask: np.ndarray | None,
        compact: bool,
        plan: ExecutionPlan | None,
    ) -> np.ndarray:
        """The full ``(B, N, D)`` query ``x + pos`` under the query-pruning
        mask (see :meth:`query_stage_plan`), pruned rows zero.  ``pos`` is
        shared ``(N, D)``; with a ``plan`` the query lives in a reused arena
        buffer.  ``compact`` is plan-less only: a planned compact query is
        built as rows by :meth:`_query_rows`."""
        if compact:
            kept = np.flatnonzero(keep_mask.reshape(-1))
            query = np.zeros_like(x)
            if kept.size:
                query.reshape(-1, x.shape[-1])[kept] = (
                    x.reshape(-1, x.shape[-1])[kept] + pos[kept % x.shape[1]]
                )
            return query
        query = np.add(x, pos, out=None if plan is None else plan.buffer("query", x.shape))
        if keep_mask is not None:
            query[~keep_mask] = 0
        return query

    @staticmethod
    def _query_rows(
        x: np.ndarray, pos: np.ndarray, kept: np.ndarray, plan: ExecutionPlan
    ) -> np.ndarray:
        """The kept query rows ``x[kept] + pos[kept % N]`` as one ``(K, D)``
        arena buffer: the query-side projections' input, written once."""
        rows = plan.take("query", x.reshape(-1, x.shape[-1]), kept)
        # proj.xq is dead until the projections quantize these rows.
        np.add(rows, plan.take("proj.xq", pos, kept % x.shape[1]), out=rows)
        return rows

    def ffn_stage_plan(
        self, fmap_mask: np.ndarray | None, tokens_per_image: int, backend
    ) -> tuple[np.ndarray | None, bool]:
        """``(keep_mask, compact)`` for the inter-block FFN/LayerNorm stage.

        Row pruning of the stage follows the same gate as query pruning in
        the attention block (the encoder is self-attention, so the query set
        *is* the pixel set): it requires ``enable_query_pruning`` and an
        incoming mask — the first block therefore always runs dense.  The
        compact/masked-dense execution choice then follows the shared
        :func:`~repro.core.pipeline.use_sparse_rows` rule under this runner's
        ``sparse_mode`` and the (resolved) ``backend``'s thresholds, unless
        :attr:`enable_sparse_ffn` pins it dense.  ``fmap_mask`` is boolean,
        as for :meth:`query_stage_plan`.
        """
        if not self.config.enable_query_pruning or fmap_mask is None:
            return None, False
        t = self.machine_profile.thresholds_for(backend.name)
        compact = self.enable_sparse_ffn and use_sparse_rows(
            fmap_mask, tokens_per_image, t.ffn_keep_max, t.ffn_min_tokens, self.sparse_mode
        )
        return fmap_mask, compact

    def forward(
        self,
        src: np.ndarray,
        pos: np.ndarray,
        reference_points: np.ndarray,
        spatial_shapes: list[LevelShape],
        collect_details: bool = False,
        fmap_masks: list[np.ndarray | None] | None = None,
    ) -> DEFAEncoderResult | DEFAEncoderBatchResult:
        """Run all encoder layers, propagating the FWP masks block to block.

        ``src`` is a batch ``(B, N_in, D)`` or a single image ``(N_in, D)``;
        ``pos`` and ``reference_points`` are shared across the batch (they
        only depend on the pyramid shapes).  A batch returns a
        :class:`DEFAEncoderBatchResult` whose per-image results equal
        running each image alone; a single image runs as a ``B = 1`` batch
        and returns that batch's :class:`DEFAEncoderResult`.
        ``collect_details`` keeps every block's attention outputs in the
        result (and runs without the execution-plan arena, since the
        details must outlive the forward).

        ``fmap_masks`` overrides the *incoming* FWP mask of every block
        (entry ``j`` feeds block ``j``: ``(N_in,)`` for a single image,
        ``(B, N_in)`` for a batch; ``None`` entries mean dense, matching the
        first-block convention), instead of the mask evolving from block
        ``i`` to block ``i+1``.  The masks each block *generates* are still
        recorded in the result.  A :class:`~repro.engine.streaming.
        StreamingEncoderSession` uses this to warm-start a frame from the
        previous frame's prune trajectory intersected with its
        temporally-dirty set.
        """
        x = np.asarray(src, dtype=FLOAT_DTYPE)
        single = x.ndim == 2
        if single:
            x = x[None]
            if fmap_masks is not None:
                fmap_masks = [None if m is None else np.asarray(m)[None] for m in fmap_masks]
        if x.ndim != 3:
            raise ValueError("src must have shape (N_in, D) or (B, N_in, D)")
        if fmap_masks is not None and len(fmap_masks) != len(self.encoder.layers):
            raise ValueError(
                f"fmap_masks must have one entry per encoder layer "
                f"({len(self.encoder.layers)}), got {len(fmap_masks)}"
            )
        batch, n_in = x.shape[0], x.shape[1]
        pos = np.asarray(pos, dtype=FLOAT_DTYPE)
        # Resolved once per forward: every block and both inter-block stage
        # plans run with (and look up thresholds for) this one backend.
        backend = self.resolved_backend()
        # collect_details hands the per-block outputs to the caller, so they
        # must not live in arena buffers that the next block overwrites: a
        # planned forward runs DEFAAttention.forward_kept_rows, a plan-less
        # one forward_detailed.
        plan = (
            self.execution_plan(spatial_shapes, batch)
            if backend.fused and not collect_details
            else None
        )
        fmap_mask: np.ndarray | None = None
        per_image_stats: list[list[DEFALayerStats]] = [[] for _ in range(batch)]
        per_image_outputs: list[list[DEFAAttentionOutput]] = [[] for _ in range(batch)]
        per_image_masks: list[list[np.ndarray]] = [[] for _ in range(batch)]

        call_options = ExecutionOptions(kernel_backend=backend)
        for index, (layer, defa_attn) in enumerate(
            zip(self.encoder.layers, self.defa_layers)
        ):
            if fmap_masks is not None:
                fmap_mask = fmap_masks[index]
            if fmap_mask is not None:
                fmap_mask = normalize_mask(fmap_mask)  # boundary: accept int masks
                if fmap_mask.shape != (batch, n_in):
                    raise ValueError("fmap_mask must have shape (N_in,), or (B, N_in) for a batch")
            # Pre-attention query add, skipped for FWP-pruned pixels under
            # query pruning (their rows never act as queries).
            q_keep, q_compact = self.query_stage_plan(fmap_mask, n_in, backend)
            if plan is None:
                attn_out = defa_attn.forward_detailed(
                    self._build_query(x, pos, q_keep, q_compact, None),
                    reference_points,
                    x,
                    spatial_shapes,
                    fmap_mask=fmap_mask,
                    options=call_options,
                )
            else:
                # A row-compact block stays in kept-query space from the
                # query add to the FFN stage, which receives the output rows
                # as they are; any other block runs every row, in place.
                if q_compact:
                    kept = np.flatnonzero(q_keep.reshape(-1))
                    query = self._query_rows(x, pos, kept, plan)
                else:
                    kept, query = None, self._build_query(x, pos, q_keep, False, plan)
                attn_out = defa_attn.forward_kept_rows(
                    query,
                    kept,
                    reference_points,
                    x,
                    spatial_shapes,
                    fmap_mask,
                    backend,
                    plan,
                )
            # The inter-block stage prunes on the masks applied to *this*
            # block (the rows that did not act as queries), so it must run
            # before the masks advance to the ones this block generated.
            keep_mask, compact = self.ffn_stage_plan(fmap_mask, n_in, backend)
            stream = None
            if plan is not None:
                # One residual-stream buffer: block 0 writes it (a masked
                # block 0 copies the caller's input in once), and every later
                # stage updates it in place, writing only its kept rows.
                if index == 0:
                    stream = plan.buffer("stream", x.shape)
                    if keep_mask is not None:
                        np.copyto(stream, x)
                        x = stream
                else:
                    stream = x
            x = layer.forward_ffn_stage(
                x,
                attn_out.output,
                keep_mask=keep_mask,
                compact=compact,
                plan=plan,
                out=stream,
            )
            for b, image in enumerate(attn_out.images):
                image.stats.sparse_ffn = compact
                per_image_stats[b].append(image.stats)
                per_image_masks[b].append(image.fmap_mask_next)
                if collect_details:
                    per_image_outputs[b].append(image)
            fmap_mask = attn_out.fmap_mask_next

        # The final memory escapes to the caller, so it must not alias the
        # arena (the next forward would overwrite it) — one copy per forward.
        if plan is not None:
            x = x.copy()
        images = [
            DEFAEncoderResult(
                memory=x[b],
                layer_stats=per_image_stats[b],
                layer_outputs=per_image_outputs[b],
                fmap_masks=per_image_masks[b],
            )
            for b in range(batch)
        ]
        if single:
            return images[0]
        return DEFAEncoderBatchResult(memory=x, images=images)

    __call__ = forward
