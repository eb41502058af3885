"""Profilers: the Fig. 1b GPU latency breakdown and batched-engine throughput.

The paper profiles the MSDeformAttn latency on an RTX 3090Ti for Deformable
DETR, DN-DETR and DINO and finds that MSGS + aggregation account for over 60 %
of it while contributing only ~3 % of the FLOPs.  This module reproduces both
numbers from the GPU cost model and the analytic FLOP breakdown.

It also measures the wall-clock win of the batched execution engine
(:func:`measure_encoder_batched_speedup`): one batched forward of a same-shape
image batch against the equivalent loop of single-image forwards.  The win
comes from amortizing per-call dispatch overhead across the batch, so it is
largest for streams of small images (the many-small-requests serving regime)
and tapers toward parity once per-image tensor work dominates.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.baselines.gpu import GPUCostModel, GPUSpec, RTX_3090TI
from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.core.pipeline import DEFAAttention
from repro.kernels import COMPILED_AVAILABLE, ExecutionOptions, ExecutionPlan
from repro.nn.encoder import DeformableEncoder
from repro.nn.msdeform_attn import MSDeformAttn
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.rng import as_rng
from repro.utils.shapes import LevelShape, total_pixels
from repro.utils.timing import KernelTimings, collect_kernel_timings
from repro.workloads.specs import WorkloadSpec, get_workload


@dataclass(frozen=True)
class LatencyBreakdown:
    """MSGS-vs-others split of one model's MSDeformAttn latency."""

    model_name: str
    gpu_name: str
    msgs_aggregation_fraction: float
    """Fraction of MSDeformAttn latency spent in MSGS + aggregation."""

    others_fraction: float
    """Fraction spent in the projections, softmax and overheads."""

    msgs_flops_fraction: float
    """Fraction of the layer FLOPs contributed by MSGS + aggregation."""

    layer_latency_s: float
    """Absolute modelled latency of one MSDeformAttn layer."""


def profile_gpu_latency_breakdown(
    workload: WorkloadSpec, gpu: GPUSpec = RTX_3090TI
) -> LatencyBreakdown:
    """Compute the Fig. 1(b) latency breakdown for one workload."""
    model = GPUCostModel(gpu)
    latency = model.msdeform_layer_latency(workload)
    flops = workload.layer_flops_breakdown()
    msgs_flops = flops["msgs"] + flops["aggregation"]
    total_flops = sum(flops.values())
    return LatencyBreakdown(
        model_name=workload.model.display_name,
        gpu_name=gpu.name,
        msgs_aggregation_fraction=latency.msgs_fraction,
        others_fraction=1.0 - latency.msgs_fraction,
        msgs_flops_fraction=msgs_flops / total_flops,
        layer_latency_s=latency.total_s,
    )


@dataclass(frozen=True)
class BatchedThroughputReport:
    """Measured batched-vs-serial wall clock of one same-shape workload."""

    batch_size: int
    num_tokens: int
    """Flattened multi-scale tokens per image."""

    d_model: int
    serial_s: float
    """Best-of-repeats wall clock of the single-image loop over the batch."""

    batched_s: float
    """Best-of-repeats wall clock of one batched forward."""

    max_abs_diff: float
    """Max elementwise deviation of the batched output from the serial loop."""

    @property
    def speedup(self) -> float:
        """Serial-over-batched wall-clock ratio (> 1 means batching wins)."""
        return self.serial_s / self.batched_s if self.batched_s > 0 else float("inf")


def measure_encoder_batched_speedup(
    encoder: DeformableEncoder,
    spatial_shapes: list[LevelShape],
    batch_size: int = 8,
    repeats: int = 3,
    rng: np.random.Generator | int | None = None,
) -> BatchedThroughputReport:
    """Time a batched encoder forward against the single-image loop.

    Runs ``batch_size`` synthetic same-shape images through *encoder* twice —
    once as a Python loop of single-image forwards, once as one batched
    forward — and reports the best-of-*repeats* wall clock of each, plus the
    maximum elementwise deviation between the two results (the equivalence
    the batched kernels guarantee).
    """
    if batch_size <= 0 or repeats <= 0:
        raise ValueError("batch_size and repeats must be positive")
    rng = as_rng(rng)
    n_in = total_pixels(spatial_shapes)
    d_model = encoder.d_model
    features = rng.standard_normal((batch_size, n_in, d_model)).astype(FLOAT_DTYPE)
    pos = sine_positional_encoding(spatial_shapes, d_model)
    reference_points = make_reference_points(spatial_shapes)

    def run_serial() -> np.ndarray:
        return np.stack(
            [
                encoder.forward(features[b], pos, reference_points, spatial_shapes)
                for b in range(batch_size)
            ]
        )

    def run_batched() -> np.ndarray:
        return encoder.forward(features, pos, reference_points, spatial_shapes)

    serial_out = run_serial()  # warm-up + reference output
    batched_out = run_batched()
    max_abs_diff = float(np.max(np.abs(serial_out - batched_out)))

    serial_s = min(
        _timed(run_serial) for _ in range(repeats)
    )
    batched_s = min(
        _timed(run_batched) for _ in range(repeats)
    )
    return BatchedThroughputReport(
        batch_size=batch_size,
        num_tokens=n_in,
        d_model=d_model,
        serial_s=serial_s,
        batched_s=batched_s,
        max_abs_diff=max_abs_diff,
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


# --------------------------------------------------------------------------
# Sparse-execution profiling


@dataclass(frozen=True)
class SparseSpeedupReport:
    """Dense-vs-sparse wall clock of one DEFA block at one operating point."""

    workload: str
    fwp_k: float
    pap_threshold: float
    num_tokens: int
    pixel_reduction: float
    """Fraction of fmap pixels pruned by the incoming FWP mask."""

    point_reduction: float
    """Fraction of sampling points pruned by PAP in the timed block."""

    flops_reduction: float
    """Analytic FLOP reduction of the prunable operators (Fig. 6b metric)."""

    dense_s: float
    """Best-of-repeats wall clock of the masked-dense block forward."""

    sparse_s: float
    """Best-of-repeats wall clock of the compacted-kernel block forward."""

    max_abs_diff: float
    """Max elementwise deviation between the two block outputs."""

    dense_kernels: dict[str, float]
    """Per-section seconds of one dense forward (projection/gather/...)."""

    sparse_kernels: dict[str, float]
    """Per-section seconds of one sparse forward."""

    @property
    def speedup(self) -> float:
        """Dense-over-sparse wall-clock ratio (> 1 means sparse wins)."""
        return self.dense_s / self.sparse_s if self.sparse_s > 0 else float("inf")

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly record for the benchmark harness."""
        return {
            "workload": self.workload,
            "fwp_k": self.fwp_k,
            "pap_threshold": self.pap_threshold,
            "num_tokens": self.num_tokens,
            "pixel_reduction": self.pixel_reduction,
            "point_reduction": self.point_reduction,
            "flops_reduction": self.flops_reduction,
            "dense_ms": 1e3 * self.dense_s,
            "sparse_ms": 1e3 * self.sparse_s,
            "speedup": self.speedup,
            "max_abs_diff": self.max_abs_diff,
            "dense_kernels_ms": {k: 1e3 * v for k, v in self.dense_kernels.items()},
            "sparse_kernels_ms": {k: 1e3 * v for k, v in self.sparse_kernels.items()},
        }


SPARSE_SWEEP_OPERATING_POINTS: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.5, 0.01),
    (0.75, 0.035),
    (1.0, 0.035),
    (1.15, 0.05),
)
"""Default ``(fwp_k, pap_threshold)`` sweep of the sparse-speedup benchmark.

Reduction grows along the sweep: the paper operating point sits in the
middle, ``fwp_k = 1.0`` yields roughly the 50 % pixel reduction quoted as the
benchmark target at the paper scale, and the extremes bracket no pruning and
aggressive pruning.  ``fwp_k == 0`` disables FWP, ``pap_threshold == 0``
disables PAP."""


def sweep_sparse_speedup(
    model_name: str = "deformable_detr",
    scale: str = "paper",
    operating_points: tuple[tuple[float, float], ...] | None = None,
    repeats: int = 3,
    rng_seed: int = 0,
    quant_bits: int | None = 12,
    query_pruning: bool = True,
) -> list[SparseSpeedupReport]:
    """Dense-vs-sparse speedup sweep over FWP/PAP operating points.

    Every operating point re-seeds the generator with *rng_seed*, so all
    points see identical synthetic weights and features and the measured
    reduction ratios are directly comparable.

    ``query_pruning`` (default on — sparse execution v2) extends the FWP mask
    to the query side in *both* timed paths: pruned pixels stop acting as
    queries, the dense path zeroes their rows, the sparse path skips their
    projections and sampling points entirely.  The reported
    ``point_reduction`` therefore includes the points of pruned queries.
    """
    workload = get_workload(model_name, scale)
    points = operating_points if operating_points is not None else SPARSE_SWEEP_OPERATING_POINTS
    reports = []
    for fwp_k, pap_threshold in points:
        config = DEFAConfig(
            enable_fwp=fwp_k > 0,
            fwp_k=fwp_k if fwp_k > 0 else 0.75,
            enable_pap=pap_threshold > 0,
            pap_threshold=pap_threshold,
            quant_bits=quant_bits,
            enable_query_pruning=query_pruning,
        )
        reports.append(
            measure_sparse_speedup(workload, config, repeats=repeats, rng=rng_seed)
        )
    return reports


def profile_defa_kernel_breakdown(
    defa: DEFAAttention,
    query: np.ndarray,
    reference_points: np.ndarray,
    value_input: np.ndarray,
    spatial_shapes: list[LevelShape],
    fmap_mask: np.ndarray | None = None,
) -> KernelTimings:
    """Per-kernel wall-clock breakdown of one DEFA block forward.

    Returns the :class:`~repro.utils.timing.KernelTimings` of a single
    ``forward_detailed`` call: ``value_proj`` / ``query_proj`` /
    ``output_proj`` (projections), ``neighbors`` (bilinear index math),
    ``gather`` and ``aggregate`` (the MSGS hot loop) and ``fwp`` (frequency
    counting + mask generation).  This is the software-side analogue of the
    Fig. 1b latency breakdown, available for both execution paths via
    ``defa.sparse_mode``.
    """
    with collect_kernel_timings() as timings:
        defa.forward_detailed(
            query, reference_points, value_input, spatial_shapes, fmap_mask=fmap_mask
        )
    return timings


def measure_sparse_speedup(
    workload: WorkloadSpec,
    config: DEFAConfig | None = None,
    repeats: int = 3,
    rng: np.random.Generator | int | None = None,
) -> SparseSpeedupReport:
    """Time one DEFA block in dense vs sparse mode at a pruning operating point.

    Builds an :class:`MSDeformAttn` block at the workload's model geometry,
    runs a first (unmasked) block to obtain a realistic FWP mask, then times
    the *second* block — the one that receives the mask — once with
    ``sparse_mode="dense"`` (pruning simulated by zeroing) and once with
    ``sparse_mode="sparse"`` (compacted gather/scatter kernels).  Both runs
    see identical inputs and masks, so ``max_abs_diff`` measures the numeric
    equivalence of the two paths directly.  All config switches — including
    ``enable_query_pruning`` (sparse execution v2) — apply to both paths, so
    the comparison always times two implementations of the same semantics.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    config = config or DEFAConfig()
    rng = as_rng(rng)
    shapes = workload.spatial_shapes
    model = workload.model
    n_in = workload.num_tokens
    attn = MSDeformAttn(
        d_model=model.d_model,
        num_heads=model.num_heads,
        num_levels=model.num_levels,
        num_points=model.num_points,
        rng=rng,
    )
    features = rng.standard_normal((n_in, model.d_model)).astype(FLOAT_DTYPE)
    pos = sine_positional_encoding(shapes, model.d_model)
    reference_points = make_reference_points(shapes)
    query = features + pos

    defa = DEFAAttention(attn, config, ExecutionOptions(sparse_mode="dense"))
    first = defa.forward_detailed(query, reference_points, features, shapes)
    fmap_mask = first.fmap_mask_next.copy()
    del first  # release the first block's trace before timing

    def run_dense():
        defa.sparse_mode = "dense"
        return defa.forward_detailed(
            query, reference_points, features, shapes, fmap_mask=fmap_mask
        )

    def run_sparse():
        defa.sparse_mode = "sparse"
        return defa.forward_detailed(
            query, reference_points, features, shapes, fmap_mask=fmap_mask
        )

    dense_out = run_dense()  # warm-up + reference
    sparse_out = run_sparse()
    max_abs_diff = float(np.max(np.abs(dense_out.output - sparse_out.output)))
    stats = dense_out.stats
    del dense_out, sparse_out  # release the big traces before timing

    # Interleave the repeats: wall-clock on a shared host drifts in "eras"
    # (allocator/page-cache state), and alternating the two paths exposes
    # both to the same conditions so the best-of ratio stays meaningful.
    dense_times, sparse_times = [], []
    for _ in range(repeats):
        dense_times.append(_timed(run_dense))
        sparse_times.append(_timed(run_sparse))
    dense_s = min(dense_times)
    sparse_s = min(sparse_times)

    defa.sparse_mode = "dense"
    dense_kernels = profile_defa_kernel_breakdown(
        defa, query, reference_points, features, shapes, fmap_mask=fmap_mask
    )
    defa.sparse_mode = "sparse"
    sparse_kernels = profile_defa_kernel_breakdown(
        defa, query, reference_points, features, shapes, fmap_mask=fmap_mask
    )

    return SparseSpeedupReport(
        workload=workload.name,
        fwp_k=config.fwp_k if config.enable_fwp else 0.0,
        pap_threshold=config.pap_threshold if config.enable_pap else 0.0,
        num_tokens=n_in,
        pixel_reduction=stats.pixel_reduction,
        point_reduction=stats.point_reduction,
        flops_reduction=stats.flops_reduction,
        dense_s=dense_s,
        sparse_s=sparse_s,
        max_abs_diff=max_abs_diff,
        dense_kernels=dict(dense_kernels.seconds),
        sparse_kernels=dict(sparse_kernels.seconds),
    )


# --------------------------------------------------------------------------
# Block-sparse encoder profiling (PR 4)


@dataclass(frozen=True)
class EncoderSparseSpeedupReport:
    """End-to-end encoder wall clock of the three execution profiles.

    All three runs execute the *same* block-sparse-encoder semantics (query
    pruning on, pruned rows frozen at the block input); they differ only in
    which stages run compacted:

    * ``dense_s`` — everything masked-dense (pruning changes numerics only);
    * ``sparse_dense_ffn_s`` — sparse attention blocks, masked-dense
      inter-block FFN/LayerNorm stage: the PR 3 cost profile;
    * ``sparse_s`` — the full block-sparse encoder (row-compacted FFN stage)
      on the ``"reference"`` kernel backend: the PR 4 execution exactly;
    * ``sparse_fused_s`` — the same block-sparse encoder on the ``"fused"``
      backend (single-pass kernels + execution-plan buffer reuse, PR 5).
      Bit-identical outputs, so :attr:`fused_max_abs_diff` must be 0.
    """

    workload: str
    fwp_k: float
    pap_threshold: float
    num_layers: int
    num_tokens: int
    pixel_reduction: float
    """Mean FWP pixel reduction over the masked blocks (2..L)."""

    dense_s: float
    sparse_dense_ffn_s: float
    sparse_s: float
    sparse_fused_s: float
    """Best-of-repeats wall clock of the fused-backend block-sparse run."""

    fused_max_abs_diff: float
    """Max elementwise deviation of the fused-backend memory from the
    reference-backend block-sparse memory.  The fused backend is
    bit-identical by construction (same float ops, reused buffers), so any
    non-zero value here is an execution bug, not rounding."""

    max_abs_diff: float
    """Max elementwise deviation of the sparse memory from the dense memory.

    End-to-end across many blocks this is *not* bounded by kernel rounding
    alone: FWP/PAP are threshold decisions, so a ~1e-7 kernel difference in
    one block can flip a mask bit downstream, after which the two runs
    legitimately execute different prune trajectories and whole rows differ
    by O(feature magnitude).  Check :attr:`mask_trajectory_matched` before
    reading this as an execution-path drift; the machine-independent
    equivalence gate is :func:`measure_encoder_blockwise_equivalence`.
    """

    dense_pixels_kept: tuple[int, ...]
    """Per-block incoming-mask keep counts of the dense run (first block:
    ``num_tokens`` by the no-mask convention)."""

    sparse_pixels_kept: tuple[int, ...]
    """Per-block incoming-mask keep counts of the block-sparse run."""

    mask_trajectory_matched: bool
    """Whether both runs generated bit-identical FWP masks in every block
    (exact mask comparison, not just keep counts — a count-preserving flip
    would still diverge the trajectories)."""

    dense_kernels: dict[str, float]
    """Per-section seconds of one masked-dense encoder forward (now including
    the ``ffn`` / ``norm`` sections of the inter-block stage)."""

    sparse_kernels: dict[str, float]
    """Per-section seconds of one block-sparse encoder forward."""

    sparse_compiled_s: float | None = None
    """Best-of-repeats wall clock of the compiled-backend block-sparse run
    (``None`` when the compiled kernel library is not built on this host)."""

    compiled_max_abs_diff: float | None = None
    """Max elementwise deviation of the compiled-backend memory from the
    fused-backend memory; gated at the compiled backend's tolerance tier
    (:data:`repro.kernels.compiled_backend.COMPILED_EQUIVALENCE_TOL`, 0.0)."""

    @property
    def speedup(self) -> float:
        """Dense-over-block-sparse encoder wall-clock ratio."""
        return self.dense_s / self.sparse_s if self.sparse_s > 0 else float("inf")

    @property
    def ffn_speedup(self) -> float:
        """Additional end-to-end win of the compacted FFN stage over the PR 3
        profile (sparse attention + dense inter-block work)."""
        return self.sparse_dense_ffn_s / self.sparse_s if self.sparse_s > 0 else float("inf")

    @property
    def fused_speedup(self) -> float:
        """Additional end-to-end win of the fused backend + execution plans
        over the PR 4 block-sparse path (the reference backend)."""
        return (
            self.sparse_s / self.sparse_fused_s if self.sparse_fused_s > 0 else float("inf")
        )

    @property
    def compiled_speedup(self) -> float | None:
        """Additional end-to-end win of the compiled C kernels over the fused
        numpy backend (``None`` when the compiled backend was not measured)."""
        if self.sparse_compiled_s is None:
            return None
        return (
            self.sparse_fused_s / self.sparse_compiled_s
            if self.sparse_compiled_s > 0
            else float("inf")
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "workload": self.workload,
            "fwp_k": self.fwp_k,
            "pap_threshold": self.pap_threshold,
            "num_layers": self.num_layers,
            "num_tokens": self.num_tokens,
            "pixel_reduction": self.pixel_reduction,
            "dense_ms": 1e3 * self.dense_s,
            "sparse_dense_ffn_ms": 1e3 * self.sparse_dense_ffn_s,
            "sparse_ms": 1e3 * self.sparse_s,
            "sparse_fused_ms": 1e3 * self.sparse_fused_s,
            "speedup": self.speedup,
            "ffn_speedup": self.ffn_speedup,
            "fused_speedup": self.fused_speedup,
            "fused_max_abs_diff": self.fused_max_abs_diff,
            "max_abs_diff": self.max_abs_diff,
            "dense_pixels_kept": list(self.dense_pixels_kept),
            "sparse_pixels_kept": list(self.sparse_pixels_kept),
            "mask_trajectory_matched": self.mask_trajectory_matched,
            "dense_kernels_ms": {k: 1e3 * v for k, v in self.dense_kernels.items()},
            "sparse_kernels_ms": {k: 1e3 * v for k, v in self.sparse_kernels.items()},
            **(
                {
                    "sparse_compiled_ms": 1e3 * self.sparse_compiled_s,
                    "compiled_speedup": self.compiled_speedup,
                    "compiled_max_abs_diff": self.compiled_max_abs_diff,
                }
                if self.sparse_compiled_s is not None
                else {}
            ),
        }


def measure_encoder_sparse_speedup(
    workload: WorkloadSpec,
    config: DEFAConfig | None = None,
    num_layers: int = 3,
    repeats: int = 3,
    rng: np.random.Generator | int | None = None,
) -> EncoderSparseSpeedupReport:
    """Time a full DEFA encoder in the three block-sparse execution profiles.

    Builds a :class:`DeformableEncoder` at the workload's model geometry
    (*num_layers* blocks; the first block never receives a mask, so at least
    two layers are required for any pruning to execute) and one
    :class:`DEFAEncoderRunner` with query pruning semantics, then times

    1. ``sparse_mode="dense"`` — the all-masked-dense reference,
    2. ``sparse_mode="sparse"`` with ``enable_sparse_ffn=False`` — the PR 3
       cost profile (compacted attention, dense inter-block stage),
    3. ``sparse_mode="sparse"`` — the full block-sparse encoder on the
       ``"reference"`` kernel backend (the PR 4 path), and
    4. the same block-sparse encoder on the ``"fused"`` backend (PR 5:
       single-pass kernels + execution-plan buffer reuse),

    interleaved best-of-*repeats*.  All four see identical inputs and
    produce the same memory (``max_abs_diff`` reports dense vs. full-sparse;
    ``fused_max_abs_diff`` reports fused vs. reference, which must be 0), so
    :attr:`EncoderSparseSpeedupReport.ffn_speedup` isolates the win of
    carrying FWP pruning through the FFN/LayerNorm stage and
    :attr:`EncoderSparseSpeedupReport.fused_speedup` the win of the fused
    backend over the PR 4 path.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    if num_layers < 2:
        raise ValueError("num_layers must be >= 2 (the first block is never masked)")
    config = config or DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
    rng = as_rng(rng)
    shapes = workload.spatial_shapes
    model = workload.model
    n_in = workload.num_tokens
    encoder = DeformableEncoder(
        num_layers=num_layers,
        d_model=model.d_model,
        num_heads=model.num_heads,
        num_levels=model.num_levels,
        num_points=model.num_points,
        ffn_dim=model.ffn_dim,
        activation=model.activation,
        rng=rng,
    )
    features = rng.standard_normal((n_in, model.d_model)).astype(FLOAT_DTYPE)
    pos = sine_positional_encoding(shapes, model.d_model)
    reference_points = make_reference_points(shapes)

    runner = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="dense"))

    def run(mode: str, sparse_ffn: bool, backend: str = "reference"):
        runner.sparse_mode = mode
        runner.enable_sparse_ffn = sparse_ffn
        runner.kernel_backend = backend
        return runner.forward(features, pos, reference_points, shapes)

    dense_res = run("dense", False)  # warm-up + reference
    sparse_res = run("sparse", True)
    fused_res = run("sparse", True, backend="fused")  # also warms the plan arena
    max_abs_diff = float(np.max(np.abs(dense_res.memory - sparse_res.memory)))
    fused_max_abs_diff = float(np.max(np.abs(sparse_res.memory - fused_res.memory)))
    compiled_max_abs_diff = None
    if COMPILED_AVAILABLE:
        compiled_res = run("sparse", True, backend="compiled")
        compiled_max_abs_diff = float(
            np.max(np.abs(fused_res.memory - compiled_res.memory))
        )
        del compiled_res
    pixel_reduction = sparse_res.mean_pixel_reduction
    dense_pixels_kept = tuple(s.pixels_kept for s in dense_res.layer_stats)
    sparse_pixels_kept = tuple(s.pixels_kept for s in sparse_res.layer_stats)
    # Exact per-block mask comparison (keep counts alone would miss a
    # count-preserving flip, which still diverges the trajectories).
    mask_trajectory_matched = all(
        np.array_equal(a, b)
        for a, b in zip(dense_res.fmap_masks, sparse_res.fmap_masks)
    )
    del dense_res, sparse_res, fused_res

    dense_times: list[float] = []
    pr3_times: list[float] = []
    sparse_times: list[float] = []
    fused_times: list[float] = []
    compiled_times: list[float] = []
    for _ in range(repeats):
        dense_times.append(_timed(lambda: run("dense", False)))
        pr3_times.append(_timed(lambda: run("sparse", False)))
        sparse_times.append(_timed(lambda: run("sparse", True)))
        fused_times.append(_timed(lambda: run("sparse", True, backend="fused")))
        if COMPILED_AVAILABLE:
            compiled_times.append(
                _timed(lambda: run("sparse", True, backend="compiled"))
            )

    with collect_kernel_timings() as dense_kernels:
        run("dense", False)
    with collect_kernel_timings() as sparse_kernels:
        run("sparse", True)

    return EncoderSparseSpeedupReport(
        workload=workload.name,
        fwp_k=config.fwp_k if config.enable_fwp else 0.0,
        pap_threshold=config.pap_threshold if config.enable_pap else 0.0,
        num_layers=num_layers,
        num_tokens=n_in,
        pixel_reduction=pixel_reduction,
        dense_s=min(dense_times),
        sparse_dense_ffn_s=min(pr3_times),
        sparse_s=min(sparse_times),
        sparse_fused_s=min(fused_times),
        sparse_compiled_s=min(compiled_times) if compiled_times else None,
        compiled_max_abs_diff=compiled_max_abs_diff,
        fused_max_abs_diff=fused_max_abs_diff,
        max_abs_diff=max_abs_diff,
        dense_pixels_kept=dense_pixels_kept,
        sparse_pixels_kept=sparse_pixels_kept,
        mask_trajectory_matched=mask_trajectory_matched,
        dense_kernels=dict(dense_kernels.seconds),
        sparse_kernels=dict(sparse_kernels.seconds),
    )


def measure_encoder_blockwise_equivalence(
    workload: WorkloadSpec,
    config: DEFAConfig | None = None,
    num_layers: int = 3,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Max dense/sparse output drift over a *lockstep* multi-block run.

    The end-to-end encoder comparison is trajectory-sensitive: FWP/PAP are
    threshold decisions, so kernel-rounding differences can flip a mask bit
    downstream and the two runs then prune different pixels (a property of
    the algorithm, not of the execution paths).  This probe removes that
    sensitivity: at every block, *both* paths receive the dense trajectory's
    block input and incoming FWP mask, their attention + inter-block-stage
    outputs are compared, and the dense output is carried forward.  Identical
    inputs mean identical threshold decisions, so the returned maximum is a
    machine-independent measure of pure execution-path drift — 1e-5 for fp32
    configs, a few quantization steps for INT12 — while still exercising
    masks that evolve block to block.
    """
    if num_layers < 2:
        raise ValueError("num_layers must be >= 2 (the first block is never masked)")
    config = config or DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
    rng = as_rng(rng)
    shapes = workload.spatial_shapes
    model = workload.model
    n_in = workload.num_tokens
    encoder = DeformableEncoder(
        num_layers=num_layers,
        d_model=model.d_model,
        num_heads=model.num_heads,
        num_levels=model.num_levels,
        num_points=model.num_points,
        ffn_dim=model.ffn_dim,
        activation=model.activation,
        rng=rng,
    )
    features = rng.standard_normal((n_in, model.d_model)).astype(FLOAT_DTYPE)
    pos = sine_positional_encoding(shapes, model.d_model)
    reference_points = make_reference_points(shapes)
    dense = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="dense"))
    sparse = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="sparse"))

    def step(runner: DEFAEncoderRunner, index: int, x: np.ndarray, fmap_mask):
        layer = runner.encoder.layers[index]
        attn_out = runner.defa_layers[index].forward_detailed(
            x + pos, reference_points, x, shapes, fmap_mask=fmap_mask
        )
        keep_mask, compact = runner.ffn_stage_plan(fmap_mask, x.shape[0], runner.resolved_backend())
        out = layer.forward_ffn_stage(
            x, attn_out.output, keep_mask=keep_mask, compact=compact
        )
        return out, attn_out.fmap_mask_next

    x = features
    fmap_mask = None
    max_drift = 0.0
    for index in range(num_layers):
        out_dense, mask_next = step(dense, index, x, fmap_mask)
        out_sparse, sparse_mask_next = step(sparse, index, x, fmap_mask)
        max_drift = max(max_drift, float(np.max(np.abs(out_dense - out_sparse))))
        # Same inputs => the generated masks must agree exactly (integer
        # frequency counting); if they ever did not, that would be an
        # execution-path bug, which the probe should surface loudly.
        if not np.array_equal(mask_next, sparse_mask_next):
            return float("inf")
        x, fmap_mask = out_dense, mask_next
    return max_drift


def measure_streaming_blockwise_equivalence(
    workload: WorkloadSpec,
    config: DEFAConfig | None = None,
    num_layers: int = 3,
    num_frames: int = 4,
    rng: np.random.Generator | int | None = None,
) -> float:
    """Max dense/sparse drift replaying a streaming session's warm masks.

    Warm frames are trajectory-sensitive squared: their incoming masks mix a
    cached keyframe FWP trajectory with a temporally-dirty set, so warm-vs-
    cold end-to-end diffs are algorithm diagnostics (PR 4 rules), not
    execution gates.  This probe applies the same lockstep discipline as
    :func:`measure_encoder_blockwise_equivalence` to the *recorded* streaming
    masks: a session runs a synthetic video, and for every non-reused frame
    the per-block ``incoming_masks`` it executed with are replayed through a
    dense and a sparse runner in lockstep (both paths get the dense block
    input and the recorded mask; dense is carried forward).  Identical inputs
    and pinned masks leave only execution-path drift, gated at the usual
    tolerances (fp32 1e-5, INT12 a few quantization steps).  Mask
    disagreement on the *generated* next-block masks returns ``inf``.
    """
    from repro.engine.streaming import StreamingConfig, StreamingEncoderSession
    from repro.workloads.video import SyntheticVideoStream, VideoStreamSpec

    if num_layers < 2:
        raise ValueError("num_layers must be >= 2 (the first block is never masked)")
    config = config or DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
    rng = as_rng(rng)
    shapes = workload.spatial_shapes
    model = workload.model
    encoder = DeformableEncoder(
        num_layers=num_layers,
        d_model=model.d_model,
        num_heads=model.num_heads,
        num_levels=model.num_levels,
        num_points=model.num_points,
        ffn_dim=model.ffn_dim,
        activation=model.activation,
        rng=rng,
    )
    session = StreamingEncoderSession(
        encoder,
        config,
        shapes,
        StreamingConfig(keyframe_interval=max(num_frames, 2)),
    )
    stream = SyntheticVideoStream(
        shapes,
        model.d_model,
        VideoStreamSpec(num_frames=num_frames, seed=int(rng.integers(1 << 31))),
    )
    pos = sine_positional_encoding(shapes, model.d_model)
    reference_points = make_reference_points(shapes)
    # Sessions force query pruning on; mirror that for the replay runners so
    # all three agree on the frozen-row convention.
    config = session.config
    dense = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="dense"))
    sparse = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="sparse"))

    def step(runner: DEFAEncoderRunner, index: int, x: np.ndarray, fmap_mask):
        layer = runner.encoder.layers[index]
        attn_out = runner.defa_layers[index].forward_detailed(
            x + pos, reference_points, x, shapes, fmap_mask=fmap_mask
        )
        keep_mask, compact = runner.ffn_stage_plan(fmap_mask, x.shape[0], runner.resolved_backend())
        out = layer.forward_ffn_stage(
            x, attn_out.output, keep_mask=keep_mask, compact=compact
        )
        return out, attn_out.fmap_mask_next

    max_drift = 0.0
    for frame_index in range(num_frames):
        features = stream.frame(frame_index)
        result = session.process(features, frame_index)
        if result.kind == "reused":
            continue  # no forward ran; nothing to replay
        x = features
        for index in range(num_layers):
            fmap_mask = result.incoming_masks[index]
            out_dense, mask_next = step(dense, index, x, fmap_mask)
            out_sparse, sparse_mask_next = step(sparse, index, x, fmap_mask)
            max_drift = max(
                max_drift, float(np.max(np.abs(out_dense - out_sparse)))
            )
            if not np.array_equal(mask_next, sparse_mask_next):
                return float("inf")
            x = out_dense
    return max_drift


# --------------------------------------------------------------------------
# Kernel-fusion profiling (PR 5)


@dataclass(frozen=True)
class KernelFusionReport:
    """Fused-vs-reference backend comparison of one sparse DEFA block.

    Both runs execute the identical sparse path (same inputs, same masks,
    same ``sparse_mode="sparse"``) and differ only in the kernel backend, so
    ``max_abs_diff`` measures the backends' numerical agreement — which is
    exactly 0 by construction (the fused backend performs the same float
    operations in the same order) — and the section ratios isolate where the
    fusion wins.
    """

    workload: str
    num_tokens: int
    reference_s: float
    """Best-of-repeats wall clock of the reference-backend block forward."""

    fused_s: float
    """Best-of-repeats wall clock of the fused-backend block forward
    (steady-state: the execution-plan arena is warmed before timing)."""

    max_abs_diff: float
    """Max elementwise deviation between the two block outputs (0 expected)."""

    reference_kernels: dict[str, float]
    """Per-section seconds of one reference-backend forward."""

    fused_kernels: dict[str, float]
    """Per-section seconds of one fused-backend forward."""

    compiled_s: float | None = None
    """Best-of-repeats wall clock of the compiled-backend block forward
    (steady-state, own warmed plan; ``None`` when the compiled kernel library
    is not built on this host)."""

    compiled_max_abs_diff: float | None = None
    """Max elementwise deviation of the compiled-backend output from the
    fused-backend output; gated at the compiled backend's tolerance tier
    (:data:`repro.kernels.compiled_backend.COMPILED_EQUIVALENCE_TOL`, 0.0)."""

    @property
    def speedup(self) -> float:
        """Reference-over-fused wall-clock ratio (> 1 means fusion wins)."""
        return self.reference_s / self.fused_s if self.fused_s > 0 else float("inf")

    @property
    def compiled_speedup(self) -> float | None:
        """Fused-over-compiled wall-clock ratio (> 1 means the C kernels
        win); ``None`` when the compiled backend was not measured."""
        if self.compiled_s is None:
            return None
        return self.fused_s / self.compiled_s if self.compiled_s > 0 else float("inf")

    def section_speedups(self) -> dict[str, float]:
        """Reference/fused ratio per kernel section (where both measured)."""
        return {
            name: self.reference_kernels[name] / self.fused_kernels[name]
            for name in sorted(self.reference_kernels)
            if self.fused_kernels.get(name, 0.0) > 0.0
        }


def measure_kernel_fusion(
    workload: WorkloadSpec,
    config: DEFAConfig | None = None,
    repeats: int = 3,
    rng: np.random.Generator | int | None = None,
) -> KernelFusionReport:
    """Time one sparse DEFA block on the reference vs the fused backend.

    The block setup mirrors :func:`measure_sparse_speedup` (a first unmasked
    block produces a realistic FWP mask; the timed block receives it), but
    both timed runs use ``sparse_mode="sparse"`` and only the kernel backend
    differs.  An :class:`~repro.kernels.ExecutionPlan` is threaded through
    the fused run via a :class:`DEFAEncoderRunner`-style plan so the fused
    numbers reflect steady-state (warm-arena) execution.
    """
    if repeats <= 0:
        raise ValueError("repeats must be positive")
    config = config or DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
    rng = as_rng(rng)
    shapes = workload.spatial_shapes
    model = workload.model
    n_in = workload.num_tokens
    attn = MSDeformAttn(
        d_model=model.d_model,
        num_heads=model.num_heads,
        num_levels=model.num_levels,
        num_points=model.num_points,
        rng=rng,
    )
    features = rng.standard_normal((n_in, model.d_model)).astype(FLOAT_DTYPE)
    pos = sine_positional_encoding(shapes, model.d_model)
    reference_points = make_reference_points(shapes)
    query = features + pos

    defa = DEFAAttention(attn, config, ExecutionOptions(sparse_mode="sparse"))
    first = defa.forward_detailed(
        query, reference_points, features, shapes, options=ExecutionOptions(kernel_backend="reference")
    )
    fmap_mask = first.fmap_mask_next.copy()
    del first

    plan = ExecutionPlan()
    compiled_plan = ExecutionPlan()  # separate arena: steady state per backend

    def run_reference():
        return defa.forward_detailed(
            query, reference_points, features, shapes,
            fmap_mask=fmap_mask, options=ExecutionOptions(kernel_backend="reference"),
        )

    def run_fused():
        return defa.forward_detailed(
            query, reference_points, features, shapes,
            fmap_mask=fmap_mask, options=ExecutionOptions(kernel_backend="fused"), plan=plan,
        )

    def run_compiled():
        return defa.forward_detailed(
            query, reference_points, features, shapes,
            fmap_mask=fmap_mask, options=ExecutionOptions(kernel_backend="compiled"), plan=compiled_plan,
        )

    ref_out = run_reference()  # warm-up + reference output
    fused_out = run_fused()  # warms the plan arena
    max_abs_diff = float(np.max(np.abs(ref_out.output - fused_out.output)))
    compiled_max_abs_diff = None
    if COMPILED_AVAILABLE:
        compiled_out = run_compiled()  # warms the compiled arena
        compiled_max_abs_diff = float(
            np.max(np.abs(fused_out.output - compiled_out.output))
        )
        del compiled_out
    del ref_out, fused_out

    ref_times, fused_times, compiled_times = [], [], []
    for _ in range(repeats):  # interleaved, as in measure_sparse_speedup
        ref_times.append(_timed(run_reference))
        fused_times.append(_timed(run_fused))
        if COMPILED_AVAILABLE:
            compiled_times.append(_timed(run_compiled))

    with collect_kernel_timings() as reference_kernels:
        run_reference()
    with collect_kernel_timings() as fused_kernels:
        run_fused()

    return KernelFusionReport(
        workload=workload.name,
        num_tokens=n_in,
        reference_s=min(ref_times),
        fused_s=min(fused_times),
        compiled_s=min(compiled_times) if compiled_times else None,
        compiled_max_abs_diff=compiled_max_abs_diff,
        max_abs_diff=max_abs_diff,
        reference_kernels=dict(reference_kernels.seconds),
        fused_kernels=dict(fused_kernels.seconds),
    )


# --------------------------------------------------------------------------
# Serving-engine profiling


@dataclass(frozen=True)
class ServingLatencyReport:
    """Latency/throughput profile of one serving-engine traffic replay.

    The correctness half is machine-independent: ``max_abs_diff`` compares
    every served output against the serial per-image reference loop and must
    be exactly zero (scheduling decisions cannot change results — the batched
    kernels are bit-equal to the per-image path for any batch composition).
    The latency half is wall clock on a single core, so it is tracked as a
    trajectory (benchmarks) rather than asserted: on this container workers
    add IPC + serialization overhead over the in-process loop, and
    multi-worker speedup is informational only.
    """

    num_requests: int
    num_workers: int
    num_batches: int
    mean_batch_size: float
    p50_s: float
    p99_s: float
    """Submit-to-completion latency percentiles over all requests."""

    max_latency_s: float
    elapsed_s: float
    """Wall clock of the whole replay (first submit to last completion)."""

    serial_s: float
    """Best-of-repeats wall clock of the serial per-image reference loop."""

    max_abs_diff: float
    """Max |served - serial reference| over every request (gated at 0.0)."""

    worker_deaths: int
    worker_restarts: int
    primary_batches: int
    degraded_batches: int
    mode: str
    """Engine health mode at the end of the replay."""

    num_shed: int = 0
    """Requests rejected at submit by admission control."""

    num_expired: int = 0
    """Requests that hit their queueing deadline before dispatch."""

    num_retried: int = 0
    """Requeue events of requests in flight during worker faults."""

    num_quarantined: int = 0
    """Requests failed with ``PoisonRequestError`` (retry budget spent)."""

    watchdog_kills: int = 0
    """Workers SIGKILLed by the hung-batch watchdog / dispatch-send bound."""

    num_failed: int = 0
    """Events that did not serve (shed + expired + quarantined); the
    ``max_abs_diff`` gate covers every event that *did* serve."""

    @property
    def throughput_rps(self) -> float:
        """Completed requests per second of replay wall clock."""
        return self.num_requests / self.elapsed_s if self.elapsed_s > 0 else float("inf")

    @property
    def overhead(self) -> float:
        """Replay-over-serial wall-clock ratio (scheduling + IPC cost; 1.0
        means the engine adds nothing over the bare serial loop)."""
        return self.elapsed_s / self.serial_s if self.serial_s > 0 else float("inf")

    def as_dict(self) -> dict[str, object]:
        return {
            "num_requests": self.num_requests,
            "num_workers": self.num_workers,
            "num_batches": self.num_batches,
            "mean_batch_size": self.mean_batch_size,
            "p50_ms": 1e3 * self.p50_s,
            "p99_ms": 1e3 * self.p99_s,
            "max_latency_ms": 1e3 * self.max_latency_s,
            "elapsed_ms": 1e3 * self.elapsed_s,
            "serial_ms": 1e3 * self.serial_s,
            "throughput_rps": self.throughput_rps,
            "overhead": self.overhead,
            "max_abs_diff": self.max_abs_diff,
            "worker_deaths": self.worker_deaths,
            "worker_restarts": self.worker_restarts,
            "primary_batches": self.primary_batches,
            "degraded_batches": self.degraded_batches,
            "mode": self.mode,
            "num_shed": self.num_shed,
            "num_expired": self.num_expired,
            "num_retried": self.num_retried,
            "num_quarantined": self.num_quarantined,
            "watchdog_kills": self.watchdog_kills,
            "num_failed": self.num_failed,
        }


class _FaultedBankFactory:
    """Picklable wrapper attaching a fault plan to a bank factory's product
    (so a plan can be injected without rebuilding the caller's spec)."""

    def __init__(self, base_factory, fault_plan) -> None:
        self.base_factory = base_factory
        self.fault_plan = fault_plan

    def __call__(self):
        from repro.engine.serving import ModelBank

        bank = ModelBank.coerce(self.base_factory())
        bank.fault_plan = self.fault_plan
        return bank


def measure_serving_latency(
    model_bank_factory,
    events,
    config=None,
    speed: float = 0.0,
    kill_worker_at: int | None = None,
    repeats: int = 2,
    fault_plan=None,
    timeout: float = 120.0,
) -> ServingLatencyReport:
    """Replay a traffic stream through a :class:`ServingEngine` and profile it.

    Builds the model bank once locally for the serial per-image reference
    (timed best-of-*repeats*), then starts an engine under *config*, replays
    *events* at *speed* (``0`` = open loop, as fast as possible) and compares
    every served output bit-for-bit against the reference.
    ``kill_worker_at=k`` SIGKILLs worker 0 right after the *k*-th submit, so
    the profile covers the death -> degraded -> restart path.

    ``model_bank_factory`` may also be a
    :class:`~repro.engine.serving.ModelBankSpec` directly.  ``fault_plan``
    threads a :class:`~repro.engine.faults.FaultPlan` into the engine's
    workers (the serial reference never executes faults — they live in
    ``_worker_main`` only), and switches the replay to fault-tolerant
    gathering: shed/expired/quarantined events are counted (``num_shed`` /
    ``num_expired`` / ``num_quarantined`` / ``num_failed``) instead of
    raising, and the bit-equality gate covers every event that served.
    """
    from repro.engine.serving import (
        ModelBank,
        ModelBankSpec,
        ServingConfig,
        ServingEngine,
    )
    from repro.engine.traffic import replay_traffic, serial_reference_outputs

    if repeats <= 0:
        raise ValueError("repeats must be positive")
    config = config or ServingConfig()
    if isinstance(model_bank_factory, ModelBankSpec):
        if fault_plan is not None:
            from dataclasses import replace

            model_bank_factory = replace(model_bank_factory, fault_plan=fault_plan)
        model_bank_factory = model_bank_factory.build
    elif fault_plan is not None:
        model_bank_factory = _FaultedBankFactory(model_bank_factory, fault_plan)
    bank = ModelBank.coerce(model_bank_factory())
    reference = serial_reference_outputs(bank, events)  # warm-up + reference
    serial_s = min(
        _timed(lambda: serial_reference_outputs(bank, events)) for _ in range(repeats)
    )

    engine = ServingEngine(model_bank_factory, config)
    engine.start()
    try:
        on_submit = None
        if kill_worker_at is not None:
            fired: list[int] = []

            def on_submit(i: int) -> None:
                if i == kill_worker_at and not fired:
                    fired.append(i)
                    engine.kill_worker(0)

        replay = replay_traffic(
            engine,
            events,
            speed=speed,
            on_submit=on_submit,
            timeout=timeout,
            tolerate_faults=fault_plan is not None,
        )
        stats = engine.stats
        mode = engine.mode
    finally:
        engine.shutdown()

    max_abs_diff = 0.0
    for served, expected in zip(replay.outputs, reference):
        if served is None:
            continue
        max_abs_diff = max(max_abs_diff, float(np.max(np.abs(served - expected))))
    return ServingLatencyReport(
        num_requests=len(events),
        num_workers=config.num_workers,
        num_batches=stats.num_batches,
        mean_batch_size=stats.mean_batch_size,
        p50_s=stats.latency_quantile(50),
        p99_s=stats.latency_quantile(99),
        max_latency_s=stats.latency_quantile(100),
        elapsed_s=replay.elapsed_s,
        serial_s=serial_s,
        max_abs_diff=max_abs_diff,
        worker_deaths=stats.worker_deaths,
        worker_restarts=stats.worker_restarts,
        primary_batches=stats.primary_batches,
        degraded_batches=stats.degraded_batches,
        mode=mode,
        num_shed=stats.num_shed,
        num_expired=stats.num_expired,
        num_retried=stats.num_retried,
        num_quarantined=stats.num_quarantined,
        watchdog_kills=stats.watchdog_kills,
        num_failed=replay.num_failed,
    )
