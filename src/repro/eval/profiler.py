"""Profilers: the Fig. 1b GPU latency breakdown and the benchmark probes.

The paper profiles the MSDeformAttn latency on an RTX 3090Ti for Deformable
DETR, DN-DETR and DINO and finds that MSGS + aggregation account for over 60 %
of it while contributing only ~3 % of the FLOPs.  This module reproduces both
numbers from the GPU cost model and the analytic FLOP breakdown.

It also holds the measurement side of the benchmark harness
(``benchmarks/run_all.py``): one interleaved best-of-N timer
(:func:`time_interleaved`), one probe record (:class:`ProbeRecord`), the
shared probe setup, and the probes themselves — the batched engine against
the single-image loop, dense against sparse blocks and encoders, the kernel
backends against each other, the lockstep equivalence replays and the
serving-engine replay.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.baselines.gpu import GPUCostModel, GPUSpec, RTX_3090TI
from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.core.pipeline import DEFAAttention
from repro.kernels import COMPILED_AVAILABLE, ExecutionOptions, ExecutionPlan, resolve_backend
from repro.nn.encoder import DeformableEncoder
from repro.nn.msdeform_attn import MSDeformAttn
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.rng import as_rng
from repro.utils.shapes import LevelShape, total_pixels
from repro.utils.timing import collect_kernel_timings
from repro.workloads.specs import WorkloadSpec, get_workload


@dataclass(frozen=True)
class LatencyBreakdown:
    """MSGS-vs-others split of one model's MSDeformAttn latency."""

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
        msgs_aggregation_fraction=latency.msgs_fraction,
        others_fraction=1.0 - latency.msgs_fraction,
        msgs_flops_fraction=msgs_flops / total_flops,
        layer_latency_s=latency.total_s,
    )


# --------------------------------------------------------------------------
# The benchmark harness: one timer, one record


@dataclass(frozen=True)
class Timings:
    """Best-of-N wall clocks of named variants timed in interleaved rounds."""

    best_s: dict[str, float]
    """Fastest round per variant, in seconds."""

    spread: dict[str, float]
    """Per variant, ``(slowest - fastest) / fastest`` over the rounds."""

    rounds: int
    """N: how many times every variant ran."""

    def ratio(self, slow: str, fast: str) -> float:
        """``best[slow] / best[fast]`` (> 1 means *fast* wins)."""
        den = self.best_s[fast]
        return self.best_s[slow] / den if den > 0 else float("inf")

    def ms(self) -> dict[str, object]:
        """The ``timings_ms`` section of a :class:`ProbeRecord`."""
        return {
            "rounds": self.rounds,
            "best": {name: 1e3 * s for name, s in self.best_s.items()},
            "spread": dict(self.spread),
        }


def time_interleaved(
    variants: dict[str, Callable[[], object]],
    rounds: int,
    before_round: Callable[[], object] | None = None,
    steps: int = 1,
) -> Timings:
    """Time *rounds* rounds of the variants, alternating them step by step.

    Each round runs ``steps`` steps, and each step calls every variant once,
    in order; a variant's time for the round is the sum over its steps.
    Wall clock on a shared host drifts in eras (allocator and page-cache
    state, neighbours' load); alternating the variants at the finest step
    exposes each to the same conditions, so best-of ratios between them stay
    meaningful.  ``before_round`` runs untimed at the start of every round.
    Warm the variants before calling: every round is timed.
    """
    if rounds <= 0:
        raise ValueError("repeats must be positive")
    samples: dict[str, list[float]] = {name: [] for name in variants}
    for _ in range(rounds):
        if before_round is not None:
            before_round()
        totals = dict.fromkeys(variants, 0.0)
        for _ in range(steps):
            for name, run in variants.items():
                start = time.perf_counter()
                run()
                totals[name] += time.perf_counter() - start
        for name, total in totals.items():
            samples[name].append(total)
    best = {name: min(times) for name, times in samples.items()}
    return Timings(
        best_s=best,
        spread={
            name: (max(times) - best[name]) / best[name] if best[name] > 0 else 0.0
            for name, times in samples.items()
        },
        rounds=rounds,
    )


@dataclass
class ProbeRecord:
    """The one record layout every benchmark probe emits.

    ``compare_bench.py`` and ``run_all.py --check`` read only ``ratios``,
    ``serving``, ``counters`` and ``equivalence`` (see
    ``benchmarks/baselines/README.md``); a probe's JSON form is
    ``dataclasses.asdict(record)``.
    """

    name: str
    config: dict[str, object]
    timings_ms: dict[str, object] = field(default_factory=dict)
    """:meth:`Timings.ms` of the probe's timer (empty for pure equivalence
    probes)."""

    ratios: dict[str, float] = field(default_factory=dict)
    """Tracked speedups, gated against a baseline at the relative tolerance."""

    serving: dict[str, dict[str, object]] = field(default_factory=dict)
    """Serving metrics as ``{"value": v, "better": "lower" | "higher"}``,
    gated behind the widened latency fence."""

    counters: dict[str, float] = field(default_factory=dict)
    """Lifecycle counters: their presence is gated, their values are not."""

    equivalence: list[dict[str, object]] = field(default_factory=list)
    """``{"probe", "max_abs_diff", "tolerance"}`` per equivalence probe,
    with the probe's qualified name."""

    def gate(self, probe: str, max_abs_diff: float, tolerance: float) -> None:
        """Add one equivalence probe."""
        self.equivalence.append(
            {"probe": probe, "max_abs_diff": max_abs_diff, "tolerance": tolerance}
        )


# --------------------------------------------------------------------------
# Shared probe setup


def build_encoder(
    workload: WorkloadSpec, num_layers: int, rng: np.random.Generator | int | None
) -> DeformableEncoder:
    """A :class:`DeformableEncoder` at the workload's model geometry."""
    model = workload.model
    return DeformableEncoder(
        num_layers=num_layers,
        d_model=model.d_model,
        num_heads=model.num_heads,
        num_levels=model.num_levels,
        num_points=model.num_points,
        ffn_dim=model.ffn_dim,
        activation=model.activation,
        rng=rng,
    )


def _image_inputs(
    workload: WorkloadSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Synthetic features plus the positional encoding and reference points
    of one image of the workload."""
    shapes = workload.spatial_shapes
    d_model = workload.model.d_model
    features = rng.standard_normal((workload.num_tokens, d_model)).astype(FLOAT_DTYPE)
    return features, sine_positional_encoding(shapes, d_model), make_reference_points(shapes)


def _masked_block(
    workload: WorkloadSpec, config: DEFAConfig, sparse_mode: str, rng: np.random.Generator
) -> tuple[DEFAAttention, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(defa, query, reference_points, features, fmap_mask)``: an
    :class:`MSDeformAttn` block at the workload's model geometry and the FWP
    mask a first (unmasked) block generates for it — the realistic input of
    the second block, which the probes time."""
    model = workload.model
    attn = MSDeformAttn(
        d_model=model.d_model,
        num_heads=model.num_heads,
        num_levels=model.num_levels,
        num_points=model.num_points,
        rng=rng,
    )
    features, pos, reference_points = _image_inputs(workload, rng)
    query = features + pos
    defa = DEFAAttention(attn, config, ExecutionOptions(sparse_mode=sparse_mode))
    first = defa.forward_detailed(
        query, reference_points, features, workload.spatial_shapes,
        options=ExecutionOptions(kernel_backend="reference"),
    )
    return defa, query, reference_points, features, first.fmap_mask_next.copy()


def _lockstep_drift(
    dense: DEFAEncoderRunner,
    sparse: DEFAEncoderRunner,
    x: np.ndarray,
    pos: np.ndarray,
    reference_points: np.ndarray,
    shapes: list[LevelShape],
    masks: list[np.ndarray | None] | None = None,
) -> float:
    """Max dense/sparse block-output drift over one lockstep encoder pass.

    At every block both runners receive the dense trajectory's block input
    and the same incoming FWP mask — ``masks[index]`` when given, otherwise
    the mask the dense previous block generated — their attention plus
    inter-block-stage outputs are compared, and the dense output is carried
    forward.  Identical inputs mean identical threshold decisions, so the
    generated masks must agree exactly (integer frequency counting); if they
    ever do not, that is an execution-path bug and the drift is ``inf``.
    """
    drift = 0.0
    fmap_mask = None
    for index, layer in enumerate(dense.encoder.layers):
        if masks is not None:
            fmap_mask = masks[index]
        outs = []
        for runner in (dense, sparse):
            attn_out = runner.defa_layers[index].forward_detailed(
                x + pos, reference_points, x, shapes, fmap_mask=fmap_mask
            )
            keep_mask, compact = runner.ffn_stage_plan(
                fmap_mask, x.shape[0], runner.resolved_backend()
            )
            out = layer.forward_ffn_stage(
                x, attn_out.output, keep_mask=keep_mask, compact=compact
            )
            outs.append((out, attn_out.fmap_mask_next))
        (out_dense, mask_next), (out_sparse, sparse_mask_next) = outs
        drift = max(drift, float(np.max(np.abs(out_dense - out_sparse))))
        if not np.array_equal(mask_next, sparse_mask_next):
            return float("inf")
        x, fmap_mask = out_dense, mask_next
    return drift


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.max(np.abs(a - b)))


# --------------------------------------------------------------------------
# Batched-engine profiling


@dataclass(frozen=True)
class BatchedThroughputReport:
    """Measured batched-vs-serial wall clock of one same-shape workload."""

    batch_size: int
    num_tokens: int
    """Flattened multi-scale tokens per image."""

    d_model: int
    timings: Timings
    """Variants ``serial`` (the single-image loop over the batch) and
    ``batched`` (one batched forward)."""

    max_abs_diff: float
    """Max elementwise deviation of the batched output from the serial loop."""

    @property
    def speedup(self) -> float:
        """Serial-over-batched wall-clock ratio (> 1 means batching wins)."""
        return self.timings.ratio("serial", "batched")


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
    forward — and reports the interleaved best-of-*repeats* wall clock of
    each, plus the maximum elementwise deviation between the two results
    (the equivalence the batched kernels guarantee).
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
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

    max_abs_diff = _max_abs_diff(run_serial(), run_batched())  # warm-up + reference
    return BatchedThroughputReport(
        batch_size=batch_size,
        num_tokens=n_in,
        d_model=d_model,
        timings=time_interleaved({"serial": run_serial, "batched": run_batched}, repeats),
        max_abs_diff=max_abs_diff,
    )


# --------------------------------------------------------------------------
# Sparse-execution profiling


@dataclass(frozen=True)
class SparseSpeedupReport:
    """Dense-vs-sparse wall clock of one DEFA block at one operating point."""

    workload: str
    fwp_k: float
    pap_threshold: float
    pixel_reduction: float
    """Fraction of fmap pixels pruned by the incoming FWP mask."""

    point_reduction: float
    """Fraction of sampling points pruned by PAP in the timed block."""

    timings: Timings
    """Variants ``dense`` (the masked-dense block forward) and ``sparse``
    (the compacted-kernel block forward)."""

    max_abs_diff: float
    """Max elementwise deviation between the two block outputs."""

    dense_kernels: dict[str, float]
    """Per-section seconds of one dense forward (projection/gather/...)."""

    sparse_kernels: dict[str, float]
    """Per-section seconds of one sparse forward."""

    @property
    def speedup(self) -> float:
        """Dense-over-sparse wall-clock ratio (> 1 means sparse wins)."""
        return self.timings.ratio("dense", "sparse")


SPARSE_SWEEP_OPERATING_POINTS: tuple[tuple[float, float], ...] = (
    (0.0, 0.0),
    (0.5, 0.01),
    (0.75, 0.035),
    (1.0, 0.035),
    (1.15, 0.05),
)
"""The ``(fwp_k, pap_threshold)`` sweep of the sparse-speedup benchmark.

Reduction grows along the sweep: the paper operating point sits in the
middle, ``fwp_k = 1.0`` yields roughly the 50 % pixel reduction quoted as the
benchmark target at the paper scale, and the extremes bracket no pruning and
aggressive pruning.  ``fwp_k == 0`` disables FWP, ``pap_threshold == 0``
disables PAP."""


def sweep_sparse_speedup(
    scale: str = "paper", repeats: int = 3, rng_seed: int = 0
) -> list[SparseSpeedupReport]:
    """Dense-vs-sparse speedup sweep of Deformable DETR (INT12) over
    :data:`SPARSE_SWEEP_OPERATING_POINTS`.

    Every operating point re-seeds the generator with *rng_seed*, so all
    points see identical synthetic weights and features and the measured
    reduction ratios are directly comparable.

    Query pruning (sparse execution v2) extends the FWP mask to the query
    side in *both* timed paths: pruned pixels stop acting as queries, the
    dense path zeroes their rows, the sparse path skips their projections
    and sampling points entirely.  The reported ``point_reduction``
    therefore includes the points of pruned queries.
    """
    workload = get_workload("deformable_detr", scale)
    reports = []
    for fwp_k, pap_threshold in SPARSE_SWEEP_OPERATING_POINTS:
        config = DEFAConfig(
            enable_fwp=fwp_k > 0,
            fwp_k=fwp_k if fwp_k > 0 else 0.75,
            enable_pap=pap_threshold > 0,
            pap_threshold=pap_threshold,
            enable_query_pruning=True,
        )
        reports.append(
            measure_sparse_speedup(workload, config, repeats=repeats, rng=rng_seed)
        )
    return reports


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
    config = config or DEFAConfig()
    defa, query, reference_points, features, fmap_mask = _masked_block(
        workload, config, "dense", as_rng(rng)
    )
    shapes = workload.spatial_shapes

    def run(mode: str):
        defa.sparse_mode = mode
        return defa.forward_detailed(
            query, reference_points, features, shapes, fmap_mask=fmap_mask
        )

    dense_out = run("dense")  # warm-up + reference
    max_abs_diff = _max_abs_diff(dense_out.output, run("sparse").output)
    stats = dense_out.stats
    del dense_out  # release the big trace before timing

    timings = time_interleaved(
        {"dense": lambda: run("dense"), "sparse": lambda: run("sparse")}, repeats
    )
    with collect_kernel_timings() as dense_kernels:
        run("dense")
    with collect_kernel_timings() as sparse_kernels:
        run("sparse")
    return SparseSpeedupReport(
        workload=workload.name,
        fwp_k=config.fwp_k if config.enable_fwp else 0.0,
        pap_threshold=config.pap_threshold if config.enable_pap else 0.0,
        pixel_reduction=stats.pixel_reduction,
        point_reduction=stats.point_reduction,
        timings=timings,
        max_abs_diff=max_abs_diff,
        dense_kernels=dict(dense_kernels.seconds),
        sparse_kernels=dict(sparse_kernels.seconds),
    )


# --------------------------------------------------------------------------
# Block-sparse encoder profiling


@dataclass(frozen=True)
class EncoderSparseSpeedupReport:
    """End-to-end encoder wall clock of the block-sparse execution profiles.

    All runs execute the *same* block-sparse-encoder semantics (query
    pruning on, pruned rows frozen at the block input); they differ only in
    which stages run compacted and on which kernel backend.  The
    :attr:`timings` variants:

    * ``dense`` — everything masked-dense (pruning changes numerics only);
    * ``sparse_dense_ffn`` — sparse attention blocks, masked-dense
      inter-block FFN/LayerNorm stage;
    * ``sparse`` — the full block-sparse encoder (row-compacted FFN stage)
      on the ``"reference"`` kernel backend;
    * ``sparse_fused`` — the same block-sparse encoder on the ``"fused"``
      backend (single-pass kernels + execution-plan buffer reuse).
      Bit-identical outputs, so :attr:`fused_max_abs_diff` must be 0;
    * ``sparse_compiled`` — the same on the ``"compiled"`` backend, present
      only when the compiled kernel library is built on this host.
    """

    workload: str
    fwp_k: float
    pap_threshold: float
    num_layers: int
    pixel_reduction: float
    """Mean FWP pixel reduction over the masked blocks (2..L)."""

    timings: Timings

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

    mask_trajectory_matched: bool
    """Whether both runs generated bit-identical FWP masks in every block
    (exact mask comparison, not just keep counts — a count-preserving flip
    would still diverge the trajectories)."""

    compiled_max_abs_diff: float | None = None
    """Max elementwise deviation of the compiled-backend memory from the
    fused-backend memory; gated at the compiled backend's tolerance tier
    (:data:`repro.kernels.compiled_backend.COMPILED_EQUIVALENCE_TOL`, 0.0)."""

    @property
    def speedup(self) -> float:
        """Dense-over-block-sparse encoder wall-clock ratio."""
        return self.timings.ratio("dense", "sparse")

    @property
    def ffn_speedup(self) -> float:
        """Additional end-to-end win of the compacted FFN stage over sparse
        attention with dense inter-block work."""
        return self.timings.ratio("sparse_dense_ffn", "sparse")

    @property
    def fused_speedup(self) -> float:
        """Additional end-to-end win of the fused backend + execution plans
        over the block-sparse path on the reference backend."""
        return self.timings.ratio("sparse", "sparse_fused")

    @property
    def compiled_speedup(self) -> float | None:
        """Additional end-to-end win of the compiled C kernels over the fused
        numpy backend (``None`` when the compiled backend was not measured)."""
        if "sparse_compiled" not in self.timings.best_s:
            return None
        return self.timings.ratio("sparse_fused", "sparse_compiled")


def measure_encoder_sparse_speedup(
    workload: WorkloadSpec,
    num_layers: int = 3,
    repeats: int = 3,
    rng: np.random.Generator | int | None = None,
) -> EncoderSparseSpeedupReport:
    """Time a full DEFA encoder in the block-sparse execution profiles, at
    ``fwp_k=1.0`` with query pruning.

    Builds a :class:`DeformableEncoder` at the workload's model geometry
    (*num_layers* blocks; the first block never receives a mask, so at least
    two layers are required for any pruning to execute) and one
    :class:`DEFAEncoderRunner` with query pruning semantics, then times the
    :class:`EncoderSparseSpeedupReport` variants interleaved
    best-of-*repeats*.  All see identical inputs and produce the same memory
    (``max_abs_diff`` reports dense vs. full-sparse; ``fused_max_abs_diff``
    reports fused vs. reference, which must be 0), so
    :attr:`EncoderSparseSpeedupReport.ffn_speedup` isolates the win of
    carrying FWP pruning through the FFN/LayerNorm stage and
    :attr:`EncoderSparseSpeedupReport.fused_speedup` the win of the fused
    backend over the reference one.
    """
    if num_layers < 2:
        raise ValueError("num_layers must be >= 2 (the first block is never masked)")
    config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
    rng = as_rng(rng)
    shapes = workload.spatial_shapes
    encoder = build_encoder(workload, num_layers, rng)
    features, pos, reference_points = _image_inputs(workload, rng)
    runner = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="dense"))

    def run(mode: str, sparse_ffn: bool, backend: str = "reference"):
        runner.sparse_mode = mode
        runner.enable_sparse_ffn = sparse_ffn
        runner.kernel_backend = backend
        return runner.forward(features, pos, reference_points, shapes)

    variants = {
        "dense": lambda: run("dense", False),
        "sparse_dense_ffn": lambda: run("sparse", False),
        "sparse": lambda: run("sparse", True),
        "sparse_fused": lambda: run("sparse", True, backend="fused"),
    }
    dense_res = run("dense", False)  # warm-up + reference
    sparse_res = run("sparse", True)
    fused_res = run("sparse", True, backend="fused")  # also warms the plan arena
    max_abs_diff = _max_abs_diff(dense_res.memory, sparse_res.memory)
    fused_max_abs_diff = _max_abs_diff(sparse_res.memory, fused_res.memory)
    compiled_max_abs_diff = None
    if COMPILED_AVAILABLE:
        variants["sparse_compiled"] = lambda: run("sparse", True, backend="compiled")
        compiled_max_abs_diff = _max_abs_diff(
            fused_res.memory, variants["sparse_compiled"]().memory
        )
    pixel_reduction = sparse_res.mean_pixel_reduction
    # Exact per-block mask comparison (keep counts alone would miss a
    # count-preserving flip, which still diverges the trajectories).
    mask_trajectory_matched = all(
        np.array_equal(a, b)
        for a, b in zip(dense_res.fmap_masks, sparse_res.fmap_masks)
    )
    del dense_res, sparse_res, fused_res

    return EncoderSparseSpeedupReport(
        workload=workload.name,
        fwp_k=config.fwp_k if config.enable_fwp else 0.0,
        pap_threshold=config.pap_threshold if config.enable_pap else 0.0,
        num_layers=num_layers,
        pixel_reduction=pixel_reduction,
        timings=time_interleaved(variants, repeats),
        fused_max_abs_diff=fused_max_abs_diff,
        max_abs_diff=max_abs_diff,
        mask_trajectory_matched=mask_trajectory_matched,
        compiled_max_abs_diff=compiled_max_abs_diff,
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
    block input and incoming FWP mask (:func:`_lockstep_drift`).  Identical
    inputs mean identical threshold decisions, so the returned maximum is a
    machine-independent measure of pure execution-path drift — 1e-5 for fp32
    configs, a few quantization steps for INT12 — while still exercising
    masks that evolve block to block.
    """
    if num_layers < 2:
        raise ValueError("num_layers must be >= 2 (the first block is never masked)")
    config = config or DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
    rng = as_rng(rng)
    encoder = build_encoder(workload, num_layers, rng)
    features, pos, reference_points = _image_inputs(workload, rng)
    dense = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="dense"))
    sparse = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="sparse"))
    return _lockstep_drift(
        dense, sparse, features, pos, reference_points, workload.spatial_shapes
    )


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
    cold end-to-end diffs are algorithm diagnostics, not execution gates.
    This probe applies the same lockstep discipline as
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
    d_model = workload.model.d_model
    encoder = build_encoder(workload, num_layers, rng)
    session = StreamingEncoderSession(
        encoder,
        config,
        shapes,
        StreamingConfig(keyframe_interval=max(num_frames, 2)),
    )
    stream = SyntheticVideoStream(
        shapes,
        d_model,
        VideoStreamSpec(num_frames=num_frames, seed=int(rng.integers(1 << 31))),
    )
    pos = sine_positional_encoding(shapes, d_model)
    reference_points = make_reference_points(shapes)
    # Sessions force query pruning on; mirror that for the replay runners so
    # all three agree on the frozen-row convention.
    config = session.config
    dense = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="dense"))
    sparse = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="sparse"))

    max_drift = 0.0
    for frame_index in range(num_frames):
        features = stream.frame(frame_index)
        result = session.process(features, frame_index)
        if result.kind == "reused":
            continue  # no forward ran; nothing to replay
        max_drift = max(
            max_drift,
            _lockstep_drift(
                dense, sparse, features, pos, reference_points, shapes,
                masks=result.incoming_masks,
            ),
        )
    return max_drift


# --------------------------------------------------------------------------
# Kernel-fusion profiling


@dataclass(frozen=True)
class KernelFusionReport:
    """Fused-vs-reference backend comparison of one sparse DEFA block.

    Every run executes the identical sparse path (same inputs, same masks,
    same ``sparse_mode="sparse"``): the reference backend as the plan-less
    block, the fused and compiled backends as the planned block the runner
    executes.  ``max_abs_diff`` measures their numerical agreement on the
    kept query rows — which is exactly 0 by construction (the planned block
    performs the same float operations in the same order).
    """

    workload: str
    timings: Timings
    """Variants ``reference``, ``fused`` (steady state: the execution-plan
    arena is warmed before timing) and, when the compiled kernel library is
    built on this host, ``compiled`` (steady state, own warmed plan)."""

    max_abs_diff: float
    """Max elementwise deviation between the reference and fused outputs
    (0 expected)."""

    compiled_max_abs_diff: float | None = None
    """Max elementwise deviation of the compiled-backend output from the
    fused-backend output; gated at the compiled backend's tolerance tier
    (:data:`repro.kernels.compiled_backend.COMPILED_EQUIVALENCE_TOL`, 0.0)."""

    @property
    def speedup(self) -> float:
        """Reference-over-fused wall-clock ratio (> 1 means fusion wins)."""
        return self.timings.ratio("reference", "fused")

    @property
    def compiled_speedup(self) -> float | None:
        """Fused-over-compiled wall-clock ratio (> 1 means the C kernels
        win); ``None`` when the compiled backend was not measured."""
        if "compiled" not in self.timings.best_s:
            return None
        return self.timings.ratio("fused", "compiled")


def measure_kernel_fusion(
    workload: WorkloadSpec,
    repeats: int = 3,
    rng: np.random.Generator | int | None = None,
) -> KernelFusionReport:
    """Time one sparse DEFA block on the reference vs the fused backend, at
    ``fwp_k=1.0`` with query pruning.

    The block setup is :func:`measure_sparse_speedup`'s (a first unmasked
    block produces a realistic FWP mask; the timed block receives it), but
    every timed run uses ``sparse_mode="sparse"`` and only the kernel backend
    differs.  The reference run is the plan-less
    :meth:`~repro.core.pipeline.DEFAAttention.forward_detailed`; the fused
    (and compiled) runs are the runner's planned block,
    :meth:`~repro.core.pipeline.DEFAAttention.forward_kept_rows` on the kept
    query rows, each in its own :class:`~repro.kernels.ExecutionPlan`
    warmed before timing, so their numbers reflect steady-state (warm-arena)
    execution.  The query's pruned rows are zero, as the runner's are, so
    the INT12 scales of the kept rows equal the full query's.
    """
    config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
    defa, query, reference_points, features, fmap_mask = _masked_block(
        workload, config, "sparse", as_rng(rng)
    )
    shapes = workload.spatial_shapes
    query[~fmap_mask] = 0
    kept = np.flatnonzero(fmap_mask)
    backends = ("fused",) + (("compiled",) if COMPILED_AVAILABLE else ())
    reference_options = ExecutionOptions(kernel_backend="reference")

    def planned(name: str):
        backend, plan = resolve_backend(name), ExecutionPlan()  # steady state per backend
        return lambda: defa.forward_kept_rows(
            plan.take("query", query, kept), kept, reference_points,
            features[None], shapes, fmap_mask[None], backend, plan,
        )

    variants = {
        "reference": lambda: defa.forward_detailed(
            query, reference_points, features, shapes,
            fmap_mask=fmap_mask, options=reference_options,
        )
    }
    variants.update((name, planned(name)) for name in backends)
    outputs = {name: run().output for name, run in variants.items()}  # warm-up
    return KernelFusionReport(
        workload=workload.name,
        timings=time_interleaved(variants, repeats),
        max_abs_diff=_max_abs_diff(outputs["reference"][kept], outputs["fused"]),
        compiled_max_abs_diff=(
            _max_abs_diff(outputs["fused"], outputs["compiled"])
            if COMPILED_AVAILABLE
            else None
        ),
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

    elapsed_s: float
    """Wall clock of the whole replay (first submit to last completion)."""

    timings: Timings
    """Variant ``serial``: the serial per-image reference loop."""

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
        serial_s = self.timings.best_s["serial"]
        return self.elapsed_s / serial_s if serial_s > 0 else float("inf")


def measure_serving_latency(
    model_bank_factory,
    events,
    config=None,
    speed: float = 0.0,
    kill_worker_at: int | None = None,
    repeats: int = 2,
    fault_plan=None,
) -> ServingLatencyReport:
    """Replay a traffic stream through a :class:`ServingEngine` and profile it.

    Builds the model bank once locally for the serial per-image reference
    (timed best-of-*repeats*), then starts an engine under *config*, replays
    *events* at *speed* (``0`` = open loop, as fast as possible) and compares
    every served output bit-for-bit against the reference.
    ``kill_worker_at=k`` SIGKILLs worker 0 right after the *k*-th submit, so
    the profile covers the death -> degraded -> restart path.

    ``model_bank_factory`` may also be a
    :class:`~repro.engine.serving.ModelBankSpec` directly, which
    ``fault_plan`` requires: it threads a
    :class:`~repro.engine.faults.FaultPlan` into the spec and so the engine's
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

    config = config or ServingConfig()
    if isinstance(model_bank_factory, ModelBankSpec):
        if fault_plan is not None:
            from dataclasses import replace

            model_bank_factory = replace(model_bank_factory, fault_plan=fault_plan)
        model_bank_factory = model_bank_factory.build
    elif fault_plan is not None:
        raise TypeError("fault_plan needs a ModelBankSpec, not a bank factory")
    bank = ModelBank.coerce(model_bank_factory())
    reference = serial_reference_outputs(bank, events)  # warm-up + reference
    timings = time_interleaved(
        {"serial": lambda: serial_reference_outputs(bank, events)}, repeats
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
        max_abs_diff = max(max_abs_diff, _max_abs_diff(served, expected))
    return ServingLatencyReport(
        num_requests=len(events),
        num_workers=config.num_workers,
        num_batches=stats.num_batches,
        mean_batch_size=stats.mean_batch_size,
        p50_s=stats.latency_quantile(50),
        p99_s=stats.latency_quantile(99),
        elapsed_s=replay.elapsed_s,
        timings=timings,
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
