"""GPU cost model for the MSDeformAttn workload (RTX 2080Ti / 3090Ti).

The paper compares DEFA against the CUDA implementation of MSDeformAttn on an
RTX 2080Ti and an RTX 3090Ti.  No GPU is available offline, so this module
provides a roofline-style cost model with three regimes:

* dense projections are compute-bound at a GPU- and size-dependent GEMM
  efficiency (medium-sized encoder GEMMs do not saturate a large GPU, which is
  why the 3090Ti's efficiency is lower than the 2080Ti's),
* element-wise stages (softmax, aggregation) are bandwidth-bound,
* the grid-sampling gather is *transaction-bound*: every bilinear neighbour
  access touches a different cache line, so throughput is set by the number of
  memory transactions the GPU can keep in flight rather than by peak
  bandwidth — this is the irregular-access bottleneck the paper identifies.

The efficiency constants are calibrated against the published evidence: the
MSGS + aggregation share of MSDeformAttn latency (Fig. 1b, 60-64 %) and the
relative speedups of Fig. 9.  They are exposed as :class:`GPUSpec` fields so
the sensitivity of every conclusion to the GPU model can be explored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.workloads.specs import WorkloadSpec

FP32_BYTES = 4


@dataclass(frozen=True)
class GPUSpec:
    """Performance-relevant parameters of one GPU."""

    name: str
    peak_fp32_tflops: float
    bandwidth_gbs: float
    board_power_w: float
    mm_efficiency: float
    """Fraction of peak FLOPs achieved on the encoder's GEMM shapes."""

    elementwise_efficiency: float = 0.5
    """Fraction of peak bandwidth achieved on element-wise kernels."""

    gather_transactions_per_s: float = 1.0e10
    """Irregular memory transactions the GPU sustains per second."""

    transaction_bytes: int = 64
    """Granularity of one gather transaction (a sector / half cache line)."""

    kernel_overhead_s: float = 1.5e-4
    """Fixed per-layer overhead (kernel launches, tensor reshapes)."""


RTX_2080TI = GPUSpec(
    name="RTX 2080Ti",
    peak_fp32_tflops=13.5,
    bandwidth_gbs=616.0,
    board_power_w=250.0,
    mm_efficiency=0.55,
    gather_transactions_per_s=8.5e9,
)

RTX_3090TI = GPUSpec(
    name="RTX 3090Ti",
    peak_fp32_tflops=40.0,
    bandwidth_gbs=1008.0,
    board_power_w=450.0,
    mm_efficiency=0.17,
    gather_transactions_per_s=1.0e10,
)


@dataclass(frozen=True)
class GPULayerLatency:
    """Per-operator latency of one MSDeformAttn layer on a GPU (seconds)."""

    value_proj_s: float
    sampling_offsets_s: float
    attention_weights_s: float
    output_proj_s: float
    softmax_s: float
    msgs_s: float
    aggregation_s: float
    overhead_s: float

    @property
    def msgs_aggregation_s(self) -> float:
        """Latency of the MSGS + aggregation stage (the Fig. 1b numerator)."""
        return self.msgs_s + self.aggregation_s

    @property
    def others_s(self) -> float:
        """Latency of everything else in the MSDeformAttn layer."""
        return (
            self.value_proj_s
            + self.sampling_offsets_s
            + self.attention_weights_s
            + self.output_proj_s
            + self.softmax_s
            + self.overhead_s
        )

    @property
    def total_s(self) -> float:
        return self.msgs_aggregation_s + self.others_s

    @property
    def msgs_fraction(self) -> float:
        """Fraction of the layer latency spent in MSGS + aggregation (Fig. 1b)."""
        return self.msgs_aggregation_s / self.total_s if self.total_s > 0 else 0.0


class GPUCostModel:
    """Latency / energy model of MSDeformAttn encoder layers on one GPU."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------- operators

    def _gemm_time(self, flops: float) -> float:
        return flops / (self.spec.peak_fp32_tflops * 1e12 * self.spec.mm_efficiency)

    def _elementwise_time(self, num_bytes: float) -> float:
        return num_bytes / (self.spec.bandwidth_gbs * 1e9 * self.spec.elementwise_efficiency)

    def _gather_time(self, num_accesses: float, bytes_per_access: float) -> float:
        transactions = num_accesses * max(
            1.0, float(np.ceil(bytes_per_access / self.spec.transaction_bytes))
        )
        return transactions / self.spec.gather_transactions_per_s

    # ----------------------------------------------------------------- layer

    def msdeform_layer_latency(self, workload: WorkloadSpec) -> GPULayerLatency:
        """Latency breakdown of one dense MSDeformAttn layer."""
        flops = workload.layer_flops_breakdown()
        d_head = workload.d_head
        points_total = workload.num_sampling_points_per_layer
        n_q = workload.num_queries
        points_per_query = workload.num_sampling_points_per_query

        softmax_bytes = 2 * n_q * points_per_query * FP32_BYTES
        aggregation_bytes = points_total * d_head * FP32_BYTES
        return GPULayerLatency(
            value_proj_s=self._gemm_time(flops["value_proj"]),
            sampling_offsets_s=self._gemm_time(flops["sampling_offsets"]),
            attention_weights_s=self._gemm_time(flops["attention_weights"]),
            output_proj_s=self._gemm_time(flops["output_proj"]),
            softmax_s=self._elementwise_time(softmax_bytes),
            msgs_s=self._gather_time(points_total * 4, d_head * FP32_BYTES),
            aggregation_s=self._elementwise_time(aggregation_bytes),
            overhead_s=self.spec.kernel_overhead_s,
        )

    def encoder_attention_latency(self, workload: WorkloadSpec) -> float:
        """Latency of all MSDeformAttn layers of the workload's encoder (seconds)."""
        return self.msdeform_layer_latency(workload).total_s * workload.model.num_encoder_layers

    def encoder_attention_energy(self, workload: WorkloadSpec) -> float:
        """Energy of all MSDeformAttn layers (joules), at the board power."""
        return self.encoder_attention_latency(workload) * self.spec.board_power_w
