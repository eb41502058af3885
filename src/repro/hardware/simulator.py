"""Top-level DEFA performance/energy simulator.

:class:`DEFASimulator` glues the pieces together: it turns pruning results
(from the algorithm level) or summary ratios into :class:`LayerWorkload`
records, builds the block schedule, and evaluates cycles, runtime, memory
traffic, energy and power for a whole encoder.  The ablation switches
(operator fusion, fmap reuse, banking scheme) and the throughput scaling used
for the GPU comparison are all exposed here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.encoder_runner import DEFAEncoderResult
from repro.core.pipeline import DEFAAttentionOutput
from repro.hardware.banking import BankingScheme, simulate_bank_conflicts
from repro.hardware.config import HardwareConfig
from repro.hardware.dataflow import LayerSchedule, LayerWorkload, build_layer_schedule
from repro.hardware.energy import EnergyBreakdown, EnergyModel
from repro.workloads.specs import WorkloadSpec


@dataclass
class LayerSimulationReport:
    """Performance/energy results of one MSDeformAttn block."""

    schedule: LayerSchedule
    compute_cycles: int
    compute_time_s: float
    dram_time_s: float
    time_s: float
    energy: EnergyBreakdown
    dense_ops: int
    """Dense-equivalent operation count (2 x MACs of the unpruned block)."""


@dataclass
class ModelSimulationReport:
    """Aggregated results over all MSDeformAttn blocks of an encoder."""

    layers: list[LayerSimulationReport] = field(default_factory=list)

    @property
    def time_s(self) -> float:
        return float(sum(layer.time_s for layer in self.layers))

    @property
    def energy(self) -> EnergyBreakdown:
        total = EnergyBreakdown()
        for layer in self.layers:
            total = total.merged_with(layer.energy)
        return total

    @property
    def dense_ops(self) -> int:
        return int(sum(layer.dense_ops for layer in self.layers))

    @property
    def effective_tops(self) -> float:
        """Dense-equivalent throughput in TOPS."""
        return self.dense_ops / self.time_s / 1e12 if self.time_s > 0 else 0.0

    @property
    def chip_power_w(self) -> float:
        """Average on-chip power (SRAM + logic, excluding DRAM) during execution."""
        if self.time_s == 0:
            return 0.0
        chip_energy = sum(layer.energy.sram_j + layer.energy.logic_j for layer in self.layers)
        return chip_energy / self.time_s

    @property
    def energy_per_inference_j(self) -> float:
        """Total energy of the simulated blocks (one inference worth)."""
        return self.energy.total_j


class DEFASimulator:
    """Cycle-approximate simulator of the DEFA accelerator.

    Parameters
    ----------
    config:
        Hardware configuration (defaults to the paper's base design point).
    fuse_msgs_aggregation, fmap_reuse, banking:
        Ablation switches reproducing the paper's hardware experiments.
    """

    def __init__(
        self,
        config: HardwareConfig | None = None,
        fuse_msgs_aggregation: bool = True,
        fmap_reuse: bool = True,
        banking: BankingScheme | str = BankingScheme.INTER_LEVEL,
    ) -> None:
        self.config = config or HardwareConfig()
        self.fuse_msgs_aggregation = fuse_msgs_aggregation
        self.fmap_reuse = fmap_reuse
        self.banking = BankingScheme(banking)
        self.energy_model = EnergyModel(self.config)

    # ------------------------------------------------------------ workloads

    def layer_workload_from_defa(self, output: DEFAAttentionOutput) -> LayerWorkload:
        """Build a :class:`LayerWorkload` from a detailed DEFA attention output.

        The bank-conflict factors of both banking schemes are measured by
        replaying the block's actual sampling trace.
        """
        stats = output.stats
        # Sparse-path outputs carry a compacted trace; the simulator replays
        # every point, so materialize the full trace on demand.
        trace = output.trace
        n_q, n_h, n_l, n_p = output.point_mask.shape
        active = trace.valid & output.point_mask[..., None]
        neighbor_accesses = int(np.count_nonzero(active))
        touched = trace.flat_indices[active]
        unique_pixels = int(np.unique(touched).size) if touched.size else 0

        intra = simulate_bank_conflicts(
            trace, BankingScheme.INTRA_LEVEL, point_mask=output.point_mask, num_banks=self.config.num_banks
        )
        inter = simulate_bank_conflicts(
            trace, BankingScheme.INTER_LEVEL, point_mask=output.point_mask, num_banks=self.config.num_banks
        )
        d_model = output.output.shape[1]
        return LayerWorkload(
            num_queries=stats.num_queries,
            num_tokens=stats.num_tokens,
            d_model=d_model,
            num_heads=n_h,
            num_levels=n_l,
            num_points=n_p,
            points_kept=stats.points_kept,
            pixels_kept=stats.pixels_kept,
            unique_pixels_accessed=unique_pixels,
            neighbor_accesses=neighbor_accesses,
            intra_conflict_factor=max(1.0, intra.cycles_per_group),
            inter_conflict_factor=max(1.0, inter.cycles_per_group),
        )

    def workloads_from_encoder_result(self, result: DEFAEncoderResult) -> list[LayerWorkload]:
        """Layer workloads for every block of a detailed encoder run."""
        if not result.layer_outputs:
            raise ValueError(
                "encoder result has no detailed layer outputs; run the encoder "
                "with collect_details=True"
            )
        return [self.layer_workload_from_defa(out) for out in result.layer_outputs]

    def workloads_from_ratios(
        self,
        spec: WorkloadSpec,
        point_keep_ratio: float,
        pixel_keep_ratio: float,
        unique_pixel_ratio: float = 0.6,
        intra_conflict_factor: float = 3.0,
    ) -> list[LayerWorkload]:
        """Analytic layer workloads for paper-scale projections.

        The first block never has an incoming FWP mask, so its pixel keep
        ratio is 1; subsequent blocks use *pixel_keep_ratio*.
        """
        workloads = []
        for layer in range(spec.model.num_encoder_layers):
            workloads.append(
                LayerWorkload.from_ratios(
                    num_queries=spec.num_queries,
                    num_tokens=spec.num_tokens,
                    d_model=spec.model.d_model,
                    num_heads=spec.model.num_heads,
                    num_levels=spec.model.num_levels,
                    num_points=spec.model.num_points,
                    point_keep_ratio=point_keep_ratio,
                    pixel_keep_ratio=1.0 if layer == 0 else pixel_keep_ratio,
                    unique_pixel_ratio=unique_pixel_ratio,
                    intra_conflict_factor=intra_conflict_factor,
                )
            )
        return workloads

    # ------------------------------------------------------------ simulation

    def simulate_layer(self, workload: LayerWorkload) -> LayerSimulationReport:
        """Simulate one MSDeformAttn block."""
        schedule = build_layer_schedule(
            workload,
            self.config,
            fuse_msgs_aggregation=self.fuse_msgs_aggregation,
            fmap_reuse=self.fmap_reuse,
            banking=self.banking,
        )
        compute_cycles = schedule.compute_cycles
        compute_time = compute_cycles * self.config.clock_period_ns * 1e-9
        dram_time = schedule.dram_bytes / (self.config.dram_bandwidth_gbs * 1e9)
        time_s = max(compute_time, dram_time)
        energy = self.energy_model.layer_energy(schedule)
        dense_workload = LayerWorkload.dense(
            num_queries=workload.num_queries,
            num_tokens=workload.num_tokens,
            d_model=workload.d_model,
            num_heads=workload.num_heads,
            num_levels=workload.num_levels,
            num_points=workload.num_points,
        )
        dense_schedule = build_layer_schedule(dense_workload, self.config)
        dense_ops = 2 * dense_schedule.total_macs + dense_schedule.total_bi_ops * 8
        return LayerSimulationReport(
            schedule=schedule,
            compute_cycles=compute_cycles,
            compute_time_s=compute_time,
            dram_time_s=dram_time,
            time_s=time_s,
            energy=energy,
            dense_ops=dense_ops,
        )

    def simulate_layers(self, workloads: list[LayerWorkload]) -> ModelSimulationReport:
        """Simulate a sequence of blocks (one encoder's MSDeformAttn layers)."""
        return ModelSimulationReport(layers=[self.simulate_layer(w) for w in workloads])

    def simulate_from_ratios(
        self,
        spec: WorkloadSpec,
        point_keep_ratio: float,
        pixel_keep_ratio: float,
        unique_pixel_ratio: float = 0.6,
        intra_conflict_factor: float = 3.0,
    ) -> ModelSimulationReport:
        """Simulate a workload described only by summary pruning ratios."""
        workloads = self.workloads_from_ratios(
            spec,
            point_keep_ratio=point_keep_ratio,
            pixel_keep_ratio=pixel_keep_ratio,
            unique_pixel_ratio=unique_pixel_ratio,
            intra_conflict_factor=intra_conflict_factor,
        )
        return self.simulate_layers(workloads)
