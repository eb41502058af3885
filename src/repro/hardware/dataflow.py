"""Operator schedule of one MSDeformAttn block on the DEFA accelerator.

The dataflow follows Sec. 4.1 of the paper:

1. ``Q W^A`` + softmax (MM mode) → point mask (PAP),
2. masked ``Delta P = Q W^S`` (MM mode),
3. masked ``V = X W^V`` (MM mode) using the FWP mask of the previous block,
4. fused MSGS + aggregation (BA mode) while the fmap mask generator counts
   sampled frequencies for the next block,
5. output projection (MM mode).

:func:`build_layer_schedule` turns a :class:`LayerWorkload` (how much work
survives pruning, how well fmap pixels are reused, how often banks conflict)
into a list of :class:`Phase` records with cycle counts and memory traffic,
under configurable ablation switches (operator fusion on/off, fmap reuse
on/off, intra- vs inter-level banking).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.banking import BankingScheme
from repro.hardware.config import HardwareConfig
from repro.hardware.mask_units import mask_unit_report
from repro.hardware.pe_array import ReconfigurablePEArray


@dataclass(frozen=True)
class LayerWorkload:
    """Pruning-aware description of one MSDeformAttn block's work.

    All quantities are totals over the block (not per query).
    """

    num_queries: int
    num_tokens: int
    d_model: int
    num_heads: int
    num_levels: int
    num_points: int
    points_kept: int
    pixels_kept: int
    unique_pixels_accessed: int
    neighbor_accesses: int
    intra_conflict_factor: float = 3.0
    """Average cycles per MSGS issue group under intra-level banking."""

    inter_conflict_factor: float = 1.0
    """Average cycles per MSGS issue group under inter-level banking."""

    def __post_init__(self) -> None:
        if self.d_model % self.num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        if not 0 <= self.points_kept <= self.points_total:
            raise ValueError("points_kept out of range")
        if not 0 <= self.pixels_kept <= self.num_tokens:
            raise ValueError("pixels_kept out of range")
        if self.intra_conflict_factor < 1.0 or self.inter_conflict_factor < 1.0:
            raise ValueError("conflict factors must be >= 1")

    @property
    def d_head(self) -> int:
        return self.d_model // self.num_heads

    @property
    def points_per_query(self) -> int:
        return self.num_heads * self.num_levels * self.num_points

    @property
    def points_total(self) -> int:
        return self.num_queries * self.points_per_query

    @property
    def point_keep_ratio(self) -> float:
        return self.points_kept / self.points_total if self.points_total else 1.0

    # ------------------------------------------------------------ factories

    @staticmethod
    def dense(
        num_queries: int,
        num_tokens: int,
        d_model: int,
        num_heads: int,
        num_levels: int,
        num_points: int,
    ) -> "LayerWorkload":
        """An unpruned workload (every point and pixel kept, no reuse benefit)."""
        points_total = num_queries * num_heads * num_levels * num_points
        return LayerWorkload(
            num_queries=num_queries,
            num_tokens=num_tokens,
            d_model=d_model,
            num_heads=num_heads,
            num_levels=num_levels,
            num_points=num_points,
            points_kept=points_total,
            pixels_kept=num_tokens,
            unique_pixels_accessed=num_tokens,
            neighbor_accesses=points_total * 4,
        )

    @staticmethod
    def from_ratios(
        num_queries: int,
        num_tokens: int,
        d_model: int,
        num_heads: int,
        num_levels: int,
        num_points: int,
        point_keep_ratio: float = 1.0,
        pixel_keep_ratio: float = 1.0,
        unique_pixel_ratio: float = 1.0,
        intra_conflict_factor: float = 3.0,
    ) -> "LayerWorkload":
        """Build a workload from summary ratios (used for paper-scale projections)."""
        for name, value in [
            ("point_keep_ratio", point_keep_ratio),
            ("pixel_keep_ratio", pixel_keep_ratio),
            ("unique_pixel_ratio", unique_pixel_ratio),
        ]:
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must be in [0, 1]")
        points_total = num_queries * num_heads * num_levels * num_points
        points_kept = int(round(points_total * point_keep_ratio))
        return LayerWorkload(
            num_queries=num_queries,
            num_tokens=num_tokens,
            d_model=d_model,
            num_heads=num_heads,
            num_levels=num_levels,
            num_points=num_points,
            points_kept=points_kept,
            pixels_kept=int(round(num_tokens * pixel_keep_ratio)),
            unique_pixels_accessed=int(round(num_tokens * unique_pixel_ratio)),
            neighbor_accesses=points_kept * 4,
            intra_conflict_factor=intra_conflict_factor,
        )


@dataclass(frozen=True)
class Phase:
    """One stage of the block schedule."""

    name: str
    mode: str
    cycles: int
    macs: int = 0
    bi_ops: int = 0
    dram_read_bytes: float = 0.0
    dram_write_bytes: float = 0.0
    sram_read_bytes: float = 0.0
    sram_write_bytes: float = 0.0
    extra_energy_j: float = 0.0

    @property
    def dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes

    @property
    def sram_bytes(self) -> float:
        return self.sram_read_bytes + self.sram_write_bytes


@dataclass
class LayerSchedule:
    """Full schedule of one MSDeformAttn block."""

    workload: LayerWorkload
    phases: list[Phase] = field(default_factory=list)
    fuse_msgs_aggregation: bool = True
    fmap_reuse: bool = True
    banking: BankingScheme = BankingScheme.INTER_LEVEL

    @property
    def compute_cycles(self) -> int:
        return int(sum(p.cycles for p in self.phases))

    @property
    def total_macs(self) -> int:
        return int(sum(p.macs for p in self.phases))

    @property
    def total_bi_ops(self) -> int:
        return int(sum(p.bi_ops for p in self.phases))

    @property
    def dram_bytes(self) -> float:
        return float(sum(p.dram_bytes for p in self.phases))

    def msgs_phases(self) -> list[Phase]:
        """The phases belonging to the MSGS + aggregation stage."""
        return [p for p in self.phases if p.name.startswith("msgs")]


def build_layer_schedule(
    workload: LayerWorkload,
    config: HardwareConfig,
    fuse_msgs_aggregation: bool = True,
    fmap_reuse: bool = True,
    banking: BankingScheme | str = BankingScheme.INTER_LEVEL,
) -> LayerSchedule:
    """Build the phase-by-phase schedule of one block.

    The ablation switches reproduce the paper's hardware experiments: turning
    ``fuse_msgs_aggregation`` off routes the sampling values through
    SRAM + DRAM between MSGS and aggregation (Fig. 7b, "Op Fusion"); turning
    ``fmap_reuse`` off re-fetches every bilinear neighbour from DRAM
    (Fig. 7b, "Fmap Reuse"); ``banking`` selects intra- vs inter-level parallel
    processing (Fig. 7a).
    """
    banking = BankingScheme(banking)
    pe = ReconfigurablePEArray(config)
    bpe = config.bytes_per_element
    d = workload.d_model
    d_head = workload.d_head
    n_q = workload.num_queries
    points_per_query = workload.points_per_query

    def refetch(output_cols: int) -> int:
        # Output-stationary tiling: the PE array produces `lane_width` output
        # columns per pass, so the input activations are streamed from DRAM
        # once per output-column strip (the full matrix does not fit on chip).
        # This activation re-fetch is what makes the MM data transfer dominate
        # the DRAM energy (Fig. 8).
        return max(1, int(np.ceil(output_cols / config.lane_width)))

    phases: list[Phase] = []

    # Weights of the four projections are streamed from DRAM once per block.
    weight_elements = d * d * 3 + d * (2 * points_per_query) + d * points_per_query
    phases.append(
        Phase(
            name="weight_load",
            mode="dma",
            cycles=0,
            dram_read_bytes=weight_elements * bpe,
            sram_write_bytes=weight_elements * bpe,
        )
    )

    # 1. Attention-weight projection + softmax (always dense: PAP needs them).
    macs = n_q * d * points_per_query
    phases.append(
        Phase(
            name="attention_weights_mm",
            mode="mm",
            cycles=pe.mm_cycles(macs),
            macs=macs,
            dram_read_bytes=n_q * d * bpe * refetch(points_per_query),  # queries
            sram_read_bytes=(n_q * d + weight_elements / 6) * bpe,
            sram_write_bytes=n_q * points_per_query * bpe,
        )
    )
    softmax_elements = n_q * points_per_query
    phases.append(
        Phase(
            name="softmax",
            mode="softmax",
            cycles=int(np.ceil(softmax_elements / config.softmax_throughput)),
            sram_read_bytes=softmax_elements * bpe,
            sram_write_bytes=softmax_elements * bpe,
            extra_energy_j=softmax_elements * config.softmax_element_energy_pj * 1e-12,
        )
    )

    # 2. Sampling offsets of the surviving points only.
    offset_cols = int(np.ceil(2 * points_per_query * workload.point_keep_ratio))
    macs = n_q * d * offset_cols
    phases.append(
        Phase(
            name="sampling_offsets_mm",
            mode="mm",
            cycles=pe.mm_cycles(macs),
            macs=macs,
            dram_read_bytes=n_q * d * bpe * refetch(offset_cols),
            sram_read_bytes=n_q * d * bpe,
            sram_write_bytes=workload.points_kept * 2 * bpe,
        )
    )

    # 3. Value projection of the FWP-kept pixels.
    macs = workload.pixels_kept * d * d
    phases.append(
        Phase(
            name="value_proj_mm",
            mode="mm",
            cycles=pe.mm_cycles(macs),
            macs=macs,
            dram_read_bytes=workload.pixels_kept * d * bpe * refetch(d),
            dram_write_bytes=workload.pixels_kept * d * bpe,  # V written back (full fmap > SRAM)
            sram_read_bytes=workload.pixels_kept * d * bpe,
            sram_write_bytes=workload.pixels_kept * d * bpe,
        )
    )

    # 4. Fused MSGS + aggregation (BA mode).
    conflict = (
        workload.inter_conflict_factor
        if banking is BankingScheme.INTER_LEVEL
        else workload.intra_conflict_factor
    )
    if fmap_reuse:
        fmap_fetch_bytes = workload.unique_pixels_accessed * d * bpe
    else:
        fmap_fetch_bytes = workload.neighbor_accesses * d_head * bpe
    phases.append(
        Phase(
            name="msgs_fmap_fetch",
            mode="dma",
            cycles=0,
            dram_read_bytes=fmap_fetch_bytes,
            sram_write_bytes=fmap_fetch_bytes,
        )
    )
    bi_reads = workload.neighbor_accesses * d_head * bpe
    phases.append(
        Phase(
            name="msgs_aggregation_ba",
            mode="ba",
            cycles=pe.ba_cycles(workload.points_kept, d_head, conflict_factor=conflict),
            macs=workload.points_kept * d_head,
            bi_ops=workload.points_kept * d_head,
            sram_read_bytes=bi_reads + workload.points_kept * 2 * bpe,
        )
    )
    if not fuse_msgs_aggregation:
        # Without fusion the interpolated sampling values take a round trip
        # through the SRAM buffers and off-chip memory before aggregation.
        sampling_value_bytes = workload.points_kept * d_head * bpe
        phases.append(
            Phase(
                name="msgs_sampling_value_spill",
                mode="dma",
                cycles=0,
                dram_write_bytes=sampling_value_bytes,
                dram_read_bytes=sampling_value_bytes,
                sram_write_bytes=2 * sampling_value_bytes,
                sram_read_bytes=2 * sampling_value_bytes,
            )
        )

    # Mask generation (FWP frequency counting + PAP thresholding + compression).
    mask_report = mask_unit_report(
        num_tokens=workload.num_tokens,
        num_points_total=workload.points_total,
        neighbor_accesses=workload.neighbor_accesses,
        compressed_bytes=workload.pixels_kept * d * bpe,
        config=config,
    )
    phases.append(
        Phase(
            name="mask_units",
            mode="mask",
            cycles=0,  # fully overlapped with the BA stage
            extra_energy_j=mask_report.energy_j,
            sram_write_bytes=(mask_report.fmap_mask_bits + mask_report.point_mask_bits) / 8.0,
        )
    )

    # 5. Output projection.
    macs = n_q * d * d
    phases.append(
        Phase(
            name="output_proj_mm",
            mode="mm",
            cycles=pe.mm_cycles(macs),
            macs=macs,
            dram_read_bytes=n_q * d * bpe * (refetch(d) - 1),
            sram_read_bytes=n_q * d * bpe,
            dram_write_bytes=n_q * d * bpe,
        )
    )

    return LayerSchedule(
        workload=workload,
        phases=phases,
        fuse_msgs_aggregation=fuse_msgs_aggregation,
        fmap_reuse=fmap_reuse,
        banking=banking,
    )
