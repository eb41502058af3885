"""Hardware configuration of the DEFA accelerator.

The defaults reproduce the base design point of the paper (Table 1):
40 nm technology, 400 MHz, INT12 datapath, a 16-lane reconfigurable PE array,
16 SRAM banks for the multi-scale bounded-range buffers and a 256 GB/s HBM2
external memory at 1.2 pJ/bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class HardwareConfig:
    """Design parameters of one DEFA accelerator instance."""

    # ----------------------------------------------------------- technology
    technology_nm: int = 40
    frequency_mhz: float = 400.0
    precision_bits: int = 12

    # ------------------------------------------------------------- PE array
    num_lanes: int = 16
    """Number of PE lanes; in MM mode each lane computes one output column group."""

    lane_width: int = 16
    """MACs per lane in MM mode (a 16-element vector times a 16x16 tile)."""

    ba_parallel_points: int = 4
    """Sampling points processed in parallel in BA (bilinear + aggregation) mode."""

    ba_channels_per_cycle: int = 16
    """Feature channels of each sampling point processed per cycle in BA mode."""

    softmax_throughput: int = 16
    """Attention probabilities normalized per cycle by the softmax unit."""

    # ----------------------------------------------------------------- SRAM
    num_banks: int = 16
    """Number of SRAM banks holding the bounded-range fmap windows."""

    fmap_buffer_kib: float = 288.0
    """Capacity of the multi-scale bounded-range fmap buffer (KiB)."""

    weight_buffer_kib: float = 112.0
    """Capacity of the weight buffer (KiB)."""

    io_buffer_kib: float = 96.0
    """Capacity of the query / output / probability buffers (KiB)."""

    # ----------------------------------------------------------------- DRAM
    dram_bandwidth_gbs: float = 256.0
    """HBM2 bandwidth in GB/s."""

    dram_energy_pj_per_bit: float = 1.2
    """HBM2 access energy in pJ/bit."""

    # --------------------------------------------------------------- energy
    mac_energy_pj: float = 0.6
    """Energy of one INT12 multiply-accumulate including local control (pJ)."""

    bi_op_energy_pj: float = 1.0
    """Energy of one bilinear-interpolation operator invocation (3 mul + 7 add, pJ)."""

    softmax_element_energy_pj: float = 0.5
    """Energy per attention probability normalized (pJ)."""

    mask_bit_energy_pj: float = 0.05
    """Energy per mask bit generated/decoded by the FWP/PAP units (pJ)."""

    @property
    def bytes_per_element(self) -> float:
        """Storage bytes of one INT-``precision_bits`` value."""
        return self.precision_bits / 8.0

    @property
    def clock_period_ns(self) -> float:
        """Clock period in nanoseconds."""
        return 1e3 / self.frequency_mhz

    @property
    def macs_per_cycle(self) -> int:
        """Multiply-accumulates per cycle in MM mode."""
        return self.num_lanes * self.lane_width

    @property
    def peak_gops(self) -> float:
        """Peak arithmetic throughput in GOPS (2 ops per MAC)."""
        return 2.0 * self.macs_per_cycle * self.frequency_mhz * 1e6 / 1e9

    @property
    def ba_samples_per_cycle(self) -> float:
        """Sampling-point channel results produced per cycle in BA mode."""
        return self.ba_parallel_points * self.ba_channels_per_cycle

    def scaled_to(self, target_tops: float) -> "HardwareConfig":
        """Return a configuration scaled up to roughly *target_tops* peak throughput.

        The paper scales DEFA to 13.3 TOPS and 40 TOPS to match the peak
        throughput of the RTX 2080Ti and 3090Ti; scaling multiplies the PE
        lanes, BA parallelism and buffer capacities while keeping frequency
        and technology fixed.
        """
        if target_tops <= 0:
            raise ValueError("target_tops must be positive")
        factor = target_tops * 1e3 / self.peak_gops
        lane_scale = max(1, int(round(factor**0.5)))
        width_scale = max(1, int(round(factor / lane_scale)))
        return replace(
            self,
            num_lanes=self.num_lanes * lane_scale,
            lane_width=self.lane_width * width_scale,
            ba_parallel_points=self.ba_parallel_points * lane_scale,
            ba_channels_per_cycle=self.ba_channels_per_cycle * width_scale,
            softmax_throughput=self.softmax_throughput * lane_scale,
            num_banks=self.num_banks * lane_scale,
            fmap_buffer_kib=self.fmap_buffer_kib * lane_scale,
            weight_buffer_kib=self.weight_buffer_kib * width_scale,
            io_buffer_kib=self.io_buffer_kib * lane_scale,
            dram_bandwidth_gbs=self.dram_bandwidth_gbs * factor**0.5,
        )
