"""Mask generation and (de)compression units (Fig. 3).

The fmap mask generator implements FWP in hardware: it receives the sampling
addresses issued by the BI stage, counts per-pixel frequencies and emits the
bit mask for the next block.  The point mask generator thresholds the softmax
outputs (PAP).  The compression/decompression units pack the pruned tensors so
that masked elements consume no bandwidth.

These units are tiny compared to the PE array and the SRAM; the model tracks
their cycle overhead (fully overlapped with the main pipeline in the paper's
design) and their energy, which the evaluation shows to be negligible
(<0.1 % of SRAM access energy, Sec. 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.config import HardwareConfig


@dataclass(frozen=True)
class MaskUnitReport:
    """Cycle / energy accounting of the mask and compression units for one block."""

    fmap_mask_bits: int
    point_mask_bits: int
    cycles: int
    energy_j: float


def mask_unit_report(
    num_tokens: int,
    num_points_total: int,
    neighbor_accesses: int,
    compressed_bytes: float,
    config: HardwareConfig,
) -> MaskUnitReport:
    """Model the FWP/PAP mask generators and the compression units for one block.

    Parameters
    ----------
    num_tokens:
        Number of fmap pixels (one fmap-mask bit each).
    num_points_total:
        Number of sampling points (one point-mask bit each).
    neighbor_accesses:
        Sampling addresses streamed through the frequency counter.
    compressed_bytes:
        Data volume passing through the compression/decompression units.
    config:
        Hardware configuration (provides the per-bit energy).

    The frequency counter takes 16 addresses per cycle, matching the 16
    parallel bank accesses of the MSGS pipeline.
    """
    if min(num_tokens, num_points_total, neighbor_accesses) < 0 or compressed_bytes < 0:
        raise ValueError("mask unit inputs must be non-negative")
    cycles = (neighbor_accesses + 15) // 16
    mask_bits = num_tokens + num_points_total
    energy_pj = (
        mask_bits * config.mask_bit_energy_pj
        + neighbor_accesses * config.mask_bit_energy_pj
        + compressed_bytes * 8.0 * config.mask_bit_energy_pj * 0.25
    )
    return MaskUnitReport(
        fmap_mask_bits=num_tokens,
        point_mask_bits=num_points_total,
        cycles=int(cycles),
        energy_j=energy_pj * 1e-12,
    )
