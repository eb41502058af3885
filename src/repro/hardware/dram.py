"""External memory model: HBM2 at 1.2 pJ/bit.

The paper uses a moderate single-stack HBM2 interface as the external memory
system.  Its bandwidth (256 GB/s) bounds layer time through
``HardwareConfig.dram_bandwidth_gbs``; this model holds the other property the
evaluation needs, the per-bit access energy.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HBM2Model:
    """Energy model of the HBM2 external memory."""

    energy_pj_per_bit: float = 1.2

    def __post_init__(self) -> None:
        if self.energy_pj_per_bit < 0:
            raise ValueError("energy must be non-negative")

    def access_energy_j(self, num_bytes: float) -> float:
        """Energy to move *num_bytes* (joules)."""
        return float(num_bytes) * 8.0 * self.energy_pj_per_bit * 1e-12
