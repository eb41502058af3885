"""Analytical SRAM macro model (CACTI-style).

The paper uses CACTI to obtain the area and access energy of the on-chip SRAM.
CACTI itself is a large C++ tool; this module provides a small analytical
stand-in with the scaling behaviour that matters for the evaluation:

* area grows linearly with capacity plus a fixed periphery overhead per macro,
* read/write energy per access grows with the square root of the capacity
  (longer bit/word lines) and linearly with the word width.

The coefficients are calibrated for a 40 nm process so that the DEFA base
configuration lands near the published 2.63 mm² total area (SRAM ≈ 72 % of it)
and ~100 mW total power.  They are deliberately exposed as constructor
arguments so the sensitivity of every result to the memory model can be
explored.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SRAMMacroModel:
    """Analytical area / energy model of one SRAM macro.

    Parameters
    ----------
    capacity_bytes:
        Macro capacity in bytes.
    word_bits:
        Read/write port width in bits.
    technology_nm:
        Process node; coefficients are calibrated at 40 nm and scaled
        quadratically (area) / linearly (energy) for other nodes.
    """

    capacity_bytes: float
    word_bits: int = 96
    technology_nm: int = 40

    # Calibration coefficients (40 nm).
    _area_mm2_per_kib: float = 0.0034
    _area_overhead_mm2: float = 0.008
    _energy_base_pj: float = 2.2
    _energy_per_sqrt_kib_pj: float = 0.35
    _energy_per_bit_pj: float = 0.015

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if self.word_bits <= 0:
            raise ValueError("word_bits must be positive")

    @property
    def capacity_kib(self) -> float:
        """Capacity in KiB."""
        return self.capacity_bytes / 1024.0

    @property
    def _tech_scale_area(self) -> float:
        return (self.technology_nm / 40.0) ** 2

    @property
    def _tech_scale_energy(self) -> float:
        return self.technology_nm / 40.0

    def area_mm2(self) -> float:
        """Silicon area of the macro in mm²."""
        return self._tech_scale_area * (
            self._area_overhead_mm2 + self._area_mm2_per_kib * self.capacity_kib
        )

    def energy_per_access_pj(self) -> float:
        """Energy of one read or write access (pJ)."""
        return self._tech_scale_energy * (
            self._energy_base_pj
            + self._energy_per_sqrt_kib_pj * np.sqrt(self.capacity_kib)
            + self._energy_per_bit_pj * self.word_bits
        )

    def energy_per_byte_pj(self) -> float:
        """Energy per byte transferred through the port (pJ/B)."""
        return self.energy_per_access_pj() / (self.word_bits / 8.0)
