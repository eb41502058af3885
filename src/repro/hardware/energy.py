"""Energy model of the DEFA accelerator.

Energy is split the way Fig. 8 reports it:

* **DRAM** — external HBM2 traffic at 1.2 pJ/bit,
* **SRAM** — on-chip buffer accesses (CACTI-style per-byte energy),
* **logic** — PE array MACs/BI operators, the softmax unit and the mask /
  compression units.

The model consumes the :class:`~repro.hardware.dataflow.LayerSchedule` phase
records, so every ablation (fusion, reuse, banking) automatically feeds
through to the energy numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.cacti import SRAMMacroModel
from repro.hardware.config import HardwareConfig
from repro.hardware.dataflow import LayerSchedule, Phase
from repro.hardware.dram import HBM2Model


@dataclass
class EnergyBreakdown:
    """Energy of one block (or one model) split by component, in joules."""

    dram_j: float = 0.0
    sram_j: float = 0.0
    logic_j: float = 0.0

    @property
    def total_j(self) -> float:
        return self.dram_j + self.sram_j + self.logic_j

    def fractions(self) -> dict[str, float]:
        """Fractional breakdown (the Fig. 8 pie chart)."""
        total = self.total_j
        if total == 0:
            return {"dram": 0.0, "sram": 0.0, "logic": 0.0}
        return {
            "dram": self.dram_j / total,
            "sram": self.sram_j / total,
            "logic": self.logic_j / total,
        }

    def merged_with(self, other: "EnergyBreakdown") -> "EnergyBreakdown":
        return EnergyBreakdown(
            dram_j=self.dram_j + other.dram_j,
            sram_j=self.sram_j + other.sram_j,
            logic_j=self.logic_j + other.logic_j,
        )


class EnergyModel:
    """Compute energy breakdowns from layer schedules."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config
        self.dram = HBM2Model(energy_pj_per_bit=config.dram_energy_pj_per_bit)
        bank_bytes = config.fmap_buffer_kib * 1024 / config.num_banks
        self._sram_macro = SRAMMacroModel(
            capacity_bytes=max(bank_bytes, 1024),
            word_bits=config.precision_bits * 8,
            technology_nm=config.technology_nm,
        )

    @property
    def sram_energy_per_byte_pj(self) -> float:
        """On-chip SRAM access energy per byte."""
        return self._sram_macro.energy_per_byte_pj()

    def phase_energy(self, phase: Phase) -> EnergyBreakdown:
        """Energy of one schedule phase."""
        cfg = self.config
        dram_j = self.dram.access_energy_j(phase.dram_bytes)
        sram_j = phase.sram_bytes * self.sram_energy_per_byte_pj * 1e-12
        logic_j = (
            phase.macs * cfg.mac_energy_pj + phase.bi_ops * cfg.bi_op_energy_pj
        ) * 1e-12 + phase.extra_energy_j
        return EnergyBreakdown(dram_j=dram_j, sram_j=sram_j, logic_j=logic_j)

    def layer_energy(self, schedule: LayerSchedule) -> EnergyBreakdown:
        """Total energy of one block schedule."""
        total = EnergyBreakdown()
        for phase in schedule.phases:
            total = total.merged_with(self.phase_energy(phase))
        return total

    def msgs_memory_energy(self, schedule: LayerSchedule) -> EnergyBreakdown:
        """Memory-access energy of the MSGS + aggregation stage only.

        This is the denominator the paper uses for the Fig. 7(b) savings
        ("of the overall MSGS energy consumption in memory access"): DRAM and
        SRAM energy of the fmap fetches, BI reads and (if present) the
        sampling-value spill; logic energy is excluded.
        """
        total = EnergyBreakdown()
        for phase in schedule.msgs_phases():
            part = self.phase_energy(phase)
            total = total.merged_with(EnergyBreakdown(dram_j=part.dram_j, sram_j=part.sram_j))
        return total
