"""Cycle-approximate simulator of the DEFA accelerator architecture."""

from repro.hardware.config import HardwareConfig
from repro.hardware.cacti import SRAMMacroModel
from repro.hardware.dram import HBM2Model
from repro.hardware.banking import BankingScheme, simulate_bank_conflicts
from repro.hardware.pe_array import ReconfigurablePEArray
from repro.hardware.dataflow import LayerSchedule, build_layer_schedule
from repro.hardware.energy import EnergyBreakdown, EnergyModel
from repro.hardware.area import AreaBreakdown, area_model
from repro.hardware.simulator import DEFASimulator, LayerSimulationReport, ModelSimulationReport

__all__ = [
    "HardwareConfig",
    "SRAMMacroModel",
    "HBM2Model",
    "BankingScheme",
    "simulate_bank_conflicts",
    "ReconfigurablePEArray",
    "LayerSchedule",
    "build_layer_schedule",
    "EnergyBreakdown",
    "EnergyModel",
    "AreaBreakdown",
    "area_model",
    "DEFASimulator",
    "LayerSimulationReport",
    "ModelSimulationReport",
]
