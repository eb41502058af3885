"""Fig. 8: area and energy breakdown of the DEFA accelerator.

The paper reports that the on-chip SRAM occupies ~72 % of the 2.63 mm² area
(PE + softmax ~23 %, others ~5 %) and that DRAM access dominates the energy
(~93 %, SRAM ~5 %, logic ~2 %).  This experiment evaluates the area model and
the energy model of the base configuration on the Deformable DETR workload.
"""

from __future__ import annotations

from repro.experiments.common import ExperimentResult, register_experiment
from repro.hardware.area import area_model
from repro.hardware.config import HardwareConfig
from repro.hardware.simulator import DEFASimulator
from repro.workloads.specs import get_workload

PAPER_AREA_FRACTIONS = {"sram": 0.72, "pe_softmax": 0.23, "others": 0.05}
PAPER_ENERGY_FRACTIONS = {"dram": 0.93, "sram": 0.05, "logic": 0.02}
PAPER_TOTAL_AREA_MM2 = 2.63


@register_experiment("fig8")
def run() -> ExperimentResult:
    """Regenerate the Fig. 8 area and energy breakdowns (16 % of the sampling
    points and 57 % of the fmap pixels kept)."""
    hardware = HardwareConfig()
    spec = get_workload("deformable_detr", "paper")

    area = area_model(hardware)
    area_fracs = area.fractions()

    simulator = DEFASimulator(hardware)
    report = simulator.simulate_from_ratios(spec, point_keep_ratio=0.16, pixel_keep_ratio=0.57)
    energy_fracs = report.energy.fractions()

    headers = ["component", "ours %", "paper %"]
    rows = [
        ["area: SRAM", 100.0 * area_fracs["sram"], 100.0 * PAPER_AREA_FRACTIONS["sram"]],
        [
            "area: PE + softmax",
            100.0 * area_fracs["pe_softmax"],
            100.0 * PAPER_AREA_FRACTIONS["pe_softmax"],
        ],
        ["area: others", 100.0 * area_fracs["others"], 100.0 * PAPER_AREA_FRACTIONS["others"]],
        ["energy: DRAM", 100.0 * energy_fracs["dram"], 100.0 * PAPER_ENERGY_FRACTIONS["dram"]],
        ["energy: SRAM", 100.0 * energy_fracs["sram"], 100.0 * PAPER_ENERGY_FRACTIONS["sram"]],
        ["energy: logic", 100.0 * energy_fracs["logic"], 100.0 * PAPER_ENERGY_FRACTIONS["logic"]],
    ]
    return ExperimentResult(
        experiment_id="fig8",
        title="Fig. 8 - area and energy breakdown of DEFA",
        headers=headers,
        rows=rows,
        notes=[
            f"total area: {area.total_mm2:.2f} mm^2 (paper {PAPER_TOTAL_AREA_MM2} mm^2)",
            f"workload: {spec.name}; energy from {len(report.layers)} MSDeformAttn blocks",
        ],
        data={
            "total_area_mm2": area.total_mm2,
            "area_fractions": area_fracs,
            "energy_fractions": energy_fracs,
            "energy_per_inference_j": report.energy_per_inference_j,
            "chip_power_w": report.chip_power_w,
            "effective_gops": report.effective_tops * 1e3,
        },
    )
