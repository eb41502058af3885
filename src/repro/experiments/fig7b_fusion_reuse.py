"""Fig. 7(b): energy savings of fine-grained operator fusion and fmap reuse.

The paper reports, as fractions of the MSGS memory-access energy:

* operator fusion (keeping the sampling values inside the PE array instead of
  spilling them through SRAM/DRAM) saves 73.3 % of DRAM energy and 15.9 % of
  SRAM energy;
* fmap reuse (keeping the overlapping bounded-range pixels on chip) saves
  88.2 % of DRAM energy and 22.7 % of SRAM energy.

The experiment evaluates the DEFA energy model with each optimization toggled
off and on, using the measured sampling statistics of the benchmark workloads.
"""

from __future__ import annotations

from repro.core.config import DEFAConfig
from repro.experiments.common import ExperimentResult, register_experiment
from repro.experiments.workload_runs import prepare_run, run_defa_cached
from repro.hardware.config import HardwareConfig
from repro.hardware.simulator import DEFASimulator
from repro.nn.models import MODEL_NAMES

PAPER_SAVINGS = {
    "op_fusion": {"dram": 0.733, "sram": 0.159},
    "fmap_reuse": {"dram": 0.882, "sram": 0.227},
}
"""Published Fig. 7(b) savings (fractions of MSGS memory-access energy)."""


def _msgs_memory_energy(simulator: DEFASimulator, workloads) -> tuple[float, float]:
    """Total (DRAM, SRAM) energy of the MSGS stage over all blocks."""
    dram = sram = 0.0
    for workload in workloads:
        report = simulator.simulate_layer(workload)
        energy = simulator.energy_model.msgs_memory_energy(report.schedule)
        dram += energy.dram_j
        sram += energy.sram_j
    return dram, sram


@register_experiment("fig7b")
def run(scale: str = "small") -> ExperimentResult:
    """Regenerate the Fig. 7(b) energy-saving bars."""
    config = DEFAConfig.paper_default()
    hardware = HardwareConfig()

    # Use the averaged sampling statistics of the three benchmarks.
    all_workloads = []
    for name in MODEL_NAMES:
        run_ctx = prepare_run(name, scale=scale)
        result = run_defa_cached(run_ctx, config, name, scale)
        sim = DEFASimulator(hardware)
        all_workloads.extend(sim.workloads_from_encoder_result(result))

    def savings(optimization: str) -> dict[str, float]:
        if optimization == "op_fusion":
            without = DEFASimulator(hardware, fuse_msgs_aggregation=False, fmap_reuse=True)
            with_opt = DEFASimulator(hardware, fuse_msgs_aggregation=True, fmap_reuse=True)
        elif optimization == "fmap_reuse":
            without = DEFASimulator(hardware, fuse_msgs_aggregation=True, fmap_reuse=False)
            with_opt = DEFASimulator(hardware, fuse_msgs_aggregation=True, fmap_reuse=True)
        else:
            raise ValueError(f"unknown optimization {optimization!r}")
        dram_without, sram_without = _msgs_memory_energy(without, all_workloads)
        dram_with, sram_with = _msgs_memory_energy(with_opt, all_workloads)
        baseline_total = dram_without + sram_without
        return {
            "dram": (dram_without - dram_with) / baseline_total if baseline_total else 0.0,
            "sram": (sram_without - sram_with) / baseline_total if baseline_total else 0.0,
        }

    headers = [
        "optimization",
        "DRAM saving % (ours)",
        "DRAM saving % (paper)",
        "SRAM saving % (ours)",
        "SRAM saving % (paper)",
    ]
    rows = []
    data = {}
    for optimization, label in [("op_fusion", "Op Fusion"), ("fmap_reuse", "Fmap Reuse")]:
        measured = savings(optimization)
        paper = PAPER_SAVINGS[optimization]
        rows.append(
            [
                label,
                100.0 * measured["dram"],
                100.0 * paper["dram"],
                100.0 * measured["sram"],
                100.0 * paper["sram"],
            ]
        )
        data[optimization] = {"measured": measured, "paper": paper}

    return ExperimentResult(
        experiment_id="fig7b",
        title="Fig. 7(b) - energy savings of operator fusion and fmap reuse",
        headers=headers,
        rows=rows,
        notes=[
            "Savings are expressed as a fraction of the MSGS memory-access energy of the "
            "configuration without the respective optimization (the paper's convention).",
            f"workload scale: {scale}; statistics averaged over {len(MODEL_NAMES)} benchmarks.",
        ],
        data=data,
    )
