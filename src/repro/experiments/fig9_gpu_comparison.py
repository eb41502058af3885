"""Fig. 9: speedup and energy-efficiency improvement over GPUs.

The paper scales DEFA to 13.3 TOPS / 40 TOPS (matching the peak throughput of
an RTX 2080Ti / RTX 3090Ti), and reports 10.1-11.8x / 29.4-31.9x speedup and
20.3-23.2x / 35.3-37.7x energy-efficiency improvement on the MSDeformAttn
layers of the three benchmarks.

The reproduction measures the pruning ratios of each benchmark on the
synthetic workload (small scale), projects them to the paper's input
resolution, simulates the scaled DEFA configurations, and compares against the
calibrated GPU cost model.  The energy-efficiency improvement is defined as
(GPU energy per inference) / (DEFA energy per inference, including DRAM);
EXPERIMENTS.md discusses how this definition relates to the paper's numbers.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.gpu import GPUCostModel, GPUSpec, RTX_2080TI, RTX_3090TI
from repro.core.config import DEFAConfig
from repro.experiments.common import ExperimentResult, register_experiment
from repro.experiments.workload_runs import prepare_run, run_defa_cached
from repro.hardware.config import HardwareConfig
from repro.hardware.simulator import DEFASimulator
from repro.nn.models import MODEL_NAMES, get_model_config
from repro.workloads.specs import get_workload

GPU_TARGETS: tuple[tuple[GPUSpec, float], ...] = ((RTX_2080TI, 13.3), (RTX_3090TI, 40.0))
"""GPUs and the DEFA peak-throughput targets (TOPS) matched against them."""


@register_experiment("fig9")
def run(measure_scale: str = "small") -> ExperimentResult:
    """Regenerate the Fig. 9 speedup / energy-efficiency comparison."""
    config = DEFAConfig.paper_default()
    headers = [
        "model",
        "GPU",
        "speedup (ours)",
        "speedup (paper)",
        "EE gain (ours)",
        "EE gain (paper)",
    ]
    rows = []
    data = {}
    for name in MODEL_NAMES:
        # Measure the pruning behaviour at a tractable scale...
        run_ctx = prepare_run(name, scale=measure_scale)
        result = run_defa_cached(run_ctx, config, name, measure_scale)
        point_keep = 1.0 - result.mean_point_reduction
        pixel_keep = 1.0 - result.mean_pixel_reduction
        sim_probe = DEFASimulator(HardwareConfig())
        probe_workloads = sim_probe.workloads_from_encoder_result(result)
        unique_ratio = float(
            np.mean([w.unique_pixels_accessed / w.num_tokens for w in probe_workloads])
        )
        intra_conflict = float(np.mean([w.intra_conflict_factor for w in probe_workloads]))

        # ...and project it to the paper's input resolution.
        project_spec = get_workload(name, "paper")
        published = get_model_config(name).published
        data[name] = {}
        for gpu, target_tops in GPU_TARGETS:
            defa_hw = HardwareConfig().scaled_to(target_tops)
            simulator = DEFASimulator(defa_hw)
            defa_report = simulator.simulate_from_ratios(
                project_spec,
                point_keep_ratio=point_keep,
                pixel_keep_ratio=pixel_keep,
                unique_pixel_ratio=unique_ratio,
                intra_conflict_factor=intra_conflict,
            )
            gpu_model = GPUCostModel(gpu)
            gpu_time = gpu_model.encoder_attention_latency(project_spec)
            gpu_energy = gpu_model.encoder_attention_energy(project_spec)
            speedup = gpu_time / defa_report.time_s
            ee_gain = gpu_energy / defa_report.energy_per_inference_j
            paper_speedup = (
                published.speedup_2080ti if gpu is RTX_2080TI else published.speedup_3090ti
            )
            paper_ee = (
                published.ee_improvement_2080ti
                if gpu is RTX_2080TI
                else published.ee_improvement_3090ti
            )
            rows.append(
                [
                    project_spec.model.display_name,
                    gpu.name,
                    speedup,
                    paper_speedup,
                    ee_gain,
                    paper_ee,
                ]
            )
            data[name][gpu.name] = {
                "speedup": speedup,
                "paper_speedup": paper_speedup,
                "ee_gain": ee_gain,
                "paper_ee_gain": paper_ee,
                "defa_time_s": defa_report.time_s,
                "gpu_time_s": gpu_time,
                "defa_energy_j": defa_report.energy_per_inference_j,
                "gpu_energy_j": gpu_energy,
            }
    return ExperimentResult(
        experiment_id="fig9",
        title="Fig. 9 - speedup and energy-efficiency improvement over GPUs",
        headers=headers,
        rows=rows,
        notes=[
            f"pruning ratios measured at scale={measure_scale!r}, projected to 'paper'",
            "EE gain = GPU energy / DEFA energy (incl. DRAM); our energy model yields larger "
            "gains than the paper's figures because the paper's EE accounting is not fully "
            "specified — see EXPERIMENTS.md.",
        ],
        data=data,
    )
