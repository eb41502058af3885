"""Fig. 1(b): MSDeformAttn latency breakdown on the GPU.

The paper profiles Deformable DETR, DN-DETR and DINO on an RTX 3090Ti and
finds that MSGS + aggregation account for 60-64 % of the MSDeformAttn latency
while contributing only ~3 % of its computation.  This experiment reproduces
the breakdown from the GPU cost model at the paper's input resolution.
"""

from __future__ import annotations

from repro.baselines.gpu import RTX_3090TI
from repro.experiments.common import ExperimentResult, register_experiment
from repro.eval.profiler import profile_gpu_latency_breakdown
from repro.nn.models import MODEL_NAMES, get_model_config
from repro.workloads.specs import get_workload


@register_experiment("fig1b")
def run(scale: str = "paper") -> ExperimentResult:
    """Regenerate the Fig. 1(b) latency-breakdown series."""
    headers = [
        "model",
        "msgs+agg % (ours)",
        "msgs+agg % (paper)",
        "others % (ours)",
        "msgs+agg FLOP %",
        "layer latency (ms)",
    ]
    rows = []
    data = {}
    for name in MODEL_NAMES:
        spec = get_workload(name, scale)
        breakdown = profile_gpu_latency_breakdown(spec, RTX_3090TI)
        published = get_model_config(name).published.msgs_latency_fraction
        rows.append(
            [
                spec.model.display_name,
                100.0 * breakdown.msgs_aggregation_fraction,
                100.0 * published,
                100.0 * breakdown.others_fraction,
                100.0 * breakdown.msgs_flops_fraction,
                1e3 * breakdown.layer_latency_s,
            ]
        )
        data[name] = {
            "msgs_fraction": breakdown.msgs_aggregation_fraction,
            "published_fraction": published,
            "layer_latency_s": breakdown.layer_latency_s,
        }
    return ExperimentResult(
        experiment_id="fig1b",
        title=f"Fig. 1(b) - MSDeformAttn latency breakdown on {RTX_3090TI.name}",
        headers=headers,
        rows=rows,
        notes=[
            "GPU latencies come from the calibrated roofline model "
            "(see repro.baselines.gpu); absolute times are modelled, the split is the result."
        ],
        data=data,
    )
