"""Fig. 6(b): reduction in sampling points, fmap pixels and computation.

The paper reports that PAP removes 82-86 % of the sampling points, FWP removes
42-44 % of the fmap pixels, and together they eliminate 52-53 % of the
MSDeformAttn computation.  This experiment runs the DEFA algorithm on the
synthetic workload of each benchmark model and reports the measured ratios
next to the published ones.
"""

from __future__ import annotations

from repro.core.config import DEFAConfig
from repro.eval.pruning_stats import collect_pruning_stats
from repro.experiments.common import ExperimentResult, register_experiment
from repro.experiments.workload_runs import prepare_run, run_defa_cached
from repro.nn.models import MODEL_NAMES, get_model_config


@register_experiment("fig6b")
def run(scale: str = "small") -> ExperimentResult:
    """Regenerate the Fig. 6(b) reduction ratios."""
    config = DEFAConfig.paper_default()
    headers = [
        "model",
        "points % (ours)",
        "points % (paper)",
        "pixels % (ours)",
        "pixels % (paper)",
        "FLOPs % (ours)",
        "FLOPs % (paper)",
    ]
    rows = []
    data = {}
    for name in MODEL_NAMES:
        run_ctx = prepare_run(name, scale=scale)
        result = run_defa_cached(run_ctx, config, name, scale)
        stats = collect_pruning_stats(result)
        published = get_model_config(name).published
        rows.append(
            [
                run_ctx.spec.model.display_name,
                100.0 * stats.sampling_point_reduction,
                100.0 * published.sampling_point_reduction,
                100.0 * stats.fmap_pixel_reduction,
                100.0 * published.fmap_pixel_reduction,
                100.0 * stats.flops_reduction,
                100.0 * published.flops_reduction,
            ]
        )
        data[name] = {
            "sampling_point_reduction": stats.sampling_point_reduction,
            "fmap_pixel_reduction": stats.fmap_pixel_reduction,
            "flops_reduction": stats.flops_reduction,
            "flops_reduction_with_output_proj": stats.flops_reduction_with_output_proj,
            "per_layer_point_reduction": list(stats.per_layer_point_reduction),
            "per_layer_pixel_reduction": list(stats.per_layer_pixel_reduction),
        }
    return ExperimentResult(
        experiment_id="fig6b",
        title="Fig. 6(b) - reduction in sampling points, fmap pixels and computation",
        headers=headers,
        rows=rows,
        notes=[
            f"workload scale: {scale}; DEFA config: {config.describe()}",
            "FLOP reduction is computed over the prunable operators "
            "(value/offset/attention projections, softmax, MSGS, aggregation).",
        ],
        data=data,
    )
