"""Aggregated pruning statistics (the quantities of Fig. 6b).

Collects the sampling-point reduction (PAP), fmap-pixel reduction (FWP) and
computation reduction over all MSDeformAttn blocks of an encoder run under the
DEFA algorithm.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.encoder_runner import DEFAEncoderResult
from repro.core.flops import FlopsBreakdown


@dataclass(frozen=True)
class PruningStatsReport:
    """Reduction ratios of one encoder run (all values in ``[0, 1]``)."""

    sampling_point_reduction: float
    fmap_pixel_reduction: float
    flops_reduction: float
    flops_reduction_with_output_proj: float
    per_layer_point_reduction: tuple[float, ...]
    per_layer_pixel_reduction: tuple[float, ...]


def collect_pruning_stats(result: DEFAEncoderResult) -> PruningStatsReport:
    """Build a :class:`PruningStatsReport` from a DEFA encoder run."""
    if not result.layer_stats:
        raise ValueError("encoder result contains no layer statistics")
    merged = FlopsBreakdown()
    for stats in result.layer_stats:
        merged = merged.merged_with(stats.flops)
    return PruningStatsReport(
        sampling_point_reduction=result.mean_point_reduction,
        fmap_pixel_reduction=result.mean_pixel_reduction,
        flops_reduction=merged.reduction(include_output_proj=False),
        flops_reduction_with_output_proj=merged.reduction(include_output_proj=True),
        per_layer_point_reduction=tuple(s.point_reduction for s in result.layer_stats),
        per_layer_pixel_reduction=tuple(s.pixel_reduction for s in result.layer_stats),
    )
