"""Evaluation utilities: detection metrics, fidelity metrics, pruning stats, profiling."""

from repro.eval.detection_metrics import average_precision, coco_style_map, match_detections
from repro.eval.fidelity import FidelityReport, compare_outputs
from repro.eval.ap_estimator import APEstimate, CalibratedAPEstimator
from repro.eval.pruning_stats import PruningStatsReport, collect_pruning_stats
from repro.eval.profiler import (
    LatencyBreakdown,
    SparseSpeedupReport,
    measure_sparse_speedup,
    profile_gpu_latency_breakdown,
)

__all__ = [
    "average_precision",
    "coco_style_map",
    "match_detections",
    "FidelityReport",
    "compare_outputs",
    "APEstimate",
    "CalibratedAPEstimator",
    "PruningStatsReport",
    "collect_pruning_stats",
    "LatencyBreakdown",
    "profile_gpu_latency_breakdown",
    "SparseSpeedupReport",
    "measure_sparse_speedup",
]
