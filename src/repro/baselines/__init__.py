"""Comparison baselines: GPUs, Faster R-CNN and published ASICs."""

from repro.baselines.gpu import GPUCostModel, GPUSpec, RTX_2080TI, RTX_3090TI
from repro.baselines.faster_rcnn import FASTER_RCNN
from repro.baselines.asic import ASICPlatform, ELSA, SPATTEN, BESAPU, published_platforms

__all__ = [
    "GPUCostModel",
    "GPUSpec",
    "RTX_2080TI",
    "RTX_3090TI",
    "FASTER_RCNN",
    "ASICPlatform",
    "ELSA",
    "SPATTEN",
    "BESAPU",
    "published_platforms",
]
