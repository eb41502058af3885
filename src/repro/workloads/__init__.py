"""Workload definitions: model/workload specs, synthetic scenes and inputs."""

from repro.workloads.specs import (
    SCALE_PRESETS,
    WorkloadSpec,
    get_workload,
)
from repro.workloads.synthetic_images import SceneGenerator, SyntheticScene
from repro.workloads.dataset import SyntheticDetectionDataset
from repro.workloads.video import SyntheticVideoStream, VideoStreamSpec

__all__ = [
    "SCALE_PRESETS",
    "WorkloadSpec",
    "get_workload",
    "SceneGenerator",
    "SyntheticScene",
    "SyntheticVideoStream",
    "VideoStreamSpec",
    "SyntheticDetectionDataset",
]
