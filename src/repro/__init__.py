"""DEFA reproduction: pruning-assisted multi-scale deformable attention acceleration.

This package re-implements the full system described in

    "DEFA: Efficient Deformable Attention Acceleration via Pruning-Assisted
    Grid-Sampling and Multi-Scale Parallel Processing" (DAC 2024)

entirely in NumPy:

* :mod:`repro.nn` — a small NumPy neural-network substrate with the
  multi-scale deformable attention (MSDeformAttn) operator and the
  Deformable-DETR / DN-DETR / DINO encoder workloads.
* :mod:`repro.quant` — fake quantization (INT8 / INT12) used by the paper.
* :mod:`repro.core` — the paper's algorithmic contribution: frequency-weighted
  feature-map pruning (FWP), probability-aware point pruning (PAP), level-wise
  range narrowing, and the combined DEFA attention pipeline.
* :mod:`repro.hardware` — a cycle-approximate simulator of the DEFA
  accelerator (reconfigurable PE array, SRAM banking, HBM2, energy/area models).
* :mod:`repro.baselines` — GPU roofline cost models, Faster R-CNN reference
  and published ASIC platform specs.
* :mod:`repro.workloads` — synthetic COCO-like detection workloads, encoder
  inputs and video streams.
* :mod:`repro.eval` — detection metrics, fidelity metrics, pruning statistics
  and the GPU latency profiler.
* :mod:`repro.experiments` — one module per paper figure/table.
"""

from repro.version import __version__

from repro.core.config import DEFAConfig
from repro.core.pipeline import DEFAAttention
from repro.nn.msdeform_attn import MSDeformAttn
from repro.workloads.specs import WorkloadSpec, get_workload

__all__ = [
    "__version__",
    "DEFAConfig",
    "DEFAAttention",
    "MSDeformAttn",
    "WorkloadSpec",
    "get_workload",
]
