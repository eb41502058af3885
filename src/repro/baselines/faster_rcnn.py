"""Faster R-CNN reference point.

The paper uses Faster R-CNN only as a horizontal reference: a similar-workload
CNN detector (180 GFLOPs, > 25 fps on the same GPU) with AP = 42 on COCO,
against which the deformable transformers' accuracy advantage (3.5 - 7.4 AP)
is measured in Fig. 6(a).  The constants below reproduce that reference line.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class FasterRCNNReference:
    """Published characteristics of the Faster R-CNN baseline."""

    name: str = "Faster R-CNN (ResNet-50 FPN)"
    coco_ap: float = 42.0
    end_to_end_gflops: float = 180.0
    fps_rtx3090ti: float = 25.0

FASTER_RCNN = FasterRCNNReference()
"""Singleton reference instance used by the experiments."""
