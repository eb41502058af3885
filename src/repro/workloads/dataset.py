"""Synthetic detection dataset: scenes plus their backbone feature pyramids.

Bundles the scene generator and the synthetic FPN backbone into a dataset
object with a calibration split (used to build the detection-head prototypes)
and an evaluation split (used to measure AP under the different DEFA
configurations).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.backbone import FeaturePyramid, SyntheticFPNBackbone
from repro.nn.models import ModelConfig
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.shapes import LevelShape
from repro.workloads.synthetic_images import SceneGenerator, SyntheticScene


@dataclass
class DatasetSample:
    """One scene together with its extracted feature pyramid."""

    scene: SyntheticScene
    pyramid: FeaturePyramid

    @property
    def features(self) -> np.ndarray:
        """Flattened ``(N_in, D)`` features (the MSDeformAttn value input)."""
        return self.pyramid.flat

    @property
    def spatial_shapes(self) -> list[LevelShape]:
        return self.pyramid.spatial_shapes


class SyntheticDetectionDataset:
    """Calibration + evaluation scenes for the synthetic detection task.

    Parameters
    ----------
    model:
        Benchmark model configuration (provides ``d_model`` and strides).
    image_height, image_width:
        Scene resolution (usually taken from a :class:`WorkloadSpec`).
    num_calibration, num_eval:
        Number of scenes in each split.
    rng:
        Seed or generator; scene content and backbone weights are derived
        deterministically from it.
    """

    def __init__(
        self,
        model: ModelConfig,
        image_height: int,
        image_width: int,
        num_calibration: int = 4,
        num_eval: int = 8,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_calibration <= 0 or num_eval <= 0:
            raise ValueError("both splits must contain at least one scene")
        backbone_rng, calib_rng, eval_rng = spawn_rngs(as_rng(rng), 3)
        self.model = model
        self.backbone = SyntheticFPNBackbone(
            d_model=model.d_model, strides=model.strides, rng=backbone_rng
        )
        calib_generator = SceneGenerator(
            image_height=image_height,
            image_width=image_width,
            rng=calib_rng,
        )
        eval_generator = SceneGenerator(
            image_height=image_height,
            image_width=image_width,
            rng=eval_rng,
        )
        self.calibration: list[DatasetSample] = [
            self._make_sample(scene) for scene in calib_generator.generate_batch(num_calibration)
        ]
        self.evaluation: list[DatasetSample] = [
            self._make_sample(scene) for scene in eval_generator.generate_batch(num_eval)
        ]

    def _make_sample(self, scene: SyntheticScene) -> DatasetSample:
        return DatasetSample(scene=scene, pyramid=self.backbone(scene.image))

    @property
    def spatial_shapes(self) -> list[LevelShape]:
        """Pyramid shapes shared by every sample in the dataset."""
        return self.calibration[0].spatial_shapes
