"""Synthetic FPN backbone: images -> multi-scale feature pyramids.

The paper feeds COCO images through a ResNet-50 + FPN backbone to obtain a
four-level feature pyramid (strides 8/16/32/64).  Offline we cannot run the
trained backbone, so this module builds a lightweight deterministic stand-in:

1. each pyramid level is produced by average-pooling the image down to the
   level resolution (``ceil(H / stride)`` as in FPN),
2. a small set of hand-crafted per-pixel statistics (colour channels, local
   contrast, gradient magnitude) is computed, and
3. a shared random linear projection lifts those statistics to ``d_model``
   channels, followed by a GELU.

The result preserves the property the DEFA algorithm depends on: feature
energy is concentrated around objects, so the sampled-frequency distribution
over fmap pixels is non-uniform (Sec. 3.1 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.modules import Linear
from repro.nn.tensor_utils import FLOAT_DTYPE, gelu
from repro.utils.rng import as_rng
from repro.utils.shapes import LevelShape, make_level_shapes

NUM_IMAGE_STATS = 6
"""Per-pixel statistics fed to the projection: r, g, b, luminance, local
contrast and gradient magnitude."""


@dataclass
class FeaturePyramid:
    """Multi-scale features produced by the backbone.

    Attributes
    ----------
    levels:
        List of per-level feature maps of shape ``(H_l, W_l, D)``.
    spatial_shapes:
        The corresponding :class:`LevelShape` list.
    flat:
        The flattened ``(N_in, D)`` token matrix (levels concatenated in
        order), i.e. the ``X`` input of MSDeformAttn.
    """

    levels: list[np.ndarray]
    spatial_shapes: list[LevelShape]
    flat: np.ndarray


def _average_pool(image: np.ndarray, out_height: int, out_width: int) -> np.ndarray:
    """Average-pool ``(H, W, C)`` to ``(out_height, out_width, C)``.

    Uses area-style pooling over an index partition, which handles output
    sizes that do not divide the input evenly.
    """
    height, width = image.shape[:2]
    row_edges = np.linspace(0, height, out_height + 1).astype(int)
    col_edges = np.linspace(0, width, out_width + 1).astype(int)
    out = np.zeros((out_height, out_width, image.shape[2]), dtype=FLOAT_DTYPE)
    for i in range(out_height):
        r0, r1 = row_edges[i], max(row_edges[i + 1], row_edges[i] + 1)
        for j in range(out_width):
            c0, c1 = col_edges[j], max(col_edges[j + 1], col_edges[j] + 1)
            out[i, j] = image[r0:r1, c0:c1].mean(axis=(0, 1))
    return out


def _image_statistics(image: np.ndarray) -> np.ndarray:
    """Per-pixel statistics of an RGB image: (H, W, NUM_IMAGE_STATS)."""
    image = np.asarray(image, dtype=FLOAT_DTYPE)
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError("image must have shape (H, W, 3)")
    luminance = image.mean(axis=2)
    grad_y = np.abs(np.diff(luminance, axis=0, prepend=luminance[:1]))
    grad_x = np.abs(np.diff(luminance, axis=1, prepend=luminance[:, :1]))
    gradient = grad_x + grad_y
    mean = luminance.mean()
    contrast = np.abs(luminance - mean)
    stats = np.concatenate(
        [image, luminance[..., None], contrast[..., None], gradient[..., None]], axis=2
    )
    return stats.astype(FLOAT_DTYPE)


class SyntheticFPNBackbone:
    """Deterministic image-to-pyramid feature extractor.

    Parameters
    ----------
    d_model:
        Output channel dimension of every pyramid level.
    strides:
        Backbone strides producing the pyramid (one level per stride).
    rng:
        Seed or generator for the projection weights.
    """

    def __init__(
        self,
        d_model: int = 256,
        strides: tuple[int, ...] = (8, 16, 32, 64),
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not strides:
            raise ValueError("at least one stride is required")
        rng = as_rng(rng)
        self.d_model = d_model
        self.strides = tuple(strides)
        self.projection = Linear(NUM_IMAGE_STATS, d_model, rng=rng)
        # Per-level scale so deeper levels are not systematically weaker.
        self.level_scales = np.linspace(1.0, 1.5, len(strides)).astype(FLOAT_DTYPE)

    def level_shapes(self, image_height: int, image_width: int) -> list[LevelShape]:
        """Pyramid shapes for an input image of the given size."""
        return make_level_shapes(image_height, image_width, self.strides)

    def forward(self, image: np.ndarray) -> FeaturePyramid:
        """Extract the multi-scale feature pyramid of *image* (``(H, W, 3)``)."""
        stats = _image_statistics(image)
        shapes = self.level_shapes(image.shape[0], image.shape[1])
        levels = []
        for lvl, shape in enumerate(shapes):
            pooled = _average_pool(stats, shape.height, shape.width)
            # The gain of 4 gives the features roughly unit variance, which
            # keeps the downstream encoder numerically comparable to a
            # trained model.
            features = gelu(self.projection(pooled)) * 4.0 * self.level_scales[lvl]
            levels.append(features.astype(FLOAT_DTYPE))
        flat = np.concatenate([lv.reshape(-1, self.d_model) for lv in levels], axis=0)
        return FeaturePyramid(levels=levels, spatial_shapes=shapes, flat=flat)

    __call__ = forward
