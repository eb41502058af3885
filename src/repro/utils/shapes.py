"""Helpers for multi-scale (pyramid) feature-map shapes.

MSDeformAttn flattens a pyramid of ``N_l`` feature maps of shapes
``(H_l, W_l)`` into a single token axis of length ``N_in = sum(H_l * W_l)``.
These helpers convert between level/row/col coordinates and flattened indices,
and build the standard stride-8/16/32/64 pyramids used by Deformable DETR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LevelShape:
    """Spatial shape of one pyramid level."""

    height: int
    width: int

    def __post_init__(self) -> None:
        if self.height <= 0 or self.width <= 0:
            raise ValueError(f"level shape must be positive, got {self.height}x{self.width}")

    @property
    def num_pixels(self) -> int:
        """Number of pixels (flattened tokens) in this level."""
        return self.height * self.width

    def as_tuple(self) -> tuple[int, int]:
        """Return ``(height, width)``."""
        return (self.height, self.width)


def make_level_shapes(image_height: int, image_width: int, strides: tuple[int, ...]) -> list[LevelShape]:
    """Build pyramid level shapes from an image size and backbone strides.

    The shapes follow the usual ``ceil(image / stride)`` convention of FPN
    backbones, e.g. an 800x1066 image with strides (8, 16, 32, 64) yields
    levels of 100x134, 50x67, 25x34 and 13x17.
    """
    if image_height <= 0 or image_width <= 0:
        raise ValueError("image size must be positive")
    shapes = []
    for stride in strides:
        if stride <= 0:
            raise ValueError(f"stride must be positive, got {stride}")
        height = max(1, int(np.ceil(image_height / stride)))
        width = max(1, int(np.ceil(image_width / stride)))
        shapes.append(LevelShape(height, width))
    return shapes


def total_pixels(shapes: list[LevelShape]) -> int:
    """Total number of tokens over all pyramid levels (``N_in``)."""
    return int(sum(s.num_pixels for s in shapes))


def level_start_indices(shapes: list[LevelShape]) -> np.ndarray:
    """Start index of each level in the flattened token axis.

    Returns an ``int64`` array of length ``len(shapes)``; level ``l`` occupies
    flattened indices ``[start[l], start[l] + H_l * W_l)``.
    """
    sizes = np.array([s.num_pixels for s in shapes], dtype=np.int64)
    starts = np.zeros(len(shapes), dtype=np.int64)
    if len(shapes) > 1:
        starts[1:] = np.cumsum(sizes[:-1])
    return starts
