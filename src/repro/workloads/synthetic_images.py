"""Synthetic COCO-like scenes for the detection workload.

COCO 2017 images and annotations are not available offline, so the synthetic
workload generates scenes with the statistics that matter to DEFA:

* a textured background,
* a variable number of objects with class-specific colour signatures and
  varying sizes/aspect ratios (so that different pyramid levels matter),
* ground-truth boxes and labels for the COCO-style AP evaluation.

Object appearance is deliberately simple (rectangles / ellipses with a class
colour plus texture) — the deformable encoder only sees backbone features, and
what the DEFA algorithm exploits is the *spatial concentration* of feature
energy around objects, which these scenes reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.rng import as_rng

NUM_CLASSES = 6
"""Object classes of every scene, each with a distinct colour signature."""


@dataclass
class SyntheticScene:
    """One synthetic detection scene.

    Attributes
    ----------
    image:
        ``(H, W, 3)`` float image in ``[0, 1]``.
    boxes:
        ``(N, 4)`` ground-truth boxes in normalized ``(x1, y1, x2, y2)``.
    labels:
        ``(N,)`` integer class ids.
    """

    image: np.ndarray
    boxes: np.ndarray
    labels: np.ndarray


def _class_palette(num_classes: int) -> np.ndarray:
    """Distinct, saturated colour per class (``(num_classes, 3)`` in [0,1])."""
    hues = np.linspace(0.0, 1.0, num_classes, endpoint=False)
    palette = np.zeros((num_classes, 3), dtype=FLOAT_DTYPE)
    for i, hue in enumerate(hues):
        # Simple HSV -> RGB with full saturation and value.
        h6 = hue * 6.0
        k = int(np.floor(h6)) % 6
        f = h6 - np.floor(h6)
        p, q, t = 0.0, 1.0 - f, f
        rgb = {
            0: (1.0, t, p),
            1: (q, 1.0, p),
            2: (p, 1.0, t),
            3: (p, q, 1.0),
            4: (t, p, 1.0),
            5: (1.0, p, q),
        }[k]
        palette[i] = rgb
    return palette


class SceneGenerator:
    """Generator of random synthetic detection scenes.

    Parameters
    ----------
    image_height, image_width:
        Scene resolution in pixels.
    rng:
        Seed or generator.

    Each scene holds 3 to 8 objects of :data:`NUM_CLASSES` classes, with
    side lengths of 8 % to 35 % of the image size, on a background textured
    with noise of standard deviation 0.05.
    """

    def __init__(
        self,
        image_height: int = 200,
        image_width: int = 267,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        self.image_height = image_height
        self.image_width = image_width
        self.rng = as_rng(rng)
        self.palette = _class_palette(NUM_CLASSES)

    def generate(self) -> SyntheticScene:
        """Generate one scene."""
        rng = self.rng
        height, width = self.image_height, self.image_width
        base = 0.35 + 0.1 * rng.random()
        image = np.full((height, width, 3), base, dtype=FLOAT_DTYPE)
        image += rng.normal(0.0, 0.05, size=image.shape).astype(FLOAT_DTYPE)

        num_objects = int(rng.integers(3, 8 + 1))
        boxes: list[np.ndarray] = []
        labels: list[int] = []
        for _ in range(num_objects):
            label = int(rng.integers(0, NUM_CLASSES))
            obj_w = rng.uniform(0.08, 0.35)
            obj_h = rng.uniform(0.08, 0.35)
            cx = rng.uniform(obj_w / 2, 1.0 - obj_w / 2)
            cy = rng.uniform(obj_h / 2, 1.0 - obj_h / 2)
            x1, x2 = cx - obj_w / 2, cx + obj_w / 2
            y1, y2 = cy - obj_h / 2, cy + obj_h / 2
            self._draw_object(image, (x1, y1, x2, y2), label, rng)
            boxes.append(np.array([x1, y1, x2, y2], dtype=FLOAT_DTYPE))
            labels.append(label)

        image = np.clip(image, 0.0, 1.0)
        return SyntheticScene(
            image=image,
            boxes=np.asarray(boxes, dtype=FLOAT_DTYPE).reshape(-1, 4),
            labels=np.asarray(labels, dtype=np.int64),
        )

    def generate_batch(self, count: int) -> list[SyntheticScene]:
        """Generate *count* scenes."""
        if count < 0:
            raise ValueError("count must be non-negative")
        return [self.generate() for _ in range(count)]

    def _draw_object(
        self,
        image: np.ndarray,
        box: tuple[float, float, float, float],
        label: int,
        rng: np.random.Generator,
    ) -> None:
        """Draw one object (ellipse-masked colour patch with texture) in place."""
        height, width = image.shape[:2]
        x1, y1, x2, y2 = box
        c1, c2 = int(x1 * width), min(int(x2 * width) + 1, width)
        r1, r2 = int(y1 * height), min(int(y2 * height) + 1, height)
        if c2 <= c1 or r2 <= r1:
            return
        colour = self.palette[label]
        rows = np.arange(r1, r2)
        cols = np.arange(c1, c2)
        cy = (r1 + r2 - 1) / 2.0
        cx = (c1 + c2 - 1) / 2.0
        ry = max((r2 - r1) / 2.0, 1.0)
        rx = max((c2 - c1) / 2.0, 1.0)
        yy, xx = np.meshgrid(rows, cols, indexing="ij")
        mask = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0
        texture = 0.85 + 0.15 * rng.random(size=mask.shape).astype(FLOAT_DTYPE)
        patch = image[r1:r2, c1:c2]
        blended = colour[None, None, :] * texture[..., None]
        patch[mask] = 0.15 * patch[mask] + 0.85 * blended[mask]
        image[r1:r2, c1:c2] = patch
