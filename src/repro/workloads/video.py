"""Synthetic video streams: deterministic moving scenes over the pyramid.

The paper prunes per image; a *video* workload is what makes pruning
incremental (PR 8).  :class:`SyntheticVideoStream` renders a moving-object
scene directly in flattened multi-scale feature space — the same ``(N_in,
D)`` layout every encoder entry point consumes — so streaming sessions and
equivalence probes run on it without an image-to-feature frontend.

Determinism is the load-bearing property: every random draw (background
texture, per-object feature signatures, start positions, velocities) happens
once at construction from ``spec.seed``, and :meth:`frame` is a pure
function of the frame index.  Two streams built from the same spec produce
bit-identical frames, a frame can be re-rendered out of order (the serving
engine's serial reference loop relies on this), and slow motion quantizes to
*bit-identical consecutive frames* whenever no object crosses a cell
boundary on any level — exactly the temporally-static case the
:class:`~repro.engine.streaming.StreamingEncoderSession` fast path exploits.

Objects move on straight lines and reflect off the scene walls (position
folding, still a pure function of ``i``), so arbitrarily long streams stay
inside the unit scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.shapes import LevelShape, total_pixels


@dataclass(frozen=True)
class VideoStreamSpec:
    """Configuration of one synthetic video stream.

    Parameters
    ----------
    num_frames:
        Stream length (only bounds iteration helpers; :meth:`SyntheticVideoStream.
        frame` accepts any non-negative index).
    num_objects:
        Moving objects composited over the static background.
    object_size:
        Object radius as a fraction of the scene's short side.
    motion:
        Per-frame displacement in normalized scene units.  At the paper
        scale's finest level (~100x133 cells) the default moves an object
        about one-third of a cell per frame — a low-motion stream where most
        frames touch only the cells near object boundaries.
    feature_scale:
        Amplitude of the object features relative to the unit-variance
        background.
    seed:
        Seed of every random draw (all taken at construction).
    """

    num_frames: int = 8
    num_objects: int = 3
    object_size: float = 0.12
    motion: float = 0.0025
    feature_scale: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_frames <= 0:
            raise ValueError("num_frames must be positive")
        if self.num_objects < 0:
            raise ValueError("num_objects must be non-negative")
        if not 0 < self.object_size < 0.5:
            raise ValueError("object_size must be in (0, 0.5)")
        if self.motion < 0:
            raise ValueError("motion must be non-negative")


def _reflect(position: np.ndarray) -> np.ndarray:
    """Fold unbounded straight-line motion back into ``[0, 1]`` (reflective
    walls); pure and vectorized, so ``frame(i)`` needs no stepping."""
    period = np.mod(position, 2.0)
    return np.where(period > 1.0, 2.0 - period, period)


class SyntheticVideoStream:
    """Deterministic moving-object scene in flattened feature space.

    Parameters
    ----------
    spatial_shapes:
        Pyramid level shapes of every frame (fixed for the stream — that is
        what lets sessions keep one warm :class:`~repro.kernels.ExecutionPlan`
        arena per stream).
    d_model:
        Feature dimension ``D``.
    spec:
        Stream configuration (all randomness derives from ``spec.seed``).
    """

    def __init__(
        self,
        spatial_shapes: list[LevelShape] | tuple[LevelShape, ...],
        d_model: int,
        spec: VideoStreamSpec | None = None,
    ) -> None:
        self.spatial_shapes = tuple(spatial_shapes)
        self.d_model = int(d_model)
        self.spec = spec or VideoStreamSpec()
        self.num_tokens = total_pixels(list(self.spatial_shapes))

        rng = np.random.default_rng(self.spec.seed)
        # Static background: unit-variance texture per level, drawn once.
        self._background = rng.standard_normal((self.num_tokens, self.d_model)).astype(
            FLOAT_DTYPE
        )
        n_obj = self.spec.num_objects
        # Per-object feature signature, start center and velocity (normalized
        # scene units; direction uniform on the circle, speed = spec.motion).
        self._object_features = (
            self.spec.feature_scale * rng.standard_normal((n_obj, self.d_model))
        ).astype(FLOAT_DTYPE)
        self._centers0 = rng.uniform(0.15, 0.85, size=(n_obj, 2))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=n_obj)
        self._velocity = self.spec.motion * np.stack(
            [np.cos(angles), np.sin(angles)], axis=1
        )
        # Per-level cell-center coordinates in normalized scene units,
        # flattened in the same row-major order as the feature layout.
        self._cell_centers = []
        for shape in self.spatial_shapes:
            ys = (np.arange(shape.height) + 0.5) / shape.height
            xs = (np.arange(shape.width) + 0.5) / shape.width
            grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
            self._cell_centers.append(
                np.stack([grid_y.reshape(-1), grid_x.reshape(-1)], axis=1)
            )

    # ------------------------------------------------------------- rendering

    def _coverage(self, frame_index: int) -> np.ndarray:
        """Boolean ``(num_objects, N_in)``: which cells each object covers.

        Coverage is computed against the *cell centers*, so an object whose
        continuous position moved less than a cell does not change any
        coverage bit — the quantization that yields bit-identical frames
        under slow motion.
        """
        if frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        centers = _reflect(self._centers0 + frame_index * self._velocity)
        radius = self.spec.object_size
        covered = np.zeros((len(centers), self.num_tokens), dtype=bool)
        offset = 0
        for cells in self._cell_centers:
            # Elliptical footprint in normalized units (isotropic radius).
            dist2 = ((cells[None, :, :] - centers[:, None, :]) ** 2).sum(axis=2)
            covered[:, offset : offset + len(cells)] = dist2 <= radius * radius
            offset += len(cells)
        return covered

    def frame(self, frame_index: int) -> np.ndarray:
        """Render frame ``i`` as flattened features ``(N_in, D)``.

        Pure in ``frame_index``: the background is static and each covered
        cell takes its object's fixed signature (later objects over earlier
        ones where footprints overlap), so re-rendering any index gives a
        bit-identical array.
        """
        features = self._background.copy()
        for covered, signature in zip(
            self._coverage(frame_index), self._object_features
        ):
            features[covered] = signature
        return features
