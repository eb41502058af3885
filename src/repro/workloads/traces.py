"""Structured synthetic encoder inputs for the algorithm-level experiments.

The pruning and hardware experiments do not need image pixels — they need
the *sampling behaviour* of the MSDeformAttn layers on inputs whose feature
energy is spatially concentrated the way a backbone's is on real images.
:func:`synthetic_workload_input` builds such features (background noise plus
a handful of Gaussian "object" hotspots per level) together with the object
layout that the closed-form head fitting uses to emulate trained sampling.
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.nn.weight_fitting import ObjectLayout
from repro.utils.rng import as_rng
from repro.workloads.specs import WorkloadSpec


def synthetic_workload_input(
    spec: WorkloadSpec,
    num_hotspots: int = 8,
    noise_std: float = 0.3,
    hotspot_gain: float = 3.0,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, ObjectLayout]:
    """Structured synthetic features plus the object layout that produced them.

    Each pyramid level receives low-amplitude Gaussian noise plus
    ``num_hotspots`` Gaussian bumps ("objects") whose channel signature is a
    random direction in feature space.  The same hotspot positions are used at
    every level (objects appear at all scales), matching the behaviour of an
    FPN backbone on a real image.  The returned :class:`ObjectLayout` is used
    by the closed-form head fitting to emulate trained sampling behaviour.
    """
    rng = as_rng(rng)
    d_model = spec.model.d_model
    shapes = spec.spatial_shapes
    centers = rng.random(size=(num_hotspots, 2))  # normalized (x, y)
    radii = rng.uniform(0.03, 0.12, size=num_hotspots)
    signatures = rng.standard_normal(size=(num_hotspots, d_model)).astype(FLOAT_DTYPE)
    signatures /= np.linalg.norm(signatures, axis=1, keepdims=True)

    chunks = []
    for shape in shapes:
        ys = (np.arange(shape.height, dtype=FLOAT_DTYPE) + 0.5) / shape.height
        xs = (np.arange(shape.width, dtype=FLOAT_DTYPE) + 0.5) / shape.width
        grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
        level = rng.normal(0.0, noise_std, size=(shape.height, shape.width, d_model)).astype(
            FLOAT_DTYPE
        )
        for k in range(num_hotspots):
            dist2 = (grid_x - centers[k, 0]) ** 2 + (grid_y - centers[k, 1]) ** 2
            bump = np.exp(-dist2 / (2.0 * radii[k] ** 2)).astype(FLOAT_DTYPE)
            level += hotspot_gain * bump[..., None] * signatures[k][None, None, :]
        chunks.append(level.reshape(-1, d_model))
    features = np.concatenate(chunks, axis=0).astype(FLOAT_DTYPE)
    layout = ObjectLayout(centers=centers.astype(FLOAT_DTYPE), radii=radii.astype(FLOAT_DTYPE))
    return features, layout
