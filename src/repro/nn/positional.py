"""Reference points and positional encodings for deformable encoders.

In the Deformable DETR encoder every query corresponds to a pixel of the
flattened multi-scale feature pyramid.  Its *reference point* is the
normalized centre of that pixel, replicated for every level it samples from.
The sine positional encoding follows the DETR convention (independent sine /
cosine embedding of the normalized x and y coordinates plus a learnable
level embedding is approximated here by a deterministic level offset).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.shapes import LevelShape, total_pixels


def make_reference_points(spatial_shapes: list[LevelShape]) -> np.ndarray:
    """Normalized reference points for every encoder query.

    Returns an array of shape ``(N_in, N_l, 2)`` in ``(x, y)`` order, where the
    reference point of a query (a pixel in level ``l``) is the normalized
    centre of that pixel, broadcast to all ``N_l`` sampled levels (the
    Deformable DETR convention).
    """
    n_levels = len(spatial_shapes)
    if n_levels == 0:
        raise ValueError("spatial_shapes must not be empty")
    points = []
    for shape in spatial_shapes:
        ys = (np.arange(shape.height, dtype=FLOAT_DTYPE) + 0.5) / shape.height
        xs = (np.arange(shape.width, dtype=FLOAT_DTYPE) + 0.5) / shape.width
        grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
        pts = np.stack([grid_x.ravel(), grid_y.ravel()], axis=-1)  # (H*W, 2)
        points.append(pts)
    all_points = np.concatenate(points, axis=0)  # (N_in, 2)
    n_in = total_pixels(spatial_shapes)
    if all_points.shape[0] != n_in:
        raise AssertionError("reference point count mismatch")
    return np.broadcast_to(all_points[:, None, :], (n_in, n_levels, 2)).astype(FLOAT_DTYPE).copy()


def sine_positional_encoding(spatial_shapes: list[LevelShape], d_model: int) -> np.ndarray:
    """Sine/cosine positional encoding of shape ``(N_in, d_model)``.

    Half of the channels encode the normalized y coordinate and half the x
    coordinate, each with alternating sine and cosine at geometrically spaced
    frequencies (temperature 10000).  A small deterministic per-level offset
    stands in for the learnable level embedding of the reference
    implementation.
    """
    if d_model % 4 != 0:
        raise ValueError("d_model must be divisible by 4 for sine positional encoding")
    num_pos_feats = d_model // 2
    dim_t = np.arange(num_pos_feats, dtype=FLOAT_DTYPE)
    dim_t = 10000.0 ** (2 * (dim_t // 2) / num_pos_feats)

    chunks = []
    for lvl, shape in enumerate(spatial_shapes):
        ys = (np.arange(shape.height, dtype=FLOAT_DTYPE) + 0.5) / shape.height
        xs = (np.arange(shape.width, dtype=FLOAT_DTYPE) + 0.5) / shape.width
        grid_y, grid_x = np.meshgrid(ys, xs, indexing="ij")
        pos_x = grid_x.ravel()[:, None] * 2 * np.pi / dim_t
        pos_y = grid_y.ravel()[:, None] * 2 * np.pi / dim_t
        pos_x = np.stack([np.sin(pos_x[:, 0::2]), np.cos(pos_x[:, 1::2])], axis=-1).reshape(
            -1, num_pos_feats
        )
        pos_y = np.stack([np.sin(pos_y[:, 0::2]), np.cos(pos_y[:, 1::2])], axis=-1).reshape(
            -1, num_pos_feats
        )
        pos = np.concatenate([pos_y, pos_x], axis=-1)
        # Deterministic stand-in for the learnable level embedding.
        pos = pos + 0.1 * lvl
        chunks.append(pos.astype(FLOAT_DTYPE))
    return np.concatenate(chunks, axis=0)
