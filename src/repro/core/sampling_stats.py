"""Sampled-frequency statistics of the grid-sampling stage.

FWP (Sec. 3.1) is driven by how often every fmap pixel is touched by bilinear
interpolation within one MSDeformAttn block: each of the four neighbours of a
(kept) sampling point counts one access.  This module computes that frequency
map from a sampling trace.
"""

from __future__ import annotations

import numpy as np

from repro.nn.grid_sample import BatchedSamplingTrace, CompactSamplingTrace, SamplingTrace
from repro.utils.shapes import total_pixels


def sampled_frequency(
    trace: SamplingTrace | BatchedSamplingTrace,
    point_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Per-pixel sampled frequency over the flattened multi-scale token axis.

    Parameters
    ----------
    trace:
        Sampling trace of one MSDeformAttn block: a
        :class:`~repro.nn.grid_sample.BatchedSamplingTrace`, or a single
        image's :class:`~repro.nn.grid_sample.SamplingTrace` (counted as a
        ``B = 1`` batch).
    point_mask:
        Optional boolean ``([B,] N_q, N_h, N_l, N_p)`` keep-mask (PAP);
        neighbours of pruned points are not counted, matching the accelerator
        dataflow in which pruned points are never sampled.

    Returns
    -------
    ``int64`` access count of every pixel: ``(B, N_in)`` for a batched
    trace, ``(N_in,)`` for a single image.  One ``np.bincount`` over
    batch-offset token indices counts the whole batch; the counts are
    integers, so they equal :func:`sampled_frequency_reference` exactly.
    """
    single = isinstance(trace, SamplingTrace)
    if single:
        trace = trace.as_batch()
    n_in = total_pixels(trace.spatial_shapes)
    batch = trace.batch_size
    valid = trace.valid
    if point_mask is not None:
        point_mask = np.asarray(point_mask, dtype=bool)
        expected = valid.shape[1:-1] if single else valid.shape[:-1]
        if point_mask.shape != expected:
            raise ValueError("point_mask shape must match trace points")
        if single:
            point_mask = point_mask[None]
        valid = valid & point_mask[..., None]
    offsets = (np.arange(batch, dtype=np.int64) * n_in).reshape(
        (batch,) + (1,) * (trace.flat_indices.ndim - 1)
    )
    indices = (trace.flat_indices + offsets)[valid]
    counts = np.bincount(indices, minlength=batch * n_in)
    counts = counts.reshape(batch, n_in).astype(np.int64)
    return counts[0] if single else counts


def sampled_frequency_reference(
    trace: SamplingTrace,
    point_mask: np.ndarray | None = None,
) -> np.ndarray:
    """``np.add.at`` oracle of :func:`sampled_frequency` for one image.

    Counts every in-bounds neighbour of every kept point one access at a
    time; the tests check each image of a batched count against it.
    """
    n_in = total_pixels(trace.spatial_shapes)
    freq = np.zeros(n_in, dtype=np.int64)
    valid = trace.valid
    if point_mask is not None:
        point_mask = np.asarray(point_mask, dtype=bool)
        if point_mask.shape != trace.valid.shape[:-1]:
            raise ValueError("point_mask shape must match trace points")
        valid = valid & point_mask[..., None]
    np.add.at(freq, trace.flat_indices[valid], 1)
    return freq


def sampled_frequency_compact(trace: CompactSamplingTrace) -> np.ndarray:
    """Per-image sampled frequencies from a compacted trace, ``(B, N_in)``.

    A compacted trace always carries its batch axis (``B = 1`` for one
    image), and so does its count.  The PAP/query mask is already folded
    into the trace (only kept points carry rows), so there is no
    ``point_mask`` argument; row ``b`` equals :func:`sampled_frequency` on
    the dense trace of image ``b`` with the same mask exactly (both count
    the in-bounds neighbours of the kept points).  ``kept`` is sorted, so
    each image's rows form one contiguous slice (two binary searches per
    image); one ``np.bincount`` per slice then avoids materialising
    batch-offset index arrays.
    """
    n_in = total_pixels(trace.spatial_shapes)
    batch = trace.batch_size
    bounds = np.searchsorted(
        trace.kept, np.arange(batch + 1, dtype=np.int64) * trace.points_per_image
    )
    counts = np.empty((batch, n_in), dtype=np.int64)
    for b in range(batch):
        rows = slice(bounds[b], bounds[b + 1])
        counts[b] = np.bincount(
            trace.flat_indices[rows][trace.valid[rows]], minlength=n_in
        )
    return counts
