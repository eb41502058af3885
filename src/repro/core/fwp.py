"""Frequency-weighted feature-map pruning (FWP, Sec. 3.1).

FWP removes fmap pixels with a low sampled frequency.  Within one
MSDeformAttn block the sampled frequency ``F_i`` of every pixel is counted
(see :mod:`repro.core.sampling_stats`); pixels with

.. math::  F_i < T_{FWP} = k \\cdot \\frac{1}{HW} \\sum_j F_j

are recorded in a bit mask (the *fmap mask*).  The mask is applied in the
**next** MSDeformAttn block, where the linear projection ``V = X W^V`` and the
memory accesses of the masked pixels are skipped.  The threshold is computed
per pyramid level (Eq. 2 is written for one ``H x W`` fmap).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.shapes import LevelShape, level_start_indices, total_pixels


@dataclass
class FWPResult:
    """Outcome of one FWP mask computation.

    Attributes
    ----------
    fmap_mask:
        Boolean array of length ``N_in``; ``True`` marks pixels that are
        *kept* for the next block.
    thresholds:
        Per-level threshold values ``T_FWP``.
    """

    fmap_mask: np.ndarray
    thresholds: np.ndarray

    @property
    def num_kept(self) -> int:
        """Number of pixels kept."""
        return int(np.count_nonzero(self.fmap_mask))


def compute_fmap_mask(
    frequency: np.ndarray,
    spatial_shapes: list[LevelShape],
    k: float,
) -> FWPResult | list[FWPResult]:
    """Compute the FWP fmap masks from sampled-frequency arrays.

    Parameters
    ----------
    frequency:
        ``(B, N_in)`` sampled frequencies of the current block, one row per
        image; a single image's flat ``(N_in,)`` array runs as a ``B = 1``
        batch.
    spatial_shapes:
        Pyramid level shapes.
    k:
        Threshold factor of Eq. 2.  The threshold of a level is ``k`` times
        its mean frequency, so ``k = 0`` keeps every pixel, including pixels
        that were never accessed.

    Returns
    -------
    One :class:`FWPResult` per image (a list), or the single
    :class:`FWPResult` of a flat input.  The per-level statistics are
    computed vectorized across the batch.
    """
    frequency = np.asarray(frequency, dtype=np.float64)
    if frequency.ndim not in (1, 2):
        raise ValueError("frequency must have shape (N_in,) or (B, N_in)")
    single = frequency.ndim == 1
    if single:
        frequency = frequency[None]
    batch = frequency.shape[0]
    n_in = total_pixels(spatial_shapes)
    if frequency.shape[1] != n_in:
        raise ValueError(f"frequency rows must have length {n_in}, got {frequency.shape[1]}")
    if k < 0:
        raise ValueError("k must be non-negative")

    starts = level_start_indices(spatial_shapes)
    n_l = len(spatial_shapes)
    masks = np.ones((batch, n_in), dtype=bool)
    thresholds = np.zeros((batch, n_l), dtype=np.float64)
    for lvl, shape in enumerate(spatial_shapes):
        sl = slice(starts[lvl], starts[lvl] + shape.num_pixels)
        level_freq = frequency[:, sl]  # (B, num_pixels)
        level_thresholds = k * level_freq.mean(axis=1)
        keep = level_freq >= level_thresholds[:, None]
        masks[:, sl] = keep
        thresholds[:, lvl] = level_thresholds
    results = [FWPResult(fmap_mask=masks[b], thresholds=thresholds[b]) for b in range(batch)]
    return results[0] if single else results


def normalize_mask(mask: np.ndarray | None) -> np.ndarray | None:
    """Coerce a keep-mask to ``bool`` once, at the pipeline boundary.

    Integer/uint8 masks (non-zero means *keep*) are converted to a boolean
    array; boolean masks pass through without a copy (``np.asarray`` is a
    no-op on them), so every downstream stage can rely on ``mask.dtype ==
    bool`` — in particular on ``~mask`` being a logical, not bitwise,
    negation — without re-casting per stage.  ``None`` passes through.
    """
    if mask is None:
        return None
    return np.asarray(mask, dtype=bool)
