"""Level-wise range narrowing (Sec. 4.1).

The accelerator keeps only a *bounded range* of each pyramid level around the
current reference point in on-chip SRAM.  Sampling offsets are therefore
clamped into a per-level half-range (in pixels of the sampled level).  Two
aspects are modelled:

* the numerical effect of clamping the offsets (a small accuracy cost,
  0.26 AP on average in the paper), and
* the on-chip storage requirement of the bounded ranges, including the ~25 %
  extra storage a *unified* (single, maximal) range would need compared to the
  level-wise ranges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.shapes import LevelShape


@dataclass(frozen=True)
class RangeNarrowing:
    """Level-wise bounded ranges for sampling offsets.

    Parameters
    ----------
    level_ranges:
        Half-range per level, in pixels of that level.  An offset ``(dx, dy)``
        generated for level ``l`` is clamped to ``[-R_l, R_l]`` in both axes.
    """

    level_ranges: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.level_ranges:
            raise ValueError("level_ranges must not be empty")
        if any(r <= 0 for r in self.level_ranges):
            raise ValueError("all ranges must be positive")

    @property
    def num_levels(self) -> int:
        return len(self.level_ranges)

    def unified(self) -> "RangeNarrowing":
        """The unified-range variant: every level uses the maximum range."""
        max_range = max(self.level_ranges)
        return RangeNarrowing(tuple([max_range] * self.num_levels))

    # -------------------------------------------------------------- numerics

    def clamp_offsets(
        self, sampling_offsets: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Clamp raw sampling offsets into the per-level bounded ranges.

        ``sampling_offsets`` has shape ``(N_q, N_h, N_l, N_p, 2)`` — or
        ``(B, N_q, N_h, N_l, N_p, 2)`` for a batch — and is expressed in
        pixels of the sampled level (the Deformable DETR convention before
        dividing by the level size).  ``out`` (optionally the input itself)
        receives the clamped offsets without allocating.
        """
        offsets = np.asarray(sampling_offsets, dtype=FLOAT_DTYPE)
        if offsets.ndim not in (5, 6) or offsets.shape[-3] != self.num_levels:
            raise ValueError(
                f"offsets must have shape (..., N_q, N_h, {self.num_levels}, N_p, 2), "
                f"got {offsets.shape}"
            )
        ranges = self._range_block(offsets)
        return np.clip(offsets, -ranges, ranges, out=out)

    def _range_block(self, offsets: np.ndarray) -> np.ndarray:
        """The bounds as contiguous ``(N_h, N_l, N_p, 2)`` blocks matching the
        offsets' trailing axes: one long inner loop instead of length-2 ones."""
        ranges = np.asarray(self.level_ranges, dtype=FLOAT_DTYPE)[:, None, None]
        return np.ascontiguousarray(np.broadcast_to(ranges, offsets.shape[-4:]))

    def clamp_offsets_inplace(self, sampling_offsets: np.ndarray) -> np.ndarray:
        """:meth:`clamp_offsets` clamping the array in place (fused execution:
        the offsets live in a reusable plan buffer, so no copy is needed).
        Bit-identical to the allocating form."""
        return self.clamp_offsets(sampling_offsets, out=sampling_offsets)

    # --------------------------------------------------------------- storage

    def window_pixels(self, level: int) -> int:
        """Number of pixels in the bounded-range window of *level*.

        The window is the ``(2R+1) x (2R+1)`` square of pixels around the
        reference point (plus the bilinear guard row/column).
        """
        if not 0 <= level < self.num_levels:
            raise ValueError(f"level {level} out of range")
        side = 2 * int(np.ceil(self.level_ranges[level])) + 2
        return side * side

    def storage_bits(
        self,
        d_model: int,
        bits_per_element: int = 12,
        spatial_shapes: list[LevelShape] | None = None,
    ) -> int:
        """On-chip storage (bits) needed for all bounded-range windows.

        If *spatial_shapes* is given, each level's window is additionally
        capped at the full level size (a bounded range larger than the level
        itself cannot require more storage than the level).
        """
        total = 0
        for lvl in range(self.num_levels):
            pixels = self.window_pixels(lvl)
            if spatial_shapes is not None:
                pixels = min(pixels, spatial_shapes[lvl].num_pixels)
            total += pixels * d_model * bits_per_element
        return int(total)

    def unified_storage_overhead(
        self, d_model: int, bits_per_element: int = 12, spatial_shapes: list[LevelShape] | None = None
    ) -> float:
        """Relative extra storage of the unified range vs. the level-wise ranges.

        The paper quotes ~25 % extra storage for the unified restriction
        (Sec. 4.1); this method reproduces that comparison for any range
        configuration.
        """
        own = self.storage_bits(d_model, bits_per_element, spatial_shapes)
        unified = self.unified().storage_bits(d_model, bits_per_element, spatial_shapes)
        if own == 0:
            return 0.0
        return unified / own - 1.0


def full_fmap_storage_bits(
    spatial_shapes: list[LevelShape], d_model: int, bits_per_element: int = 12
) -> int:
    """On-chip storage needed to hold the *entire* multi-scale fmap.

    This is the ~9.8 MB buffer requirement the paper attributes to attention
    accelerators without range narrowing (Sec. 2.2).
    """
    pixels = sum(s.num_pixels for s in spatial_shapes)
    return int(pixels * d_model * bits_per_element)
