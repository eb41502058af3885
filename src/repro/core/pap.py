"""Probability-aware point pruning (PAP, Sec. 3.2).

After the softmax, the attention probabilities of one (query, head) pair sum
to one and their differences are exponentially amplified, so most of the
``N_l * N_p`` points carry a near-zero probability.  PAP thresholds those
probabilities: points below the threshold are recorded in a bit mask and their
offset generation, grid sampling and aggregation are skipped in the current
block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.tensor_utils import FLOAT_DTYPE


@dataclass
class PAPResult:
    """Outcome of one PAP mask computation.

    Attributes
    ----------
    point_mask:
        Boolean ``(N_q, N_h, N_l, N_p)`` array; ``True`` marks points that are
        kept.
    attention_weights:
        The attention probabilities actually used downstream (pruned entries
        zeroed, survivors unchanged).
    threshold:
        The probability threshold that was applied.
    """

    point_mask: np.ndarray
    attention_weights: np.ndarray
    threshold: float

    @property
    def kept_probability_mass(self) -> float:
        """Average attention probability mass retained per (query, head)."""
        mask = self.point_mask
        weights = np.asarray(self.attention_weights, dtype=np.float64)
        kept = np.where(mask, weights, 0.0)
        per_pair = kept.sum(axis=(-2, -1))
        return float(per_pair.mean()) if per_pair.size else 1.0


def point_keep_mask(
    attention: np.ndarray, threshold: float, out: np.ndarray | None = None
) -> np.ndarray:
    """The PAP keep-mask of ``(..., N_h, N_l, N_p)`` softmax probabilities.

    A point is kept when its probability is at least ``threshold``; the
    highest-probability point of every (query, head) is kept regardless (the
    guard for thresholds above the maximum).  ``out`` (a C-contiguous bool
    array of the probabilities' shape) receives the mask without allocating.
    The guard is set through one flat index per (query, head) — the same
    cells as a ``meshgrid`` fancy index, without materialising the grids.
    """
    mask = np.greater_equal(attention, threshold, out=out)
    width = attention.shape[-2] * attention.shape[-1]
    flat = attention.reshape(-1, width)
    top = np.argmax(flat, axis=-1)
    top += np.arange(0, flat.size, width, dtype=top.dtype)
    mask.reshape(-1)[top] = True
    return mask


def compute_point_mask(attention_weights: np.ndarray, threshold: float) -> PAPResult:
    """Apply PAP to softmax attention probabilities.

    Parameters
    ----------
    attention_weights:
        ``(N_q, N_h, N_l, N_p)`` softmax probabilities (each (query, head)
        slice sums to one).
    threshold:
        Points with probability strictly below this value are pruned, except
        the highest-probability point of every (query, head), which is always
        kept (see :func:`point_keep_mask`).  The survivors keep their raw
        probabilities, as in the paper; pruned entries are zeroed.
    """
    attention = np.asarray(attention_weights, dtype=FLOAT_DTYPE)
    if attention.ndim != 4:
        raise ValueError("attention_weights must have shape (N_q, N_h, N_l, N_p)")
    if not 0 <= threshold < 1:
        raise ValueError("threshold must be in [0, 1)")
    mask = point_keep_mask(attention, threshold)
    pruned_weights = np.where(mask, attention, 0.0).astype(FLOAT_DTYPE)
    return PAPResult(point_mask=mask, attention_weights=pruned_weights, threshold=float(threshold))
