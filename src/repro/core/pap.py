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

from repro.kernels.plan import ExecutionPlan
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
    def num_points(self) -> int:
        """Total number of sampling points before pruning."""
        return int(self.point_mask.size)

    @property
    def num_kept(self) -> int:
        """Number of points kept."""
        return int(np.count_nonzero(self.point_mask))

    @property
    def kept_probability_mass(self) -> float:
        """Average attention probability mass retained per (query, head)."""
        mask = self.point_mask
        weights = np.asarray(self.attention_weights, dtype=np.float64)
        kept = np.where(mask, weights, 0.0)
        per_pair = kept.sum(axis=(-2, -1))
        return float(per_pair.mean()) if per_pair.size else 1.0


def compute_point_mask(
    attention_weights: np.ndarray,
    threshold: float,
    plan: ExecutionPlan | None = None,
) -> PAPResult:
    """Apply PAP to softmax attention probabilities.

    Parameters
    ----------
    attention_weights:
        ``(N_q, N_h, N_l, N_p)`` softmax probabilities (each (query, head)
        slice sums to one).
    threshold:
        Points with probability strictly below this value are pruned, except
        the highest-probability point of every (query, head), which is always
        kept (a guard for thresholds above the maximum probability).  The
        survivors keep their raw probabilities, as in the paper.
    plan:
        Optional :class:`~repro.kernels.ExecutionPlan` arena.  When given,
        the mask and the pruned weights live in plan buffers (``pap.mask`` /
        ``pap.weights``), so steady-state forwards allocate nothing here.
        The returned :class:`PAPResult` then aliases the arena and is valid
        only until the next same-shape PAP computation on the same plan —
        callers that must retain it (detail collection) pass ``plan=None``.
        Results are bit-identical either way (same ufuncs, ``out=`` only).
    """
    attention = np.asarray(attention_weights, dtype=FLOAT_DTYPE)
    if attention.ndim != 4:
        raise ValueError("attention_weights must have shape (N_q, N_h, N_l, N_p)")
    if not 0 <= threshold < 1:
        raise ValueError("threshold must be in [0, 1)")

    if plan is not None:
        mask = np.greater_equal(
            attention, threshold, out=plan.buffer("pap.mask", attention.shape, bool)
        )
    else:
        mask = attention >= threshold
    n_q, n_h, n_l, n_p = attention.shape
    flat = attention.reshape(n_q, n_h, n_l * n_p)
    top = np.argmax(flat, axis=-1)
    q_idx, h_idx = np.meshgrid(np.arange(n_q), np.arange(n_h), indexing="ij")
    flat_mask = mask.reshape(n_q, n_h, n_l * n_p)
    flat_mask[q_idx, h_idx, top] = True
    mask = flat_mask.reshape(n_q, n_h, n_l, n_p)

    if plan is not None:
        # np.where(mask, attention, 0.0) without the temporary: zeros + masked
        # copy writes the identical float32 values into the arena buffer.
        pruned_weights = plan.zeros("pap.weights", attention.shape, FLOAT_DTYPE)
        np.copyto(pruned_weights, attention, where=mask)
    else:
        pruned_weights = np.where(mask, attention, 0.0).astype(FLOAT_DTYPE)
    return PAPResult(point_mask=mask, attention_weights=pruned_weights, threshold=float(threshold))
