"""Output-fidelity metrics between the baseline and a modified encoder.

The accuracy impact of the DEFA algorithm techniques (FWP, PAP, range
narrowing, quantization) is fundamentally a question of how much the encoder
output deviates from the full-precision, unpruned reference.  These metrics
quantify that deviation; the calibrated AP estimator
(:mod:`repro.eval.ap_estimator`) maps them to estimated COCO AP drops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.tensor_utils import cosine_similarity


@dataclass(frozen=True)
class FidelityReport:
    """Deviation of a modified encoder output from the reference output."""

    relative_error: float
    """``||y - y_ref|| / ||y_ref||`` over the whole memory tensor."""

    mean_cosine_similarity: float
    """Average per-token cosine similarity between modified and reference output."""

    max_absolute_error: float
    """Worst-case absolute deviation of any element."""

    signal_to_noise_db: float
    """Output signal-to-perturbation ratio in dB."""


def compare_outputs(reference: np.ndarray, modified: np.ndarray) -> FidelityReport:
    """Compute the :class:`FidelityReport` between two ``(N, D)`` outputs."""
    reference = np.asarray(reference, dtype=np.float64)
    modified = np.asarray(modified, dtype=np.float64)
    if reference.shape != modified.shape:
        raise ValueError("reference and modified outputs must have the same shape")
    if reference.size == 0:
        raise ValueError("outputs must not be empty")

    diff = modified - reference
    ref_norm = np.linalg.norm(reference)
    diff_norm = np.linalg.norm(diff)
    relative_error = float(diff_norm / max(ref_norm, 1e-12))
    cos = cosine_similarity(reference, modified, axis=-1)
    snr = 10.0 * np.log10(max(ref_norm, 1e-12) ** 2 / max(diff_norm, 1e-12) ** 2)
    return FidelityReport(
        relative_error=relative_error,
        mean_cosine_similarity=float(np.mean(cos)),
        max_absolute_error=float(np.max(np.abs(diff))),
        signal_to_noise_db=float(snr),
    )
