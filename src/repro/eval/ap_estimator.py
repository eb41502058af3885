"""Calibrated COCO-AP estimator.

The paper reports COCO AP of finetuned Deformable DETR / DN-DETR / DINO
checkpoints under the DEFA algorithm modifications (Fig. 6a).  Finetuned
checkpoints, COCO data and training are unavailable offline, so the
reproduction estimates the AP impact with a two-step substitution:

1. the *measured* quantity is output fidelity: the relative error of the
   encoder memory produced under a DEFA configuration versus the FP32
   unpruned baseline (see :mod:`repro.eval.fidelity`), plus the synthetic-task
   AP measured with the matched-filter head;
2. a saturating sensitivity curve maps relative output error to AP drop.  The
   curve's scale is anchored to the paper's own ablation (an average 0.8 AP
   drop for FWP, 0.3 for PAP, 0.26 for range narrowing, 0.07 for INT12 and a
   catastrophic 9.7 AP drop for INT8), so the estimator reproduces the paper's
   *relative ordering and magnitudes* of the techniques by construction, while
   the measured fidelity decides how a *new* configuration (different k,
   different thresholds) compares to those anchor points.

The estimator therefore answers "how much worse than the calibration point is
this configuration", not "what exactly would COCO AP be" — which is the right
scope for an offline reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class APEstimate:
    """Estimated detection accuracy of one configuration."""

    baseline_ap: float
    """Published AP of the unmodified model."""

    estimated_ap: float
    """Estimated AP under the evaluated configuration."""

    estimated_drop: float
    """Estimated AP drop (baseline - estimated)."""

    relative_error: float
    """The measured output relative error that produced the estimate."""


@dataclass(frozen=True)
class CalibratedAPEstimator:
    """Map measured output fidelity to estimated COCO AP drops.

    The mapping is ``drop = ap_ceiling * (1 - exp(-relative_error / scale))``:
    linear for small perturbations (drop ≈ ceiling/scale * error) and
    saturating at ``ap_ceiling`` for destructive perturbations (INT8).

    Parameters
    ----------
    reference_error:
        Measured relative output error of the paper's default configuration
        (FWP + PAP + range narrowing + INT12) on the synthetic workload.
    reference_drop:
        AP drop the paper reports for that configuration (~1.4 AP averaged
        over the three benchmarks).
    ap_ceiling:
        Maximum possible drop (roughly the baseline AP itself; the INT8
        configuration approaches it).
    """

    reference_error: float
    reference_drop: float = 1.43
    ap_ceiling: float = 46.0

    def __post_init__(self) -> None:
        if self.reference_error <= 0:
            raise ValueError("reference_error must be positive")
        if not 0 < self.reference_drop < self.ap_ceiling:
            raise ValueError("reference_drop must be in (0, ap_ceiling)")

    @property
    def scale(self) -> float:
        """Error scale of the saturating curve, solved from the calibration point."""
        return -self.reference_error / np.log(1.0 - self.reference_drop / self.ap_ceiling)

    def estimate_drop(self, relative_error: float) -> float:
        """Estimated AP drop for a measured relative output error."""
        if relative_error < 0:
            raise ValueError("relative_error must be non-negative")
        return float(self.ap_ceiling * (1.0 - np.exp(-relative_error / self.scale)))

    def estimate(self, relative_error: float, baseline_ap: float) -> APEstimate:
        """Full estimate record for one model/configuration."""
        drop = self.estimate_drop(relative_error)
        return APEstimate(
            baseline_ap=baseline_ap,
            estimated_ap=baseline_ap - drop,
            estimated_drop=drop,
            relative_error=relative_error,
        )
