"""The reconfigurable PE array (Sec. 4.3, Fig. 3).

The array switches between two modes:

* **MM mode** — a 16-element query vector is multiplied with a 16x16 weight
  tile in an output-stationary dataflow (one MAC per PE per cycle).  All
  linear projections of the MSDeformAttn block run in this mode.
* **BA mode** — the lanes are reorganised into bilinear-interpolation (BI)
  operators and aggregation (AG) operators.  Eq. 4 factorises the bilinear
  interpolation so that one BI operator needs only three multipliers and seven
  adders; the AG operator multiplies the interpolated value with its attention
  probability and accumulates the head output.  MSGS and aggregation run fused
  in this mode, so the sampling values never leave the array.

Besides cycle accounting, :func:`bilinear_interpolate_factorized` states
Eq. 4 as code; the tests show it matches the standard bilinear formula.
"""

from __future__ import annotations

import numpy as np

from repro.hardware.config import HardwareConfig


def bilinear_interpolate_factorized(
    n0: np.ndarray, n1: np.ndarray, n2: np.ndarray, n3: np.ndarray, t0: np.ndarray, t1: np.ndarray
) -> np.ndarray:
    """Factorised bilinear interpolation of Eq. 4.

    ``S = N0 + (N2 - N0) t0 + [(N1 - N0) + (N3 - N2 - N1 + N0) t0] t1``

    with ``t0 = y - y0`` and ``t1 = x - x0``.  Only three multiplications are
    needed, which is what allows the BI operator to fit into three multipliers
    and seven adders.
    """
    n0 = np.asarray(n0, dtype=np.float64)
    n1 = np.asarray(n1, dtype=np.float64)
    n2 = np.asarray(n2, dtype=np.float64)
    n3 = np.asarray(n3, dtype=np.float64)
    t0 = np.asarray(t0, dtype=np.float64)
    t1 = np.asarray(t1, dtype=np.float64)
    vertical = n0 + (n2 - n0) * t0
    horizontal = (n1 - n0) + (n3 - n2 - n1 + n0) * t0
    return vertical + horizontal * t1


class ReconfigurablePEArray:
    """Cycle model of the reconfigurable PE array."""

    def __init__(self, config: HardwareConfig) -> None:
        self.config = config

    # --------------------------------------------------------------- MM mode

    def mm_cycles(self, num_macs: int) -> int:
        """Cycles to execute *num_macs* multiply-accumulates in MM mode."""
        if num_macs < 0:
            raise ValueError("num_macs must be non-negative")
        return int(np.ceil(num_macs / self.config.macs_per_cycle))

    # --------------------------------------------------------------- BA mode

    def ba_cycles(self, num_points: int, d_head: int, conflict_factor: float = 1.0) -> int:
        """Cycles of the fused MSGS + aggregation stage.

        ``num_points`` sampling points each produce ``d_head`` interpolated
        channels; the array finishes ``ba_parallel_points x
        ba_channels_per_cycle`` channel results per cycle.  ``conflict_factor``
        scales the cycle count when bank conflicts stall the pipeline
        (intra-level processing); inter-level processing uses 1.0.
        """
        if num_points < 0 or d_head <= 0:
            raise ValueError("invalid BA workload")
        if conflict_factor < 1.0:
            raise ValueError("conflict_factor must be >= 1")
        ideal = np.ceil(num_points * d_head / self.config.ba_samples_per_cycle)
        return int(np.ceil(ideal * conflict_factor))
