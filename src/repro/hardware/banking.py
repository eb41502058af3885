"""Intra-level vs. inter-level parallel processing of MSGS (Sec. 4.2, Fig. 5/7a).

DEFA computes four sampling points per cycle, which requires reading the
4 x 4 = 16 neighbour pixels from 16 SRAM banks in a single cycle.

* **Intra-level** processing issues the four points of one (query, head,
  level) together.  The level's bounded-range window is interleaved over all
  16 banks (``bank = (row mod 4) * 4 + col mod 4``); the 2x2 neighbourhood of
  one point always hits four distinct banks, but different points frequently
  collide — colliding requests serialize and stall the pipeline.
* **Inter-level** processing issues the p-th point of one (query, head) from
  all four pyramid levels together.  Each level's window owns a private group
  of four banks (``bank = 4*level + (row mod 2)*2 + col mod 2``), so the 16
  requests are conflict-free by construction.

:func:`simulate_bank_conflicts` replays a real sampling trace under either
scheme and reports the cycle counts, from which the Fig. 7(a) throughput boost
is derived.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from repro.nn.grid_sample import SamplingTrace


class BankingScheme(str, Enum):
    """Bank-mapping / issue-grouping scheme of the MSGS pipeline."""

    INTRA_LEVEL = "intra_level"
    INTER_LEVEL = "inter_level"


@dataclass(frozen=True)
class ConflictReport:
    """Result of replaying a sampling trace under one banking scheme."""

    scheme: BankingScheme
    num_groups: int
    """Number of parallel issue groups replayed."""

    active_points: int
    """Number of (kept, in-bounds) sampling points processed."""

    total_cycles: int
    """Cycles needed to serve all groups (>= num_groups)."""

    conflict_cycles: int
    """Extra cycles spent serializing bank conflicts and stalling the pipeline."""

    conflicting_groups: int = 0
    """Number of issue groups that hit at least one bank conflict."""

    @property
    def cycles_per_group(self) -> float:
        """Average cycles per issue group (1.0 = conflict free)."""
        return self.total_cycles / self.num_groups if self.num_groups else 0.0

    @property
    def throughput_points_per_cycle(self) -> float:
        """Sampling points completed per cycle."""
        return self.active_points / self.total_cycles if self.total_cycles else 0.0

    @property
    def conflict_fraction(self) -> float:
        """Fraction of cycles lost to conflicts."""
        return self.conflict_cycles / self.total_cycles if self.total_cycles else 0.0


def _intra_level_banks(rows: np.ndarray, cols: np.ndarray, num_banks: int) -> np.ndarray:
    """Bank index of a pixel under the intra-level interleaving.

    Following Fig. 5(a), the bounded-range window is laid out row-major over
    all banks: two consecutive rows span the 16 banks (8 columns per row
    group), so the 2x2 neighbourhood of a single point is conflict-free while
    different points frequently collide.
    """
    cols_per_group = max(1, num_banks // 2)
    return (rows % 2) * cols_per_group + cols % cols_per_group


def _inter_level_banks(
    rows: np.ndarray, cols: np.ndarray, levels: np.ndarray, num_banks: int, num_levels: int
) -> np.ndarray:
    """Bank index of a pixel under the inter-level (per-level bank group) mapping."""
    banks_per_level = max(1, num_banks // max(num_levels, 1))
    side = max(1, int(np.sqrt(banks_per_level)))
    local = (rows % side) * side + cols % side
    return levels * banks_per_level + local % banks_per_level


CONFLICT_PENALTY_CYCLES = 2
"""Pipeline-stall cycles paid by every issue group that hits at least one
bank conflict.  The paper notes that "extra clock cycles are spent on
detecting bank conflicts, stopping the pipeline, and sequentially
processing the requests": the serialization itself is modelled exactly, and
this constant models the detect/stop/restart overhead."""


def _group_cycles(banks: np.ndarray, active: np.ndarray, num_banks: int) -> np.ndarray:
    """Cycles needed by each issue group.

    ``banks``/``active`` have shape ``(G, K)`` where ``K`` is the number of
    simultaneous requests of one group.  Each bank is a plain single-port
    bank: requests to the same bank serialize (also when they hit the same
    address), so the group cost is the maximum per-bank request count.
    """
    bank_of = np.where(active, banks, -1)
    cycles = np.zeros(banks.shape[0], dtype=np.int64)
    for bank in range(num_banks):
        count = np.sum(bank_of == bank, axis=1)
        np.maximum(cycles, count, out=cycles)
    return cycles


def simulate_bank_conflicts(
    trace: SamplingTrace,
    scheme: BankingScheme | str = BankingScheme.INTER_LEVEL,
    point_mask: np.ndarray | None = None,
    num_banks: int = 16,
) -> ConflictReport:
    """Replay a sampling trace under one banking scheme.

    Parameters
    ----------
    trace:
        Sampling trace of one MSDeformAttn block.
    scheme:
        Banking / issue-grouping scheme.
    point_mask:
        Optional PAP keep-mask ``(N_q, N_h, N_l, N_p)``; pruned points are not
        issued (matching the accelerator dataflow).
    num_banks:
        Number of SRAM banks (16 in the paper's design).

    Every group that hits a conflict also pays
    :data:`CONFLICT_PENALTY_CYCLES`.
    """
    scheme = BankingScheme(scheme)
    rows = trace.rows
    cols = trace.cols
    valid = trace.valid
    levels = trace.levels[..., None]  # broadcast over the 4 neighbours
    n_q, n_h, n_l, n_p, _ = rows.shape

    active = valid.copy()
    if point_mask is not None:
        point_mask = np.asarray(point_mask, dtype=bool)
        if point_mask.shape != (n_q, n_h, n_l, n_p):
            raise ValueError("point_mask shape mismatch")
        active &= point_mask[..., None]

    rows_c = np.maximum(rows, 0)
    cols_c = np.maximum(cols, 0)
    if scheme is BankingScheme.INTRA_LEVEL:
        banks = _intra_level_banks(rows_c, cols_c, num_banks)
        # Issue groups: the N_p points of one (query, head, level).
        group_banks = banks.reshape(n_q * n_h * n_l, n_p * 4)
        group_active = active.reshape(n_q * n_h * n_l, n_p * 4)
    else:
        banks = _inter_level_banks(
            rows_c, cols_c, np.broadcast_to(levels, rows.shape), num_banks, n_l
        )
        # Issue groups: the same point index of one (query, head) across levels.
        order = (0, 1, 3, 2, 4)  # (q, h, p, l, neighbour)
        group_banks = banks.transpose(order).reshape(n_q * n_h * n_p, n_l * 4)
        group_active = active.transpose(order).reshape(n_q * n_h * n_p, n_l * 4)

    nonempty = group_active.any(axis=1)
    cycles = _group_cycles(group_banks[nonempty], group_active[nonempty], num_banks)
    cycles = np.maximum(cycles, 1)
    conflicting = int(np.count_nonzero(cycles > 1))
    total_cycles = int(cycles.sum()) + CONFLICT_PENALTY_CYCLES * conflicting
    num_groups = int(nonempty.sum())
    active_points = int(np.count_nonzero(active.any(axis=-1)))
    return ConflictReport(
        scheme=scheme,
        num_groups=num_groups,
        active_points=active_points,
        total_cycles=total_cycles,
        conflict_cycles=total_cycles - num_groups,
        conflicting_groups=conflicting,
    )


def throughput_boost(intra: ConflictReport, inter: ConflictReport) -> float:
    """MSGS throughput boost of inter-level over intra-level processing (Fig. 7a)."""
    if intra.throughput_points_per_cycle == 0:
        return 0.0
    return inter.throughput_points_per_cycle / intra.throughput_points_per_cycle
