"""Kernel backends for the compact-trace MSGS hot path.

Two implementations of the gather → bilinear-weight einsum →
``np.add.reduceat`` segment-sum chain that executes a
:class:`~repro.nn.grid_sample.CompactSamplingTrace`:

* :class:`ReferenceBackend` — the PR 3/4 kernel, moved behind this interface
  unchanged: every chunk allocates its gather block, its combined-weight
  array and its contribution rows, and recomputes the flat gather indices
  from the segment ids.
* :class:`FusedBackend` — the same chunk structure and the same float
  operations in the same order (results are **bit-identical**), but executed
  as one single-pass kernel per chunk: the flattened neighbour gather
  indices are precomputed once per trace (not once per chunk), every
  intermediate is written into caller-reusable ``out=`` buffers drawn from
  an :class:`~repro.kernels.plan.ExecutionPlan`, and the weight combine runs
  in-place instead of materialising three temporaries.  With a warm plan a
  steady-state call performs no large allocations.

Both backends are duck-typed over the trace (``kept`` / ``flat_indices`` /
``weights`` / ``valid`` / ``segments()`` / geometry attributes) so this
module never imports the NN substrate; :mod:`repro.nn.grid_sample`
dispatches into it via :func:`repro.kernels.registry.resolve_backend`.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.plan import ExecutionPlan, take_into
from repro.utils.timing import kernel_section

FLOAT_DTYPE = np.float32

_SPARSE_CONTRIB_BUDGET_BYTES = 8 * 1024 * 1024
"""Upper bound on the compacted ``(N_kept, D_h)`` contribution block per
chunk, mirroring the cache-size chunking of the dense kernel.  Shared by
every registry backend (the compiled one imports it, and its C kernel
flushes at the same boundaries) so their chunk boundaries, and therefore
their float summation order, are identical."""


def segment_sum_into(out: np.ndarray, contrib: np.ndarray, seg: np.ndarray) -> None:
    """Accumulate ``contrib`` rows into ``out[seg]`` for *sorted* segment ids.

    ``seg`` must be non-decreasing (compaction via ``np.flatnonzero``
    guarantees it).  Implemented with one ``np.add.reduceat`` over the starts
    of the non-empty segments — orders of magnitude faster than ``np.add.at``
    and exact up to float summation order.
    """
    if contrib.shape[0] == 0:
        return
    first = int(seg[0])
    last = int(seg[-1])
    counts = np.bincount(seg - first, minlength=last - first + 1)
    nonempty = counts > 0
    ends = np.cumsum(counts)
    starts = ends - counts
    # Non-empty segment starts are strictly increasing, and the rows between
    # two consecutive ones belong to exactly the earlier segment (empty
    # segments contribute no rows), so reduceat sums each segment exactly.
    sums = np.add.reduceat(contrib, starts[nonempty], axis=0)
    out[first : last + 1][nonempty] += sums


class ReferenceBackend:
    """The PR 3/4 compact-trace kernel, unchanged."""

    name = "reference"
    fused = False
    """Whether this backend uses :class:`ExecutionPlan` arenas (see
    :meth:`repro.core.encoder_runner.DEFAEncoderRunner.execution_plan`)."""

    def compact_gather_aggregate(
        self,
        value_flat: np.ndarray,
        trace,
        attn_flat: np.ndarray,
        n_in: int,
        plan: ExecutionPlan | None = None,
    ) -> np.ndarray:
        """Gather + segment-sum aggregation over an already-compacted trace.

        ``value_flat`` is the ``(B * N_in * N_h, D_h)`` value-row matrix,
        ``attn_flat`` the ``(K,)`` attention probabilities of the kept points
        (in ``trace.kept`` order).  Returns the ``(B * N_q * N_h, D_h)`` head
        outputs.  The kernel is a chunked gather, one einsum over the four
        neighbours and a segment sum; ``plan`` is accepted for interface
        parity and ignored (the reference kernel allocates per chunk).
        """
        d_h = value_flat.shape[1]
        n_h = trace.num_heads
        n_q, batch = trace.num_queries, trace.batch_size
        seg_all = trace.segments()
        output = np.zeros((batch * n_q * n_h, d_h), dtype=FLOAT_DTYPE)
        chunk = max(1, _SPARSE_CONTRIB_BUDGET_BYTES // (4 * 4 * max(d_h, 1)))
        for lo in range(0, trace.num_kept, chunk):
            sl = slice(lo, lo + chunk)
            with kernel_section("gather"):
                seg = seg_all[sl]
                head = seg % n_h
                token = np.maximum(trace.flat_indices[sl], 0)  # clamp -1 (weight is 0)
                if batch > 1:
                    image = seg // (n_q * n_h)
                    gather_idx = ((image[:, None] * n_in) + token) * n_h + head[:, None]
                else:
                    gather_idx = token * n_h + head[:, None]
                gathered = value_flat[gather_idx]  # (K_chunk, 4, D_h)
            with kernel_section("aggregate"):
                w4 = trace.weights[sl] * trace.valid[sl] * attn_flat[sl][:, None]
                contrib = np.einsum("kfc,kf->kc", gathered, w4)
                segment_sum_into(output, contrib, seg)
        return output


class FusedBackend:
    """Single-pass, buffer-reusing variant of the compact-trace kernel.

    Bit-identical to :class:`ReferenceBackend`: the chunk boundaries, the
    gather order, the weight-combine order and the reduceat groupings are
    the same — only the memory traffic differs (precomputed whole-trace
    gather indices, in-place weight combine, ``np.take``/``np.einsum`` with
    ``out=`` into plan buffers instead of fresh temporaries).  A plan-less
    call runs on a fresh :class:`ExecutionPlan`, so its output never
    aliases another call's.
    """

    name = "fused"
    fused = True

    def compact_gather_aggregate(
        self,
        value_flat: np.ndarray,
        trace,
        attn_flat: np.ndarray,
        n_in: int,
        plan: ExecutionPlan | None = None,
    ) -> np.ndarray:
        d_h = value_flat.shape[1]
        n_h = trace.num_heads
        n_q, batch = trace.num_queries, trace.batch_size
        k = trace.num_kept
        if plan is None:
            plan = ExecutionPlan()

        with kernel_section("gather"):
            seg_all = trace.segments()
            head = plan.buffer("msgs.head", (k,), np.int64)
            np.mod(seg_all, n_h, out=head)
            # Flattened neighbour gather indices, once per trace (the
            # reference kernel rebuilds this per chunk from the segment ids):
            # ((image * N_in) + token) * N_h + head.
            gidx = plan.buffer("msgs.gather_idx", (k, 4), np.int64)
            np.maximum(trace.flat_indices, 0, out=gidx)  # clamp -1 (weight is 0)
            if batch > 1:
                image = plan.buffer("msgs.image", (k,), np.int64)
                np.floor_divide(seg_all, n_q * n_h, out=image)
                np.multiply(image, n_in, out=image)
                gidx += image[:, None]
            np.multiply(gidx, n_h, out=gidx)
            gidx += head[:, None]

        output = plan.zeros("msgs.out", (batch * n_q * n_h, d_h), FLOAT_DTYPE)
        chunk = max(1, _SPARSE_CONTRIB_BUDGET_BYTES // (4 * 4 * max(d_h, 1)))
        gathered = plan.buffer("msgs.gathered", (min(chunk, max(k, 1)), 4, d_h))
        w4 = plan.buffer("msgs.w4", (min(chunk, max(k, 1)), 4))
        contrib = plan.buffer("msgs.contrib", (min(chunk, max(k, 1)), d_h))
        for lo in range(0, k, chunk):
            hi = min(lo + chunk, k)
            n = hi - lo
            sl = slice(lo, hi)
            with kernel_section("gather"):
                take_into(value_flat, gidx[sl], gathered[:n])
            with kernel_section("aggregate"):
                # Same order as the reference: (weights * valid) * attn.
                np.multiply(trace.weights[sl], trace.valid[sl], out=w4[:n])
                np.multiply(w4[:n], attn_flat[sl][:, None], out=w4[:n])
                np.einsum("kfc,kf->kc", gathered[:n], w4[:n], out=contrib[:n])
                segment_sum_into(output, contrib[:n], seg_all[sl])
        return output
