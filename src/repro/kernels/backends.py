"""Kernel backends for the compact-trace MSGS hot path.

Two implementations of the gather → bilinear-weight einsum →
``np.add.reduceat`` segment-sum chain that executes a
:class:`~repro.nn.grid_sample.CompactSamplingTrace`:

* :class:`ReferenceBackend` — the PR 3/4 kernel, moved behind this interface
  unchanged: every chunk allocates its gather block, its combined-weight
  array and its contribution rows, and recomputes the flat gather indices
  from the segment ids.
* :class:`FusedBackend` — the same per-point float operations, the same
  chunk boundaries and the same ``reduceat`` association (results are
  **bit-identical**), executed in rank-major order: within a chunk every
  segment's first row comes first, then every second row, and so on, so
  the segment sum is a few contiguous slice adds over all segments at once
  instead of one ``reduceat`` inner-loop call per segment and column.
  Every intermediate is a chunk-sized buffer drawn from an
  :class:`~repro.kernels.plan.ExecutionPlan` and written with ``out=``;
  with a warm plan a steady-state call performs no large allocations.

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

_RANK_MAJOR_MAX_RUN = 16
"""Longest segment (in points) whose sum :func:`_rank_major_sum` covers: a
first row plus at most 15 rest rows.  A segment holds ``num_levels *
num_points`` points, at most 16 in every encoder geometry; a trace with
longer segments is summed by :func:`segment_sum_into` instead."""


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


def add_rows(out: np.ndarray, rows: np.ndarray, values: np.ndarray, scratch: np.ndarray) -> None:
    """``out[rows] += values`` for *distinct* ``rows``, bit for bit.

    Each row of the C-contiguous 2-D ``out`` moves as one opaque
    ``np.void`` item: a take into ``scratch`` (at least ``values``' shape),
    one contiguous add, and a put back.  That skips the fancy-indexed
    read-modify-write, which costs about twice the segment sum it flushes.
    The add is the same float add, and with distinct rows every row is
    written once, so the result equals ``+=`` exactly.
    """
    row_item = np.dtype((np.void, out.shape[1] * out.itemsize))
    out_rows = out.view(row_item).reshape(-1)
    sums = scratch[: values.shape[0]]
    sum_rows = sums.view(row_item).reshape(-1)
    take_into(out_rows, rows, sum_rows)
    np.add(sums, values, out=sums)
    np.put(out_rows, rows, sum_rows, mode="clip")


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


def _rank_major_order(seg: np.ndarray, perm: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Rank-major permutation of one chunk's rows, written into ``perm``.

    ``seg`` holds the chunk's non-decreasing segment ids; a run of equal ids
    is one segment's rows inside the chunk.  The runs are ordered longest
    first (a stable sort, so runs of equal length keep segment order) and
    ``perm`` lists every run's row 0, then every run's row 1, and so on.
    The runs that still have a row ``r`` are a prefix of that order, so
    rank ``r`` is one contiguous block of ``counts[r]`` rows.  Returns the
    runs' segment ids in run order and ``counts``.
    """
    n = seg.size
    starts = np.concatenate(([0], np.flatnonzero(seg[1:] != seg[:-1]) + 1))
    lengths = np.diff(starts, append=n)
    # Runs hold at most _RANK_MAJOR_MAX_RUN rows: an 8-bit key gets numpy's
    # radix sort, ~10x faster than the stable sort of an int64 key.
    order = np.argsort(-lengths.astype(np.int8), kind="stable")
    starts = starts[order]
    descending = lengths[order]
    # counts[r] = number of runs longer than r.
    counts = np.searchsorted(-descending, -np.arange(descending[0]), side="left").tolist()
    offset = 0
    for r, c in enumerate(counts):
        np.add(starts[:c], r, out=perm[offset : offset + c])
        offset += c
    return seg[starts], counts


def _rank_major_sum(contrib: np.ndarray, counts: list[int]) -> None:
    """Sum each run of a rank-major ``contrib`` block into its rank-0 row.

    Reproduces ``np.add.reduceat``'s association.  A run of rows ``a0 ..
    an`` sums as ``a0 + pairwise(a1 .. an)``, and numpy's pairwise sum of
    ``n <= 15`` rows is ``(a1 + a2) + ...`` below 8 rows and ``(((a1 + a2)
    + (a3 + a4)) + ((a5 + a6) + (a7 + a8))) + a9 + ...`` from 8 rows on
    (``_c/defa_kernels.c`` spells out the same association).  NumPy 2.4
    starts the short sum from ``-0.0`` (older releases may start from
    ``0.0``); skipping that start can change only the sign of a zero sum,
    which the flush into the zero-filled output erases.  Runs are longest
    first, so the runs taking part in each step are a prefix of a rank
    block (for the sequential runs, the part of it after the tree runs):
    every step is one slice add.  The rest sums accumulate in place in the
    rank-1 rows; afterwards rank-0 row ``i`` holds run ``i``'s sum.
    """
    counts = counts + [0] * (_RANK_MAJOR_MAX_RUN - len(counts))
    offsets = np.cumsum([0] + counts).tolist()
    block = [contrib[offsets[r] : offsets[r + 1]] for r in range(len(counts))]

    def add(r: int, s: int, lo: int, hi: int) -> None:  # block[r] += block[s], rows lo:hi
        np.add(block[r][lo:hi], block[s][lo:hi], out=block[r][lo:hi])

    multi, tree = counts[1], counts[8]
    if tree:  # 8 to 15 rest rows: the 8-accumulator tree, then a sequential tail
        for r in (1, 3, 5, 7):
            add(r, r + 1, 0, tree)
        add(1, 3, 0, tree)
        add(5, 7, 0, tree)
        add(1, 5, 0, tree)
        for r in range(9, _RANK_MAJOR_MAX_RUN):
            add(1, r, 0, counts[r])
    for r in range(2, 8):  # 1 to 7 rest rows: sequential
        add(1, r, tree, max(tree, counts[r]))
    np.add(block[0][:multi], block[1], out=block[0][:multi])


class FusedBackend:
    """Single-pass, buffer-reusing, rank-major variant of the compact-trace kernel.

    Bit-identical to :class:`ReferenceBackend`: every kept point's
    contribution row comes from the same gather, weight combine and einsum,
    the chunk boundaries are the same, and each segment's rows are summed
    with ``reduceat``'s association.  Only the order of execution differs:
    within a chunk the rows run rank-major (see :func:`_rank_major_order`),
    so each step of the segment sum is one contiguous slice add over many
    segments (:func:`_rank_major_sum`) instead of one ``reduceat``
    inner-loop call per segment and column.  Every intermediate is a
    chunk-sized plan buffer written with ``out=``, so with a warm plan a
    steady-state call makes no large allocations.  A trace whose segments
    hold more than :data:`_RANK_MAJOR_MAX_RUN` points keeps the rows in
    trace order and sums them with :func:`segment_sum_into`.  A plan-less
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
        per_seg = trace.num_levels * trace.num_points
        rank_major = per_seg <= _RANK_MAJOR_MAX_RUN
        if plan is None:
            plan = ExecutionPlan()

        output = plan.zeros("msgs.out", (batch * n_q * n_h, d_h), FLOAT_DTYPE)
        chunk = max(1, _SPARSE_CONTRIB_BUDGET_BYTES // (4 * 4 * max(d_h, 1)))
        rows = min(chunk, max(k, 1))
        seg = plan.buffer("msgs.seg", (rows,), np.int64)
        perm = plan.buffer("msgs.perm", (rows,), np.int64)
        row_seg = plan.buffer("msgs.row_seg", (rows,), np.int64)
        gidx = plan.buffer("msgs.gidx", (rows, 4), np.int64)
        gathered = plan.buffer("msgs.gathered", (rows, 4, d_h))
        w4 = plan.buffer("msgs.w4", (rows, 4))
        w4_rows = plan.buffer("msgs.w4_rows", (rows, 4))
        contrib = plan.buffer("msgs.contrib", (rows, d_h))
        # The gather block is dead once the contributions exist: the flush
        # scratch of add_rows.
        flush = gathered.reshape(-1, d_h)
        image = plan.buffer("msgs.image", (rows,), np.int64) if batch > 1 else None
        for lo in range(0, k, chunk):
            hi = min(lo + chunk, k)
            n = hi - lo
            p = perm[:n]
            with kernel_section("gather"):
                np.floor_divide(trace.kept[lo:hi], per_seg, out=seg[:n])
                if rank_major:
                    run_seg, counts = _rank_major_order(seg[:n], p)
                else:
                    p[:] = np.arange(n)
                # ((image * N_in) + token) * N_h + head per row, in perm order.
                g = gidx[:n]
                take_into(trace.flat_indices[lo:hi], p, g)
                np.maximum(g, 0, out=g)  # clamp -1 (weight is 0)
                take_into(seg[:n], p, row_seg[:n])
                if image is not None:
                    np.floor_divide(row_seg[:n], n_q * n_h, out=image[:n])
                    np.multiply(image[:n], n_in, out=image[:n])
                    g += image[:n, None]
                np.multiply(g, n_h, out=g)
                np.mod(row_seg[:n], n_h, out=row_seg[:n])
                g += row_seg[:n, None]
                take_into(value_flat, g, gathered[:n])
            with kernel_section("aggregate"):
                # Same order as the reference: (weights * valid) * attn.
                np.multiply(trace.weights[lo:hi], trace.valid[lo:hi], out=w4[:n])
                np.multiply(w4[:n], attn_flat[lo:hi][:, None], out=w4[:n])
                take_into(w4[:n], p, w4_rows[:n])
                np.einsum("kfc,kf->kc", gathered[:n], w4_rows[:n], out=contrib[:n])
                if rank_major:
                    _rank_major_sum(contrib[:n], counts)
                    add_rows(output, run_seg, contrib[: run_seg.size], flush)
                else:
                    segment_sum_into(output, contrib[:n], seg[:n])
        return output
