"""Shape-grouped batched execution of workload inputs.

The NN substrate and the DEFA pipeline can execute a *same-shape* batch of
images in one fully vectorized pass (see
:meth:`repro.nn.msdeform_attn.MSDeformAttn.forward_detailed` and
:meth:`repro.core.pipeline.DEFAAttention.forward_detailed`).  Real workload
streams, however, mix resolutions.  :class:`BatchRunner` bridges the two: it
groups submitted :class:`WorkItem`\\ s by their shape signature, packs each
group into batches of at most ``max_batch_size`` images, runs one batched
forward per pack and scatters the results back into submission order.

The runner is model-agnostic — it drives any callable with the signature
``forward(features (B, N_in, D), spatial_shapes) -> (B, N_in, D)`` — and
:func:`defa_forward_fn` adapts the DEFA encoder runner to that signature
(deriving the positional encoding and reference points per shape signature,
cached across batches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.kernels import ExecutionPlan
from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.shapes import LevelShape

ShapeKey = tuple[tuple[int, int], ...]
"""Shape signature of a work item: the ``(height, width)`` of every level."""

BatchForward = Callable[[np.ndarray, list[LevelShape]], np.ndarray]
"""A batched forward: ``(features (B, N_in, D), spatial_shapes) -> (B, N_in, D)``."""


@dataclass(frozen=True, eq=False)
class WorkItem:
    """One image (flattened multi-scale features) queued for execution.

    ``eq=False``: the dataclass-generated ``__eq__``/``__hash__`` would
    choke on the ndarray field (ambiguous truth value / unhashable), so
    items use identity semantics like any queue entry.

    The features are snapshotted at construction: the item stores a private,
    read-only :data:`FLOAT_DTYPE` copy of the caller's array.  Once requests
    queue asynchronously (the serving engine), the time between submit and
    batch execution is unbounded — a caller mutating or recycling its own
    buffer in that window must not be able to corrupt the queued request.
    Non-float dtypes are rejected here (an integer feature array is almost
    certainly a caller bug, not something to cast silently per batch).
    """

    item_id: int | str
    features: np.ndarray
    """Flattened multi-scale features of shape ``(N_in, D)``; stored as a
    read-only ``FLOAT_DTYPE`` copy of the array passed in."""

    spatial_shapes: tuple[LevelShape, ...]
    """Pyramid level shapes whose pixel counts sum to ``N_in``."""

    stream_id: str | None = None
    """Video-stream identity for stream-affine request classes (PR 8).
    ``None`` for ordinary stateless requests.  Items of one stream must be
    processed in ``frame_index`` order by one
    :class:`~repro.engine.streaming.StreamingEncoderSession`, so the serving
    engine routes a stream stickily to a single worker."""

    frame_index: int = 0
    """Position of this item within its stream (ignored without a
    ``stream_id``).  A gap or restart in the sequence forces the session to
    resynchronize with a cold frame."""

    deadline_s: float | None = None
    """Per-request queueing deadline (seconds from submit, PR 10): a serving
    engine expires the request with ``DeadlineExceeded`` if it is still
    queued this long after submission.  ``None`` = no deadline; ignored by
    the synchronous :class:`BatchRunner`."""

    def __post_init__(self) -> None:
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive (or None)")
        features = np.asarray(self.features)
        if features.ndim != 2:
            raise ValueError("WorkItem features must have shape (N_in, D)")
        if not np.issubdtype(features.dtype, np.floating):
            raise ValueError(
                f"WorkItem features must be floating point, got {features.dtype}"
            )
        n_in = sum(s.num_pixels for s in self.spatial_shapes)
        if features.shape[0] != n_in:
            raise ValueError(
                f"features have {features.shape[0]} tokens but spatial "
                f"shapes sum to {n_in}"
            )
        frozen = np.array(features, dtype=FLOAT_DTYPE)  # always copies
        frozen.flags.writeable = False
        object.__setattr__(self, "features", frozen)

    @property
    def shape_key(self) -> ShapeKey:
        """Grouping key: items with equal keys can share one batched forward."""
        return tuple(s.as_tuple() for s in self.spatial_shapes)


@dataclass
class BatchRunStats:
    """Accounting of one :meth:`BatchRunner.run` call."""

    num_items: int = 0
    num_groups: int = 0
    """Number of distinct shape signatures seen."""

    batch_sizes: list[int] = field(default_factory=list)
    """Size of every batched forward that was launched, in launch order."""

    @property
    def num_batches(self) -> int:
        return len(self.batch_sizes)

    @property
    def mean_batch_size(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batch_sizes else 0.0


@dataclass
class BatchRunResult:
    """Outputs of a :meth:`BatchRunner.run` call, in submission order."""

    outputs: list[np.ndarray]
    """Per-item outputs (``(N_in, D)`` each), aligned with the input items."""

    item_ids: list[int | str]
    stats: BatchRunStats


class BatchRunner:
    """Group same-shape work items and execute them in vectorized batches.

    Parameters
    ----------
    forward_fn:
        Batched forward callable (see :data:`BatchForward`).
    max_batch_size:
        Upper bound on the number of images stacked into one forward.
    """

    def __init__(self, forward_fn: BatchForward, max_batch_size: int = 8) -> None:
        if max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        self.forward_fn = forward_fn
        self.max_batch_size = max_batch_size
        # Arena for the (B, N_in, D) stacking copies: the stacked batch is
        # consumed synchronously by forward_fn and never escapes run() (the
        # per-item outputs are fresh copies below), so one named buffer per
        # shape keeps steady-state runs free of per-batch allocations.
        self._stack_plan = ExecutionPlan()

    def plan(self, items: list[WorkItem]) -> dict[ShapeKey, list[int]]:
        """Group item indices by shape signature (insertion-ordered)."""
        groups: dict[ShapeKey, list[int]] = {}
        for index, item in enumerate(items):
            groups.setdefault(item.shape_key, []).append(index)
        return groups

    def run(self, items: list[WorkItem]) -> BatchRunResult:
        """Execute all items, batching within each shape group.

        The result order matches the submission order regardless of how the
        items were grouped, and every output equals the corresponding
        single-image forward (the batched kernels are equivalence-tested).
        """
        groups = self.plan(items)
        outputs: list[np.ndarray | None] = [None] * len(items)
        stats = BatchRunStats(num_items=len(items), num_groups=len(groups))
        for indices in groups.values():
            shapes = list(items[indices[0]].spatial_shapes)
            for start in range(0, len(indices), self.max_batch_size):
                chunk = indices[start : start + self.max_batch_size]
                # Items froze their features to FLOAT_DTYPE at construction,
                # so the stack needs no per-item cast; the rows are copied
                # into a reused arena buffer instead of a fresh np.stack.
                first = items[chunk[0]].features
                stacked = self._stack_plan.buffer(
                    "stack", (len(chunk),) + first.shape, FLOAT_DTYPE
                )
                for row, i in enumerate(chunk):
                    np.copyto(stacked[row], items[i].features)
                batched_out = self.forward_fn(stacked, shapes)
                if batched_out.shape[0] != len(chunk):
                    raise ValueError(
                        "forward_fn returned a batch of "
                        f"{batched_out.shape[0]} for {len(chunk)} items"
                    )
                for out_index, item_index in enumerate(chunk):
                    # Copy so a retained per-item output does not pin the
                    # whole (B, N_in, D) batch array in memory.
                    outputs[item_index] = np.array(batched_out[out_index])
                stats.batch_sizes.append(len(chunk))
        filled = [out for out in outputs if out is not None]
        if len(filled) != len(items):
            raise RuntimeError("BatchRunner left an item without an output")
        return BatchRunResult(outputs=filled, item_ids=[item.item_id for item in items], stats=stats)


def _with_positional_inputs(encode: Callable[..., np.ndarray], d_model: int) -> BatchForward:
    """Adapt ``encode(features, pos, reference_points, spatial_shapes)`` to
    the runner's signature.  Positional encodings and reference points
    depend only on the pyramid shapes, so they are derived once per shape
    signature and cached."""
    from repro.nn.positional import make_reference_points, sine_positional_encoding

    cache: dict[ShapeKey, tuple[np.ndarray, np.ndarray]] = {}

    def forward(features: np.ndarray, spatial_shapes: list[LevelShape]) -> np.ndarray:
        key = tuple(s.as_tuple() for s in spatial_shapes)
        if key not in cache:
            cache[key] = (
                sine_positional_encoding(spatial_shapes, d_model),
                make_reference_points(spatial_shapes),
            )
        return encode(features, *cache[key], spatial_shapes)

    return forward


def defa_forward_fn(runner) -> BatchForward:
    """Adapt a :class:`~repro.core.encoder_runner.DEFAEncoderRunner`.

    Runs the full DEFA algorithm (per-image FWP/PAP mask threading) on each
    batch and returns the batched encoder memory.  The adapter executes
    exactly as the runner is configured — its ``sparse_mode``, kernel
    backend and dispatch profile — so a different execution choice is a
    different runner.  Under a planned backend the runner's
    per-shape-signature :class:`~repro.kernels.ExecutionPlan` arenas are
    reused across every work item this adapter dispatches, so a steady
    stream of same-shape items executes with zero large allocations.
    """
    return _with_positional_inputs(
        lambda *inputs: runner.forward(*inputs).memory, runner.encoder.d_model
    )
