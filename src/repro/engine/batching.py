"""Work items and the DEFA batched-forward adapter.

The NN substrate and the DEFA pipeline can execute a *same-shape* batch of
images in one fully vectorized pass (see
:meth:`repro.nn.msdeform_attn.MSDeformAttn.forward` and
:meth:`repro.core.pipeline.DEFAAttention.forward_detailed`).  Real workload
streams, however, mix resolutions: the serving engine
(:class:`~repro.engine.serving.ServingEngine`) groups submitted
:class:`WorkItem`\\ s by their shape signature, packs each group into
batches and runs one batched forward per pack.

A batched forward is any callable with the signature
``forward(features (B, N_in, D), spatial_shapes) -> (B, N_in, D)``;
:func:`defa_forward_fn` adapts the DEFA encoder runner to that signature
(deriving the positional encoding and reference points per shape signature,
cached across batches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

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
    queued this long after submission.  ``None`` = no deadline."""

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


def _with_positional_inputs(encode: Callable[..., np.ndarray], d_model: int) -> BatchForward:
    """Adapt ``encode(features, pos, reference_points, spatial_shapes)`` to
    :data:`BatchForward`.  Positional encodings and reference points
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
    exactly as the runner is configured — its ``sparse_mode`` and kernel
    backend — so a different execution choice is a different runner.  Under
    a planned backend the runner's per-shape-signature
    :class:`~repro.kernels.ExecutionPlan` arenas are reused across every
    work item this adapter dispatches, so a steady stream of same-shape
    items executes with zero large allocations.
    """
    return _with_positional_inputs(
        lambda *inputs: runner.forward(*inputs).memory, runner.encoder.d_model
    )
