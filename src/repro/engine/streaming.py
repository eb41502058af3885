"""Streaming encoder sessions: temporal reuse across video frames (PR 8).

The DEFA algorithm prunes *within* one image: FWP masks flow block to block,
and under query pruning a pruned pixel's row leaves the whole encoder block
frozen (PR 4).  A video stream adds a second axis of redundancy — most
pixels do not change between consecutive frames.
:class:`StreamingEncoderSession` carries encoder state frame to frame and
extends the same frozen-row convention across *frames*:

* **Warm-started FWP masks.**  The prune trajectory of the last cold
  (keyframe) forward is cached; warm frames intersect it with the frame's
  temporally-dirty set, so a pixel skips a block unless it both changed
  recently *and* survived the keyframe's frequency-based pruning.
* **Cross-frame frozen rows.**  Rows outside the dirty set are excluded from
  every block's mask, leave the whole encoder frozen at their input (the PR
  4 convention, unchanged), and their *output* rows are patched from the
  previous frame's encoded memory — temporally static pixels skip whole
  blocks between frames and reuse their last computed encoding, the
  video-codec P-frame idea applied to encoder blocks.
* **Trace reuse under small motion.**  Sampling offsets are linear in the
  query row (``offsets = query @ W + b``), so ``max|Δoffsets| <= off_gain *
  max|Δfeatures|`` with ``off_gain`` the induced norm of the offset
  projections.  When no row is dirty and that bound stays within
  ``trace_reuse_tol``, the compact sampling trace of the previous frame
  would be reproduced (range narrowing keeps every offset inside the same
  bounded window), and the session skips the forward entirely, returning
  the previous frame's memory.  With the exact defaults (tolerances 0.0)
  this fires precisely on bit-identical frames.
* **Warm arenas.**  A stream has one pyramid signature for its lifetime, so
  the session's :class:`~repro.core.encoder_runner.DEFAEncoderRunner` keeps
  reusing the same :class:`~repro.kernels.ExecutionPlan` arenas frame after
  frame: ``plan_stats()`` shows hits climbing while bytes plateau.  Plans
  are shared per thread and key, so every session over one pyramid in a
  thread runs on one arena, not one arena per session.

Equivalence discipline (the PR 4 trajectory-sensitivity rules): a warm frame
*by design* prunes differently than a cold start — masks are algorithm
decisions, so warm-vs-cold end-to-end diffs are diagnostics, not gates.  The
gated probe is lockstep and blockwise
(:func:`repro.eval.profiler.measure_streaming_blockwise_equivalence`): both
execution paths replay the exact per-block masks a warm frame recorded, so
any drift measured is pure execution-path drift under the usual tolerances
(fp32 1e-5, INT12 a few quantization steps).

Cold starts are forced by the first frame, a ``frame_index`` discontinuity
(serving restarts resynchronize deterministically), every
``keyframe_interval`` frames (bounds drift accumulation and refreshes the
cached prune trajectory), and :meth:`StreamingEncoderSession.reset`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.core.pipeline import DEFALayerStats
from repro.kernels import ExecutionOptions
from repro.nn.encoder import DeformableEncoder
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.shapes import LevelShape, total_pixels


@dataclass(frozen=True)
class StreamingConfig:
    """Temporal-reuse policy of a :class:`StreamingEncoderSession`.

    Parameters
    ----------
    keyframe_interval:
        Force a cold (fully recomputed) frame every this many frames.  The
        cold frame refreshes the cached FWP trajectory and flushes any
        accumulated warm-frame drift, exactly like a video keyframe.
    static_tol:
        Per-element feature threshold below which a row counts as
        temporally static.  ``0.0`` (default) means *bit-identical rows
        only* — the synthetic video workload quantizes slow motion to
        unchanged cells, so the exact default already exercises the reuse
        machinery; raising it is an explicit approximation opt-in.
    trace_reuse_tol:
        Bound on the predicted sampling-offset movement under which a fully
        static frame skips the forward and reuses the previous memory
        outright.  ``0.0`` (default) fires only when the offsets provably
        cannot move (bit-identical input), keeping the fast path exact.
    dilation:
        Half-width, in cells of each level, by which the dirty set is grown
        before masking (the dependency cone of one attention hop).  ``None``
        derives it per level from the config's bounded sampling ranges
        (``ceil(range_l) + 2`` — the range plus the bilinear footprint and
        rounding margin).  Range narrowing is what makes temporal locality
        exploitable: with narrowing disabled a sample may land anywhere, so
        every pixel depends on every dirty pixel and warm frames recompute
        all rows (sessions still reuse arenas and the static fast path).
    options:
        :class:`~repro.kernels.ExecutionOptions` for the session's runner
        (execution path, kernel backend, dispatch profile).
    """

    keyframe_interval: int = 8
    static_tol: float = 0.0
    trace_reuse_tol: float = 0.0
    dilation: int | None = None
    options: ExecutionOptions | None = None

    def __post_init__(self) -> None:
        if self.keyframe_interval < 1:
            raise ValueError("keyframe_interval must be >= 1")
        if self.static_tol < 0 or self.trace_reuse_tol < 0:
            raise ValueError("tolerances must be non-negative")
        if self.dilation is not None and self.dilation < 0:
            raise ValueError("dilation must be non-negative")


@dataclass
class StreamingFrameResult:
    """Outcome of one :meth:`StreamingEncoderSession.process` call."""

    memory: np.ndarray
    """Encoded frame ``(N_in, D)`` — a private copy, safe to retain."""

    kind: str
    """``"cold"`` (full forward), ``"warm"`` (dirty-set forward with
    cross-frame frozen rows) or ``"reused"`` (fully static frame, previous
    memory returned without a forward)."""

    frame_index: int
    """Stream position this frame resynchronized to."""

    computed_rows: int
    """Rows the encoder actually processed (``N_in`` for cold frames, the
    dilated dirty set for warm ones, 0 for reused frames)."""

    total_rows: int
    """``N_in`` of the stream's pyramid."""

    incoming_masks: list[np.ndarray | None] = field(default_factory=list)
    """The incoming FWP mask each block executed with (entry ``j`` feeds
    block ``j``; ``None`` = dense).  Recorded for the lockstep equivalence
    probe, which replays exactly these masks through both execution paths."""

    layer_stats: list[DEFALayerStats] = field(default_factory=list)
    """Per-block pruning statistics (empty for reused frames)."""

    @property
    def pixels_kept(self) -> float:
        """Fraction of rows computed this frame — the pixels-kept diagnostic
        end-to-end warm-vs-cold diffs are reported with."""
        return self.computed_rows / self.total_rows if self.total_rows else 0.0


class StreamingEncoderSession:
    """One video stream's stateful encoder (see the module docstring).

    Sessions always run the block-sparse frozen-row convention —
    ``enable_query_pruning`` is forced on regardless of the config passed
    in, because cross-frame freezing *is* row pruning: without it a masked
    row would still pay the residual/norm/FFN work the session is trying to
    skip.  Configs that already enable it are unchanged.

    Parameters
    ----------
    encoder:
        The shared encoder (sessions of one model bank reuse one).
    config:
        DEFA algorithm configuration (quantization, thresholds, ranges).
    spatial_shapes:
        The stream's fixed pyramid signature; every frame must match.
    streaming:
        Temporal-reuse policy (:class:`StreamingConfig`).
    """

    def __init__(
        self,
        encoder: DeformableEncoder,
        config: DEFAConfig,
        spatial_shapes: list[LevelShape] | tuple[LevelShape, ...],
        streaming: StreamingConfig | None = None,
    ) -> None:
        self.streaming = streaming or StreamingConfig()
        config = config.with_overrides(enable_query_pruning=True)
        self.config = config
        self.spatial_shapes = list(spatial_shapes)
        self.num_tokens = total_pixels(self.spatial_shapes)
        options = self.streaming.options or ExecutionOptions()
        self.runner = DEFAEncoderRunner(encoder, config, options)
        self._pos = sine_positional_encoding(self.spatial_shapes, encoder.d_model)
        self._reference_points = make_reference_points(self.spatial_shapes)
        self._radii = self._level_radii()
        # Induced inf-norm of the offset projections (max output-column L1
        # weight sum over all blocks): |Δoffsets| <= off_gain * |Δfeatures|.
        # Computed from the fp32 weights; with trace_reuse_tol == 0.0 the
        # bound is only ever compared against an exactly-zero delta, so
        # quantization of the projections cannot loosen the exact fast path.
        self._off_gain = max(
            float(np.abs(layer.self_attn.sampling_offsets.weight).sum(axis=0).max())
            for layer in encoder.layers
        )
        self.reset()

    def reset(self) -> None:
        """Drop all cross-frame state; the next frame runs cold."""
        self._prev_input: np.ndarray | None = None
        self._prev_memory: np.ndarray | None = None
        self._warm_fwp: list[np.ndarray | None] = []
        self._last_frame_index: int | None = None
        self._frames_since_cold = 0

    # ------------------------------------------------------------- geometry

    def _level_radii(self) -> list[int]:
        """Per-level dirty-set dilation radius (cells)."""
        if self.streaming.dilation is not None:
            return [self.streaming.dilation] * len(self.spatial_shapes)
        ranges = self.config.effective_ranges(len(self.spatial_shapes))
        if any(not np.isfinite(r) for r in ranges):
            return [-1] * len(self.spatial_shapes)  # unbounded: recompute all
        return [int(np.ceil(r)) + 2 for r in ranges]

    @staticmethod
    def _dilate(grid: np.ndarray, radius: int) -> np.ndarray:
        """Box-dilate a 2D boolean grid by ``radius`` cells (separable OR of
        shifted copies — no SciPy dependency)."""
        if radius <= 0 or not grid.any():
            return grid
        out = grid
        for axis in (0, 1):
            acc = out.copy()
            for shift in range(1, radius + 1):
                forward = np.roll(out, shift, axis=axis)
                backward = np.roll(out, -shift, axis=axis)
                # np.roll wraps; zero the wrapped-around slices so dilation
                # stops at the grid border instead of leaking across it.
                if axis == 0:
                    forward[:shift, :] = False
                    backward[-shift:, :] = False
                else:
                    forward[:, :shift] = False
                    backward[:, -shift:] = False
                acc |= forward
                acc |= backward
            out = acc
        return out

    def _need_mask(self, dirty: np.ndarray) -> np.ndarray | None:
        """Grow the dirty rows into the rows whose outputs they can reach.

        A dirty *value* cell influences any query whose bounded sampling
        window covers it — on every level, since each query samples all
        levels.  The dirty set is therefore projected into every level's
        grid (nearest-cell coordinate scaling) and box-dilated by that
        level's radius.  One attention hop's cone is the deliberate
        heuristic (a full ``num_layers``-hop cone at paper scale would
        cover most of the frame and erase the reuse win); the keyframe
        interval bounds how far the truncation can drift before a cold
        frame flushes it.  Returns ``None`` when locality cannot be
        exploited (unbounded ranges) — recompute every row.
        """
        if any(radius < 0 for radius in self._radii):
            return None
        shapes = self.spatial_shapes
        per_level = []
        offset = 0
        for shape in shapes:
            per_level.append(
                dirty[offset : offset + shape.num_pixels].reshape(
                    shape.height, shape.width
                )
            )
            offset += shape.num_pixels
        need = np.zeros_like(dirty)
        offset = 0
        for target_index, target in enumerate(shapes):
            union = np.zeros((target.height, target.width), dtype=bool)
            for source_index, source in enumerate(shapes):
                grid = per_level[source_index]
                if not grid.any():
                    continue
                if source_index == target_index:
                    union |= grid
                    continue
                rows = np.minimum(
                    (np.arange(target.height) * source.height) // target.height,
                    source.height - 1,
                )
                cols = np.minimum(
                    (np.arange(target.width) * source.width) // target.width,
                    source.width - 1,
                )
                union |= grid[np.ix_(rows, cols)]
            union = self._dilate(union, self._radii[target_index])
            need[offset : offset + target.num_pixels] = union.reshape(-1)
            offset += target.num_pixels
        return need

    # --------------------------------------------------------------- frames

    def _run_cold(self, features: np.ndarray, frame_index: int) -> StreamingFrameResult:
        result = self.runner.forward(
            features, self._pos, self._reference_points, self.spatial_shapes
        )
        # Incoming mask of block j+1 is the mask block j generated; only
        # cold frames refresh the cache — warm frames count sampling
        # frequencies over the dirty subset only, a biased trajectory.
        self._warm_fwp = [None] + [mask.copy() for mask in result.fmap_masks[:-1]]
        return StreamingFrameResult(
            memory=result.memory,
            kind="cold",
            frame_index=frame_index,
            computed_rows=self.num_tokens,
            total_rows=self.num_tokens,
            incoming_masks=[None] + [mask.copy() for mask in result.fmap_masks[:-1]],
            layer_stats=result.layer_stats,
        )

    def _run_warm(
        self, features: np.ndarray, frame_index: int, need: np.ndarray
    ) -> StreamingFrameResult:
        masks = [
            need if cached is None else (need & cached) for cached in self._warm_fwp
        ]
        result = self.runner.forward(
            features,
            self._pos,
            self._reference_points,
            self.spatial_shapes,
            fmap_masks=masks,
        )
        memory = result.memory
        # Rows outside the dilated dirty set were frozen through every block
        # (their output rows equal their input rows, by the frozen-row
        # convention); patch in their previous *encoded* values instead —
        # the cross-frame extension of the convention.
        static = ~need
        memory[static] = self._prev_memory[static]
        return StreamingFrameResult(
            memory=memory,
            kind="warm",
            frame_index=frame_index,
            computed_rows=int(need.sum()),
            total_rows=self.num_tokens,
            incoming_masks=masks,
            layer_stats=result.layer_stats,
        )

    def process(
        self, features: np.ndarray, frame_index: int | None = None
    ) -> StreamingFrameResult:
        """Encode one frame, reusing cross-frame state where possible.

        ``frame_index`` defaults to the next index in sequence; passing an
        explicit index that is not ``last + 1`` (a dropped frame, a replay,
        a serving restart) forces a deterministic cold resynchronization.
        """
        features = np.asarray(features, dtype=FLOAT_DTYPE)
        if features.ndim != 2 or features.shape[0] != self.num_tokens:
            raise ValueError(
                f"frame features must have shape ({self.num_tokens}, D) "
                f"matching the session's pyramid, got {features.shape}"
            )
        if frame_index is None:
            frame_index = (
                0 if self._last_frame_index is None else self._last_frame_index + 1
            )
        contiguous = (
            self._last_frame_index is not None
            and frame_index == self._last_frame_index + 1
        )
        cold = (
            self._prev_memory is None
            or not contiguous
            or self._frames_since_cold >= self.streaming.keyframe_interval
        )
        if cold:
            result = self._run_cold(features, frame_index)
            self._frames_since_cold = 1
        else:
            delta = float(np.max(np.abs(features - self._prev_input)))
            if delta <= self.streaming.static_tol:
                dirty = np.zeros(self.num_tokens, dtype=bool)
            else:
                dirty = np.any(
                    np.abs(features - self._prev_input) > self.streaming.static_tol,
                    axis=1,
                )
            if not dirty.any() and (
                self._off_gain * delta <= self.streaming.trace_reuse_tol
            ):
                # Fully static frame: the sampling trace provably cannot
                # move, so the previous memory is the answer — no forward.
                result = StreamingFrameResult(
                    memory=self._prev_memory.copy(),
                    kind="reused",
                    frame_index=frame_index,
                    computed_rows=0,
                    total_rows=self.num_tokens,
                )
                self._frames_since_cold += 1
            else:
                need = self._need_mask(dirty)
                if need is None:
                    need = np.ones(self.num_tokens, dtype=bool)
                result = self._run_warm(features, frame_index, need)
                self._frames_since_cold += 1
        # Private snapshots: the caller keeps result.memory, the session
        # keeps its own copies, so neither can corrupt the other.
        self._prev_input = features.copy()
        self._prev_memory = result.memory.copy()
        self._last_frame_index = frame_index
        return result

    def plan_stats(self) -> dict[str, int | str]:
        """Arena accounting of the session's runner (hits climb frame over
        frame while bytes plateau — the fixed pyramid signature keeps one
        warm plan for the stream's whole lifetime)."""
        return self.runner.plan_stats()
