"""Bilinear grid-sampling kernels for multi-scale deformable attention.

Every kernel has one batch-first body that runs on ``(B, ...)`` arrays.  A
single-image input (no leading batch axis, or a :class:`SamplingTrace`)
runs as a ``B = 1`` view of that body and returns the single-image result
type, so single-image and batched calls share every float operation.

The code paths are:

* the index-level trace (:func:`bilinear_neighbors`,
  :func:`multi_scale_neighbors`), which exposes the integer neighbour pixels
  and interpolation weights of every sampling point.  It is what FWP
  frequency counting, the bank-conflict simulator and the fmap-reuse tracker
  consume: the memory accesses the accelerator actually performs,
* the dense kernel :func:`ms_deform_attn_from_trace`: one flat gather of
  every neighbour of every point of a trace, and one weighted reduction.
  PAP pruning multiplies pruned points by zero.
  :func:`ms_deform_attn_core` is this kernel on a freshly built trace, and
* the *compacted* path: :func:`multi_scale_neighbors_sparse` builds a
  :class:`CompactSamplingTrace` of only the mask-surviving points, and
  :func:`ms_deform_attn_from_compact_trace` gathers their neighbours and
  accumulates the contributions per (query, head) with a segment sum.  It
  never computes neighbours, weights or level offsets for pruned points,
  and never fetches their values, so both trace construction and the gather
  scale with the keep ratio: the software analogue of the accelerator
  skipping pruned points.  The gather + segment sum runs on the backend the
  kernel registry selects (:mod:`repro.kernels`).  The DEFA pipeline
  (:class:`repro.core.pipeline.DEFAAttention`) runs the two steps itself,
  so the trace it builds also feeds its frequency counting.

:func:`bilinear_sample_level_reference` and :func:`ms_deform_attn_core_reference`
are loop-based oracles kept for the tests.

Coordinate convention: sampling locations are normalized to ``[0, 1]`` in
``(x, y)`` order (as in Deformable DETR).  They are mapped to pixel
coordinates with the ``align_corners=False`` convention
(``x_pix = x * W - 0.5``) and sampled with zero padding outside the map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.plan import ExecutionPlan, take_into
from repro.kernels.registry import resolve_backend
from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.shapes import LevelShape, level_start_indices, total_pixels
from repro.utils.timing import kernel_section


def bilinear_neighbors(
    loc_xy: np.ndarray, height: int, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Neighbour pixels and weights of normalized sampling locations.

    Parameters
    ----------
    loc_xy:
        Array of shape ``(..., 2)`` with normalized ``(x, y)`` coordinates.
    height, width:
        Spatial size of the sampled feature map level.

    Returns
    -------
    rows, cols:
        Integer arrays of shape ``(..., 4)`` with the row/column of the four
        neighbours in the order ``N0`` (top-left), ``N1`` (top-right),
        ``N2`` (bottom-left), ``N3`` (bottom-right).  Out-of-bounds neighbours
        keep their (out-of-range) coordinates so callers can detect them.
    weights:
        Float array of shape ``(..., 4)`` with the bilinear weights; weights of
        out-of-bounds neighbours are *not* zeroed here.
    valid:
        Boolean array of shape ``(..., 4)``; ``True`` where the neighbour lies
        inside the feature map.
    """
    loc_xy = np.asarray(loc_xy, dtype=FLOAT_DTYPE)
    if loc_xy.shape[-1] != 2:
        raise ValueError("loc_xy must have a trailing dimension of size 2 (x, y)")
    if height <= 0 or width <= 0:
        raise ValueError("height and width must be positive")

    x = loc_xy[..., 0] * width - 0.5
    y = loc_xy[..., 1] * height - 0.5
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    t1 = (x - x0).astype(FLOAT_DTYPE)  # fraction along x
    t0 = (y - y0).astype(FLOAT_DTYPE)  # fraction along y

    rows = np.stack([y0, y0, y0 + 1, y0 + 1], axis=-1)
    cols = np.stack([x0, x0 + 1, x0, x0 + 1], axis=-1)
    w0 = (1.0 - t1) * (1.0 - t0)
    w1 = t1 * (1.0 - t0)
    w2 = (1.0 - t1) * t0
    w3 = t1 * t0
    weights = np.stack([w0, w1, w2, w3], axis=-1).astype(FLOAT_DTYPE)
    valid = (rows >= 0) & (rows < height) & (cols >= 0) & (cols < width)
    return rows, cols, weights, valid


def bilinear_sample_level(value_level: np.ndarray, loc_xy: np.ndarray) -> np.ndarray:
    """Bilinearly sample a single feature-map level.

    Parameters
    ----------
    value_level:
        Feature map of shape ``(H, W, C)``.
    loc_xy:
        Normalized sampling locations of shape ``(..., 2)``.

    Returns
    -------
    Sampled features of shape ``(..., C)`` with zero padding outside the map.
    """
    value_level = np.asarray(value_level, dtype=FLOAT_DTYPE)
    if value_level.ndim != 3:
        raise ValueError("value_level must have shape (H, W, C)")
    height, width, channels = value_level.shape
    rows, cols, weights, valid = bilinear_neighbors(loc_xy, height, width)
    rows_c = np.clip(rows, 0, height - 1)
    cols_c = np.clip(cols, 0, width - 1)
    gathered = value_level[rows_c, cols_c]  # (..., 4, C)
    effective = weights * valid.astype(FLOAT_DTYPE)
    return np.einsum("...nc,...n->...c", gathered, effective).astype(FLOAT_DTYPE)


def bilinear_sample_level_reference(value_level: np.ndarray, loc_xy: np.ndarray) -> np.ndarray:
    """Scalar (loop-based) reference implementation of :func:`bilinear_sample_level`.

    Slow but simple; used only in tests to validate the vectorized kernel.
    """
    value_level = np.asarray(value_level, dtype=FLOAT_DTYPE)
    height, width, channels = value_level.shape
    loc = np.asarray(loc_xy, dtype=FLOAT_DTYPE).reshape(-1, 2)
    out = np.zeros((loc.shape[0], channels), dtype=FLOAT_DTYPE)
    for i, (x_norm, y_norm) in enumerate(loc):
        x = x_norm * width - 0.5
        y = y_norm * height - 0.5
        x0 = int(np.floor(x))
        y0 = int(np.floor(y))
        t1 = x - x0
        t0 = y - y0
        acc = np.zeros(channels, dtype=np.float64)
        for (r, c, w) in [
            (y0, x0, (1 - t1) * (1 - t0)),
            (y0, x0 + 1, t1 * (1 - t0)),
            (y0 + 1, x0, (1 - t1) * t0),
            (y0 + 1, x0 + 1, t1 * t0),
        ]:
            if 0 <= r < height and 0 <= c < width:
                acc += w * value_level[r, c]
        out[i] = acc.astype(FLOAT_DTYPE)
    return out.reshape(np.asarray(loc_xy).shape[:-1] + (channels,))


@dataclass
class SamplingTrace:
    """Integer-level description of every memory access performed by MSGS.

    Attributes
    ----------
    levels:
        ``(N_q, N_h, N_l, N_p)`` level index of every sampling point (equal to
        the broadcasted level axis; kept explicit for convenience).
    rows, cols:
        ``(N_q, N_h, N_l, N_p, 4)`` neighbour coordinates inside their level.
    flat_indices:
        ``(N_q, N_h, N_l, N_p, 4)`` neighbour indices in the flattened
        multi-scale token axis; invalid (out-of-bounds) neighbours are ``-1``.
    weights:
        ``(N_q, N_h, N_l, N_p, 4)`` bilinear weights.
    valid:
        ``(N_q, N_h, N_l, N_p, 4)`` in-bounds flags.
    spatial_shapes:
        The pyramid level shapes the trace was generated for.
    """

    levels: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    flat_indices: np.ndarray
    weights: np.ndarray
    valid: np.ndarray
    spatial_shapes: list[LevelShape]

    def as_batch(self) -> "BatchedSamplingTrace":
        """Zero-copy ``B = 1`` batch view: the form every kernel body runs on."""
        return BatchedSamplingTrace(
            levels=self.levels[None],
            rows=self.rows[None],
            cols=self.cols[None],
            flat_indices=self.flat_indices[None],
            weights=self.weights[None],
            valid=self.valid[None],
            spatial_shapes=self.spatial_shapes,
        )


@dataclass
class BatchedSamplingTrace:
    """A :class:`SamplingTrace` with a leading batch axis.

    All index/weight arrays have shape ``(B, N_q, N_h, N_l, N_p, 4)`` (levels:
    ``(B, N_q, N_h, N_l, N_p)``).  :meth:`image` returns a zero-copy
    single-image :class:`SamplingTrace` view, which is what the per-image
    statistics (FWP frequency counting, bank conflicts) consume.
    """

    levels: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    flat_indices: np.ndarray
    weights: np.ndarray
    valid: np.ndarray
    spatial_shapes: list[LevelShape]

    @property
    def batch_size(self) -> int:
        return self.rows.shape[0]

    @property
    def num_queries(self) -> int:
        return self.rows.shape[1]

    def image(self, b: int) -> SamplingTrace:
        """Single-image view (no copies) of batch element *b*."""
        return SamplingTrace(
            levels=self.levels[b],
            rows=self.rows[b],
            cols=self.cols[b],
            flat_indices=self.flat_indices[b],
            weights=self.weights[b],
            valid=self.valid[b],
            spatial_shapes=self.spatial_shapes,
        )

    def images(self) -> list[SamplingTrace]:
        """Per-image views for the whole batch."""
        return [self.image(b) for b in range(self.batch_size)]


def _batch_locations(
    spatial_shapes: list[LevelShape], sampling_locations: np.ndarray
) -> tuple[np.ndarray, bool]:
    """Coerce sampling locations to ``(B, N_q, N_h, N_l, N_p, 2)``.

    Returns ``(locations, single)``; a single-image ``(N_q, N_h, N_l, N_p,
    2)`` input becomes a ``B = 1`` view and sets ``single``.
    """
    locations = np.asarray(sampling_locations, dtype=FLOAT_DTYPE)
    if locations.ndim not in (5, 6) or locations.shape[-1] != 2:
        raise ValueError("sampling_locations must have shape ([B,] N_q, N_h, N_l, N_p, 2)")
    single = locations.ndim == 5
    if single:
        locations = locations[None]
    if locations.shape[3] != len(spatial_shapes):
        raise ValueError(
            f"sampling_locations has {locations.shape[3]} levels "
            f"but {len(spatial_shapes)} shapes given"
        )
    return locations, single


def _grid_arg(
    name: str, array: np.ndarray, points_shape: tuple[int, ...], single: bool, dtype
) -> np.ndarray:
    """Coerce one per-point argument and check it against the point grid.

    ``points_shape`` is the batched ``(B, N_q, N_h, N_l, N_p)`` grid; a
    single-image call expects the grid without ``B`` and gets a ``B = 1``
    view back.  This is the one shape check of ``attention_weights`` and
    ``point_mask`` for every kernel (no broadcasting: a mismatched shape is
    always an error).
    """
    array = np.asarray(array, dtype=dtype)
    expected = tuple(points_shape[1:]) if single else tuple(points_shape)
    if array.shape != expected:
        raise ValueError(
            f"{name} must have shape {expected} to match the sampling points, "
            f"got {array.shape}"
        )
    return array[None] if single else array


def _batch_value(
    value: np.ndarray,
    points_shape: tuple[int, ...],
    spatial_shapes: list[LevelShape],
    single: bool,
) -> np.ndarray:
    """Coerce projected values to ``(B, N_in, N_h, D_h)`` and check them
    against the point grid and the pyramid (single images: ``(N_in, N_h,
    D_h)``, returned as a ``B = 1`` view)."""
    value = np.asarray(value, dtype=FLOAT_DTYPE)
    if value.ndim != (3 if single else 4):
        raise ValueError(
            "value must have shape " + ("(N_in, N_h, D_h)" if single else "(B, N_in, N_h, D_h)")
        )
    if single:
        value = value[None]
    batch, n_in, n_h = value.shape[:3]
    if batch != points_shape[0]:
        raise ValueError(
            f"value has {batch} images but the sampling points have {points_shape[0]}"
        )
    expected = total_pixels(spatial_shapes)
    if n_in != expected:
        raise ValueError(f"value has {n_in} tokens but spatial shapes sum to {expected}")
    if n_h != points_shape[2]:
        raise ValueError(
            f"value has {n_h} heads but the sampling points have {points_shape[2]}"
        )
    return value


def _neighbor_grid(
    x: np.ndarray,
    y: np.ndarray,
    heights: np.ndarray,
    widths: np.ndarray,
    starts: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shared bilinear neighbour/weight/index math of the dense and sparse paths.

    ``x``/``y`` are pixel-space coordinates of arbitrary shape ``S``;
    ``heights``/``widths``/``starts`` are ``int64`` arrays broadcastable
    against the ``S + (4,)`` neighbour stacks (per-level rows in the dense
    trace path, per-point columns in the compacted path).  The float32
    expressions match :func:`bilinear_neighbors` exactly, so results are
    bit-identical however the leading axes are organised.

    Returns ``(rows, cols, weights, valid, safe_flat)`` where ``safe_flat``
    holds in-bounds *global* token indices (out-of-bounds neighbours are
    clamped, not ``-1`` — pair with ``valid`` to mask them).
    """
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    t1 = (x - x0).astype(FLOAT_DTYPE)
    t0 = (y - y0).astype(FLOAT_DTYPE)

    rows = np.stack([y0, y0, y0 + 1, y0 + 1], axis=-1)
    cols = np.stack([x0, x0 + 1, x0, x0 + 1], axis=-1)
    w0 = (1.0 - t1) * (1.0 - t0)
    w1 = t1 * (1.0 - t0)
    w2 = (1.0 - t1) * t0
    w3 = t1 * t0
    weights = np.stack([w0, w1, w2, w3], axis=-1).astype(FLOAT_DTYPE)

    valid = (rows >= 0) & (rows < heights) & (cols >= 0) & (cols < widths)
    # minimum/maximum instead of np.clip — identical results, lower overhead.
    rows_c = np.minimum(np.maximum(rows, 0), heights - 1)
    cols_c = np.minimum(np.maximum(cols, 0), widths - 1)
    safe_flat = starts + rows_c * widths + cols_c
    return rows, cols, weights, valid, safe_flat


def _multi_level_neighbors(
    spatial_shapes: list[LevelShape], sampling_locations: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Level-vectorized neighbour computation over arbitrary leading axes.

    ``sampling_locations`` has shape ``(..., N_l, N_p, 2)``.  There is no
    per-level Python loop: the level sizes enter as broadcast arrays, so one
    pass of elementwise ops covers the whole batch and the results are
    bit-identical to sampling each level separately.

    Returns ``(rows, cols, weights, valid, safe_flat)`` — see
    :func:`_neighbor_grid`.
    """
    n_l = len(spatial_shapes)
    widths = np.array([s.width for s in spatial_shapes], dtype=FLOAT_DTYPE).reshape(n_l, 1)
    heights = np.array([s.height for s in spatial_shapes], dtype=FLOAT_DTYPE).reshape(n_l, 1)
    x = sampling_locations[..., 0] * widths - 0.5  # (..., N_l, N_p)
    y = sampling_locations[..., 1] * heights - 0.5
    hi = np.array([s.height for s in spatial_shapes], dtype=np.int64).reshape(n_l, 1, 1)
    wi = np.array([s.width for s in spatial_shapes], dtype=np.int64).reshape(n_l, 1, 1)
    starts = np.array(level_start_indices(spatial_shapes), dtype=np.int64).reshape(n_l, 1, 1)
    return _neighbor_grid(x, y, hi, wi, starts)


def multi_scale_neighbors(
    spatial_shapes: list[LevelShape], sampling_locations: np.ndarray
) -> SamplingTrace | BatchedSamplingTrace:
    """Compute the sampling trace of multi-scale sampling locations.

    ``sampling_locations`` has shape ``(B, N_q, N_h, N_l, N_p, 2)`` and
    yields a :class:`BatchedSamplingTrace`; a single image ``(N_q, N_h,
    N_l, N_p, 2)`` runs as a ``B = 1`` batch and yields its
    :class:`SamplingTrace` view.  The neighbour math is fully
    level-vectorized — no per-image or per-level Python loop.
    """
    locations, single = _batch_locations(spatial_shapes, sampling_locations)
    rows, cols, weights, valid, flat = _multi_level_neighbors(spatial_shapes, locations)
    # Mark invalid neighbours in place: the index array is freshly allocated,
    # and scattering -1 into the (few) out-of-bounds slots is cheaper than a
    # full np.where copy of the ~B*N_q*N_h*N_l*N_p*4 index array.
    flat[~valid] = -1
    # Read-only broadcast view: every consumer only indexes/compares levels,
    # and skipping the materialised copy keeps trace construction lean.
    levels = np.broadcast_to(
        np.arange(len(spatial_shapes), dtype=np.int64)[:, None], locations.shape[:-1]
    )
    trace = BatchedSamplingTrace(
        levels=levels,
        rows=rows,
        cols=cols,
        flat_indices=flat,
        weights=weights,
        valid=valid,
        spatial_shapes=list(spatial_shapes),
    )
    return trace.image(0) if single else trace


def ms_deform_attn_core_reference(
    value: np.ndarray,
    spatial_shapes: list[LevelShape],
    sampling_locations: np.ndarray,
    attention_weights: np.ndarray,
    point_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Loop-based (per level, per head) oracle of :func:`ms_deform_attn_core`.

    Single images only: the shapes of :func:`ms_deform_attn_core` without
    the batch axis, output ``(N_q, N_h * D_h)``.  Slow, but independent of
    the batch-first kernel (it samples every level and head separately
    through :func:`bilinear_sample_level`), so the tests check every image
    of a batched call against it.
    """
    value = np.asarray(value, dtype=FLOAT_DTYPE)
    if value.ndim != 3:
        raise ValueError("value must have shape (N_in, N_h, D_h)")
    n_in, n_h, d_h = value.shape
    expected = sum(s.num_pixels for s in spatial_shapes)
    if n_in != expected:
        raise ValueError(f"value has {n_in} tokens but spatial shapes sum to {expected}")
    attention_weights = np.asarray(attention_weights, dtype=FLOAT_DTYPE)
    n_q = sampling_locations.shape[0]
    if attention_weights.shape != sampling_locations.shape[:-1]:
        raise ValueError("attention_weights shape must match sampling_locations[:-1]")

    effective_weights = attention_weights
    if point_mask is not None:
        point_mask = np.asarray(point_mask, dtype=bool)
        if point_mask.shape != attention_weights.shape:
            raise ValueError("point_mask shape must match attention_weights")
        effective_weights = attention_weights * point_mask.astype(FLOAT_DTYPE)

    starts = level_start_indices(spatial_shapes)
    output = np.zeros((n_q, n_h, d_h), dtype=FLOAT_DTYPE)
    for lvl, shape in enumerate(spatial_shapes):
        level_value = value[starts[lvl] : starts[lvl] + shape.num_pixels]
        level_value = level_value.reshape(shape.height, shape.width, n_h, d_h)
        # Sample each head with its own locations.
        for h in range(n_h):
            locs = sampling_locations[:, h, lvl]  # (N_q, N_p, 2)
            w = effective_weights[:, h, lvl]  # (N_q, N_p)
            if point_mask is not None and not np.any(point_mask[:, h, lvl]):
                continue
            sampled = bilinear_sample_level(level_value[:, :, h], locs)  # (N_q, N_p, D_h)
            output[:, h] += np.einsum("qpc,qp->qc", sampled, w)
    return output.reshape(n_q, n_h * d_h)


def ms_deform_attn_core(
    value: np.ndarray,
    spatial_shapes: list[LevelShape],
    sampling_locations: np.ndarray,
    attention_weights: np.ndarray,
    point_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Core multi-scale deformable attention computation (MSGS + aggregation).

    Parameters
    ----------
    value:
        Projected values of shape ``(B, N_in, N_h, D_h)`` on the flattened
        multi-scale token axis.
    spatial_shapes:
        Pyramid level shapes; their pixel counts must sum to ``N_in``.
    sampling_locations:
        Normalized ``(x, y)`` locations of shape ``(B, N_q, N_h, N_l, N_p, 2)``.
    attention_weights:
        Attention probabilities of shape ``(B, N_q, N_h, N_l, N_p)`` (already
        softmax-normalized across the last two axes).
    point_mask:
        Optional boolean array of shape ``(B, N_q, N_h, N_l, N_p)``;
        ``False`` entries contribute nothing.  This is how PAP removes
        pruned sampling points.

    Single-image inputs (every shape above without ``B``) run as a ``B = 1``
    batch and return ``(N_q, N_h * D_h)``.

    Returns
    -------
    Output of shape ``(B, N_q, N_h * D_h)``; image ``b`` matches
    :func:`ms_deform_attn_core_reference` on that image up to float32
    rounding.  This is :func:`ms_deform_attn_from_trace` on the trace
    :func:`multi_scale_neighbors` builds for ``sampling_locations``, bit for
    bit.
    """
    return ms_deform_attn_from_trace(
        value,
        multi_scale_neighbors(spatial_shapes, sampling_locations),
        attention_weights,
        point_mask=point_mask,
    )


def ms_deform_attn_from_trace(
    value: np.ndarray,
    trace: SamplingTrace | BatchedSamplingTrace,
    attention_weights: np.ndarray,
    point_mask: np.ndarray | None = None,
) -> np.ndarray:
    """Compute MSGS + aggregation from a precomputed sampling trace.

    The one dense gather + aggregate body: :func:`ms_deform_attn_core` runs
    it on a freshly built trace, and the DEFA pipeline passes its own trace
    so that the same trace drives both the numerics and the
    frequency/conflict statistics.  With a :class:`BatchedSamplingTrace`,
    ``value`` has shape ``(B, N_in, N_h, D_h)`` and ``attention_weights`` /
    ``point_mask`` shape ``(B, N_q, N_h, N_l, N_p)``; the result is
    ``(B, N_q, N_h * D_h)``.  A :class:`SamplingTrace` takes the same shapes
    without ``B`` and runs as a ``B = 1`` batch.
    """
    single = isinstance(trace, SamplingTrace)
    if single:
        trace = trace.as_batch()
    points_shape = trace.valid.shape[:-1]
    attn = _grid_arg("attention_weights", attention_weights, points_shape, single, FLOAT_DTYPE)
    if point_mask is not None:
        point_mask = _grid_arg("point_mask", point_mask, points_shape, single, bool)
    value = _batch_value(value, points_shape, trace.spatial_shapes, single)
    batch, n_in, n_h, d_h = value.shape
    n_q = trace.num_queries
    weights = trace.weights * trace.valid.astype(FLOAT_DTYPE)
    if point_mask is not None:
        attn = attn * point_mask.astype(FLOAT_DTYPE)
    combined = (weights * attn[..., None]).reshape(batch, n_q, n_h, -1)
    # Invalid neighbours are -1 (their weight is zero); max with 0 is enough
    # and cheaper than a full clip.
    flat = np.maximum(trace.flat_indices, 0).reshape(batch, n_q, n_h, -1)
    n_k = flat.shape[-1]  # N_l * N_p * 4 neighbours per (query, head)

    # One flat gather axis over (batch, token, head); chunk queries to keep
    # the gathered (B, chunk, N_h, K, D_h) block cache-friendly.
    value_flat = np.ascontiguousarray(value).reshape(batch * n_in * n_h, d_h)
    b_off = (np.arange(batch, dtype=np.int64) * n_in).reshape(batch, 1, 1, 1)
    h_off = np.arange(n_h, dtype=np.int64).reshape(1, 1, n_h, 1)
    per_query = batch * n_h * n_k * d_h
    chunk = max(1, min(n_q, (512 * 1024) // max(per_query, 1)))

    output = np.empty((batch, n_q, n_h, d_h), dtype=FLOAT_DTYPE)
    for start in range(0, n_q, chunk):
        sl = slice(start, start + chunk)
        with kernel_section("gather"):
            idx = (b_off + flat[:, sl]) * n_h + h_off
            gathered = np.take(value_flat, idx, axis=0)  # (B, q, N_h, K, D_h)
        with kernel_section("aggregate"):
            output[:, sl] = np.einsum("bqhkc,bqhk->bqhc", gathered, combined[:, sl])
    output = output.reshape(batch, n_q, n_h * d_h)
    return output[0] if single else output


# --------------------------------------------------------------------------
# Sparse (compacted gather/scatter) execution path
#
# The dense kernel above *simulates* PAP pruning by multiplying attention
# weights with the point mask — every pruned point is still gathered and
# multiplied by zero.  The kernels below drop pruned points before any memory
# traffic happens: surviving points are compacted into a flat work set, one
# gather fetches exactly their neighbour value rows, an einsum folds the four
# bilinear neighbours of each point, and a segment sum scatters the per-point
# contributions back into the (query, head) output slots (the registry
# backend's ``compact_gather_aggregate``).  Results match the dense kernel to
# float32 rounding (the same terms are summed, minus exact zeros), which the
# equivalence tests pin at 1e-5.

SPARSE_MODES = ("auto", "dense", "sparse")
"""Valid values of the ``sparse_mode`` execution switch, shared by every
layer that exposes it (kernels here, :class:`repro.core.pipeline.
DEFAAttention`, the encoder runner and the engine adapters).

* ``"dense"`` — the original masked-dense kernels: pruned value rows are
  zeroed after a full projection and pruned points are multiplied by zero in
  the gather.  Pruning changes numerics only, never wall clock.
* ``"sparse"`` — always run the compacted gather/scatter kernels whenever a
  mask is available (useful for tests and benchmarks).
* ``"auto"`` — pick sparse per stage when the measured reduction ratio and
  the problem size clear the :data:`~repro.kernels.DISPATCH_THRESHOLDS`
  (dense wins at low reduction and on tiny inputs, where compaction overhead
  dominates).
"""


def use_sparse_gather(
    point_mask: np.ndarray | None,
    slots_per_image: int,
    keep_max: float,
    min_slots: int,
    sparse_mode: str,
) -> bool:
    """Shared dispatch rule of the ``sparse_mode`` switch for point gathering.

    ``sparse_mode`` is one of ``"dense"``, ``"sparse"`` or ``"auto"``; the
    auto rule compares the point keep-fraction against ``keep_max`` and
    requires at least ``min_slots`` *per-image* gather slots
    (``slots_per_image`` must not include the batch axis).  The stack passes
    :attr:`~repro.kernels.DispatchThresholds.point_keep_max` and
    :attr:`~repro.kernels.DispatchThresholds.min_slots`.

    Boundary semantics (pinned by the boundary-value tests, shared with
    :func:`repro.core.pipeline.use_sparse_rows`): the minimum-size
    comparison is *strict* (``slots_per_image < min_slots`` rejects, so a
    problem exactly at ``min_slots`` is sparse-eligible) while the keep-ratio
    comparison is *inclusive* (``keep_fraction <= keep_max`` accepts, so a
    keep fraction exactly at the crossover goes sparse).

    The leading axis of ``point_mask`` is the image axis (a single image is
    a ``B = 1`` batch), and the keep-fraction test applies to the *maximum*
    per-image fraction: a batch goes sparse only when every image alone
    would.  This mirrors the per-image slot counting — the batched and
    single-image runs must make the same decision wherever possible,
    otherwise quantized configs amplify the float32 rounding difference
    between the two kernels into a quantization step and break
    batched-vs-serial equivalence.  :func:`sparse_gather_rule` is the same
    rule on per-image kept counts.
    """
    per_image, points = None, 0
    if point_mask is not None and sparse_mode == "auto":
        per_image = np.count_nonzero(point_mask.reshape(point_mask.shape[0], -1), axis=1)
        points = point_mask[0].size
    return sparse_gather_rule(
        per_image, points, slots_per_image, keep_max, min_slots, sparse_mode
    )


def sparse_gather_rule(
    per_image_kept: np.ndarray | None,
    points_per_image: int,
    slots_per_image: int,
    keep_max: float,
    min_slots: int,
    sparse_mode: str,
) -> bool:
    """:func:`use_sparse_gather` on the kept-point count of every image
    (``None``: no point mask) out of ``points_per_image``."""
    if sparse_mode not in SPARSE_MODES:
        raise ValueError(f"sparse_mode must be one of {SPARSE_MODES}, got {sparse_mode!r}")
    if sparse_mode == "dense":
        return False
    if sparse_mode == "sparse":
        return True
    if per_image_kept is None or slots_per_image < min_slots:
        return False
    keep_fraction = float(np.max(per_image_kept)) / max(points_per_image, 1)
    return keep_fraction <= keep_max


@dataclass
class CompactSamplingTrace:
    """Sampling trace restricted to the points kept by a PAP/query mask.

    Where :class:`SamplingTrace` stores neighbour data for *every* point of
    the ``(N_q, N_h, N_l, N_p)`` grid, this record stores one row per
    surviving point, identified by its flat index on the
    ``(B * N_q * N_h * N_l * N_p)`` point axis (``B = 1`` for single images).
    Rows appear in ascending ``kept`` order, i.e. per-image, per-query,
    per-head contiguous — the order the segment-sum kernels rely on.

    The per-point data matches the dense trace bit for bit (same bilinear
    formulas via :func:`_neighbor_grid`), which the property tests assert:
    ``flat_indices[i] == dense.flat_indices.reshape(-1, 4)[kept[i]]`` and
    likewise for ``weights``/``valid``/``levels``.

    Attributes
    ----------
    kept:
        ``(K,)`` sorted ``int64`` flat point indices of the survivors.
    levels:
        ``(K,)`` pyramid level of each kept point.
    flat_indices:
        ``(K, 4)`` neighbour indices on the flattened multi-scale token axis
        (per image); out-of-bounds neighbours are ``-1``.
    weights:
        ``(K, 4)`` bilinear weights (out-of-bounds neighbours not zeroed —
        pair with ``valid``, as in the dense trace).
    valid:
        ``(K, 4)`` in-bounds flags.
    spatial_shapes:
        Pyramid level shapes the trace was generated for.
    batch_size, num_queries, num_heads, num_levels, num_points:
        Geometry of the (uncompacted) point grid; ``batch_size`` is 1 for
        traces built from single-image sampling locations.
    """

    kept: np.ndarray
    levels: np.ndarray
    flat_indices: np.ndarray
    weights: np.ndarray
    valid: np.ndarray
    spatial_shapes: list[LevelShape]
    batch_size: int
    num_queries: int
    num_heads: int
    num_levels: int
    num_points: int

    @property
    def num_kept(self) -> int:
        """Number of surviving sampling points."""
        return int(self.kept.size)

    @property
    def points_per_image(self) -> int:
        return self.num_queries * self.num_heads * self.num_levels * self.num_points

    def segments(self) -> np.ndarray:
        """``(K,)`` output-slot id ``(image * N_q + query) * N_h + head`` of
        every kept point (non-decreasing, since ``kept`` is sorted)."""
        return self.kept // (self.num_levels * self.num_points)

    def image(self, b: int) -> "CompactSamplingTrace":
        """Zero-copy single-image view of batch element *b*.

        ``kept`` is sorted, so the rows of image *b* form one contiguous
        slice located with two binary searches.
        """
        ppi = self.points_per_image
        lo = int(np.searchsorted(self.kept, b * ppi))
        hi = int(np.searchsorted(self.kept, (b + 1) * ppi))
        return CompactSamplingTrace(
            kept=self.kept[lo:hi] - b * ppi,
            levels=self.levels[lo:hi],
            flat_indices=self.flat_indices[lo:hi],
            weights=self.weights[lo:hi],
            valid=self.valid[lo:hi],
            spatial_shapes=self.spatial_shapes,
            batch_size=1,
            num_queries=self.num_queries,
            num_heads=self.num_heads,
            num_levels=self.num_levels,
            num_points=self.num_points,
        )

    def images(self) -> list["CompactSamplingTrace"]:
        """Per-image views for the whole batch."""
        return [self.image(b) for b in range(self.batch_size)]


def multi_scale_neighbors_sparse(
    spatial_shapes: list[LevelShape],
    sampling_locations: np.ndarray,
    point_mask: np.ndarray | None = None,
) -> CompactSamplingTrace:
    """Compacted-trace variant of :func:`multi_scale_neighbors`.

    Computes sampling pixel coordinates, bilinear neighbour indices/weights
    and level offsets **only for the points kept** by ``point_mask``
    (``None`` keeps every point).  ``sampling_locations`` has shape
    ``(B, N_q, N_h, N_l, N_p, 2)`` and ``point_mask`` ``(B, N_q, N_h, N_l,
    N_p)``; a single image (both shapes without ``B``) is a ``B = 1`` batch.
    The batch folds into the compacted point axis, so one pass serves every
    image and :meth:`CompactSamplingTrace.image` recovers zero-copy
    per-image views.

    The per-point results are bit-identical to the dense trace restricted to
    the kept points; construction cost scales with the keep ratio.  The
    planned block builds the same trace in arena buffers with
    :func:`multi_scale_neighbors_rows`.
    """
    sampling_locations, single = _batch_locations(spatial_shapes, sampling_locations)
    if point_mask is not None:
        point_mask = _grid_arg(
            "point_mask", point_mask, sampling_locations.shape[:-1], single, bool
        )
    batch, n_q, n_h, n_l, n_p, _ = sampling_locations.shape
    total_points = batch * n_q * n_h * n_l * n_p
    if point_mask is None:
        kept = np.arange(total_points, dtype=np.int64)
    else:
        kept = np.flatnonzero(point_mask.reshape(-1))

    widths = np.array([s.width for s in spatial_shapes], dtype=FLOAT_DTYPE)
    heights = np.array([s.height for s in spatial_shapes], dtype=FLOAT_DTYPE)
    hi = np.array([s.height for s in spatial_shapes], dtype=np.int64)
    wi = np.array([s.width for s in spatial_shapes], dtype=np.int64)
    starts = np.array(level_start_indices(spatial_shapes), dtype=np.int64)
    lvl = (kept // n_p) % n_l
    loc = np.ascontiguousarray(sampling_locations).reshape(total_points, 2)[kept]
    # Identical float32 expressions as the dense trace path (via
    # _neighbor_grid), so per-point results are bit-identical to the dense
    # trace restricted to the kept points.
    x = loc[:, 0] * widths[lvl] - 0.5
    y = loc[:, 1] * heights[lvl] - 0.5
    _, _, weights, valid, safe_flat = _neighbor_grid(
        x, y, hi[lvl][:, None], wi[lvl][:, None], starts[lvl][:, None]
    )
    safe_flat[~valid] = -1  # freshly allocated: in-place scatter, no copy
    return CompactSamplingTrace(
        kept=kept,
        levels=lvl,
        flat_indices=safe_flat,
        weights=weights,
        valid=valid,
        spatial_shapes=list(spatial_shapes),
        batch_size=batch,
        num_queries=n_q,
        num_heads=n_h,
        num_levels=n_l,
        num_points=n_p,
    )


def multi_scale_neighbors_rows(
    spatial_shapes: list[LevelShape],
    row_locations: np.ndarray,
    row_mask: np.ndarray,
    rows: np.ndarray | None,
    batch_size: int,
    num_queries: int,
    plan: ExecutionPlan,
) -> tuple[CompactSamplingTrace, np.ndarray]:
    """:func:`multi_scale_neighbors_sparse` from query rows, in arena buffers.

    ``row_locations`` ``(K_q, N_h, N_l, N_p, 2)`` and ``row_mask`` ``(K_q,
    N_h, N_l, N_p)`` hold the sampling locations and PAP mask of the query
    rows ``rows`` — sorted indices into the flat ``(B * N_q)`` query axis;
    every query outside ``rows`` has no kept point.  ``rows=None`` means
    every query row (``K_q = B * N_q``; any leading shape).  Returns the
    trace and ``row_kept``, the flat indices of the kept points into
    ``row_mask``.  The trace equals the one
    :func:`multi_scale_neighbors_sparse` builds from the full ``(B, N_q,
    ...)`` grids bit for bit: its ``kept`` is in full point space,
    ``rows[row_kept // P] * P + row_kept % P`` with ``P = N_h * N_l * N_p``,
    in the same ascending order, and the per-point arithmetic reads the same
    location values.  The trace arrays are plan buffers: valid until the
    plan's next forward, per the :class:`~repro.kernels.plan.ExecutionPlan`
    lifetime rules.
    """
    n_h, n_l, n_p = row_mask.shape[-3:]
    per_query = n_h * n_l * n_p
    flat_mask = row_mask.reshape(-1, per_query)
    row_kept = np.flatnonzero(flat_mask)
    kept = row_kept  # every query row: row space is point space
    if rows is not None:
        # Point i of compact row r sits at (rows[r] - r) * P past row_kept[i].
        shift = (rows - np.arange(rows.size, dtype=np.int64)) * per_query
        kept = np.repeat(shift, np.count_nonzero(flat_mask, axis=1))
        kept += row_kept
    lvl, weights, valid, safe_flat = _compact_trace_arrays_fused(
        row_locations.reshape(-1, 2), row_kept, n_p, spatial_shapes, plan
    )
    trace = CompactSamplingTrace(
        kept=kept,
        levels=lvl,
        flat_indices=safe_flat,
        weights=weights,
        valid=valid,
        spatial_shapes=list(spatial_shapes),
        batch_size=batch_size,
        num_queries=num_queries,
        num_heads=n_h,
        num_levels=n_l,
        num_points=n_p,
    )
    return trace, row_kept


def _compact_trace_arrays_fused(
    loc_flat: np.ndarray,
    kept: np.ndarray,
    n_p: int,
    spatial_shapes: list[LevelShape],
    plan: ExecutionPlan,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Buffer-reusing per-point trace arrays: ``(levels, weights, valid, flat)``.

    ``loc_flat`` is the ``(points, 2)`` location table and ``kept`` the
    sorted rows of it to build; a row's level is ``(row // N_p) % N_l``, so
    the table may be the full point grid or whole query rows of it.
    Bit-identical to :func:`multi_scale_neighbors_sparse`: every float
    expression matches
    :func:`_neighbor_grid` (the int64 operand promotions included) and the
    stacks become column stores.  No ``(K, 4)`` row/column grids are built:
    validity comes from per-axis flags of the corner rows and columns, and
    each flat index from one per-point base (see the comments below).
    """
    n_l = len(spatial_shapes)
    widths = np.array([s.width for s in spatial_shapes], dtype=FLOAT_DTYPE)
    heights = np.array([s.height for s in spatial_shapes], dtype=FLOAT_DTYPE)
    hi = np.array([s.height for s in spatial_shapes], dtype=np.int64)
    wi = np.array([s.width for s in spatial_shapes], dtype=np.int64)
    starts = np.array(level_start_indices(spatial_shapes), dtype=np.int64)
    k = int(kept.size)
    loc = plan.take("trace.loc", loc_flat, kept, axis=0)  # (K, 2)
    lvl = plan.buffer("trace.levels", (k,), np.int64)
    np.floor_divide(kept, n_p, out=lvl)
    np.mod(lvl, n_l, out=lvl)

    # x = loc_x * widths[lvl] - 0.5 (and likewise y), all float32.
    size_l = plan.take("trace.size_l", widths, lvl)
    x = plan.buffer("trace.x", (k,), FLOAT_DTYPE)
    np.multiply(loc[:, 0], size_l, out=x)
    np.subtract(x, 0.5, out=x)
    take_into(heights, lvl, size_l)
    y = plan.buffer("trace.y", (k,), FLOAT_DTYPE)
    np.multiply(loc[:, 1], size_l, out=y)
    np.subtract(y, 0.5, out=y)

    # Integer corners and float32 fractions, as in _neighbor_grid: x0/y0 are
    # the floors, t = (coord - corner) computed through the float64 promotion
    # and stored back to float32.
    frac = plan.buffer("trace.frac", (k,), FLOAT_DTYPE)
    x0 = plan.buffer("trace.x0", (k,), np.int64)
    y0 = plan.buffer("trace.y0", (k,), np.int64)
    np.floor(x, out=frac)
    np.copyto(x0, frac, casting="unsafe")
    t1 = plan.buffer("trace.t1", (k,), FLOAT_DTYPE)
    np.subtract(x, x0, out=t1, casting="unsafe")
    np.floor(y, out=frac)
    np.copyto(y0, frac, casting="unsafe")
    t0 = plan.buffer("trace.t0", (k,), FLOAT_DTYPE)
    np.subtract(y, y0, out=t0, casting="unsafe")

    weights = plan.buffer("trace.weights", (k, 4), FLOAT_DTYPE)
    one_m_t1 = x  # reuse: x/y are no longer needed past this point
    one_m_t0 = y
    np.subtract(1.0, t1, out=one_m_t1)
    np.subtract(1.0, t0, out=one_m_t0)
    np.multiply(one_m_t1, one_m_t0, out=weights[:, 0])
    np.multiply(t1, one_m_t0, out=weights[:, 1])
    np.multiply(one_m_t1, t0, out=weights[:, 2])
    np.multiply(t1, t0, out=weights[:, 3])

    # Per-axis in-bounds flags of the two corner rows (y0, y0 + 1) and
    # columns (x0, x0 + 1).  Through the unsigned view ``0 <= v < n`` is the
    # one comparison ``uint(v) < n``, and ``uint(v) + 1`` wraps exactly like
    # ``v + 1``.  Corner c = (row c // 2, column c % 2) is valid when both
    # of its flags are, which equals _neighbor_grid's four comparisons.
    h_col = plan.take("trace.h", hi, lvl).view(np.uint64)
    w_col = plan.take("trace.w", wi, lvl)
    flags = plan.buffer("trace.flags", (4, k), np.bool_)
    base = plan.buffer("trace.base", (k,), np.int64)
    step = base.view(np.uint64)  # scratch until the base is built
    np.less(y0.view(np.uint64), h_col, out=flags[0])
    np.add(y0.view(np.uint64), 1, out=step)
    np.less(step, h_col, out=flags[1])
    np.less(x0.view(np.uint64), w_col.view(np.uint64), out=flags[2])
    np.add(x0.view(np.uint64), 1, out=step)
    np.less(step, w_col.view(np.uint64), out=flags[3])
    valid = plan.buffer("trace.valid", (k, 4), np.bool_)
    for c in range(4):
        np.logical_and(flags[c // 2], flags[2 + c % 2], out=valid[:, c])

    # Flat token indices from one base per point: a valid corner is in
    # bounds, so _neighbor_grid's clamp is the identity on it and its index
    # is base + {0, 1, w, w + 1}.  Invalid corners (whatever wrapped
    # arithmetic produced there) are marked -1.
    np.multiply(y0, w_col, out=base)
    base += x0
    base += plan.take("trace.starts", starts, lvl)
    flat = plan.buffer("trace.flat", (k, 4), np.int64)
    flat[:, 0] = base
    np.add(base, 1, out=flat[:, 1])
    np.add(base, w_col, out=flat[:, 2])
    np.add(flat[:, 2], 1, out=flat[:, 3])
    invalid = plan.buffer("trace.flags", (k, 4), np.bool_)  # the flags are dead
    np.logical_not(valid, out=invalid)
    np.copyto(flat, -1, where=invalid)
    return lvl, weights, valid, flat


def ms_deform_attn_from_compact_trace(
    value: np.ndarray,
    trace: CompactSamplingTrace,
    attention_weights: np.ndarray,
    backend=None,
) -> np.ndarray:
    """MSGS + aggregation from a precomputed :class:`CompactSamplingTrace`.

    The pruning mask is already folded into the trace (only kept points have
    rows), so no ``point_mask`` argument exists: pruned points contribute
    exact zeros, as in the masked-dense kernel.  A compacted trace always
    carries its batch axis, so ``value`` has shape ``(B, N_in, N_h, D_h)``,
    ``attention_weights`` is the full ``(B, N_q, N_h, N_l, N_p)`` array
    (only kept entries are read) and the result is ``(B, N_q, N_h * D_h)``
    (``B = 1`` for a trace built from one image).  Matches the dense
    from-trace kernel to float32 rounding.

    The gather + segment-sum implementation is selected by the kernel-backend
    registry (see :mod:`repro.kernels`): ``backend`` overrides the process
    default for this call, and the backends match each other bit for bit.
    Every call runs on a fresh arena, so the result is the caller's.
    """
    points_shape = (
        trace.batch_size,
        trace.num_queries,
        trace.num_heads,
        trace.num_levels,
        trace.num_points,
    )
    value = _batch_value(value, points_shape, trace.spatial_shapes, single=False)
    attn_all = np.ascontiguousarray(
        _grid_arg("attention_weights", attention_weights, points_shape, False, FLOAT_DTYPE)
    ).reshape(-1)
    attn_flat = attn_all[trace.kept]
    batch, n_in, n_h, d_h = value.shape
    value_flat = np.ascontiguousarray(value).reshape(batch * n_in * n_h, d_h)
    output = resolve_backend(backend).compact_gather_aggregate(
        value_flat, trace, attn_flat, n_in
    )
    return output.reshape(batch, trace.num_queries, n_h * d_h)
