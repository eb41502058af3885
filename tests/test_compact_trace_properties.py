"""Property tests for the compacted sampling trace (sparse execution v2)
and the row-compacted FFN/LayerNorm entry points (block-sparse encoder, PR 4).

The compacted trace (:func:`multi_scale_neighbors_sparse`, for one image or
a batch) must be *exactly* the dense trace restricted to the kept points —
same neighbour indices, bilinear weights, validity flags and level ids, bit
for bit — for any pyramid geometry, any sampling locations (in or out of
bounds, float32 or float64 input) and any point mask, including the
degenerate all-pruned and single-survivor masks.  Hypothesis drives the
geometry/mask space; a few deterministic tests pin the named edge cases.

The compact FFN stage relies on row locality: ``LayerNorm.forward`` of the
gathered rows ``x[rows]`` is bit-identical to the dense output restricted to
the kept rows, and ``FeedForward.forward(x[rows])`` agrees with the dense
restriction to 1e-5, because BLAS may pick a different matmul kernel for the
compacted row count and move the last ulp of the accumulations.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.sampling_stats import sampled_frequency, sampled_frequency_compact
from repro.nn.grid_sample import (
    ms_deform_attn_from_compact_trace,
    ms_deform_attn_from_trace,
    multi_scale_neighbors,
    multi_scale_neighbors_sparse,
)
from repro.utils.shapes import LevelShape


@pytest.fixture(autouse=True, scope="module", params=["reference", "fused"])
def kernel_backend(request):
    """Run the whole property module under both kernel backends.

    Module-scoped (hypothesis forbids function-scoped fixtures under
    ``@given``): every golden property must hold bit-identically under the
    reference (PR 4) and the fused (PR 5) kernels.
    """
    from repro.kernels import use_backend

    with use_backend(request.param):
        yield request.param


@st.composite
def trace_cases(draw, batched: bool = False):
    """A random (spatial_shapes, sampling_locations, point_mask) triple.

    Locations may fall outside ``[0, 1]`` so out-of-bounds neighbours are
    exercised; the mask density spans all-pruned (0.0) through all-kept
    (1.0); the location dtype alternates between float32 and float64 (the
    constructors cast to the kernel dtype either way).
    """
    n_l = draw(st.integers(1, 4))
    shapes = [
        LevelShape(draw(st.integers(1, 6)), draw(st.integers(1, 6))) for _ in range(n_l)
    ]
    n_q = draw(st.integers(1, 8))
    n_h = draw(st.integers(1, 4))
    n_p = draw(st.integers(1, 4))
    batch = draw(st.integers(1, 3)) if batched else None
    lead = (batch,) if batched else ()
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.15, 0.5, 0.85, 1.0]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(seed)
    locations = rng.uniform(-0.3, 1.3, lead + (n_q, n_h, n_l, n_p, 2)).astype(dtype)
    mask = rng.uniform(0.0, 1.0, lead + (n_q, n_h, n_l, n_p)) < density
    return shapes, locations, mask


def _assert_matches_dense(compact, dense_trace, mask):
    """The compact trace equals the dense trace restricted to the kept points."""
    kept = np.flatnonzero(mask.reshape(-1))
    np.testing.assert_array_equal(compact.kept, kept)
    assert compact.num_kept == kept.size
    np.testing.assert_array_equal(
        compact.flat_indices, dense_trace.flat_indices.reshape(-1, 4)[kept]
    )
    np.testing.assert_array_equal(
        compact.weights, dense_trace.weights.reshape(-1, 4)[kept]
    )
    np.testing.assert_array_equal(compact.valid, dense_trace.valid.reshape(-1, 4)[kept])
    np.testing.assert_array_equal(compact.levels, dense_trace.levels.reshape(-1)[kept])
    seg = compact.segments()
    assert np.all(np.diff(seg) >= 0), "segments must be non-decreasing"


class TestCompactTraceProperties:
    @settings(max_examples=50, deadline=None)
    @given(trace_cases())
    def test_matches_dense_trace_restricted_to_kept_points(self, case):
        shapes, locations, mask = case
        dense = multi_scale_neighbors(shapes, locations)
        compact = multi_scale_neighbors_sparse(shapes, locations, point_mask=mask)
        _assert_matches_dense(compact, dense, mask)

    @settings(max_examples=30, deadline=None)
    @given(trace_cases(batched=True))
    def test_batched_matches_dense_and_image_views(self, case):
        shapes, locations, mask = case
        dense = multi_scale_neighbors(shapes, locations)
        compact = multi_scale_neighbors_sparse(shapes, locations, point_mask=mask)
        _assert_matches_dense(compact, dense, mask)
        # Per-image views equal single-image construction on that image.
        for b in range(locations.shape[0]):
            view = compact.image(b)
            single = multi_scale_neighbors_sparse(shapes, locations[b], point_mask=mask[b])
            np.testing.assert_array_equal(view.kept, single.kept)
            np.testing.assert_array_equal(view.flat_indices, single.flat_indices)
            np.testing.assert_array_equal(view.weights, single.weights)
            np.testing.assert_array_equal(view.valid, single.valid)
            np.testing.assert_array_equal(view.levels, single.levels)

    @settings(max_examples=30, deadline=None)
    @given(trace_cases())
    def test_no_mask_keeps_every_point(self, case):
        shapes, locations, _ = case
        dense = multi_scale_neighbors(shapes, locations)
        compact = multi_scale_neighbors_sparse(shapes, locations, point_mask=None)
        _assert_matches_dense(compact, dense, np.ones(dense.valid.shape[:-1], dtype=bool))

    @settings(max_examples=30, deadline=None)
    @given(trace_cases(), st.integers(0, 2**32 - 1))
    def test_frequency_and_kernel_match_dense_path(self, case, seed):
        """The compact trace drives FWP counting and the gather kernel to the
        same results as the dense trace + mask."""
        shapes, locations, mask = case
        n_in = sum(s.num_pixels for s in shapes)
        n_q, n_h = locations.shape[0], locations.shape[1]
        rng = np.random.default_rng(seed)
        d_h = 4
        value = rng.standard_normal((n_in, n_h, d_h)).astype(np.float32)
        attn = rng.uniform(0.0, 1.0, mask.shape).astype(np.float32)

        dense = multi_scale_neighbors(shapes, locations)
        compact = multi_scale_neighbors_sparse(shapes, locations, point_mask=mask)
        # A compacted trace always carries its batch axis (B = 1 here).
        np.testing.assert_array_equal(
            sampled_frequency_compact(compact)[0],
            sampled_frequency(dense, point_mask=mask),
        )
        out_dense = ms_deform_attn_from_trace(value, dense, attn, point_mask=mask)
        out_compact = ms_deform_attn_from_compact_trace(value[None], compact, attn[None])
        np.testing.assert_allclose(out_compact[0], out_dense, atol=1e-5)

    @settings(max_examples=20, deadline=None)
    @given(trace_cases(batched=True), st.integers(0, 2**32 - 1))
    def test_batched_frequency_and_kernel_match_dense_path(self, case, seed):
        shapes, locations, mask = case
        n_in = sum(s.num_pixels for s in shapes)
        batch, n_q, n_h = locations.shape[0], locations.shape[1], locations.shape[2]
        rng = np.random.default_rng(seed)
        d_h = 4
        value = rng.standard_normal((batch, n_in, n_h, d_h)).astype(np.float32)
        attn = rng.uniform(0.0, 1.0, mask.shape).astype(np.float32)

        dense = multi_scale_neighbors(shapes, locations)
        compact = multi_scale_neighbors_sparse(shapes, locations, point_mask=mask)
        np.testing.assert_array_equal(
            sampled_frequency_compact(compact),
            sampled_frequency(dense, point_mask=mask),
        )
        out_dense = ms_deform_attn_from_trace(value, dense, attn, point_mask=mask)
        out_compact = ms_deform_attn_from_compact_trace(value, compact, attn)
        np.testing.assert_allclose(out_compact, out_dense, atol=1e-5)


@st.composite
def row_cases(draw, batched: bool = False):
    """A random ``(x, mask)`` pair for the row-compacted module entry points.

    Row counts span 1..64, feature dims 1..48; the mask density includes the
    all-pruned (0.0) and all-kept (1.0) extremes, and a ``single_survivor``
    draw forces exactly one kept row.  Inputs alternate float32/float64 and
    include large-magnitude scales (the modules cast to the kernel dtype).
    """
    n = draw(st.integers(1, 64))
    d = draw(st.integers(1, 48))
    batch = draw(st.integers(1, 3)) if batched else None
    lead = (batch,) if batched else ()
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.0, 0.2, 0.5, 0.9, 1.0, "single_survivor"]))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scale = draw(st.sampled_from([1.0, 7.5]))
    rng = np.random.default_rng(seed)
    x = (rng.standard_normal(lead + (n, d)) * scale).astype(dtype)
    total = int(np.prod(lead + (n,)))
    if density == "single_survivor":
        mask = np.zeros(total, dtype=bool)
        mask[int(rng.integers(total))] = True
        mask = mask.reshape(lead + (n,))
    else:
        mask = rng.uniform(0.0, 1.0, lead + (n,)) < density
    return x, mask, seed


def _make_layer_norm(d: int, seed: int) -> "LayerNorm":
    from repro.nn.modules import LayerNorm

    rng = np.random.default_rng(seed)
    ln = LayerNorm(d)
    ln.weight = rng.standard_normal(d).astype(np.float32)
    ln.bias = rng.standard_normal(d).astype(np.float32)
    return ln


def _make_ffn(d: int, seed: int) -> "FeedForward":
    from repro.nn.modules import FeedForward

    return FeedForward(d, max(2 * d, 4), activation="relu", rng=seed)


class TestRowCompactedModules:
    """Row locality of the modules the compact FFN stage runs on gathered rows."""

    @settings(max_examples=60, deadline=None)
    @given(row_cases())
    def test_layer_norm_rows_bit_identical_to_dense_restriction(self, case):
        x, mask, seed = case
        ln = _make_layer_norm(x.shape[-1], seed)
        rows = np.flatnonzero(mask)
        compact = ln.forward(x[rows])
        np.testing.assert_array_equal(compact, ln.forward(x)[rows])
        assert compact.shape == (rows.size, x.shape[-1])

    @settings(max_examples=40, deadline=None)
    @given(row_cases(batched=True))
    def test_layer_norm_rows_batched_bit_identical(self, case):
        x, mask, seed = case
        ln = _make_layer_norm(x.shape[-1], seed)
        flat_rows = np.flatnonzero(mask.reshape(-1))
        compact = ln.forward(x.reshape(-1, x.shape[-1])[flat_rows])
        dense = ln.forward(x).reshape(-1, x.shape[-1])[flat_rows]
        np.testing.assert_array_equal(compact, dense)

    @settings(max_examples=60, deadline=None)
    @given(row_cases())
    def test_ffn_rows_matches_dense_restriction(self, case):
        x, mask, seed = case
        ffn = _make_ffn(x.shape[-1], seed)
        rows = np.flatnonzero(mask)
        # Within float32 matmul precision of the dense restriction (BLAS
        # kernel choice varies with the row count).
        np.testing.assert_allclose(ffn.forward(x[rows]), ffn.forward(x)[rows], atol=1e-5)

    @settings(max_examples=40, deadline=None)
    @given(row_cases(batched=True))
    def test_ffn_rows_batched_matches_dense_restriction(self, case):
        x, mask, seed = case
        ffn = _make_ffn(x.shape[-1], seed)
        flat_rows = np.flatnonzero(mask.reshape(-1))
        compact = ffn.forward(x.reshape(-1, x.shape[-1])[flat_rows])
        dense = ffn.forward(x).reshape(-1, x.shape[-1])[flat_rows]
        np.testing.assert_allclose(compact, dense, atol=1e-5)

    def test_all_pruned_mask_yields_empty_output(self):
        ln = _make_layer_norm(8, 0)
        ffn = _make_ffn(8, 1)
        x = np.random.default_rng(2).standard_normal((12, 8)).astype(np.float32)
        empty = np.array([], dtype=np.int64)
        assert ln.forward(x[empty]).shape == (0, 8)
        assert ffn.forward(x[empty]).shape == (0, 8)
        xb = np.random.default_rng(3).standard_normal((2, 12, 8)).astype(np.float32)
        assert ln.forward(xb.reshape(-1, 8)[empty]).shape == (0, 8)
        assert ffn.forward(xb.reshape(-1, 8)[empty]).shape == (0, 8)


class TestCompactTraceEdgeCases:
    SHAPES = [LevelShape(5, 7), LevelShape(3, 4), LevelShape(2, 2)]

    def _locations(self, seed=0):
        rng = np.random.default_rng(seed)
        return rng.uniform(-0.2, 1.2, (6, 3, 3, 2, 2)).astype(np.float32)

    def test_all_pruned_mask(self):
        locations = self._locations()
        mask = np.zeros(locations.shape[:-1], dtype=bool)
        compact = multi_scale_neighbors_sparse(self.SHAPES, locations, point_mask=mask)
        assert compact.num_kept == 0
        assert compact.flat_indices.shape == (0, 4)
        assert compact.keep_fraction == 0.0
        n_in = sum(s.num_pixels for s in self.SHAPES)
        np.testing.assert_array_equal(
            sampled_frequency_compact(compact), np.zeros((1, n_in), dtype=np.int64)
        )
        value = np.ones((1, n_in, 3, 4), dtype=np.float32)
        attn = np.ones((1,) + mask.shape, dtype=np.float32)
        out = ms_deform_attn_from_compact_trace(value, compact, attn)
        assert out.shape == (1, 6, 12) and np.all(out == 0)

    def test_single_survivor_mask(self):
        locations = self._locations(seed=1)
        mask = np.zeros(locations.shape[:-1], dtype=bool)
        mask[3, 1, 2, 0] = True
        dense = multi_scale_neighbors(self.SHAPES, locations)
        compact = multi_scale_neighbors_sparse(self.SHAPES, locations, point_mask=mask)
        _assert_matches_dense(compact, dense, mask)
        assert compact.num_kept == 1
        assert compact.levels[0] == 2
        # Only the (query 3, head 1) output slot may be non-zero.
        n_in = sum(s.num_pixels for s in self.SHAPES)
        rng = np.random.default_rng(2)
        value = rng.standard_normal((1, n_in, 3, 4)).astype(np.float32)
        attn = np.ones((1,) + mask.shape, dtype=np.float32)
        out = ms_deform_attn_from_compact_trace(value, compact, attn).reshape(6, 3, 4)
        zeroed = out.copy()
        zeroed[3, 1] = 0
        assert np.all(zeroed == 0)

    def test_geometry_counts(self):
        locations = self._locations(seed=5)
        mask = np.zeros(locations.shape[:-1], dtype=bool)
        mask[::2] = True
        compact = multi_scale_neighbors_sparse(self.SHAPES, locations, point_mask=mask)
        assert compact.batch_size == 1
        assert compact.points_per_image == 6 * 3 * 3 * 2
        assert compact.total_points == compact.points_per_image
        assert compact.num_kept == int(mask.sum())
        assert compact.keep_fraction == pytest.approx(0.5)

    def test_dense_trace_batch_view_is_zero_copy(self):
        dense = multi_scale_neighbors(self.SHAPES, self._locations(seed=6))
        batch = dense.as_batch()
        for name in ("levels", "rows", "cols", "flat_indices", "weights", "valid"):
            view = getattr(batch, name)
            assert view.shape == (1,) + getattr(dense, name).shape
            assert np.shares_memory(view, getattr(dense, name))
        assert batch.spatial_shapes == dense.spatial_shapes

    def test_int_mask_is_coerced(self):
        locations = self._locations(seed=3)
        int_mask = (np.arange(np.prod(locations.shape[:-1])) % 3 == 0).astype(np.int32)
        int_mask = int_mask.reshape(locations.shape[:-1])
        compact = multi_scale_neighbors_sparse(self.SHAPES, locations, point_mask=int_mask)
        dense = multi_scale_neighbors(self.SHAPES, locations)
        _assert_matches_dense(compact, dense, int_mask.astype(bool))

    def test_mask_shape_mismatch_rejected(self):
        locations = self._locations(seed=4)
        with pytest.raises(ValueError, match="point_mask"):
            multi_scale_neighbors_sparse(
                self.SHAPES, locations, point_mask=np.ones((2, 2), dtype=bool)
            )
