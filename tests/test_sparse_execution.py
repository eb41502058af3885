"""Golden equivalence and edge-case tests for the sparse execution path.

The sparse kernels compact FWP/PAP masks into gather lists *before* touching
memory; the dense kernels simulate the same pruning by multiplying with
zeros.  Both must agree:

* to 1e-5 on unquantized configs (pure float32 paths, single and batched);
* to a few INT12 quantization steps on quantized configs — the ~1e-7 float32
  summation-order difference between the kernels can flip a rounding decision
  in the dynamically scaled output projection, which is one quantization step
  (~1e-3), not an error.

Edge cases from the PR checklist: all-pruned fmap mask, single-survivor fmap
mask, an all-pruned point mask for one (head, level), and int/bool fmap-mask
dtype coercion — on both paths, with sane :class:`DEFALayerStats`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.core.pipeline import SPARSE_MODES, DEFAAttention, use_sparse_rows
from repro.kernels import (
    COMPILED_AVAILABLE,
    DISPATCH_THRESHOLDS,
    DispatchThresholds,
    ExecutionOptions,
)
from repro.nn.encoder import DeformableEncoder
from repro.nn.grid_sample import (
    ms_deform_attn_core,
    ms_deform_attn_core_reference,
    ms_deform_attn_from_compact_trace,
    ms_deform_attn_from_trace,
    multi_scale_neighbors,
    multi_scale_neighbors_sparse,
    use_sparse_gather,
)
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.quant.qmodules import QuantizedLinear
from repro.quant.quantizer import fake_quantize
from repro.nn.modules import Linear
from repro.utils.shapes import LevelShape

TOL = 1e-5
"""Strict float32-path equivalence tolerance (unquantized configs)."""

GATHER = (DISPATCH_THRESHOLDS.point_keep_max, DISPATCH_THRESHOLDS.min_slots)
"""The ``(keep_max, min_slots)`` the stack passes to the point-gather rule."""

_BACKEND_PARAMS = ["reference", "fused"] + (
    ["compiled"] if COMPILED_AVAILABLE else []
)


@pytest.fixture(autouse=True, params=_BACKEND_PARAMS)
def kernel_backend(request):
    """Run every golden-equivalence test under every kernel backend.

    The backends are bit-identical by construction, so each test's
    tolerances must hold identically under any of them; parametrizing the
    whole module keeps the fused backend (the production default), the PR 4
    reference path and — where its extension is built — the PR 7 compiled C
    path covered by the same assertions.
    """
    from repro.kernels import use_backend

    with use_backend(request.param):
        yield request.param

QUANT_TOL = 5e-3
"""Quantized-config tolerance: a few INT12 steps (see module docstring)."""

SHAPES = [LevelShape(8, 12), LevelShape(4, 6), LevelShape(2, 3)]
N_IN = sum(s.num_pixels for s in SHAPES)
N_Q, N_H, N_L, N_P, D_H = 29, 4, 3, 2, 8


def _kernel_inputs(seed=0, batch=None):
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    value = rng.standard_normal(lead + (N_IN, N_H, D_H)).astype(np.float32)
    locs = rng.uniform(-0.15, 1.15, lead + (N_Q, N_H, N_L, N_P, 2)).astype(np.float32)
    attn = rng.uniform(0.0, 1.0, lead + (N_Q, N_H, N_L, N_P)).astype(np.float32)
    mask = rng.uniform(0.0, 1.0, attn.shape) < 0.35
    return value, locs, attn, mask


def compact_msgs(value, spatial_shapes, locs, attn, point_mask=None):
    """The sparse MSGS as the DEFA pipeline chains it: the compacted trace
    of the kept points, then the compact gather + segment-sum kernel.
    Single-image inputs (no leading ``B``) run as a ``B = 1`` batch."""
    single = np.ndim(locs) == 5
    trace = multi_scale_neighbors_sparse(spatial_shapes, locs, point_mask)
    if single:
        value, attn = np.asarray(value)[None], np.asarray(attn)[None]
    out = ms_deform_attn_from_compact_trace(value, trace, attn)
    return out[0] if single else out


class TestSparseKernels:
    def test_core_sparse_matches_dense(self):
        value, locs, attn, mask = _kernel_inputs(seed=0)
        trace = multi_scale_neighbors(SHAPES, locs)
        dense = ms_deform_attn_from_trace(value, trace, attn, point_mask=mask)
        # The dense core is the trace kernel on its own trace: bit-equal.
        core = ms_deform_attn_core(value, SHAPES, locs, attn, point_mask=mask)
        np.testing.assert_array_equal(core, dense)
        sparse = compact_msgs(value, SHAPES, locs, attn, point_mask=mask)
        np.testing.assert_allclose(sparse, dense, atol=TOL)

    def test_core_sparse_matches_dense_batched(self):
        value, locs, attn, mask = _kernel_inputs(seed=1, batch=3)
        trace = multi_scale_neighbors(SHAPES, locs)
        dense = ms_deform_attn_from_trace(value, trace, attn, point_mask=mask)
        np.testing.assert_array_equal(
            ms_deform_attn_core(value, SHAPES, locs, attn, point_mask=mask), dense
        )
        sparse = compact_msgs(value, SHAPES, locs, attn, point_mask=mask)
        np.testing.assert_allclose(sparse, dense, atol=TOL)
        for b in range(3):
            reference = ms_deform_attn_core_reference(
                value[b], SHAPES, locs[b], attn[b], point_mask=mask[b]
            )
            np.testing.assert_allclose(dense[b], reference, atol=TOL)
            np.testing.assert_allclose(sparse[b], reference, atol=TOL)
            # Batched equals per-image exactly (per-image compaction, and a
            # single image runs the same body as a B = 1 batch).
            single = compact_msgs(
                value[b], SHAPES, locs[b], attn[b], point_mask=mask[b]
            )
            np.testing.assert_array_equal(sparse[b], single)
            single = ms_deform_attn_from_trace(
                value[b], trace.image(b), attn[b], point_mask=mask[b]
            )
            np.testing.assert_array_equal(dense[b], single)

    def test_no_mask_means_all_points(self):
        value, locs, attn, _ = _kernel_inputs(seed=4)
        trace = multi_scale_neighbors(SHAPES, locs)
        dense = ms_deform_attn_from_trace(value, trace, attn)
        sparse = compact_msgs(value, SHAPES, locs, attn)
        np.testing.assert_allclose(sparse, dense, atol=TOL)

    def test_all_pruned_point_mask_yields_zeros(self):
        value, locs, attn, _ = _kernel_inputs(seed=5)
        mask = np.zeros((N_Q, N_H, N_L, N_P), dtype=bool)
        assert np.all(compact_msgs(value, SHAPES, locs, attn, point_mask=mask) == 0)
        assert np.all(ms_deform_attn_core(value, SHAPES, locs, attn, point_mask=mask) == 0)

    def test_all_pruned_for_one_head_level(self):
        """Pruning every point of one (head, level) pair matches dense."""
        value, locs, attn, mask = _kernel_inputs(seed=6)
        mask = mask.copy()
        mask[:, 2, 1, :] = False  # head 2, level 1: fully pruned
        mask[:, 0, :, :] = True  # head 0: fully kept (contrast case)
        trace = multi_scale_neighbors(SHAPES, locs)
        dense = ms_deform_attn_from_trace(value, trace, attn, point_mask=mask)
        sparse = compact_msgs(value, SHAPES, locs, attn, point_mask=mask)
        np.testing.assert_allclose(sparse, dense, atol=TOL)
        reference = ms_deform_attn_core_reference(value, SHAPES, locs, attn, point_mask=mask)
        np.testing.assert_allclose(sparse, reference, atol=TOL)

    def test_single_survivor_point(self):
        value, locs, attn, _ = _kernel_inputs(seed=7)
        mask = np.zeros((N_Q, N_H, N_L, N_P), dtype=bool)
        mask[11, 1, 0, 1] = True
        trace = multi_scale_neighbors(SHAPES, locs)
        dense = ms_deform_attn_from_trace(value, trace, attn, point_mask=mask)
        sparse = compact_msgs(value, SHAPES, locs, attn, point_mask=mask)
        np.testing.assert_allclose(sparse, dense, atol=TOL)
        # Only the (query 11, head 1) slot may be non-zero.
        out = sparse.reshape(N_Q, N_H, D_H)
        assert np.any(out[11, 1] != 0)
        zeroed = out.copy()
        zeroed[11, 1] = 0
        assert np.all(zeroed == 0)


def _exact_keep_mask(size: int, kept: int) -> np.ndarray:
    mask = np.zeros(size, dtype=bool)
    mask[:kept] = True
    return mask


class _PureDispatchRule:
    """Tests of the dispatch rules alone: they run no kernel, so they run
    once instead of once per backend (this fixture shadows the module's
    parametrized one)."""

    @pytest.fixture(autouse=True)
    def kernel_backend(self):
        yield None


class TestDispatchThresholds(_PureDispatchRule):
    def test_use_sparse_gather_dispatch(self):
        mask = np.zeros((1, 4, 2, 2, 2), dtype=bool)  # one image (B = 1)
        assert use_sparse_gather(mask, 10**9, *GATHER, "sparse")
        assert not use_sparse_gather(mask, 10**9, *GATHER, "dense")
        assert not use_sparse_gather(None, 10**9, *GATHER, "auto")  # no mask -> dense
        assert not use_sparse_gather(mask, 100, *GATHER, "auto")  # tiny input -> dense
        assert use_sparse_gather(mask, 10**9, *GATHER, "auto")  # large + heavy pruning
        assert not use_sparse_gather(np.ones_like(mask), 10**9, *GATHER, "auto")  # no pruning
        with pytest.raises(ValueError):
            use_sparse_gather(mask, 100, *GATHER, "blocked")

    def test_use_sparse_gather_uses_max_per_image_fraction(self):
        """A batch goes sparse only when every image alone would (batched
        decisions must match the per-image serial runs wherever possible)."""
        sparse_image = np.zeros((1, 4, 2, 2, 2), dtype=bool)  # keep 0%
        dense_image = np.ones((1, 4, 2, 2, 2), dtype=bool)  # keep 100%
        mixed = np.concatenate([sparse_image, dense_image])
        assert use_sparse_gather(sparse_image, 10**9, *GATHER, "auto")
        assert not use_sparse_gather(dense_image, 10**9, *GATHER, "auto")
        # One dense-leaning image forces the whole batch dense, even though
        # the aggregate keep fraction (0.5) is below the threshold.
        assert not use_sparse_gather(mixed, 10**9, *GATHER, "auto")

    def test_defaults_are_the_hand_tuned_constants(self):
        """The dataclass defaults are the one home of the hand-tuned
        constants, the stack reads them, and the committed values never
        drift."""
        t = DispatchThresholds()
        assert t == DISPATCH_THRESHOLDS
        assert t.pixel_keep_max == 0.85
        assert t.min_tokens == 512
        assert t.query_keep_max == 0.85
        assert t.min_queries == 512
        assert t.ffn_keep_max == 0.85
        assert t.ffn_min_tokens == 512
        assert t.point_keep_max == 0.70
        assert t.min_slots == 32768


class TestBoundarySemantics(_PureDispatchRule):
    """Exact-threshold behavior (the path-choice-parity invariant): minimum
    sizes compare ``<`` (exactly at the minimum is sparse-eligible), keep
    ratios compare ``<=`` (exactly at the crossover goes sparse), and the
    batched decision equals the single-image decision at the boundary."""

    def test_min_rows_boundary_is_strict(self):
        keep_max, min_rows = 0.5, 512
        mask = _exact_keep_mask(min_rows, min_rows // 4)
        assert use_sparse_rows(mask, min_rows, keep_max, min_rows, "auto")
        small = _exact_keep_mask(min_rows - 1, (min_rows - 1) // 4)
        assert not use_sparse_rows(small, min_rows - 1, keep_max, min_rows, "auto")

    def test_keep_ratio_boundary_is_inclusive(self):
        rows = 1024
        # Exactly at the crossover: 0.5 keep with keep_max=0.5 goes sparse.
        at = _exact_keep_mask(rows, rows // 2)
        assert use_sparse_rows(at, rows, 0.5, 512, "auto")
        above = _exact_keep_mask(rows, rows // 2 + 1)
        assert not use_sparse_rows(above, rows, 0.5, 512, "auto")

    def test_min_slots_boundary_is_strict(self):
        mask = _exact_keep_mask(64, 16).reshape(1, 64, 1, 1, 1)
        assert use_sparse_gather(mask, 256, 0.5, 256, "auto")
        assert not use_sparse_gather(mask, 255, 0.5, 256, "auto")

    def test_point_keep_boundary_is_inclusive(self):
        at = _exact_keep_mask(64, 32).reshape(1, 64, 1, 1, 1)
        assert use_sparse_gather(at, 256, 0.5, 1, "auto")
        above = _exact_keep_mask(64, 33).reshape(1, 64, 1, 1, 1)
        assert not use_sparse_gather(above, 256, 0.5, 1, "auto")

    def test_batched_equals_single_at_exact_crossover(self):
        """A threshold that lands exactly on a keep fraction cannot flip
        batched-vs-single path choice: with every image exactly at the
        crossover, batched (max per-image fraction) and single-image
        dispatch agree — on both rules, sparse side and dense side of the
        boundary."""
        rows, keep_max = 1024, 0.5
        single_at = _exact_keep_mask(rows, rows // 2)
        batched_at = np.stack([single_at, single_at[::-1].copy()])
        assert use_sparse_rows(
            single_at, rows, keep_max, 512, "auto"
        ) == use_sparse_rows(batched_at, rows, keep_max, 512, "auto")
        assert use_sparse_rows(batched_at, rows, keep_max, 512, "auto")

        point_single = single_at.reshape(1, rows, 1, 1, 1)
        point_batched = batched_at.reshape(2, rows, 1, 1, 1)
        assert use_sparse_gather(
            point_single, rows * 4, keep_max, 1, "auto"
        ) == use_sparse_gather(point_batched, rows * 4, keep_max, 1, "auto")

        # One image just above the crossover drags the whole batch dense —
        # exactly what each of its images alone would have decided is what
        # the strictest image decides.
        above = _exact_keep_mask(rows, rows // 2 + 1)
        mixed = np.stack([single_at, above])
        assert not use_sparse_rows(mixed, rows, keep_max, 512, "auto")
        assert not use_sparse_gather(
            mixed.reshape(2, rows, 1, 1, 1), rows * 4, keep_max, 1, "auto"
        )


class TestKernelShapeChecks:
    """Every kernel checks its per-point arguments against the point grid
    with one shared check: a mismatched shape is a ``ValueError`` naming the
    argument, never a silent broadcast or an opaque reshape error."""

    def test_from_trace_rejects_broadcastable_attention(self):
        # (B, 1, N_h, N_l, N_p) broadcasts across every query if unchecked.
        value, locs, attn, mask = _kernel_inputs(seed=8, batch=2)
        trace = multi_scale_neighbors(SHAPES, locs)
        with pytest.raises(ValueError, match="attention_weights"):
            ms_deform_attn_from_trace(value, trace, attn[:, :1])
        with pytest.raises(ValueError, match="point_mask"):
            ms_deform_attn_from_trace(value, trace, attn, point_mask=mask[:, :1])
        with pytest.raises(ValueError, match="attention_weights"):
            ms_deform_attn_from_trace(value[0], trace.image(0), attn[0, :1])

    def test_core_kernels_reject_mismatched_points(self):
        value, locs, attn, mask = _kernel_inputs(seed=9, batch=2)
        for kernel in (ms_deform_attn_core, compact_msgs):
            with pytest.raises(ValueError, match="attention_weights"):
                kernel(value, SHAPES, locs, attn[:, :1])
            with pytest.raises(ValueError, match="point_mask"):
                kernel(value, SHAPES, locs, attn, point_mask=mask[:1])
            with pytest.raises(ValueError, match="point_mask"):
                kernel(value, SHAPES, locs, attn, point_mask=mask[:, :1])
            with pytest.raises(ValueError, match="attention_weights"):
                kernel(value[0], SHAPES, locs[0], attn[0, :1])
            with pytest.raises(ValueError, match="value"):
                kernel(value[:1], SHAPES, locs, attn)
            with pytest.raises(ValueError, match="sampling_locations"):
                kernel(value, SHAPES[:2], locs, attn)

    def test_compact_trace_kernel_rejects_mismatched_attention(self):
        value, locs, attn, mask = _kernel_inputs(seed=10, batch=2)
        trace = multi_scale_neighbors_sparse(SHAPES, locs, point_mask=mask)
        with pytest.raises(ValueError, match="attention_weights"):
            ms_deform_attn_from_compact_trace(value, trace, attn[:, :1])
        with pytest.raises(ValueError, match="value"):
            ms_deform_attn_from_compact_trace(value[0], trace, attn)


def _defa_inputs(seed=0, batch=None):
    rng = np.random.default_rng(seed)
    d_model = N_H * D_H
    lead = () if batch is None else (batch,)
    features = rng.standard_normal(lead + (N_IN, d_model)).astype(np.float32)
    pos = sine_positional_encoding(SHAPES, d_model)
    reference = make_reference_points(SHAPES)
    return features, features + pos, reference


def _make_defa(config, sparse_mode, seed=0):
    from repro.nn.msdeform_attn import MSDeformAttn

    attn = MSDeformAttn(
        d_model=N_H * D_H, num_heads=N_H, num_levels=N_L, num_points=N_P, rng=seed
    )
    return DEFAAttention(attn, config, ExecutionOptions(sparse_mode=sparse_mode))


FP32_CONFIG = DEFAConfig(quant_bits=None)
INT12_CONFIG = DEFAConfig()


class TestDEFASparseEquivalence:
    @pytest.mark.parametrize("mask_kind", ["generated", "all_pruned", "single_survivor", "int_dtype"])
    def test_single_image_paths_agree(self, mask_kind):
        features, query, reference = _defa_inputs(seed=10)
        dense = _make_defa(FP32_CONFIG, "dense", seed=3)
        sparse = _make_defa(FP32_CONFIG, "sparse", seed=3)
        if mask_kind == "generated":
            fmap_mask = dense.forward_detailed(query, reference, features, SHAPES).fmap_mask_next
        elif mask_kind == "all_pruned":
            fmap_mask = np.zeros(N_IN, dtype=bool)
        elif mask_kind == "single_survivor":
            fmap_mask = np.zeros(N_IN, dtype=bool)
            fmap_mask[N_IN // 2] = True
        else:  # int dtype coercion
            fmap_mask = np.ones(N_IN, dtype=np.int32)
            fmap_mask[::3] = 0
        out_dense = dense.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        out_sparse = sparse.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        np.testing.assert_allclose(out_sparse.output, out_dense.output, atol=TOL)
        np.testing.assert_array_equal(out_sparse.fmap_mask_next, out_dense.fmap_mask_next)
        np.testing.assert_array_equal(out_sparse.point_mask, out_dense.point_mask)
        # Stats agree except for the path markers.
        expected_kept = int(np.count_nonzero(np.asarray(fmap_mask, dtype=bool)))
        for out, is_sparse in ((out_dense, False), (out_sparse, True)):
            stats = out.stats
            assert stats.pixels_kept == expected_kept
            assert stats.mask_applied
            assert 0.0 <= stats.pixel_reduction <= 1.0
            assert stats.points_kept <= stats.points_total
            assert stats.sparse_projection == is_sparse
            assert stats.sparse_gather == is_sparse

    @pytest.mark.parametrize("mask_kind", ["generated", "all_pruned", "int_dtype"])
    def test_batched_paths_agree(self, mask_kind):
        batch = 3
        features, query, reference = _defa_inputs(seed=11, batch=batch)
        dense = _make_defa(FP32_CONFIG, "dense", seed=4)
        sparse = _make_defa(FP32_CONFIG, "sparse", seed=4)
        if mask_kind == "generated":
            fmap_mask = dense.forward_detailed(query, reference, features, SHAPES).fmap_mask_next
        elif mask_kind == "all_pruned":
            fmap_mask = np.zeros((batch, N_IN), dtype=bool)
        else:
            rng = np.random.default_rng(5)
            fmap_mask = (rng.uniform(0, 1, (batch, N_IN)) < 0.6).astype(np.int8)
        out_dense = dense.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        out_sparse = sparse.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        np.testing.assert_allclose(out_sparse.output, out_dense.output, atol=TOL)
        for b in range(batch):
            img_d, img_s = out_dense.images[b], out_sparse.images[b]
            np.testing.assert_array_equal(img_s.fmap_mask_next, img_d.fmap_mask_next)
            np.testing.assert_array_equal(img_s.point_mask, img_d.point_mask)
            assert img_s.stats.pixels_kept == img_d.stats.pixels_kept
            assert img_s.stats.sparse_projection and img_s.stats.sparse_gather
            assert not img_d.stats.sparse_projection and not img_d.stats.sparse_gather

    def test_batched_sparse_matches_single_sparse(self):
        """Sparse batched execution equals the per-image sparse loop."""
        batch = 3
        features, query, reference = _defa_inputs(seed=12, batch=batch)
        sparse = _make_defa(FP32_CONFIG, "sparse", seed=6)
        first = sparse.forward_detailed(query, reference, features, SHAPES)
        fmap_mask = first.fmap_mask_next
        batched = sparse.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        for b in range(batch):
            single = sparse.forward_detailed(
                query[b], reference, features[b], SHAPES, fmap_mask=fmap_mask[b]
            )
            np.testing.assert_allclose(batched.output[b], single.output, atol=TOL)
            np.testing.assert_array_equal(batched.images[b].fmap_mask_next, single.fmap_mask_next)

    def test_quantized_config_agrees_within_quant_steps(self):
        """INT12 configs: sparse/dense drift is bounded by quantization steps.

        The compacted kernels reorder float32 summation, which can flip a
        rounding decision inside the dynamically scaled output projection —
        one INT12 step, not an equivalence failure.  Projection outputs
        themselves quantize identically (same scales), asserted separately in
        TestQuantizedRows.
        """
        features, query, reference = _defa_inputs(seed=13)
        dense = _make_defa(INT12_CONFIG, "dense", seed=7)
        sparse = _make_defa(INT12_CONFIG, "sparse", seed=7)
        fmap_mask = dense.forward_detailed(query, reference, features, SHAPES).fmap_mask_next
        out_dense = dense.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        out_sparse = sparse.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        np.testing.assert_allclose(out_sparse.output, out_dense.output, atol=QUANT_TOL)

    def test_invalid_sparse_mode_rejected(self):
        with pytest.raises(ValueError):
            _make_defa(FP32_CONFIG, "fast")


class TestQuantizedRows:
    def test_forward_rows_matches_single_image_quantization(self):
        rng = np.random.default_rng(0)
        linear = Linear(16, 12, rng=1)
        qlinear = QuantizedLinear(linear, 12)
        x = rng.standard_normal((50, 16)).astype(np.float32)
        rows = np.array([0, 3, 17, 49])
        # A single image is a B=1 batch: its one per-image scale is the
        # full-array scale of the image.
        x_q = fake_quantize(x, qlinear.activation_spec).astype(np.float32)
        expected = (x_q @ qlinear.quantized_weight + linear.bias)[rows]
        np.testing.assert_allclose(qlinear.forward_rows_batched(x[None], rows), expected, atol=1e-6)

    def test_forward_rows_batched_matches_forward_batched(self):
        rng = np.random.default_rng(1)
        linear = Linear(16, 12, rng=2)
        qlinear = QuantizedLinear(linear, 12)
        x = rng.standard_normal((3, 40, 16)).astype(np.float32)
        flat_rows = np.array([0, 39, 40, 85, 119])  # rows from every image
        expected = qlinear.forward_batched(x).reshape(120, 12)[flat_rows]
        np.testing.assert_allclose(qlinear.forward_rows_batched(x, flat_rows), expected, atol=1e-6)


class TestSparseEncoderRunner:
    def test_runner_sparse_matches_dense(self):
        encoder = DeformableEncoder(
            num_layers=2,
            d_model=N_H * D_H,
            num_heads=N_H,
            num_levels=N_L,
            num_points=N_P,
            ffn_dim=48,
            rng=0,
        )
        features, _, reference = _defa_inputs(seed=14)
        pos = sine_positional_encoding(SHAPES, N_H * D_H)
        dense_runner = DEFAEncoderRunner(
            encoder, FP32_CONFIG, ExecutionOptions(sparse_mode="dense")
        )
        sparse_runner = DEFAEncoderRunner(
            encoder, FP32_CONFIG, ExecutionOptions(sparse_mode="sparse")
        )
        out_dense = dense_runner.forward(features, pos, reference, SHAPES)
        out_sparse = sparse_runner.forward(features, pos, reference, SHAPES)
        np.testing.assert_allclose(out_sparse.memory, out_dense.memory, atol=TOL)
        # First-block convention: no incoming mask => the first block never
        # runs the compacted projection even in forced sparse mode...
        assert not out_sparse.layer_stats[0].sparse_projection
        # ...but the second block receives the generated mask and does.
        assert out_sparse.layer_stats[1].sparse_projection
        assert not any(s.sparse_projection for s in out_dense.layer_stats)

    def test_sparse_mode_setter_propagates(self):
        encoder = DeformableEncoder(
            num_layers=2,
            d_model=N_H * D_H,
            num_heads=N_H,
            num_levels=N_L,
            num_points=N_P,
            ffn_dim=48,
            rng=0,
        )
        runner = DEFAEncoderRunner(encoder, FP32_CONFIG)
        assert runner.sparse_mode == "auto"
        runner.sparse_mode = "sparse"
        assert all(layer.sparse_mode == "sparse" for layer in runner.defa_layers)
        with pytest.raises(ValueError):
            runner.sparse_mode = "bogus"
        assert "auto" in SPARSE_MODES


class TestKernelTimings:
    def test_nested_collectors_record_independently(self):
        from repro.utils.timing import collect_kernel_timings, kernel_section

        with collect_kernel_timings() as outer:
            with collect_kernel_timings() as inner:
                with kernel_section("a"):
                    pass
            with kernel_section("b"):
                pass
        assert set(inner.seconds) == {"a"}
        assert set(outer.seconds) == {"a", "b"}
        assert outer.calls == {"a": 1, "b": 1}


class TestSparseModeAuto:
    def test_auto_is_dense_on_tiny_inputs(self):
        """Below the auto thresholds, tiny inputs keep the dense kernels."""
        features, query, reference = _defa_inputs(seed=15)
        auto = _make_defa(FP32_CONFIG, "auto", seed=8)
        mask = np.zeros(N_IN, dtype=bool)
        mask[: N_IN // 2] = True
        out = auto.forward_detailed(query, reference, features, SHAPES, fmap_mask=mask)
        assert not out.stats.sparse_projection  # N_IN < DISPATCH_THRESHOLDS.min_tokens
        assert not out.stats.sparse_gather  # slots < DISPATCH_THRESHOLDS.min_slots
        assert not out.stats.sparse_query  # N_q < DISPATCH_THRESHOLDS.min_queries


QP_FP32 = DEFAConfig(quant_bits=None, enable_query_pruning=True)
QP_INT12 = DEFAConfig(enable_query_pruning=True)


class TestQueryPruning:
    """Sparse execution v2: FWP-pruned pixels stop acting as queries.

    The dense path zeroes the pruned queries' rows, the sparse path skips
    their offset/attention/output projections via row compaction — both
    implement the same semantics and must agree to 1e-5 in fp32 (a few INT12
    steps when quantized), with identical masks and stats.
    """

    @pytest.mark.parametrize("mask_kind", ["generated", "all_pruned", "single_survivor"])
    def test_single_image_paths_agree(self, mask_kind):
        features, query, reference = _defa_inputs(seed=20)
        dense = _make_defa(QP_FP32, "dense", seed=9)
        sparse = _make_defa(QP_FP32, "sparse", seed=9)
        if mask_kind == "generated":
            fmap_mask = dense.forward_detailed(query, reference, features, SHAPES).fmap_mask_next
        elif mask_kind == "all_pruned":
            fmap_mask = np.zeros(N_IN, dtype=bool)
        else:
            fmap_mask = np.zeros(N_IN, dtype=bool)
            fmap_mask[N_IN // 3] = True
        out_dense = dense.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        out_sparse = sparse.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        np.testing.assert_allclose(out_sparse.output, out_dense.output, atol=TOL)
        np.testing.assert_array_equal(out_sparse.point_mask, out_dense.point_mask)
        np.testing.assert_allclose(
            out_sparse.attention_weights, out_dense.attention_weights, atol=TOL
        )
        np.testing.assert_allclose(
            out_sparse.sampling_locations, out_dense.sampling_locations, atol=TOL
        )
        np.testing.assert_array_equal(out_sparse.fmap_mask_next, out_dense.fmap_mask_next)
        assert out_sparse.stats.sparse_query and out_sparse.stats.sparse_gather
        assert not out_dense.stats.sparse_query
        assert out_sparse.stats.points_kept == out_dense.stats.points_kept

    def test_pruned_query_rows_are_the_output_bias(self):
        """A pruned pixel's block output row is exactly the output-proj bias."""
        from repro.nn.msdeform_attn import MSDeformAttn
        from repro.core.pipeline import DEFAAttention

        attn = MSDeformAttn(
            d_model=N_H * D_H, num_heads=N_H, num_levels=N_L, num_points=N_P, rng=10
        )
        # A non-zero bias makes the check non-trivial (Linear inits bias to 0).
        attn.output_proj.bias = (
            np.random.default_rng(0).standard_normal(N_H * D_H).astype(np.float32)
        )
        defa = DEFAAttention(attn, QP_FP32, ExecutionOptions(sparse_mode="sparse"))
        features, query, reference = _defa_inputs(seed=21)
        fmap_mask = np.zeros(N_IN, dtype=bool)
        fmap_mask[::2] = True
        out = defa.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        bias = attn.output_proj.bias
        expected = np.broadcast_to(bias, out.output[~fmap_mask].shape)
        np.testing.assert_allclose(out.output[~fmap_mask], expected, atol=1e-6)
        # The dense path produces the same rows (zero head outputs + bias).
        dense = DEFAAttention(attn, QP_FP32, ExecutionOptions(sparse_mode="dense"))
        out_dense = dense.forward_detailed(
            query, reference, features, SHAPES, fmap_mask=fmap_mask
        )
        np.testing.assert_allclose(out_dense.output[~fmap_mask], expected, atol=1e-6)
        # Pruned queries contribute no points and no sampled frequency.
        assert not out.point_mask[~fmap_mask].any()

    def test_points_of_pruned_queries_are_pruned(self):
        """points_kept counts only the points of surviving queries."""
        features, query, reference = _defa_inputs(seed=22)
        defa = _make_defa(QP_FP32, "dense", seed=11)
        no_qp = _make_defa(FP32_CONFIG, "dense", seed=11)
        fmap_mask = np.zeros(N_IN, dtype=bool)
        fmap_mask[: N_IN // 2] = True
        with_qp = defa.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        without = no_qp.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        assert with_qp.stats.points_kept < without.stats.points_kept
        np.testing.assert_array_equal(
            with_qp.point_mask[fmap_mask], without.point_mask[fmap_mask]
        )

    @pytest.mark.parametrize("config, tol", [(QP_FP32, TOL), (QP_INT12, QUANT_TOL)])
    def test_batched_paths_agree_and_match_single(self, config, tol):
        batch = 3
        features, query, reference = _defa_inputs(seed=23, batch=batch)
        dense = _make_defa(config, "dense", seed=12)
        sparse = _make_defa(config, "sparse", seed=12)
        fmap_mask = dense.forward_detailed(query, reference, features, SHAPES).fmap_mask_next
        out_dense = dense.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        out_sparse = sparse.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        np.testing.assert_allclose(out_sparse.output, out_dense.output, atol=tol)
        for b in range(batch):
            img_s = out_sparse.images[b]
            assert img_s.stats.sparse_query
            single = sparse.forward_detailed(
                query[b], reference, features[b], SHAPES, fmap_mask=fmap_mask[b]
            )
            np.testing.assert_allclose(out_sparse.output[b], single.output, atol=tol)
            np.testing.assert_array_equal(img_s.point_mask, single.point_mask)
            np.testing.assert_array_equal(img_s.fmap_mask_next, single.fmap_mask_next)

    def test_default_config_leaves_queries_alone(self):
        """enable_query_pruning defaults off: masked blocks keep every query."""
        features, query, reference = _defa_inputs(seed=24)
        defa = _make_defa(FP32_CONFIG, "sparse", seed=13)
        fmap_mask = np.zeros(N_IN, dtype=bool)
        fmap_mask[: N_IN // 2] = True
        out = defa.forward_detailed(query, reference, features, SHAPES, fmap_mask=fmap_mask)
        assert not out.stats.sparse_query
        # Pruned pixels still act as queries: their points survive PAP.
        assert out.point_mask[~fmap_mask].any()


class TestCompactTraceInPipeline:
    def test_sparse_output_records_compact_trace_and_materializes(self):
        from repro.nn.grid_sample import CompactSamplingTrace, SamplingTrace

        features, query, reference = _defa_inputs(seed=25)
        sparse = _make_defa(FP32_CONFIG, "sparse", seed=14)
        dense = _make_defa(FP32_CONFIG, "dense", seed=14)
        out_s = sparse.forward_detailed(query, reference, features, SHAPES)
        out_d = dense.forward_detailed(query, reference, features, SHAPES)
        assert isinstance(out_s.trace_executed, CompactSamplingTrace)
        assert out_s.stats.sparse_gather
        assert isinstance(out_d.trace_executed, SamplingTrace)
        # The .trace property materializes the full trace on demand and it
        # matches the dense path's trace exactly (same locations).
        materialized = out_s.trace
        assert isinstance(materialized, SamplingTrace)
        np.testing.assert_array_equal(materialized.flat_indices, out_d.trace.flat_indices)
        np.testing.assert_array_equal(materialized.weights, out_d.trace.weights)
        assert out_s.trace is materialized  # cached

    def test_compact_trace_matches_executed_mask(self):
        features, query, reference = _defa_inputs(seed=26)
        sparse = _make_defa(FP32_CONFIG, "sparse", seed=15)
        out = sparse.forward_detailed(query, reference, features, SHAPES)
        executed = out.trace_executed
        np.testing.assert_array_equal(
            executed.kept, np.flatnonzero(out.point_mask.reshape(-1))
        )
