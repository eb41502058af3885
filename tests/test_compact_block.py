"""The planned block and the rewrites that ride with it.

The planned (fused / compiled) runner runs every block through
``DEFAAttention.forward_kept_rows``.  Under row-compacted query pruning it
keeps a block's query, sampling and output rows in kept-query space and
scatters only once, into its residual-stream buffer; any other block runs
every row, the pruned ones masked.  It must equal the plan-less reference
runner bit for bit: memory, generated FWP masks and every
:class:`DEFALayerStats` field, for fp32 and INT12, single images and batches
with uneven keeps.  The bitwise pins below check each rewritten expression
against the one it replaced, on rows built to break a careless rewrite:
signed zeros, tied maxima, constant rows and large magnitudes.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.core.pap import point_keep_mask
from repro.core.pipeline import DEFAAttention, _softmax_inplace
from repro.kernels import COMPILED_AVAILABLE, ExecutionOptions, ExecutionPlan, resolve_backend
from repro.kernels.backends import add_rows
from repro.nn.encoder import DeformableEncoder
from repro.nn.grid_sample import multi_scale_neighbors_rows, multi_scale_neighbors_sparse
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.nn.tensor_utils import layer_norm, softmax
from repro.utils.shapes import LevelShape, make_level_shapes

FAST_BACKENDS = ("fused",) + (("compiled",) if COMPILED_AVAILABLE else ())
SHAPES = make_level_shapes(96, 128, (4, 8, 16))
N_IN = sum(s.num_pixels for s in SHAPES)
NUM_LAYERS = 3
SERVE_SHAPES = [LevelShape(8, 12), LevelShape(4, 6)]
"""The perfbench ``serve_mixed`` workload's most frequent pyramid, 120
tokens: below ``DispatchThresholds().min_queries``, so ``auto`` runs a
masked block's queries masked-dense."""


def _model(seed=0, shapes=SHAPES, num_layers=NUM_LAYERS):
    encoder = DeformableEncoder(
        num_layers=num_layers,
        d_model=64,
        num_heads=4,
        num_levels=len(shapes),
        num_points=2,
        ffn_dim=128,
        rng=seed,
    )
    pos = sine_positional_encoding(shapes, 64)
    return encoder, pos, make_reference_points(shapes)


def _features(batch, seed=1, n_in=N_IN):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((batch, n_in, 64)).astype(np.float32)


def _masks(keeps, seed=2):
    """One ``(B, N_in)`` incoming mask per block, image ``b`` keeping about
    ``keeps[b]`` of its pixels (0 and 1 exactly)."""
    rng = np.random.default_rng(seed)
    return [
        np.stack([rng.uniform(size=N_IN) < keep for keep in keeps])
        for _ in range(NUM_LAYERS)
    ]


def _assert_runs_equal(got, want):
    assert np.array_equal(got.memory.view(np.uint32), want.memory.view(np.uint32))
    for got_image, want_image in zip(got.images, want.images):
        assert len(got_image.fmap_masks) == len(want_image.fmap_masks)
        for a, b in zip(got_image.fmap_masks, want_image.fmap_masks):
            assert np.array_equal(a, b)
        for a, b in zip(got_image.layer_stats, want_image.layer_stats):
            assert dataclasses.asdict(a) == dataclasses.asdict(b)


def _run_pair(config, backend, features, fmap_masks=None, shapes=SHAPES, **runner_kw):
    encoder, pos, reference = _model(shapes=shapes, num_layers=runner_kw.get("layers", NUM_LAYERS))
    runs = []
    for name in (backend, "reference"):
        options = ExecutionOptions(kernel_backend=name, **runner_kw.get("options", {}))
        runner = DEFAEncoderRunner(encoder, config, options)
        runner.enable_sparse_ffn = runner_kw.get("sparse_ffn", True)
        runs.append(runner.forward(features, pos, reference, shapes, fmap_masks=fmap_masks))
    return runs


class TestCompactBlockEquivalence:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("quant_bits", [None, 12])
    @pytest.mark.parametrize(
        "keeps",
        [(0.6,), (0.3, 0.8), (0.0, 1.0)],
        ids=["b1", "b2-uneven", "b2-none-and-all"],
    )
    def test_planned_runner_equals_reference(self, backend, quant_bits, keeps):
        """Masks on every block (a warm frame), every stage forced compact."""
        config = DEFAConfig(fwp_k=1.0, quant_bits=quant_bits, enable_query_pruning=True)
        got, want = _run_pair(
            config,
            backend,
            _features(len(keeps)),
            fmap_masks=_masks(keeps),
            options={"sparse_mode": "sparse"},
        )
        assert all(s.sparse_query for s in got.images[0].layer_stats)
        _assert_runs_equal(got, want)

    @pytest.mark.parametrize("quant_bits", [None, 12])
    def test_evolving_masks_equal_reference(self, quant_bits):
        """The masks each block generates feed the next one (a cold frame)."""
        config = DEFAConfig(fwp_k=1.0, quant_bits=quant_bits, enable_query_pruning=True)
        got, want = _run_pair(config, "fused", _features(2), options={"sparse_mode": "sparse"})
        assert [s.sparse_query for s in got.images[0].layer_stats] == [False, True, True]
        _assert_runs_equal(got, want)

    def test_masked_dense_ffn_after_compact_attention(self):
        """Compact attention rows into a masked-dense FFN stage."""
        config = DEFAConfig(fwp_k=1.0, quant_bits=12, enable_query_pruning=True)
        got, want = _run_pair(
            config,
            "fused",
            _features(2),
            fmap_masks=_masks((0.4, 0.7)),
            options={"sparse_mode": "sparse"},
            sparse_ffn=False,
        )
        stats = got.images[0].layer_stats
        assert all(s.sparse_query and not s.sparse_ffn for s in stats)
        _assert_runs_equal(got, want)

    def test_dense_gather_after_compact_queries(self):
        """``auto`` can compact the queries (keep <= 0.85) yet gather densely
        (point keep > 0.70 with PAP off): the kept rows then expand into
        full grids for the dense kernel."""
        config = DEFAConfig(
            fwp_k=1.0, quant_bits=12, enable_query_pruning=True, enable_pap=False
        )
        got, want = _run_pair(config, "fused", _features(2), fmap_masks=_masks((0.8, 0.8)))
        stats = got.images[0].layer_stats
        assert all(s.sparse_query and not s.sparse_gather for s in stats)
        _assert_runs_equal(got, want)

    @pytest.mark.parametrize("quant_bits", [None, 12])
    @pytest.mark.parametrize("batch", [1, 2])
    def test_below_min_queries_equals_reference(self, quant_bits, batch):
        """``serve_mixed``'s pyramid in ``auto``: the first block runs every
        row with no mask, the masked second block every row under the
        masked-dense query dispatch (the keep mask ANDed into PAP, pruned
        offsets zeroed)."""
        config = DEFAConfig(fwp_k=1.0, quant_bits=quant_bits, enable_query_pruning=True)
        n_in = sum(s.num_pixels for s in SERVE_SHAPES)
        got, want = _run_pair(
            config, "fused", _features(batch, n_in=n_in), shapes=SERVE_SHAPES, layers=2
        )
        stats = got.images[0].layer_stats
        assert [s.mask_applied for s in stats] == [False, True]
        assert stats[1].pixels_kept < stats[1].pixels_total
        assert not any(s.sparse_query for s in stats)
        _assert_runs_equal(got, want)

    @pytest.mark.parametrize("quant_bits", [None, 12])
    @pytest.mark.parametrize("sparse_mode", ["sparse", "dense"])
    def test_planned_block_equals_plan_less_block(self, quant_bits, sparse_mode):
        """``forward_kept_rows`` on the runner's query (pruned rows zero)
        equals ``forward_detailed``: on the kept rows under the compact
        query dispatch, on every row under the masked-dense one."""
        encoder, pos, reference = _model()
        config = DEFAConfig(fwp_k=1.0, quant_bits=quant_bits, enable_query_pruning=True)
        block = DEFAAttention(
            encoder.layers[0].self_attn, config, ExecutionOptions(sparse_mode=sparse_mode)
        )
        value = _features(2)
        mask = _masks((0.3, 0.9))[0]
        query = value + pos
        query[~mask] = 0
        kept = np.flatnonzero(mask) if sparse_mode == "sparse" else None
        planned = block.forward_kept_rows(
            query if kept is None else query.reshape(-1, 64)[kept], kept, reference,
            value, SHAPES, mask, resolve_backend("fused"), ExecutionPlan(),
        )
        plain = block.forward_detailed(
            query, reference, value, SHAPES, fmap_mask=mask,
            options=ExecutionOptions(kernel_backend="reference"),
        )
        want = plain.output if kept is None else plain.output.reshape(-1, 64)[kept]
        assert np.array_equal(planned.output.view(np.uint32), want.view(np.uint32))
        for a, b in zip(planned.images, plain.images):
            assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)
            assert a.stats.sparse_query == (kept is not None)
            assert a.point_mask is None and a.pap is None  # a planned record
            assert b.point_mask is not None


class TestFfnStage:
    @pytest.mark.parametrize("compact", [False, True])
    @pytest.mark.parametrize("layout", ["fresh-out", "in-place", "attn-rows-in-place"])
    def test_planned_stage_equals_plan_less(self, compact, layout):
        """Frozen rows stay the block input whether the stage writes a fresh
        buffer or updates the stream in place, and kept attention rows give
        the full attention output's result."""
        encoder, _, _ = _model()
        layer = encoder.layers[1]
        rng = np.random.default_rng(4)
        src = _features(2)
        attn = rng.standard_normal(src.shape).astype(np.float32)
        mask = _masks((0.3, 0.7))[0]
        want = layer.forward_ffn_stage(src, attn, keep_mask=mask, compact=compact)
        plan = ExecutionPlan()
        stream = src.copy()
        if layout == "attn-rows-in-place":
            attn = attn[mask]
        got = layer.forward_ffn_stage(
            stream, attn, keep_mask=mask, compact=compact, plan=plan,
            out=None if layout == "fresh-out" else stream,
        )
        assert np.array_equal(got.view(np.uint32), want.view(np.uint32))


class TestRowTrace:
    def test_rows_trace_equals_full_grid_trace(self):
        """The trace built from the kept query rows is the full-grid compact
        trace: ``kept`` in full point space, every per-point array equal."""
        rng = np.random.default_rng(3)
        batch, n_q, n_h, n_l, n_p = 2, N_IN, 4, len(SHAPES), 2
        query_keep = rng.uniform(size=(batch, n_q)) < 0.5
        query_keep[1] = False  # an image with no kept query
        rows = np.flatnonzero(query_keep)
        grid = (batch * n_q, n_h, n_l, n_p)
        row_mask = rng.uniform(size=(rows.size,) + grid[1:]) < 0.4
        row_locations = rng.uniform(-0.1, 1.1, size=row_mask.shape + (2,)).astype(np.float32)
        full_mask = np.zeros(grid, bool)
        full_mask[rows] = row_mask
        full_locations = np.zeros(grid + (2,), np.float32)
        full_locations[rows] = row_locations
        want = multi_scale_neighbors_sparse(
            SHAPES,
            full_locations.reshape((batch, n_q) + grid[1:] + (2,)),
            point_mask=full_mask.reshape((batch, n_q) + grid[1:]),
        )
        got, row_kept = multi_scale_neighbors_rows(
            SHAPES, row_locations, row_mask, rows, batch, n_q, ExecutionPlan()
        )
        assert np.array_equal(row_kept, np.flatnonzero(row_mask))
        for name in ("kept", "levels", "flat_indices", "weights", "valid"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert (got.batch_size, got.num_queries) == (batch, n_q)


class TestCompactArena:
    WARM_FRAME_HEAD_BYTES = 13_809_928
    """Arena of the warm-frame run below with full-grid query, offsets,
    fold, PAP-weight and output buffers and two ping-pong stream buffers
    (measured before the row-compact block)."""

    def test_warm_frame_arena_shrinks(self):
        encoder, pos, reference = _model()
        config = DEFAConfig(fwp_k=1.0, quant_bits=12, enable_query_pruning=True)
        runner = DEFAEncoderRunner(
            encoder, config, ExecutionOptions(sparse_mode="sparse", kernel_backend="fused")
        )
        features = _features(2)
        masks = _masks((0.3, 0.8))
        runner.forward(features, pos, reference, SHAPES, fmap_masks=masks)
        grows = runner.plan_stats()["grows"]
        runner.forward(features, pos, reference, SHAPES, fmap_masks=masks)
        stats = runner.plan_stats()
        assert stats["grows"] == grows
        assert stats["bytes"] < self.WARM_FRAME_HEAD_BYTES, stats["bytes"]


def _signed_rows(width, rng):
    """Rows that stress exact rewrites: signed zeros, ties, constants and
    large magnitudes, next to ordinary ones."""
    rows = rng.standard_normal((64, width)).astype(np.float32)
    rows[0] = 0.0
    rows[1] = -0.0
    rows[2, ::2] = -0.0
    rows[3] = 7.25  # constant: variance 0, every point tied
    rows[4] = rng.choice([-3.0, 3.0], size=width)  # tied maxima
    rows[5] *= 1e18
    rows[6] *= 1e-20
    rows[7, :] = -1.0
    rows[7, width // 2] = -0.0
    return rows


class TestBitwisePins:
    @pytest.mark.parametrize("width", [16, 64, 256])
    def test_layer_norm_matches_mean_var_chain(self, width):
        rng = np.random.default_rng(width)
        x = _signed_rows(width, rng)
        x = np.concatenate([x, rng.standard_normal((1000, width)).astype(np.float32)])
        weight = rng.standard_normal(width).astype(np.float32)
        bias = rng.standard_normal(width).astype(np.float32)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        expected = (x - mean) / np.sqrt(var + 1e-5) * weight + bias
        got = layer_norm(x, weight, bias, out=np.empty_like(x))
        assert np.array_equal(expected.view(np.uint32), got.view(np.uint32))

    def test_softmax_running_max_matches_reduction(self):
        rng = np.random.default_rng(5)
        logits = _signed_rows(16, rng).reshape(-1, 4, 16)
        expected = softmax(logits, axis=-1)
        got = _softmax_inplace(logits.copy(), ExecutionPlan())
        assert np.array_equal(expected.view(np.uint32), got.view(np.uint32))
        # The running maximum is np.max's value (a zero may differ in sign,
        # which the subtract / exp chain above absorbs).
        peak = logits[..., 0].copy()
        for j in range(1, 16):
            np.maximum(peak, logits[..., j], out=peak)
        assert np.array_equal(peak, np.max(logits, axis=-1))

    def test_top_point_guard_matches_meshgrid_set(self):
        rng = np.random.default_rng(6)
        probs = softmax(_signed_rows(16, rng).reshape(-1, 2, 4, 4), axis=-1)
        probs[0, 0] = 1.0 / 16  # every point tied
        n_q, n_h = probs.shape[:2]
        expected = probs >= 0.2
        flat = probs.reshape(n_q, n_h, -1)
        top = np.argmax(flat, axis=-1)
        q_idx, h_idx = np.meshgrid(np.arange(n_q), np.arange(n_h), indexing="ij")
        expected.reshape(n_q, n_h, -1)[q_idx, h_idx, top] = True
        got = point_keep_mask(probs, 0.2, out=np.empty(probs.shape, bool))
        assert np.array_equal(expected, got)

    def test_row_flush_matches_fancy_add(self):
        rng = np.random.default_rng(7)
        out = _signed_rows(32, rng)
        values = _signed_rows(32, rng)[::-1][:40].copy()
        values[:5] = -0.0
        rows = np.sort(rng.choice(out.shape[0], size=40, replace=False))
        expected = out.copy()
        expected[rows] += values
        add_rows(out, rows, values, np.empty((48, 32), np.float32))
        assert np.array_equal(expected.view(np.uint32), out.view(np.uint32))
