"""Encoder-level golden equivalence for the block-sparse encoder (PR 4).

Under :attr:`DEFAConfig.enable_query_pruning` the FWP mask carries through
the *whole* encoder block: a pruned pixel skips the attention projections
(sparse execution v2) *and* the inter-block residual adds, ``norm1``, FFN and
``norm2``, leaving its row frozen at the block input.  Both execution paths
implement those semantics — the dense path computes everything and masks, the
sparse path row-compacts — so across multi-block runs with FWP masks evolving
block to block they must agree to 1e-5 in fp32 (single and batched; INT12 is
bounded by accumulated quantization steps instead), batched sparse must be
bit-equal to the single-image sparse loop, and the first-block
``fmap_mask=None`` convention must keep the first block fully dense even in
forced sparse mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.core.fwp import normalize_mask
from repro.eval.profiler import measure_encoder_blockwise_equivalence
from repro.kernels import ExecutionOptions
from repro.nn.encoder import DeformableEncoder
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.utils.shapes import LevelShape
from repro.workloads.specs import get_workload

TOL = 1e-5
"""Strict float32-path equivalence tolerance (unquantized configs)."""

ENCODER_QUANT_TOL = 2e-2
"""INT12 multi-block tolerance: each block may differ by a few quantization
steps (the single-block 5e-3 bound) and block-to-block propagation through
the LayerNorm/FFN stages accumulates them."""

SHAPES = [LevelShape(10, 14), LevelShape(5, 7), LevelShape(3, 4)]
N_IN = sum(s.num_pixels for s in SHAPES)
D_MODEL, N_H, N_P = 32, 4, 2
NUM_LAYERS = 3

QP_FP32 = DEFAConfig(quant_bits=None, enable_query_pruning=True)
QP_INT12 = DEFAConfig(enable_query_pruning=True)


def _make_encoder(seed: int = 0, num_layers: int = NUM_LAYERS) -> DeformableEncoder:
    return DeformableEncoder(
        num_layers=num_layers,
        d_model=D_MODEL,
        num_heads=N_H,
        num_levels=len(SHAPES),
        num_points=N_P,
        ffn_dim=64,
        rng=seed,
    )


def _inputs(seed: int = 0, batch: int | None = None):
    rng = np.random.default_rng(seed)
    lead = () if batch is None else (batch,)
    features = rng.standard_normal(lead + (N_IN, D_MODEL)).astype(np.float32)
    pos = sine_positional_encoding(SHAPES, D_MODEL)
    reference = make_reference_points(SHAPES)
    return features, pos, reference


class TestBlockSparseEncoderEquivalence:
    @pytest.mark.parametrize(
        "config, tol", [(QP_FP32, TOL), (QP_INT12, ENCODER_QUANT_TOL)]
    )
    def test_multi_block_sparse_matches_dense(self, config, tol):
        """Masks evolve block to block; the two paths stay equivalent."""
        encoder = _make_encoder(seed=0)
        features, pos, reference = _inputs(seed=1)
        dense = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="dense"))
        sparse = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="sparse"))
        out_dense = dense.forward(features, pos, reference, SHAPES, collect_details=True)
        out_sparse = sparse.forward(features, pos, reference, SHAPES, collect_details=True)
        np.testing.assert_allclose(out_sparse.memory, out_dense.memory, atol=tol)
        # Identical mask propagation: the FWP mask each block generates is
        # exact (integer frequency counting), so the two paths must agree on
        # every mask bit-for-bit...
        for lo_d, lo_s in zip(out_dense.layer_outputs, out_sparse.layer_outputs):
            np.testing.assert_array_equal(lo_s.fmap_mask_next, lo_d.fmap_mask_next)
        # The always-collected trajectory record mirrors the detailed outputs.
        for mask, lo in zip(out_sparse.fmap_masks, out_sparse.layer_outputs):
            np.testing.assert_array_equal(mask, lo.fmap_mask_next)
        # ...and the masks must actually evolve (this workload prunes).
        masks = [lo.fmap_mask_next for lo in out_sparse.layer_outputs]
        assert all(m.sum() < N_IN for m in masks)
        # Stats record the execution profile: first block dense by
        # convention, masked blocks row-compacted in forced sparse mode.
        assert [s.sparse_ffn for s in out_sparse.layer_stats] == [False, True, True]
        assert [s.sparse_ffn for s in out_dense.layer_stats] == [False] * NUM_LAYERS

    def test_batched_sparse_matches_single_image_loop(self):
        """Per-image batched results equal single-image sparse execution.

        Mask trajectories and stats must match *exactly* (they are integer
        threshold decisions on identical inputs).  The memory is held to the
        repo-standard 1e-5 rather than bit-equality: the batched FFN stage
        runs one flat matmul over the kept rows of all images while the
        single-image loop runs per-image matmuls, and BLAS may pick a
        different kernel per row count (see ``FeedForward.forward_rows``) —
        bit-identical on this machine, one-ulp wiggle room across builds.
        """
        batch = 3
        encoder = _make_encoder(seed=2)
        features, pos, reference = _inputs(seed=3, batch=batch)
        sparse = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode="sparse"))
        out_batched = sparse.forward(features, pos, reference, SHAPES)
        for b in range(batch):
            single = sparse.forward(features[b], pos, reference, SHAPES)
            np.testing.assert_allclose(out_batched.memory[b], single.memory, atol=TOL)
            np.testing.assert_allclose(
                out_batched.images[b].memory, single.memory, atol=TOL
            )
            for mask_b, mask_s in zip(out_batched.images[b].fmap_masks, single.fmap_masks):
                np.testing.assert_array_equal(mask_b, mask_s)
            for st_b, st_s in zip(out_batched.images[b].layer_stats, single.layer_stats):
                assert st_b.sparse_ffn == st_s.sparse_ffn
                assert st_b.pixels_kept == st_s.pixels_kept

    @pytest.mark.parametrize(
        "config, tol", [(QP_FP32, TOL), (QP_INT12, ENCODER_QUANT_TOL)]
    )
    def test_batched_sparse_matches_batched_dense(self, config, tol):
        encoder = _make_encoder(seed=4)
        features, pos, reference = _inputs(seed=5, batch=2)
        dense = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="dense"))
        sparse = DEFAEncoderRunner(encoder, config, ExecutionOptions(sparse_mode="sparse"))
        out_dense = dense.forward(features, pos, reference, SHAPES)
        out_sparse = sparse.forward(features, pos, reference, SHAPES)
        np.testing.assert_allclose(out_sparse.memory, out_dense.memory, atol=tol)

    @pytest.mark.parametrize("sparse_mode", ["dense", "sparse"])
    def test_frozen_rows_carry_the_block_input(self, sparse_mode):
        """A pixel pruned by block i's incoming mask leaves block i unchanged.

        Reconstructs the stage input of block 1 from the detailed block-0
        outputs and checks that the rows pruned by block 0's generated mask
        are carried through blocks 1..L-1 verbatim — on both execution paths.
        """
        encoder = _make_encoder(seed=6)
        features, pos, reference = _inputs(seed=7)
        runner = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode=sparse_mode))
        result = runner.forward(features, pos, reference, SHAPES, collect_details=True)
        # Block 0 runs fully dense (no incoming mask): its stage output is
        # the ordinary norm2(z + ffn(z)), z = norm1(src + attn).
        x1 = encoder.layers[0].forward_ffn_stage(
            features, result.layer_outputs[0].output
        )
        mask1 = result.layer_outputs[0].fmap_mask_next
        pruned = ~np.asarray(mask1, dtype=bool)
        assert pruned.any(), "workload must actually prune for this test"
        # A row pruned by block 1 but revived by block 2's mask changes again
        # in block 2, so the exact invariant is on the rows pruned by *every*
        # remaining block's incoming mask: they equal their block-1 input in
        # the final memory.
        incoming = [mask1] + [
            out.fmap_mask_next for out in result.layer_outputs[1:-1]
        ]
        always_pruned = np.ones(N_IN, dtype=bool)
        for m in incoming:
            always_pruned &= ~np.asarray(m, dtype=bool)
        assert always_pruned.any()
        np.testing.assert_array_equal(
            result.memory[always_pruned], x1[always_pruned]
        )

    def test_first_block_convention_under_ffn_pruning(self):
        """``fmap_mask=None`` keeps the whole first block dense — attention
        *and* FFN stage — even in forced sparse mode with query pruning on."""
        encoder = _make_encoder(seed=8, num_layers=1)
        features, pos, reference = _inputs(seed=9)
        with_qp = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode="sparse"))
        without_qp = DEFAEncoderRunner(
            encoder, DEFAConfig(quant_bits=None), ExecutionOptions(sparse_mode="sparse")
        )
        out_qp = with_qp.forward(features, pos, reference, SHAPES)
        out_plain = without_qp.forward(features, pos, reference, SHAPES)
        stats = out_qp.layer_stats[0]
        assert not stats.mask_applied
        assert stats.pixels_kept == stats.pixels_total == N_IN
        assert not stats.sparse_ffn and not stats.sparse_query
        assert not stats.sparse_projection
        # With no incoming mask, query pruning is a no-op: bit-identical.
        np.testing.assert_array_equal(out_qp.memory, out_plain.memory)

    def test_query_pruning_off_never_prunes_ffn(self):
        """The paper's values-only FWP semantics are untouched: without query
        pruning the inter-block stage runs dense for every block."""
        encoder = _make_encoder(seed=10)
        features, pos, reference = _inputs(seed=11)
        runner = DEFAEncoderRunner(
            encoder, DEFAConfig(quant_bits=None), ExecutionOptions(sparse_mode="sparse")
        )
        out = runner.forward(features, pos, reference, SHAPES)
        assert all(not s.sparse_ffn for s in out.layer_stats)


class TestFfnStageDispatch:
    def test_auto_mode_keeps_tiny_inputs_dense(self):
        """Below DispatchThresholds().ffn_min_tokens the auto stage stays dense (this
        geometry has N_IN < 512), with unchanged numerics."""
        encoder = _make_encoder(seed=12)
        features, pos, reference = _inputs(seed=13)
        auto = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode="auto"))
        forced = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode="sparse"))
        out_auto = auto.forward(features, pos, reference, SHAPES)
        out_forced = forced.forward(features, pos, reference, SHAPES)
        assert all(not s.sparse_ffn for s in out_auto.layer_stats)
        assert any(s.sparse_ffn for s in out_forced.layer_stats)
        np.testing.assert_allclose(out_auto.memory, out_forced.memory, atol=TOL)

    def test_enable_sparse_ffn_escape_hatch(self):
        """enable_sparse_ffn=False reproduces the PR 3 cost profile (dense
        stage) under identical frozen-row semantics."""
        encoder = _make_encoder(seed=14)
        features, pos, reference = _inputs(seed=15)
        pr3 = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode="sparse"))
        pr3.enable_sparse_ffn = False
        full = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode="sparse"))
        out_pr3 = pr3.forward(features, pos, reference, SHAPES)
        out_full = full.forward(features, pos, reference, SHAPES)
        assert all(not s.sparse_ffn for s in out_pr3.layer_stats)
        np.testing.assert_allclose(out_full.memory, out_pr3.memory, atol=TOL)

    def test_ffn_stage_rejects_mismatched_mask(self):
        encoder = _make_encoder(seed=16, num_layers=1)
        layer = encoder.layers[0]
        x = np.zeros((N_IN, D_MODEL), dtype=np.float32)
        with pytest.raises(ValueError):
            layer.forward_ffn_stage(x, x, keep_mask=np.ones(N_IN - 1, dtype=bool))

    def test_ffn_stage_all_pruned_mask_freezes_everything(self):
        encoder = _make_encoder(seed=17, num_layers=1)
        layer = encoder.layers[0]
        rng = np.random.default_rng(18)
        x = rng.standard_normal((N_IN, D_MODEL)).astype(np.float32)
        attn = rng.standard_normal((N_IN, D_MODEL)).astype(np.float32)
        mask = np.zeros(N_IN, dtype=bool)
        for compact in (False, True):
            out = layer.forward_ffn_stage(x, attn, keep_mask=mask, compact=compact)
            np.testing.assert_array_equal(out, x)

    def test_ffn_stage_single_survivor(self):
        encoder = _make_encoder(seed=19, num_layers=1)
        layer = encoder.layers[0]
        rng = np.random.default_rng(20)
        x = rng.standard_normal((N_IN, D_MODEL)).astype(np.float32)
        attn = rng.standard_normal((N_IN, D_MODEL)).astype(np.float32)
        mask = np.zeros(N_IN, dtype=bool)
        mask[N_IN // 2] = True
        dense_stage = layer.forward_ffn_stage(x, attn)
        out_masked = layer.forward_ffn_stage(x, attn, keep_mask=mask, compact=False)
        out_compact = layer.forward_ffn_stage(x, attn, keep_mask=mask, compact=True)
        np.testing.assert_array_equal(out_masked[~mask], x[~mask])
        np.testing.assert_array_equal(out_compact[~mask], x[~mask])
        np.testing.assert_array_equal(out_masked[mask], dense_stage[mask])
        np.testing.assert_allclose(out_compact[mask], dense_stage[mask], atol=TOL)


class TestQueryAddStage:
    """The pre-attention ``query = x + pos`` add under query pruning (PR 5).

    FWP-pruned pixels never act as queries, so their positional add is dead
    work: the runner computes it only on kept rows in the sparse path and
    zeroes the pruned rows in the masked-dense path.  Both must be
    observation-equivalent to the PR 4 execution (full add for every row) —
    the pruned rows' query values were always masked out downstream — and
    the frozen-row convention must be untouched.
    """

    @staticmethod
    def _pr4_forward(runner, features, pos, reference):
        """The PR 4 encoder loop: full ``x + pos`` for every row."""
        x = np.asarray(features, dtype=np.float32)
        fmap_mask = None
        masks = []
        backend = runner.resolved_backend()
        for layer, defa in zip(runner.encoder.layers, runner.defa_layers):
            query = x + pos
            attn_out = defa.forward_detailed(
                query, reference, x, SHAPES, fmap_mask=fmap_mask
            )
            keep_mask, compact = runner.ffn_stage_plan(fmap_mask, x.shape[0], backend)
            x = layer.forward_ffn_stage(
                x, attn_out.output, keep_mask=keep_mask, compact=compact
            )
            fmap_mask = attn_out.fmap_mask_next
            masks.append(fmap_mask)
        return x, masks

    @pytest.mark.parametrize("sparse_mode", ["dense", "sparse"])
    def test_skipped_query_add_matches_pr4_full_add(self, sparse_mode):
        encoder = _make_encoder(seed=21)
        features, pos, reference = _inputs(seed=22)
        runner = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode=sparse_mode))
        result = runner.forward(features, pos, reference, SHAPES)
        pr4_memory, pr4_masks = self._pr4_forward(runner, features, pos, reference)
        # Zeroing / skipping the pruned rows' adds changes nothing observable:
        # every projection of a pruned row is masked out downstream.
        np.testing.assert_array_equal(result.memory, pr4_memory)
        for got, want in zip(result.fmap_masks, pr4_masks):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("sparse_mode", ["dense", "sparse"])
    def test_frozen_rows_survive_the_query_add_skip(self, sparse_mode):
        """Pruned rows stay frozen at the block input with the add skipped."""
        encoder = _make_encoder(seed=23, num_layers=2)
        features, pos, reference = _inputs(seed=24)
        runner = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode=sparse_mode))
        result = runner.forward(features, pos, reference, SHAPES, collect_details=True)
        mask_into_block2 = result.fmap_masks[0]
        assert 0 < mask_into_block2.sum() < N_IN
        block1_out = result.layer_outputs[0]
        # Reconstruct block 1's stage output (= block 2's input).
        backend = runner.resolved_backend()
        keep_mask, compact = runner.ffn_stage_plan(None, N_IN, backend)
        block2_input = encoder.layers[0].forward_ffn_stage(
            features, block1_out.output, keep_mask=keep_mask, compact=compact
        )
        keep_mask, compact = runner.ffn_stage_plan(mask_into_block2, N_IN, backend)
        block2_out = encoder.layers[1].forward_ffn_stage(
            block2_input,
            result.layer_outputs[1].output,
            keep_mask=keep_mask,
            compact=compact,
        )
        np.testing.assert_array_equal(
            block2_out[~mask_into_block2], block2_input[~mask_into_block2]
        )
        np.testing.assert_allclose(result.memory, block2_out, atol=TOL)

    def test_query_stage_plan_gate(self):
        encoder = _make_encoder(seed=25)
        mask = np.zeros(N_IN, dtype=bool)
        mask[: N_IN // 3] = True
        # No query pruning => no mask, regardless of sparse_mode.
        off = DEFAEncoderRunner(
            encoder, DEFAConfig(quant_bits=None), ExecutionOptions(sparse_mode="sparse")
        )
        assert off.query_stage_plan(mask, N_IN, off.resolved_backend()) == (None, False)
        # Query pruning + forced sparse => compact path.
        on = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode="sparse"))
        keep, compact = on.query_stage_plan(mask, N_IN, on.resolved_backend())
        assert compact and keep is not None
        # First block (no mask) always runs the plain add.
        assert on.query_stage_plan(None, N_IN, on.resolved_backend()) == (None, False)
        # auto mode keeps tiny inputs dense (N_IN < DispatchThresholds().min_queries).
        auto = DEFAEncoderRunner(encoder, QP_FP32, ExecutionOptions(sparse_mode="auto"))
        keep, compact = auto.query_stage_plan(mask, N_IN, auto.resolved_backend())
        assert keep is not None and not compact


class TestLockstepProbe:
    """The ``run_all`` encoder equivalence probe at ``small``, where an fp32
    config drifts far less than INT12 (at ``tiny`` both read about 0)."""

    @pytest.mark.parametrize(
        "quant_bits, tol", [(None, TOL), (12, ENCODER_QUANT_TOL)], ids=["fp32", "int12"]
    )
    def test_encoder_blockwise(self, quant_bits, tol):
        drift = measure_encoder_blockwise_equivalence(
            get_workload("deformable_detr", "small"),
            config=DEFAConfig(fwp_k=1.0, quant_bits=quant_bits, enable_query_pruning=True),
            num_layers=2,
            rng=0,
        )
        assert drift <= tol


class TestIntegerMaskNormalization:
    """Integer/uint8 masks are normalized to bool once at the boundary and
    must flow through the full encoder identically to boolean masks."""

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32])
    def test_integer_masks_through_full_encoder(self, dtype):
        encoder = _make_encoder(seed=26)
        features, pos, reference = _inputs(seed=27)
        runner = DEFAEncoderRunner(encoder, QP_INT12, ExecutionOptions(sparse_mode="sparse"))
        want = runner.forward(features, pos, reference, SHAPES)

        # The same loop (on the B=1 batch the runner executes), but every
        # block boundary receives an integer mask: the attention block
        # normalizes it itself, the stage plans get it normalized once, as
        # the runner does.
        x = np.asarray(features, dtype=np.float32)[None]
        fmap_mask = None
        masks = []
        backend = runner.resolved_backend()
        for layer, defa in zip(runner.encoder.layers, runner.defa_layers):
            int_mask = None if fmap_mask is None else fmap_mask.astype(dtype)
            keep = normalize_mask(int_mask)
            q_keep, q_compact = runner.query_stage_plan(keep, x.shape[1], backend)
            query = runner._build_query(x, pos, q_keep, q_compact, None)
            attn_out = defa.forward_detailed(
                query, reference, x, SHAPES, fmap_mask=int_mask
            )
            keep_mask, compact = runner.ffn_stage_plan(keep, x.shape[1], backend)
            x = layer.forward_ffn_stage(
                x, attn_out.output, keep_mask=keep_mask, compact=compact
            )
            fmap_mask = attn_out.fmap_mask_next
            masks.append(fmap_mask[0])

        np.testing.assert_array_equal(x[0], want.memory)
        for got, ref_mask in zip(masks, want.fmap_masks):
            np.testing.assert_array_equal(got, ref_mask)

    @pytest.mark.parametrize("backend", ["fused", "reference"])
    @pytest.mark.parametrize("sparse_mode", ["auto", "sparse"])
    @pytest.mark.parametrize("query_pruning", [True, False])
    def test_integer_fmap_masks_through_the_runner(self, query_pruning, sparse_mode, backend):
        """Integer ``fmap_masks=``: the runner normalizes each block's mask
        once, before the query add, the (planned or plan-less) block and
        the FFN stage read it, so the run equals the boolean-mask run and
        the plan-less reference run bit for bit."""
        encoder = _make_encoder(seed=26)
        features, pos, reference = _inputs(seed=27, batch=2)
        config = DEFAConfig(enable_query_pruning=query_pruning)

        def run(kernel_backend, masks):
            options = ExecutionOptions(kernel_backend=kernel_backend, sparse_mode=sparse_mode)
            runner = DEFAEncoderRunner(encoder, config, options)
            return runner.forward(features, pos, reference, SHAPES, fmap_masks=masks)

        generated = run("reference", None).images[0].fmap_masks
        masks = [None] + [np.stack([m, m[::-1]]) for m in generated[:-1]]
        assert not masks[1].all()
        int_masks = [None if m is None else m.astype(np.uint8) * 3 for m in masks]
        got = run(backend, int_masks)
        for want in (run(backend, masks), run("reference", masks)):
            assert np.array_equal(got.memory.view(np.uint32), want.memory.view(np.uint32))
            for got_image, want_image in zip(got.images, want.images):
                assert got_image.layer_stats == want_image.layer_stats
                for a, b in zip(got_image.fmap_masks, want_image.fmap_masks):
                    np.testing.assert_array_equal(a, b)

    def test_normalize_mask_contract(self):
        assert normalize_mask(None) is None
        boolean = np.array([True, False, True])
        assert normalize_mask(boolean) is boolean  # no copy for bool masks
        ints = np.array([2, 0, 255], dtype=np.uint8)
        np.testing.assert_array_equal(normalize_mask(ints), [True, False, True])
