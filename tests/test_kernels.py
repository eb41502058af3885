"""Tests for the kernel-backend registry and the execution-plan arena (PR 5).

Covers the selection machinery (env var / config / per-call override), the
:class:`~repro.kernels.ExecutionPlan` buffer-reuse semantics, bit-identity of
the fused and compiled backends against the reference backend at the kernel
and encoder level, the no-aliasing-corruption guarantee across consecutive
plan-reusing forwards, and the steady-state allocation budget (via
``tracemalloc``).  The compiled C backend (PR 7) joins every bit-identity
suite when its extension is built (``COMPILED_AVAILABLE``); on hosts without
it the registry fallback itself is tested instead (``"compiled"`` must
resolve to ``"fused"`` with a ``RuntimeWarning``, never an ImportError).
"""

from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.kernels import (
    COMPILED_AVAILABLE,
    KERNEL_BACKENDS,
    ExecutionOptions,
    ExecutionPlan,
    compiled_backend,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.kernels.fused_ops import QUANT_SCRATCH_BYTES, _quantize_into, project_into
from repro.kernels import backends as kernel_backends
from repro.kernels.backends import _rank_major_order, _rank_major_sum, segment_sum_into
from repro.kernels.plan import take_into
from repro.quant.qmodules import QuantizedLinear
from repro.quant.quantizer import QuantSpec, fake_quantize
from repro.nn.encoder import DeformableEncoder
from repro.nn.modules import Linear
from repro.nn.grid_sample import (
    ms_deform_attn_from_compact_trace,
    multi_scale_neighbors_sparse,
)
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.utils.shapes import LevelShape, make_level_shapes

SPARSE_FUSED = ExecutionOptions(sparse_mode="sparse", kernel_backend="fused")
SPARSE_REFERENCE = ExecutionOptions(sparse_mode="sparse", kernel_backend="reference")

SHAPES = [LevelShape(8, 12), LevelShape(4, 6), LevelShape(2, 3)]
N_IN = sum(s.num_pixels for s in SHAPES)
N_Q, N_H, N_L, N_P, D_H = 29, 4, 3, 2, 8

#: Backends held to bit-identity against "reference" — the compiled backend
#: joins only where its extension is actually built.
FAST_BACKENDS = ("fused",) + (("compiled",) if COMPILED_AVAILABLE else ())


def _kernel_inputs(seed=0):
    rng = np.random.default_rng(seed)
    value = rng.standard_normal((N_IN, N_H, D_H)).astype(np.float32)
    locs = rng.uniform(-0.15, 1.15, (N_Q, N_H, N_L, N_P, 2)).astype(np.float32)
    attn = rng.uniform(0.0, 1.0, (N_Q, N_H, N_L, N_P)).astype(np.float32)
    mask = rng.uniform(0.0, 1.0, attn.shape) < 0.35
    return value, locs, attn, mask


def _encoder_fixture(num_layers=3, seed=0):
    shapes = make_level_shapes(24, 32, (4, 8, 16))
    encoder = DeformableEncoder(
        num_layers=num_layers,
        d_model=64,
        num_heads=4,
        num_levels=len(shapes),
        num_points=2,
        ffn_dim=128,
        rng=seed,
    )
    n_in = sum(s.num_pixels for s in shapes)
    rng = np.random.default_rng(seed + 1)
    features = rng.standard_normal((n_in, 64)).astype(np.float32)
    pos = sine_positional_encoding(shapes, 64)
    reference_points = make_reference_points(shapes)
    return shapes, encoder, features, pos, reference_points


class TestRegistry:
    def test_known_backends(self):
        assert KERNEL_BACKENDS == ("reference", "fused", "compiled")
        for name in ("reference", "fused"):
            assert resolve_backend(name).name == name
        if COMPILED_AVAILABLE:
            assert resolve_backend("compiled").name == "compiled"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="kernel backend"):
            set_backend("turbo")
        with pytest.raises(ValueError, match="kernel backend"):
            resolve_backend("turbo")

    def test_resolve_none_follows_process_default(self):
        with use_backend("reference"):
            assert resolve_backend(None).name == "reference"
        with use_backend("fused"):
            assert resolve_backend(None).name == "fused"

    def test_use_backend_restores_previous(self):
        before = get_backend().name
        with use_backend("reference"):
            assert get_backend().name == "reference"
        assert get_backend().name == before

    def test_backend_object_passes_through(self):
        backend = resolve_backend("fused")
        assert resolve_backend(backend) is backend


class TestExecutionPlan:
    def test_buffer_reuse_and_growth(self):
        plan = ExecutionPlan()
        a = plan.buffer("x", (16, 4), np.float32)
        b = plan.buffer("x", (8, 4), np.float32)  # smaller: reuses capacity
        assert b.base is a.base or b.base is a  # same storage
        assert plan.grows == 1 and plan.hits == 1
        c = plan.buffer("x", (64, 4), np.float32)  # larger: reallocates
        assert plan.grows == 2
        assert c.shape == (64, 4)

    def test_distinct_names_and_dtypes_get_distinct_storage(self):
        plan = ExecutionPlan()
        a = plan.buffer("x", (8,), np.float32)
        b = plan.buffer("y", (8,), np.float32)
        d = plan.buffer("x", (8,), np.float64)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, d)

    def test_allocated_bytes_count_each_buffer_once(self):
        plan = ExecutionPlan()
        assert plan.allocated_bytes == 0
        plan.buffer("x", (16,), np.float32)
        plan.buffer("y", (4, 2), np.float64)
        plan.buffer("x", (8,), np.float32)  # reuse: no new buffer
        assert plan.allocated_bytes == 16 * 4 + 8 * 8

    def test_zeros_and_take(self):
        plan = ExecutionPlan()
        z = plan.zeros("z", (5, 3))
        assert not z.any()
        src = np.arange(20.0, dtype=np.float32).reshape(10, 2)
        got = plan.take("t", src, np.array([1, 3, 5]))
        np.testing.assert_array_equal(got, src[[1, 3, 5]])

    @pytest.mark.parametrize("indices", [[0, 10], [3, -1], [-11], [[2, 4], [12, 0]]])
    def test_take_rejects_out_of_range_and_negative_indices(self, indices):
        src = np.arange(20.0, dtype=np.float32).reshape(10, 2)
        indices = np.array(indices)
        with pytest.raises(IndexError):
            ExecutionPlan().take("t", src, indices)
        with pytest.raises(IndexError):
            take_into(src, indices, np.empty(indices.shape + (2,), np.float32))

    def test_take_into_gathers_without_a_hidden_copy(self):
        """NumPy's default ``mode="raise"`` gathers into a full-size
        temporary before copying into ``out``; the bounds-checked gather
        writes ``out`` directly."""
        rng = np.random.default_rng(0)
        src = rng.standard_normal((4096, 32)).astype(np.float32)
        indices = rng.integers(0, src.shape[0], (8192, 4))
        out = np.empty(indices.shape + (32,), np.float32)
        tracemalloc.start()
        take_into(src, indices, out)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < out.nbytes // 8, peak
        np.testing.assert_array_equal(out, src[indices])


class TestFusedBitIdentity:
    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_compact_kernel_backends_bit_identical(self, backend):
        value, locs, attn, mask = _kernel_inputs()
        trace = multi_scale_neighbors_sparse(SHAPES, locs, point_mask=mask)
        value, attn = value[None], attn[None]  # a compact trace carries B
        ref = ms_deform_attn_from_compact_trace(value, trace, attn, backend="reference")
        fast = ms_deform_attn_from_compact_trace(value, trace, attn, backend=backend)
        assert np.array_equal(ref, fast)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_planless_calls_get_fresh_outputs(self, backend):
        """Without a caller plan every call runs on a fresh arena: the
        result of one call survives the next untouched."""
        value, locs, attn, mask = _kernel_inputs()
        trace = multi_scale_neighbors_sparse(SHAPES, locs, point_mask=mask)
        first = ms_deform_attn_from_compact_trace(value[None], trace, attn[None], backend=backend)
        snapshot = first.copy()
        second = ms_deform_attn_from_compact_trace(
            2.0 * value[None], trace, attn[None], backend=backend
        )
        assert not np.shares_memory(first, second)
        np.testing.assert_array_equal(first, snapshot)

    def test_fused_trace_construction_bit_identical(self):
        _, locs, _, mask = _kernel_inputs(seed=3)
        ref = multi_scale_neighbors_sparse(SHAPES, locs, point_mask=mask)
        fused = multi_scale_neighbors_sparse(
            SHAPES, locs, point_mask=mask, plan=ExecutionPlan()
        )
        for field in ("kept", "levels", "flat_indices", "weights", "valid"):
            assert np.array_equal(getattr(ref, field), getattr(fused, field)), field

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("sparse_mode", ["dense", "sparse", "auto"])
    def test_encoder_backends_bit_identical(self, sparse_mode, backend):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        ref_runner = DEFAEncoderRunner(
            encoder,
            config,
            ExecutionOptions(sparse_mode=sparse_mode, kernel_backend="reference"),
        )
        fast_runner = DEFAEncoderRunner(
            encoder, config, ExecutionOptions(sparse_mode=sparse_mode, kernel_backend=backend)
        )
        ref = ref_runner.forward(features, pos, reference_points, shapes)
        fast = fast_runner.forward(features, pos, reference_points, shapes)
        assert np.array_equal(ref.memory, fast.memory)
        for a, b in zip(ref.fmap_masks, fast.fmap_masks):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_batched_encoder_backends_bit_identical(self, backend):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        batch = np.stack([features, features * 0.5, features + 0.1])
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        ref = DEFAEncoderRunner(encoder, config, SPARSE_REFERENCE)
        fast = DEFAEncoderRunner(
            encoder, config, ExecutionOptions(sparse_mode="sparse", kernel_backend=backend)
        )
        a = ref.forward(batch, pos, reference_points, shapes)
        b = fast.forward(batch, pos, reference_points, shapes)
        assert np.array_equal(a.memory, b.memory)


class TestPlanReuseAcrossForwards:
    def test_no_aliasing_corruption_across_forwards_with_different_masks(self):
        """Results of forward i must survive forward i+1 untouched.

        Two forwards with different inputs produce different FWP masks and
        keep counts, so every arena buffer is rewritten at a different
        occupancy — any result aliasing a plan buffer would be corrupted.
        """
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runner = DEFAEncoderRunner(encoder, config, SPARSE_FUSED)
        first = runner.forward(features, pos, reference_points, shapes)
        memory_snapshot = first.memory.copy()
        mask_snapshots = [m.copy() for m in first.fmap_masks]
        stats_snapshot = [(s.pixels_kept, s.points_kept) for s in first.layer_stats]

        rng = np.random.default_rng(99)
        other = rng.standard_normal(features.shape).astype(np.float32) * 2.0
        second = runner.forward(other, pos, reference_points, shapes)

        np.testing.assert_array_equal(first.memory, memory_snapshot)
        for kept, snap in zip(first.fmap_masks, mask_snapshots):
            np.testing.assert_array_equal(kept, snap)
        assert [(s.pixels_kept, s.points_kept) for s in first.layer_stats] == stats_snapshot
        # and the second result is the same as a fresh runner would produce
        fresh = DEFAEncoderRunner(encoder, config, SPARSE_FUSED)
        again = fresh.forward(other, pos, reference_points, shapes)
        np.testing.assert_array_equal(second.memory, again.memory)

    def test_plans_keyed_by_shape_signature_and_batch(self):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runner = DEFAEncoderRunner(encoder, config, SPARSE_FUSED)
        runner.forward(features, pos, reference_points, shapes)
        runner.forward(
            np.stack([features, features]), pos, reference_points, shapes
        )
        keys = set(runner._plans)
        assert len(keys) == 2  # (signature, 1) and (signature, 2)
        batch_sizes = {key[1] for key in keys}
        assert batch_sizes == {1, 2}

    def test_single_image_and_b1_batch_share_one_arena(self):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runner = DEFAEncoderRunner(encoder, config, SPARSE_FUSED)
        runner.forward(features, pos, reference_points, shapes)
        grows = runner.plan_stats()["grows"]
        runner.forward(features[None], pos, reference_points, shapes)
        assert list(runner._plans) == [(tuple(s.as_tuple() for s in shapes), 1)]
        assert runner.plan_stats()["grows"] == grows  # warm: nothing reallocated

    def test_plan_cache_is_lru_bounded(self):
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runner = DEFAEncoderRunner(encoder, config, SPARSE_FUSED)
        first_key = (tuple(s.as_tuple() for s in shapes), 1)
        runner.forward(features, pos, reference_points, shapes)
        # Synthetic distinct signatures fill the cache past the bound; the
        # real signature is refreshed (LRU) halfway, so it must survive.
        for i in range(runner.MAX_EXECUTION_PLANS - 1):
            runner.execution_plan(shapes, batch_size=100 + i)
            if i == runner.MAX_EXECUTION_PLANS // 2:
                runner.execution_plan(shapes, batch_size=1)  # refresh
        assert first_key in runner._plans
        for i in range(runner.MAX_EXECUTION_PLANS + 1):
            runner.execution_plan(shapes, batch_size=200 + i)
        assert len(runner._plans) == runner.MAX_EXECUTION_PLANS
        assert first_key not in runner._plans  # evicted least-recently-used
        # A dropped signature simply re-warms: the forward still works.
        result = runner.forward(features, pos, reference_points, shapes)
        assert result.memory.shape == features.shape

    def test_collect_details_disables_the_plan(self):
        """Detailed outputs are handed to the caller, so they must not live
        in arena buffers; the runner falls back to fresh allocation."""
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        runner = DEFAEncoderRunner(encoder, config, SPARSE_FUSED)
        detailed = runner.forward(
            features, pos, reference_points, shapes, collect_details=True
        )
        kept_output = detailed.layer_outputs[1].output.copy()
        kept_weights = detailed.layer_outputs[1].attention_weights.copy()
        runner.forward(features * 1.5, pos, reference_points, shapes)
        np.testing.assert_array_equal(detailed.layer_outputs[1].output, kept_output)
        np.testing.assert_array_equal(
            detailed.layer_outputs[1].attention_weights, kept_weights
        )

    @pytest.mark.parametrize("batch", [None, 2])
    @pytest.mark.parametrize("sparse_mode", ["dense", "sparse"])
    def test_collecting_details_leaves_the_memory_bit_equal(self, sparse_mode, batch):
        """A forward that collects its traces runs without the plan arena
        and still computes the planned forward's memory bit for bit."""
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        if batch is not None:
            features = np.stack([features * (1.0 + 0.5 * b) for b in range(batch)])
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
        options = ExecutionOptions(sparse_mode=sparse_mode, kernel_backend="fused")
        runner = DEFAEncoderRunner(encoder, config, options)
        planned = runner.forward(features, pos, reference_points, shapes)
        detailed = runner.forward(
            features, pos, reference_points, shapes, collect_details=True
        )
        np.testing.assert_array_equal(detailed.memory, planned.memory)


class TestAllocationBudget:
    def test_steady_state_fused_forward_allocates_far_less_than_reference(self):
        """The tracemalloc smoke check of the zero-allocation plans.

        After one warm forward per signature the arena is at its high-water
        mark, so a steady-state fused forward's peak *traced* allocation
        (tracemalloc only sees allocations made after ``start()``) must stay
        under a fixed budget — a small multiple of the input size — while
        the reference backend allocates every intermediate freshly.
        """
        shapes, encoder, features, pos, reference_points = _encoder_fixture()
        config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)

        def peak_bytes(runner):
            runner.forward(features, pos, reference_points, shapes)  # warm
            tracemalloc.start()
            runner.forward(features, pos, reference_points, shapes)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return peak

        fused_peak = peak_bytes(
            DEFAEncoderRunner(encoder, config, SPARSE_FUSED)
        )
        reference_peak = peak_bytes(
            DEFAEncoderRunner(encoder, config, SPARSE_REFERENCE)
        )
        # Fixed budget: with the PAP/fold records in arena buffers (PR 9) the
        # only escaping arrays are the final memory copy and the per-block FWP
        # masks, plus transient NumPy reductions (argmax, flatnonzero); the
        # budget tightened from 24x to 12x the input when the last per-block
        # PAP/fold allocations moved into the plan, and from 12x to 5x (3.8x
        # measured, 10.4x before) when the gathers stopped making NumPy's
        # hidden full-size copy and the float64 quantize scratch shrank to
        # one row block.
        input_bytes = features.nbytes
        assert fused_peak < 5 * input_bytes, (
            f"steady-state fused forward peaked at {fused_peak} traced bytes "
            f"(budget {5 * input_bytes})"
        )
        assert fused_peak < reference_peak / 2, (
            f"fused peak {fused_peak} not well below reference peak {reference_peak}"
        )


def _working_set_fixture(quant_bits):
    """One image large enough that every blocked loop runs several blocks:
    4,032 tokens at ``D = 128`` span four quantize row blocks and four FFN
    row blocks; the second block runs the compact (query-pruned) stages."""
    shapes = [LevelShape(48, 64), LevelShape(24, 32), LevelShape(12, 16)]
    encoder = DeformableEncoder(
        num_layers=2, d_model=128, num_heads=4, num_levels=3, num_points=2, ffn_dim=256, rng=0
    )
    n_in = sum(s.num_pixels for s in shapes)
    features = np.random.default_rng(1).standard_normal((n_in, 128)).astype(np.float32)
    pos = sine_positional_encoding(shapes, 128)
    reference_points = make_reference_points(shapes)
    config = DEFAConfig(fwp_k=1.0, quant_bits=quant_bits, enable_query_pruning=True)
    return shapes, encoder, config, features, pos, reference_points


class TestArenaWorkingSet:
    """The arena holds the data live at one time, not one copy of every
    temporary per call site."""

    ARENA_BUDGET_BYTES = 52_000_000
    """Measured 49.2 MB (INT12) and 47.1 MB (fp32) on the working-set
    fixture with chunk-sized MSGS buffers (49.7 / 47.6 MB while the gather
    indices were one whole-trace buffer); the per-call-site arena it
    replaced held 90.9 / 60.2 MB."""

    SPEC = QuantSpec(num_bits=12)

    @pytest.mark.parametrize("layout", ["scalar", "per_image", "per_row"])
    def test_blocked_quantize_matches_one_shot_chain(self, layout):
        width = 64
        step = QUANT_SCRATCH_BYTES // (8 * width)
        rng = np.random.default_rng(7)
        if layout == "per_image":  # block boundaries fall inside images
            x = rng.standard_normal((3, step + 5, width)).astype(np.float32) * 4.0
            max_abs = np.max(np.abs(x), axis=(1, 2), keepdims=True)
        else:
            x = rng.standard_normal((2 * step + 17, width)).astype(np.float32) * 4.0
            if layout == "scalar":
                max_abs = float(np.max(np.abs(x)))
            else:
                max_abs = np.max(np.abs(x), axis=1, keepdims=True)
        expected = fake_quantize(x, self.SPEC, max_abs=max_abs)
        plan = ExecutionPlan()
        got = _quantize_into(self.SPEC, x, max_abs, plan)
        # Bitwise once zeros are signless: fake_quantize's int32 round trip
        # turns -0.0 into +0.0, the in-place chain keeps -0.0.
        assert np.array_equal(expected.view(np.uint32), (got + 0.0).view(np.uint32))
        assert plan.allocated_bytes - got.nbytes <= QUANT_SCRATCH_BYTES  # one block

    @pytest.mark.parametrize("num_bits", [8, 12])
    @pytest.mark.parametrize("compact", [False, True])
    def test_heads_sharing_one_input_match_module_methods(self, compact, num_bits):
        """Two heads reading one query share a gather and a quantization,
        and each equals its own module method bit for bit, at the paper's
        INT12 and at the INT8 of its ablation."""
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 700, 48)).astype(np.float32) * 3.0
        heads = [
            QuantizedLinear(Linear(48, n, rng=i), num_bits) for i, n in enumerate((24, 40))
        ]
        rows = np.flatnonzero(rng.uniform(size=1400) < 0.6) if compact else None
        plan = ExecutionPlan()
        got = project_into(heads, x, plan, ("a", "b"), rows=rows)
        for head, out in zip(heads, got):
            if compact:
                expected = head.forward_rows_batched(x, rows)
            else:
                expected = head.forward_batched(x)
            assert np.array_equal(expected.view(np.uint32), out.view(np.uint32))

    @pytest.mark.parametrize("quant_bits", [12, None])
    def test_arena_fence_and_fused_matches_reference(self, quant_bits):
        shapes, encoder, config, features, pos, reference_points = _working_set_fixture(
            quant_bits
        )
        fused = DEFAEncoderRunner(encoder, config, ExecutionOptions(kernel_backend="fused"))
        fused.forward(features, pos, reference_points, shapes)  # warm
        grows = fused.plan_stats()["grows"]
        got = fused.forward(features, pos, reference_points, shapes)
        stats = fused.plan_stats()
        assert stats["grows"] == grows
        assert stats["bytes"] < self.ARENA_BUDGET_BYTES, stats["bytes"]
        assert [s.sparse_query for s in got.layer_stats] == [False, True]
        assert [s.sparse_ffn for s in got.layer_stats] == [False, True]

        reference = DEFAEncoderRunner(
            encoder, config, ExecutionOptions(kernel_backend="reference")
        ).forward(features, pos, reference_points, shapes)
        assert float(np.max(np.abs(got.memory - reference.memory))) == 0.0
        for a, b in zip(got.fmap_masks, reference.fmap_masks):
            assert np.array_equal(a, b)


class TestCompiledFallback:
    """The no-toolchain path: ``"compiled"`` must resolve to ``"fused"`` with
    a ``RuntimeWarning`` at every selection layer — never an ImportError —
    so configs and environment variables naming it stay valid everywhere."""

    def test_resolve_falls_back_to_fused_with_warning(self, monkeypatch):
        monkeypatch.setattr(compiled_backend, "COMPILED_AVAILABLE", False)
        with pytest.warns(RuntimeWarning, match="falling back to 'fused'"):
            backend = resolve_backend("compiled")
        assert backend.name == "fused"

    def test_set_backend_falls_back(self, monkeypatch):
        from repro.kernels import registry

        monkeypatch.setattr(compiled_backend, "COMPILED_AVAILABLE", False)
        before = registry.get_backend()
        try:
            with pytest.warns(RuntimeWarning, match="not available"):
                assert set_backend("compiled").name == "fused"
            assert get_backend().name == "fused"
        finally:
            registry._current = before

    def test_runner_with_compiled_options_serves_via_fused(self, monkeypatch):
        monkeypatch.setattr(compiled_backend, "COMPILED_AVAILABLE", False)
        shapes, encoder, features, pos, reference_points = _encoder_fixture(
            num_layers=1
        )
        options = ExecutionOptions(sparse_mode="sparse", kernel_backend="compiled")
        runner = DEFAEncoderRunner(encoder, DEFAConfig(), options)  # name stays valid
        with pytest.warns(RuntimeWarning, match="falling back to 'fused'"):
            assert runner.resolved_backend().name == "fused"
            assert runner.plan_stats()["backend"] == "fused"
            result = runner.forward(features, pos, reference_points, shapes)
        assert result.memory.shape == features.shape

    def test_runner_resolves_its_backend_once_per_forward(self, monkeypatch):
        """The blocks and both inter-block stage plans share the backend the
        forward resolved, so a missing extension warns once per forward."""
        monkeypatch.setattr(compiled_backend, "COMPILED_AVAILABLE", False)
        shapes, encoder, features, pos, reference_points = _encoder_fixture(
            num_layers=3
        )
        runner = DEFAEncoderRunner(
            encoder,
            DEFAConfig(fwp_k=1.0, enable_query_pruning=True),
            ExecutionOptions(sparse_mode="sparse", kernel_backend="compiled"),
        )
        for _ in range(2):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = runner.forward(features, pos, reference_points, shapes)
            fallbacks = [w for w in caught if issubclass(w.category, RuntimeWarning)]
            assert len(fallbacks) == 1, [str(w.message) for w in fallbacks]
            assert "falling back to 'fused'" in str(fallbacks[0].message)
        # The stage plans ran on masked blocks, i.e. were really consulted.
        assert [s.sparse_ffn for s in result.layer_stats] == [False, True, True]

    @pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled library not built")
    def test_plan_stats_report_the_compiled_backend_when_available(self):
        shapes, encoder, features, pos, reference_points = _encoder_fixture(
            num_layers=1
        )
        runner = DEFAEncoderRunner(
            encoder, DEFAConfig(), ExecutionOptions(sparse_mode="sparse", kernel_backend="compiled")
        )
        assert runner.plan_stats()["backend"] == "compiled"
        runner.forward(features, pos, reference_points, shapes)
        stats = runner.plan_stats()
        assert stats["backend"] == "compiled" and stats["plans"] >= 1


@pytest.mark.skipif(not COMPILED_AVAILABLE, reason="compiled library not built")
class TestCompiledFakeQuantize:
    """Unit coverage of the C fake-quantize dispatch in the projection
    helpers: every supported scale layout is bit-identical to the allocating
    numpy chain; unsupported layouts return ``None`` (numpy fallback)."""

    SPEC = QuantSpec(num_bits=12)

    def _compiled_chain(self, x, max_abs):
        backend = resolve_backend("compiled")
        out = np.empty_like(x)
        return backend.fake_quantize_into(x, self.SPEC, max_abs, out)

    @pytest.mark.parametrize(
        "shape,axis",
        [
            ((13, 7), None),  # scalar full-array scale
            ((3, 11, 5), (1, 2)),  # per-image (B, 1, 1) keepdims scale
            ((17, 6), (1,)),  # per-row (rows, 1) scale
        ],
    )
    def test_supported_layouts_bit_identical(self, shape, axis):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(shape).astype(np.float32) * 3.0
        if axis is None:
            max_abs = float(np.max(np.abs(x)))
        else:
            max_abs = np.max(np.abs(x), axis=axis, keepdims=True)
        expected = fake_quantize(x, self.SPEC, max_abs=max_abs)
        got = self._compiled_chain(x, max_abs)
        assert got is not None
        # Bitwise once zeros are signless (fake_quantize's int32 round trip
        # turns -0.0 into +0.0).
        assert np.array_equal(expected.view(np.uint32), (got + 0.0).view(np.uint32))

    def test_unsupported_layouts_decline(self):
        rng = np.random.default_rng(6)
        backend = resolve_backend("compiled")
        # Middle-axis broadcast (per-channel-like) scale: not row-wise.
        x = rng.standard_normal((3, 4, 6)).astype(np.float32)
        max_abs = np.max(np.abs(x), axis=1, keepdims=True)  # (3, 1, 6)
        assert backend.fake_quantize_into(x, self.SPEC, max_abs, np.empty_like(x)) is None
        # Non-contiguous input.
        base = rng.standard_normal((8, 10)).astype(np.float32)
        strided = base[:, ::2]
        out = np.empty(strided.shape, dtype=np.float32)
        assert backend.fake_quantize_into(strided, self.SPEC, 1.0, out) is None
        # Wrong dtype.
        x64 = rng.standard_normal((4, 4))
        assert (
            backend.fake_quantize_into(x64, self.SPEC, 1.0, np.empty((4, 4), np.float32))
            is None
        )


class TestSegmentSum:
    def test_matches_add_at_with_empty_segments(self):
        rng = np.random.default_rng(0)
        seg = np.array([1, 1, 3, 3, 3, 6])  # segments 2, 4 and 5 are empty
        contrib = rng.standard_normal((6, 3))
        out = rng.standard_normal((8, 3))
        expected = out.copy()
        np.add.at(expected, seg, contrib)
        segment_sum_into(out, contrib, seg)
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-12)

    def test_empty_contribution_leaves_output_untouched(self):
        out = np.ones((4, 2))
        segment_sum_into(out, np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
        assert np.array_equal(out, np.ones((4, 2)))


def _run_length_case(batch, n_l, n_p, d_h, seed=0):
    """A compact-trace kernel case whose segment runs take every length.

    Segment ``i`` keeps a random ``i % (n_l * n_p + 1)`` of its points
    (0 = empty), so every run length from 1 to ``n_l * n_p`` occurs,
    including fully kept segments.  A quarter of the value entries are
    ``+0.0`` or ``-0.0`` and a tenth of the attention weights are zero, so
    signed-zero contributions run through the sums.
    """
    rng = np.random.default_rng(seed)
    shapes = [LevelShape(6, 8), LevelShape(3, 4), LevelShape(2, 2), LevelShape(1, 1)][:n_l]
    n_in = sum(s.num_pixels for s in shapes)
    n_q, n_h = 23, 3
    per_seg = n_l * n_p
    value = rng.standard_normal((batch, n_in, n_h, d_h)).astype(np.float32)
    zero = rng.uniform(size=value.shape) < 0.25
    value[zero] = np.where(rng.uniform(size=zero.sum()) < 0.5, -0.0, 0.0)
    locs = rng.uniform(-0.1, 1.1, (batch, n_q, n_h, n_l, n_p, 2)).astype(np.float32)
    attn = rng.uniform(0.0, 1.0, (batch, n_q, n_h, n_l, n_p)).astype(np.float32)
    attn[rng.uniform(size=attn.shape) < 0.1] = 0.0
    mask = np.zeros((batch * n_q * n_h, per_seg), dtype=bool)
    for i in range(mask.shape[0]):
        mask[i, rng.permutation(per_seg)[: i % (per_seg + 1)]] = True
    trace = multi_scale_neighbors_sparse(shapes, locs, point_mask=mask.reshape(attn.shape))
    return value, trace, attn


def _sequential_rest_segment_sum(out, contrib, seg):
    """``segment_sum_into`` with the pairwise tree replaced by a plain
    left-to-right sum: ``first + (((0 + a1) + a2) + ...)`` per segment."""
    for s in np.unique(seg):
        rows = contrib[seg == s]
        rest = np.zeros_like(rows[0])
        for row in rows[1:]:
            rest += row
        out[s] += rows[0] + rest


class TestRankMajorSegmentSum:
    """The fused backend sums each segment's rows rank-major with slice adds
    and must reproduce the reference backend's ``reduceat`` bit for bit."""

    @staticmethod
    def _assert_bitwise(backend, value, trace, attn):
        ref = ms_deform_attn_from_compact_trace(value, trace, attn, backend="reference")
        got = ms_deform_attn_from_compact_trace(value, trace, attn, backend=backend)
        assert np.array_equal(ref.view(np.uint32), got.view(np.uint32))
        return ref

    def test_rank_major_sum_matches_reduceat(self):
        rng = np.random.default_rng(5)
        lengths = rng.permutation(np.repeat(np.arange(1, 17), 5))
        seg = np.repeat(np.arange(lengths.size) * 2, lengths)  # odd ids stay empty
        contrib = rng.standard_normal((seg.size, 6)).astype(np.float32)
        contrib[rng.uniform(size=contrib.shape) < 0.3] = -0.0
        expected = np.add.reduceat(contrib, np.flatnonzero(np.diff(seg, prepend=-1)), axis=0)
        perm = np.empty(seg.size, dtype=np.int64)
        run_seg, counts = _rank_major_order(seg, perm)
        assert counts == [int((lengths > r).sum()) for r in range(16)]
        permuted = contrib[perm]
        _rank_major_sum(permuted, counts)
        got = permuted[: run_seg.size][np.argsort(run_seg)]
        # Bitwise once zeros are signless: reduceat's pairwise sum starts from
        # -0.0 (0.0 in some older NumPy releases), which the rank-major form skips.
        assert np.array_equal((expected + 0.0).view(np.uint32), (got + 0.0).view(np.uint32))

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    @pytest.mark.parametrize("batch", [1, 2])
    def test_run_lengths_1_to_16(self, backend, batch, monkeypatch):
        value, trace, attn = _run_length_case(batch, n_l=4, n_p=4, d_h=8)
        lengths = np.bincount(trace.segments())
        assert set(range(1, 17)) <= set(lengths.tolist())
        ref = self._assert_bitwise(backend, value, trace, attn)
        # The data tells reduceat's 8-accumulator tree apart from a plain
        # sequential sum of the rest rows, so a kernel without it fails.
        monkeypatch.setattr(kernel_backends, "segment_sum_into", _sequential_rest_segment_sum)
        seq = ms_deform_attn_from_compact_trace(value, trace, attn, backend="reference")
        assert not np.array_equal(ref, seq)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_segment_split_by_a_chunk_boundary(self, backend):
        d_h = 1024
        chunk = kernel_backends._SPARSE_CONTRIB_BUDGET_BYTES // (16 * d_h)
        value, trace, attn = _run_length_case(2, n_l=4, n_p=4, d_h=d_h, seed=1)
        seg = trace.segments()
        assert trace.num_kept > chunk and seg[chunk - 1] == seg[chunk]
        self._assert_bitwise(backend, value, trace, attn)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_segments_longer_than_the_rank_major_form(self, backend):
        value, trace, attn = _run_length_case(2, n_l=3, n_p=6, d_h=8, seed=2)
        assert trace.num_levels * trace.num_points > kernel_backends._RANK_MAJOR_MAX_RUN
        assert np.bincount(trace.segments()).max() == 18
        self._assert_bitwise(backend, value, trace, attn)

    @pytest.mark.parametrize("backend", FAST_BACKENDS)
    def test_no_kept_points(self, backend):
        value, trace, attn = _run_length_case(2, n_l=4, n_p=4, d_h=8)
        empty = multi_scale_neighbors_sparse(
            trace.spatial_shapes,
            np.zeros(attn.shape + (2,), np.float32),
            point_mask=np.zeros(attn.shape, dtype=bool),
        )
        assert empty.num_kept == 0
        out = self._assert_bitwise(backend, value, empty, attn)
        assert not out.any()
