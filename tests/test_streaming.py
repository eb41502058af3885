"""Tests for streaming video sessions: temporal reuse, serving integration.

The session tests drive :class:`StreamingEncoderSession` directly on tiny
synthetic videos and assert the frame-kind state machine (cold / warm /
reused), the cross-frame frozen-row patching, the exact static fast path, the
cold-resync triggers and the warm-arena accounting.  The serving tests gate
the stream-affine ``video`` request class bit-equal to the serial per-session
loop at 0 and 1 workers (warm state follows one process in kill-free runs,
the regime where the bit-equality gate is defined).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.engine import (
    ModelBankSpec,
    ServingConfig,
    ServingEngine,
    StreamingConfig,
    StreamingEncoderSession,
    TrafficEvent,
    WorkItem,
    generate_traffic,
    replay_traffic,
    serial_reference_outputs,
)
from repro.eval.profiler import measure_streaming_blockwise_equivalence
from repro.kernels import COMPILED_AVAILABLE, ExecutionOptions
from repro.nn.encoder import DeformableEncoder
from repro.utils.shapes import LevelShape
from repro.workloads.specs import get_workload
from repro.workloads.video import SyntheticVideoStream, VideoStreamSpec

SHAPES = (LevelShape(8, 12), LevelShape(4, 6))
D_MODEL = 32


def _encoder(num_layers: int = 2) -> DeformableEncoder:
    return DeformableEncoder(
        num_layers=num_layers,
        d_model=D_MODEL,
        num_heads=4,
        num_levels=len(SHAPES),
        num_points=2,
        ffn_dim=64,
        rng=0,
    )


def _session(**streaming_kwargs) -> StreamingEncoderSession:
    return StreamingEncoderSession(
        _encoder(),
        DEFAConfig(fwp_k=1.0),
        SHAPES,
        StreamingConfig(**streaming_kwargs),
    )


def _stream(**spec_kwargs) -> SyntheticVideoStream:
    spec_kwargs.setdefault("motion", 0.01)
    return SyntheticVideoStream(SHAPES, D_MODEL, VideoStreamSpec(**spec_kwargs))


class TestVideoWorkload:
    def test_frames_are_deterministic_and_pure(self):
        a = _stream(seed=3)
        b = _stream(seed=3)
        np.testing.assert_array_equal(a.frame(4), b.frame(4))
        # Pure in the index: out-of-order re-rendering is bit-identical.
        frame2 = a.frame(2).copy()
        a.frame(5)
        np.testing.assert_array_equal(a.frame(2), frame2)

    def test_slow_motion_quantizes_to_identical_frames(self):
        # Tiny motion on a coarse grid: most consecutive frames move no
        # object across a cell boundary, so they are bit-identical.
        stream = _stream(motion=1e-4, num_frames=6)
        identical = sum(
            np.array_equal(stream.frame(i), stream.frame(i + 1)) for i in range(5)
        )
        assert identical >= 3

    def test_objects_stay_in_bounds(self):
        # Reflection keeps long streams covered: frame 500 still renders.
        stream = _stream(motion=0.05)
        frame = stream.frame(500)
        assert frame.shape == (stream.num_tokens, D_MODEL)


class TestSessionStateMachine:
    def test_first_frame_is_cold(self):
        session = _session()
        result = session.process(_stream().frame(0))
        assert result.kind == "cold"
        assert result.computed_rows == result.total_rows
        assert result.pixels_kept == 1.0

    def test_identical_frame_is_reused_exactly(self):
        session = _session()
        frame = _stream().frame(0)
        first = session.process(frame)
        second = session.process(frame.copy())
        assert second.kind == "reused"
        assert second.computed_rows == 0
        np.testing.assert_array_equal(first.memory, second.memory)

    def test_small_change_runs_warm_with_frozen_rows(self):
        # The default range-derived radii cover this tiny grid entirely;
        # pin a small dilation so the frozen-row machinery is observable.
        session = _session(dilation=1)
        stream = _stream(seed=2)
        cold = session.process(stream.frame(0), 0)
        warm = session.process(stream.frame(1), 1)
        assert warm.kind == "warm"
        assert 0 < warm.computed_rows < warm.total_rows
        # Rows outside the dilated dirty set are patched from the previous
        # frame's memory — bit-equal, the cross-frame frozen-row convention.
        identical = ~np.any(warm.memory != cold.memory, axis=1)
        assert identical.sum() >= warm.total_rows - warm.computed_rows
        assert warm.total_rows - warm.computed_rows > 0

    def test_keyframe_interval_forces_cold(self):
        session = _session(keyframe_interval=2)
        frame = _stream().frame(0)
        kinds = [session.process(frame.copy(), i).kind for i in range(5)]
        assert kinds == ["cold", "reused", "cold", "reused", "cold"]

    def test_frame_index_discontinuity_forces_cold(self):
        session = _session()
        stream = _stream()
        session.process(stream.frame(0), 0)
        assert session.process(stream.frame(1), 1).kind != "cold"
        # A gap (dropped frames, serving restart) resynchronizes cold.
        assert session.process(stream.frame(5), 5).kind == "cold"
        # Replaying an old index is also a discontinuity.
        assert session.process(stream.frame(2), 2).kind == "cold"

    def test_reset_forces_cold(self):
        session = _session()
        frame = _stream().frame(0)
        session.process(frame, 0)
        session.reset()
        assert session.process(frame, 1).kind == "cold"

    def test_unbounded_ranges_recompute_all_rows(self):
        session = StreamingEncoderSession(
            _encoder(),
            DEFAConfig(fwp_k=1.0, enable_range_narrowing=False),
            SHAPES,
            StreamingConfig(),
        )
        stream = _stream(seed=2)
        session.process(stream.frame(0), 0)
        warm = session.process(stream.frame(1), 1)
        # Without bounded ranges there is no locality: a dirty frame
        # recomputes every row (the static fast path still exists).
        assert warm.kind == "warm"
        assert warm.computed_rows == warm.total_rows

    def test_wrong_shape_rejected(self):
        session = _session()
        with pytest.raises(ValueError, match="pyramid"):
            session.process(np.zeros((7, D_MODEL), dtype=np.float32))


PLANNED_BACKENDS = ("fused",) + (("compiled",) if COMPILED_AVAILABLE else ())
"""Kernel backends that run on execution-plan arenas."""


class TestWarmArenas:
    @staticmethod
    def _plan_stats(backend: str) -> tuple[dict, dict]:
        """Plan stats after the first frame and after five frames."""
        session = _session(options=ExecutionOptions(kernel_backend=backend))
        stream = _stream(seed=4)
        session.process(stream.frame(0), 0)
        first = session.plan_stats()
        for i in range(1, 5):
            session.process(stream.frame(i), i)
        return first, session.plan_stats()

    @pytest.mark.parametrize("backend", PLANNED_BACKENDS)
    def test_hits_climb_and_bytes_plateau(self, backend):
        first, final = self._plan_stats(backend)
        assert final["backend"] == backend
        assert final["hits"] > first["hits"]
        assert final["bytes"] == first["bytes"]

    def test_reference_backend_never_touches_plans(self):
        first, final = self._plan_stats("reference")
        assert final["backend"] == "reference"
        for stats in (first, final):
            assert stats["hits"] == 0 and stats["bytes"] == 0

    @pytest.mark.parametrize("backend", PLANNED_BACKENDS)
    def test_class_server_counts_a_shared_arena_once(self, backend):
        """Two streams over one pyramid in one thread share one plan; the
        class server reports that plan once, not once per session."""
        from repro.engine.serving import StreamingClassServer

        server = StreamingClassServer(
            _encoder(),
            DEFAConfig(fwp_k=1.0),
            StreamingConfig(options=ExecutionOptions(kernel_backend=backend)),
        )
        stream = _stream(seed=4)
        for i in range(3):
            frame = stream.frame(i)
            server.forward(np.stack([frame, frame]), SHAPES, [("a", i), ("b", i)])
        runners = [s.runner for s in server.sessions.values()]
        (plan,) = {id(p): p for r in runners for p in r._plans.values()}.values()
        stats = server.plan_stats()
        assert stats["sessions"] == 2 and stats["plans"] == 1
        assert stats["bytes"] == plan.allocated_bytes > 0
        assert stats["hits"] == plan.hits and stats["grows"] == plan.grows
        assert all(s.plan_stats()["bytes"] == plan.allocated_bytes for s in server.sessions.values())


class TestLockstepEquivalence:
    """At ``small``: at ``tiny`` the INT12 drift reads 0.0 too, so an fp32
    probe that ran INT12 would pass."""

    def test_streaming_blockwise_fp32(self):
        drift = measure_streaming_blockwise_equivalence(
            get_workload("deformable_detr", "small"),
            config=DEFAConfig(fwp_k=1.0, quant_bits=None, enable_query_pruning=True),
            num_layers=2,
            num_frames=3,
            rng=0,
        )
        assert drift <= 1e-5

    def test_streaming_blockwise_int12(self):
        drift = measure_streaming_blockwise_equivalence(
            get_workload("deformable_detr", "small"), num_layers=2, num_frames=3, rng=0
        )
        assert drift <= 2e-2


def _video_spec() -> ModelBankSpec:
    return ModelBankSpec(
        num_layers=2,
        d_model=D_MODEL,
        num_heads=4,
        num_levels=len(SHAPES),
        num_points=2,
        ffn_dim=64,
        rng_seed=0,
        streams=(("video", DEFAConfig(fwp_k=1.0), StreamingConfig()),),
    )


def _video_traffic(num_streams: int, num_frames: int, seed: int) -> list[TrafficEvent]:
    """Stream-affine ``video`` requests: every stream's frames in order at
    30 fps, phase-offset per stream so the streams' arrivals interleave."""
    events = []
    for s in range(num_streams):
        stream = SyntheticVideoStream(
            SHAPES, D_MODEL, VideoStreamSpec(num_frames=num_frames, seed=seed + s)
        )
        for i in range(num_frames):
            item = WorkItem(
                item_id=f"stream-{s}/frame-{i:04d}",
                features=stream.frame(i),
                spatial_shapes=SHAPES,
                stream_id=f"stream-{s}",
                frame_index=i,
            )
            events.append(TrafficEvent((i + s / num_streams) / 30.0, item, "video"))
    return sorted(events, key=lambda event: event.arrival_s)


def _video_events():
    uniform = generate_traffic(
        8, d_model=D_MODEL, shape_mix=((SHAPES, 1.0),), seed=6
    )
    return sorted(
        _video_traffic(2, 5, seed=5) + uniform, key=lambda event: event.arrival_s
    )


class TestStreamingServing:
    def test_stream_overlap_with_stateless_class_rejected(self):
        from repro.engine.serving import DEFAULT_REQUEST_CLASS

        with pytest.raises(ValueError, match="both"):
            ModelBankSpec(
                streams=((DEFAULT_REQUEST_CLASS, DEFAConfig(), StreamingConfig()),)
            ).build()

    def test_streaming_class_requires_meta(self):
        bank = _video_spec().build()
        features = np.zeros((1, sum(s.num_pixels for s in SHAPES), D_MODEL))
        with pytest.raises(ValueError, match="stream"):
            bank.forward("video", features, list(SHAPES))

    @pytest.mark.parametrize("num_workers", [0, 1])
    def test_served_bit_equal_to_serial_sessions(self, num_workers):
        """The acceptance gate: mixed stateless + video traffic, served
        outputs bit-equal to the serial per-session reference loop."""
        spec = _video_spec()
        events = _video_events()
        engine = ServingEngine(
            spec.build,
            ServingConfig(num_workers=num_workers, max_wait_s=0.001),
        ).start()
        try:
            result = replay_traffic(engine, events, speed=0)
        finally:
            engine.shutdown()
        reference = serial_reference_outputs(spec.build(), events)
        for served, expected in zip(result.outputs, reference):
            np.testing.assert_array_equal(served, expected)

    def test_sticky_routing_keeps_stream_on_one_worker(self):
        spec = _video_spec()
        events = _video_traffic(2, 4, seed=7)
        engine = ServingEngine(
            spec.build, ServingConfig(num_workers=2, max_wait_s=0.001)
        ).start()
        try:
            replay_traffic(engine, events, speed=0)
            routes = dict(engine._stream_routes)
        finally:
            engine.shutdown()
        assert set(routes) == {"stream-0", "stream-1"}
        # Every dispatched video batch went to its stream's routed worker.
        for record in engine.stats.batches:
            assert record.request_class == "video"
            assert record.path == "worker"
