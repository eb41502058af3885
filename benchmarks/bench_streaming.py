"""Benchmark of streaming video sessions: steady-state vs cold-start rate.

A low-motion synthetic video stream is encoded twice at paper scale, by two
:class:`~repro.engine.streaming.StreamingEncoderSession` instances over the
same encoder: a *cold* session with ``keyframe_interval=1`` (every frame is a
full forward) and a *warm* session with the interval beyond the stream length
(every frame after the first reuses cross-frame state).  Both sessions keep
their execution-plan arenas warm across frames, so the reported speedup
isolates *temporal reuse* — warm-started FWP masks, cross-frame frozen rows,
the exact static-frame fast path — from the PR 5 arena effects.

Gates follow the trajectory-sensitivity discipline of the block-sparse
encoder: warm frames prune differently than cold ones *by design*, so the
warm-vs-cold end-to-end diff is no gate; the gated equivalence probe replays
each warm frame's recorded per-block masks through the dense and sparse
execution paths in lockstep
(:func:`repro.eval.profiler.measure_streaming_blockwise_equivalence`).
"""

from conftest import run_once

from repro.core.config import DEFAConfig
from repro.engine.streaming import StreamingConfig, StreamingEncoderSession
from repro.eval.profiler import (
    ProbeRecord,
    build_encoder,
    measure_streaming_blockwise_equivalence,
    time_interleaved,
)
from repro.workloads.specs import get_workload
from repro.workloads.video import SyntheticVideoStream, VideoStreamSpec

STREAMING_TARGET_SPEEDUP = 1.3
"""Steady-state frames/sec must beat the cold-start per-frame rate by at
least this factor on the low-motion paper-scale stream (the acceptance
criterion).  Calibrated ~1.8x here: the default stream computes well under
half of the rows on a typical warm frame, so the fence carries real headroom
and catches structural regressions (warm frames silently recomputing
everything), not scheduler jitter.  Note the win shrinks at *smaller* scales:
the dilation radii are fixed in cells, so on coarse grids the dependency cone
of even a small dirty set covers most of the frame — which is why the gate
runs at paper scale."""

STREAMING_FP32_TOL = 1e-5
"""Lockstep dense/sparse drift bound for fp32 streaming replays (the PR 4
fp32 tier)."""

STREAMING_INT12_TOL = 2e-2
"""Lockstep drift bound for INT12 streaming replays — the encoder blockwise
tier (a few quantization steps compounded through the block's LayerNorm/FFN
stage)."""

STREAMING_NUM_LAYERS = 4
"""Encoder depth of the timing measurement: deep enough that three of the
four blocks run masked (mask evolution and cross-frame freezing both
exercised) while keeping the paper-scale cold baseline affordable."""


def streaming_video_spec(num_frames: int) -> VideoStreamSpec:
    """The benchmark's low-motion stream: default motion (~1/4 finest-level
    cell per frame) quantizes many frames to bit-identical and keeps warm
    frames' dirty sets near the object boundaries."""
    return VideoStreamSpec(num_frames=num_frames, seed=11)


def build_sessions(scale: str = "paper", num_frames: int = 8):
    """The cold/warm session pair and their shared stream at ``scale``."""
    workload = get_workload("deformable_detr", scale)
    encoder = build_encoder(workload, STREAMING_NUM_LAYERS, rng=0)
    config = DEFAConfig(fwp_k=1.0, enable_query_pruning=True)
    cold = StreamingEncoderSession(
        encoder, config, workload.spatial_shapes, StreamingConfig(keyframe_interval=1)
    )
    warm = StreamingEncoderSession(
        encoder,
        config,
        workload.spatial_shapes,
        StreamingConfig(keyframe_interval=num_frames + 1),
    )
    stream = SyntheticVideoStream(
        workload.spatial_shapes, workload.model.d_model, streaming_video_spec(num_frames)
    )
    return cold, warm, stream


def run_streaming_benchmark(
    scale: str = "paper", num_frames: int = 8, repeats: int = 2
) -> ProbeRecord:
    """Measure steady-state frames/sec against the cold-start rate.

    One untimed pass over the stream warms both sessions (and their arenas)
    and records the warm session's frame kinds, kept-pixel fractions and
    plan counters.  Then every round resets both sessions, replays frame 0
    untimed and times frames 1..N-1 frame by frame, alternating the cold and
    the warm session (:func:`~repro.eval.profiler.time_interleaved`, one
    step per frame).  Frames legitimately differ in dirtiness, so the replay
    of the whole stream is the steady-state rate, while best-of-rounds drops
    scheduler noise.  Returns the probe record.
    """
    cold, warm, stream = build_sessions(scale, num_frames)
    frames = [stream.frame(i) for i in range(num_frames)]
    next_frame = {}

    def restart() -> None:
        for session in (cold, warm):
            session.reset()
            session.process(frames[0], 0)
            next_frame[session] = 1

    def step(session: StreamingEncoderSession):
        index = next_frame[session]
        next_frame[session] = index + 1
        return session.process(frames[index], index)

    restart()
    first = warm.plan_stats()
    warm_results = []
    for _ in range(1, num_frames):
        step(cold)
        warm_results.append(step(warm))
    final = warm.plan_stats()
    kinds = [result.kind for result in warm_results]
    timings = time_interleaved(
        {"cold": lambda: step(cold), "warm": lambda: step(warm)},
        repeats,
        restart,
        steps=num_frames - 1,
    )

    workload = get_workload("deformable_detr", scale)
    record = ProbeRecord(
        name="streaming",
        config={
            "workload": workload.name,
            "num_layers": STREAMING_NUM_LAYERS,
            "num_frames": num_frames,
            "repeats": repeats,
            "motion": streaming_video_spec(num_frames).motion,
            "target_speedup": STREAMING_TARGET_SPEEDUP,
        },
        timings_ms=timings.ms(),
        ratios={"speedup": timings.ratio("cold", "warm")},
        counters={
            **{f"frames_{kind}": kinds.count(kind) for kind in ("cold", "warm", "reused")},
            "mean_pixels_kept": sum(r.pixels_kept for r in warm_results) / len(warm_results),
            "plan_hits_first_frame": first["hits"],
            "plan_hits": final["hits"],
            "plan_bytes_first_frame": first["bytes"],
            "plan_bytes": final["bytes"],
        },
    )
    fp32 = measure_streaming_blockwise_equivalence(
        workload,
        config=DEFAConfig(fwp_k=1.0, quant_bits=None, enable_query_pruning=True),
        num_layers=3,
        num_frames=4,
        rng=0,
    )
    int12 = measure_streaming_blockwise_equivalence(
        workload, num_layers=3, num_frames=4, rng=0
    )
    record.gate("streaming.encoder_blockwise.fp32", fp32, STREAMING_FP32_TOL)
    record.gate("streaming.encoder_blockwise.int12", int12, STREAMING_INT12_TOL)
    return record


def check_streaming_record(record: ProbeRecord) -> None:
    """The acceptance gates of the streaming probe record."""
    speedup = record.ratios["speedup"]
    assert speedup >= STREAMING_TARGET_SPEEDUP, (
        f"steady-state speedup {speedup:.2f}x below the {STREAMING_TARGET_SPEEDUP}x fence"
    )
    for probe in record.equivalence:
        assert probe["max_abs_diff"] <= probe["tolerance"], (
            f"{probe['probe']} drift {probe['max_abs_diff']:.2e} over "
            f"{probe['tolerance']:.0e}"
        )
    counters = record.counters
    # Warm arenas: a streaming session has one pyramid signature, so hits
    # climb frame over frame while the arena footprint plateaus.
    assert counters["plan_hits"] > counters["plan_hits_first_frame"]
    assert counters["plan_bytes"] == counters["plan_bytes_first_frame"]
    # Temporal reuse must actually fire: at least one frame after the first
    # must be warm or reused, and the stream must skip rows overall.
    assert counters["frames_warm"] + counters["frames_reused"] > 0
    assert counters["mean_pixels_kept"] < 1.0


def _print_record(record: ProbeRecord) -> None:
    best, counters = record.timings_ms["best"], record.counters
    frames = record.config["num_frames"] - 1
    drift = ", ".join(f"{p['probe']} {p['max_abs_diff']:.2e}" for p in record.equivalence)
    print(
        f"streaming @ {record.config['workload']}: "
        f"{1e3 * frames / best['warm']:.2f} fps steady-state vs "
        f"{1e3 * frames / best['cold']:.2f} fps cold ({record.ratios['speedup']:.2f}x), "
        f"mean pixels kept {counters['mean_pixels_kept']:.1%}, frames cold/warm/reused "
        f"{counters['frames_cold']}/{counters['frames_warm']}/{counters['frames_reused']}"
    )
    print(
        f"  lockstep drift: {drift}; plan hits {counters['plan_hits_first_frame']} -> "
        f"{counters['plan_hits']}, bytes {counters['plan_bytes']}"
    )


def test_streaming_steady_state_speedup(benchmark):
    """The gated paper-scale streaming profile."""
    record = run_once(benchmark, run_streaming_benchmark, scale="paper")
    print()
    _print_record(record)
    check_streaming_record(record)
