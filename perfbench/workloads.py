"""The three benchmark workloads, driven through the public API of ``repro``.

* ``encode_coco`` — closed loop, one client, one paper-scale image per
  :meth:`DEFAEncoderRunner.forward` (6 blocks, 17,821 tokens).
* ``serve_mixed`` — open loop into a one-worker :class:`ServingEngine`: a
  bursty phase at a fixed mean rate, then an overload phase at a fixed
  offered rate with a bounded, shedding queue.
* ``stream_video`` — closed loop over two interleaved low-motion videos, one
  :class:`StreamingEncoderSession` each over one shared 4-block encoder.

Each workload returns an :class:`Outcome`: the end-to-end metrics (from the
untraced pass), or with ``trace=True`` the per-layer metrics (from a second,
traced pass over the same inputs).  Timing wraps calls into the library from
outside; nothing inside ``repro`` is instrumented beyond the section hooks it
already has.  Outputs are checked after each timed region.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
from concurrent.futures import Future
from concurrent.futures import wait as wait_futures
from dataclasses import dataclass, field, replace

import numpy as np

from perfbench import inputs
from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.engine.batching import WorkItem
from repro.engine.serving import (
    ModelBank,
    ModelBankSpec,
    QueueFullError,
    ServingConfig,
    ServingEngine,
)
from repro.engine.streaming import StreamingEncoderSession
from repro.kernels import ExecutionOptions
from repro.nn.encoder import DeformableEncoder
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.utils.shapes import LevelShape
from repro.utils.timing import collect_kernel_timings

WORKLOAD_CONFIG = DEFAConfig(fwp_k=1.0, quant_bits=12, enable_query_pruning=True)
"""The DEFA operating point of every workload (INT12, query pruning)."""

FP32_CONFIG = DEFAConfig(fwp_k=1.0, quant_bits=None, enable_query_pruning=True)

TOLERANCE = {"fp32": 1e-5, "int12": 2e-2}
"""Lockstep blockwise tiers the streaming check uses, by precision."""

SETUP_REPEATS = 3
"""Set-ups per untraced run; ``setup_s`` reports their median."""

SECTIONS = (
    ("core.pipeline.query_proj_ms", "query_proj"),
    ("core.pipeline.value_proj_ms", "value_proj"),
    ("core.pipeline.neighbors_ms", "neighbors"),
    ("core.pipeline.fwp_ms", "fwp"),
    ("core.pipeline.output_proj_ms", "output_proj"),
    ("kernels.gather_ms", "gather"),
    ("kernels.aggregate_ms", "aggregate"),
    ("nn.encoder.norm_ms", "norm"),
    ("nn.encoder.ffn_ms", "ffn"),
)
"""Per-layer metric name and the library's ``kernel_section`` name.  The
sections do not nest, so with ``core.unattributed_ms`` they partition the
forward's wall time."""


@dataclass(frozen=True)
class EncoderGeometry:
    shapes: tuple[LevelShape, ...]
    num_layers: int
    d_model: int = 256
    num_heads: int = 8
    num_points: int = 4
    ffn_dim: int = 1024

    def build(self) -> DeformableEncoder:
        return DeformableEncoder(
            num_layers=self.num_layers,
            d_model=self.d_model,
            num_heads=self.num_heads,
            num_levels=len(self.shapes),
            num_points=self.num_points,
            ffn_dim=self.ffn_dim,
            activation="relu",
            rng=0,
        )


@dataclass
class Outcome:
    """What one run measured."""

    attempted: int = 0
    failed: int = 0
    metrics: dict[str, float] = field(default_factory=dict)
    """End-to-end metrics (untraced run) or per-layer metrics (traced run);
    a per-layer metric of a layer the workload does not exercise is left out
    and reads 0."""
    report: list[tuple[str, float, str]] = field(default_factory=list)
    """The same figures under the workload's own names, for people."""
    record: dict = field(default_factory=dict)
    """Sample counts, spans and check diffs, written out after the run."""


# ------------------------------------------------------------------ helpers


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def pct(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def repeated_setup(setup, teardown, repeats: int):
    """Run ``setup`` ``repeats`` times; return the durations and the last
    result.  Earlier results are torn down first, so memory does not stack."""
    durations, state = [], None
    for _ in range(repeats):
        if state is not None:
            teardown(state)
            state = None
            gc.collect()
        start = time.perf_counter()
        state = setup()
        durations.append(time.perf_counter() - start)
    return durations, state


def setup_seconds(import_s: float, durations: list[float]) -> float:
    return import_s + statistics.median(durations)


class SectionTotals:
    """Per-op kernel-section seconds, summed over a traced pass."""

    def __init__(self) -> None:
        self.seconds = {name: 0.0 for _, name in SECTIONS}
        self.unattributed = 0.0
        self.ops = 0

    def add(self, timings: dict[str, float], wall: float) -> None:
        for _, name in SECTIONS:
            self.seconds[name] += timings.get(name, 0.0)
        self.unattributed += wall - sum(timings.get(name, 0.0) for _, name in SECTIONS)
        self.ops += 1

    def metrics(self) -> dict[str, float]:
        n = max(self.ops, 1)
        out = {metric: 1e3 * self.seconds[name] / n for metric, name in SECTIONS}
        out["core.unattributed_ms"] = 1e3 * self.unattributed / n
        return out


def pruning_metrics(layer_stats_per_op: list[list], seconds: float) -> dict[str, float]:
    """Keep fractions and pruned FLOPs from ``DEFALayerStats``.

    ``core.pruned_gflop`` is the attention FLOPs left after FWP/PAP per
    operation, as ``core/flops.py`` counts them (output projection included,
    FFN excluded; an operation that ran no forward counts 0);
    ``kernels.achieved_gflops`` divides their sum by ``seconds``, the
    untraced time of the same operations.
    """
    gflop = [
        sum(s.flops.total_pruned(include_output_proj=True) for s in stats) / 1e9
        for stats in layer_stats_per_op
    ]
    computed = [stats for stats in layer_stats_per_op if stats]
    pixel = [
        np.mean([s.pixels_kept / s.pixels_total for s in stats if s.mask_applied] or [1.0])
        for stats in computed
    ]
    point = [np.mean([s.points_kept / s.points_total for s in stats]) for stats in computed]
    return {
        "core.pixel_keep_frac": float(np.mean(pixel)) if pixel else 0.0,
        "core.point_keep_frac": float(np.mean(point)) if point else 0.0,
        "core.pruned_gflop": float(np.mean(gflop)) if gflop else 0.0,
        "kernels.achieved_gflops": sum(gflop) / seconds if seconds > 0 else 0.0,
    }


def arena_metrics(plan_stats: list[dict], grows_before: int) -> dict[str, float]:
    grows = sum(int(s["grows"]) for s in plan_stats)
    return {
        "kernels.arena_grows": float(grows - grows_before),
        "kernels.arena_mb": sum(int(s["bytes"]) for s in plan_stats) / 1e6,
    }


def closed_loop_e2e(latencies: list[float]) -> dict[str, float]:
    return {
        "throughput_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * pct(latencies, 50),
    }


# --------------------------------------------------------------- encode_coco

ENCODE_GEOMETRY = EncoderGeometry(inputs.PAPER_SHAPES, num_layers=6)
ENCODE_TINY = EncoderGeometry(inputs.TINY_SHAPES, num_layers=2, d_model=32, ffn_dim=64)
ENCODE_POOL = 4
"""Distinct seeded images per run, cycled through by the client."""


def encode_coco(seed: int, seconds: float, trace: bool, import_s: float, tiny=False):
    geo = ENCODE_TINY if tiny else ENCODE_GEOMETRY
    shapes = list(geo.shapes)
    rng = inputs.workload_rng(seed, "encode_coco")
    warmup_image = inputs.feature_image(rng, shapes, geo.d_model)
    images = [inputs.feature_image(rng, shapes, geo.d_model) for _ in range(ENCODE_POOL)]
    pos = sine_positional_encoding(shapes, geo.d_model)
    ref = make_reference_points(shapes)

    def setup():
        runner = DEFAEncoderRunner(geo.build(), WORKLOAD_CONFIG)
        runner.forward(warmup_image, pos, ref, shapes)
        return runner

    durations, runner = repeated_setup(
        setup, lambda _: None, 1 if trace else SETUP_REPEATS
    )
    outcome = Outcome()
    grows_before = int(runner.plan_stats()["grows"])

    def forward_pass(count: int | None, traced: bool):
        """Closed loop: the next image goes as soon as the last returns."""
        latencies, lags, stats, first, sections = [], [], [], None, SectionTotals()
        start = last_end = time.perf_counter()
        i = 0
        while i < count if count is not None else time.perf_counter() - start < seconds:
            image = images[i % ENCODE_POOL]
            t0 = time.perf_counter()
            lags.append(t0 - last_end)
            try:
                if traced:
                    with collect_kernel_timings() as timings:
                        result = runner.forward(image, pos, ref, shapes)
                else:
                    result = runner.forward(image, pos, ref, shapes)
            except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
                last_end = time.perf_counter()
                outcome.attempted += 1
                outcome.failed += 1
                i += 1
                continue
            last_end = time.perf_counter()
            latencies.append(last_end - t0)
            if traced:
                sections.add(timings.seconds, last_end - t0)
            outcome.attempted += 1
            if not np.isfinite(result.memory).all():
                outcome.failed += 1
            if i == 0:
                first = result.memory
            stats.append(result.layer_stats)
            i += 1
        return latencies, lags, stats, first, sections

    latencies, lags, stats, first, _ = forward_pass(None, traced=False)
    rss = peak_rss_mb()
    arena = arena_metrics([runner.plan_stats()], grows_before)
    untraced_attempted = outcome.attempted

    # Output check, outside the timed region: the first image against the
    # reference kernel backend, bit-equal (the 0.0 tier).
    check = DEFAEncoderRunner(
        runner.encoder, WORKLOAD_CONFIG, ExecutionOptions(kernel_backend="reference")
    )
    diff = None
    if first is not None:
        expected = check.forward(images[0], pos, ref, shapes).memory
        diff = float(np.max(np.abs(expected - first)))
        if diff != 0.0:
            outcome.failed += 1
    del check, first

    outcome.record = {"samples": len(latencies), "reference_max_abs_diff": diff}
    if not trace:
        e2e = closed_loop_e2e(latencies)
        e2e["setup_s"] = setup_seconds(import_s, durations)
        e2e["peak_rss_mb"] = rss
        outcome.metrics = e2e
        outcome.report = [
            ("encode_images_per_s", e2e["throughput_per_s"], "1/s"),
            (f"encode_p50_ms[n={len(latencies)}]", e2e["latency_p50_ms"], "ms"),
        ]
        outcome.record["setup_durations_s"] = durations
        return outcome

    traced_lat, _, _, _, sections = forward_pass(untraced_attempted, traced=True)
    layers = sections.metrics()
    layers.update(pruning_metrics(stats, sum(latencies)))
    layers.update(arena)
    layers["traffic.gen_lag_p99_ms"] = 1e3 * pct(lags[1:] or lags, 99)
    layers["trace.overhead_frac"] = sum(traced_lat) / sum(latencies) - 1.0
    outcome.metrics = layers
    outcome.record["traced_latencies_s"] = traced_lat
    return outcome


# --------------------------------------------------------------- serve_mixed

SERVE_SHAPES = (
    ((LevelShape(8, 12), LevelShape(4, 6)), 2.0),
    ((LevelShape(6, 8), LevelShape(3, 4)), 2.0),
    ((LevelShape(10, 14), LevelShape(5, 7)), 1.0),
)
SERVE_CLASSES = (("fp32", 1.0), ("int12", 1.0))
SERVE_D_MODEL = 64
SERVE_BURSTY_RPS = 150.0
"""Fixed mean offered rate of the bursty phase."""
SERVE_BURST_FACTOR = 4.0
SERVE_BURST_PERIOD_S = 0.5
SERVE_BURST_LEN_S = 0.025
SERVE_OVERLOAD_RPS = 600.0
"""Fixed offered rate of the overload phase (well past saturation)."""
SERVE_OVERLOAD_QUEUE = 32
SERVE_BURSTY_SHARE = 0.6
"""Share of ``--seconds`` spent in the bursty phase; the rest is overload."""
SERVE_RATE_WINDOW_S = 0.5
"""``serve_peak_rps`` is taken over completion windows of this length, the
first window (the queue filling up) left out."""
SERVE_POOL = 64
"""Pre-generated feature arrays per pyramid shape."""
SERVE_CHECK_EVERY = 8
"""Every this-many-th request is checked against the serial loop."""
SERVE_PHASE_TIMEOUT_S = 60.0


def serve_spec() -> ModelBankSpec:
    return ModelBankSpec(
        num_layers=2,
        d_model=SERVE_D_MODEL,
        num_heads=4,
        num_levels=2,
        num_points=2,
        ffn_dim=128,
        rng_seed=0,
        classes=(("fp32", FP32_CONFIG), ("int12", WORKLOAD_CONFIG)),
    )


def serve_config() -> ServingConfig:
    """One worker; groups of 4 or 10 ms.  With the engine's defaults (8 and
    2 ms) the bursty-phase latency and the overload rate swung by a quarter
    or more from run to run on a 2-core host, far beyond any usable bound."""
    return ServingConfig(max_batch_size=4, max_wait_s=0.01, num_workers=1)


class TracedBank(ModelBank):
    """A model bank that times every forward inside the worker.

    Each forward leaves a span ``(start, end, batch size, section seconds)``;
    :meth:`plan_stats`, which ``ServingEngine.worker_stats()`` already calls,
    hands the spans collected so far back to the benchmark and clears them.
    """

    def __init__(self, bank: ModelBank) -> None:
        super().__init__(bank.forwards, bank.runners, bank.streaming, bank.fault_plan)
        self.spans: list[tuple[float, float, int, dict[str, float]]] = []

    def forward(self, request_class, features, spatial_shapes, meta=None):
        start = time.perf_counter()
        with collect_kernel_timings() as timings:
            output = super().forward(request_class, features, spatial_shapes, meta)
        self.spans.append((start, time.perf_counter(), len(features), dict(timings.seconds)))
        return output

    def plan_stats(self):
        stats = super().plan_stats()
        stats["perfbench.spans"], self.spans = self.spans, []
        return stats


@dataclass(frozen=True)
class TracedBankFactory:
    spec: ModelBankSpec

    def __call__(self) -> TracedBank:
        return TracedBank(self.spec.build())


def _worker_plan_stats(engine: ServingEngine) -> tuple[list[dict], list]:
    """Arena stats per request class and forward spans of the worker."""
    plans, spans = [], []
    for stats in engine.worker_stats():
        if stats is None:
            continue
        spans.extend(stats.pop("perfbench.spans", []))
        plans.extend(stats.values())
    return plans, spans


@dataclass
class _Phase:
    name: str
    arrivals: list
    items: list
    duration_s: float
    due: list[float] = field(default_factory=list)
    sent: list[float] = field(default_factory=list)
    submit_s: list[float] = field(default_factory=list)
    done: list[float | None] = field(default_factory=list)
    futures: list[Future | None] = field(default_factory=list)
    shed: int = 0
    start: float = 0.0


def _run_phase(engine: ServingEngine, phase: _Phase) -> None:
    """Send each request at its scheduled time, whatever the engine does.

    Latency runs from the scheduled send time to the future's done-callback,
    so a stalled generator or a slow ``submit`` shows in it; how late each
    send was is kept separately as generator lag.
    """
    n = len(phase.items)
    phase.done = [None] * n
    phase.futures = [None] * n

    def on_done(index: int):
        def record(_future):
            phase.done[index] = time.perf_counter()

        return record

    phase.start = time.perf_counter() + 0.02
    for index, (arrival, item) in enumerate(zip(phase.arrivals, phase.items)):
        due = phase.start + arrival.due_s
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        try:
            future = engine.submit(item, arrival.request_class)
        except QueueFullError:
            phase.shed += 1
            continue
        finally:
            phase.due.append(due)
            phase.sent.append(sent)
            phase.submit_s.append(time.perf_counter() - sent)
        phase.futures[index] = future
        future.add_done_callback(on_done(index))
    pending = [f for f in phase.futures if f is not None]
    wait_futures(pending, timeout=SERVE_PHASE_TIMEOUT_S)
    # A future wakes its waiters before it runs its callbacks; give the
    # last callbacks a moment to stamp their completion times.
    deadline = time.perf_counter() + 1.0
    while time.perf_counter() < deadline and any(
        f is not None and f.done() and d is None for f, d in zip(phase.futures, phase.done)
    ):
        time.sleep(0.001)


def _serve_pass(engine: ServingEngine, phases: list[_Phase], base: ServingConfig):
    start_batches = len(engine.stats.batches)
    for phase in phases:
        engine.config = (
            replace(base, max_queue_depth=SERVE_OVERLOAD_QUEUE, admission="shed")
            if phase.name == "overload"
            else base
        )
        _run_phase(engine, phase)
    engine.config = base
    return engine.stats.batches[start_batches:]


def _serve_inputs(seed: int, seconds: float):
    rng = inputs.workload_rng(seed, "serve_mixed")
    shapes = [s for s, _ in SERVE_SHAPES]
    pools = [
        [inputs.feature_image(rng, s, SERVE_D_MODEL) for _ in range(SERVE_POOL)]
        for s in shapes
    ]
    bursty_s = SERVE_BURSTY_SHARE * seconds
    bursty = inputs.bursty_arrivals(
        rng,
        bursty_s,
        SERVE_BURSTY_RPS,
        SERVE_BURST_FACTOR,
        SERVE_BURST_PERIOD_S,
        SERVE_BURST_LEN_S,
    )
    overload_s = seconds - bursty_s
    overload = inputs.poisson_arrivals(rng, overload_s, SERVE_OVERLOAD_RPS)
    specs = []
    for name, times, duration in (
        ("bursty", bursty, bursty_s),
        ("overload", overload, overload_s),
    ):
        arrivals = inputs.request_mix(rng, times, SERVE_SHAPES, SERVE_CLASSES, SERVE_POOL)
        specs.append((name, arrivals, duration))

    def phases():
        out, item_id = [], 0
        for name, arrivals, duration in specs:
            items = []
            for a in arrivals:
                items.append(
                    WorkItem(item_id, pools[a.shape_index][a.pool_index], shapes[a.shape_index])
                )
                item_id += 1
            out.append(_Phase(name, arrivals, items, duration))
        return out

    combos = [(s, cls) for s in range(len(shapes)) for cls, _ in SERVE_CLASSES]
    warmup = [(WorkItem(-1 - k, pools[s][0], shapes[s]), cls) for k, (s, cls) in enumerate(combos)]
    return phases, warmup


def _start_engine(factory, warmup) -> ServingEngine:
    engine = ServingEngine(factory, serve_config()).start()
    try:
        futures = [engine.submit(item, cls) for item, cls in warmup]
        for future in futures:
            future.result(timeout=SERVE_PHASE_TIMEOUT_S)
    except BaseException:
        engine.shutdown()
        raise
    return engine


def _check_served(phases: list[_Phase], outcome: Outcome) -> float:
    """Served outputs of a fixed subset against the serial per-image loop,
    bit-equal (the 0.0 tier).  Returns the largest difference seen."""
    bank = serve_spec().build()
    worst = 0.0
    for phase in phases:
        for index, future in enumerate(phase.futures):
            if future is None or index % SERVE_CHECK_EVERY:
                continue
            if not future.done() or future.exception() is not None:
                continue  # already counted as failed
            item = phase.items[index]
            expected = bank.forward(
                phase.arrivals[index].request_class,
                item.features[None],
                list(item.spatial_shapes),
            )[0]
            diff = float(np.max(np.abs(expected - future.result())))
            worst = max(worst, diff)
            if diff != 0.0:
                outcome.failed += 1
    return worst


def _count_failures(phases: list[_Phase], outcome: Outcome) -> None:
    """Every admitted request counts as attempted; one that raised or did
    not finish counts as failed.  Sheds in the overload phase are the
    designed behaviour there and count as neither."""
    for phase in phases:
        for future in phase.futures:
            if future is None:
                continue
            outcome.attempted += 1
            if not future.done() or future.exception() is not None:
                outcome.failed += 1


def _latencies(phase: _Phase) -> list[float]:
    """Scheduled-send-to-completion time of every served request."""
    return [
        done - due
        for future, done, due in zip(phase.futures, phase.done, phase.due)
        if future is not None and done is not None and future.exception() is None
    ]


def _peak_rate(phase: _Phase) -> float:
    """Completion rate the engine sustains in its best tenth of the
    overload phase (90th percentile over the rate windows)."""
    done = np.array([d - phase.start for d in phase.done if d is not None])
    width = min(SERVE_RATE_WINDOW_S, phase.duration_s / 2)
    edges = np.arange(width, phase.duration_s + 1e-9, width)
    counts = np.histogram(done, bins=edges)[0]
    return float(np.percentile(counts, 90)) / width


def serve_mixed(seed: int, seconds: float, trace: bool, import_s: float, tiny=False):
    spec = serve_spec()
    make_phases, warmup = _serve_inputs(seed, seconds)
    base = serve_config()
    outcome = Outcome()

    if not trace:
        durations, engine = repeated_setup(
            lambda: _start_engine(spec.build, warmup),
            lambda e: e.shutdown(),
            SETUP_REPEATS,
        )
        try:
            phases = make_phases()
            batches = _serve_pass(engine, phases, base)
        finally:
            engine.shutdown()
        rss = peak_rss_mb()
        bursty, overload = phases
        _count_failures(phases, outcome)
        worst = _check_served(phases, outcome)
        lat = _latencies(bursty)
        e2e = {
            "throughput_per_s": _peak_rate(overload),
            "latency_p50_ms": 1e3 * pct(lat, 50),
            "setup_s": setup_seconds(import_s, durations),
            "peak_rss_mb": rss,
        }
        outcome.metrics = e2e
        outcome.report = [
            (f"serve_p50_ms[n={len(lat)}]", e2e["latency_p50_ms"], "ms"),
            (f"serve_p99_ms[n={len(lat)}]", 1e3 * pct(lat, 99), "ms"),
            ("serve_peak_rps", e2e["throughput_per_s"], "1/s"),
            ("serve_shed", float(overload.shed), "count"),
        ]
        outcome.record = {
            "setup_durations_s": durations,
            "bursty_requests": len(bursty.items),
            "overload_offered": len(overload.items),
            "overload_shed": overload.shed,
            "served_vs_serial_max_abs_diff": worst,
            "bursty_due_s": [d - bursty.start for d in bursty.due],
            "bursty_done_s": [d and d - bursty.start for d in bursty.done],
            "overload_due_s": [d - overload.start for d in overload.due],
            "overload_sent_s": [d - overload.start for d in overload.sent],
            "overload_done_s": [d and d - overload.start for d in overload.done],
            "batches": [(b.size, b.reason) for b in batches],
        }
        return outcome

    # Traced run: the same requests through a plain engine, then through an
    # engine whose worker times every forward; the difference in mean
    # bursty-phase latency is the tracing overhead.
    engine = _start_engine(spec.build, warmup)
    try:
        plain = make_phases()
        _serve_pass(engine, plain, base)
    finally:
        engine.shutdown()
    engine = _start_engine(TracedBankFactory(spec), warmup)
    try:
        plans_before, _ = _worker_plan_stats(engine)
        grows_before = sum(int(s["grows"]) for s in plans_before)
        phases = make_phases()
        batches = _serve_pass(engine, phases, base)
        plans, spans = _worker_plan_stats(engine)
        stats = engine.stats
    finally:
        engine.shutdown()
    _count_failures(plain + phases, outcome)
    _check_served(phases, outcome)
    bursty = phases[0]
    lat = _latencies(bursty)
    plain_lat = _latencies(plain[0])
    in_bursty = [s for s in spans if s[0] < phases[1].start]
    forward_s = [end - start for start, end, _, _ in in_bursty]
    sections = SectionTotals()
    for start, end, _, timings in spans:
        sections.add(timings, end - start)
    layers = sections.metrics()
    layers.update(arena_metrics(plans, grows_before))
    reasons = [b.reason for b in batches]
    layers.update(
        {
            "engine.submit_us_p50": 1e6 * pct(bursty.submit_s, 50),
            "engine.submit_us_p99": 1e6 * pct(bursty.submit_s, 99),
            "engine.batch_size_mean": float(np.mean([b.size for b in batches])),
            "engine.flush_full_frac": reasons.count("full") / len(reasons),
            "engine.flush_wait_frac": reasons.count("wait") / len(reasons),
            "engine.forward_ms_p50": 1e3 * pct(forward_s, 50),
            "engine.worker_busy_frac": sum(forward_s) / bursty.duration_s,
            "engine.overhead_ms_mean": 1e3 * (np.mean(lat) - np.mean(forward_s)),
            "engine.num_shed": float(stats.num_shed),
            "engine.num_retried": float(stats.num_retried),
            "engine.worker_deaths": float(stats.worker_deaths),
            "traffic.gen_lag_p99_ms": 1e3
            * pct([s - d for p in phases for s, d in zip(p.sent, p.due)], 99),
            "trace.overhead_frac": float(np.mean(lat) / np.mean(plain_lat) - 1.0),
        }
    )
    outcome.metrics = layers
    outcome.record = {
        "worker_spans": [(s, e, b) for s, e, b, _ in spans],
        "requests": [
            {"phase": p.name, "due": d, "sent": s}
            for p in phases
            for d, s in zip(p.due, p.sent)
        ],
    }
    return outcome


# -------------------------------------------------------------- stream_video

STREAM_GEOMETRY = EncoderGeometry(inputs.PAPER_SHAPES, num_layers=4)
STREAM_TINY = EncoderGeometry(inputs.TINY_SHAPES, num_layers=2, d_model=32, ffn_dim=64)
STREAMS = ("a", "b")
STREAM_CYCLE = 8
"""Frames per stream per measured cycle: the sessions' default keyframe
interval, so every cycle holds one cold frame per stream."""
STREAM_CHECKED = 3
"""Frames 1..3 of the first stream are checked: one reused, two warm."""


@dataclass
class _Frame:
    kind: str
    wall_s: float
    computed_rows: int
    total_rows: int
    layer_stats: list


def stream_video(seed: int, seconds: float, trace: bool, import_s: float, tiny=False):
    geo = STREAM_TINY if tiny else STREAM_GEOMETRY
    shapes = list(geo.shapes)
    rng = inputs.workload_rng(seed, "stream_video")
    videos = {sid: inputs.LowMotionVideo(rng, shapes, geo.d_model) for sid in STREAMS}
    first = {sid: videos[sid].frame(0) for sid in STREAMS}
    warm_outputs = {}

    def setup():
        encoder = geo.build()
        sessions = {
            sid: StreamingEncoderSession(encoder, WORKLOAD_CONFIG, shapes) for sid in STREAMS
        }
        for sid in STREAMS:
            warm_outputs[sid] = sessions[sid].process(first[sid], 0)
        return sessions

    durations, sessions = repeated_setup(
        setup, lambda _: None, 1 if trace else SETUP_REPEATS
    )
    outcome = Outcome()

    def stream_pass(cycles: int | None, traced: bool):
        """Closed loop over whole keyframe cycles, streams interleaved."""
        frames, lags, sections, kept = [], [], SectionTotals(), {0: warm_outputs[STREAMS[0]]}
        start = last_end = time.perf_counter()
        cycle = 0
        while (
            cycle < cycles
            if cycles is not None
            else cycle == 0 or time.perf_counter() - start < seconds
        ):
            for index in range(1 + cycle * STREAM_CYCLE, 1 + (cycle + 1) * STREAM_CYCLE):
                for sid in STREAMS:
                    features = videos[sid].frame(index)
                    t0 = time.perf_counter()
                    lags.append(t0 - last_end)
                    try:
                        if traced:
                            with collect_kernel_timings() as timings:
                                result = sessions[sid].process(features, index)
                        else:
                            result = sessions[sid].process(features, index)
                    except Exception:  # noqa: BLE001 - counted, not fatal
                        last_end = time.perf_counter()
                        outcome.attempted += 1
                        outcome.failed += 1
                        continue
                    last_end = time.perf_counter()
                    wall = last_end - t0
                    outcome.attempted += 1
                    if traced:
                        sections.add(timings.seconds, wall)
                    frames.append(
                        _Frame(
                            result.kind,
                            wall,
                            result.computed_rows,
                            result.total_rows,
                            result.layer_stats,
                        )
                    )
                    if not np.isfinite(result.memory).all():
                        outcome.failed += 1
                    if sid == STREAMS[0] and index <= STREAM_CHECKED:
                        kept[index] = result
            cycle += 1
        return frames, lags, sections, kept, cycle

    grows_before = sum(int(s.plan_stats()["grows"]) for s in sessions.values())
    frames, lags, _, kept, cycles = stream_pass(None, traced=False)
    rss = peak_rss_mb()
    arena = arena_metrics([s.plan_stats() for s in sessions.values()], grows_before)
    worst = _check_stream(sessions[STREAMS[0]], videos[STREAMS[0]], kept, outcome)
    del kept
    walls = [f.wall_s for f in frames]
    outcome.record = {
        "samples": len(walls),
        "cycles": cycles,
        "kinds": [f.kind for f in frames],
        "check_max_abs_diff": worst,
    }
    if not trace:
        e2e = closed_loop_e2e(walls)
        e2e["setup_s"] = setup_seconds(import_s, durations)
        e2e["peak_rss_mb"] = rss
        outcome.metrics = e2e
        outcome.report = [
            ("stream_frames_per_s", e2e["throughput_per_s"], "1/s"),
            (f"stream_p50_ms[n={len(walls)}]", e2e["latency_p50_ms"], "ms"),
        ]
        outcome.record["setup_durations_s"] = durations
        return outcome

    for sid in STREAMS:  # replay the same frames, traced
        sessions[sid].reset()
        sessions[sid].process(first[sid], 0)
    traced_frames, _, sections, _, _ = stream_pass(cycles, traced=True)
    layers = sections.metrics()
    layers.update(pruning_metrics([f.layer_stats for f in frames], sum(walls)))
    layers.update(arena)
    kinds = [f.kind for f in frames]
    layers.update(
        {
            "streaming.frames_cold": float(kinds.count("cold")),
            "streaming.frames_warm": float(kinds.count("warm")),
            "streaming.frames_reused": float(kinds.count("reused")),
            "streaming.computed_row_frac": sum(f.computed_rows for f in frames)
            / sum(f.total_rows for f in frames),
            "streaming.cold_ms_p50": 1e3 * pct([f.wall_s for f in frames if f.kind == "cold"], 50),
            "streaming.warm_ms_p50": 1e3 * pct([f.wall_s for f in frames if f.kind == "warm"], 50),
            "traffic.gen_lag_p99_ms": 1e3 * pct(lags[1:] or lags, 99),
            "trace.overhead_frac": sum(f.wall_s for f in traced_frames) / sum(walls) - 1.0,
        }
    )
    outcome.metrics = layers
    return outcome


def _check_stream(session, video, kept: dict, outcome: Outcome) -> float:
    """Recompute the first stream's frames 1..3 on the reference backend.

    Each step starts from the session's own previous output (the lockstep
    discipline): a reused frame must equal it exactly; a warm frame is
    replayed with the per-block masks the session recorded, its frozen rows
    patched from the previous output, and compared at the lockstep tier of
    the workload's precision.
    """
    tol = TOLERANCE["int12" if session.config.quant_bits else "fp32"]
    shapes = session.spatial_shapes
    pos = sine_positional_encoding(shapes, session.runner.encoder.d_model)
    ref = make_reference_points(shapes)
    runner = DEFAEncoderRunner(
        session.runner.encoder, session.config, ExecutionOptions(kernel_backend="reference")
    )
    worst = 0.0
    for index in range(1, STREAM_CHECKED + 1):
        if index not in kept or index - 1 not in kept:
            continue
        result, previous = kept[index], kept[index - 1].memory
        if result.kind == "reused":
            expected = previous
        else:
            masks = result.incoming_masks if result.kind == "warm" else None
            expected = runner.forward(
                video.frame(index), pos, ref, shapes, fmap_masks=masks
            ).memory
            if result.kind == "warm":
                static = ~result.incoming_masks[0]
                expected[static] = previous[static]
        diff = float(np.max(np.abs(expected - result.memory)))
        worst = max(worst, diff)
        if diff > (0.0 if result.kind == "reused" else tol):
            outcome.failed += 1
    return worst


WORKLOADS = {
    "encode_coco": encode_coco,
    "serve_mixed": serve_mixed,
    "stream_video": stream_video,
}
