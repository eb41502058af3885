"""Synthetic serving traffic: arrival processes over mixed pyramid workloads.

The serving benchmarks need request streams that stress the scheduler the way
real detection traffic would: mixed pyramid shapes (so the shape-signature
grouping actually has to group), mixed request classes (fp32 vs. quantized
pruning configs sharing one engine), and arrival processes ranging from
steady to bursty.  :func:`generate_traffic` builds such a stream
deterministically from a seed; :func:`replay_traffic` paces it into a
:class:`~repro.engine.serving.ServingEngine`; and
:func:`serial_reference_outputs` computes the per-image serial reference the
served outputs must be bit-equal to.

Three arrival processes are provided:

* ``"uniform"`` — Poisson arrivals (i.i.d. exponential interarrival times) at
  a constant mean rate.
* ``"bursty"`` — a two-state on/off modulated Poisson process: bursts arrive
  4x faster than the mean, idle gaps correspondingly slower, with geometric
  state holding times.  Exercises queue build-up and max-batch flushes.
* ``"diurnal"`` — a sinusoidally rate-modulated process (thinning-free: the
  interarrival of each request is scaled by the instantaneous inverse rate),
  sweeping between quiet and peak load twice over the stream.  Exercises
  the max-wait policy at low load and batching at peak.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.engine.batching import FLOAT_DTYPE, WorkItem
from repro.engine.serving import (
    DEFAULT_REQUEST_CLASS,
    DeadlineExceeded,
    ModelBank,
    PoisonRequestError,
    QueueFullError,
    ServingEngine,
)
from repro.utils.shapes import LevelShape

__all__ = [
    "ARRIVAL_PROCESSES",
    "TrafficEvent",
    "ReplayResult",
    "generate_traffic",
    "replay_traffic",
    "serial_reference_outputs",
]

ARRIVAL_PROCESSES = ("uniform", "bursty", "diurnal")
"""Names of the supported arrival processes."""


@dataclass(frozen=True)
class TrafficEvent:
    """One request of a synthetic traffic stream."""

    arrival_s: float
    """Arrival time relative to the start of the stream (non-decreasing)."""

    item: WorkItem
    request_class: str = DEFAULT_REQUEST_CLASS


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying a traffic stream through a serving engine."""

    outputs: list["np.ndarray | None"]
    """Served output per event, in event (submission) order.  ``None`` for
    an event that failed a lifecycle bound (only possible under
    ``tolerate_faults=True`` — see :attr:`failures`)."""

    elapsed_s: float
    """Wall-clock time of the replay (submission through final completion)."""

    failures: dict[int, BaseException] = field(default_factory=dict)
    """Event index -> the lifecycle exception that failed it (shed, expired
    or quarantined).  Empty when every event served."""

    @property
    def num_failed(self) -> int:
        return len(self.failures)


def _interarrivals(
    rng: np.random.Generator, num_requests: int, mean_rate_rps: float, process: str
) -> np.ndarray:
    base = rng.exponential(scale=1.0 / mean_rate_rps, size=num_requests)
    if process == "uniform":
        return base
    if process == "bursty":
        # Two-state modulation with geometric holding times of mean 8
        # requests; the gaps shrink or stretch 4x, so the long-run mean rate
        # stays `mean_rate_rps`.
        burst_factor, burst_length = 4.0, 8
        scale = np.empty(num_requests)
        in_burst = False
        toggle = rng.random(num_requests) < (1.0 / burst_length)
        for i in range(num_requests):
            if toggle[i]:
                in_burst = not in_burst
            scale[i] = 1.0 / burst_factor if in_burst else burst_factor
        return base * scale
    if process == "diurnal":
        # Instantaneous rate sweeps sinusoidally between ~0.25x and ~1.75x of
        # the mean, two full cycles across the stream.
        phase = np.arange(num_requests) / num_requests * (2.0 * np.pi * 2.0)
        rate_factor = 1.0 + 0.75 * np.sin(phase)
        return base / rate_factor
    raise ValueError(
        f"unknown arrival process {process!r}; known: {ARRIVAL_PROCESSES}"
    )


def _pick_weighted(rng: np.random.Generator, choices: Sequence, weights) -> int:
    weights = np.asarray([float(w) for w in weights])
    if len(choices) != len(weights) or len(choices) == 0:
        raise ValueError("mix must be a non-empty sequence of (value, weight) pairs")
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("mix weights must be non-negative with a positive sum")
    return int(rng.choice(len(choices), p=weights / weights.sum()))


def generate_traffic(
    num_requests: int,
    mean_rate_rps: float = 200.0,
    d_model: int = 64,
    shape_mix: Sequence[tuple[Sequence[LevelShape], float]] | None = None,
    class_mix: Sequence[tuple[str, float]] = ((DEFAULT_REQUEST_CLASS, 1.0),),
    process: str = "uniform",
    seed: int = 0,
) -> list[TrafficEvent]:
    """Build a deterministic synthetic request stream.

    ``shape_mix`` is a weighted list of pyramid shape tuples (defaults to a
    two-entry mix of small pyramids); ``class_mix`` a weighted list of request
    class names.  Each request draws its pyramid and class independently, so
    consecutive requests routinely differ in shape signature — the scheduler
    has to re-group them, exactly the situation the serving engine exists
    for.  The same ``seed`` always produces the same stream (arrival times,
    shapes, classes and feature tensors).
    """
    if num_requests < 0:
        raise ValueError("num_requests must be non-negative")
    if mean_rate_rps <= 0:
        raise ValueError("mean_rate_rps must be positive")
    if shape_mix is None:
        shape_mix = (
            ((LevelShape(8, 12), LevelShape(4, 6)), 2.0),
            ((LevelShape(6, 8), LevelShape(3, 4)), 1.0),
        )
    rng = np.random.default_rng(seed)
    gaps = _interarrivals(rng, num_requests, mean_rate_rps, process)
    arrivals = np.cumsum(gaps)
    shapes_options = [tuple(shapes) for shapes, _ in shape_mix]
    shape_weights = [w for _, w in shape_mix]
    class_options = [name for name, _ in class_mix]
    class_weights = [w for _, w in class_mix]
    events: list[TrafficEvent] = []
    for i in range(num_requests):
        shapes = shapes_options[_pick_weighted(rng, shapes_options, shape_weights)]
        request_class = class_options[_pick_weighted(rng, class_options, class_weights)]
        n_in = sum(s.num_pixels for s in shapes)
        features = rng.standard_normal((n_in, d_model)).astype(FLOAT_DTYPE)
        events.append(
            TrafficEvent(
                arrival_s=float(arrivals[i]),
                item=WorkItem(
                    item_id=f"req-{i:04d}", features=features, spatial_shapes=shapes
                ),
                request_class=request_class,
            )
        )
    return events


_LIFECYCLE_FAULTS = (QueueFullError, DeadlineExceeded, PoisonRequestError)
"""Per-request lifecycle bounds a tolerant replay records instead of raising:
shed at admission, expired in queue, quarantined as poison.  Anything else
(a model bug, an engine failure) always propagates."""


def replay_traffic(
    engine: ServingEngine,
    events: Sequence[TrafficEvent],
    speed: float = 1.0,
    on_submit: Callable[[int], None] | None = None,
    tolerate_faults: bool = False,
) -> ReplayResult:
    """Pace a traffic stream into a started engine and gather the results.

    ``speed`` scales the arrival timeline (``2.0`` replays twice as fast);
    ``speed <= 0`` submits everything as fast as possible (open-loop stress).
    ``on_submit(i)`` fires after event *i* is submitted — benchmark fault
    injection hooks a worker kill here.  Returns the served outputs in event
    order; any per-request failure propagates from its future.  The flush
    and every result wait at most 120 s.

    ``tolerate_faults=True`` treats the PR 10 lifecycle bounds —
    :class:`~repro.engine.serving.QueueFullError` at submit,
    :class:`~repro.engine.serving.DeadlineExceeded` and
    :class:`~repro.engine.serving.PoisonRequestError` at completion — as
    *data*: the failed event gets a ``None`` output and its exception is
    recorded in :attr:`ReplayResult.failures`, so a replay through a fault
    plan can still bit-check every request that did serve.
    """
    import time

    start = time.monotonic()
    futures: list = []
    failures: dict[int, BaseException] = {}
    for i, event in enumerate(events):
        if speed > 0:
            target = start + event.arrival_s / speed
            delay = target - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        try:
            futures.append(engine.submit(event.item, event.request_class))
        except QueueFullError as error:
            if not tolerate_faults:
                raise
            failures[i] = error
            futures.append(None)
        if on_submit is not None:
            on_submit(i)
    timeout = 120.0
    engine.flush(timeout=timeout)
    outputs: list = []
    for i, future in enumerate(futures):
        if future is None:
            outputs.append(None)
            continue
        try:
            outputs.append(future.result(timeout=timeout))
        except _LIFECYCLE_FAULTS as error:
            if not tolerate_faults:
                raise
            failures[i] = error
            outputs.append(None)
    return ReplayResult(
        outputs=outputs, elapsed_s=time.monotonic() - start, failures=failures
    )


def serial_reference_outputs(
    bank: ModelBank | dict, events: Sequence[TrafficEvent]
) -> list[np.ndarray]:
    """Per-image serial reference: one forward per request, batch size 1.

    This is the ground truth the serving engine is gated against — served
    outputs must be bit-equal to this loop for any scheduling decision.
    Stream-affine events pass their ``(stream_id, frame_index)`` through, so
    the reference bank's sessions see the same frame sequence the engine's
    would (the gate holds for kill-free runs, where warm state follows one
    process).
    """
    bank = ModelBank.coerce(bank)
    outputs = []
    for event in events:
        meta = None
        if event.item.stream_id is not None:
            meta = ((event.item.stream_id, event.item.frame_index),)
        batched = bank.forward(
            event.request_class,
            event.item.features[None],
            list(event.item.spatial_shapes),
            meta,
        )
        outputs.append(np.array(batched[0]))
    return outputs
