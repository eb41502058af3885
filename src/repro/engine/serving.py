"""Sharded serving engine: a long-running scheduler over persistent workers.

:mod:`repro.engine.batching` made same-shape batching a *library* call and
:mod:`repro.engine.parallel` spins up a fresh process pool per invocation —
neither keeps anything warm between requests, so the per-shape-signature
:class:`~repro.kernels.ExecutionPlan` arenas of PR 5 (and every positional /
reference-point cache) are rebuilt for every call.  This module promotes the
engine into a *service*:

* :class:`ServingEngine` — a scheduler that accepts a stream of
  :class:`~repro.engine.batching.WorkItem` requests, groups them by
  ``(request class, shape signature)`` under a queueing policy (flush a group
  when it reaches ``max_batch_size`` or its oldest request has waited
  ``max_wait_s``), and fans the batches out to persistent worker processes.
* Each worker owns a warm :class:`ModelBank` — one
  :class:`~repro.core.encoder_runner.DEFAEncoderRunner` per request class —
  for its whole lifetime, so the execution-plan arenas and positional caches
  survive across requests and the zero-allocation steady state of PR 5 holds
  *across* the request stream, not just within one batch.
* A **degraded mode** falls back to in-process serial execution whenever no
  worker process is alive (mirroring the primary/degraded split of a service
  that must answer even while its backend restarts): dead workers are
  restarted with exponential backoff, and the engine returns to primary mode
  once a restarted worker reports ready.  The fallback executes the *same*
  forward functions as the workers, and the batched kernels are bit-equal to
  the per-image loop for any batch composition (per-image auto-dispatch
  thresholds, per-image quantization scales), so scheduling decisions —
  batch packing, worker placement, fallback path — can never change a
  served result.

The scheduler core is a plain state machine driven by :meth:`ServingEngine.
poll`; :meth:`ServingEngine.start` runs it on a background pump thread for
real streaming traffic, while unit tests drive ``poll()`` directly under a
manual clock for deterministic queueing-policy checks.

Single-core note: this container serves every process from one core, so the
engine is gated on scheduling *correctness* (served results bit-equal to the
serial loop, bounded queueing latency, overhead) — multi-worker speedup is
reported by the benchmarks as informational only.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import select
import struct
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import arena_counters
from repro.engine.batching import BatchForward, ShapeKey, WorkItem, defa_forward_fn
from repro.engine.faults import FaultInjectedError, FaultPlan, WorkerFaultState
from repro.engine.streaming import StreamingConfig, StreamingEncoderSession
from repro.kernels import ExecutionOptions, ExecutionPlan, MachineProfile
from repro.nn.tensor_utils import FLOAT_DTYPE

__all__ = [
    "DEFAULT_REQUEST_CLASS",
    "DeadlineExceeded",
    "ModelBank",
    "ModelBankSpec",
    "PoisonRequestError",
    "QueueFullError",
    "ServingConfig",
    "ServingEngine",
    "ServingStats",
    "StreamingClassServer",
    "BatchRecord",
    "WorkerError",
]

DEFAULT_REQUEST_CLASS = "default"
"""Request class used when a caller does not distinguish request classes."""


class QueueFullError(RuntimeError):
    """Admission control shed a request: the queue is at ``max_queue_depth``."""


class DeadlineExceeded(TimeoutError):
    """A queued request's per-request deadline passed before dispatch."""


class PoisonRequestError(RuntimeError):
    """A request exhausted its retry budget and was quarantined.

    The request was in flight across ``kills`` worker faults (process
    deaths or retryable forward faults) — more than ``max_retries`` — so the
    engine stops redispatching it rather than letting it take down worker
    after worker.  A quarantined request is *never* run on the in-process
    fallback either: a poison forward executed in the engine process would
    kill the engine itself.
    """

    def __init__(self, item_id: int | str, kills: int, max_retries: int) -> None:
        self.item_id = item_id
        self.kills = kills
        self.max_retries = max_retries
        super().__init__(
            f"request {item_id!r} quarantined as poison: in flight for {kills} "
            f"worker faults (retry budget max_retries={max_retries})"
        )


class StreamingClassServer:
    """Per-request-class pool of :class:`StreamingEncoderSession`\\ s (PR 8).

    A stream-affine request class serves *video streams*: each distinct
    ``stream_id`` gets its own session (created lazily on first frame, with
    that frame's pyramid as the stream's fixed signature) and keeps it for
    the server's lifetime, carrying warm FWP masks, the previous frame's
    memory and the warm :class:`~repro.kernels.ExecutionPlan` arenas between
    requests.  Batches are executed frame by frame — the session state is
    inherently sequential — relying on the engine's per-stream sticky
    routing to deliver each stream's frames in order to one server.
    """

    def __init__(
        self,
        encoder,
        config: DEFAConfig,
        streaming: StreamingConfig | None = None,
    ) -> None:
        self.encoder = encoder
        self.config = config
        self.streaming = streaming or StreamingConfig()
        self.sessions: dict[str, StreamingEncoderSession] = {}

    def session(self, stream_id: str, spatial_shapes) -> StreamingEncoderSession:
        session = self.sessions.get(stream_id)
        if session is None:
            session = self.sessions[stream_id] = StreamingEncoderSession(
                self.encoder, self.config, spatial_shapes, self.streaming
            )
        return session

    def forward(self, features: np.ndarray, spatial_shapes, meta) -> np.ndarray:
        """Run one batch of frames through their per-stream sessions.

        ``meta`` pairs each batch element with its ``(stream_id,
        frame_index)`` — the engine forwards it alongside the stacked
        features.  Frames of one stream must arrive in index order; an
        out-of-order index deterministically resynchronizes that session
        with a cold frame (see :meth:`StreamingEncoderSession.process`).
        """
        if meta is None or len(meta) != features.shape[0]:
            raise ValueError(
                "a stream-affine request class needs (stream_id, frame_index) "
                "meta for every batch element"
            )
        outputs = np.empty_like(features)
        for index, (stream_id, frame_index) in enumerate(meta):
            if stream_id is None:
                raise ValueError(
                    "items of a stream-affine request class must carry a stream_id"
                )
            session = self.session(stream_id, spatial_shapes)
            outputs[index] = session.process(features[index], frame_index).memory
        return outputs

    def plan_stats(self) -> dict[str, int | str]:
        """Arena accounting over the distinct plans of the class's live
        sessions: sessions of one thread share a plan per pyramid, so a
        shared arena counts once."""
        merged: dict[str, int | str] = {}
        for session in self.sessions.values():
            stats = session.plan_stats()
            merged["backend"] = stats["backend"]
            merged["profile"] = stats["profile"]
        merged.update(
            arena_counters(
                plan
                for session in self.sessions.values()
                for plan in session.runner._plans.values()
            )
        )
        merged["sessions"] = len(self.sessions)
        return merged


class ModelBank:
    """The forward functions (one per request class) a worker serves with.

    A *request class* names one serving configuration — e.g. ``"fp32"`` and
    ``"int12"`` pruning/quantization variants — and maps to one batched
    forward callable (see :data:`~repro.engine.batching.BatchForward`).  When
    the forwards are :func:`~repro.engine.batching.defa_forward_fn` adapters,
    the backing runners can be registered too so :meth:`plan_stats` can
    report the warm execution-plan arenas (the evidence that the PR 5
    zero-allocation steady state survives across requests).
    """

    def __init__(
        self,
        forwards: dict[str, BatchForward],
        runners: dict[str, object] | None = None,
        streaming: dict[str, StreamingClassServer] | None = None,
        fault_plan: FaultPlan | None = None,
    ) -> None:
        if not forwards and not streaming:
            raise ValueError("a ModelBank needs at least one request class")
        self.forwards = dict(forwards)
        self.runners = dict(runners or {})
        self.streaming = dict(streaming or {})
        self.fault_plan = fault_plan
        """Scripted worker faults (PR 10).  Consumed by ``_worker_main``
        only — the in-process fallback and direct ``forward`` calls never
        execute faults, so a fault plan can't kill the engine process."""
        overlap = set(self.forwards) & set(self.streaming)
        if overlap:
            raise ValueError(
                f"request classes cannot be both stateless and stream-affine: "
                f"{sorted(overlap)}"
            )

    @classmethod
    def coerce(cls, obj: "ModelBank | dict[str, BatchForward]") -> "ModelBank":
        """Accept a plain ``{class: forward}`` dict wherever a bank is expected."""
        return obj if isinstance(obj, cls) else cls(obj)

    @property
    def request_classes(self) -> tuple[str, ...]:
        return tuple(self.forwards) + tuple(self.streaming)

    def forward(
        self,
        request_class: str,
        features: np.ndarray,
        spatial_shapes,
        meta=None,
    ) -> np.ndarray:
        """Run one batch.  ``meta`` carries per-element ``(stream_id,
        frame_index)`` pairs for stream-affine classes (ignored by
        stateless ones)."""
        if request_class in self.streaming:
            return self.streaming[request_class].forward(
                features, list(spatial_shapes), meta
            )
        if request_class not in self.forwards:
            raise KeyError(
                f"unknown request class {request_class!r}; "
                f"known classes: {sorted(self.request_classes)}"
            )
        return self.forwards[request_class](features, list(spatial_shapes))

    def plan_stats(self) -> dict[str, dict[str, int | str]]:
        """Per-class arena accounting (and active kernel backend) per runner.

        Each class entry carries the runner's plan counters plus the
        ``backend`` it resolves to at call time (post registry fallback), so
        ``ServingEngine.worker_stats()`` shows which kernel implementation
        each request class is actually served with on each worker.
        """
        stats: dict[str, dict[str, int | str]] = {}
        for name, runner in self.runners.items():
            plan_stats = getattr(runner, "plan_stats", None)
            if callable(plan_stats):
                stats[name] = plan_stats()
        for name, server in self.streaming.items():
            stats[name] = server.plan_stats()
        return stats


@dataclass(frozen=True)
class ModelBankSpec:
    """Picklable recipe for building identical :class:`ModelBank`\\ s everywhere.

    The spec travels to each worker process (and is also built locally for
    the degraded fallback), so every execution path constructs the *same*
    deterministic encoder weights (``rng_seed``) and the same per-class
    :class:`~repro.core.config.DEFAConfig`\\ s — the precondition for served
    results being independent of which path ran a batch.  All classes share
    one encoder (one set of weights); each gets its own
    :class:`~repro.core.encoder_runner.DEFAEncoderRunner` so per-class
    sparse-mode/quantization state never interferes.  The execution knobs
    :attr:`kernel_backend` and :attr:`machine_profile` apply to every
    runner and stream session of the bank.
    """

    num_layers: int = 2
    d_model: int = 64
    num_heads: int = 4
    num_levels: int = 2
    num_points: int = 2
    ffn_dim: int = 128
    rng_seed: int = 0
    classes: tuple[tuple[str, DEFAConfig], ...] = ((DEFAULT_REQUEST_CLASS, DEFAConfig()),)
    streams: tuple[tuple[str, DEFAConfig, StreamingConfig], ...] = ()
    """Stream-affine request classes ``(name, config, streaming_policy)``:
    each is served by a :class:`StreamingClassServer` over the shared
    encoder, one :class:`StreamingEncoderSession` per ``stream_id``.  All
    components are frozen dataclasses of primitives, so the spec stays
    picklable (use backend *names* in any embedded
    :class:`~repro.kernels.ExecutionOptions`)."""

    kernel_backend: str | None = None
    """Kernel-backend name every runner and stream session of the bank is
    built with (overriding a stream policy's own), or ``None`` to follow
    each worker's process default.  Resolved *on the worker*, so
    ``"compiled"`` falls back to ``"fused"`` where the extension is not
    built; ``ServingEngine.worker_stats()`` reports what ran."""

    machine_profile: "MachineProfile | str | None" = None
    """Dispatch profile (PR 9) every runner of the bank is built with:
    a :class:`~repro.kernels.MachineProfile` (frozen, picklable),
    ``"reference"``, a path to a profile JSON — resolved *on the worker
    host* at bank build, so each heterogeneous serving host can load its
    own calibrated crossovers — or ``None`` to follow each worker's
    process-default active profile (``REPRO_MACHINE_PROFILE``, else the
    committed reference constants)."""

    fault_plan: FaultPlan | None = None
    """Deterministic fault script (PR 10), threaded to every worker
    process via the bank.  :class:`~repro.engine.faults.FaultPlan` is a
    frozen dataclass of primitives, so the spec stays picklable.  Faults
    execute only inside workers; the parent's fallback bank ignores them."""

    def __post_init__(self) -> None:
        # Reject a bad backend name or profile here, not in every worker.
        ExecutionOptions(kernel_backend=self.kernel_backend, machine_profile=self.machine_profile)

    def build(self) -> ModelBank:
        from repro.core.encoder_runner import DEFAEncoderRunner
        from repro.nn.encoder import DeformableEncoder

        encoder = DeformableEncoder(
            num_layers=self.num_layers,
            d_model=self.d_model,
            num_heads=self.num_heads,
            num_levels=self.num_levels,
            num_points=self.num_points,
            ffn_dim=self.ffn_dim,
            rng=self.rng_seed,
        )
        options = ExecutionOptions(
            kernel_backend=self.kernel_backend, machine_profile=self.machine_profile
        )
        forwards: dict[str, BatchForward] = {}
        runners: dict[str, object] = {}
        for name, config in self.classes:
            runner = DEFAEncoderRunner(encoder, config, options)
            runners[name] = runner
            forwards[name] = defa_forward_fn(runner)
        streaming = {}
        for name, config, policy in self.streams:
            own = policy.options or ExecutionOptions()
            session_options = own.with_overrides(
                kernel_backend=self.kernel_backend or own.kernel_backend,
                machine_profile=self.machine_profile or own.machine_profile,
            )
            policy = replace(policy, options=session_options)
            streaming[name] = StreamingClassServer(encoder, config, policy)
        return ModelBank(forwards, runners, streaming, fault_plan=self.fault_plan)


@dataclass
class ServingConfig:
    """Queueing and worker policy of a :class:`ServingEngine`.

    ``num_workers=0`` serves every batch in-process (no subprocesses at all
    — the permanent form of the degraded path, useful for tests and
    single-core deployments).  ``max_wait_s`` bounds the queueing latency a
    request can accumulate waiting for its shape group to fill: a group is
    flushed as soon as it is full *or* its oldest request has waited this
    long.

    The PR 10 request-lifecycle knobs default to the pre-hardening
    behaviour: unbounded admission, no deadlines, no watchdog — each is an
    opt-in bound.  Only the retry budget (``max_retries``) is bounded by
    default, because an unbounded budget lets one poison request crash-loop
    every worker slot to retirement.
    """

    max_batch_size: int = 8
    max_wait_s: float = 0.002
    num_workers: int = 1
    restart_backoff_s: float = 0.05
    """Base delay before restarting a dead worker; doubles per consecutive
    death of the same worker slot (capped at :attr:`max_backoff_s`)."""

    max_backoff_s: float = 2.0
    max_restarts: int | None = None
    """Per-slot restart budget; ``None`` means restart forever.  A slot that
    exhausts its budget stays dead and the engine serves degraded."""

    poll_interval_s: float = 0.0005
    """Sleep of the background pump thread between scheduler steps."""

    max_queue_depth: int | None = None
    """Admission bound: a ``submit`` finding this many requests already
    queued is shed with :class:`QueueFullError` (``admission="shed"``) or
    blocks until the queue drains below the bound (``admission="block"``).
    ``None`` admits unboundedly (the pre-PR 10 behaviour)."""

    admission: str = "shed"
    """What a full queue does to ``submit``: ``"shed"`` (raise
    :class:`QueueFullError`, fast-fail backpressure) or ``"block"``
    (producer-side backpressure: the submitting thread waits for space —
    requires the pump thread, or another thread driving ``poll``, to drain
    the queue)."""

    batch_timeout_s: float | None = None
    """Hung-worker watchdog: a dispatched batch still unanswered after this
    long (engine clock) gets its worker SIGKILLed and handled through the
    ordinary death path (requeue + backoff restart).  ``None`` disables the
    watchdog."""

    max_retries: int = 2
    """Retry budget per request: how many times a request that was in
    flight during a worker fault may be requeued.  A request exceeding the
    budget is quarantined with :class:`PoisonRequestError`."""

    dispatch_timeout_s: float | None = 5.0
    """Bound on the pipe write of one batch dispatch (wall clock).  A worker
    that stops draining its pipe would otherwise block ``conn.send`` — and
    with it the pump thread, while it holds the engine lock — forever; on
    timeout the worker is killed and the batch requeued via the death path.
    ``None`` restores the blocking send."""

    def __post_init__(self) -> None:
        if self.max_batch_size <= 0:
            raise ValueError("max_batch_size must be positive")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")
        if self.num_workers < 0:
            raise ValueError("num_workers must be non-negative")
        if self.restart_backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.max_restarts is not None and self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative (or None)")
        if self.poll_interval_s <= 0:
            raise ValueError("poll_interval_s must be positive")
        if self.max_queue_depth is not None and self.max_queue_depth <= 0:
            raise ValueError("max_queue_depth must be positive (or None)")
        if self.admission not in ("shed", "block"):
            raise ValueError(
                f"admission must be 'shed' or 'block', got {self.admission!r}"
            )
        if self.batch_timeout_s is not None and self.batch_timeout_s <= 0:
            raise ValueError("batch_timeout_s must be positive (or None)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.dispatch_timeout_s is not None and self.dispatch_timeout_s <= 0:
            raise ValueError("dispatch_timeout_s must be positive (or None)")


@dataclass(frozen=True)
class BatchRecord:
    """Accounting of one dispatched batch (one entry per forward launched)."""

    request_class: str
    shape_key: ShapeKey
    size: int
    path: str
    """``"worker"`` (served by a worker process) or ``"inproc"`` (served by
    the in-process fallback — degraded mode or a ``num_workers=0`` engine)."""

    reason: str
    """Why the group was flushed: ``"full"`` (reached ``max_batch_size``),
    ``"wait"`` (oldest request hit ``max_wait_s``), ``"flush"`` (explicit
    :meth:`ServingEngine.flush`) or ``"retry"`` (a requeued suspect request
    redispatched in isolation — see :meth:`ServingEngine.poll`)."""

    worker: int | None = None
    """Worker slot index for ``path="worker"`` batches."""


@dataclass
class ServingStats:
    """Mutable accounting of one engine's lifetime."""

    num_requests: int = 0
    num_completed: int = 0
    batches: list[BatchRecord] = field(default_factory=list)
    latencies_s: list[float] = field(default_factory=list)
    """Submit-to-completion latency of every completed request (engine clock)."""

    worker_deaths: int = 0
    worker_restarts: int = 0
    mode_transitions: list[tuple[float, str]] = field(default_factory=list)
    """``(clock time, new mode)`` — recorded whenever the health mode flips."""

    num_shed: int = 0
    """Requests rejected at submit by admission control (``max_queue_depth``
    with ``admission="shed"``)."""

    num_expired: int = 0
    """Queued requests that hit their per-request deadline before dispatch
    (failed with :class:`DeadlineExceeded`)."""

    num_retried: int = 0
    """Requeue events: a request in flight during a worker fault put back
    on the queue (one request can contribute several)."""

    num_quarantined: int = 0
    """Requests that exhausted ``max_retries`` and were failed with
    :class:`PoisonRequestError`."""

    watchdog_kills: int = 0
    """Workers SIGKILLed by the engine: hung-batch watchdog expiries plus
    dispatch-send timeouts (both are counted as deaths too)."""

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def batch_sizes(self) -> list[int]:
        return [b.size for b in self.batches]

    @property
    def mean_batch_size(self) -> float:
        return float(np.mean(self.batch_sizes)) if self.batches else 0.0

    @property
    def primary_batches(self) -> int:
        return sum(1 for b in self.batches if b.path == "worker")

    @property
    def degraded_batches(self) -> int:
        return sum(1 for b in self.batches if b.path == "inproc")

    def latency_quantile(self, q: float) -> float:
        """Latency percentile in seconds (``q`` in [0, 100])."""
        if not self.latencies_s:
            return 0.0
        return float(np.percentile(self.latencies_s, q))


@dataclass(eq=False)
class _Pending:
    """One submitted request waiting for (or in) execution."""

    seq: int
    item: WorkItem
    request_class: str
    arrival: float
    future: Future
    deadline_at: float | None = None
    """Engine-clock instant after which the request expires unserved (from
    the item's / submit's ``deadline_s``); ``None`` = no deadline."""

    retries: int = 0
    """How many worker faults this request has been in flight for.  A
    non-zero count marks the request a *suspect*: it redispatches alone
    (reason ``"retry"``) and only ever to a worker process."""


@dataclass(eq=False)
class _Batch:
    """One dispatched batch, in flight on a worker."""

    batch_id: int
    request_class: str
    shape_key: ShapeKey
    requests: list[_Pending]
    dispatched_at: float = 0.0
    """Engine-clock dispatch instant; the watchdog measures batch age
    against this."""


class _WorkerHandle:
    """Parent-side state of one worker slot (process + pipe + liveness)."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: mp.Process | None = None
        self.conn = None
        self.alive = False
        self.ready = False
        self.busy: _Batch | None = None
        self.deaths = 0
        self.restart_at: float | None = None
        self.retired = False
        """Set when the slot exhausted ``max_restarts``: never respawned."""


def _worker_main(conn, model_bank_factory, worker_index: int = 0, incarnation: int = 0) -> None:
    """Worker process entry point: build the bank once, serve batches forever.

    The bank — and with it every runner's execution-plan arenas and
    positional caches — lives for the whole worker lifetime, which is the
    point of persistent workers: a steady stream of same-signature batches
    executes in the PR 5 warm-arena regime.  Any exception inside a forward
    is reported back as a traceback string (the worker itself survives); only
    a hard process death tears the slot down.  The error reply carries a
    *retryable* flag: :class:`~repro.engine.faults.FaultInjectedError`
    models a transient infrastructure fault, so the parent requeues the
    batch against each request's retry budget; every other exception is a
    deterministic model/config bug and fails the futures directly.

    ``worker_index``/``incarnation`` identify this process generation to the
    bank's :class:`~repro.engine.faults.FaultPlan`, if one is scripted.
    """
    bank = ModelBank.coerce(model_bank_factory())
    fault_plan = getattr(bank, "fault_plan", None)
    faults = (
        WorkerFaultState(fault_plan, worker_index, incarnation)
        if fault_plan is not None
        else None
    )
    conn.send(("ready", os.getpid()))
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return  # parent went away
        kind = message[0]
        if kind == "batch":
            _, batch_id, request_class, features, shapes, meta, item_ids = message
            try:
                if faults is not None:
                    faults.on_batch(item_ids)
                output = bank.forward(request_class, features, shapes, meta)
                conn.send(("ok", batch_id, output))
            except FaultInjectedError:
                conn.send(("err", batch_id, traceback.format_exc(), True))
            except Exception:  # noqa: BLE001 - reported to the parent verbatim
                conn.send(("err", batch_id, traceback.format_exc(), False))
        elif kind == "stats":
            conn.send(("stats_ok", bank.plan_stats()))
        elif kind == "shutdown":
            return


class _PipeSendTimeout(OSError):
    """A deadline-bounded pipe send did not complete in time."""


def _send_with_deadline(conn, obj, timeout: float | None) -> None:
    """``conn.send(obj)`` bounded by ``timeout`` wall-clock seconds.

    A worker that stops reading its pipe eventually fills the pipe buffer,
    at which point a plain ``conn.send`` blocks *forever* — inside the
    engine this happens on the pump thread while it holds the engine lock,
    wedging the whole service.  This helper reproduces ``Connection.send``'s
    wire format (``!i`` length header, ``-1`` + ``!Q`` escape for huge
    payloads, ``ForkingPickler`` body) with the fd in non-blocking mode and
    a ``select`` loop against a real deadline, raising
    :class:`_PipeSendTimeout` on expiry.

    A timeout after a *partial* write leaves the stream corrupt mid-frame —
    callers must treat the worker as lost (kill + death path), never retry
    the send.  Falls back to the blocking ``conn.send`` when ``timeout`` is
    ``None`` or the connection has no usable fd (test stubs).
    """
    if timeout is None:
        conn.send(obj)
        return
    try:
        fd = conn.fileno()
    except (AttributeError, OSError, ValueError):
        conn.send(obj)
        return
    from multiprocessing.reduction import ForkingPickler

    payload = bytes(ForkingPickler.dumps(obj))
    n = len(payload)
    if n > 0x7FFFFFFF:
        header = struct.pack("!i", -1) + struct.pack("!Q", n)
    else:
        header = struct.pack("!i", n)
    data = memoryview(header + payload)
    deadline = time.monotonic() + timeout
    sent = 0
    was_blocking = os.get_blocking(fd)
    os.set_blocking(fd, False)
    try:
        while sent < len(data):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _PipeSendTimeout(
                    f"pipe send timed out after {timeout:.3f}s with "
                    f"{len(data) - sent} of {len(data)} bytes unsent"
                )
            _, writable, _ = select.select([], [fd], [], remaining)
            if not writable:
                continue
            try:
                sent += os.write(fd, data[sent:])
            except BlockingIOError:
                continue
    finally:
        os.set_blocking(fd, was_blocking)


class WorkerError(RuntimeError):
    """A worker's forward raised; carries the worker-side traceback."""

    def __init__(self, request_class: str, worker_traceback: str) -> None:
        self.request_class = request_class
        self.worker_traceback = worker_traceback
        super().__init__(
            f"worker forward failed for request class {request_class!r}:\n"
            f"{worker_traceback}"
        )


class ServingEngine:
    """Long-running scheduler fanning batched requests out to warm workers.

    Parameters
    ----------
    model_bank_factory:
        Zero-argument picklable callable returning the :class:`ModelBank`
        (or plain ``{class: forward}`` dict) to serve with.  Called once
        inside every worker process and once lazily in the parent for the
        degraded fallback, so all paths serve identical models (use
        :meth:`ModelBankSpec.build` for the deterministic DEFA bank).
    config:
        Queueing/worker policy (see :class:`ServingConfig`).
    clock:
        Monotonic time source; injectable so unit tests can drive the
        queueing policy deterministically.

    The engine is driven by :meth:`poll` — one scheduler step: reap worker
    replies and deaths, restart due workers, dispatch due batches.
    :meth:`start` runs ``poll`` on a background pump thread; tests may skip
    ``start`` and call ``poll`` directly.
    """

    def __init__(
        self,
        model_bank_factory: Callable[[], ModelBank | dict[str, BatchForward]],
        config: ServingConfig | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.model_bank_factory = model_bank_factory
        self.config = config or ServingConfig()
        self._clock = clock
        self.stats = ServingStats()
        self._lock = threading.RLock()
        self._space = threading.Condition(self._lock)
        """Signalled whenever queue depth can have dropped; ``submit`` under
        ``admission="block"`` waits on it for admission."""

        self._pending: deque[_Pending] = deque()
        self._seq = 0
        self._batch_seq = 0
        self._flush_all = False
        self._local_bank: ModelBank | None = None
        self._workers = [_WorkerHandle(i) for i in range(self.config.num_workers)]
        self._stack_plan = ExecutionPlan()
        """Arena for the per-dispatch ``(B, N_in, D)`` stacking copies (the
        last steady-state allocation of the engine itself — see
        :meth:`_stack` for why reuse is safe)."""
        self._mp = mp.get_context()
        self._pump: threading.Thread | None = None
        self._stop = threading.Event()
        self._shut_down = False
        self._last_mode: str | None = None
        self._stream_routes: dict[str, int] = {}
        """Sticky ``stream_id -> worker index`` routing.  Streaming sessions
        live inside a worker's bank, so all frames of a stream must hit the
        same worker to stay warm; a route is only rebuilt when its worker
        dies or retires (the replacement's fresh session cold-starts)."""

    # ------------------------------------------------------------ lifecycle

    def start(self, wait_ready: bool = True, timeout: float = 60.0) -> "ServingEngine":
        """Spawn the workers (and the pump thread); optionally block until
        every worker has built its model bank and reported ready."""
        with self._lock:
            if self._shut_down:
                raise RuntimeError("engine already shut down")
            now = self._clock()
            for handle in self._workers:
                if not handle.alive and not handle.retired:
                    self._spawn(handle)
            if self.config.num_workers == 0:
                # The permanent in-process engine pays its model build here,
                # not inside the first served batch.
                self._ensure_local_bank()
            self._record_mode(now)
        if wait_ready and self._workers:
            # Deadline math goes through the injected clock (like every other
            # timing decision here) so FakeClock-driven tests never race real
            # wall time.
            deadline = self._clock() + timeout
            while not all(h.ready for h in self._workers if h.alive):
                self.poll()
                if self._clock() > deadline:
                    raise TimeoutError(
                        f"workers did not report ready within {timeout:g}s "
                        f"({self._diagnose()})"
                    )
                time.sleep(0.001)
        if self._pump is None:
            self._stop.clear()
            self._pump = threading.Thread(
                target=self._pump_loop, name="serving-pump", daemon=True
            )
            self._pump.start()
        return self

    def _pump_loop(self) -> None:
        while not self._stop.is_set():
            self.poll()
            self._stop.wait(self.config.poll_interval_s)

    def shutdown(self) -> None:
        """Stop the pump, terminate the workers, fail any unserved futures."""
        self._stop.set()
        if self._pump is not None:
            self._pump.join(timeout=5.0)
            self._pump = None
        with self._lock:
            self._shut_down = True
            for handle in self._workers:
                if handle.conn is not None:
                    try:
                        handle.conn.send(("shutdown",))
                    except (BrokenPipeError, OSError):
                        pass
            for handle in self._workers:
                if handle.process is not None:
                    handle.process.join(timeout=1.0)
                    if handle.process.is_alive():
                        handle.process.terminate()
                        handle.process.join(timeout=1.0)
                if handle.conn is not None:
                    handle.conn.close()
                    handle.conn = None
                handle.alive = handle.ready = False
            abandoned = list(self._pending)
            self._pending.clear()
            for handle in self._workers:
                if handle.busy is not None:
                    abandoned.extend(handle.busy.requests)
                    handle.busy = None
            for pending in abandoned:
                if not pending.future.done():
                    pending.future.set_exception(
                        RuntimeError("serving engine shut down with the request unserved")
                    )
            # Wake any submitter blocked on backpressure so it can observe
            # the shutdown instead of waiting for space that never comes.
            self._space.notify_all()

    def __enter__(self) -> "ServingEngine":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------ submission

    def submit(
        self,
        item: WorkItem,
        request_class: str = DEFAULT_REQUEST_CLASS,
        deadline_s: float | None = None,
    ) -> Future:
        """Queue one request; the future resolves to its ``(N_in, D)`` output.

        The item's features were copied and frozen at :class:`WorkItem`
        construction, so nothing the caller does to its own arrays after
        submit can reach the queued request.

        ``deadline_s`` bounds the time the request may spend *queued* (from
        this submit, on the engine clock): a request still undispatched when
        its deadline passes fails with :class:`DeadlineExceeded`.  Omitted,
        the item's own :attr:`~repro.engine.batching.WorkItem.deadline_s`
        applies; a request already dispatched never expires (its batch is
        bounded by the watchdog instead).

        With ``max_queue_depth`` set, a full queue sheds the request with
        :class:`QueueFullError` (``admission="shed"``) or blocks this thread
        until the pump drains space (``admission="block"``).
        """
        if deadline_s is None:
            deadline_s = item.deadline_s
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        depth = self.config.max_queue_depth
        with self._lock:
            if self._shut_down:
                raise RuntimeError("engine already shut down")
            if depth is not None and len(self._pending) >= depth:
                if self.config.admission == "shed":
                    self.stats.num_shed += 1
                    raise QueueFullError(
                        f"request {item.item_id!r} shed: queue at "
                        f"max_queue_depth={depth}"
                    )
                # admission="block": producer-side backpressure.  The wait
                # re-checks on every notify (dispatch, expiry, shutdown) and
                # on a coarse wall-clock heartbeat in case a notify is lost.
                while not self._shut_down and len(self._pending) >= depth:
                    self._space.wait(timeout=0.05)
                if self._shut_down:
                    raise RuntimeError("engine already shut down")
            arrival = self._clock()
            future: Future = Future()
            self._pending.append(
                _Pending(
                    seq=self._seq,
                    item=item,
                    request_class=request_class,
                    arrival=arrival,
                    future=future,
                    deadline_at=(
                        arrival + deadline_s if deadline_s is not None else None
                    ),
                )
            )
            self._seq += 1
            self.stats.num_requests += 1
            return future

    def flush(self, timeout: float = 60.0) -> None:
        """Dispatch everything pending regardless of wait policy and block
        until every in-flight batch has completed."""
        deadline = self._clock() + timeout
        self._flush_all = True
        try:
            while True:
                self.poll()
                with self._lock:
                    drained = not self._pending and all(
                        h.busy is None for h in self._workers
                    )
                if drained:
                    return
                if self._clock() > deadline:
                    raise TimeoutError(
                        f"flush did not drain the engine within {timeout:g}s "
                        f"({self._diagnose()})"
                    )
                time.sleep(0.0002)
        finally:
            self._flush_all = False

    # ------------------------------------------------------------ health

    def _diagnose(self) -> str:
        """One-line engine state for timeout messages: a wedged engine must
        be diagnosable from the exception alone."""
        with self._lock:
            workers = []
            for h in self._workers:
                busy = getattr(h.busy, "batch_id", None) if h.busy is not None else None
                workers.append(
                    f"w{h.index}[alive={h.alive} ready={h.ready} "
                    f"busy_batch={busy} deaths={h.deaths} retired={h.retired} "
                    f"restart_at={h.restart_at}]"
                )
            return (
                f"mode={self.mode} queue_depth={len(self._pending)} "
                f"workers=({' '.join(workers) or 'none'})"
            )

    @property
    def mode(self) -> str:
        """``"inproc"`` (no workers configured), ``"primary"`` (>= 1 worker
        process alive) or ``"degraded"`` (all workers dead: in-process
        fallback serves until a restart succeeds)."""
        if self.config.num_workers == 0:
            return "inproc"
        return "primary" if any(h.alive for h in self._workers) else "degraded"

    @property
    def num_alive_workers(self) -> int:
        return sum(1 for h in self._workers if h.alive)

    def kill_worker(self, index: int = 0) -> bool:
        """Fault injection: SIGKILL one worker process (tests/benchmarks
        exercise the death -> degraded -> restart path through this).

        Returns whether a kill actually happened — ``False`` for a slot
        whose process is already dead (or not yet spawned).  A bad index is
        a caller bug and raises :class:`ValueError` naming the valid range.
        """
        with self._lock:
            if not 0 <= index < len(self._workers):
                raise ValueError(
                    f"worker index {index} out of range: this engine has "
                    f"{len(self._workers)} worker slot(s)"
                )
            handle = self._workers[index]
            if handle.process is not None and handle.process.is_alive():
                handle.process.kill()
                return True
            return False

    def worker_stats(self, timeout: float = 5.0) -> list[dict | None]:
        """Execution-plan arena accounting per worker slot (``None`` for
        dead *or unresponsive* slots).  Only meaningful on a drained engine
        (no batches in flight).

        ``timeout`` bounds the whole call end to end (wall clock), the
        request write included — a hung worker that stopped draining its
        pipe can no longer wedge this in a blocking ``conn.send``; its slot
        just reports ``None``.
        """
        results: list[dict | None] = []
        deadline = time.monotonic() + timeout
        with self._lock:
            for handle in self._workers:
                if not (handle.alive and handle.ready and handle.busy is None):
                    results.append(None)
                    continue
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    results.append(None)
                    continue
                try:
                    _send_with_deadline(handle.conn, ("stats",), remaining)
                    remaining = max(deadline - time.monotonic(), 0.0)
                    if handle.conn.poll(remaining):
                        message = handle.conn.recv()
                        results.append(message[1] if message[0] == "stats_ok" else None)
                    else:
                        results.append(None)
                except (BrokenPipeError, EOFError, OSError):
                    # _PipeSendTimeout lands here too: unresponsive => None.
                    results.append(None)
        return results

    # ------------------------------------------------------------ scheduler

    def poll(self) -> None:
        """One scheduler step: reap replies and deaths, kill hung workers,
        expire overdue queued requests, restart due workers, dispatch due
        batches.  Reentrant-safe; called by the pump thread and directly by
        tests/:meth:`flush`."""
        with self._lock:
            if self._shut_down:
                return
            now = self._clock()
            self._reap(now)
            self._watchdog(now)
            self._expire_due(now)
            self._restart_due(now)
            self._dispatch(now)
            self._record_mode(now)

    def _record_mode(self, now: float) -> None:
        mode = self.mode
        if mode != self._last_mode:
            self.stats.mode_transitions.append((now, mode))
            self._last_mode = mode

    # -- worker replies and deaths

    def _reap(self, now: float) -> None:
        for handle in self._workers:
            if not handle.alive:
                continue
            try:
                while handle.conn.poll():
                    self._handle_message(handle, now, handle.conn.recv())
            except (EOFError, BrokenPipeError, OSError):
                self._handle_death(handle, now)
                continue
            if handle.process is not None and not handle.process.is_alive():
                self._handle_death(handle, now)

    def _handle_message(self, handle: _WorkerHandle, now: float, message) -> None:
        kind = message[0]
        if kind == "ready":
            handle.ready = True
        elif kind == "ok":
            _, batch_id, output = message
            batch = handle.busy
            if batch is not None and batch.batch_id == batch_id:
                handle.busy = None
                self._resolve(batch, output, now)
        elif kind == "err":
            _, batch_id, worker_tb, *flags = message
            retryable = bool(flags[0]) if flags else False
            batch = handle.busy
            if batch is not None and batch.batch_id == batch_id:
                handle.busy = None
                if retryable:
                    # A transient worker fault (the worker itself survived):
                    # requeue the batch against each request's retry budget
                    # instead of failing the futures.
                    self._requeue(batch.requests, now)
                else:
                    error = WorkerError(batch.request_class, worker_tb)
                    for pending in batch.requests:
                        if not pending.future.done():
                            pending.future.set_exception(error)
        # stats_ok replies are consumed synchronously by worker_stats().

    def _watchdog(self, now: float) -> None:
        """Kill workers whose in-flight batch is older than
        ``batch_timeout_s``: a hung worker never answers, so its batch age on
        the engine clock is the only signal.  The kill funnels through
        :meth:`_handle_death`, reusing requeue/retry-budget/backoff/stream
        cold-resync semantics unchanged."""
        if self.config.batch_timeout_s is None:
            return
        for handle in self._workers:
            if not (handle.alive and handle.busy is not None):
                continue
            if now - handle.busy.dispatched_at < self.config.batch_timeout_s:
                continue
            self.stats.watchdog_kills += 1
            self._kill_process(handle)
            self._handle_death(handle, now)

    @staticmethod
    def _kill_process(handle: _WorkerHandle) -> None:
        """SIGKILL a handle's process if it has one (stub processes in tests
        may not implement ``kill``)."""
        kill = getattr(handle.process, "kill", None)
        if callable(kill):
            try:
                kill()
            except OSError:
                pass

    def _expire_due(self, now: float) -> None:
        """Fail queued requests whose deadline passed, before dispatch ever
        considers them.  Only *queued* requests expire — once dispatched, a
        batch is bounded by the watchdog, and failing a future the worker is
        still computing would race its result."""
        expired = [
            p
            for p in self._pending
            if p.deadline_at is not None and now >= p.deadline_at
        ]
        if not expired:
            return
        self._remove_pending(expired)
        for pending in expired:
            self.stats.num_expired += 1
            if not pending.future.done():
                pending.future.set_exception(
                    DeadlineExceeded(
                        f"request {pending.item.item_id!r} expired after "
                        f"{now - pending.arrival:.6g}s queued (deadline "
                        f"{pending.deadline_at - pending.arrival:.6g}s)"
                    )
                )

    def _requeue(self, requests: list[_Pending], now: float) -> None:
        """Return a faulted batch's requests to the queue against their
        retry budgets.

        Every request was in flight for the same fault, so each one's
        retry count rises; a request past ``max_retries`` has now taken down
        ``retries`` workers and is quarantined (fails with
        :class:`PoisonRequestError`) instead of being redispatched.
        Survivors go back at the *front* of the queue in seq order (every
        requeued seq predates everything still pending).
        """
        survivors: list[_Pending] = []
        for pending in requests:
            pending.retries += 1
            if pending.retries > self.config.max_retries:
                self.stats.num_quarantined += 1
                if not pending.future.done():
                    pending.future.set_exception(
                        PoisonRequestError(
                            pending.item.item_id,
                            pending.retries,
                            self.config.max_retries,
                        )
                    )
            else:
                self.stats.num_retried += 1
                survivors.append(pending)
        for pending in sorted(survivors, key=lambda p: p.seq, reverse=True):
            self._pending.appendleft(pending)

    def _handle_death(self, handle: _WorkerHandle, now: float) -> None:
        """A worker process died: salvage nothing, requeue its in-flight
        requests at the front of the queue (submission order preserved)
        against their retry budgets, and schedule a restart with exponential
        backoff."""
        handle.alive = False
        handle.ready = False
        if handle.conn is not None:
            handle.conn.close()
            handle.conn = None
        if handle.process is not None:
            handle.process.join(timeout=1.0)
            handle.process = None
        handle.deaths += 1
        self.stats.worker_deaths += 1
        if handle.busy is not None:
            self._requeue(handle.busy.requests, now)
            handle.busy = None
        if (
            self.config.max_restarts is not None
            and handle.deaths > self.config.max_restarts
        ):
            handle.retired = True
            handle.restart_at = None
        else:
            backoff = min(
                self.config.restart_backoff_s * (2 ** (handle.deaths - 1)),
                self.config.max_backoff_s,
            )
            handle.restart_at = now + backoff

    def _restart_due(self, now: float) -> None:
        for handle in self._workers:
            if (
                not handle.alive
                and not handle.retired
                and handle.restart_at is not None
                and handle.restart_at <= now
            ):
                self._spawn(handle)
                self.stats.worker_restarts += 1

    def _spawn(self, handle: _WorkerHandle) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main,
            # deaths doubles as the incarnation number: 0 before the first
            # death, 1 for the first replacement, ... — what a FaultPlan
            # scripts against.
            args=(child_conn, self.model_bank_factory, handle.index, handle.deaths),
            name=f"serving-worker-{handle.index}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle.process = process
        handle.conn = parent_conn
        handle.alive = True
        handle.ready = False
        handle.restart_at = None

    # -- batching and dispatch

    def _due_reason(self, group: list[_Pending], now: float) -> str | None:
        if len(group) >= self.config.max_batch_size:
            return "full"
        if self._flush_all:
            return "flush"
        if now - group[0].arrival >= self.config.max_wait_s:
            return "wait"
        return None

    def _dispatch(self, now: float) -> None:
        while self._pending:
            groups: dict[tuple, list[_Pending]] = {}
            for pending in self._pending:  # deque stays seq-ordered
                # A suspect (retries > 0) was in flight for a worker fault:
                # it gets a singleton group keyed by its own seq, so it
                # redispatches *alone* — innocents co-batched with a poison
                # request must not be killed alongside it again and again.
                key = (
                    pending.request_class,
                    pending.item.shape_key,
                    pending.item.stream_id,
                    pending.seq if pending.retries else None,
                )
                groups.setdefault(key, []).append(pending)
            due = []
            for key, group in groups.items():
                if key[3] is not None:
                    due.append((key, group, "retry"))
                else:
                    reason = self._due_reason(group, now)
                    if reason is not None:
                        due.append((key, group, reason))
            if not due:
                return
            progressed = False
            for key, group, reason in due:
                chunk = group[: self.config.max_batch_size]
                stream_id = key[2]
                if stream_id is not None:
                    worker = self._stream_worker(stream_id)
                else:
                    worker = self._idle_worker()
                if worker is not None:
                    self._remove_pending(chunk)
                    self._dispatch_to_worker(worker, key[:3], chunk, reason, now)
                    progressed = True
                elif reason == "retry":
                    # Suspects never run in-process: if the request is the
                    # poison that killed its workers, an inproc forward would
                    # kill the engine itself.  Wait for a worker restart —
                    # unless no slot can ever come back, which makes the
                    # suspect unservable: quarantine it now.
                    if self._workers and all(h.retired for h in self._workers):
                        self._remove_pending(chunk)
                        for pending in chunk:
                            self.stats.num_quarantined += 1
                            if not pending.future.done():
                                pending.future.set_exception(
                                    PoisonRequestError(
                                        pending.item.item_id,
                                        pending.retries,
                                        self.config.max_retries,
                                    )
                                )
                        progressed = True
                elif self.num_alive_workers == 0:
                    self._remove_pending(chunk)
                    self._run_inproc(key[:3], chunk, reason, now)
                    progressed = True
                # else: workers exist but are busy/starting — bounded
                # queueing: the batch dispatches as soon as one frees.
                # Stream-affine batches additionally wait for their *routed*
                # worker specifically, preserving per-stream frame order.
            if not progressed:
                return

    def _idle_worker(self) -> _WorkerHandle | None:
        for handle in self._workers:
            if handle.alive and handle.ready and handle.busy is None:
                return handle
        return None

    def _stream_worker(self, stream_id: str) -> _WorkerHandle | None:
        """Sticky routing for stream-affine batches.

        Returns the stream's routed worker only when it is idle — a busy
        routed worker means *wait* (frames of one stream never interleave
        across workers).  A dead or retired routed worker triggers a reroute
        to any idle worker: the new worker's session has no state for this
        stream, so its next frame cold-starts (deterministic resync via the
        session's frame-index discontinuity rule).
        """
        index = self._stream_routes.get(stream_id)
        if index is not None:
            handle = self._workers[index]
            if handle.alive and handle.ready:
                return handle if handle.busy is None else None
            # Routed worker is gone — fall through and reroute.
        handle = self._idle_worker()
        if handle is not None:
            self._stream_routes[stream_id] = handle.index
        return handle

    def _remove_pending(self, chunk: list[_Pending]) -> None:
        taken = set(id(p) for p in chunk)
        self._pending = deque(p for p in self._pending if id(p) not in taken)
        # Queue depth dropped: admit any submitter blocked on backpressure.
        self._space.notify_all()

    def _stack(self, chunk: list[_Pending]) -> np.ndarray:
        """Stack a chunk's features into the reused stacking arena.

        Safe to reuse per dispatch: worker dispatch pickles the array inside
        ``conn.send`` before returning, and the in-process paths consume it
        synchronously (``_resolve`` hands out per-request *copies*), so the
        buffer never escapes the dispatch that filled it.
        """
        first = chunk[0].item.features
        stacked = self._stack_plan.buffer(
            "stack", (len(chunk),) + first.shape, FLOAT_DTYPE
        )
        for row, pending in enumerate(chunk):
            np.copyto(stacked[row], pending.item.features)
        return stacked

    @staticmethod
    def _meta(
        key: tuple[str, ShapeKey, str | None], chunk: list[_Pending]
    ) -> tuple[tuple[str, int], ...] | None:
        """Per-request ``(stream_id, frame_index)`` for stream-affine batches
        (``None`` for stateless classes)."""
        if key[2] is None:
            return None
        return tuple((p.item.stream_id, p.item.frame_index) for p in chunk)

    def _dispatch_to_worker(
        self,
        handle: _WorkerHandle,
        key: tuple[str, ShapeKey, str | None],
        chunk: list[_Pending],
        reason: str,
        now: float,
    ) -> None:
        request_class, shape_key = key[0], key[1]
        batch = _Batch(
            batch_id=self._batch_seq,
            request_class=request_class,
            shape_key=shape_key,
            requests=chunk,
            dispatched_at=now,
        )
        self._batch_seq += 1
        shapes = tuple(chunk[0].item.spatial_shapes)
        message = (
            "batch",
            batch.batch_id,
            request_class,
            self._stack(chunk),
            shapes,
            self._meta(key, chunk),
            tuple(p.item.item_id for p in chunk),
        )
        try:
            _send_with_deadline(handle.conn, message, self.config.dispatch_timeout_s)
        except _PipeSendTimeout:
            # The worker stopped draining its pipe mid-dispatch.  The stream
            # may be corrupt after a partial frame, so the worker is
            # unsalvageable: kill it and requeue through the death path.
            handle.busy = batch
            self.stats.watchdog_kills += 1
            self._kill_process(handle)
            self._handle_death(handle, now)
            return
        except (BrokenPipeError, OSError):
            # The worker died between reap and dispatch: requeue and let the
            # next poll handle the death properly.
            handle.busy = batch
            self._handle_death(handle, now)
            return
        handle.busy = batch
        self.stats.batches.append(
            BatchRecord(
                request_class=request_class,
                shape_key=shape_key,
                size=len(chunk),
                path="worker",
                reason=reason,
                worker=handle.index,
            )
        )

    def _ensure_local_bank(self) -> ModelBank:
        if self._local_bank is None:
            self._local_bank = ModelBank.coerce(self.model_bank_factory())
        return self._local_bank

    def _run_inproc(
        self,
        key: tuple[str, ShapeKey, str | None],
        chunk: list[_Pending],
        reason: str,
        now: float,
    ) -> None:
        """Degraded/in-process execution: same forwards, same batching, so
        the outputs are bit-equal to what a worker would have served.

        Stream-affine classes run in the *local* bank's sessions here; if a
        stream previously ran on a now-dead worker, the local session sees a
        frame-index discontinuity and cold-resyncs deterministically (warm
        state is per-process, so outputs may differ from an uninterrupted
        run — the bit-equality gate therefore only covers kill-free runs).
        """
        request_class, shape_key = key[0], key[1]
        bank = self._ensure_local_bank()
        shapes = list(chunk[0].item.spatial_shapes)
        self.stats.batches.append(
            BatchRecord(
                request_class=request_class,
                shape_key=shape_key,
                size=len(chunk),
                path="inproc",
                reason=reason,
            )
        )
        try:
            output = bank.forward(
                request_class, self._stack(chunk), shapes, self._meta(key, chunk)
            )
        except Exception as error:  # noqa: BLE001 - delivered via the futures
            for pending in chunk:
                if not pending.future.done():
                    pending.future.set_exception(error)
            return
        batch = _Batch(
            batch_id=-1, request_class=request_class, shape_key=shape_key, requests=chunk
        )
        self._resolve(batch, output, self._clock())

    def _resolve(self, batch: _Batch, output: np.ndarray, now: float) -> None:
        if output.shape[0] != len(batch.requests):
            error = RuntimeError(
                f"forward returned a batch of {output.shape[0]} for "
                f"{len(batch.requests)} requests"
            )
            for pending in batch.requests:
                if not pending.future.done():
                    pending.future.set_exception(error)
            return
        for index, pending in enumerate(batch.requests):
            # Copy so a retained per-request output does not pin the whole
            # batch array.
            result = np.array(output[index])
            self.stats.latencies_s.append(now - pending.arrival)
            self.stats.num_completed += 1
            if not pending.future.done():
                pending.future.set_result(result)
