"""Batched multi-image execution engine.

This package is the scaling layer on top of the single-image reproduction:

* :mod:`repro.engine.batching` — :class:`BatchRunner` groups same-shape
  workload inputs and executes them through the vectorized batched kernels;
* :mod:`repro.engine.parallel` — process-parallel experiment execution behind
  the ``--jobs`` flag of :mod:`repro.experiments.runner`;
* :mod:`repro.engine.serving` — :class:`ServingEngine`, the long-running
  scheduler that streams requests into persistent warm workers with a
  degraded in-process fallback;
* :mod:`repro.engine.streaming` — :class:`StreamingEncoderSession`, per-stream
  temporal reuse (warm-started FWP masks, cross-frame frozen rows, exact
  trace-reuse fast path) over the PR 5 warm execution-plan arenas;
* :mod:`repro.engine.traffic` — synthetic serving traffic (uniform / bursty /
  diurnal arrivals over mixed pyramid shapes and request classes);
* :mod:`repro.engine.faults` — :class:`FaultPlan`, the deterministic
  worker-fault script (crash / hang / raise / poison) that drives
  the PR 10 request-lifecycle hardening in tests and benchmarks.

The names re-exported here (see ``__all__``) are the package's supported
public surface — import them as ``from repro.engine import ServingEngine``.
Anything reachable only through a submodule path (leading-underscore helpers,
worker internals) is implementation detail and may change between PRs.
"""

from repro.engine.batching import (
    BatchRunner,
    BatchRunResult,
    BatchRunStats,
    WorkItem,
    defa_forward_fn,
)
from repro.engine.faults import (
    FAULT_KINDS,
    FaultInjectedError,
    FaultPlan,
    FaultSpec,
)
from repro.engine.parallel import ParallelExperimentError, run_experiments_parallel
from repro.engine.serving import (
    DEFAULT_REQUEST_CLASS,
    BatchRecord,
    DeadlineExceeded,
    ModelBank,
    ModelBankSpec,
    PoisonRequestError,
    QueueFullError,
    ServingConfig,
    ServingEngine,
    ServingStats,
    StreamingClassServer,
    WorkerError,
)
from repro.engine.streaming import (
    StreamingConfig,
    StreamingEncoderSession,
    StreamingFrameResult,
)
from repro.engine.traffic import (
    ARRIVAL_PROCESSES,
    ReplayResult,
    TrafficEvent,
    generate_traffic,
    replay_traffic,
    serial_reference_outputs,
)

__all__ = [
    "BatchRunner",
    "BatchRunResult",
    "BatchRunStats",
    "WorkItem",
    "defa_forward_fn",
    "ParallelExperimentError",
    "run_experiments_parallel",
    "FAULT_KINDS",
    "FaultInjectedError",
    "FaultPlan",
    "FaultSpec",
    "DEFAULT_REQUEST_CLASS",
    "BatchRecord",
    "DeadlineExceeded",
    "ModelBank",
    "ModelBankSpec",
    "PoisonRequestError",
    "QueueFullError",
    "ServingConfig",
    "ServingEngine",
    "ServingStats",
    "StreamingClassServer",
    "WorkerError",
    "StreamingConfig",
    "StreamingEncoderSession",
    "StreamingFrameResult",
    "ARRIVAL_PROCESSES",
    "ReplayResult",
    "TrafficEvent",
    "generate_traffic",
    "replay_traffic",
    "serial_reference_outputs",
]
