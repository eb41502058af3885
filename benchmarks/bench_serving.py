"""Benchmark of the sharded serving engine under synthetic traffic.

Replays a deterministic bursty traffic stream — mixed pyramid shapes, mixed
request classes (fp32 and INT12 pruning configs) — through a
:class:`~repro.engine.serving.ServingEngine` and reports p50/p99 request
latency, throughput and scheduling overhead, plus the same profile per worker
count (0 = in-process, 1, 2).

The container is single-core, so the *gates* are scheduling correctness
(served outputs bit-equal to the serial per-image loop, including through a
forced worker kill and the degraded-mode fallback) and bounded overhead;
worker-count scaling is printed as informational only — extra worker
processes on one core add IPC and serialization cost without adding compute.
"""

from conftest import run_once

from repro.core.config import DEFAConfig
from repro.engine.faults import FaultPlan
from repro.engine.serving import ModelBankSpec, ServingConfig
from repro.engine.traffic import generate_traffic
from repro.eval.profiler import ProbeRecord, measure_serving_latency
from repro.utils.shapes import LevelShape

SERVING_EQUIVALENCE_TOL = 0.0
"""Served-vs-serial drift bound: the batched kernels are bit-equal to the
per-image loop for any batch composition (per-image auto-dispatch, per-image
quantization scales), so *no* scheduling decision — batch packing, worker
placement, degraded fallback — may change a served output.  Exact zero."""

SERVING_D_MODEL = 64
SERVING_MAX_BATCH_SIZE = 4
SERVING_RESTART_BACKOFF_S = 0.05

#: Weighted mixed-shape pyramid set of the synthetic traffic (two small
#: signatures so the scheduler constantly re-groups, plus a rarer third).
SERVING_SHAPE_MIX = (
    ((LevelShape(8, 12), LevelShape(4, 6)), 2.0),
    ((LevelShape(6, 8), LevelShape(3, 4)), 2.0),
    ((LevelShape(10, 14), LevelShape(5, 7)), 1.0),
)


def serving_bank_spec(backend: str | None = None) -> ModelBankSpec:
    """The two-class model bank every serving benchmark/probe serves with.

    ``fp32`` is the unquantized sparse pipeline, ``int12`` the quantized one
    with query pruning — together they cover both equivalence regimes of the
    acceptance criteria on one shared encoder.  ``backend`` pins the kernel
    backend of the whole bank (the spec travels to worker *processes*, whose
    default backend is their own, not the benchmark process's) — a worker
    asked for ``"compiled"`` on a host without the built extension falls
    back to ``"fused"`` via the registry, which ``worker_stats()`` reports.
    """
    return ModelBankSpec(
        num_layers=2,
        d_model=SERVING_D_MODEL,
        num_heads=4,
        num_levels=2,
        num_points=2,
        ffn_dim=128,
        rng_seed=0,
        classes=(
            ("fp32", DEFAConfig(quant_bits=None)),
            ("int12", DEFAConfig(quant_bits=12, enable_query_pruning=True)),
        ),
        kernel_backend=backend,
    )


def serving_traffic(num_requests: int, seed: int = 7):
    """The deterministic bursty mixed-shape/mixed-class benchmark stream."""
    return generate_traffic(
        num_requests,
        mean_rate_rps=500.0,
        d_model=SERVING_D_MODEL,
        shape_mix=SERVING_SHAPE_MIX,
        class_mix=(("fp32", 1.0), ("int12", 1.0)),
        process="bursty",
        seed=seed,
    )


def serving_config(num_workers: int) -> ServingConfig:
    return ServingConfig(
        max_batch_size=SERVING_MAX_BATCH_SIZE,
        num_workers=num_workers,
        restart_backoff_s=SERVING_RESTART_BACKOFF_S,
    )


def serving_report(
    num_workers: int = 1,
    num_requests: int = 48,
    kill_worker_at: int | None = None,
    repeats: int = 2,
    backend: str | None = None,
):
    """One full serving profile (see ``measure_serving_latency``)."""
    spec = serving_bank_spec(backend=backend)
    events = serving_traffic(num_requests)
    return measure_serving_latency(
        spec.build,
        events,
        config=serving_config(num_workers),
        speed=0.0,  # open loop: saturates the queue, exercises max-batch flushes
        kill_worker_at=kill_worker_at,
        repeats=repeats,
    )


SERVING_COUNTERS = (
    "mean_batch_size",
    "worker_deaths",
    "worker_restarts",
    "primary_batches",
    "degraded_batches",
    "num_shed",
    "num_expired",
    "num_retried",
    "num_quarantined",
    "watchdog_kills",
    "num_failed",
)
"""The request-lifecycle counters every serving record carries.  Their values
depend on the scripted faults and on scheduler timing, so ``compare_bench``
gates only their presence: a record that stops carrying one has lost
fault-model coverage."""


def _serving_record(report, name: str, backend: str | None, config: dict) -> ProbeRecord:
    timings_ms = report.timings.ms()
    timings_ms["best"]["replay"] = 1e3 * report.elapsed_s  # one replay, no spread
    record = ProbeRecord(
        name=name,
        config={
            "num_requests": report.num_requests,
            "num_workers": report.num_workers,
            "max_batch_size": SERVING_MAX_BATCH_SIZE,
            "process": "bursty",
            "classes": ["fp32", "int12"],
            "kernel_backend": backend or "default",
            **config,
        },
        timings_ms=timings_ms,
        serving={
            "p50_ms": {"value": 1e3 * report.p50_s, "better": "lower"},
            "p99_ms": {"value": 1e3 * report.p99_s, "better": "lower"},
            "throughput_rps": {"value": report.throughput_rps, "better": "higher"},
        },
        counters={key: getattr(report, key) for key in SERVING_COUNTERS},
    )
    record.gate(name, report.max_abs_diff, SERVING_EQUIVALENCE_TOL)
    return record


def serving_record(
    report, kill_worker_at: int | None, backend: str | None = None
) -> ProbeRecord:
    """The probe record of one serving profile (``run_all``'s ``serving``)."""
    return _serving_record(report, "serving", backend, {"kill_worker_at": kill_worker_at})


# --------------------------------------------------------------------------
# Fault-plan probe (PR 10): scripted crash + hang + raise in one replay

SERVING_FAULTS_BATCH_TIMEOUT_S = 0.75
"""Watchdog bound of the fault probe — generous against single-core
scheduling jitter, tiny against the scripted 30 s hang."""

SERVING_FAULTS_PLAN = (
    FaultPlan()
    # Incarnation 0 hard-crashes on its third batch (mid-stream).
    .with_crash(batch=2)
    # Its replacement hangs 30 s on its first batch: only the engine-side
    # watchdog can reclaim the slot.
    .with_hang(seconds=30.0, batch=0, incarnation=1)
    # The third incarnation raises a retryable fault once, then serves.
    .with_raise(batch=1, incarnation=2)
)
"""One replay through all three recoverable fault kinds, chained across
worker incarnations: crash -> watchdog-killed hang -> transient raise."""


def serving_faults_config() -> ServingConfig:
    return ServingConfig(
        max_batch_size=SERVING_MAX_BATCH_SIZE,
        num_workers=1,
        restart_backoff_s=0.02,  # short: the probe rides through two restarts
        batch_timeout_s=SERVING_FAULTS_BATCH_TIMEOUT_S,
        # Requests can be in flight for several chained faults here; the
        # probe asserts nothing was quarantined, so give headroom over the
        # scripted worst case (crash + watchdog kill + raise = 3 retries).
        max_retries=5,
    )


def serving_faults_report(num_requests: int = 48, repeats: int = 2, backend=None):
    """Replay the benchmark stream through ``SERVING_FAULTS_PLAN``."""
    return measure_serving_latency(
        serving_bank_spec(backend=backend),
        serving_traffic(num_requests),
        config=serving_faults_config(),
        speed=0.0,
        repeats=repeats,
        fault_plan=SERVING_FAULTS_PLAN,
    )


def serving_faults_record(report, backend: str | None = None) -> ProbeRecord:
    """The probe record of the fault probe (``run_all``'s ``serving_faults``)."""
    fault_plan = {
        "faults": [
            {
                "kind": f.kind,
                "batch": f.batch,
                "worker": f.worker,
                "incarnation": f.incarnation,
                "seconds": f.seconds,
            }
            for f in SERVING_FAULTS_PLAN.faults
        ],
        "batch_timeout_s": SERVING_FAULTS_BATCH_TIMEOUT_S,
    }
    return _serving_record(report, "serving_faults", backend, {"fault_plan": fault_plan})


def _print_report(label: str, report) -> None:
    print(
        f"{label}: p50 {1e3 * report.p50_s:.1f} ms, p99 {1e3 * report.p99_s:.1f} ms, "
        f"throughput {report.throughput_rps:.1f} req/s, overhead {report.overhead:.2f}x, "
        f"batches {report.num_batches} (mean size {report.mean_batch_size:.2f}), "
        f"deaths {report.worker_deaths}, degraded batches {report.degraded_batches}, "
        f"max |diff| {report.max_abs_diff:.2e}"
    )


def test_serving_latency_under_fault(benchmark):
    """The gated profile: one worker, forced kill mid-stream.

    Served outputs must stay bit-equal to the serial per-image loop *through*
    the worker death and the degraded-mode fallback, and the kill must
    actually have been observed (otherwise the probe silently stops covering
    the fault path).
    """
    report = run_once(
        benchmark, serving_report, num_workers=1, num_requests=48, kill_worker_at=16
    )
    print()
    _print_report("1 worker + kill@16", report)
    assert report.max_abs_diff == SERVING_EQUIVALENCE_TOL
    assert report.worker_deaths >= 1
    # The kill strands >= 30 queued requests with no worker alive until the
    # restart backoff expires, so some batches must have served degraded.
    assert report.degraded_batches >= 1
    # Scheduling overhead on the single-core container: the worker path pays
    # IPC + pickling on top of the serial loop.  Calibrated ~2-3x here; the
    # fence catches structural regressions (e.g. a poll loop going quadratic),
    # not jitter.  This benchmark is deliberately not part of the CI tier-1
    # run.
    assert report.overhead <= 8.0


def test_serving_fault_plan_recovery(benchmark):
    """The chaos profile: crash, watchdog-killed hang and transient raise in
    one replay, every served output still bit-equal to the serial loop.

    This is the acceptance gate of the PR 10 fault model: the injected
    faults must actually have fired (two deaths, one of them the watchdog's
    kill), nothing may be quarantined or lost, and the engine must end the
    replay back in primary mode.
    """
    report = run_once(benchmark, serving_faults_report, num_requests=48)
    print()
    _print_report("crash+hang+raise plan", report)
    assert report.max_abs_diff == SERVING_EQUIVALENCE_TOL
    assert report.worker_deaths == 2  # scripted crash + watchdog kill
    assert report.watchdog_kills == 1
    assert report.num_retried >= 1  # the raise fault requeues its batch
    assert report.num_quarantined == 0
    assert report.num_failed == 0  # every request served despite the faults
    assert report.mode == "primary"


def test_serving_worker_sweep(benchmark):
    """Informational: the same stream at 0 / 1 / 2 workers.

    Single-core container — worker counts cannot speed anything up; the sweep
    documents the IPC cost of each configuration and re-gates bit-equality on
    every path (in-process engine included)."""

    def sweep():
        return [
            (n, serving_report(num_workers=n, num_requests=32, repeats=1))
            for n in (0, 1, 2)
        ]

    reports = run_once(benchmark, sweep)
    print()
    for num_workers, report in reports:
        _print_report(f"{num_workers} workers", report)
        assert report.max_abs_diff == SERVING_EQUIVALENCE_TOL
        assert report.worker_deaths == 0
