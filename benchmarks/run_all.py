"""Repo-standard benchmark harness: run every perf benchmark, emit one JSON.

Runs the batched-engine benchmark, the sparse-execution sweep and the other
probes, and writes one machine-readable record: ``{"name": "run_all",
"config": {...}, "benchmarks": [probe, ...]}``, where every probe has the
same layout (:class:`repro.eval.profiler.ProbeRecord`: ``name``, ``config``,
``timings_ms``, ``ratios``, ``serving``, ``counters``, ``equivalence``; see
``benchmarks/baselines/README.md``)::

    PYTHONPATH=src python benchmarks/run_all.py --json BENCH_all.json

Every probe that times variants uses one interleaved best-of-N timer
(:func:`repro.eval.profiler.time_interleaved`) and records N and the
per-variant spread next to the best times.

The record a run writes is scratch output (git ignores ``BENCH_*.json`` at
the repo root).  The committed record is
``benchmarks/baselines/BENCH_compact.json``: CI compares a fresh compact run
against it (or against the previous main-branch run) with
``benchmarks/compare_bench.py``.

``--scale compact`` (the default) keeps the iteration budget tight enough for
a CI smoke job; ``--scale paper`` reproduces the full paper-scale numbers of
``benchmarks/bench_sparse_speedup.py``.  ``--check`` exits non-zero when any
probe's ``equivalence`` entry drifts beyond its tolerance (sparse/dense,
batched/serial, backend/backend, served/serial), which is how CI guards the
numerics without asserting hardware-dependent speedups.

Run as a script, the harness pins BLAS and OpenMP to one thread: it sets
``OMP_NUM_THREADS``, ``OPENBLAS_NUM_THREADS`` and ``MKL_NUM_THREADS`` to 1
before NumPy is first imported, as ``perfbench/run.py`` does, and the
serving probes' worker processes inherit the setting.  Every probe is a
single-core measurement; threaded GEMM made the small ``batched_engine``
forwards bimodal on a shared host.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

if __name__ == "__main__":
    for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_name] = "1"  # before NumPy is first imported

# The sibling benchmark scripts are plain files, not a package; make them
# importable regardless of how this script is invoked (direct path, -m, ...).
sys.path.insert(0, str(Path(__file__).resolve().parent))

from repro.core.config import DEFAConfig
from repro.eval.profiler import (
    ProbeRecord,
    measure_encoder_batched_speedup,
    measure_encoder_blockwise_equivalence,
    measure_encoder_sparse_speedup,
    measure_kernel_fusion,
    measure_sparse_speedup,
    sweep_sparse_speedup,
)
from repro.kernels import (
    COMPILED_AVAILABLE,
    KERNEL_BACKENDS,
    get_backend,
    set_backend,
)
from repro.kernels.compiled_backend import COMPILED_EQUIVALENCE_TOL
from repro.nn.encoder import DeformableEncoder
from repro.utils.shapes import make_level_shapes
from repro.workloads.specs import get_workload

KERNEL_FUSION_EQUIVALENCE_TOL = 0.0
"""Fused-vs-reference backend drift bound: the fused backend performs the
same float operations in the same order, so the two are bit-identical —
any drift at all is an execution bug, hence the exact-zero tolerance.
The compiled backend has its *own* tier (``COMPILED_EQUIVALENCE_TOL``,
currently also 0.0) gated as a separate probe — a platform where the C
kernels cannot match numpy bit for bit would widen that tier explicitly
instead of loosening this gate."""

ENGINE_EQUIVALENCE_TOL = 1e-5
"""Batched-vs-serial engine outputs are float32-path only: strict tolerance."""

SPARSE_FP32_EQUIVALENCE_TOL = 1e-5
"""Sparse-vs-dense drift bound for unquantized configs."""

#: Sparse-sweep scale, repeats, serving-stream and video-stream length per
#: harness preset.
SCALE_PRESETS = {
    "compact": {
        "sparse_scale": "small",
        "repeats": 2,
        "serving_requests": 40,
        "streaming_frames": 6,
    },
    "medium": {
        "sparse_scale": "medium",
        "repeats": 3,
        "serving_requests": 64,
        "streaming_frames": 8,
    },
    "paper": {
        "sparse_scale": "paper",
        "repeats": 3,
        "serving_requests": 96,
        "streaming_frames": 8,
    },
}


def run_engine_benchmark(repeats: int) -> ProbeRecord:
    """The batched-engine speedup benchmark (see bench_batched_engine.py)."""
    shapes = make_level_shapes(32, 48, (8, 16))
    encoder = DeformableEncoder(
        num_layers=2,
        d_model=64,
        num_heads=4,
        num_levels=len(shapes),
        num_points=2,
        ffn_dim=128,
        rng=0,
    )
    # One-shot compact wall clocks jitter by ±30 %, past the bench-regression
    # fence; a best-of-3 floor keeps the ratio stable, as for kernel_fusion.
    report = measure_encoder_batched_speedup(
        encoder, shapes, batch_size=8, repeats=max(repeats, 3), rng=1
    )
    record = ProbeRecord(
        name="batched_engine",
        config={
            "batch_size": report.batch_size,
            "num_tokens": report.num_tokens,
            "d_model": report.d_model,
        },
        timings_ms=report.timings.ms(),
        ratios={"speedup": report.speedup},
    )
    record.gate("batched_engine", report.max_abs_diff, ENGINE_EQUIVALENCE_TOL)
    return record


def run_sparse_benchmark(sparse_scale: str, repeats: int) -> ProbeRecord:
    """The sparse-execution sweep: the probe record of
    ``bench_sparse_speedup.py`` without its paper-scale encoder parts."""
    from bench_sparse_speedup import sweep_record

    reports = sweep_sparse_speedup(scale=sparse_scale, repeats=repeats, rng_seed=0)
    return sweep_record(reports, repeats)


def run_encoder_sparse_benchmark(sparse_scale: str, repeats: int) -> ProbeRecord:
    """End-to-end block-sparse encoder against its partial profiles (INT12).

    Times the full :class:`DEFAEncoderRunner` (query pruning on, frozen-row
    semantics) all-dense, with sparse attention and a dense inter-block
    stage, and fully block-sparse on each kernel backend, so
    ``ffn_speedup`` isolates the additional win of the row-compacted
    FFN/LayerNorm stage.  The end-to-end diff is only a gated probe when
    both runs kept the same mask trajectory; pure execution-path drift is
    gated by the lockstep probes (``encoder_equivalence_fp32`` /
    ``encoder_equivalence_int12``).
    """
    from bench_sparse_speedup import ENCODER_NUM_LAYERS, encoder_ratios, gate_encoder

    workload = get_workload("deformable_detr", sparse_scale)
    # The tracked fused_speedup sits near 1x at compact scale, where one-shot
    # wall clocks jitter more than the bench-regression fence; a best-of-3
    # floor keeps the ratio stable (each extra repeat costs ~2 s there).
    report = measure_encoder_sparse_speedup(
        workload, num_layers=ENCODER_NUM_LAYERS, repeats=max(repeats, 3), rng=0
    )
    record = ProbeRecord(
        name="encoder_sparse",
        config={
            "workload": workload.name,
            "num_layers": report.num_layers,
            "fwp_k": report.fwp_k,
            "quant_bits": 12,
            "enable_query_pruning": True,
        },
        timings_ms=report.timings.ms(),
        ratios=encoder_ratios(report),
    )
    gate_encoder(record, report, "encoder_sparse", "encoder_sparse.compiled")
    return record


def _encoder_blockwise_probe(
    sparse_scale: str, quant_bits: int | None, tolerance: float, name: str
) -> ProbeRecord:
    """One lockstep block-wise encoder equivalence probe (see
    :func:`repro.eval.profiler.measure_encoder_blockwise_equivalence`): both
    paths get identical block inputs and incoming masks at every block, so
    threshold decisions cannot flip and the drift bound is machine-
    independent — strict 1e-5 for fp32, a few quantization steps for INT12.
    """
    from bench_sparse_speedup import ENCODER_EQUIV_NUM_LAYERS

    workload = get_workload("deformable_detr", sparse_scale)
    config = DEFAConfig(fwp_k=1.0, quant_bits=quant_bits, enable_query_pruning=True)
    drift = measure_encoder_blockwise_equivalence(
        workload, config=config, num_layers=ENCODER_EQUIV_NUM_LAYERS, rng=0
    )
    record = ProbeRecord(
        name=name,
        config={
            "workload": workload.name,
            "num_layers": ENCODER_EQUIV_NUM_LAYERS,
            "fwp_k": 1.0,
            "quant_bits": quant_bits,
            "enable_query_pruning": True,
        },
    )
    record.gate(name, drift, tolerance)
    return record


def run_encoder_fp32_equivalence(sparse_scale: str, repeats: int) -> ProbeRecord:
    """The block-sparse encoder held to the strict 1e-5 fp32 equivalence."""
    return _encoder_blockwise_probe(
        sparse_scale, None, SPARSE_FP32_EQUIVALENCE_TOL, "encoder_equivalence_fp32"
    )


def run_encoder_int12_equivalence(sparse_scale: str, repeats: int) -> ProbeRecord:
    """The INT12 block-sparse encoder within its quantization-step bound."""
    from bench_sparse_speedup import ENCODER_INT12_TOL

    return _encoder_blockwise_probe(
        sparse_scale, 12, ENCODER_INT12_TOL, "encoder_equivalence_int12"
    )


def run_kernel_fusion_benchmark(sparse_scale: str, repeats: int) -> ProbeRecord:
    """Fused-vs-reference kernel backend on one sparse DEFA block.

    Times the identical sparse execution (same inputs, same masks) on every
    available kernel backend and reports the speedups plus the output drift
    — gated at exactly zero, because the fused backend is bit-identical by
    construction.  The compiled backend's drift is its own probe
    (``kernel_fusion.compiled``) under its own tier, so a diverging platform
    would widen that tier explicitly, never the fused-vs-reference 0.0.
    """
    workload = get_workload("deformable_detr", sparse_scale)
    # The tracked ratio sits near 1x at compact scale, where one-shot wall
    # clocks jitter more than the bench-regression fence; a best-of-3 floor
    # keeps the probe stable at negligible cost (the block runs in ~30 ms).
    report = measure_kernel_fusion(workload, repeats=max(repeats, 3), rng=0)
    record = ProbeRecord(
        name="kernel_fusion",
        config={
            "workload": workload.name,
            "backends": list(KERNEL_BACKENDS),
            "compiled_available": COMPILED_AVAILABLE,
        },
        timings_ms=report.timings.ms(),
        ratios={"speedup": report.speedup},
    )
    if report.compiled_speedup is not None:
        record.ratios["compiled_speedup"] = report.compiled_speedup
        record.gate(
            "kernel_fusion.compiled", report.compiled_max_abs_diff, COMPILED_EQUIVALENCE_TOL
        )
    record.gate("kernel_fusion", report.max_abs_diff, KERNEL_FUSION_EQUIVALENCE_TOL)
    return record


def run_sparse_fp32_equivalence(sparse_scale: str, repeats: int) -> ProbeRecord:
    """One unquantized operating point, held to the strict 1e-5 equivalence.

    Query pruning is enabled so the probe covers the full sparse-v2 surface:
    compacted trace construction, row-compacted query/offset/output
    projections and the compacted gather, all against the equivalent
    masked-dense execution.
    """
    workload = get_workload("deformable_detr", sparse_scale)
    config = DEFAConfig(fwp_k=1.0, quant_bits=None, enable_query_pruning=True)
    # Best-of-3 floor, as for batched_engine: one-shot ratios jitter past
    # the bench-regression fence.
    report = measure_sparse_speedup(workload, config, repeats=max(repeats, 3), rng=0)
    record = ProbeRecord(
        name="sparse_equivalence_fp32",
        config={
            "workload": workload.name,
            "fwp_k": 1.0,
            "quant_bits": None,
            "enable_query_pruning": True,
        },
        timings_ms=report.timings.ms(),
        ratios={"speedup": report.speedup},
    )
    record.gate("sparse_equivalence_fp32", report.max_abs_diff, SPARSE_FP32_EQUIVALENCE_TOL)
    return record


def run_serving_benchmark(serving_requests: int, repeats: int) -> ProbeRecord:
    """The serving-engine probe (see ``bench_serving.py``): one worker, a
    forced kill mid-stream, mixed shapes and fp32/INT12 request classes.

    The gated quantity is the served-vs-serial drift at exactly zero — it
    covers the whole scheduler surface *including* the worker death and the
    degraded-mode fallback, and is machine-independent because scheduling
    cannot change results.  The latency/throughput numbers are tracked as a
    trajectory by ``compare_bench.py`` behind a widened fence (latency
    percentiles of short single-core runs jitter far more than best-of-N
    ratios).
    """
    from bench_serving import serving_record, serving_report

    # Pin the harness backend into the per-class configs: the bank spec is
    # rebuilt inside worker *processes*, which otherwise use their own
    # process default rather than this process's --backend selection.
    backend = get_backend().name
    kill_at = serving_requests // 3
    report = serving_report(
        num_workers=1,
        num_requests=serving_requests,
        kill_worker_at=kill_at,
        repeats=repeats,
        backend=backend,
    )
    return serving_record(report, kill_worker_at=kill_at, backend=backend)


def run_serving_faults_benchmark(serving_requests: int, repeats: int) -> ProbeRecord:
    """The chaos probe (PR 10, see ``bench_serving.py``): one replay through
    a scripted crash, a watchdog-killed 30 s hang and a transient raise.

    The gated quantity is the served-vs-serial drift at exactly zero
    *through every fault* — the request-lifecycle machinery (requeue, retry
    budget, watchdog, backoff restart) must be invisible in the outputs.
    The probe additionally hard-fails if the faults did not actually fire
    or the engine did not recover, so it can never silently degrade into a
    fault-free replay that gates nothing.
    """
    from bench_serving import serving_faults_record, serving_faults_report

    backend = get_backend().name
    report = serving_faults_report(
        num_requests=serving_requests, repeats=repeats, backend=backend
    )
    if report.worker_deaths != 2 or report.watchdog_kills != 1:
        raise RuntimeError(
            "serving_faults probe lost coverage: expected the scripted crash "
            "plus one watchdog kill, observed "
            f"deaths={report.worker_deaths} watchdog_kills={report.watchdog_kills}"
        )
    if report.mode != "primary" or report.num_failed or report.num_quarantined:
        raise RuntimeError(
            "serving_faults probe did not recover cleanly: "
            f"mode={report.mode!r} num_failed={report.num_failed} "
            f"num_quarantined={report.num_quarantined}"
        )
    return serving_faults_record(report, backend=backend)


def run_streaming_benchmark(
    sparse_scale: str, streaming_frames: int, repeats: int
) -> ProbeRecord:
    """The streaming-session probe (see ``bench_streaming.py``): a low-motion
    synthetic video encoded by a warm session against an every-frame-cold one.

    The tracked quantity is the steady-state vs cold-start per-frame speedup
    (temporal reuse, isolated from arena effects — both sessions keep warm
    arenas); the gated quantities are the lockstep replay drifts of the
    recorded warm masks under the usual fp32/INT12 tiers
    (``streaming.encoder_blockwise.*`` in ``--check``).  Note the speedup
    legitimately shrinks below the paper-scale fence at compact scales, where
    the cell-denominated dilation radii cover most of the coarse grids — the
    1.3x acceptance gate lives in ``bench_streaming.py`` at paper scale.
    """
    from bench_streaming import run_streaming_benchmark as run_streaming

    return run_streaming(
        scale=sparse_scale, num_frames=streaming_frames, repeats=repeats
    )


#: Every harness probe by record name, in run order.  The lambdas resolve the
#: runner functions *at call time* through module globals, so tests (and any
#: other caller) can monkeypatch ``run_all.run_engine_benchmark`` etc. by name
#: and still go through the registry.  ``--only`` validates against these keys.
PROBE_RUNNERS = {
    "batched_engine": lambda preset, repeats: run_engine_benchmark(repeats),
    "sparse_speedup": lambda preset, repeats: run_sparse_benchmark(
        preset["sparse_scale"], repeats
    ),
    "encoder_sparse": lambda preset, repeats: run_encoder_sparse_benchmark(
        preset["sparse_scale"], repeats
    ),
    "kernel_fusion": lambda preset, repeats: run_kernel_fusion_benchmark(
        preset["sparse_scale"], repeats
    ),
    "sparse_equivalence_fp32": lambda preset, repeats: run_sparse_fp32_equivalence(
        preset["sparse_scale"], repeats
    ),
    "encoder_equivalence_fp32": lambda preset, repeats: run_encoder_fp32_equivalence(
        preset["sparse_scale"], repeats
    ),
    "encoder_equivalence_int12": lambda preset, repeats: run_encoder_int12_equivalence(
        preset["sparse_scale"], repeats
    ),
    "serving": lambda preset, repeats: run_serving_benchmark(
        preset["serving_requests"], repeats
    ),
    "serving_faults": lambda preset, repeats: run_serving_faults_benchmark(
        preset["serving_requests"], repeats
    ),
    "streaming": lambda preset, repeats: run_streaming_benchmark(
        preset["sparse_scale"], preset["streaming_frames"], repeats
    ),
}


def equivalence_probes(record: dict) -> list[dict]:
    """Every probe's ``equivalence`` entries with a pass/fail ``ok`` flag, so
    ``--check`` can say exactly *which* probe drifted (``compare_bench.py``
    gates the same entries in CI)."""
    from compare_bench import equivalence_entries

    return [
        {**probe, "ok": probe["max_abs_diff"] <= probe["tolerance"]}
        for probe in equivalence_entries(record)
    ]


def _summary(probe: dict) -> str:
    parts = [f"{key} {value:.2f}x" for key, value in probe["ratios"].items()]
    parts += [f"{key} {m['value']:.1f}" for key, m in probe["serving"].items()]
    if probe["equivalence"]:
        drift = max(e["max_abs_diff"] for e in probe["equivalence"])
        parts.append(f"max |diff| {drift:.2e}")
    return ", ".join(parts)


def _scale_arg(value: str) -> str:
    if value not in SCALE_PRESETS:
        raise argparse.ArgumentTypeError(
            f"unknown scale {value!r}; known scales: {', '.join(sorted(SCALE_PRESETS))}"
        )
    return value


def _positive_int(value: str) -> int:
    try:
        parsed = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {value!r}") from None
    if parsed <= 0:
        raise argparse.ArgumentTypeError(f"repeats must be a positive integer, got {parsed}")
    return parsed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--json", type=Path, default=Path("BENCH_all.json"),
                        help="output path of the machine-readable record")
    parser.add_argument("--scale", type=_scale_arg, default="compact",
                        metavar="{" + ",".join(sorted(SCALE_PRESETS)) + "}",
                        help="iteration budget: compact (CI smoke) ... paper (full numbers)")
    parser.add_argument("--repeats", type=_positive_int, default=None,
                        help="override best-of-N repeats of every benchmark")
    parser.add_argument("--backend", choices=KERNEL_BACKENDS, default=None,
                        help="kernel backend every probe executes with (default: the "
                             "process default — REPRO_KERNEL_BACKEND or 'fused'; "
                             "'compiled' falls back to 'fused' with a warning when the "
                             "extension is not built); the kernel_fusion probe always "
                             "times every available backend")
    parser.add_argument("--only", default=None, metavar="NAME[,NAME...]",
                        help="run only the named probes, comma-separated (known: "
                             + ", ".join(PROBE_RUNNERS) + "); used by the CI chaos "
                             "leg to gate the serving fault probes without paying "
                             "for the full harness")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero if sparse/dense or batched/serial equivalence "
                             "drifts, with a per-probe summary")
    args = parser.parse_args(argv)

    preset = SCALE_PRESETS[args.scale]
    repeats = args.repeats if args.repeats is not None else preset["repeats"]
    if args.only is not None:
        selected = [name.strip() for name in args.only.split(",") if name.strip()]
        unknown = sorted(set(selected) - set(PROBE_RUNNERS))
        if unknown:
            parser.error(
                f"unknown probe(s) {', '.join(map(repr, unknown))}; "
                f"known probes: {', '.join(PROBE_RUNNERS)}"
            )
        if not selected:
            parser.error("--only requires at least one probe name")
    else:
        selected = list(PROBE_RUNNERS)
    if args.backend is not None:
        set_backend(args.backend)

    print(
        f"running benchmarks (scale={args.scale}, repeats={repeats}, "
        f"backend={get_backend().name}) ..."
    )
    record = {
        "name": "run_all",
        "config": {
            "scale": args.scale,
            "repeats": repeats,
            "kernel_backend": get_backend().name,
        },
        "benchmarks": [
            asdict(PROBE_RUNNERS[name](preset, repeats)) for name in selected
        ],
    }
    if args.only is not None:
        # Recorded so a partial record can never be mistaken for (or compared
        # against) a full harness run by compare_bench.py.
        record["config"]["only"] = selected

    args.json.write_text(json.dumps(record, indent=2) + "\n")
    for bench in record["benchmarks"]:
        print(f"  {bench['name']}: {_summary(bench)}")
    print(f"wrote {args.json}")

    if args.check:
        probes = equivalence_probes(record)
        print(f"equivalence check ({len(probes)} probes):")
        for probe in probes:
            status = "ok  " if probe["ok"] else "DRIFT"
            print(
                f"  [{status}] {probe['probe']}: max |diff| "
                f"{probe['max_abs_diff']:.2e} (tol {probe['tolerance']:.0e})"
            )
        failures = [p for p in probes if not p["ok"]]
        if failures:
            for probe in failures:
                print(
                    f"EQUIVALENCE DRIFT: {probe['probe']}: max |diff| "
                    f"{probe['max_abs_diff']:.2e} exceeds tolerance "
                    f"{probe['tolerance']:.0e}",
                    file=sys.stderr,
                )
            print(f"{len(failures)} of {len(probes)} probes drifted", file=sys.stderr)
            return 1
        print("equivalence check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
