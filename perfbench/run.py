"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload encode_coco --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
inputs untraced and then traced and prints the per-layer metrics.  Every
metric is printed by name with its unit, the figures under the workload's
own names first, then as the last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The full record (machine stamp, sample counts, spans) is written to
``.perfbench/`` in the checkout.  The launcher pins BLAS and OpenMP to one
thread before NumPy loads, so the client, the engine's pump thread and its
worker process do not fight BLAS threads for the cores.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
}
"""Metric name -> unit of the untraced run (see BENCHMARK.json)."""

PER_LAYER = {
    "core.pipeline.query_proj_ms": "ms",
    "core.pipeline.value_proj_ms": "ms",
    "core.pipeline.neighbors_ms": "ms",
    "core.pipeline.fwp_ms": "ms",
    "core.pipeline.output_proj_ms": "ms",
    "kernels.gather_ms": "ms",
    "kernels.aggregate_ms": "ms",
    "nn.encoder.norm_ms": "ms",
    "nn.encoder.ffn_ms": "ms",
    "core.unattributed_ms": "ms",
    "core.pixel_keep_frac": "fraction",
    "core.point_keep_frac": "fraction",
    "core.pruned_gflop": "GFLOP",
    "kernels.achieved_gflops": "GFLOP/s",
    "kernels.arena_grows": "count",
    "kernels.arena_mb": "MB",
    "engine.submit_us_p50": "us",
    "engine.submit_us_p99": "us",
    "engine.batch_size_mean": "count",
    "engine.flush_full_frac": "fraction",
    "engine.flush_wait_frac": "fraction",
    "engine.forward_ms_p50": "ms",
    "engine.worker_busy_frac": "fraction",
    "engine.overhead_ms_mean": "ms",
    "engine.num_shed": "count",
    "engine.num_retried": "count",
    "engine.worker_deaths": "count",
    "streaming.frames_cold": "count",
    "streaming.frames_warm": "count",
    "streaming.frames_reused": "count",
    "streaming.computed_row_frac": "fraction",
    "streaming.cold_ms_p50": "ms",
    "streaming.warm_ms_p50": "ms",
    "traffic.gen_lag_p99_ms": "ms",
    "trace.overhead_frac": "fraction",
}
"""Metric name -> unit of the traced run (see BENCHMARK.json)."""

WORKLOAD_NAMES = ("encode_coco", "serve_mixed", "stream_video")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--tiny", action="store_true", help="toy model sizes, for the smoke test"
    )
    return parser.parse_args(argv)


def stamp(args: argparse.Namespace) -> dict:
    """What a record needs to be compared with another one."""
    import numpy as np

    from repro.kernels import COMPILED_AVAILABLE, get_backend, resolve_profile

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "backend": get_backend().name,
        "compiled_available": bool(COMPILED_AVAILABLE),
        "machine_profile": resolve_profile(None).name,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "python": sys.version.split()[0],
    }


def run(args: argparse.Namespace, import_s: float) -> dict:
    """Run one workload; return the result object and the full record."""
    from perfbench.workloads import WORKLOADS

    outcome = WORKLOADS[args.workload](
        args.seed, args.seconds, bool(args.trace), import_s, tiny=args.tiny
    )
    units = PER_LAYER if args.trace else END_TO_END
    unknown = set(outcome.metrics) - set(units)
    missing = set(units) - set(outcome.metrics)
    if unknown or (missing and not args.trace):
        raise RuntimeError(f"metrics unknown {sorted(unknown)}, missing {sorted(missing)}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            # A layer the workload does not exercise reads 0.
            name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()
        },
    }
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    report = list(outcome.report) + [("failed_frac", failed_frac, "fraction")]
    return {"result": result, "report": report, "record": outcome.record}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in THREAD_VARS:
        os.environ[name] = "1"  # before NumPy is first imported
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import perfbench.workloads  # noqa: F401 - loading the program is set-up time

    out = run(args, time.perf_counter() - START)
    meta = stamp(args)
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    for name, value, unit in out["report"]:
        print(f"{name:<28} {value:14.4f} {unit}")
    for name, metric in out["result"]["metrics"].items():
        print(f"{name:<28} {metric['value']:14.4f} {metric['unit']}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"stamp": meta, **out}, default=float))
    print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
