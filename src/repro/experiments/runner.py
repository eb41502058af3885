"""Run every registered experiment and print/serialize the results.

Usage::

    python -m repro.experiments.runner            # run everything
    python -m repro.experiments.runner fig6b fig7a  # run a subset
    python -m repro.experiments.runner --jobs 4   # run across 4 processes

With ``--jobs N`` the experiments are distributed over N worker processes
(see :mod:`repro.engine.parallel`); every experiment is deterministic, so the
results are identical to a serial run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS
from repro.experiments.common import ExperimentResult
from repro.utils.serialization import save_json


def _report(
    experiment_id: str,
    result: ExperimentResult,
    elapsed: float | None,
    output_dir: str | Path | None,
) -> None:
    print(result.as_table())
    if elapsed is not None:
        print(f"[{experiment_id} finished in {elapsed:.1f}s]\n")
    else:
        print()
    if output_dir is not None:
        save_json(
            Path(output_dir) / f"{experiment_id}.json",
            {
                "experiment_id": result.experiment_id,
                "title": result.title,
                "headers": result.headers,
                "rows": result.rows,
                "notes": result.notes,
                "data": result.data,
            },
        )


def run_experiments(
    ids: list[str] | None = None,
    output_dir: str | Path | None = None,
    jobs: int = 1,
) -> dict[str, ExperimentResult]:
    """Run the selected experiments (all of them by default).

    ``jobs > 1`` distributes the experiments over that many worker processes;
    results (and their serialization) are identical to a serial run because
    every experiment is deterministic.
    """
    selected = ids or sorted(EXPERIMENTS)
    unknown = [i for i in selected if i not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment ids {unknown}; available: {sorted(EXPERIMENTS)}")
    if jobs <= 0:
        raise ValueError("jobs must be positive")

    results: dict[str, ExperimentResult] = {}
    if jobs > 1:
        from repro.engine.parallel import run_experiments_parallel

        start = time.time()
        # Report (and persist) each result as it completes, so one failing
        # experiment does not discard the finished ones — the same
        # save-as-you-go behaviour as the serial path.  Experiments run
        # concurrently, so per-experiment wall clocks are not observable;
        # the suite total is printed once at the end instead.
        results = run_experiments_parallel(
            selected,
            jobs,
            on_result=lambda experiment_id, result: _report(
                experiment_id, result, None, output_dir
            ),
        )
        elapsed = time.time() - start
        print(
            f"[{len(selected)} experiments finished in {elapsed:.1f}s "
            f"across {min(jobs, len(selected))} worker processes]\n"
        )
        return results

    for experiment_id in selected:
        start = time.time()
        result = EXPERIMENTS[experiment_id]()
        elapsed = time.time() - start
        results[experiment_id] = result
        _report(experiment_id, result, elapsed, output_dir)
    return results


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run the DEFA reproduction experiments")
    parser.add_argument("experiments", nargs="*", help="experiment ids (default: all)")
    parser.add_argument("--output-dir", default="results", help="directory for JSON results")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="number of worker processes (default: 1, serial)",
    )
    args = parser.parse_args(argv)
    run_experiments(args.experiments or None, output_dir=args.output_dir, jobs=args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
