"""Compare two benchmark records and fail on speedup regressions or drift.

The repo-standard harness (``benchmarks/run_all.py``) and the sparse-speedup
benchmark both emit machine-readable ``BENCH_*.json`` records: a
``benchmarks`` list of probe records, each in the one layout of
:class:`repro.eval.profiler.ProbeRecord` (``name``, ``config``,
``timings_ms``, ``ratios``, ``serving``, ``counters``, ``equivalence``; see
``benchmarks/baselines/README.md``).  This tool reads only the last four
sections.  It diffs a *current* record against a *baseline* record (the
previous main-branch artifact, or the committed reference under
``benchmarks/baselines/``), qualifies every metric by its probe name
(``kernel_fusion.compiled_speedup``, ``serving.p99_ms``, ...) and exits
non-zero when

* the baseline yields no tracked metric at all (no ``ratios``, ``serving``
  or ``counters`` entry in any probe) — a baseline in a layout this tool
  cannot read would otherwise gate nothing, even under ``--allow-missing``,
* any **ratio** regresses by more than ``--tolerance`` (relative; default
  20 % — wall-clock ratios are hardware-dependent and jitter between
  runners, so the gate guards the trajectory, not the exact number),
* any **serving metric** (p50/p99 latency, throughput, each with the
  direction that is better) regresses past the widened
  :data:`LATENCY_FENCE_FACTOR` fence — percentiles of one short replay
  jitter more than best-of-N ratios, so their fence only catches structural
  regressions,
* any **equivalence** entry of the current record drifts beyond its own
  recorded tolerance (numerics are machine-independent, so this is exact),
* a **counter** tracked by the baseline disappears from the current record —
  the request-lifecycle values are workload-dependent and purely
  informational, but a record that silently stops carrying one has lost
  fault-model coverage, so the *presence* fence is structural, or
* a ratio or serving metric tracked by the baseline disappears from the
  current record.

``--allow-missing`` downgrades the last two to a warning, for comparing
records from hosts without the compiled extension.

Usage::

    python benchmarks/compare_bench.py --baseline BENCH_old.json \
        --current BENCH_new.json --tolerance 0.2

CI wires this as the ``bench-regression`` job: it downloads the previous
main-branch ``bench-smoke`` artifact when one is reachable and this tool
reads it (compared against itself), and falls back to the committed
baseline otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Default relative speedup-regression tolerance (20 %).
DEFAULT_TOLERANCE = 0.2

#: Extra widening of the serving latency/throughput fence on top of the
#: speedup tolerance.  Serving percentiles come from one short replay of a
#: bursty stream on a single shared-CI core — they jitter far more than the
#: best-of-N wall-clock *ratios* the speedup gate tracks — so the fence is
#: ``(1 + tolerance) * LATENCY_FENCE_FACTOR``-fold: it catches structural
#: regressions (a poll loop going quadratic, a lost batch stalling the
#: queue), not scheduler noise.
LATENCY_FENCE_FACTOR = 2.0

#: The record sections holding tracked metrics, keyed per probe.
TRACKED_SECTIONS = ("ratios", "serving", "counters")


def _probes(record: dict) -> list[dict]:
    benchmarks = record.get("benchmarks")
    return [p for p in benchmarks if isinstance(p, dict)] if isinstance(benchmarks, list) else []


def tracked(record: dict, section: str) -> dict[str, object]:
    """One tracked section of every probe, as ``{"probe.key": entry}``."""
    return {
        f"{probe.get('name')}.{key}": entry
        for probe in _probes(record)
        for key, entry in (probe.get(section) or {}).items()
    }


def equivalence_entries(record: dict) -> list[dict]:
    """Every probe's ``equivalence`` entries (``probe``, ``max_abs_diff``,
    ``tolerance``), in record order — what both this tool and
    ``run_all.py --check`` gate."""
    return [entry for probe in _probes(record) for entry in probe.get("equivalence") or []]


def _change(base: float, curr: float) -> str:
    return f"{(curr - base) / base:+.1%}" if base > 0 else "-"


def _compare(
    section: str, base: float, curr: float, better: str, tolerance: float
) -> str | None:
    """How *curr* regressed from *base*, or ``None`` (counters never do)."""
    change = _change(base, curr)
    if section == "ratios" and curr < base * (1.0 - tolerance):
        return f"speedup regressed {base:.2f}x -> {curr:.2f}x ({change}, tolerance -{tolerance:.0%})"
    if section == "serving":
        fence = (1.0 + tolerance) * LATENCY_FENCE_FACTOR
        if curr > base * fence if better == "lower" else curr < base / fence:
            worse = "rose" if better == "lower" else "fell"
            return f"{worse} {base:.2f} -> {curr:.2f} ({change}, fence {fence:.1f}x)"
    return None


def compare_records(
    baseline: dict,
    current: dict,
    tolerance: float = DEFAULT_TOLERANCE,
    allow_missing: bool = False,
) -> tuple[list[str], list[str]]:
    """Diff two benchmark records.

    Returns ``(failures, report_lines)``: human-readable failure messages
    (empty when the current record passes the gate) and a per-metric report
    table for the job log.
    """
    failures: list[str] = []
    lines = [f"{'metric':<48} {'baseline':>9} {'current':>9} {'change':>8}  status"]
    if not any(tracked(baseline, section) for section in TRACKED_SECTIONS):
        failures.append(
            "the baseline yields no tracked metric (no ratios, serving or counters "
            "entry in any probe): not a record layout this tool reads"
        )
    for section in TRACKED_SECTIONS:
        base_metrics = tracked(baseline, section)
        curr_metrics = tracked(current, section)
        for name in sorted(base_metrics):
            base_entry = base_metrics[name]
            base = base_entry["value"] if section == "serving" else base_entry
            if name not in curr_metrics:
                status = "missing (allowed)" if allow_missing else "MISSING"
                lines.append(f"{name:<48} {base:>9.2f} {'-':>9} {'-':>8}  {status}")
                if not allow_missing:
                    coverage = " (fault-model coverage lost)" if section == "counters" else ""
                    failures.append(
                        f"{name}: tracked by the baseline but absent from the current "
                        f"record{coverage}"
                    )
                continue
            curr_entry = curr_metrics[name]
            curr = curr_entry["value"] if section == "serving" else curr_entry
            better = base_entry["better"] if section == "serving" else "higher"
            regression = _compare(section, base, curr, better, tolerance)
            change = _change(base, curr)
            status = "info" if section == "counters" else "REGRESSION" if regression else "ok"
            lines.append(f"{name:<48} {base:>9.2f} {curr:>9.2f} {change:>8}  {status}")
            if regression:
                failures.append(f"{name}: {regression}")
        for name in sorted(set(curr_metrics) - set(base_metrics)):
            entry = curr_metrics[name]
            value = entry["value"] if section == "serving" else entry
            lines.append(f"{name:<48} {'-':>9} {value:>9.2f} {'-':>8}  new")

    for probe in equivalence_entries(current):
        ok = probe["max_abs_diff"] <= probe["tolerance"]
        lines.append(
            f"{probe['probe']:<48} {'tol':>9} {probe['max_abs_diff']:>9.1e} "
            f"{probe['tolerance']:>8.0e}  {'ok' if ok else 'DRIFT'}"
        )
        if not ok:
            failures.append(
                f"{probe['probe']}: equivalence drift {probe['max_abs_diff']:.2e} "
                f"exceeds tolerance {probe['tolerance']:.0e}"
            )
    return failures, lines


def _load(path: Path) -> dict:
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        raise SystemExit(f"benchmark record not found: {path}")
    except json.JSONDecodeError as exc:
        raise SystemExit(f"benchmark record {path} is not valid JSON: {exc}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--baseline", type=Path, required=True,
                        help="baseline BENCH_*.json (previous main artifact or committed reference)")
    parser.add_argument("--current", type=Path, required=True,
                        help="freshly generated BENCH_*.json to gate")
    parser.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                        help="relative speedup-regression tolerance (default 0.2 = 20%%)")
    parser.add_argument("--allow-missing", action="store_true",
                        help="do not fail when a baseline metric is absent from the current record")
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")

    baseline = _load(args.baseline)
    current = _load(args.current)
    failures, lines = compare_records(
        baseline, current, tolerance=args.tolerance, allow_missing=args.allow_missing
    )
    print(f"baseline: {args.baseline}")
    print(f"current:  {args.current}")
    for line in lines:
        print(f"  {line}")
    if failures:
        for failure in failures:
            print(f"BENCH REGRESSION: {failure}", file=sys.stderr)
        return 1
    print("benchmark comparison passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
