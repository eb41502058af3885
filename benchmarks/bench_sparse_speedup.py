"""Benchmark of the sparsity-aware execution path (sparse execution v2).

Sweeps FWP/PAP operating points on the paper-scale Deformable DETR workload
and times one DEFA attention block in ``dense`` mode (pruning simulated by
zeroing) against ``sparse`` mode (compacted kernels, compacted trace
construction and row-compacted query-side projections — query pruning is
enabled in both paths, so the comparison times two implementations of the
same semantics).  The measured speedup must grow with the reduction ratio
and reach the PR target of >= 1.8x at the ~50 % pixel-reduction operating
point, and the ``neighbors`` kernel section of the sparse path must scale
down with the point-keep ratio (the compacted trace only computes neighbour
math for surviving points).  The block-sparse encoder (PR 4) adds an
end-to-end encoder measurement at the ~48 % pixel-reduction operating point:
the row-compacted FFN/LayerNorm stage must beat the PR 3 cost profile
(sparse attention, dense inter-block work) by >= 1.2x under identical
frozen-row semantics.  The fused-kernel backend (PR 5) adds a *backend*
dimension to the encoder measurement: the block-sparse encoder is timed on
the ``"reference"`` backend (the PR 4 execution) and on the ``"fused"``
backend (single-pass kernels + execution-plan buffer reuse), which must win
by >= 1.15x with bit-identical outputs.  The compiled C backend (PR 7), when
its extension is built, is timed as a third backend point and gated
bit-identical to the fused backend (its own ``COMPILED_EQUIVALENCE_TOL``
tier); on hosts without a C toolchain the compiled metrics and probes are
simply absent and ``compare_bench.py --allow-missing`` tolerates the gap.  A
direct run writes the sweep's probe record to ``BENCH_sparse.json`` at the
repo root, a scratch record that git ignores.  ``benchmarks/run_all.py``
produces the same record (without the encoder parts) as its
``sparse_speedup`` probe, and CI gates that with
``benchmarks/compare_bench.py`` against the committed
``benchmarks/baselines/BENCH_compact.json``.

Run directly (``python benchmarks/bench_sparse_speedup.py``) or through
pytest-benchmark like the other figure benchmarks.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from repro.core.config import DEFAConfig
from repro.eval.profiler import (
    EncoderSparseSpeedupReport,
    ProbeRecord,
    SparseSpeedupReport,
    measure_encoder_blockwise_equivalence,
    measure_encoder_sparse_speedup,
    sweep_sparse_speedup,
)
from repro.kernels.compiled_backend import COMPILED_EQUIVALENCE_TOL
from repro.workloads.specs import get_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_sparse.json"

#: Noise guard for the monotonicity assertion: wall-clock ratios jitter a few
#: percent even best-of-N, so each sweep step may regress by at most this
#: factor before the benchmark fails.
MONOTONIC_SLACK = 0.93

TARGET_SPEEDUP_AT_HALF_PIXELS = 1.8
"""PR acceptance floor at the operating point closest to 50 % pixel
reduction (raised from 1.5x by sparse execution v2; the reference machine
measures ~4x there)."""

#: The sparse `neighbors` section must cost at most ``keep_ratio *
#: NEIGHBORS_SCALING_SLACK`` of the dense one (checked where the point
#: reduction is large enough for the ratio to rise above timer noise).
NEIGHBORS_SCALING_SLACK = 2.5
NEIGHBORS_SCALING_MIN_REDUCTION = 0.3

SWEEP_INT12_TOL = 5e-3
"""Sparse-vs-dense drift bound of the (INT12) sweep points: the ~1e-7 float32
kernel rounding difference can be amplified to a full quantization step by
the dynamically scaled output projection, so the bound is a few steps wide.
The strict 1e-5 equivalence is asserted on unquantized configs in
tests/test_sparse_execution.py."""

ENCODER_FFN_TARGET = 1.2
"""PR 4 acceptance floor: the block-sparse encoder (row-compacted
FFN/LayerNorm stage) must beat the PR 3 cost profile (sparse attention,
dense inter-block stage) by at least this factor end-to-end at the ~48 %
pixel-reduction operating point."""

ENCODER_FUSED_TARGET = 1.15
"""PR 5 acceptance floor: the fused kernel backend + execution-plan arenas
must beat the PR 4 block-sparse path (reference backend, per-block
allocation) by at least this factor end-to-end at the same operating point,
with bit-identical outputs (``fused_max_abs_diff == 0``)."""

ENCODER_NUM_LAYERS = 6
"""Encoder depth of the end-to-end measurement — the paper's encoder depth.
The first block never receives a mask (it always runs dense), so 5 of the 6
blocks execute masked; the measured ``ffn_speedup`` is still *diluted* by
the unmasked first block, so the asymptotic per-masked-block win is larger
than the reported number."""

ENCODER_EQUIV_NUM_LAYERS = 3
"""Depth of the lockstep block-wise equivalence probe (see
:func:`repro.eval.profiler.measure_encoder_blockwise_equivalence`): two
masked blocks exercise mask evolution without paying for the full depth."""

ENCODER_INT12_TOL = 2e-2
"""Block-wise dense/sparse drift bound for INT12 encoder runs: each block
may differ by a few quantization steps (the single-block 5e-3 bound) and the
LayerNorm/FFN stage inside the block propagates them, so the bound is a few
steps wider.  This gates the *lockstep* probe and, when the end-to-end runs
kept identical mask trajectories, the end-to-end record too; a diverged
trajectory makes the end-to-end diff meaningless (whole rows legitimately
differ once a threshold decision flips) and is reported, not gated."""


def run_sweep(scale: str = "paper", repeats: int = 3) -> list[SparseSpeedupReport]:
    """Run the default FWP/PAP sweep (query pruning on) on the paper scale."""
    return sweep_sparse_speedup(scale=scale, repeats=repeats, rng_seed=0)


def run_encoder_benchmark(
    scale: str = "paper", repeats: int = 5
) -> EncoderSparseSpeedupReport:
    """End-to-end block-sparse encoder measurement at the ~48 % operating point.

    ``fwp_k = 1.0`` lands the FWP mask at roughly half pixel reduction on the
    paper-scale workload, which is the operating point the PR acceptance
    criterion names.  The default best-of-5 is deliberately higher than the
    sweep's best-of-3: the :data:`ENCODER_FFN_TARGET` gate carries only a few
    percent of headroom over the reference measurement (1.25x vs 1.2), so the
    min-of-N ratio needs the extra samples to keep scheduler noise out of it.
    """
    return measure_encoder_sparse_speedup(
        get_workload("deformable_detr", scale),
        num_layers=ENCODER_NUM_LAYERS,
        repeats=repeats,
        rng=0,
    )


def run_encoder_blockwise_probe(scale: str = "paper") -> dict[str, tuple[float, float]]:
    """The machine-independent encoder equivalence probes, as
    ``{tier: (max_abs_diff, tolerance)}`` for the fp32 and INT12 tiers.

    Lockstep block-wise comparison: both paths see identical block inputs
    and incoming masks at every block, so threshold decisions cannot flip
    and the measured drift is pure execution-path drift.
    """
    workload = get_workload("deformable_detr", scale)
    fp32 = measure_encoder_blockwise_equivalence(
        workload,
        config=DEFAConfig(fwp_k=1.0, quant_bits=None, enable_query_pruning=True),
        num_layers=ENCODER_EQUIV_NUM_LAYERS,
        rng=0,
    )
    int12 = measure_encoder_blockwise_equivalence(
        workload, num_layers=ENCODER_EQUIV_NUM_LAYERS, rng=0
    )
    return {"fp32": (fp32, 1e-5), "int12": (int12, ENCODER_INT12_TOL)}


def _point(report: SparseSpeedupReport) -> str:
    return f"fwp_k={report.fwp_k}, pap={report.pap_threshold}"


def encoder_ratios(report: EncoderSparseSpeedupReport) -> dict[str, float]:
    """The tracked speedups of an end-to-end encoder measurement."""
    ratios = {
        "speedup": report.speedup,
        "ffn_speedup": report.ffn_speedup,
        "fused_speedup": report.fused_speedup,
    }
    if report.compiled_speedup is not None:
        ratios["compiled_speedup"] = report.compiled_speedup
    return ratios


def gate_encoder(
    record: ProbeRecord, report: EncoderSparseSpeedupReport, probe: str, compiled_probe: str
) -> None:
    """Add an end-to-end encoder measurement's equivalence probes.

    The dense/sparse diff is a probe only when both runs kept the same mask
    trajectory — a diverged trajectory makes the end-to-end diff meaningless
    (whole rows legitimately differ once a threshold decision flips).  The
    compiled backend, when it ran, is gated against the fused backend under
    its own tolerance tier.
    """
    if report.mask_trajectory_matched:
        record.gate(probe, report.max_abs_diff, ENCODER_INT12_TOL)
    if report.compiled_max_abs_diff is not None:
        record.gate(compiled_probe, report.compiled_max_abs_diff, COMPILED_EQUIVALENCE_TOL)


def sweep_record(
    reports: list[SparseSpeedupReport],
    repeats: int,
    query_pruning: bool = True,
    encoder_report: EncoderSparseSpeedupReport | None = None,
    blockwise: dict[str, tuple[float, float]] | None = None,
) -> ProbeRecord:
    """The sweep's probe record (``BENCH_sparse.json``, or ``run_all``'s
    ``sparse_speedup`` probe).

    ``query_pruning`` must reflect the flag the sweep actually ran with so
    the record describes its own operating mode faithfully.  Each operating
    point contributes its ``dense[...]`` / ``sparse[...]`` timings and its
    ``sparse_speedup[...]`` equivalence probe; the tracked ratios are the
    sweep aggregates (single points are too noisy for the fence).  When the
    end-to-end encoder measurement ran, its speedups join the ratios as
    ``encoder_*`` and its probes are gated as ``sparse_speedup.encoder`` /
    ``sparse_speedup.compiled``; the lockstep block-wise probes
    (``blockwise``) as ``sparse_speedup.encoder_blockwise.<tier>``.
    """
    half = min(reports, key=lambda r: abs(r.pixel_reduction - 0.5))
    best, spread = {}, {}
    for r in reports:
        for name in ("dense", "sparse"):
            best[f"{name}[{_point(r)}]"] = 1e3 * r.timings.best_s[name]
            spread[f"{name}[{_point(r)}]"] = r.timings.spread[name]
    record = ProbeRecord(
        name="sparse_speedup",
        config={
            "workload": reports[0].workload if reports else None,
            "repeats": repeats,
            "query_pruning": query_pruning,
            "target_speedup_at_half_pixel_reduction": TARGET_SPEEDUP_AT_HALF_PIXELS,
            "encoder_ffn_target": ENCODER_FFN_TARGET,
            "encoder_fused_target": ENCODER_FUSED_TARGET,
        },
        timings_ms={"rounds": repeats, "best": best, "spread": spread},
        ratios={
            "max_speedup": max(r.speedup for r in reports),
            "speedup_at_half_pixel_reduction": half.speedup,
        },
    )
    for r in reports:
        record.gate(f"sparse_speedup[{_point(r)}]", r.max_abs_diff, SWEEP_INT12_TOL)
    if encoder_report is not None:
        record.ratios.update(
            {f"encoder_{key}": value for key, value in encoder_ratios(encoder_report).items()}
        )
        gate_encoder(record, encoder_report, "sparse_speedup.encoder", "sparse_speedup.compiled")
    for tier, (drift, tolerance) in (blockwise or {}).items():
        record.gate(f"sparse_speedup.encoder_blockwise.{tier}", drift, tolerance)
    return record


def write_bench_json(
    reports: list[SparseSpeedupReport],
    repeats: int,
    path: Path = BENCH_JSON,
    encoder_report: EncoderSparseSpeedupReport | None = None,
    blockwise: dict[str, tuple[float, float]] | None = None,
) -> ProbeRecord:
    record = sweep_record(
        reports, repeats, encoder_report=encoder_report, blockwise=blockwise
    )
    bench = {"name": "bench_sparse_speedup", "benchmarks": [asdict(record)]}
    path.write_text(json.dumps(bench, indent=2) + "\n")
    return record


def _print_sweep(
    reports: list[SparseSpeedupReport],
    encoder_report: EncoderSparseSpeedupReport | None = None,
) -> None:
    print()
    print(f"{'fwp_k':>6} {'pap_thr':>8} {'pix_red':>8} {'pt_red':>7} {'dense_ms':>9} {'sparse_ms':>10} {'speedup':>8} {'|diff|':>9}")
    for r in reports:
        best = r.timings.best_s
        print(
            f"{r.fwp_k:>6.2f} {r.pap_threshold:>8.3f} {r.pixel_reduction:>8.3f} "
            f"{r.point_reduction:>7.3f} {1e3 * best['dense']:>9.1f} {1e3 * best['sparse']:>10.1f} "
            f"{r.speedup:>8.2f} {r.max_abs_diff:>9.1e}"
        )
    if encoder_report is not None:
        e = encoder_report
        ms = {name: 1e3 * s for name, s in e.timings.best_s.items()}
        compiled = ""
        if e.compiled_speedup is not None:
            compiled = (
                f", compiled {ms['sparse_compiled']:.1f}ms "
                f"({e.compiled_speedup:.2f}x over fused, "
                f"|diff| {e.compiled_max_abs_diff:.1e})"
            )
        print(
            f"\nencoder ({e.num_layers} layers, pix_red {e.pixel_reduction:.3f}): "
            f"dense {ms['dense']:.1f}ms, sparse+dense-ffn "
            f"{ms['sparse_dense_ffn']:.1f}ms, block-sparse {ms['sparse']:.1f}ms, "
            f"fused {ms['sparse_fused']:.1f}ms "
            f"=> {e.speedup:.2f}x total, {e.ffn_speedup:.2f}x over sparse attention "
            f"with a dense FFN stage, {e.fused_speedup:.2f}x over the reference backend "
            f"(fused |diff| {e.fused_max_abs_diff:.1e}){compiled}"
        )


def check_encoder_report(
    encoder_report: EncoderSparseSpeedupReport,
    blockwise: dict[str, tuple[float, float]] | None = None,
) -> None:
    """Assert the PR 4 acceptance criteria on the end-to-end encoder record."""
    assert encoder_report.ffn_speedup >= ENCODER_FFN_TARGET, (
        f"block-sparse encoder only {encoder_report.ffn_speedup:.2f}x over the "
        f"PR 3 profile at {encoder_report.pixel_reduction:.0%} pixel reduction "
        f"(target {ENCODER_FFN_TARGET}x)"
    )
    assert encoder_report.speedup >= encoder_report.ffn_speedup, (
        "the full dense path cannot be faster than the PR 3 sparse profile"
    )
    assert encoder_report.fused_speedup >= ENCODER_FUSED_TARGET, (
        f"fused backend only {encoder_report.fused_speedup:.2f}x over the PR 4 "
        f"block-sparse path (target {ENCODER_FUSED_TARGET}x)"
    )
    # The fused backend performs the same float operations in the same order
    # as the reference backend — any deviation at all is an execution bug.
    assert encoder_report.fused_max_abs_diff == 0.0, (
        f"fused backend drifted from the reference backend by "
        f"{encoder_report.fused_max_abs_diff:.1e} (must be bit-identical)"
    )
    # The compiled C kernels replicate the fused backend's float op order
    # exactly (see repro/kernels/compiled_backend.py), so when the extension
    # is built the compiled run is held to its own zero-drift tier.
    if encoder_report.compiled_max_abs_diff is not None:
        assert encoder_report.compiled_max_abs_diff <= COMPILED_EQUIVALENCE_TOL, (
            f"compiled backend drifted from the fused backend by "
            f"{encoder_report.compiled_max_abs_diff:.1e} "
            f"(tolerance {COMPILED_EQUIVALENCE_TOL:.0e})"
        )
    # The end-to-end diff is only a path-drift measure while both runs prune
    # the same pixels; once a threshold decision flips the trajectories are
    # different algorithmic runs and only the lockstep probe gates drift.
    if encoder_report.mask_trajectory_matched:
        assert encoder_report.max_abs_diff <= ENCODER_INT12_TOL, (
            f"encoder dense/sparse drift {encoder_report.max_abs_diff:.1e}"
        )
    for tier, (drift, tolerance) in (blockwise or {}).items():
        assert drift <= tolerance, (
            f"encoder blockwise {tier} drift {drift:.2e} exceeds {tolerance:.0e}"
        )


def check_sweep(reports: list[SparseSpeedupReport]) -> None:
    """Assert the PR acceptance criteria on a finished sweep."""
    # Speedup grows with the reduction ratio (modulo wall-clock noise).
    ordered = sorted(reports, key=lambda r: (r.pixel_reduction, r.point_reduction))
    for prev, curr in zip(ordered, ordered[1:]):
        assert curr.speedup >= prev.speedup * MONOTONIC_SLACK, (
            f"speedup not monotonic: {prev.speedup:.2f}x at "
            f"(pix={prev.pixel_reduction:.2f}, pt={prev.point_reduction:.2f}) -> "
            f"{curr.speedup:.2f}x at (pix={curr.pixel_reduction:.2f}, pt={curr.point_reduction:.2f})"
        )
    # >= 1.8x at the operating point closest to 50% pixel reduction.
    half = min(reports, key=lambda r: abs(r.pixel_reduction - 0.5))
    assert half.speedup >= TARGET_SPEEDUP_AT_HALF_PIXELS, (
        f"{half.speedup:.2f}x at {half.pixel_reduction:.0%} pixel reduction "
        f"(target {TARGET_SPEEDUP_AT_HALF_PIXELS}x)"
    )
    # The compacted trace construction must make the sparse `neighbors`
    # section track the point-keep ratio (checked where reduction is large
    # enough that the ratio is well above timer noise).
    for r in reports:
        if r.point_reduction < NEIGHBORS_SCALING_MIN_REDUCTION:
            continue
        dense_nb = r.dense_kernels.get("neighbors", 0.0)
        sparse_nb = r.sparse_kernels.get("neighbors", 0.0)
        if dense_nb <= 0:
            continue
        keep_ratio = 1.0 - r.point_reduction
        bound = keep_ratio * NEIGHBORS_SCALING_SLACK
        assert sparse_nb / dense_nb <= bound, (
            f"sparse neighbors section not scaling with keep ratio: "
            f"{1e3 * sparse_nb:.1f}ms vs dense {1e3 * dense_nb:.1f}ms "
            f"(ratio {sparse_nb / dense_nb:.2f} > bound {bound:.2f} at "
            f"point keep {keep_ratio:.2f})"
        )
    # The sparse path stays numerically equivalent to the dense-masked path.
    for r in reports:
        assert r.max_abs_diff <= SWEEP_INT12_TOL, (
            f"sparse/dense drift {r.max_abs_diff:.1e} at fwp_k={r.fwp_k}"
        )


def _paper_scale_sweep():
    repeats = 3
    reports = run_sweep(scale="paper", repeats=repeats)
    encoder_report = run_encoder_benchmark(scale="paper")
    blockwise = run_encoder_blockwise_probe(scale="paper")
    write_bench_json(
        reports, repeats, encoder_report=encoder_report, blockwise=blockwise
    )
    return reports, encoder_report, blockwise


def test_sparse_speedup(benchmark):
    from conftest import run_once

    reports, encoder_report, blockwise = run_once(benchmark, _paper_scale_sweep)
    _print_sweep(reports, encoder_report)
    check_sweep(reports)
    check_encoder_report(encoder_report, blockwise)


if __name__ == "__main__":
    reports, encoder_report, blockwise = _paper_scale_sweep()
    _print_sweep(reports, encoder_report)
    check_sweep(reports)
    check_encoder_report(encoder_report, blockwise)
    print(f"\nwrote {BENCH_JSON}")
