"""Benchmark of the batched multi-image execution engine.

Measures the wall-clock win of one batched encoder forward over the
equivalent loop of single-image forwards for an 8-image same-shape workload.
The win comes from amortizing per-call dispatch overhead across the batch, so
the workload is a compact encoder configuration (the many-small-images
serving regime); at paper-scale inputs, where per-image tensor work dominates,
batching approaches parity instead.
"""

from conftest import run_once

from repro.eval.profiler import measure_encoder_batched_speedup
from repro.nn.encoder import DeformableEncoder
from repro.utils.shapes import make_level_shapes


def _compact_engine_speedup():
    shapes = make_level_shapes(32, 48, (8, 16))  # 30 tokens per image
    encoder = DeformableEncoder(
        num_layers=2,
        d_model=64,
        num_heads=4,
        num_levels=len(shapes),
        num_points=2,
        ffn_dim=128,
        rng=0,
    )
    return measure_encoder_batched_speedup(
        encoder, shapes, batch_size=8, repeats=5, rng=1
    )


def test_batched_engine_speedup(benchmark):
    report = run_once(benchmark, _compact_engine_speedup)
    print()
    print(
        f"8-image same-shape workload ({report.num_tokens} tokens/image, "
        f"d_model={report.d_model}): serial {1e3 * report.timings.best_s['serial']:.2f} ms, "
        f"batched {1e3 * report.timings.best_s['batched']:.2f} ms, "
        f"speedup {report.speedup:.2f}x, max |diff| {report.max_abs_diff:.2e}"
    )
    # Acceptance criterion of the batched-engine PR, calibrated on the
    # single-core reference machine (measured ~4.4x there).  Wall-clock
    # ratios are hardware-dependent; this benchmark is deliberately not part
    # of the CI tier-1 run.
    assert report.speedup >= 3.0
    # And stay numerically equivalent to the single-image loop.
    assert report.max_abs_diff <= 1e-5
