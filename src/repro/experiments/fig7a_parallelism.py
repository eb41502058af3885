"""Fig. 7(a): MSGS throughput boost of inter-level over intra-level processing.

The paper measures a ~3.0-3.1x throughput improvement when the four parallel
sampling points come from four different pyramid levels (conflict-free bank
mapping) instead of one level (bank conflicts serialize accesses).  This
experiment replays the actual sampling traces of each benchmark under both
banking schemes.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import DEFAConfig
from repro.experiments.common import ExperimentResult, register_experiment
from repro.experiments.workload_runs import prepare_run, run_defa_cached
from repro.hardware.banking import BankingScheme, simulate_bank_conflicts, throughput_boost
from repro.nn.models import MODEL_NAMES, get_model_config


@register_experiment("fig7a")
def run(
    scale: str = "small",
    config: DEFAConfig | None = None,
    num_banks: int = 16,
    seed: int = 0,
) -> ExperimentResult:
    """Regenerate the Fig. 7(a) throughput-boost series."""
    config = config or DEFAConfig.paper_default()
    headers = [
        "model",
        "boost (ours)",
        "boost (paper)",
        "intra cycles/group",
        "inter cycles/group",
        "intra conflict %",
    ]
    rows = []
    data = {}
    for name in MODEL_NAMES:
        run_ctx = prepare_run(name, scale=scale, seed=seed)
        result = run_defa_cached(run_ctx, config, name, scale, seed=seed)
        boosts, intra_cpg, inter_cpg, conflict = [], [], [], []
        for layer_out in result.layer_outputs:
            # The Fig. 7(a) micro-benchmark measures the raw MSGS engine
            # throughput, so the full (unpruned) sampling stream is replayed;
            # .trace materializes it when the block ran compacted.
            trace = layer_out.trace
            intra = simulate_bank_conflicts(
                trace,
                BankingScheme.INTRA_LEVEL,
                num_banks=num_banks,
            )
            inter = simulate_bank_conflicts(
                trace,
                BankingScheme.INTER_LEVEL,
                num_banks=num_banks,
            )
            boosts.append(throughput_boost(intra, inter))
            intra_cpg.append(intra.cycles_per_group)
            inter_cpg.append(inter.cycles_per_group)
            conflict.append(intra.conflict_fraction)
        published = get_model_config(name).published.msgs_throughput_boost
        rows.append(
            [
                run_ctx.spec.model.display_name,
                float(np.mean(boosts)),
                published,
                float(np.mean(intra_cpg)),
                float(np.mean(inter_cpg)),
                100.0 * float(np.mean(conflict)),
            ]
        )
        data[name] = {
            "boost": float(np.mean(boosts)),
            "published_boost": published,
            "per_layer_boost": [float(b) for b in boosts],
        }
    return ExperimentResult(
        experiment_id="fig7a",
        title="Fig. 7(a) - MSGS throughput boost of inter-level over intra-level processing",
        headers=headers,
        rows=rows,
        notes=[f"{num_banks} SRAM banks, 4 sampling points issued per cycle; scale={scale}"],
        data=data,
    )
