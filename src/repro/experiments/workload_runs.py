"""Shared algorithm-level runs used by several experiments.

Most experiments need the same expensive artefact: the paper's benchmark
encoder executed on a synthetic workload, once as the FP32 unpruned baseline
and once under a DEFA configuration (with per-layer traces and masks).  This
module builds those runs and memoizes them per (model, scale, config, seed)
so that e.g. Fig. 6(b), Fig. 7(a) and Fig. 7(b) reuse one run instead of
recomputing it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderResult, DEFAEncoderRunner
from repro.nn.encoder import DeformableEncoder
from repro.nn.models import build_encoder
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.nn.weight_fitting import FittingConfig, ObjectLayout, fit_encoder_heads
from repro.utils.rng import spawn_rngs
from repro.workloads.specs import WorkloadSpec, get_workload
from repro.workloads.traces import synthetic_workload_input


@dataclass
class AlgorithmRun:
    """One workload prepared for algorithm-level experiments."""

    spec: WorkloadSpec
    encoder: DeformableEncoder
    features: np.ndarray
    layout: ObjectLayout
    pos: np.ndarray
    reference_points: np.ndarray
    baseline_memory: np.ndarray
    """Encoder output of the FP32 unpruned baseline."""

    def run_defa(self, config: DEFAConfig, collect_details: bool = False) -> DEFAEncoderResult:
        """Execute the encoder under a DEFA configuration."""
        runner = DEFAEncoderRunner(self.encoder, config)
        return runner.forward(
            self.features,
            self.pos,
            self.reference_points,
            self.spec.spatial_shapes,
            collect_details=collect_details,
        )


_RUN_CACHE: dict[tuple, AlgorithmRun] = {}
_DEFA_CACHE: dict[tuple, DEFAEncoderResult] = {}


def prepare_run(
    model_name: str,
    scale: str = "small",
    num_layers: int | None = None,
    seed: int = 0,
) -> AlgorithmRun:
    """Build (or fetch from cache) the shared workload run for one model."""
    key = (model_name, scale, num_layers, seed)
    if key in _RUN_CACHE:
        return _RUN_CACHE[key]

    spec = get_workload(model_name, scale)
    feature_rng, encoder_rng, fit_rng = spawn_rngs(seed, 3)
    features, layout = synthetic_workload_input(spec, rng=feature_rng)
    encoder = build_encoder(spec.model, rng=encoder_rng)
    if num_layers is not None:
        encoder.layers = encoder.layers[:num_layers]
        encoder.num_layers = num_layers
    pos = sine_positional_encoding(spec.spatial_shapes, spec.model.d_model)
    reference_points = make_reference_points(spec.spatial_shapes)
    fit_encoder_heads(
        encoder,
        features,
        pos,
        reference_points,
        spec.spatial_shapes,
        layout,
        config=FittingConfig(),
        rng=fit_rng,
    )
    baseline = encoder.forward(features, pos, reference_points, spec.spatial_shapes)
    run = AlgorithmRun(
        spec=spec,
        encoder=encoder,
        features=features,
        layout=layout,
        pos=pos,
        reference_points=reference_points,
        baseline_memory=baseline,
    )
    _RUN_CACHE[key] = run
    return run


def run_defa_cached(
    run: AlgorithmRun,
    config: DEFAConfig,
    model_name: str,
    scale: str,
    seed: int = 0,
    collect_details: bool = True,
) -> DEFAEncoderResult:
    """Memoized DEFA execution of a prepared run under one configuration."""
    key = (model_name, scale, seed, tuple(sorted(config.__dict__.items())), collect_details)
    if key not in _DEFA_CACHE:
        _DEFA_CACHE[key] = run.run_defa(config, collect_details=collect_details)
    return _DEFA_CACHE[key]
