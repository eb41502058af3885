"""Fig. 6(a): detection accuracy of the DEFA algorithm configuration.

The paper reports COCO AP of the finetuned benchmarks before and after the
DEFA algorithm modifications (FWP + PAP + level-wise range narrowing + INT12),
an average per-technique drop of 0.8 / 0.3 / 0.26 / 0.07 AP, and a
catastrophic 9.7 AP drop for INT8.  Without COCO or checkpoints the
reproduction measures *output fidelity* of each configuration against the
FP32 unpruned baseline on the synthetic workload and maps it to an estimated
AP through the calibrated estimator (see :mod:`repro.eval.ap_estimator` for
the substitution rationale).  The relative ordering — all DEFA techniques cost little, INT8 is
unusable — is the result being reproduced.

Separately, :func:`run_synthetic_task_ap` measures a real COCO-style AP on
the synthetic detection task through the matched-filter detection head; it
exercises the full pipeline (scenes -> backbone -> encoder -> detection ->
AP) end to end and is not part of :func:`run`.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.faster_rcnn import FASTER_RCNN
from repro.core.config import DEFAConfig
from repro.eval.ap_estimator import CalibratedAPEstimator
from repro.eval.fidelity import compare_outputs
from repro.experiments.common import ExperimentResult, register_experiment
from repro.experiments.workload_runs import prepare_run, run_defa_cached
from repro.nn.models import MODEL_NAMES, get_model_config

TECHNIQUE_CONFIGS: dict[str, DEFAConfig] = {
    "fwp_only": DEFAConfig.baseline().with_overrides(enable_fwp=True),
    "pap_only": DEFAConfig.baseline().with_overrides(enable_pap=True),
    "range_narrowing_only": DEFAConfig.baseline().with_overrides(enable_range_narrowing=True),
    "int12_only": DEFAConfig.baseline().with_overrides(quant_bits=12),
    "defa": DEFAConfig.paper_default(),
    "defa_int8": DEFAConfig.paper_default().with_overrides(quant_bits=8),
}
"""The ablation configurations evaluated by the experiment."""

PAPER_TECHNIQUE_DROPS = {
    "fwp_only": 0.8,
    "pap_only": 0.3,
    "range_narrowing_only": 0.26,
    "int12_only": 0.07,
    "defa_int8": 9.7,
}
"""Average AP drops the paper attributes to each technique (Sec. 5.2)."""


@register_experiment("fig6a")
def run(
    scale: str = "small",
    seed: int = 0,
    include_ablations: bool = True,
) -> ExperimentResult:
    """Regenerate the Fig. 6(a) accuracy comparison (estimated AP)."""
    configs = dict(TECHNIQUE_CONFIGS) if include_ablations else {
        "defa": TECHNIQUE_CONFIGS["defa"],
        "defa_int8": TECHNIQUE_CONFIGS["defa_int8"],
    }

    # Measure output fidelity of every configuration on every benchmark.
    errors: dict[str, dict[str, float]] = {name: {} for name in MODEL_NAMES}
    for name in MODEL_NAMES:
        run_ctx = prepare_run(name, scale=scale, seed=seed)
        for config_name, config in configs.items():
            result = run_defa_cached(run_ctx, config, name, scale, seed=seed, collect_details=False)
            fidelity = compare_outputs(run_ctx.baseline_memory, result.memory)
            errors[name][config_name] = fidelity.relative_error

    # Calibrate the estimator on the DEFA default configuration (the paper's
    # operating point) averaged over the three benchmarks.
    reference_error = float(np.mean([errors[name]["defa"] for name in MODEL_NAMES]))
    estimator = CalibratedAPEstimator(reference_error=reference_error)

    headers = [
        "model",
        "baseline AP (paper)",
        "DEFA AP (ours est.)",
        "DEFA AP (paper)",
        "DEFA rel. error",
        "INT8 AP (ours est.)",
    ]
    rows = []
    data: dict[str, dict] = {"faster_rcnn_ap": FASTER_RCNN.coco_ap, "per_model": {}}
    for name in MODEL_NAMES:
        published = get_model_config(name).published
        defa_est = estimator.estimate(errors[name]["defa"], published.baseline_ap)
        int8_est = estimator.estimate(errors[name]["defa_int8"], published.baseline_ap)
        rows.append(
            [
                get_model_config(name).display_name,
                published.baseline_ap,
                defa_est.estimated_ap,
                published.defa_ap,
                errors[name]["defa"],
                int8_est.estimated_ap,
            ]
        )
        data["per_model"][name] = {
            "errors": errors[name],
            "estimated_defa_ap": defa_est.estimated_ap,
            "published_defa_ap": published.defa_ap,
            "estimated_int8_ap": int8_est.estimated_ap,
        }

    notes = [
        "Estimated AP uses the calibrated fidelity->AP estimator (no COCO checkpoints offline); "
        "see the repro.eval.ap_estimator docstring for the substitution.",
        f"Faster R-CNN reference AP = {FASTER_RCNN.coco_ap}.",
    ]
    if include_ablations:
        technique_rows = []
        for config_name, paper_drop in PAPER_TECHNIQUE_DROPS.items():
            if config_name not in configs:
                continue
            mean_error = float(np.mean([errors[name][config_name] for name in MODEL_NAMES]))
            est_drop = estimator.estimate_drop(mean_error)
            technique_rows.append((config_name, est_drop, paper_drop))
        data["technique_drops"] = {
            name: {"estimated": est, "paper": pub} for name, est, pub in technique_rows
        }
        notes.append(
            "per-technique estimated AP drops: "
            + ", ".join(f"{n}={e:.2f} (paper {p})" for n, e, p in technique_rows)
        )

    return ExperimentResult(
        experiment_id="fig6a",
        title="Fig. 6(a) - detection accuracy of the DEFA algorithm configuration",
        headers=headers,
        rows=rows,
        notes=notes,
        data=data,
    )


def run_synthetic_task_ap(
    model_name: str = "deformable_detr",
    scale: str = "small",
    num_calibration: int = 3,
    num_eval: int = 4,
    seed: int = 0,
) -> dict[str, float]:
    """Measure a real COCO-style AP on the synthetic detection task.

    Runs the full pipeline (scenes -> backbone -> encoder -> matched-filter
    head -> COCO-style AP) for the FP32 baseline, the DEFA configuration and
    the INT8 ablation.  Returns ``{config_name: ap}``.  This is slower than
    the estimator path; ``examples/end_to_end_detection.py`` runs it.
    """
    from repro.core.encoder_runner import DEFAEncoderRunner
    from repro.eval.detection_metrics import coco_style_map
    from repro.nn.detection_head import PrototypeDetectionHead
    from repro.nn.positional import make_reference_points, sine_positional_encoding
    from repro.nn.weight_fitting import ObjectLayout, fit_encoder_heads
    from repro.nn.models import build_encoder
    from repro.utils.rng import spawn_rngs
    from repro.workloads.dataset import SyntheticDetectionDataset
    from repro.workloads.specs import SCALE_PRESETS, get_workload

    spec = get_workload(model_name, scale)
    height, width = SCALE_PRESETS[scale]
    dataset_rng, encoder_rng, fit_rng = spawn_rngs(seed, 3)
    dataset = SyntheticDetectionDataset(
        spec.model,
        image_height=height,
        image_width=width,
        num_calibration=num_calibration,
        num_eval=num_eval,
        rng=dataset_rng,
    )
    shapes = dataset.spatial_shapes
    pos = sine_positional_encoding(shapes, spec.model.d_model)
    ref = make_reference_points(shapes)
    encoder = build_encoder(spec.model, rng=encoder_rng)
    calib_boxes = np.concatenate([s.scene.boxes for s in dataset.calibration], axis=0)
    fit_encoder_heads(
        encoder,
        dataset.calibration[0].features,
        pos,
        ref,
        shapes,
        ObjectLayout.from_boxes(calib_boxes[: max(1, len(calib_boxes))]),
        rng=fit_rng,
    )

    head = PrototypeDetectionHead(num_classes=dataset.num_classes)
    calib_memories = [
        encoder.forward(sample.features, pos, ref, shapes) for sample in dataset.calibration
    ]
    head.calibrate(
        calib_memories,
        shapes,
        [s.scene.boxes for s in dataset.calibration],
        [s.scene.labels for s in dataset.calibration],
    )

    def evaluate(memory_fn) -> float:
        detections, gt_boxes, gt_labels = [], [], []
        for sample in dataset.evaluation:
            memory = memory_fn(sample.features)
            detections.append(head.detect(memory, shapes))
            gt_boxes.append(sample.scene.boxes)
            gt_labels.append(sample.scene.labels)
        return coco_style_map(detections, gt_boxes, gt_labels, dataset.num_classes)["ap"]

    results = {}
    results["baseline"] = evaluate(lambda feats: encoder.forward(feats, pos, ref, shapes))
    for config_name, config in [
        ("defa", DEFAConfig.paper_default()),
        ("defa_int8", DEFAConfig.paper_default().with_overrides(quant_bits=8)),
    ]:
        runner = DEFAEncoderRunner(encoder, config)
        results[config_name] = evaluate(
            lambda feats, runner=runner: runner.forward(feats, pos, ref, shapes).memory
        )
    return results
