"""End-to-end synthetic detection: scenes -> backbone -> encoder -> AP.

Exercises the full pipeline of the accuracy substitution described in
:mod:`repro.eval.ap_estimator`: synthetic COCO-like scenes are pushed through the synthetic FPN
backbone and the deformable encoder, detections are produced by the
matched-filter head, and a COCO-style AP is computed for the FP32 baseline,
the DEFA configuration and the rejected INT8 configuration.

Run with::

    python examples/end_to_end_detection.py
"""

from __future__ import annotations

from repro.experiments.fig6a_accuracy import run_synthetic_task_ap
from repro.utils.tables import format_table


def main() -> None:
    print("Running the synthetic detection task (this runs the NumPy encoder per scene)...")
    results = run_synthetic_task_ap(
        model_name="deformable_detr",
        scale="small",
        num_calibration=3,
        num_eval=4,
        seed=0,
    )
    rows = [[name, ap] for name, ap in results.items()]
    print()
    print(
        format_table(
            ["configuration", "COCO-style AP (synthetic task)"],
            rows,
            title="Synthetic-task detection accuracy",
        )
    )
    print()
    print(
        "Expected shape (mirrors Fig. 6a): the DEFA configuration stays close to the\n"
        "baseline, while INT8 quantization degrades detection substantially."
    )


if __name__ == "__main__":
    main()
