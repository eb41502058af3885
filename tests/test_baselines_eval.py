"""Tests for the baselines (GPU, ASIC, Faster R-CNN) and eval metrics."""

import numpy as np
import pytest

from repro.baselines.asic import (
    BESAPU,
    DEFA_PUBLISHED,
    ELSA,
    SPATTEN,
    energy_efficiency_improvements,
    published_platforms,
)
from repro.baselines.faster_rcnn import FASTER_RCNN
from repro.baselines.gpu import GPUCostModel, RTX_2080TI, RTX_3090TI
from repro.eval.ap_estimator import CalibratedAPEstimator
from repro.eval.detection_metrics import average_precision, coco_style_map, match_detections
from repro.eval.fidelity import compare_outputs
from repro.eval.profiler import profile_gpu_latency_breakdown
from repro.nn.detection_head import DetectionResult, box_iou_matrix, nms
from repro.workloads.specs import get_workload


class TestGPUModel:
    def test_msgs_dominates_latency(self):
        """Fig. 1(b): MSGS + aggregation take over 60 % of MSDeformAttn latency."""
        spec = get_workload("deformable_detr", "paper")
        latency = GPUCostModel(RTX_3090TI).msdeform_layer_latency(spec)
        assert 0.55 < latency.msgs_fraction < 0.75

    def test_total_is_sum_of_parts(self):
        spec = get_workload("deformable_detr", "medium")
        latency = GPUCostModel(RTX_2080TI).msdeform_layer_latency(spec)
        assert latency.total_s == pytest.approx(
            latency.msgs_aggregation_s + latency.others_s
        )

    def test_latency_breakdown_flops_come_from_the_workload_flop_model(self):
        """Fig. 1(b)'s FLOP share is read off the same breakdown that the
        stats and figures use."""
        spec = get_workload("deformable_detr", "small")
        breakdown = profile_gpu_latency_breakdown(spec, RTX_3090TI)
        flops = spec.layer_flops_breakdown()
        assert breakdown.msgs_flops_fraction == pytest.approx(
            (flops["msgs"] + flops["aggregation"]) / spec.layer_flops()
        )
        assert breakdown.msgs_aggregation_fraction + breakdown.others_fraction == pytest.approx(1.0)

    def test_3090ti_faster_than_2080ti(self):
        spec = get_workload("deformable_detr", "paper")
        t2080 = GPUCostModel(RTX_2080TI).encoder_attention_latency(spec)
        t3090 = GPUCostModel(RTX_3090TI).encoder_attention_latency(spec)
        assert t3090 < t2080

    def test_energy_uses_board_power(self):
        spec = get_workload("deformable_detr", "small")
        model = GPUCostModel(RTX_3090TI)
        assert model.encoder_attention_energy(spec) == pytest.approx(
            model.encoder_attention_latency(spec) * RTX_3090TI.board_power_w
        )

    def test_effective_throughput_far_below_peak(self):
        """The efficiency gap that motivates the accelerator."""
        spec = get_workload("deformable_detr", "paper")
        flops = spec.layer_flops() * spec.model.num_encoder_layers
        latency = GPUCostModel(RTX_3090TI).encoder_attention_latency(spec)
        assert flops / latency / 1e12 < 0.25 * RTX_3090TI.peak_fp32_tflops


class TestASICBaselines:
    def test_published_energy_efficiencies(self):
        assert ELSA.energy_efficiency_gops_w == pytest.approx(1122, rel=0.01)
        assert SPATTEN.energy_efficiency_gops_w == pytest.approx(1224, rel=0.01)
        assert BESAPU.energy_efficiency_gops_w == pytest.approx(1913, rel=0.01)
        assert DEFA_PUBLISHED.energy_efficiency_gops_w == pytest.approx(4188, rel=0.01)

    def test_published_improvements_match_paper(self):
        improvements = energy_efficiency_improvements(DEFA_PUBLISHED)
        assert improvements["ELSA"] == pytest.approx(3.7, abs=0.1)
        assert improvements["SpAtten"] == pytest.approx(3.4, abs=0.1)
        assert improvements["BESAPU"] == pytest.approx(2.2, abs=0.1)

    def test_platform_order(self):
        assert [p.name for p in published_platforms()] == ["ELSA", "SpAtten", "BESAPU"]

    def test_faster_rcnn_reference(self):
        assert FASTER_RCNN.coco_ap == 42.0


class TestDetectionMetrics:
    def test_iou_identity(self):
        box = np.array([[0.1, 0.1, 0.5, 0.5]])
        assert box_iou_matrix(box, box)[0, 0] == pytest.approx(1.0)

    def test_iou_disjoint(self):
        a = np.array([[0.0, 0.0, 0.2, 0.2]])
        b = np.array([[0.5, 0.5, 0.9, 0.9]])
        assert box_iou_matrix(a, b)[0, 0] == 0.0

    def test_nms_suppresses_duplicates(self):
        boxes = np.array([[0.1, 0.1, 0.5, 0.5], [0.11, 0.11, 0.51, 0.51], [0.6, 0.6, 0.9, 0.9]])
        keep = nms(boxes, np.array([0.9, 0.8, 0.7]), iou_threshold=0.5)
        assert len(keep) == 2 and 0 in keep

    def test_match_detections_perfect(self):
        gt = np.array([[0.1, 0.1, 0.4, 0.4]])
        match = match_detections(gt, np.array([0.9]), gt, iou_threshold=0.5)
        assert match.matched.all() and match.num_ground_truth == 1

    def test_average_precision_perfect_and_empty(self):
        gt = np.array([[0.1, 0.1, 0.4, 0.4]])
        perfect = average_precision([match_detections(gt, np.array([0.9]), gt)])
        assert perfect == pytest.approx(1.0, abs=0.02)
        none = average_precision([match_detections(np.zeros((0, 4)), np.zeros(0), gt)])
        assert none == 0.0

    def test_coco_map_perfect_detector(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.4, 0.4], [0.5, 0.5, 0.8, 0.9]])]
        gt_labels = [np.array([0, 1])]
        detections = [
            DetectionResult(boxes=gt_boxes[0], scores=np.array([0.9, 0.8]), labels=gt_labels[0])
        ]
        result = coco_style_map(detections, gt_boxes, gt_labels, num_classes=2)
        assert result["ap"] > 95.0
        assert result["ap50"] >= result["ap"] - 1e-6

    def test_coco_map_false_positive_lowers_ap(self):
        gt_boxes = [np.array([[0.1, 0.1, 0.4, 0.4]])]
        gt_labels = [np.array([0])]
        detections = [
            DetectionResult(
                boxes=np.array([[0.1, 0.1, 0.4, 0.4], [0.6, 0.6, 0.9, 0.9]]),
                scores=np.array([0.5, 0.9]),
                labels=np.array([0, 0]),
            )
        ]
        result = coco_style_map(detections, gt_boxes, gt_labels, num_classes=1)
        assert result["ap"] < 95.0

    def test_detection_result_validation(self):
        with pytest.raises(ValueError):
            DetectionResult(boxes=np.zeros((2, 4)), scores=np.zeros(1), labels=np.zeros(2))
        assert len(DetectionResult.empty().scores) == 0

    def test_scene_count_mismatch(self):
        with pytest.raises(ValueError):
            coco_style_map([DetectionResult.empty()], [], [], num_classes=1)


class TestFidelityAndAPEstimator:
    def test_identical_outputs(self):
        x = np.random.default_rng(0).standard_normal((10, 8))
        report = compare_outputs(x, x)
        assert report.relative_error == 0.0
        assert report.mean_cosine_similarity == pytest.approx(1.0)

    def test_perturbation_increases_error(self):
        x = np.random.default_rng(0).standard_normal((10, 8))
        small = compare_outputs(x, x + 0.01)
        large = compare_outputs(x, x + 1.0)
        assert large.relative_error > small.relative_error

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compare_outputs(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_estimator_anchored_at_reference(self):
        estimator = CalibratedAPEstimator(reference_error=0.1, reference_drop=1.43)
        assert estimator.estimate_drop(0.1) == pytest.approx(1.43, rel=1e-6)

    def test_estimator_monotone_and_saturating(self):
        estimator = CalibratedAPEstimator(reference_error=0.1)
        drops = [estimator.estimate_drop(e) for e in (0.0, 0.05, 0.1, 1.0, 10.0)]
        assert drops[0] == 0.0
        assert all(b >= a for a, b in zip(drops, drops[1:]))
        assert drops[-1] <= estimator.ap_ceiling

    def test_estimator_estimate_record(self):
        estimator = CalibratedAPEstimator(reference_error=0.1)
        estimate = estimator.estimate(0.1, baseline_ap=46.9)
        assert estimate.estimated_ap == pytest.approx(46.9 - estimator.estimate_drop(0.1))

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            CalibratedAPEstimator(reference_error=0.0)
        with pytest.raises(ValueError):
            CalibratedAPEstimator(reference_error=0.1, reference_drop=100.0)
