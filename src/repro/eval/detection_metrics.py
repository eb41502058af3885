"""COCO-style detection metrics (IoU matching, AP, mAP over IoU thresholds).

Implements the standard evaluation protocol used by the paper's benchmarks
(average precision on object detection): greedy matching of detections to
ground truth in descending score order at a given IoU threshold, 101-point
interpolated precision/recall integration, and the COCO convention of
averaging AP over IoU thresholds 0.50:0.05:0.95 and over classes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.detection_head import DetectionResult, box_iou_matrix

COCO_IOU_THRESHOLDS = tuple(np.arange(0.5, 1.0, 0.05).round(2).tolist())
"""The ten IoU thresholds of the COCO AP@[.50:.95] metric."""


@dataclass(frozen=True)
class MatchResult:
    """Outcome of matching one scene's detections of one class."""

    scores: np.ndarray
    """Detection scores, sorted descending."""

    matched: np.ndarray
    """Boolean per detection: matched to an unmatched ground-truth box."""

    num_ground_truth: int
    """Number of ground-truth boxes of the class in the scene."""


def match_detections(
    det_boxes: np.ndarray,
    det_scores: np.ndarray,
    gt_boxes: np.ndarray,
    iou_threshold: float = 0.5,
) -> MatchResult:
    """Greedily match detections to ground truth at one IoU threshold."""
    det_boxes = np.asarray(det_boxes, dtype=np.float64).reshape(-1, 4)
    det_scores = np.asarray(det_scores, dtype=np.float64).reshape(-1)
    gt_boxes = np.asarray(gt_boxes, dtype=np.float64).reshape(-1, 4)
    order = np.argsort(-det_scores)
    det_boxes = det_boxes[order]
    det_scores = det_scores[order]

    matched = np.zeros(len(det_boxes), dtype=bool)
    gt_used = np.zeros(len(gt_boxes), dtype=bool)
    if len(det_boxes) and len(gt_boxes):
        iou = box_iou_matrix(det_boxes, gt_boxes)
        for i in range(len(det_boxes)):
            candidates = np.where(~gt_used & (iou[i] >= iou_threshold))[0]
            if candidates.size:
                best = candidates[np.argmax(iou[i, candidates])]
                gt_used[best] = True
                matched[i] = True
    return MatchResult(scores=det_scores, matched=matched, num_ground_truth=len(gt_boxes))


def average_precision(matches: list[MatchResult]) -> float:
    """101-point interpolated AP from per-scene match results of one class."""
    total_gt = sum(m.num_ground_truth for m in matches)
    if total_gt == 0:
        return float("nan")
    scores = np.concatenate([m.scores for m in matches]) if matches else np.zeros(0)
    flags = np.concatenate([m.matched for m in matches]) if matches else np.zeros(0, dtype=bool)
    if scores.size == 0:
        return 0.0
    order = np.argsort(-scores)
    flags = flags[order]
    tp = np.cumsum(flags)
    fp = np.cumsum(~flags)
    recall = tp / total_gt
    precision = tp / np.maximum(tp + fp, 1)

    # 101-point interpolation (COCO convention).
    recall_points = np.linspace(0.0, 1.0, 101)
    precision_envelope = np.maximum.accumulate(precision[::-1])[::-1]
    interpolated = np.zeros_like(recall_points)
    for i, r in enumerate(recall_points):
        idx = np.searchsorted(recall, r, side="left")
        if idx < len(precision_envelope):
            interpolated[i] = precision_envelope[idx]
    return float(interpolated.mean())


def coco_style_map(
    detections: list[DetectionResult],
    gt_boxes: list[np.ndarray],
    gt_labels: list[np.ndarray],
    num_classes: int,
) -> dict[str, float]:
    """COCO-style mean AP over classes and the IoU thresholds 0.50:0.05:0.95.

    Parameters
    ----------
    detections:
        One :class:`DetectionResult` per scene.
    gt_boxes, gt_labels:
        Ground-truth boxes / labels per scene (normalized coordinates).
    num_classes:
        Number of classes to average over.

    Returns
    -------
    Dict with ``"ap"`` (mAP over all thresholds, scaled to 0-100 like the
    paper), ``"ap50"`` and ``"ap75"``.
    """
    if len(detections) != len(gt_boxes) or len(detections) != len(gt_labels):
        raise ValueError("detections and ground truth must have the same number of scenes")
    per_threshold: dict[float, list[float]] = {t: [] for t in COCO_IOU_THRESHOLDS}
    for threshold in COCO_IOU_THRESHOLDS:
        for cls in range(num_classes):
            matches = []
            for det, boxes, labels in zip(detections, gt_boxes, gt_labels):
                labels = np.asarray(labels).reshape(-1)
                cls_gt = np.asarray(boxes).reshape(-1, 4)[labels == cls]
                sel = det.labels == cls
                matches.append(
                    match_detections(det.boxes[sel], det.scores[sel], cls_gt, threshold)
                )
            ap = average_precision(matches)
            if not np.isnan(ap):
                per_threshold[threshold].append(ap)

    def mean_over(thresholds: tuple[float, ...]) -> float:
        values = [np.mean(per_threshold[t]) for t in thresholds if per_threshold[t]]
        return float(np.mean(values)) * 100.0 if values else 0.0

    return {
        "ap": mean_over(COCO_IOU_THRESHOLDS),
        "ap50": mean_over((0.5,)),
        "ap75": mean_over((0.75,)),
    }
