"""Analytic prototype-matching detection head for the synthetic task.

The paper measures COCO AP with the trained detection heads of Deformable
DETR / DN-DETR / DINO.  Offline we cannot train a head, so the reproduction
uses a calibration-based matched filter instead:

1. **Calibration** — run the *baseline* (unpruned, full-precision) encoder on
   a handful of synthetic scenes and record the encoder output vector at the
   centre pixel of every ground-truth object.  The per-class average of those
   vectors becomes the class *prototype*.
2. **Detection** — for a new scene, compute the cosine similarity between the
   encoder memory and each class prototype at every pyramid pixel, find local
   maxima above a score threshold, and grow each peak into a box by taking the
   bounding box of the connected region whose score exceeds a fraction of the
   peak value.  Class-wise non-maximum suppression merges duplicates across
   pyramid levels.

Because the prototypes are calibrated on the unmodified encoder, any
perturbation introduced by pruning or quantization lowers similarity scores
and box quality exactly the way a fixed trained head would degrade — this is
the behaviour Fig. 6(a) measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.shapes import LevelShape, level_start_indices


@dataclass
class DetectionResult:
    """Detections for one scene.

    ``boxes`` are ``(N, 4)`` arrays of normalized ``(x1, y1, x2, y2)``
    coordinates, ``scores`` are confidence values in ``[0, 1]`` and ``labels``
    are integer class ids.
    """

    boxes: np.ndarray
    scores: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        self.boxes = np.asarray(self.boxes, dtype=FLOAT_DTYPE).reshape(-1, 4)
        self.scores = np.asarray(self.scores, dtype=FLOAT_DTYPE).reshape(-1)
        self.labels = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        if not (len(self.boxes) == len(self.scores) == len(self.labels)):
            raise ValueError("boxes, scores and labels must have the same length")

    @staticmethod
    def empty() -> "DetectionResult":
        """A result with no detections."""
        return DetectionResult(
            boxes=np.zeros((0, 4), dtype=FLOAT_DTYPE),
            scores=np.zeros(0, dtype=FLOAT_DTYPE),
            labels=np.zeros(0, dtype=np.int64),
        )


def box_iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two sets of ``(x1, y1, x2, y2)`` boxes."""
    boxes_a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    boxes_b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    if len(boxes_a) == 0 or len(boxes_b) == 0:
        return np.zeros((len(boxes_a), len(boxes_b)))
    x1 = np.maximum(boxes_a[:, None, 0], boxes_b[None, :, 0])
    y1 = np.maximum(boxes_a[:, None, 1], boxes_b[None, :, 1])
    x2 = np.minimum(boxes_a[:, None, 2], boxes_b[None, :, 2])
    y2 = np.minimum(boxes_a[:, None, 3], boxes_b[None, :, 3])
    inter = np.clip(x2 - x1, 0, None) * np.clip(y2 - y1, 0, None)
    area_a = np.clip(boxes_a[:, 2] - boxes_a[:, 0], 0, None) * np.clip(
        boxes_a[:, 3] - boxes_a[:, 1], 0, None
    )
    area_b = np.clip(boxes_b[:, 2] - boxes_b[:, 0], 0, None) * np.clip(
        boxes_b[:, 3] - boxes_b[:, 1], 0, None
    )
    union = area_a[:, None] + area_b[None, :] - inter
    return np.where(union > 0, inter / union, 0.0)


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float = 0.5) -> np.ndarray:
    """Greedy non-maximum suppression; returns the indices of kept boxes."""
    order = np.argsort(-np.asarray(scores))
    keep: list[int] = []
    suppressed = np.zeros(len(order), dtype=bool)
    iou = box_iou_matrix(boxes, boxes)
    for idx in order:
        if suppressed[idx]:
            continue
        keep.append(int(idx))
        suppressed |= iou[idx] > iou_threshold
        suppressed[idx] = True
    return np.array(keep, dtype=np.int64)


@dataclass
class PrototypeDetectionHead:
    """Matched-filter detection head operating on encoder memory.

    Parameters
    ----------
    num_classes:
        Number of object classes in the synthetic task.
    score_threshold:
        Minimum cosine-similarity score for a peak to become a detection.
    region_threshold:
        Fraction of the peak score used to grow the detection box.
    nms_iou:
        IoU threshold of the class-wise non-maximum suppression.
    max_detections:
        Maximum number of detections kept per scene (COCO uses 100).
    """

    num_classes: int
    score_threshold: float = 0.25
    region_threshold: float = 0.55
    nms_iou: float = 0.5
    max_detections: int = 100
    prototypes: np.ndarray | None = field(default=None, repr=False)

    # ----------------------------------------------------------- calibration

    def calibrate(
        self,
        memories: list[np.ndarray],
        spatial_shapes: list[LevelShape],
        gt_boxes: list[np.ndarray],
        gt_labels: list[np.ndarray],
    ) -> None:
        """Build class prototypes from baseline encoder memories.

        Parameters
        ----------
        memories:
            One ``(N_in, D)`` encoder output per calibration scene.
        spatial_shapes:
            Pyramid level shapes (shared by all scenes).
        gt_boxes, gt_labels:
            Ground-truth boxes (normalized ``(x1, y1, x2, y2)``) and class ids
            of every calibration scene.
        """
        if not memories:
            raise ValueError("at least one calibration scene is required")
        d_model = memories[0].shape[1]
        sums = np.zeros((self.num_classes, d_model), dtype=np.float64)
        counts = np.zeros(self.num_classes, dtype=np.int64)
        for memory, boxes, labels in zip(memories, gt_boxes, gt_labels):
            for box, label in zip(np.asarray(boxes).reshape(-1, 4), np.asarray(labels).reshape(-1)):
                label = int(label)
                if not 0 <= label < self.num_classes:
                    raise ValueError(f"label {label} out of range")
                vec = self._center_vector(memory, spatial_shapes, box)
                sums[label] += vec
                counts[label] += 1
        prototypes = np.zeros_like(sums)
        for cls in range(self.num_classes):
            if counts[cls] > 0:
                prototypes[cls] = sums[cls] / counts[cls]
        norms = np.linalg.norm(prototypes, axis=1, keepdims=True)
        self.prototypes = (prototypes / np.maximum(norms, 1e-12)).astype(FLOAT_DTYPE)

    def _center_vector(
        self, memory: np.ndarray, spatial_shapes: list[LevelShape], box: np.ndarray
    ) -> np.ndarray:
        """Encoder output at the centre pixel of *box*, on the best-matching level."""
        level = self._level_for_box(box, spatial_shapes)
        shape = spatial_shapes[level]
        start = level_start_indices(spatial_shapes)[level]
        cx = (box[0] + box[2]) / 2.0
        cy = (box[1] + box[3]) / 2.0
        col = int(np.clip(cx * shape.width, 0, shape.width - 1))
        row = int(np.clip(cy * shape.height, 0, shape.height - 1))
        return np.asarray(memory[start + row * shape.width + col], dtype=np.float64)

    @staticmethod
    def _level_for_box(box: np.ndarray, spatial_shapes: list[LevelShape]) -> int:
        """Assign a box to the pyramid level whose pixels roughly match its size."""
        width = max(float(box[2] - box[0]), 1e-6)
        height = max(float(box[3] - box[1]), 1e-6)
        # Aim for boxes covering roughly 4-8 pixels on the chosen level.
        best_level = 0
        best_err = np.inf
        for lvl, shape in enumerate(spatial_shapes):
            pixels = width * shape.width * height * shape.height
            err = abs(np.log(max(pixels, 1e-6) / 16.0))
            if err < best_err:
                best_err = err
                best_level = lvl
        return best_level

    # ------------------------------------------------------------- detection

    def detect(self, memory: np.ndarray, spatial_shapes: list[LevelShape]) -> DetectionResult:
        """Detect objects in one scene from its encoder memory."""
        if self.prototypes is None:
            raise RuntimeError("detection head must be calibrated before use")
        memory = np.asarray(memory, dtype=FLOAT_DTYPE)
        norms = np.linalg.norm(memory, axis=1, keepdims=True)
        normalized = memory / np.maximum(norms, 1e-12)
        starts = level_start_indices(spatial_shapes)

        all_boxes: list[np.ndarray] = []
        all_scores: list[float] = []
        all_labels: list[int] = []
        for lvl, shape in enumerate(spatial_shapes):
            chunk = normalized[starts[lvl] : starts[lvl] + shape.num_pixels]
            score_maps = (chunk @ self.prototypes.T).reshape(shape.height, shape.width, -1)
            for cls in range(self.num_classes):
                score_map = score_maps[:, :, cls]
                boxes, scores = self._peaks_to_boxes(score_map)
                all_boxes.extend(boxes)
                all_scores.extend(scores)
                all_labels.extend([cls] * len(scores))

        if not all_scores:
            return DetectionResult.empty()
        boxes = np.asarray(all_boxes, dtype=FLOAT_DTYPE)
        scores = np.asarray(all_scores, dtype=FLOAT_DTYPE)
        labels = np.asarray(all_labels, dtype=np.int64)

        # Class-wise NMS.
        kept_idx: list[int] = []
        for cls in np.unique(labels):
            cls_idx = np.flatnonzero(labels == cls)
            keep = nms(boxes[cls_idx], scores[cls_idx], self.nms_iou)
            kept_idx.extend(cls_idx[keep].tolist())
        kept_idx = sorted(kept_idx, key=lambda i: -scores[i])[: self.max_detections]
        return DetectionResult(boxes=boxes[kept_idx], scores=scores[kept_idx], labels=labels[kept_idx])

    def _peaks_to_boxes(self, score_map: np.ndarray) -> tuple[list[np.ndarray], list[float]]:
        """Convert a per-class similarity map into boxes via peak + region growing."""
        height, width = score_map.shape
        local_max = ndimage.maximum_filter(score_map, size=3, mode="nearest")
        peaks = (score_map >= local_max - 1e-9) & (score_map >= self.score_threshold)
        boxes: list[np.ndarray] = []
        scores: list[float] = []
        if not np.any(peaks):
            return boxes, scores
        peak_rows, peak_cols = np.nonzero(peaks)
        order = np.argsort(-score_map[peak_rows, peak_cols])
        used = np.zeros_like(score_map, dtype=bool)
        for idx in order:
            row, col = int(peak_rows[idx]), int(peak_cols[idx])
            if used[row, col]:
                continue
            peak_score = float(score_map[row, col])
            region_mask = score_map >= self.region_threshold * peak_score
            labeled, _ = ndimage.label(region_mask)
            region_id = labeled[row, col]
            region = labeled == region_id
            used |= region
            rows, cols = np.nonzero(region)
            x1 = cols.min() / width
            x2 = (cols.max() + 1) / width
            y1 = rows.min() / height
            y2 = (rows.max() + 1) / height
            boxes.append(np.array([x1, y1, x2, y2], dtype=FLOAT_DTYPE))
            scores.append(peak_score)
        return boxes, scores
