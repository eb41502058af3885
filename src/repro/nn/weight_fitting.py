"""Closed-form fitting of the deformable-attention heads to object-seeking targets.

Trained Deformable-DETR models exhibit two statistical properties that the
DEFA algorithm exploits:

* the softmax attention probabilities of each (query, head) are strongly
  peaked — over 80 % of the ``N_l * N_p`` points carry near-zero probability
  (what PAP prunes), and
* the high-probability sampling points concentrate on a small set of
  informative fmap pixels around objects, so the sampled-frequency
  distribution is highly non-uniform (what FWP prunes).

Randomly initialized heads do not have these properties, and no checkpoints or
training are available offline.  This module therefore *constructs* the
sampling-offset head ``W^S`` and the attention-weight head ``W^A`` in closed
form: desired offsets/logits are defined analytically from the known object
layout of the synthetic workload (points near an object aim at it and receive
high logits; background queries keep a small default point set), and the
linear heads are fitted to those targets with ridge regression.  The fit is a
linear probe solved exactly — no iterative training — and the resulting module
is still an ordinary :class:`~repro.nn.msdeform_attn.MSDeformAttn` whose
behaviour (peaked attention, object-concentrated sampling) mirrors a trained
model.  How accuracy is then estimated without COCO is described in
:mod:`repro.eval.ap_estimator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.nn.encoder import DeformableEncoder
from repro.nn.msdeform_attn import MSDeformAttn
from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.rng import as_rng
from repro.utils.shapes import LevelShape


@dataclass(frozen=True)
class ObjectLayout:
    """Positions and sizes of the salient objects of one workload input.

    ``centers`` is ``(K, 2)`` in normalized ``(x, y)`` coordinates and
    ``radii`` is ``(K,)`` in normalized units (roughly half the object size).
    """

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self) -> None:
        centers = np.asarray(self.centers, dtype=FLOAT_DTYPE).reshape(-1, 2)
        radii = np.asarray(self.radii, dtype=FLOAT_DTYPE).reshape(-1)
        if len(centers) != len(radii):
            raise ValueError("centers and radii must have the same length")
        if len(centers) == 0:
            raise ValueError("object layout must contain at least one object")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @property
    def num_objects(self) -> int:
        return len(self.radii)

    @staticmethod
    def from_boxes(boxes: np.ndarray) -> "ObjectLayout":
        """Build a layout from normalized ``(x1, y1, x2, y2)`` boxes."""
        boxes = np.asarray(boxes, dtype=FLOAT_DTYPE).reshape(-1, 4)
        centers = np.stack(
            [(boxes[:, 0] + boxes[:, 2]) / 2.0, (boxes[:, 1] + boxes[:, 3]) / 2.0], axis=-1
        )
        radii = ((boxes[:, 2] - boxes[:, 0]) + (boxes[:, 3] - boxes[:, 1])) / 4.0
        return ObjectLayout(centers=centers, radii=np.maximum(radii, 1e-3))


@dataclass(frozen=True)
class FittingConfig:
    """Hyper-parameters of the target construction and the ridge fit."""

    locality: float = 0.22
    """Length scale (normalized) of the Gaussian attractor field around objects."""

    logit_high: float = 4.0
    """Desired logit of the points aimed at an object (or of the default points)."""

    logit_low: float = -4.0
    """Desired logit of all other points."""

    num_background_points: int = 2
    """Number of default high-logit points of queries without a nearby object."""

    ring_fraction: float = 0.5
    """Sampling points are placed on a ring of this fraction of the object radius."""

    target_pixels: float = 3.0
    """Preferred level is the one where the object radius spans about this many pixels."""

    ridge_lambda: float = 1e-2
    """L2 regularization of the ridge regression."""

    target_noise: float = 0.15
    """Relative noise added to the desired offsets (keeps the fit realistic)."""


def _level_affinity(
    radii: np.ndarray, spatial_shapes: list[LevelShape], target_pixels: float
) -> np.ndarray:
    """Soft assignment of object radii to pyramid levels.

    Returns ``(N_q, N_l)`` affinities in ``[0, 1]`` that peak on the level
    where an object of the given radius spans roughly ``target_pixels``
    pixels.  Using a soft assignment (rather than a hard argmin) keeps the
    desired targets a smooth function of position, which the sine positional
    encoding can represent well in a linear fit.
    """
    radii = np.asarray(radii, dtype=np.float64).reshape(-1, 1)
    spans = np.array(
        [max(1e-6, min(s.width, s.height)) for s in spatial_shapes], dtype=np.float64
    )[None, :]
    log_err = np.log(np.maximum(radii * spans, 1e-6) / target_pixels)
    affinity = np.exp(-(log_err**2) / (2.0 * 0.5**2))
    affinity /= np.maximum(affinity.max(axis=1, keepdims=True), 1e-12)
    return affinity


def build_desired_targets(
    reference_points: np.ndarray,
    spatial_shapes: list[LevelShape],
    layout: ObjectLayout,
    num_heads: int,
    num_points: int,
    config: FittingConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Construct desired sampling offsets and attention logits.

    The targets are *smooth* functions of the query position so that a linear
    head over content + sine positional features can fit them:

    * every query is softly attracted to the nearby objects (a Gaussian
      attractor field over the object layout),
    * on the levels matching the attracting object's size, the sampling points
      form a small ring inside the object and receive high (graded) logits,
    * away from objects the points fall back to a local ring around the
      reference point and only a small fixed subset keeps a high logit.

    Returns
    -------
    desired_offsets:
        ``(N_q, N_h, N_l, N_p, 2)`` offsets in pixel units of the sampled
        level (the raw output convention of the offset head).
    desired_logits:
        ``(N_q, N_h, N_l * N_p)`` target logits of the attention head.
    """
    config = config or FittingConfig()
    rng = as_rng(rng)
    ref = np.asarray(reference_points, dtype=FLOAT_DTYPE)[:, 0, :]  # (N_q, 2), shared per level
    n_q = ref.shape[0]
    n_l = len(spatial_shapes)

    # Soft attractor field over the object layout.
    diffs = layout.centers[None, :, :] - ref[:, None, :]  # (N_q, K, 2)
    dists = np.linalg.norm(diffs, axis=-1)  # (N_q, K)
    sigma = config.locality
    weights = np.exp(-(dists**2) / (2.0 * sigma**2))  # (N_q, K)
    weight_sum = weights.sum(axis=1, keepdims=True)
    soft_weights = weights / np.maximum(weight_sum, 1e-12)
    attract_center = soft_weights @ layout.centers  # (N_q, 2)
    attract_radius = soft_weights @ layout.radii  # (N_q,)
    objectness = np.clip(weights.max(axis=1), 0.0, 1.0)  # (N_q,)

    level_affinity = _level_affinity(attract_radius, spatial_shapes, config.target_pixels)
    level_sizes = np.array([[s.width, s.height] for s in spatial_shapes], dtype=FLOAT_DTYPE)

    angles = (
        2.0
        * np.pi
        * (
            np.arange(num_points, dtype=FLOAT_DTYPE)[None, :] / num_points
            + np.arange(num_heads, dtype=FLOAT_DTYPE)[:, None] / (num_heads * num_points)
        )
    )  # (N_h, N_p)
    unit = np.stack([np.cos(angles), np.sin(angles)], axis=-1)  # (N_h, N_p, 2)

    desired_offsets = np.zeros((n_q, num_heads, n_l, num_points, 2), dtype=FLOAT_DTYPE)
    desired_logits = np.zeros((n_q, num_heads, n_l, num_points), dtype=FLOAT_DTYPE)

    # Graded high logits for the object-directed points of a head and the fixed
    # default pattern of background queries.
    grading = np.linspace(1.0, 0.2, num_points, dtype=FLOAT_DTYPE)
    background_pattern = np.zeros((n_l, num_points), dtype=FLOAT_DTYPE)
    background_pattern[: min(2, n_l), : config.num_background_points] = 1.0

    for lvl in range(n_l):
        size = level_sizes[lvl]  # (width, height)
        ring = config.ring_fraction * attract_radius[:, None, None, None]
        loc_obj = attract_center[:, None, None, :] + ring * unit[None, :, :, :]
        local_radius = (np.arange(num_points, dtype=FLOAT_DTYPE) + 1.0) / float(size.min())
        loc_local = ref[:, None, None, :] + local_radius[None, None, :, None] * unit[None, :, :, :]

        blend = (objectness * level_affinity[:, lvl])[:, None, None, None]  # (N_q,1,1,1)
        loc = (1.0 - blend) * loc_local + blend * loc_obj
        offsets = (loc - ref[:, None, None, :]) * size[None, None, None, :]
        noise = rng.normal(0.0, config.target_noise, size=offsets.shape).astype(FLOAT_DTYPE)
        desired_offsets[:, :, lvl] = offsets * (1.0 + noise)

        obj_score = blend[..., 0] * grading[None, None, :]  # (N_q, N_h, N_p)
        bg_score = (1.0 - objectness)[:, None, None] * background_pattern[lvl][None, None, :]
        score = np.clip(obj_score + bg_score, 0.0, 1.0)
        desired_logits[:, :, lvl] = config.logit_low + (config.logit_high - config.logit_low) * score

    desired_logits = desired_logits.reshape(n_q, num_heads, n_l * num_points)
    return desired_offsets, desired_logits


def ridge_fit(features: np.ndarray, targets: np.ndarray, ridge_lambda: float) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``min ||F W + b - T||^2 + lambda ||W||^2`` in closed form.

    Returns ``(weight, bias)`` with shapes ``(D, T_dim)`` and ``(T_dim,)``.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64).reshape(features.shape[0], -1)
    mean_f = features.mean(axis=0)
    mean_t = targets.mean(axis=0)
    fc = features - mean_f
    tc = targets - mean_t
    d = features.shape[1]
    gram = fc.T @ fc + ridge_lambda * features.shape[0] * np.eye(d)
    weight = np.linalg.solve(gram, fc.T @ tc)
    bias = mean_t - mean_f @ weight
    return weight.astype(FLOAT_DTYPE), bias.astype(FLOAT_DTYPE)


def fit_attention_heads(
    attn: MSDeformAttn,
    query_features: np.ndarray,
    reference_points: np.ndarray,
    spatial_shapes: list[LevelShape],
    layout: ObjectLayout,
    config: FittingConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> None:
    """Fit ``W^S`` / ``W^A`` of one attention module in place."""
    config = config or FittingConfig()
    desired_offsets, desired_logits = build_desired_targets(
        reference_points,
        spatial_shapes,
        layout,
        num_heads=attn.num_heads,
        num_points=attn.num_points,
        config=config,
        rng=rng,
    )
    n_q = query_features.shape[0]
    weight, bias = ridge_fit(
        query_features, desired_offsets.reshape(n_q, -1), config.ridge_lambda
    )
    attn.sampling_offsets.weight = weight
    attn.sampling_offsets.bias = bias
    weight, bias = ridge_fit(query_features, desired_logits.reshape(n_q, -1), config.ridge_lambda)
    attn.attention_weights.weight = weight
    attn.attention_weights.bias = bias


def fit_encoder_heads(
    encoder: DeformableEncoder,
    features: np.ndarray,
    pos: np.ndarray,
    reference_points: np.ndarray,
    spatial_shapes: list[LevelShape],
    layout: ObjectLayout,
    config: FittingConfig | None = None,
    rng: np.random.Generator | int | None = None,
) -> None:
    """Fit the offset/attention heads of every encoder layer in place.

    Layers are fitted sequentially: layer *i* is fitted against the targets
    evaluated on its actual input (the output of the already-fitted layer
    *i-1*), mirroring how a trained network adapts each layer to the previous
    one.
    """
    rng = as_rng(rng)
    x = np.asarray(features, dtype=FLOAT_DTYPE)
    for layer in encoder.layers:
        query = x + pos
        fit_attention_heads(
            layer.self_attn, query, reference_points, spatial_shapes, layout, config=config, rng=rng
        )
        x = layer.forward(x, pos, reference_points, spatial_shapes)
