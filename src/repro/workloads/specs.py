"""Workload specifications: model configuration × input resolution.

A :class:`WorkloadSpec` combines one of the paper's benchmark models with an
input-image scale and derives everything the analyzers and the hardware
simulator need: pyramid shapes, token counts, sampling-point counts, FLOP and
byte totals for every operator of an MSDeformAttn layer.

Three scale presets are provided:

* ``"paper"`` — the COCO evaluation resolution (800x1066, the paper setting),
* ``"medium"`` — a quarter-area resolution used by the default benchmarks so
  that the NumPy functional simulation stays fast,
* ``"tiny"`` — a very small resolution used by the unit tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.nn.models import ModelConfig, get_model_config
from repro.utils.shapes import LevelShape, make_level_shapes, total_pixels

SCALE_PRESETS: dict[str, tuple[int, int]] = {
    "paper": (800, 1066),
    "medium": (400, 533),
    "small": (200, 267),
    "tiny": (64, 96),
}
"""Image sizes (height, width) of the named workload scales."""


@dataclass(frozen=True)
class WorkloadSpec:
    """A fully derived workload: model architecture + input resolution."""

    model: ModelConfig
    scale: str
    image_height: int
    image_width: int

    @property
    def name(self) -> str:
        """Unique workload name, e.g. ``"deformable_detr@medium"``."""
        return f"{self.model.name}@{self.scale}"

    @property
    def spatial_shapes(self) -> list[LevelShape]:
        """Pyramid level shapes of the workload."""
        return make_level_shapes(self.image_height, self.image_width, self.model.strides)

    @property
    def num_tokens(self) -> int:
        """Number of flattened multi-scale tokens ``N_in``."""
        return total_pixels(self.spatial_shapes)

    @property
    def num_queries(self) -> int:
        """Number of encoder queries (equal to ``N_in`` for self-attention)."""
        return self.num_tokens

    @property
    def num_sampling_points_per_query(self) -> int:
        """Sampling points per query over all heads/levels (``N_h N_l N_p``)."""
        return self.model.num_heads * self.model.num_levels * self.model.num_points

    @property
    def num_sampling_points_per_layer(self) -> int:
        """Total sampling points of one MSDeformAttn layer."""
        return self.num_queries * self.num_sampling_points_per_query

    @property
    def d_head(self) -> int:
        """Per-head channel dimension ``D_h``."""
        return self.model.d_model // self.model.num_heads

    # ------------------------------------------------------------- FLOPs

    def layer_flops_breakdown(self) -> dict[str, int]:
        """Dense FLOP breakdown of one MSDeformAttn layer (no FFN/norms).

        Mirrors :meth:`repro.nn.msdeform_attn.MSDeformAttn.flops` but is
        computed analytically so no model has to be instantiated.
        """
        d = self.model.d_model
        n_q = self.num_queries
        n_in = self.num_tokens
        n_pts = self.num_sampling_points_per_query
        d_h = self.d_head
        return {
            "value_proj": 2 * n_in * d * d,
            "sampling_offsets": 2 * n_q * d * (2 * n_pts),
            "attention_weights": 2 * n_q * d * n_pts,
            "output_proj": 2 * n_q * d * d,
            "softmax": 5 * n_q * n_pts,
            "msgs": n_q * n_pts * d_h * 10,
            "aggregation": 2 * n_q * n_pts * d_h,
        }

    def layer_flops(self) -> int:
        """Total dense FLOPs of one MSDeformAttn layer."""
        return int(sum(self.layer_flops_breakdown().values()))

    def ffn_flops_per_layer(self) -> int:
        """FLOPs of the FFN block of one encoder layer."""
        return 2 * self.num_tokens * self.model.d_model * self.model.ffn_dim * 2

    def encoder_flops(self) -> int:
        """Dense FLOPs of the whole encoder (attention + FFN)."""
        per_layer = self.layer_flops() + self.ffn_flops_per_layer()
        return per_layer * self.model.num_encoder_layers

    # ------------------------------------------------------------- memory

    def multi_scale_to_single_scale_ratio(self, single_scale_stride: int = 32) -> float:
        """Pixel-count ratio of the full pyramid vs. a single-scale feature map.

        The paper quotes this as the ~21.3x factor by which multi-scale fmaps
        exceed the single-scale (stride-32) fmaps of DeformConv (Sec. 2.2).
        """
        single = make_level_shapes(self.image_height, self.image_width, (single_scale_stride,))[0]
        return self.num_tokens / single.num_pixels

    def describe(self) -> dict[str, float | int | str]:
        """Human-readable summary used by examples and the experiment runner."""
        return {
            "workload": self.name,
            "image": f"{self.image_height}x{self.image_width}",
            "levels": "+".join(f"{s.height}x{s.width}" for s in self.spatial_shapes),
            "num_tokens": self.num_tokens,
            "sampling_points_per_layer": self.num_sampling_points_per_layer,
            "layer_gflops": self.layer_flops() / 1e9,
            "encoder_gflops": self.encoder_flops() / 1e9,
        }


def get_workload(model_name: str, scale: str = "medium") -> WorkloadSpec:
    """Build the :class:`WorkloadSpec` for *model_name* at a scale preset."""
    if scale not in SCALE_PRESETS:
        raise KeyError(f"unknown scale {scale!r}; known scales: {sorted(SCALE_PRESETS)}")
    height, width = SCALE_PRESETS[scale]
    return WorkloadSpec(
        model=get_model_config(model_name),
        scale=scale,
        image_height=height,
        image_width=width,
    )
