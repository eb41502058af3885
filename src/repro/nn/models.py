"""Model configurations for the paper's three benchmark networks.

The paper evaluates DEFA on the MSDeformAttn layers in the encoders of
Deformable DETR, DN-DETR and DINO (object detection on COCO 2017).  This
module records their architectural hyper-parameters along with the published
reference numbers used by the experiment harness (baseline AP, AP after the
DEFA algorithm modifications, workload GFLOPs, GPU latency fractions).

Architectural details that the paper does not state explicitly follow the
official open-source configurations of the respective models; each such field
of :class:`ModelConfig` says "Approximation" in its docstring.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.nn.encoder import DeformableEncoder
from repro.utils.rng import as_rng


@dataclass(frozen=True)
class PublishedNumbers:
    """Reference numbers reported by the paper for one benchmark model."""

    baseline_ap: float
    """COCO AP of the unmodified model (Fig. 6a, "Baseline")."""

    defa_ap: float
    """COCO AP after FWP + PAP + range narrowing + INT12 (Fig. 6a, "DEFA")."""

    msgs_latency_fraction: float
    """Fraction of MSDeformAttn GPU latency spent in MSGS + aggregation (Fig. 1b)."""

    sampling_point_reduction: float
    """Fraction of sampling points removed by PAP (Fig. 6b)."""

    fmap_pixel_reduction: float
    """Fraction of fmap pixels removed by FWP (Fig. 6b)."""

    flops_reduction: float
    """Fraction of MSDeformAttn computation removed overall (Fig. 6b)."""

    msgs_throughput_boost: float
    """Inter-level over intra-level MSGS throughput (Fig. 7a)."""

    speedup_2080ti: float
    """DEFA speedup over RTX 2080Ti (Fig. 9a)."""

    speedup_3090ti: float
    """DEFA speedup over RTX 3090Ti (Fig. 9a)."""

    ee_improvement_2080ti: float
    """DEFA energy-efficiency improvement over RTX 2080Ti (Fig. 9b)."""

    ee_improvement_3090ti: float
    """DEFA energy-efficiency improvement over RTX 3090Ti (Fig. 9b)."""


@dataclass(frozen=True)
class ModelConfig:
    """Architecture + workload description of one benchmark network."""

    name: str
    """Canonical short name ("deformable_detr", "dn_detr", "dino")."""

    display_name: str
    """Name as it appears in the paper's figures."""

    d_model: int = 256
    num_heads: int = 8
    num_levels: int = 4
    num_points: int = 4
    num_encoder_layers: int = 6
    ffn_dim: int = 1024
    """Encoder FFN width.  Approximation: not stated in the paper; each
    model's value follows its official configuration (1024 for Deformable
    DETR, 2048 for DN-DETR and DINO)."""

    activation: str = "relu"
    """Encoder FFN activation.  Approximation: the official configurations'
    choice; not stated in the paper."""

    image_height: int = 800
    image_width: int = 1066
    """Input resolution.  Approximation: the usual COCO evaluation resize
    (shorter side 800); the paper does not state it."""

    strides: tuple[int, ...] = (8, 16, 32, 64)
    """Backbone strides of the four pyramid levels.  Approximation: the
    official multi-scale configuration; not stated in the paper."""

    published: PublishedNumbers = field(default=None)  # type: ignore[assignment]

    def encoder_kwargs(self) -> dict:
        """Keyword arguments for :class:`DeformableEncoder` construction."""
        return {
            "num_layers": self.num_encoder_layers,
            "d_model": self.d_model,
            "num_heads": self.num_heads,
            "num_levels": self.num_levels,
            "num_points": self.num_points,
            "ffn_dim": self.ffn_dim,
            "activation": self.activation,
        }


_MODEL_CONFIGS: dict[str, ModelConfig] = {
    "deformable_detr": ModelConfig(
        name="deformable_detr",
        display_name="De DETR",
        ffn_dim=1024,
        published=PublishedNumbers(
            baseline_ap=46.9,
            defa_ap=45.5,
            msgs_latency_fraction=0.6328,
            sampling_point_reduction=0.86,
            fmap_pixel_reduction=0.42,
            flops_reduction=0.52,
            msgs_throughput_boost=3.09,
            speedup_2080ti=11.8,
            speedup_3090ti=31.9,
            ee_improvement_2080ti=23.2,
            ee_improvement_3090ti=37.7,
        ),
    ),
    "dn_detr": ModelConfig(
        name="dn_detr",
        display_name="DN-DETR",
        ffn_dim=2048,
        published=PublishedNumbers(
            baseline_ap=49.4,
            defa_ap=47.9,
            msgs_latency_fraction=0.6036,
            sampling_point_reduction=0.83,
            fmap_pixel_reduction=0.44,
            flops_reduction=0.53,
            msgs_throughput_boost=3.02,
            speedup_2080ti=10.1,
            speedup_3090ti=29.4,
            ee_improvement_2080ti=20.3,
            ee_improvement_3090ti=35.3,
        ),
    ),
    "dino": ModelConfig(
        name="dino",
        display_name="DINO",
        ffn_dim=2048,
        published=PublishedNumbers(
            baseline_ap=50.8,
            defa_ap=49.4,
            msgs_latency_fraction=0.6331,
            sampling_point_reduction=0.82,
            fmap_pixel_reduction=0.44,
            flops_reduction=0.53,
            msgs_throughput_boost=3.06,
            speedup_2080ti=10.8,
            speedup_3090ti=30.2,
            ee_improvement_2080ti=21.6,
            ee_improvement_3090ti=36.3,
        ),
    ),
}

MODEL_NAMES: tuple[str, ...] = tuple(_MODEL_CONFIGS)
"""Canonical names of the three benchmark models."""


def get_model_config(name: str) -> ModelConfig:
    """Look up a :class:`ModelConfig` by canonical or display name."""
    key = name.lower().replace("-", "_").replace(" ", "_")
    aliases = {
        "de_detr": "deformable_detr",
        "dedetr": "deformable_detr",
        "dn_deformable_detr": "dn_detr",
        "dndetr": "dn_detr",
    }
    key = aliases.get(key, key)
    if key not in _MODEL_CONFIGS:
        raise KeyError(f"unknown model {name!r}; known models: {sorted(_MODEL_CONFIGS)}")
    return _MODEL_CONFIGS[key]


def build_encoder(
    config: ModelConfig,
    rng: np.random.Generator | int | None = None,
) -> DeformableEncoder:
    """Construct the deformable encoder of *config* with synthetic weights."""
    return DeformableEncoder(rng=as_rng(rng), **config.encoder_kwargs())
