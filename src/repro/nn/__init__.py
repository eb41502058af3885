"""NumPy neural-network substrate for the DEFA reproduction.

This subpackage provides everything the paper's workloads need, implemented
from scratch on top of NumPy:

* basic modules (:class:`~repro.nn.modules.Linear`,
  :class:`~repro.nn.modules.LayerNorm`, activations, feed-forward blocks),
* bilinear grid-sampling kernels (:mod:`repro.nn.grid_sample`),
* the multi-scale deformable attention operator
  (:class:`~repro.nn.msdeform_attn.MSDeformAttn`),
* deformable transformer encoder layers and encoders,
* a synthetic FPN backbone and the encoder configurations of
  Deformable DETR / DN-DETR / DINO,
* an analytic detection head for the synthetic detection task.
"""

from repro.nn.modules import GELU, LayerNorm, Linear, Module, ReLU
from repro.nn.msdeform_attn import MSDeformAttn
from repro.nn.grid_sample import (
    bilinear_neighbors,
    bilinear_sample_level,
    ms_deform_attn_core,
)
from repro.nn.encoder import DeformableEncoder, DeformableEncoderLayer
from repro.nn.models import ModelConfig, build_encoder, get_model_config

__all__ = [
    "Module",
    "Linear",
    "LayerNorm",
    "ReLU",
    "GELU",
    "MSDeformAttn",
    "bilinear_neighbors",
    "bilinear_sample_level",
    "ms_deform_attn_core",
    "DeformableEncoder",
    "DeformableEncoderLayer",
    "ModelConfig",
    "build_encoder",
    "get_model_config",
]
