"""The multi-scale deformable attention (MSDeformAttn) operator.

This is the operator DEFA accelerates (Eq. 1 of the paper):

.. math::

    \\mathrm{MSDeformAttn}(Q, P, X) = \\mathrm{Concat}(H_0, ..., H_{N_h-1}) W^O
    \\qquad
    H_{ij} = \\mathrm{Softmax}(Q_i W^A_j)\\, V_j(P_i + \\Delta P_{ij})

with ``V = X W^V`` and ``\\Delta P = Q W^S``.  The module mirrors the
structure of the official Deformable DETR implementation: per-head value
projection, a sampling-offset head, an attention-weight head (softmax over
all ``N_l * N_p`` points of a head) and an output projection.

Because no trained checkpoints are available offline, the module is
initialized with *structured synthetic weights*: the sampling-offset bias
follows the directional grid initialization of Deformable DETR and the
attention-weight head gets a configurable sharpness so that the softmax
distribution is realistically peaked (the property PAP exploits — in trained
models over 80 % of attention probabilities are near zero).
"""

from __future__ import annotations

import numpy as np

from repro.nn.grid_sample import ms_deform_attn_from_trace, multi_scale_neighbors
from repro.nn.modules import Linear, Module
from repro.nn.tensor_utils import FLOAT_DTYPE, softmax
from repro.utils.rng import as_rng
from repro.utils.shapes import LevelShape, total_pixels


class MSDeformAttn(Module):
    """Multi-scale deformable attention module.

    Inputs may be single images (``(N_q, D)`` queries / ``(N_in, D)`` values)
    or same-shape batches (``(B, N_q, D)`` / ``(B, N_in, D)``).  There is one
    fully vectorized batch-first path: a single image runs as a ``B = 1``
    batch, so it equals image 0 of the batched call bit for bit.

    Parameters
    ----------
    d_model:
        Hidden dimension of queries / values.
    num_heads:
        Number of attention heads ``N_h``.
    num_levels:
        Number of pyramid levels ``N_l``.
    num_points:
        Number of sampling points per level per head ``N_p``.
    rng:
        Seed or generator for the synthetic weight initialization.
    """

    def __init__(
        self,
        d_model: int = 256,
        num_heads: int = 8,
        num_levels: int = 4,
        num_points: int = 4,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if d_model % num_heads != 0:
            raise ValueError("d_model must be divisible by num_heads")
        rng = as_rng(rng)
        self.d_model = d_model
        self.num_heads = num_heads
        self.num_levels = num_levels
        self.num_points = num_points
        self.d_head = d_model // num_heads

        self.value_proj = Linear(d_model, d_model, rng=rng)
        self.output_proj = Linear(d_model, d_model, rng=rng)
        self.sampling_offsets = Linear(d_model, num_heads * num_levels * num_points * 2, rng=rng)
        self.attention_weights = Linear(d_model, num_heads * num_levels * num_points, rng=rng)
        self._init_synthetic_weights(rng)

    def _init_synthetic_weights(self, rng: np.random.Generator) -> None:
        """Structured initialization mimicking a trained Deformable DETR layer."""
        n_h, n_l, n_p = self.num_heads, self.num_levels, self.num_points
        # Directional grid bias for sampling offsets (Deformable DETR init):
        # head h points in direction 2*pi*h/N_h, point p has magnitude (p+1).
        thetas = np.arange(n_h, dtype=FLOAT_DTYPE) * (2.0 * np.pi / n_h)
        grid = np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)  # (N_h, 2)
        grid = grid / np.abs(grid).max(axis=-1, keepdims=True)
        bias = np.tile(grid[:, None, None, :], (1, n_l, n_p, 1))
        bias = bias * (np.arange(n_p, dtype=FLOAT_DTYPE) + 1.0)[None, None, :, None]
        self.sampling_offsets.bias = bias.reshape(-1).astype(FLOAT_DTYPE)
        # Query-dependent offset component with a controlled magnitude: a
        # standard deviation of about 2 pixels of the sampled level.
        self.sampling_offsets.weight = (
            rng.standard_normal(self.sampling_offsets.weight.shape)
            * (2.0 / np.sqrt(self.d_model))
        ).astype(FLOAT_DTYPE)
        # Peaked attention logits: scale the random weights so that the logit
        # standard deviation is roughly 2.5 (larger concentrates the softmax
        # mass on fewer points).
        self.attention_weights.weight = (
            rng.standard_normal(self.attention_weights.weight.shape)
            * (2.5 / np.sqrt(self.d_model))
        ).astype(FLOAT_DTYPE)
        self.attention_weights.bias = (
            rng.standard_normal(self.attention_weights.bias.shape) * 0.5
        ).astype(FLOAT_DTYPE)

    # ------------------------------------------------------------------ API

    def project_attention_logits(self, query: np.ndarray) -> np.ndarray:
        """Raw attention logits ``Q W^A`` of shape ``(..., N_q, N_h, N_l * N_p)``.

        ``query`` may carry arbitrary leading axes (e.g. a batch axis) before
        the trailing ``(N_q, D)`` pair.
        """
        logits = self.attention_weights(query)
        return logits.reshape(
            query.shape[:-1] + (self.num_heads, self.num_levels * self.num_points)
        )

    def attention_probabilities(self, query: np.ndarray) -> np.ndarray:
        """Softmax attention probabilities of shape ``(..., N_q, N_h, N_l, N_p)``."""
        logits = self.project_attention_logits(query)
        probs = softmax(logits, axis=-1)
        return probs.reshape(
            query.shape[:-1] + (self.num_heads, self.num_levels, self.num_points)
        )

    def project_sampling_offsets(self, query: np.ndarray) -> np.ndarray:
        """Raw sampling offsets ``Q W^S`` of shape ``(..., N_q, N_h, N_l, N_p, 2)``."""
        offsets = self.sampling_offsets(query)
        return offsets.reshape(
            query.shape[:-1] + (self.num_heads, self.num_levels, self.num_points, 2)
        )

    def compute_sampling_locations(
        self,
        reference_points: np.ndarray,
        sampling_offsets: np.ndarray,
        spatial_shapes: list[LevelShape],
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """Combine reference points and offsets into normalized locations.

        ``reference_points`` has shape ``(N_q, N_l, 2)`` (normalized); offsets
        are expressed in pixels of their level and divided by the level size,
        following the Deformable DETR convention.

        Batched offsets ``(B, N_q, N_h, N_l, N_p, 2)`` are supported with
        either shared ``(N_q, N_l, 2)`` or per-image ``(B, N_q, N_l, 2)``
        reference points.  ``out`` (same shape as the offsets, may alias
        them) receives the locations without allocating — bit-identical to
        the allocating path (same divide-then-add order).
        """
        if len(spatial_shapes) != self.num_levels:
            raise ValueError("spatial_shapes length must equal num_levels")
        n_h, n_l, n_p = sampling_offsets.shape[-4:-1]
        # Both operands are laid out to match the offsets' trailing axes, so
        # NumPy runs long contiguous inner loops instead of broadcasting
        # length-2 ones: the normalizer as a (N_h, N_l, N_p, 2) block, the
        # reference points repeated over the points (broadcast over heads).
        normalizer = np.array(
            [[s.width, s.height] for s in spatial_shapes], dtype=FLOAT_DTYPE
        )  # (N_l, 2)
        normalizer = np.ascontiguousarray(
            np.broadcast_to(normalizer[:, None, :], (n_h, n_l, n_p, 2))
        )
        ref = np.asarray(reference_points, dtype=FLOAT_DTYPE)
        # (..., N_q, N_l, 2) -> (..., N_q, 1, N_l, N_p, 2).
        ref = np.repeat(ref[..., :, None, :, None, :], n_p, axis=-2)
        if out is None:
            return ref + sampling_offsets / normalizer
        np.divide(sampling_offsets, normalizer, out=out)
        np.add(ref, out, out=out)
        return out

    def forward(
        self,
        query: np.ndarray,
        reference_points: np.ndarray,
        value_input: np.ndarray,
        spatial_shapes: list[LevelShape],
    ) -> np.ndarray:
        """Forward pass returning the ``(N_q, D)`` output (``(B, N_q, D)`` batched).

        This is the unpruned Eq. 1 operator; FWP and PAP prune inside
        :class:`~repro.core.pipeline.DEFAAttention`, which reuses this
        module's weights and projection helpers (the same helpers give a
        caller the intermediates: :meth:`attention_probabilities`,
        :meth:`project_sampling_offsets`, :meth:`compute_sampling_locations`).

        Parameters
        ----------
        query:
            ``(N_q, D)`` query features (content + positional embedding), or a
            batch ``(B, N_q, D)``.
        reference_points:
            ``(N_q, N_l, 2)`` normalized reference points; batched inputs may
            share them or pass per-image points ``(B, N_q, N_l, 2)``.
        value_input:
            ``(N_in, D)`` flattened multi-scale feature maps ``X``, or a batch
            ``(B, N_in, D)`` matching the query batch.
        spatial_shapes:
            Pyramid level shapes whose pixel counts sum to ``N_in``.

        Batched inputs take the fully vectorized kernels (no per-image Python
        loop).  A single image runs as a ``B = 1`` batch whose output is
        returned without the batch axis.
        """
        query = np.asarray(query, dtype=FLOAT_DTYPE)
        value_input = np.asarray(value_input, dtype=FLOAT_DTYPE)
        if query.ndim not in (2, 3):
            raise ValueError("query must have shape (N_q, D) or (B, N_q, D)")
        if value_input.ndim != query.ndim:
            raise ValueError("query and value_input must both be batched or both single")
        single = query.ndim == 2
        if single:
            query, value_input = query[None], value_input[None]
        if value_input.shape[0] != query.shape[0]:
            raise ValueError("query and value_input batch sizes differ")
        n_in = value_input.shape[1]
        if n_in != total_pixels(spatial_shapes):
            raise ValueError("value_input length does not match spatial_shapes")

        value = self.value_proj(value_input).reshape(
            value_input.shape[:-1] + (self.num_heads, self.d_head)
        )
        attention = self.attention_probabilities(query)
        offsets = self.project_sampling_offsets(query)
        locations = self.compute_sampling_locations(reference_points, offsets, spatial_shapes)
        trace = multi_scale_neighbors(spatial_shapes, locations)
        head_outputs = ms_deform_attn_from_trace(value, trace, attention)
        output = self.output_proj(head_outputs).astype(FLOAT_DTYPE)
        return output[0] if single else output
