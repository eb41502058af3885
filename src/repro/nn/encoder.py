"""Deformable transformer encoder layers and encoder stacks.

The paper evaluates DEFA on the MSDeformAttn layers inside the encoders of
Deformable DETR, DN-DETR and DINO.  An encoder layer is the usual
pre-/post-norm transformer block with MSDeformAttn as the token mixer:

    src = LayerNorm(src + MSDeformAttn(src + pos, ref_points, src))
    src = LayerNorm(src + FFN(src))

Pruned execution, which propagates a feature-map mask from one MSDeformAttn
block to the next, runs these layers' weights through
:class:`~repro.core.encoder_runner.DEFAEncoderRunner`.
"""

from __future__ import annotations

import numpy as np

from repro.nn.modules import FeedForward, LayerNorm, Module
from repro.nn.msdeform_attn import MSDeformAttn
from repro.nn.tensor_utils import FLOAT_DTYPE
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.shapes import LevelShape
from repro.utils.timing import kernel_section


class DeformableEncoderLayer(Module):
    """One deformable transformer encoder layer (MSDeformAttn + FFN)."""

    def __init__(
        self,
        d_model: int = 256,
        num_heads: int = 8,
        num_levels: int = 4,
        num_points: int = 4,
        ffn_dim: int = 1024,
        activation: str = "relu",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        rng = as_rng(rng)
        self.d_model = d_model
        self.self_attn = MSDeformAttn(
            d_model=d_model,
            num_heads=num_heads,
            num_levels=num_levels,
            num_points=num_points,
            rng=rng,
        )
        self.norm1 = LayerNorm(d_model)
        self.ffn = FeedForward(d_model, ffn_dim, activation=activation, rng=rng)
        self.norm2 = LayerNorm(d_model)

    def forward_ffn_stage(
        self,
        src: np.ndarray,
        attn_output: np.ndarray,
        keep_mask: np.ndarray | None = None,
        compact: bool = False,
        plan=None,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        """The inter-block stage ``norm2(z + ffn(z))``, ``z = norm1(src + attn)``.

        Parameters
        ----------
        src:
            Block input of shape ``(N, D)`` or ``(B, N, D)``.
        attn_output:
            Same-shape output of the attention block.  With a ``plan`` and a
            ``keep_mask`` it may instead be the attention output's kept rows
            only, ``(K, D)`` in flat kept order — what the planned attention
            block (:meth:`repro.core.pipeline.DEFAAttention.
            forward_kept_rows`) produces under row-compacted query pruning;
            its other dispatches produce the same-shape output.  The compact
            stage then adds the rows as they are, with no gather; the
            masked-dense stage spreads them over zero rows, whose results
            its mask discards.
        keep_mask:
            Optional boolean keep-mask over the rows (``(N,)``, or ``(B, N)``
            when batched).  Pruned rows skip the residual adds, ``norm1``, the
            FFN and ``norm2`` entirely and *carry the block input unchanged*
            (the frozen-value convention of the block-sparse encoder: a pixel
            the FWP mask pruned from the query side contributes nothing to
            this block, so its residual stream is frozen at the block input).
            ``None`` runs the ordinary dense stage.
        compact:
            With a mask: ``True`` gathers the kept rows and runs the stage
            row-compacted (the wall-clock savings; the residual adds run on
            the gathered rows, then the row-local :class:`LayerNorm` /
            :class:`FeedForward` forwards, so ``forward(x[rows])`` matches
            ``forward(x)[rows]``); ``False`` computes the stage
            densely and masks, which implements identical semantics (kept
            rows agree to float32 matmul precision, frozen rows exactly).
        plan:
            Optional :class:`~repro.kernels.ExecutionPlan`.  When given,
            every stage intermediate (residual adds, the FFN hidden buffer of
            one row block, and the norm outputs) lives in reused arena
            buffers, bit-identically to the allocating path.  The dense and
            the compact stage use the same buffer names (``ffn.mixed``,
            ``ffn.src2``, ``ffn.hidden``).
        out:
            Optional destination for the stage output (same shape as
            ``src``).  Requires ``plan``; without a plan the stage always
            allocates.  ``out`` may be ``src`` itself — the encoder runner
            keeps the residual stream in one arena buffer that way: every
            stage reads its input rows before it writes them, and a masked
            stage then writes only the kept rows, leaving the frozen rows
            where they are instead of copying them.

        Returns the stage output in the shape of ``src``.
        """
        src = np.asarray(src, dtype=FLOAT_DTYPE)
        attn_output = np.asarray(attn_output, dtype=FLOAT_DTYPE)
        if out is not None and plan is None:
            raise ValueError("forward_ffn_stage: out= requires a plan")
        if keep_mask is None:
            if plan is not None:
                mixed = plan.buffer("ffn.mixed", src.shape)
                src2 = plan.buffer("ffn.src2", src.shape)
                hidden_rows = self.ffn.hidden_rows(src.size // src.shape[-1])
                hidden = plan.buffer("ffn.hidden", (hidden_rows, self.ffn.d_ffn))
                with kernel_section("norm"):
                    np.add(src, attn_output, out=mixed)
                    self.norm1.forward_into(mixed, src2)
                with kernel_section("ffn"):
                    self.ffn.forward_into(src2, mixed, hidden)  # mixed = ffn_out
                with kernel_section("norm"):
                    np.add(src2, mixed, out=mixed)
                    result = out if out is not None else plan.buffer("ffn.out", src.shape)
                    self.norm2.forward_into(mixed, result)
                return result
            with kernel_section("norm"):
                src2 = self.norm1(src + attn_output)
            with kernel_section("ffn"):
                ffn_out = self.ffn(src2)
            with kernel_section("norm"):
                out_dense = self.norm2(src2 + ffn_out)
            return out_dense.astype(FLOAT_DTYPE)
        keep_mask = np.asarray(keep_mask, dtype=bool)
        if keep_mask.shape != src.shape[:-1]:
            raise ValueError("keep_mask must match the row shape of src")
        d_model = src.shape[-1]
        flat_src = src.reshape(-1, d_model)
        kept = attn_rows = None
        if attn_output.shape != src.shape:
            kept = np.flatnonzero(keep_mask.reshape(-1))
            if plan is None or attn_output.shape != (kept.size, d_model):
                raise ValueError(
                    "attn_output must match src, or (with a plan) hold the (K, D) kept rows"
                )
            attn_rows = attn_output
            if not compact:
                attn_output = plan.zeros("ffn.attn", src.shape)
                attn_output.reshape(-1, d_model)[kept] = attn_rows
        if not compact:
            dense = self.forward_ffn_stage(src, attn_output, plan=plan)
            if plan is not None:
                result = out if out is not None else plan.buffer("ffn.masked_out", src.shape)
                if result is not src:
                    np.copyto(result, src)
                result[keep_mask] = dense[keep_mask]
                return result
            out_masked = src.copy()
            out_masked[keep_mask] = dense[keep_mask]
            return out_masked
        if kept is None:
            kept = np.flatnonzero(keep_mask.reshape(-1))
        flat_attn = attn_output.reshape(-1, d_model)
        if plan is not None:
            result = out if out is not None else plan.buffer("ffn.compact_out", src.shape)
            if result is not src:
                np.copyto(result, src)
            if kept.size:
                with kernel_section("norm"):
                    # The dense stage's names, so the first (dense) block's
                    # buffers serve the compact blocks after it.
                    mixed = plan.take("ffn.mixed", flat_src, kept)
                    if attn_rows is None:
                        attn_rows = plan.take("ffn.src2", flat_attn, kept)
                    np.add(mixed, attn_rows, out=mixed)
                    src2 = plan.buffer("ffn.src2", mixed.shape)
                    self.norm1.forward_into(mixed, src2)
                with kernel_section("ffn"):
                    hidden_rows = self.ffn.hidden_rows(kept.size)
                    hidden = plan.buffer("ffn.hidden", (hidden_rows, self.ffn.d_ffn))
                    self.ffn.forward_into(src2, mixed, hidden)  # mixed = ffn_out
                with kernel_section("norm"):
                    np.add(src2, mixed, out=mixed)
                    self.norm2.forward_into(mixed, src2)  # src2 = output rows
                result.reshape(-1, d_model)[kept] = src2
            return result
        out_compact = src.copy()
        if kept.size:
            with kernel_section("norm"):
                src2 = self.norm1(flat_src[kept] + flat_attn[kept])
            with kernel_section("ffn"):
                ffn_out = self.ffn(src2)
            with kernel_section("norm"):
                rows = self.norm2(src2 + ffn_out)
            out_compact.reshape(-1, d_model)[kept] = rows
        return out_compact

    def forward(
        self,
        src: np.ndarray,
        pos: np.ndarray,
        reference_points: np.ndarray,
        spatial_shapes: list[LevelShape],
    ) -> np.ndarray:
        """Layer output of shape ``(N_in, D)`` (``(B, N_in, D)`` when batched).

        ``src`` has shape ``(N_in, D)`` or ``(B, N_in, D)``; ``pos`` has shape
        ``(N_in, D)`` and is shared across the batch (positional encodings
        only depend on the pyramid shapes).  The query of the attention block
        is ``src + pos`` while the value is ``src`` itself.
        """
        src = np.asarray(src, dtype=FLOAT_DTYPE)
        pos = np.asarray(pos, dtype=FLOAT_DTYPE)
        attn = self.self_attn(src + pos, reference_points, src, spatial_shapes)
        return self.forward_ffn_stage(src, attn)


class DeformableEncoder(Module):
    """A stack of :class:`DeformableEncoderLayer` blocks."""

    def __init__(
        self,
        num_layers: int = 6,
        d_model: int = 256,
        num_heads: int = 8,
        num_levels: int = 4,
        num_points: int = 4,
        ffn_dim: int = 1024,
        activation: str = "relu",
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if num_layers <= 0:
            raise ValueError("num_layers must be positive")
        rngs = spawn_rngs(rng, num_layers)
        self.d_model = d_model
        self.num_layers = num_layers
        self.layers = [
            DeformableEncoderLayer(
                d_model=d_model,
                num_heads=num_heads,
                num_levels=num_levels,
                num_points=num_points,
                ffn_dim=ffn_dim,
                activation=activation,
                rng=rngs[i],
            )
            for i in range(num_layers)
        ]

    def forward(
        self,
        src: np.ndarray,
        pos: np.ndarray,
        reference_points: np.ndarray,
        spatial_shapes: list[LevelShape],
    ) -> np.ndarray:
        """Final encoder memory of shape ``(N_in, D)`` (``(B, N_in, D)`` batched)."""
        x = np.asarray(src, dtype=FLOAT_DTYPE)
        for layer in self.layers:
            x = layer(x, pos, reference_points, spatial_shapes)
        return x
