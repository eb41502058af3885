"""Configuration of the DEFA algorithm-level optimizations.

One :class:`DEFAConfig` instance describes which of the paper's techniques are
enabled and with which hyper-parameters:

* frequency-weighted fmap pruning (FWP, Sec. 3.1) with threshold factor ``k``,
* probability-aware point pruning (PAP, Sec. 3.2) with its probability
  threshold,
* level-wise range narrowing (Sec. 4.1) with per-level bounded ranges,
* INT12/INT8 quantization of the MSDeformAttn modules (Sec. 5.1/5.2).

The defaults reproduce the paper's operating point (~43 % fmap pixels and
~84 % sampling points removed with negligible accuracy loss).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

DEFAULT_LEVEL_RANGES: tuple[float, ...] = (8.0, 7.0, 7.0, 6.0)
"""Default per-level bounded half-ranges (in pixels of the sampled level).

The finest level gets the widest range; using the unified (maximum) range on
all levels costs roughly 25 % extra on-chip storage (Sec. 4.1), which the
``unified_range`` ablation reproduces.
"""


@dataclass(frozen=True)
class DEFAConfig:
    """Algorithm-level configuration of DEFA.

    The config says *what* is computed: every field can change the outputs.
    *How* it executes — the dense/sparse path, the kernel backend and the
    dispatch profile, none of which change the numerics of a chosen path —
    lives in :class:`~repro.kernels.ExecutionOptions`.

    Parameters
    ----------
    enable_fwp:
        Apply frequency-weighted fmap pruning: the sampled frequency of every
        fmap pixel is counted in block *i* and pixels below the threshold are
        skipped (projection + memory access) in block *i+1*.
    fwp_k:
        Threshold factor ``k`` in ``T_FWP = k * mean(F)`` (Eq. 2).
    enable_pap:
        Apply probability-aware point pruning: sampling points whose softmax
        attention probability falls below ``pap_threshold`` are removed.
    pap_threshold:
        Absolute probability threshold.  With ``N_l * N_p = 16`` points per
        head the uniform probability is 1/16 = 0.0625; the default prunes
        points holding well under that share of the attention mass.
        PAP always keeps the highest-probability point of every (query, head)
        and keeps the raw probabilities of the survivors (pruned mass is
        simply dropped, as in the paper).
    enable_range_narrowing:
        Clamp sampling offsets into the per-level bounded ranges of
        :data:`DEFAULT_LEVEL_RANGES` around the reference point.
    unified_range:
        Ablation switch: use the maximum of those ranges on every level
        (the "unified bounded range" of Fig. 4, costing ~25 % extra SRAM).
    quant_bits:
        Bit width of the fake quantization applied to the MSDeformAttn
        weights/activations (12 in the paper, 8 for the rejected ablation,
        ``None`` disables quantization).
    enable_query_pruning:
        Extend the FWP mask to the *query* side of the next block: when the
        query set is the pixel set (encoder self-attention, ``N_q == N_in``),
        pruned pixels stop acting as queries — their sampling points are
        pruned wholesale, they contribute nothing to frequency counting, and
        their attention-block output is the output-projection bias.  Inside a
        :class:`~repro.core.encoder_runner.DEFAEncoderRunner` the pruning
        carries through the whole encoder block (block-sparse encoder):
        pruned pixels also skip the residual adds, ``norm1``, the FFN and
        ``norm2``, leaving the block *frozen at the block input* (the
        frozen-value convention), so the next block's FWP mask sees their
        unmodified features.  Off by default: the Fig. 6 experiments
        reproduce the paper's FWP-on-values-only operating point.  Both
        execution paths implement the same semantics (the dense path
        computes and masks, the sparse path skips the rows), so dense/sparse
        equivalence is unchanged.
    """

    enable_fwp: bool = True
    fwp_k: float = 0.75
    enable_pap: bool = True
    pap_threshold: float = 0.035
    enable_range_narrowing: bool = True
    unified_range: bool = False
    quant_bits: int | None = 12
    enable_query_pruning: bool = False

    def __post_init__(self) -> None:
        if self.fwp_k < 0:
            raise ValueError("fwp_k must be non-negative")
        if not 0 <= self.pap_threshold < 1:
            raise ValueError("pap_threshold must be in [0, 1)")
        if self.quant_bits is not None and not 2 <= self.quant_bits <= 32:
            raise ValueError("quant_bits must be in [2, 32] or None")

    # ------------------------------------------------------------ factories

    @staticmethod
    def baseline() -> "DEFAConfig":
        """Configuration with every DEFA technique disabled (the FP32 baseline)."""
        return DEFAConfig(
            enable_fwp=False,
            enable_pap=False,
            enable_range_narrowing=False,
            quant_bits=None,
        )

    @staticmethod
    def paper_default() -> "DEFAConfig":
        """The paper's operating point: FWP + PAP + range narrowing + INT12."""
        return DEFAConfig()

    def with_overrides(self, **kwargs) -> "DEFAConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    def effective_ranges(self, num_levels: int) -> tuple[float, ...]:
        """Bounded ranges actually applied, accounting for ``unified_range``.

        Raises if range narrowing is enabled and the workload has more
        pyramid levels than :data:`DEFAULT_LEVEL_RANGES` has entries.
        """
        if not self.enable_range_narrowing:
            return tuple([float("inf")] * num_levels)
        ranges = DEFAULT_LEVEL_RANGES
        if len(ranges) < num_levels:
            raise ValueError(
                f"{len(ranges)} level ranges configured but the workload has {num_levels} levels"
            )
        ranges = tuple(float(r) for r in ranges[:num_levels])
        if self.unified_range:
            return tuple([max(ranges)] * num_levels)
        return ranges

    def describe(self) -> dict[str, object]:
        """Short dictionary summary (used by example scripts and reports)."""
        return {
            "fwp": f"k={self.fwp_k}" if self.enable_fwp else "off",
            "pap": f"thr={self.pap_threshold}" if self.enable_pap else "off",
            "range_narrowing": (
                ("unified " if self.unified_range else "") + str(DEFAULT_LEVEL_RANGES)
                if self.enable_range_narrowing
                else "off"
            ),
            "quantization": f"INT{self.quant_bits}" if self.quant_bits else "FP32",
        }
