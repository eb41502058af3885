"""The execution knobs and the dispatch constants threaded through the stack.

:class:`~repro.core.config.DEFAConfig` says *what* a DEFA pipeline computes
(FWP ``k``, the PAP threshold, quantization, query pruning — every field can
change the outputs); :class:`ExecutionOptions` says *how* it executes
(``sparse_mode``, ``kernel_backend``), and none of its fields changes the
numerics of a chosen path.  Each knob has exactly one home: detail
collection is a per-call argument of the surface that returns details
(``DEFAEncoderRunner.forward(collect_details=)``).  Every surface of the
pruned DEFA stack (``DEFAAttention``, ``DEFAEncoderRunner``, streaming and
serving) takes ``options=`` only, checked once by
:func:`normalize_execution_options` (coerce once at the boundary, everything
downstream sees one type).  The unpruned ``MSDeformAttn`` operator has one
dense path and takes no options.

The one-object rule for future knobs: a new execution switch is a new
``ExecutionOptions`` field, never a new loose keyword.

Where ``sparse_mode`` is ``"auto"``, the dense/sparse choice of every stage
compares keep fractions and problem sizes with the crossover constants of
:data:`DISPATCH_THRESHOLDS`, the same on every host and backend.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from types import SimpleNamespace

from repro.kernels.registry import KERNEL_BACKENDS

#: Execution-path switch values (mirrors ``repro.core.pipeline.SPARSE_MODES``;
#: duplicated here as plain data so the options module stays import-cycle-free
#: below the pipeline).
_SPARSE_MODES = ("auto", "dense", "sparse")


@dataclass(frozen=True)
class DispatchThresholds:
    """Crossover constants of the ``auto`` dense/sparse dispatch rules.

    The defaults are the hand-tuned reference-machine values, and this
    dataclass is their only home; the stack reads the one instance
    :data:`DISPATCH_THRESHOLDS`.

    Boundary semantics — pinned by the boundary-value tests, and load-bearing
    for the path-choice-parity invariant: a threshold that sits exactly on a
    keep fraction or a problem size must make the *same* decision in batched
    and single-image execution, otherwise float rounding differences between
    the two kernels can be amplified into INT12 quantization steps:

    * minimum sizes compare with ``<`` — ``rows_per_image < min_rows`` (and
      ``slots_per_image < min_slots``) forces dense, so a problem *exactly
      at* the minimum is sparse-eligible;
    * keep ratios compare with ``<=`` — ``keep_fraction <= keep_max`` goes
      sparse, so a keep fraction *exactly at* the crossover goes sparse.
    """

    pixel_keep_max: float = 0.85
    """Value projection: compacted when at most this fraction of fmap pixels
    survives the incoming FWP mask."""

    min_tokens: int = 512
    """Value projection: minimum per-image ``N_in`` before compaction can pay
    for its gather/scatter overhead."""

    query_keep_max: float = 0.85
    """Query-side projections (attention / offset / output heads) under query
    pruning: compacted at or below this query keep fraction."""

    min_queries: int = 512
    """Query-side projections: minimum per-image ``N_q``."""

    ffn_keep_max: float = 0.85
    """Inter-block FFN/LayerNorm stage (block-sparse encoder): compacted at
    or below this pixel keep fraction."""

    ffn_min_tokens: int = 512
    """Inter-block FFN/LayerNorm stage: minimum per-image ``N_in``."""

    point_keep_max: float = 0.70
    """MSGS point gathering: compacted at or below this PAP point keep
    fraction.  Above it, the compaction overhead (flatnonzero + segment
    bookkeeping) outweighs the avoided gather traffic."""

    min_slots: int = 32768
    """MSGS point gathering: minimum per-image gather slots
    (``N_q * N_h * N_l * N_p * 4``); below it, fixed per-call overhead
    dominates.  Counted per image, not per batch: batched and single-image
    execution must make the same dense/sparse decision, otherwise quantized
    configs could amplify the float32 rounding difference between the two
    kernels into a full quantization step and break batched-vs-serial
    equivalence."""


DISPATCH_THRESHOLDS = DispatchThresholds()
"""The dispatch thresholds every ``auto`` stage of the stack reads."""


def resolve_profile(profile: None = None) -> SimpleNamespace:
    """The name of the dispatch thresholds, ``"reference"``.

    Exists only for the ``machine_profile`` stamp of a perfbench record,
    which says which thresholds a run dispatched under; there is one set,
    :data:`DISPATCH_THRESHOLDS`.  ``profile`` is the stamp's ``None``.
    """
    return SimpleNamespace(name="reference")


@dataclass(frozen=True)
class ExecutionOptions:
    """How a DEFA pipeline executes — independent of *what* it computes.

    Every field defaults to "inherit": ``None`` means the consuming layer
    keeps its own default.  The object is frozen, hashable and picklable
    (pass backend *names*, not backend objects, when it must cross a process
    boundary, e.g. inside a :class:`~repro.engine.serving.ModelBankSpec`).

    Parameters
    ----------
    sparse_mode:
        ``"auto"`` / ``"dense"`` / ``"sparse"`` execution-path switch (see
        :data:`repro.core.pipeline.SPARSE_MODES`), or ``None`` for
        ``"auto"``.
    kernel_backend:
        Kernel-backend specification — a name from
        :data:`repro.kernels.KERNEL_BACKENDS`, a backend object, or ``None``
        to follow the process default (``REPRO_KERNEL_BACKEND``, else
        ``"fused"``; see :mod:`repro.kernels.registry`).
    """

    sparse_mode: str | None = None
    kernel_backend: object | None = None

    def __post_init__(self) -> None:
        if self.sparse_mode is not None and self.sparse_mode not in _SPARSE_MODES:
            raise ValueError(
                f"sparse_mode must be one of {_SPARSE_MODES} or None, "
                f"got {self.sparse_mode!r}"
            )
        if isinstance(self.kernel_backend, str) and (
            self.kernel_backend not in KERNEL_BACKENDS
        ):
            raise ValueError(
                f"kernel_backend must be one of {KERNEL_BACKENDS}, a backend "
                f"object or None, got {self.kernel_backend!r}"
            )

    def with_overrides(self, **kwargs) -> "ExecutionOptions":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def normalize_execution_options(
    options: ExecutionOptions | None = None, *, owner: str
) -> ExecutionOptions:
    """Coerce the ``options=`` argument of a surface into one object.

    ``None`` means all defaults; anything other than an
    :class:`ExecutionOptions` is a :class:`TypeError` naming ``owner``.
    """
    if options is None:
        return ExecutionOptions()
    if not isinstance(options, ExecutionOptions):
        raise TypeError(
            f"{owner}: options must be an ExecutionOptions, "
            f"got {type(options).__name__}"
        )
    return options
