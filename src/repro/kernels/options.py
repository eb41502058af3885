"""One object for the execution knobs threaded through the stack.

:class:`~repro.core.config.DEFAConfig` says *what* a DEFA pipeline computes
(FWP ``k``, the PAP threshold, quantization, query pruning — every field can
change the outputs); :class:`ExecutionOptions` says *how* it executes
(``sparse_mode``, ``kernel_backend``, ``machine_profile``), and none of its
fields changes the numerics of a chosen path.  Each knob has exactly one
home: detail collection is a per-call argument of the surfaces that return
details (``DEFAEncoderRunner.forward(collect_details=)``,
``MSDeformAttn.forward_detailed(with_trace=)``).  Every surface of the
pruned DEFA stack (``DEFAAttention``, ``DEFAEncoderRunner``, streaming and
serving) takes ``options=`` only, checked once by
:func:`normalize_execution_options` (coerce once at the boundary, everything
downstream sees one type).  The unpruned ``MSDeformAttn`` operator has one
dense path and takes no options.

The one-object rule for future knobs: a new execution switch is a new
``ExecutionOptions`` field, never a new loose keyword.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.kernels.calibration import MachineProfile
from repro.kernels.registry import KERNEL_BACKENDS

#: Execution-path switch values (mirrors ``repro.core.pipeline.SPARSE_MODES``;
#: duplicated here as plain data so the options module stays import-cycle-free
#: below the pipeline).
_SPARSE_MODES = ("auto", "dense", "sparse")


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
    machine_profile:
        Host-calibrated auto-dispatch profile: a
        :class:`~repro.kernels.MachineProfile`, ``"reference"``, a path to a
        profile JSON file, or ``None`` to follow the process-default active
        profile (``REPRO_MACHINE_PROFILE``, falling back to the committed
        reference constants), resolved via
        :func:`~repro.kernels.resolve_profile`.  Layers with a construction
        step resolve it once there and reject it per call.  Profiles move
        *dispatch decisions* (which equivalence-tested dense/sparse path
        runs), never the numerics of a chosen path.
    """

    sparse_mode: str | None = None
    kernel_backend: object | None = None
    machine_profile: "MachineProfile | str | None" = None

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
        if self.machine_profile is not None and not isinstance(
            self.machine_profile, (str, MachineProfile)
        ):
            raise TypeError(
                "machine_profile must be a MachineProfile, 'reference', a "
                "profile JSON path, or None, got "
                f"{type(self.machine_profile).__name__}"
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
