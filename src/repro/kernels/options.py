"""One object for the execution knobs threaded through the stack (PR 8).

Across PRs 2-7 the execution switches grew ad hoc as per-call keywords:
``sparse_mode=`` on :class:`~repro.core.pipeline.DEFAAttention` and
:class:`~repro.core.encoder_runner.DEFAEncoderRunner`, ``backend=`` /
``kernel_backend`` in four different spots, ``collect_details=`` on the
runner, ``enable_query_pruning`` on the config.  :class:`ExecutionOptions`
bundles them into one frozen object that travels the whole stack —
``DEFAAttention`` / ``MSDeformAttn.forward_detailed`` /
``DEFAEncoderRunner`` / ``defa_forward_fn`` / ``ModelBankSpec`` — and
:func:`normalize_execution_options` is the *single* point where it is
checked (the PR 5 ``normalize_mask`` precedent: coerce once at the boundary,
everything downstream sees one type).  The loose keywords are gone: every
surface takes ``options=`` only.

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
    keeps its own default (``sparse_mode`` ``"auto"``, backend resolution
    chain unchanged, the wrapped config's query-pruning flag).  The object is
    frozen, hashable and picklable (pass backend *names*, not backend
    objects, when it must cross a process boundary, e.g. inside a
    :class:`~repro.engine.serving.ModelBankSpec`).

    Parameters
    ----------
    sparse_mode:
        ``"auto"`` / ``"dense"`` / ``"sparse"`` execution-path switch (see
        :data:`repro.core.pipeline.SPARSE_MODES`), or ``None`` to keep the
        consumer's default (``"auto"``).
    kernel_backend:
        Kernel-backend specification — a name from
        :data:`repro.kernels.KERNEL_BACKENDS`, a backend object, or ``None``
        to follow the ``config.kernel_backend`` → process-default resolution
        chain.
    collect_details:
        Keep per-block attention outputs (:class:`~repro.core.encoder_runner.
        DEFAEncoderRunner` forwards) / the integer sampling trace
        (``MSDeformAttn.forward_detailed``).  Detail collection disables the
        execution-plan arenas, since the details must outlive the forward.
    enable_query_pruning:
        Override :attr:`~repro.core.config.DEFAConfig.enable_query_pruning`
        at construction time (``None`` keeps the config's value).  Only
        layers that *own* a config honor it — per-call surfaces
        (``MSDeformAttn.forward_detailed``, :func:`~repro.engine.batching.
        defa_forward_fn`) reject it, because the pruning projections are
        baked in when the runner is built.
    machine_profile:
        Host-calibrated auto-dispatch profile (PR 9): a
        :class:`~repro.kernels.MachineProfile`, ``"reference"``, a path to a
        profile JSON file, or ``None`` to follow the process-default active
        profile (``REPRO_MACHINE_PROFILE``, falling back to the committed
        reference constants).  Resolved once at construction by the owning
        layer via :func:`~repro.kernels.resolve_profile`; per-call surfaces
        reject it.  Profiles move *dispatch decisions* (which
        equivalence-tested dense/sparse path runs), never the numerics of a
        chosen path.
    """

    sparse_mode: str | None = None
    kernel_backend: object | None = None
    collect_details: bool = False
    enable_query_pruning: bool | None = None
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
