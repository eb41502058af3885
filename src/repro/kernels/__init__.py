"""Kernel backends and zero-allocation execution plans (PR 5).

Public surface:

* :func:`get_backend` / :func:`set_backend` / :func:`resolve_backend` /
  :func:`use_backend` — backend selection (``"reference"`` = the PR 4
  kernels unchanged, ``"fused"`` = bit-identical single-pass kernels with
  buffer reuse, ``"compiled"`` = the fused hot loops as C kernels when the
  optional extension is built, falling back to ``"fused"`` otherwise),
  initialised from ``REPRO_KERNEL_BACKEND``.
* :data:`COMPILED_AVAILABLE` — whether the compiled kernel library loaded;
  gate for tests/benchmarks that exercise the ``"compiled"`` backend
  specifically rather than its fallback.
* :class:`ExecutionPlan` — the named-buffer arena that makes steady-state
  encoder forwards allocation-free (see :mod:`repro.kernels.plan` for the
  lifetime rules).
* :mod:`repro.kernels.fused_ops` — plan-aware fused projection / LayerNorm /
  fake-quantize helpers used by the pipeline when a plan is active.
* :class:`ExecutionOptions` / :func:`normalize_execution_options` — the one
  frozen object bundling the execution knobs (``sparse_mode``, kernel
  backend) threaded through the whole stack, and its single normalization
  point (see :mod:`repro.kernels.options`).
* :class:`DispatchThresholds` / :data:`DISPATCH_THRESHOLDS` — the crossover
  constants of the ``auto`` dense/sparse dispatch rules, one set for every
  host and backend.
"""

from repro.kernels.registry import (
    DEFAULT_BACKEND_ENV,
    KERNEL_BACKENDS,
    get_backend,
    resolve_backend,
    set_backend,
    use_backend,
)
from repro.kernels.options import (
    DISPATCH_THRESHOLDS,
    DispatchThresholds,
    ExecutionOptions,
    normalize_execution_options,
    resolve_profile,
)
from repro.kernels.plan import ExecutionPlan
from repro.kernels.compiled_backend import COMPILED_AVAILABLE

__all__ = [
    "COMPILED_AVAILABLE",
    "DEFAULT_BACKEND_ENV",
    "DISPATCH_THRESHOLDS",
    "DispatchThresholds",
    "ExecutionOptions",
    "ExecutionPlan",
    "KERNEL_BACKENDS",
    "get_backend",
    "normalize_execution_options",
    "resolve_backend",
    "resolve_profile",
    "set_backend",
    "use_backend",
]
