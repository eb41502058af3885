"""Kernel-backend registry and selection.

The compact-trace MSGS kernels (and the execution-plan machinery that rides
with them) exist in three implementations — see :mod:`repro.kernels.backends`.
Selection, from lowest to highest precedence:

1. the process default — the ``REPRO_KERNEL_BACKEND`` environment variable
   at first use (``"fused"`` when unset), changeable at runtime with
   :func:`set_backend`;
2. the owning layer's :attr:`repro.kernels.ExecutionOptions.kernel_backend`
   — a :class:`~repro.core.encoder_runner.DEFAEncoderRunner`'s or
   :class:`~repro.core.pipeline.DEFAAttention`'s construction options
   (``None`` follows the process default);
3. the ``options=`` of a single ``forward_detailed`` call, which the
   encoder runner uses to hand its once-per-forward resolved backend to
   every block.

``"reference"`` reproduces the PR 4 execution byte for byte (no execution
plans, per-chunk allocation); ``"fused"`` is bit-identical in results but
single-pass and zero-allocation in steady state; ``"compiled"`` runs the
fused hot loops as C kernels (bit-identical again) and requires the optional
extension built by ``setup.py build_ext`` — when the library is absent the
name resolves to ``"fused"`` with a :class:`RuntimeWarning`, never an
ImportError, so options and environment variables naming ``"compiled"``
stay valid on toolchain-less hosts.
"""

from __future__ import annotations

import os
import warnings
from contextlib import contextmanager
from typing import Iterator

from repro.kernels.backends import FusedBackend, ReferenceBackend

KERNEL_BACKENDS = ("reference", "fused", "compiled")
"""Valid kernel-backend names, in increasing order of fusion."""

DEFAULT_BACKEND_ENV = "REPRO_KERNEL_BACKEND"
"""Environment variable consulted once for the initial process default."""

_BACKENDS = {"reference": ReferenceBackend(), "fused": FusedBackend()}
_current = None


def _lookup(name: str):
    if name == "compiled":
        # Availability is re-checked on every lookup (not cached at import)
        # so a test monkeypatching COMPILED_AVAILABLE exercises the real
        # fallback path, and so the warning fires per resolution site.
        from repro.kernels import compiled_backend

        if not compiled_backend.COMPILED_AVAILABLE:
            warnings.warn(
                "kernel backend 'compiled' requested but the compiled kernel "
                "library is not available (build it with `python setup.py "
                "build_ext --inplace`); falling back to 'fused'",
                RuntimeWarning,
                stacklevel=3,
            )
            return _BACKENDS["fused"]
        if "compiled" not in _BACKENDS:
            _BACKENDS["compiled"] = compiled_backend.CompiledBackend()
        return _BACKENDS["compiled"]
    try:
        return _BACKENDS[name]
    except KeyError:
        raise ValueError(
            f"kernel backend must be one of {KERNEL_BACKENDS}, got {name!r}"
        ) from None


def get_backend():
    """The process-default kernel backend.

    Initialised lazily from :data:`DEFAULT_BACKEND_ENV` (``"fused"`` when the
    variable is unset); an unknown value in the environment raises here, at
    first use, with the valid names.
    """
    global _current
    if _current is None:
        _current = _lookup(os.environ.get(DEFAULT_BACKEND_ENV, "fused"))
    return _current


def set_backend(name: str):
    """Set the process-default backend; returns the backend object."""
    global _current
    _current = _lookup(name)
    return _current


def resolve_backend(backend=None):
    """Resolve a backend specification to a backend object.

    ``None`` means the process default, a string is looked up by name, and a
    backend object passes through — the uniform rule behind every
    ``backend=`` parameter in the pipeline.
    """
    if backend is None:
        return get_backend()
    if isinstance(backend, str):
        return _lookup(backend)
    return backend


@contextmanager
def use_backend(name: str) -> Iterator[None]:
    """Temporarily switch the process-default backend (tests, probes)."""
    previous = get_backend()
    set_backend(name)
    try:
        yield
    finally:
        global _current
        _current = previous
