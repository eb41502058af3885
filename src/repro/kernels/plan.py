"""Zero-allocation execution plans: a capacity-growing named buffer arena.

Steady-state encoder forwards re-allocate every intermediate on every block
(compact gathers, projection outputs, FFN hidden buffers, masks).  On a
single-core NumPy substrate those allocations are not free: arrays above the
malloc mmap threshold are returned to the OS on free, so every block pays
mmap + page-fault + TLB churn for hundreds of megabytes of temporaries.  An
:class:`ExecutionPlan` removes that traffic: each named intermediate is
allocated once at its high-water-mark capacity and reused across blocks and
across the batches a serving engine or encoder runner executes.

Usage and lifetime rules
------------------------

* ``plan.buffer(name, shape, dtype)`` returns an array view of exactly
  ``shape``.  The *content* of a named buffer stays valid only until the next
  ``buffer()`` request with the same name — a name identifies one logical
  intermediate of the execution, not a storage slot to hold on to.
* A name is either **one logical intermediate** (``value``, ``offsets``,
  ``stream0``: its content is read after the helper that wrote it returns)
  or **one transient scratch role** (``proj.rows``, ``proj.xq``,
  ``quant.q64``, ``ffn.hidden``: its content is dead when the requesting
  helper returns).  Every call site of a transient role shares the one
  name, so the arena holds each role once, at its largest live size — not
  once per call site.  Two arrays that are live at the same time must
  never share a name.
* A transient role that a loop can serve in pieces is sized to one piece:
  the float64 quantize scratch holds one row block of
  :data:`~repro.kernels.fused_ops.QUANT_SCRATCH_BYTES`, the FFN hidden
  buffer one row block of :data:`~repro.nn.modules.FFN_BLOCK_ROWS`.  The
  arena then grows with the live working set, not with the image.
* Buffers grow monotonically: a request larger than the cached capacity
  reallocates (counted in :attr:`grows`), a smaller one reuses the prefix.
  After one warm forward per shape signature the plan is at its high-water
  mark and subsequent forwards perform no large allocations.
* Plans are keyed by the caller on ``(shape-signature, batch-size)`` (see
  :meth:`repro.core.encoder_runner.DEFAEncoderRunner.execution_plan`): a
  shape-signature change means a *new* plan, never a resize-in-place of a
  live one, so two signatures interleaved (mixed-shape serving traffic) each
  keep their own warm arena.
* Nothing returned to an API caller may alias a plan buffer (results must
  survive the next forward); callers copy the final output out of the arena.
  The aliasing-corruption test in ``tests/test_kernels.py`` pins this.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ExecutionPlan", "take_into"]


def take_into(
    source: np.ndarray, indices: np.ndarray, out: np.ndarray, axis: int = 0
) -> np.ndarray:
    """``np.take(source, indices, axis, out=out)`` with no hidden copy.

    In its default ``mode="raise"`` NumPy gathers into a temporary and
    copies it into ``out`` (so a raised error cannot leave ``out`` half
    written), which costs a full-size allocation on every call.  This
    checks the bounds first and then gathers with ``mode="clip"``, which
    writes ``out`` directly.  Every index must lie in ``[0, n)`` for the
    ``n`` entries along *axis*; anything else — negative indices included —
    raises :class:`IndexError`.
    """
    indices = np.asarray(indices)
    n = source.shape[axis]
    if indices.size and (indices.min() < 0 or indices.max() >= n):
        raise IndexError(f"take_into: index out of range [0, {n}) along axis {axis}")
    return np.take(source, indices, axis=axis, out=out, mode="clip")


class ExecutionPlan:
    """Named-buffer arena for the per-block intermediates of one runner.

    Not thread-safe (neither is the NumPy substrate it serves); one plan
    belongs to one runner and one shape signature.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        self.hits = 0
        """Requests served from an existing buffer without allocating."""
        self.grows = 0
        """Requests that had to allocate (first use or capacity growth)."""

    def buffer(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """An uninitialised array of exactly *shape*, reusing cached capacity.

        The returned array is a view into the arena; its previous content is
        arbitrary (use :meth:`zeros` / :meth:`full` for initialised buffers).
        """
        dt = np.dtype(dtype)
        size = int(np.prod(shape)) if shape else 1
        key = (name, dt)
        flat = self._buffers.get(key)
        if flat is None or flat.size < size:
            flat = np.empty(max(size, 1), dtype=dt)
            self._buffers[key] = flat
            self.grows += 1
        else:
            self.hits += 1
        return flat[:size].reshape(shape)

    def zeros(self, name: str, shape: tuple[int, ...], dtype=np.float32) -> np.ndarray:
        """A zero-filled buffer (memset of reused capacity, no allocation)."""
        out = self.buffer(name, shape, dtype)
        out.fill(0)
        return out

    def take(
        self, name: str, source: np.ndarray, indices: np.ndarray, axis: int = 0
    ) -> np.ndarray:
        """``np.take(source, indices, axis)`` gathered into a plan buffer
        (bounds-checked, no hidden temporary: see :func:`take_into`)."""
        shape = (
            source.shape[:axis] + np.asarray(indices).shape + source.shape[axis + 1 :]
        )
        out = self.buffer(name, shape, source.dtype)
        return take_into(source, indices, out, axis=axis)

    @property
    def allocated_bytes(self) -> int:
        """Total arena capacity in bytes (the steady-state footprint)."""
        return int(sum(b.nbytes for b in self._buffers.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExecutionPlan(buffers={len(self._buffers)}, "
            f"bytes={self.allocated_bytes}, hits={self.hits}, grows={self.grows})"
        )
