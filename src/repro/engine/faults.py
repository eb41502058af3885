"""Deterministic fault injection for the serving engine (PR 10).

The request-lifecycle hardening of :mod:`repro.engine.serving` — admission
control, deadlines, the hung-worker watchdog, retry budgets and poison
quarantine — is only trustworthy if every one of those paths can be driven
*on purpose*, repeatably, in tests and benchmarks.  This module is that
driver: a :class:`FaultPlan` scripts exactly which worker incarnation
misbehaves on exactly which batch, with no randomness anywhere, the same
discipline ``FakeClock`` gave the PR 6 scheduler tests.

A plan travels inside the (picklable) :class:`~repro.engine.serving.
ModelBankSpec`, so the *worker process* executes the faults while the parent
engine stays oblivious — the engine under test sees only the symptoms a real
production fault would produce: a dead process, a silent hang, a forward
exception.

Fault taxonomy (see ``FAULT_KINDS``):

* ``"crash"`` — the worker process hard-exits (``os._exit``) before running
  the batch: the parent sees EOF/closed pipe, exactly like a segfault or
  OOM kill.  Drives ``_handle_death``, degraded fallback and backoff.
* ``"hang"`` — the worker sleeps ``seconds`` before serving the batch: the
  parent sees a batch that never completes.  Drives the watchdog.
* ``"raise"`` — the worker's forward raises :class:`FaultInjectedError`,
  reported back over the pipe as a *retryable* error (the worker survives).
  Drives the retry path without a process death.

Faults address a batch by its *ordinal within one worker incarnation*
(0-based count of batches that incarnation has received), not by the
engine's global batch id — so a plan stays meaningful across restarts:
``incarnation=0`` is the first process spawned into a worker slot,
``incarnation=1`` its first replacement, and so on.

**Poison requests** are scripted by item id instead (``poison_items``): any
batch containing a poisoned ``item_id`` crashes the worker, in *every*
incarnation — the canonical poison-pill shape (a request whose payload
reliably kills its server).  The engine's retry budget is what must contain it.

Determinism contract: a plan never consults wall-clock time or randomness
to decide *whether* to fire — only batch ordinals and item ids.  (``hang``
sleeps real seconds inside the worker, because a subprocess cannot share
the parent's injected clock; tests bound it with the engine-side watchdog,
which *is* driven by the injected clock.)
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace

__all__ = [
    "FAULT_KINDS",
    "FaultInjectedError",
    "FaultPlan",
    "FaultSpec",
    "WorkerFaultState",
]

FAULT_KINDS = ("crash", "hang", "raise")
"""The supported fault kinds, in the order documented above."""


class FaultInjectedError(RuntimeError):
    """A scripted ``"raise"`` fault fired inside a worker forward.

    The serving engine treats this error class (and only this class) as
    *retryable*: the batch's requests are requeued against their retry
    budget instead of failing their futures, because the fault models a
    transient infrastructure error, not a deterministic model bug.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: ``kind`` at batch ordinal ``batch`` of one
    ``(worker, incarnation)``."""

    kind: str
    batch: int
    """0-based ordinal of the target batch within the worker incarnation."""

    worker: int = 0
    """Worker slot index the fault is scripted for."""

    incarnation: int = 0
    """Which process generation of the slot misbehaves (0 = first spawn,
    1 = first restart, ...)."""

    seconds: float = 0.0
    """Sleep duration for ``"hang"`` (must be positive there, and zero for
    ``"crash"``/``"raise"``)."""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known kinds: {FAULT_KINDS}"
            )
        if self.batch < 0 or self.worker < 0 or self.incarnation < 0:
            raise ValueError("batch, worker and incarnation must be non-negative")
        if self.kind == "hang":
            if self.seconds <= 0:
                raise ValueError(f"a {self.kind!r} fault needs seconds > 0")
        elif self.seconds:
            raise ValueError(f"a {self.kind!r} fault takes no seconds")


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of worker faults plus poisoned item ids.

    Frozen and built from primitives only, so it pickles into worker
    processes inside a :class:`~repro.engine.serving.ModelBankSpec`.  Use
    the ``with_*`` builders for faults and ``poison_items`` for poison::

        plan = (FaultPlan(poison_items=("req-0007",))
                .with_crash(batch=2)                      # worker 0, first life
                .with_hang(seconds=30.0, batch=0, incarnation=1))
    """

    faults: tuple[FaultSpec, ...] = ()
    poison_items: tuple[int | str, ...] = ()

    def __post_init__(self) -> None:
        seen: set[tuple[int, int, int]] = set()
        for fault in self.faults:
            key = (fault.worker, fault.incarnation, fault.batch)
            if key in seen:
                raise ValueError(
                    f"duplicate fault for worker {fault.worker}, incarnation "
                    f"{fault.incarnation}, batch {fault.batch}"
                )
            seen.add(key)

    # ------------------------------------------------------------- builders

    def _with_fault(self, fault: FaultSpec) -> "FaultPlan":
        return replace(self, faults=self.faults + (fault,))

    def with_crash(
        self, batch: int, worker: int = 0, incarnation: int = 0
    ) -> "FaultPlan":
        """Hard process exit before serving batch ordinal ``batch``."""
        return self._with_fault(
            FaultSpec("crash", batch, worker=worker, incarnation=incarnation)
        )

    def with_hang(
        self, seconds: float, batch: int, worker: int = 0, incarnation: int = 0
    ) -> "FaultPlan":
        """Sleep ``seconds`` before serving batch ordinal ``batch`` (the
        engine-side watchdog is expected to kill the worker first)."""
        return self._with_fault(
            FaultSpec(
                "hang", batch, worker=worker, incarnation=incarnation, seconds=seconds
            )
        )

    def with_raise(
        self, batch: int, worker: int = 0, incarnation: int = 0
    ) -> "FaultPlan":
        """Raise :class:`FaultInjectedError` from the forward of batch
        ordinal ``batch`` (the worker survives; the error is retryable)."""
        return self._with_fault(
            FaultSpec("raise", batch, worker=worker, incarnation=incarnation)
        )

    # -------------------------------------------------------------- queries

    def fault_for(
        self, worker: int, incarnation: int, batch: int
    ) -> FaultSpec | None:
        """The scripted fault of one batch ordinal, if any."""
        for fault in self.faults:
            if (fault.worker, fault.incarnation, fault.batch) == (
                worker,
                incarnation,
                batch,
            ):
                return fault
        return None

    def poisons(self, item_ids) -> bool:
        """Whether any of ``item_ids`` is a poisoned item."""
        if not self.poison_items:
            return False
        poisoned = set(self.poison_items)
        return any(item_id in poisoned for item_id in item_ids)


def _hard_crash() -> None:
    """Terminate the worker process without cleanup (monkeypatchable seam:
    in-process tests replace this instead of actually dying)."""
    os._exit(1)


class WorkerFaultState:
    """Per-worker-incarnation fault executor, driven once per batch.

    Owned by ``_worker_main``: counts the batches this incarnation has
    received and fires the plan's scripted fault (if any) for each ordinal.
    Poison checks run first — a poisoned batch crashes the worker no matter
    what else is scripted.
    """

    def __init__(self, plan: FaultPlan, worker_index: int, incarnation: int) -> None:
        self.plan = plan
        self.worker_index = worker_index
        self.incarnation = incarnation
        self.batches_seen = 0

    def on_batch(self, item_ids) -> None:
        """Apply the scripted fault for the next batch ordinal (called by
        the worker immediately before the forward)."""
        ordinal = self.batches_seen
        self.batches_seen += 1
        if self.plan.poisons(item_ids):
            _hard_crash()
        fault = self.plan.fault_for(self.worker_index, self.incarnation, ordinal)
        if fault is None:
            return
        if fault.kind == "crash":
            _hard_crash()
        elif fault.kind == "hang":
            time.sleep(fault.seconds)
        elif fault.kind == "raise":
            raise FaultInjectedError(
                f"scripted raise fault: worker {self.worker_index}, "
                f"incarnation {self.incarnation}, batch ordinal {ordinal}"
            )
