"""Tests for the PR 10 fault model: the plan DSL and the engine under fire.

The unit tests cover :mod:`repro.engine.faults` in isolation (spec
validation, builders, the per-incarnation executor with ``_hard_crash``
monkeypatched).  The integration tests spawn real worker processes and
drive each scripted fault kind — crash, watchdog-killed hang, retryable
raise, poison pill — to full recovery, asserting the served outputs stay
bit-equal to the serial reference through every non-poison fault.

Timer semantics are driven by the *injected* clock: the tests never sleep
through a backoff or a watchdog bound — they jump the engine clock past it
(``OffsetClock``) and keep polling, with a real-time bailout only as a
hang-safety net.
"""

from __future__ import annotations

import pickle
import time

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.engine import (
    FAULT_KINDS,
    FaultInjectedError,
    FaultPlan,
    FaultSpec,
    ModelBankSpec,
    PoisonRequestError,
    ServingConfig,
    ServingEngine,
    WorkItem,
)
from repro.engine import faults as faults_module
from repro.engine.faults import WorkerFaultState
from repro.utils.shapes import LevelShape

SHAPES = (LevelShape(8, 12), LevelShape(4, 6))
D_MODEL = 32


class TestFaultSpec:
    def test_known_kinds(self):
        assert FAULT_KINDS == ("crash", "hang", "raise")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind 'segv'"):
            FaultSpec("segv", batch=0)

    def test_negative_coordinates_rejected(self):
        for kwargs in ({"batch": -1}, {"batch": 0, "worker": -1},
                       {"batch": 0, "incarnation": -2}):
            with pytest.raises(ValueError, match="non-negative"):
                FaultSpec("crash", **kwargs)

    def test_hang_needs_positive_seconds(self):
        with pytest.raises(ValueError, match="seconds > 0"):
            FaultSpec("hang", batch=0)
        assert FaultSpec("hang", batch=0, seconds=1.5).seconds == 1.5

    def test_crash_and_raise_take_no_seconds(self):
        for kind in ("crash", "raise"):
            with pytest.raises(ValueError, match="takes no seconds"):
                FaultSpec(kind, batch=0, seconds=1.0)


class TestFaultPlan:
    def test_profiler_threads_a_plan_only_through_a_spec(self):
        from repro.eval.profiler import measure_serving_latency

        with pytest.raises(TypeError, match="ModelBankSpec"):
            measure_serving_latency(lambda: {}, [], fault_plan=FaultPlan())

    def test_builders_accumulate_in_order(self):
        plan = (
            FaultPlan(poison_items=("req-7", 42))
            .with_crash(batch=2)
            .with_hang(seconds=30.0, batch=0, incarnation=1)
            .with_raise(batch=1, incarnation=2)
        )
        assert [f.kind for f in plan.faults] == ["crash", "hang", "raise"]
        assert plan.poison_items == ("req-7", 42)
        # Builders return new frozen plans; the original is untouched.
        assert FaultPlan().faults == ()

    def test_duplicate_ordinal_rejected(self):
        with pytest.raises(ValueError, match="duplicate fault"):
            FaultPlan().with_crash(batch=1).with_raise(batch=1)

    def test_same_ordinal_different_incarnation_allowed(self):
        plan = FaultPlan().with_crash(batch=1).with_raise(batch=1, incarnation=1)
        assert plan.fault_for(0, 0, 1).kind == "crash"
        assert plan.fault_for(0, 1, 1).kind == "raise"
        assert plan.fault_for(0, 2, 1) is None
        assert plan.fault_for(1, 0, 1) is None

    def test_poisons_matches_any_item(self):
        plan = FaultPlan(poison_items=("bad",))
        assert plan.poisons(("ok-1", "bad", "ok-2"))
        assert not plan.poisons(("ok-1", "ok-2"))
        assert not FaultPlan().poisons(("bad",))

    def test_plan_is_picklable_inside_a_spec(self):
        spec = ModelBankSpec(fault_plan=FaultPlan().with_crash(batch=0))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.fault_plan.faults[0].kind == "crash"


class TestWorkerFaultState:
    def _state(self, plan, worker=0, incarnation=0):
        return WorkerFaultState(plan, worker, incarnation)

    def test_fires_only_on_scripted_ordinal(self, monkeypatch):
        crashes: list[int] = []
        monkeypatch.setattr(faults_module, "_hard_crash", lambda: crashes.append(1))
        state = self._state(FaultPlan().with_crash(batch=2))
        state.on_batch(("a",))
        state.on_batch(("b",))
        assert not crashes
        state.on_batch(("c",))
        assert crashes == [1]

    def test_other_incarnation_does_not_fire(self, monkeypatch):
        monkeypatch.setattr(
            faults_module, "_hard_crash", lambda: pytest.fail("crashed")
        )
        state = self._state(FaultPlan().with_crash(batch=0), incarnation=1)
        state.on_batch(("a",))
        assert state.batches_seen == 1

    def test_raise_fault_raises_retryable_error(self):
        state = self._state(FaultPlan().with_raise(batch=0))
        with pytest.raises(FaultInjectedError, match="batch ordinal 0"):
            state.on_batch(("a",))
        # The ordinal advanced: the next batch serves clean.
        state.on_batch(("b",))

    def test_hang_sleeps_scripted_seconds(self, monkeypatch):
        slept: list[float] = []
        monkeypatch.setattr(faults_module.time, "sleep", slept.append)
        state = self._state(FaultPlan().with_hang(seconds=30.0, batch=0))
        state.on_batch(("a",))
        assert slept == [30.0]

    def test_poison_crashes_every_incarnation(self, monkeypatch):
        crashes: list[int] = []
        monkeypatch.setattr(faults_module, "_hard_crash", lambda: crashes.append(1))
        plan = FaultPlan(poison_items=("bad",))
        for incarnation in range(3):
            self._state(plan, incarnation=incarnation).on_batch(("ok", "bad"))
        assert crashes == [1, 1, 1]

    def test_poison_takes_precedence_over_scripted_fault(self, monkeypatch):
        class Crashed(BaseException):
            """Stands in for os._exit, which never returns."""

        def crash():
            raise Crashed

        monkeypatch.setattr(faults_module, "_hard_crash", crash)
        state = self._state(FaultPlan(poison_items=("bad",)).with_raise(batch=0))
        # The poison crash must fire before the scripted raise is consulted.
        with pytest.raises(Crashed):
            state.on_batch(("bad",))


# ---------------------------------------------------------------------------
# Integration: real workers, scripted faults, injected-clock recovery.


class OffsetClock:
    """Injected engine clock: real monotonic time plus a test-owned offset.

    Timer waits (restart backoff, watchdog bounds) are skipped by advancing
    the offset — never by sleeping through them — while in-flight healthy
    batches still age at real speed, so the watchdog cannot spuriously kill
    a worker that is merely computing.
    """

    def __init__(self) -> None:
        self.offset = 0.0

    def __call__(self) -> float:
        return time.monotonic() + self.offset

    def advance(self, dt: float) -> None:
        self.offset += dt


def _spec(fault_plan: FaultPlan | None = None) -> ModelBankSpec:
    return ModelBankSpec(
        num_layers=2,
        d_model=D_MODEL,
        num_heads=4,
        num_levels=2,
        num_points=2,
        ffn_dim=64,
        rng_seed=0,
        classes=(("fp32", DEFAConfig(quant_bits=None)),),
        fault_plan=fault_plan,
    )


def _items(n: int):
    out = []
    n_in = sum(s.num_pixels for s in SHAPES)
    for i in range(n):
        rng = np.random.default_rng(100 + i)
        out.append(
            WorkItem(
                item_id=f"req-{i}",
                features=rng.standard_normal((n_in, D_MODEL)).astype(np.float32),
                spatial_shapes=SHAPES,
            )
        )
    return out


def _reference(items):
    """Serial per-image loop on a fault-free bank: the bit-equality target."""
    bank = _spec().build()
    return [
        bank.forward("fp32", item.features[None], list(SHAPES))[0] for item in items
    ]


def _faulted_engine(plan: FaultPlan, clock: OffsetClock, **config) -> ServingEngine:
    defaults = dict(
        num_workers=1,
        max_batch_size=2,
        # Deliberately long: only an injected-clock jump can get past it
        # inside the test bailout, which is what proves the restart timer
        # runs on the injected clock rather than wall time.
        restart_backoff_s=5.0,
        max_retries=5,
    )
    defaults.update(config)
    return ServingEngine(_spec(plan).build, ServingConfig(**defaults), clock=clock)


def _spawn_workers(engine: ServingEngine) -> None:
    """Spawn worker processes without the pump thread: the test is the only
    driver of ``poll``, so every timer decision flows through the injected
    clock."""
    with engine._lock:
        for handle in engine._workers:
            engine._spawn(handle)


def _drive(engine, clock, futures, bailout_s: float = 120.0) -> None:
    """Poll until every future resolves, jumping the injected clock over any
    pending restart backoff.  ``bailout_s`` (real time) only guards the test
    itself against a genuinely wedged engine."""
    deadline = time.monotonic() + bailout_s
    while not all(f.done() for f in futures):
        if time.monotonic() > deadline:
            pytest.fail(f"engine did not serve in {bailout_s}s: {engine._diagnose()}")
        engine.poll()
        with engine._lock:
            restarts = [
                h.restart_at for h in engine._workers if h.restart_at is not None
            ]
            if restarts:
                jump = min(restarts) - clock()
                if jump > 0:
                    clock.advance(jump)


def _drive_to_primary(engine, clock, bailout_s: float = 60.0) -> None:
    deadline = time.monotonic() + bailout_s
    while engine.mode != "primary":
        if time.monotonic() > deadline:
            pytest.fail(f"engine did not recover in {bailout_s}s: {engine._diagnose()}")
        engine.poll()
        with engine._lock:
            restarts = [
                h.restart_at for h in engine._workers if h.restart_at is not None
            ]
            if restarts:
                jump = min(restarts) - clock()
                if jump > 0:
                    clock.advance(jump)


class TestFaultRecovery:
    """Each fault kind recovers to primary with bit-equal served outputs."""

    def _run(self, plan, num_items=6, **config):
        items = _items(num_items)
        reference = _reference(items)
        clock = OffsetClock()
        engine = _faulted_engine(plan, clock, **config)
        _spawn_workers(engine)
        try:
            futures = [engine.submit(item, request_class="fp32") for item in items]
            _drive(engine, clock, futures)
            _drive_to_primary(engine, clock)
            return engine, futures, reference
        except BaseException:
            engine.shutdown()
            raise

    def _assert_bit_equal(self, futures, reference, skip=()):
        for i, (future, expected) in enumerate(zip(futures, reference)):
            if i in skip:
                continue
            np.testing.assert_array_equal(future.result(timeout=1.0), expected)

    def test_crash_fault_recovers_bit_equal(self):
        engine, futures, reference = self._run(FaultPlan().with_crash(batch=1))
        try:
            self._assert_bit_equal(futures, reference)
            assert engine.stats.worker_deaths == 1
            assert engine.stats.num_retried >= 1
            assert engine.stats.num_quarantined == 0
            assert engine.mode == "primary"
        finally:
            engine.shutdown()

    def test_hang_fault_watchdog_recovers_bit_equal(self):
        engine, futures, reference = self._run(
            FaultPlan().with_hang(seconds=30.0, batch=1),
            batch_timeout_s=1.0,
        )
        try:
            self._assert_bit_equal(futures, reference)
            assert engine.stats.watchdog_kills == 1
            assert engine.stats.worker_deaths == 1
            assert engine.stats.num_quarantined == 0
            assert engine.mode == "primary"
        finally:
            engine.shutdown()

    def test_raise_fault_retries_bit_equal_without_death(self):
        engine, futures, reference = self._run(FaultPlan().with_raise(batch=0))
        try:
            self._assert_bit_equal(futures, reference)
            assert engine.stats.worker_deaths == 0
            # The faulted batch (2 requests) was requeued, not failed.
            assert engine.stats.num_retried == 2
            assert engine.stats.num_quarantined == 0
            assert engine.mode == "primary"
        finally:
            engine.shutdown()

    def test_poison_request_fails_alone_others_bit_equal(self):
        """The acceptance gate: a poison pill fails exactly its own future
        with :class:`PoisonRequestError` after ``max_retries`` worker kills,
        never runs on the in-process fallback, and every innocent request —
        including the one co-batched with it — still serves bit-equal."""
        poison_index = 2
        engine, futures, reference = self._run(
            FaultPlan(poison_items=(f"req-{poison_index}",)),
            num_items=4,
            max_retries=2,
        )
        try:
            self._assert_bit_equal(futures, reference, skip=(poison_index,))
            with pytest.raises(PoisonRequestError, match="quarantined as poison"):
                futures[poison_index].result(timeout=1.0)
            error = futures[poison_index].exception()
            assert error.item_id == f"req-{poison_index}"
            # Co-batched crash + two isolated redispatch crashes = 3 kills,
            # one past the max_retries=2 budget.
            assert error.kills == 3
            assert error.max_retries == 2
            assert engine.stats.worker_deaths == 3
            assert engine.stats.num_quarantined == 1
            # Poison safety: nothing — least of all the poison request —
            # ever executed on the in-process fallback.
            assert engine.stats.degraded_batches == 0
            assert engine.mode == "primary"
        finally:
            engine.shutdown()
