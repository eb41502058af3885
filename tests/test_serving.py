"""Tests for the serving engine: scheduling policy, degraded mode, traffic.

The scheduling-policy tests drive :meth:`ServingEngine.poll` directly under a
manual clock (no pump thread, no subprocesses) so dispatch decisions are
deterministic; the worker tests spawn real worker processes and exercise the
death -> degraded -> recovery path; the equivalence tests assert the
acceptance criterion — served outputs bit-equal to the serial per-image loop
on mixed-shape fp32 + INT12 traffic, including through a forced worker kill.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time

import numpy as np
import pytest

from repro.core.config import DEFAConfig
from repro.engine import (
    ARRIVAL_PROCESSES,
    DeadlineExceeded,
    ModelBank,
    ModelBankSpec,
    PoisonRequestError,
    QueueFullError,
    ServingConfig,
    ServingEngine,
    TrafficEvent,
    WorkItem,
    generate_traffic,
    replay_traffic,
    serial_reference_outputs,
)
from repro.engine.serving import BatchRecord, ServingStats, _PipeSendTimeout, _send_with_deadline
from repro.utils.shapes import LevelShape

SHAPES_A = (LevelShape(8, 12), LevelShape(4, 6))
SHAPES_B = (LevelShape(6, 8), LevelShape(3, 4))
D_MODEL = 32


def _spec() -> ModelBankSpec:
    """A tiny two-class bank: unquantized + INT12 with query pruning."""
    return ModelBankSpec(
        num_layers=2,
        d_model=D_MODEL,
        num_heads=4,
        num_levels=2,
        num_points=2,
        ffn_dim=64,
        rng_seed=0,
        classes=(
            ("fp32", DEFAConfig(quant_bits=None)),
            ("int12", DEFAConfig(quant_bits=12, enable_query_pruning=True)),
        ),
    )


def _events(n: int = 24, seed: int = 3):
    return generate_traffic(
        n,
        mean_rate_rps=2000.0,
        d_model=D_MODEL,
        shape_mix=((SHAPES_A, 1.0), (SHAPES_B, 1.0)),
        class_mix=(("fp32", 1.0), ("int12", 1.0)),
        process="uniform",
        seed=seed,
    )


def _item(item_id, shapes, seed):
    rng = np.random.default_rng(seed)
    n_in = sum(s.num_pixels for s in shapes)
    return WorkItem(
        item_id=item_id,
        features=rng.standard_normal((n_in, D_MODEL)).astype(np.float32),
        spatial_shapes=shapes,
    )


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


def _recording_bank(calls: list):
    """An identity bank that records (batch size, shape key) per forward."""

    def forward(batch, shapes):
        calls.append((batch.shape[0], tuple(s.as_tuple() for s in shapes)))
        return batch.copy()

    return {"default": forward}


class TestServingConfig:
    def test_invalid_values_raise(self):
        with pytest.raises(ValueError):
            ServingConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            ServingConfig(max_wait_s=-1.0)
        with pytest.raises(ValueError):
            ServingConfig(num_workers=-1)
        with pytest.raises(ValueError):
            ServingConfig(restart_backoff_s=-0.1)

    def test_negative_restart_budget_and_nonpositive_poll_interval_raise(self):
        with pytest.raises(ValueError, match="max_restarts"):
            ServingConfig(max_restarts=-3)
        # A zero or negative interval makes the pump thread's wait return at
        # once, so it would busy-spin.
        for interval in (-1.0, 0.0):
            with pytest.raises(ValueError, match="poll_interval_s"):
                ServingConfig(poll_interval_s=interval)
        # Zero is a valid restart budget (never restart).
        ServingConfig(max_restarts=0)


class TestServingStats:
    def test_empty_stats(self):
        stats = ServingStats()
        assert stats.num_batches == 0
        assert stats.mean_batch_size == 0.0
        assert stats.latency_quantile(50) == 0.0

    def test_batch_accounting_by_path(self):
        key = tuple(s.as_tuple() for s in SHAPES_A)
        stats = ServingStats(
            batches=[
                BatchRecord("fp32", key, 4, "worker", "full", worker=0),
                BatchRecord("fp32", key, 1, "inproc", "flush"),
                BatchRecord("int12", key, 3, "worker", "wait", worker=1),
            ]
        )
        assert stats.num_batches == 3
        assert stats.batch_sizes == [4, 1, 3]
        assert stats.mean_batch_size == pytest.approx(8 / 3)
        assert stats.primary_batches == 2
        assert stats.degraded_batches == 1

    def test_latency_quantile(self):
        stats = ServingStats(latencies_s=[0.4, 0.1, 0.3, 0.2, 0.5])
        assert stats.latency_quantile(0) == pytest.approx(0.1)
        assert stats.latency_quantile(50) == pytest.approx(0.3)
        assert stats.latency_quantile(100) == pytest.approx(0.5)


class TestSchedulingPolicy:
    """Manual-poll tests: no pump thread, no workers, deterministic clock."""

    def _engine(self, calls, **config_kwargs):
        config = ServingConfig(num_workers=0, **config_kwargs)
        return ServingEngine(
            lambda: _recording_bank(calls), config, clock=FakeClock()
        )

    def test_shape_grouped_dispatch_order(self):
        """Items batch by shape signature in submission order: A[0,2] fills
        first, then B[1,4], and the A remainder only flushes explicitly."""
        calls: list = []
        engine = self._engine(calls, max_batch_size=2, max_wait_s=100.0)
        items = [
            _item(0, SHAPES_A, 0),
            _item(1, SHAPES_B, 1),
            _item(2, SHAPES_A, 2),
            _item(3, SHAPES_A, 3),
            _item(4, SHAPES_B, 4),
        ]
        futures = [engine.submit(item) for item in items]
        engine.poll()
        key_a = items[0].shape_key
        key_b = items[1].shape_key
        assert calls == [(2, key_a), (2, key_b)]
        records = engine.stats.batches
        assert [(r.shape_key, r.size, r.reason) for r in records] == [
            (key_a, 2, "full"),
            (key_b, 2, "full"),
        ]
        assert not futures[3].done()  # the A remainder is below max_batch_size
        engine.flush()
        assert [(r.shape_key, r.size, r.reason) for r in engine.stats.batches[2:]] == [
            (key_a, 1, "flush")
        ]
        # Identity forward: every future resolves to its own features.
        for item, future in zip(items, futures):
            np.testing.assert_array_equal(future.result(timeout=1.0), item.features)

    def test_max_wait_flushes_partial_group(self):
        calls: list = []
        engine = self._engine(calls, max_batch_size=8, max_wait_s=1.0)
        clock = engine._clock
        future = engine.submit(_item(0, SHAPES_A, 0))
        engine.poll()
        assert not calls and not future.done()  # group neither full nor due
        clock.advance(1.0)
        engine.poll()
        assert [r.reason for r in engine.stats.batches] == ["wait"]
        assert future.done()

    def test_wait_clock_starts_at_oldest_request(self):
        calls: list = []
        engine = self._engine(calls, max_batch_size=8, max_wait_s=1.0)
        clock = engine._clock
        engine.submit(_item(0, SHAPES_A, 0))
        clock.advance(0.6)
        engine.submit(_item(1, SHAPES_A, 1))
        engine.poll()
        assert not calls
        clock.advance(0.4)  # oldest request has now waited the full max_wait
        engine.poll()
        assert [r.size for r in engine.stats.batches] == [2]

    def test_unknown_request_class_fails_future(self):
        engine = self._engine([], max_batch_size=2)
        future = engine.submit(_item(0, SHAPES_A, 0), request_class="nope")
        engine.flush()
        with pytest.raises(KeyError, match="nope"):
            future.result(timeout=1.0)

    def test_submit_after_shutdown_raises(self):
        engine = self._engine([])
        engine.shutdown()
        with pytest.raises(RuntimeError):
            engine.submit(_item(0, SHAPES_A, 0))

    def test_shutdown_fails_unserved_futures(self):
        engine = self._engine([], max_batch_size=8, max_wait_s=100.0)
        future = engine.submit(_item(0, SHAPES_A, 0))
        engine.poll()  # not due: stays pending
        engine.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            future.result(timeout=1.0)


class TestServedEquivalence:
    """Acceptance criterion: served outputs bit-equal to the serial loop."""

    def test_inproc_bit_equal_fp32_and_int12(self):
        spec = _spec()
        events = _events(20)
        assert {e.request_class for e in events} == {"fp32", "int12"}
        reference = serial_reference_outputs(spec.build(), events)
        engine = ServingEngine(
            spec.build, ServingConfig(num_workers=0, max_batch_size=4)
        ).start()
        try:
            result = replay_traffic(engine, events, speed=0.0)
        finally:
            engine.shutdown()
        for served, expected in zip(result.outputs, reference):
            np.testing.assert_array_equal(served, expected)
        assert engine.stats.num_completed == len(events)
        assert engine.stats.degraded_batches == engine.stats.num_batches

    def test_worker_bit_equal_and_all_primary(self):
        spec = _spec()
        events = _events(16, seed=5)
        reference = serial_reference_outputs(spec.build(), events)
        engine = ServingEngine(
            spec.build, ServingConfig(num_workers=1, max_batch_size=4)
        ).start()
        try:
            result = replay_traffic(engine, events, speed=0.0)
        finally:
            engine.shutdown()
        for served, expected in zip(result.outputs, reference):
            np.testing.assert_array_equal(served, expected)
        assert engine.stats.worker_deaths == 0
        assert engine.stats.degraded_batches == 0
        assert engine.stats.primary_batches == engine.stats.num_batches > 0

    def test_bit_equal_through_worker_kill(self):
        """The full fault path: kill the only worker mid-stream; the stranded
        and re-enqueued requests serve degraded, later ones may serve from
        the restarted worker — all bit-equal to the serial loop."""
        spec = _spec()
        events = _events(24, seed=9)
        reference = serial_reference_outputs(spec.build(), events)
        engine = ServingEngine(
            spec.build,
            ServingConfig(num_workers=1, max_batch_size=4, restart_backoff_s=0.05),
        ).start()
        killed: list[int] = []

        def on_submit(i: int) -> None:
            if i == 8 and not killed:
                killed.append(i)
                engine.kill_worker(0)

        try:
            result = replay_traffic(engine, events, speed=0.0, on_submit=on_submit)
        finally:
            engine.shutdown()
        assert engine.stats.worker_deaths >= 1
        for served, expected in zip(result.outputs, reference):
            np.testing.assert_array_equal(served, expected)


class TestWorkerLifecycle:
    def test_death_degraded_then_recovery(self):
        spec = _spec()
        engine = ServingEngine(
            spec.build,
            # Long backoff: everything submitted right after the kill is
            # guaranteed to serve via the degraded in-process path.
            ServingConfig(num_workers=1, max_batch_size=4, restart_backoff_s=1.0),
        ).start()
        try:
            first = [
                engine.submit(_item(i, SHAPES_A, i), request_class="fp32")
                for i in range(4)
            ]
            engine.flush()
            assert engine.mode == "primary"
            assert engine.stats.primary_batches > 0

            assert engine.kill_worker(0) is True
            # Wait for the pump to put the death on the books first: requests
            # submitted *after* a detected death serve via the degraded
            # in-process path, while requests in flight *during* a death are
            # suspects that wait for a worker (PR 10 poison safety).
            deadline = time.monotonic() + 30.0
            while engine.stats.worker_deaths == 0:
                if time.monotonic() > deadline:
                    pytest.fail("worker death was not detected in time")
                time.sleep(0.005)
            second = [
                engine.submit(_item(10 + i, SHAPES_A, 10 + i), request_class="fp32")
                for i in range(4)
            ]
            engine.flush()
            assert engine.stats.worker_deaths == 1
            assert engine.stats.degraded_batches > 0
            assert engine.mode == "degraded"
            assert ("degraded" in [m for _, m in engine.stats.mode_transitions])

            # The pump thread restarts the worker once the backoff expires.
            deadline = time.monotonic() + 30.0
            while engine.mode != "primary":
                if time.monotonic() > deadline:
                    pytest.fail("worker did not restart in time")
                time.sleep(0.02)
            assert engine.stats.worker_restarts >= 1

            # Wait for ready, then confirm post-recovery batches use the worker.
            deadline = time.monotonic() + 30.0
            while not any(h.ready for h in engine._workers):
                if time.monotonic() > deadline:
                    pytest.fail("restarted worker did not report ready in time")
                time.sleep(0.02)
            third = [
                engine.submit(_item(20 + i, SHAPES_A, 20 + i), request_class="fp32")
                for i in range(4)
            ]
            engine.flush()
            assert engine.stats.batches[-1].path == "worker"
            for future in first + second + third:
                assert future.result(timeout=1.0).shape == (
                    sum(s.num_pixels for s in SHAPES_A),
                    D_MODEL,
                )
        finally:
            engine.shutdown()

    def test_max_restarts_retires_worker(self):
        calls: list = []
        clock = FakeClock()
        engine = ServingEngine(
            lambda: _recording_bank(calls),
            ServingConfig(
                num_workers=1, max_batch_size=2, restart_backoff_s=0.01, max_restarts=0
            ),
            clock=clock,
        )
        engine.start()
        try:
            engine.kill_worker(0)
            deadline = time.monotonic() + 30.0
            while engine.stats.worker_deaths == 0:
                if time.monotonic() > deadline:
                    pytest.fail("kill was not detected in time")
                time.sleep(0.02)
            clock.advance(10.0)
            future = engine.submit(_item(0, SHAPES_A, 0))
            engine.flush()
            # Retired slot: never respawned, everything serves degraded.
            assert engine.stats.worker_restarts == 0
            assert engine.mode == "degraded"
            assert future.result(timeout=1.0) is not None
        finally:
            engine.shutdown()

    def test_worker_plan_stats_stay_warm_across_requests(self, monkeypatch):
        """The worker's runner keeps its ExecutionPlan arenas across batches:
        plan hits must climb between two same-shape flush rounds (the PR 5
        zero-allocation steady state surviving across requests)."""
        from repro.kernels import DEFAULT_BACKEND_ENV, registry

        # Workers default to the reference backend, which never touches
        # plans (forked workers inherit the registry, spawned ones read the
        # environment): the spec's pin must win.
        monkeypatch.setenv(DEFAULT_BACKEND_ENV, "reference")
        monkeypatch.setattr(registry, "_current", registry.resolve_backend("reference"))
        spec = ModelBankSpec(
            num_layers=2,
            d_model=D_MODEL,
            num_heads=4,
            num_levels=2,
            num_points=2,
            ffn_dim=64,
            rng_seed=0,
            classes=(("fp32", DEFAConfig(quant_bits=None)),),
            kernel_backend="fused",
        )
        engine = ServingEngine(
            spec.build,
            # A long max_wait keeps the pump thread from flushing a partial
            # group mid-submission: each round must dispatch as exactly one
            # batch of 4, so both rounds hit the same (shape, batch) plan and
            # the arena footprint stays constant.
            ServingConfig(num_workers=1, max_batch_size=4, max_wait_s=30.0),
        ).start()
        try:
            for i in range(4):
                engine.submit(_item(i, SHAPES_A, i), request_class="fp32")
            engine.flush()
            first = engine.worker_stats()[0]
            assert first is not None and first["fp32"]["plans"] >= 1
            assert first["fp32"]["backend"] == "fused"
            # PR 9: the worker reports which dispatch profile it serves with.
            assert first["fp32"]["profile"] == "reference"
            for i in range(4, 8):
                engine.submit(_item(i, SHAPES_A, i), request_class="fp32")
            engine.flush()
            second = engine.worker_stats()[0]
            assert second["fp32"]["hits"] > first["fp32"]["hits"]
            assert second["fp32"]["bytes"] == first["fp32"]["bytes"]
        finally:
            engine.shutdown()

    def test_worker_forward_error_fails_future_but_worker_survives(self):
        spec = _spec()
        engine = ServingEngine(
            spec.build, ServingConfig(num_workers=1, max_batch_size=2)
        ).start()
        try:
            bad = engine.submit(_item(0, SHAPES_A, 0), request_class="nope")
            engine.flush()
            with pytest.raises(RuntimeError, match="nope"):
                bad.result(timeout=1.0)
            # The worker survived the forward error and keeps serving.
            good = engine.submit(_item(1, SHAPES_A, 1), request_class="fp32")
            engine.flush()
            assert good.result(timeout=1.0) is not None
            assert engine.stats.worker_deaths == 0
            assert engine.mode == "primary"
        finally:
            engine.shutdown()


class TestModelBank:
    def test_coerce_accepts_plain_dict(self):
        bank = ModelBank.coerce({"default": lambda batch, shapes: batch})
        assert bank.request_classes == ("default",)
        assert ModelBank.coerce(bank) is bank

    def test_empty_bank_rejected(self):
        with pytest.raises(ValueError):
            ModelBank({})

    def test_unknown_class_raises_keyerror(self):
        bank = ModelBank({"default": lambda batch, shapes: batch})
        with pytest.raises(KeyError, match="nope"):
            bank.forward("nope", np.zeros((1, 2, 3), dtype=np.float32), [])


class TestTrafficGenerator:
    def test_deterministic_per_seed(self):
        a = _events(12, seed=7)
        b = _events(12, seed=7)
        c = _events(12, seed=8)
        assert [e.arrival_s for e in a] == [e.arrival_s for e in b]
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.item.features, y.item.features)
            assert x.request_class == y.request_class
        assert [e.arrival_s for e in a] != [e.arrival_s for e in c]

    @pytest.mark.parametrize("process", ARRIVAL_PROCESSES)
    def test_arrivals_monotone_and_positive(self, process):
        events = generate_traffic(
            30, mean_rate_rps=100.0, d_model=D_MODEL, process=process, seed=1
        )
        arrivals = [e.arrival_s for e in events]
        assert all(t > 0 for t in arrivals)
        assert arrivals == sorted(arrivals)

    def test_mixes_respected(self):
        events = generate_traffic(
            40,
            mean_rate_rps=100.0,
            d_model=D_MODEL,
            shape_mix=((SHAPES_A, 1.0), (SHAPES_B, 1.0)),
            class_mix=(("x", 1.0), ("y", 1.0)),
            seed=0,
        )
        assert {e.item.shape_key for e in events} == {
            tuple(s.as_tuple() for s in SHAPES_A),
            tuple(s.as_tuple() for s in SHAPES_B),
        }
        assert {e.request_class for e in events} == {"x", "y"}
        # Feature token counts match each event's own pyramid.
        for event in events:
            n_in = sum(s.num_pixels for s in event.item.spatial_shapes)
            assert event.item.features.shape == (n_in, D_MODEL)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            generate_traffic(-1)
        with pytest.raises(ValueError):
            generate_traffic(4, mean_rate_rps=0.0)
        with pytest.raises(ValueError):
            generate_traffic(4, process="weekly")
        with pytest.raises(ValueError):
            generate_traffic(4, burst_factor=0.5)
        with pytest.raises(ValueError):
            generate_traffic(4, class_mix=(("a", -1.0),))
        with pytest.raises(ValueError):
            generate_traffic(4, class_mix=())


# ---------------------------------------------------------------------------
# PR 9: injected-clock regressions, backoff edges, machine-profile threading.


class SteppingClock:
    """Fake monotonic clock advancing a fixed step on every read, so
    deadline loops that consult only the clock terminate in a handful of
    iterations of real time."""

    def __init__(self, start: float = 1000.0, step: float = 1.0) -> None:
        self.now = start
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


class _StubConn:
    """Pipe stand-in: accepts sends, never has a message, survives
    ``close()``.  (No ``fileno``, so ``_send_with_deadline`` falls back to
    the blocking ``send`` — which here just records the message.)"""

    def __init__(self) -> None:
        self.sent: list = []

    def poll(self, timeout: float | None = None) -> bool:
        return False

    def send(self, obj) -> None:
        self.sent.append(obj)

    def close(self) -> None:
        pass


class _StubProcess:
    def __init__(self, alive: bool = True) -> None:
        self._alive = alive

    def is_alive(self) -> bool:
        return self._alive

    def join(self, timeout: float | None = None) -> None:
        pass

    def kill(self) -> None:
        self._alive = False

    def terminate(self) -> None:
        self._alive = False


def _stub_worker(handle, ready=True, process_alive=True, busy=None) -> None:
    """Wire a worker slot to fake pipe/process objects (no subprocesses)."""
    handle.conn = _StubConn()
    handle.process = _StubProcess(process_alive)
    handle.alive = True
    handle.ready = ready
    handle.busy = busy


def _idle_engine(clock, **config_kwargs) -> ServingEngine:
    config = ServingConfig(**{"num_workers": 1, **config_kwargs})
    return ServingEngine(lambda: {"default": lambda f, s: f}, config, clock=clock)


class TestInjectedClock:
    """Regression tests for the PR 9 clock bug: the deadline math in
    ``start()``/``flush()`` read ``time.monotonic()`` directly instead of
    the injected ``self._clock``, so fake-clock tests raced real wall time.
    Advancing only the fake clock must trip both timeouts near-instantly —
    the wall-time bound is what distinguishes the fixed code (fake-clock
    deadline) from the bug (a full real-time ``timeout`` spin)."""

    def test_flush_deadline_follows_injected_clock(self):
        engine = _idle_engine(SteppingClock())
        # A worker stuck busy forever: flush can never drain.
        _stub_worker(engine._workers[0], busy=object())
        begin = time.monotonic()
        with pytest.raises(TimeoutError):
            engine.flush(timeout=5.0)
        assert time.monotonic() - begin < 2.0

    def test_start_wait_ready_deadline_follows_injected_clock(self, monkeypatch):
        engine = _idle_engine(SteppingClock())
        # Spawn "workers" that never report ready.
        monkeypatch.setattr(
            engine, "_spawn", lambda handle: _stub_worker(handle, ready=False)
        )
        begin = time.monotonic()
        with pytest.raises(TimeoutError):
            engine.start(wait_ready=True, timeout=5.0)
        assert time.monotonic() - begin < 2.0


class TestBackoffEdges:
    """Degraded-mode backoff boundary conditions (PR 9 satellite): the cap
    binding exactly, a zero restart budget, and a death reaped in the same
    poll that owes another slot its restart."""

    def test_backoff_caps_exactly_at_max_backoff(self):
        clock = FakeClock()
        engine = _idle_engine(clock, restart_backoff_s=0.5, max_backoff_s=2.0)
        handle = engine._workers[0]
        # 0.5 * 2**(deaths-1): the third death lands exactly on the 2.0 cap,
        # the fourth would exceed it and must clamp to exactly the cap.
        for backoff in (0.5, 1.0, 2.0, 2.0):
            _stub_worker(handle)
            engine._handle_death(handle, now=100.0)
            assert handle.restart_at == 100.0 + backoff
        # The restart fires at exactly restart_at (<=, not <).
        spawned = []

        def fake_spawn(h):
            spawned.append(h.index)
            _stub_worker(h, ready=False)
            h.restart_at = None

        engine._spawn = fake_spawn
        engine._restart_due(now=101.999)
        assert spawned == []
        engine._restart_due(now=102.0)
        assert spawned == [0]
        assert engine.stats.worker_restarts == 1

    def test_max_restarts_zero_retires_before_first_restart(self):
        clock = FakeClock()
        engine = _idle_engine(clock, max_restarts=0)
        handle = engine._workers[0]
        _stub_worker(handle)
        engine._handle_death(handle, now=clock())
        assert handle.retired
        assert handle.restart_at is None
        assert engine.stats.worker_deaths == 1
        spawned = []
        engine._spawn = lambda h: spawned.append(h.index)
        engine._restart_due(now=1e9)
        assert spawned == []
        assert engine.stats.worker_restarts == 0
        assert engine.mode == "degraded"

    def test_death_reaped_while_another_restart_is_due(self):
        clock = FakeClock()
        clock.now = 10.0
        engine = _idle_engine(
            clock, num_workers=2, restart_backoff_s=0.5, max_backoff_s=2.0
        )
        first, second = engine._workers
        # The first slot died earlier; its restart became due at t=5.
        first.deaths = 1
        first.restart_at = 5.0
        # The second slot's process dies right before this poll.
        _stub_worker(second, process_alive=False)
        spawned = []

        def fake_spawn(h):
            spawned.append(h.index)
            _stub_worker(h, ready=False)
            h.restart_at = None

        engine._spawn = fake_spawn
        engine.poll()
        # One poll both reaps the fresh death and performs the due restart.
        assert spawned == [0]
        assert engine.stats.worker_restarts == 1
        assert engine.stats.worker_deaths == 1
        assert not second.alive
        assert second.restart_at == 10.0 + 0.5
        assert engine.mode == "primary"  # the restarted slot keeps us primary


class TestMachineProfileThreading:
    """ModelBankSpec.machine_profile reaches every runner (PR 9)."""

    def test_bank_runners_resolve_spec_profile(self):
        from dataclasses import replace

        from repro.kernels import DispatchThresholds, MachineProfile

        custom = MachineProfile(
            name="serving-host", thresholds=DispatchThresholds(min_tokens=7)
        )
        bank = replace(_spec(), machine_profile=custom).build()
        for runner in bank.runners.values():
            assert runner.machine_profile == custom
        stats = bank.plan_stats()
        assert stats and all(s["profile"] == "serving-host" for s in stats.values())

    def test_bank_default_follows_active_profile(self):
        from repro.kernels import reference_profile

        bank = _spec().build()
        for runner in bank.runners.values():
            assert runner.machine_profile == reference_profile()
        assert all(s["profile"] == "reference" for s in bank.plan_stats().values())

    def test_stream_policies_inherit_spec_profile(self):
        from dataclasses import replace

        from repro.engine import StreamingConfig

        spec = replace(
            _spec(),
            machine_profile="reference",
            streams=(("vid", DEFAConfig(), StreamingConfig()),),
        )
        bank = spec.build()
        assert bank.streaming["vid"].streaming.options.machine_profile == "reference"

    def test_stream_policies_inherit_spec_backend(self):
        from dataclasses import replace

        from repro.engine import StreamingConfig
        from repro.kernels import ExecutionOptions

        policy = StreamingConfig(options=ExecutionOptions(sparse_mode="dense"))
        spec = replace(
            _spec(), kernel_backend="reference", streams=(("vid", DEFAConfig(), policy),)
        )
        bank = spec.build()
        options = bank.streaming["vid"].streaming.options
        assert options.kernel_backend == "reference"
        assert options.sparse_mode == "dense"  # the policy's own knobs survive
        assert all(r.resolved_backend().name == "reference" for r in bank.runners.values())
        features = np.zeros((sum(s.num_pixels for s in SHAPES_A), D_MODEL), np.float32)
        bank.streaming["vid"].forward(features[None], SHAPES_A, [("s0", 0)])
        assert bank.plan_stats()["vid"]["backend"] == "reference"

    def test_spec_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="kernel_backend"):
            ModelBankSpec(kernel_backend="vulkan")

    def test_spec_with_profile_is_picklable(self):
        import pickle
        from dataclasses import replace

        from repro.kernels import MachineProfile

        spec = replace(_spec(), machine_profile=MachineProfile(name="pickled"))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.build().runners["fp32"].machine_profile.name == "pickled"


# ---------------------------------------------------------------------------
# PR 10: request lifecycle — admission control, deadlines, watchdog, retry
# budget / poison quarantine.  All FakeClock/stub driven: no worker processes,
# no wall-time sleeps; real pipes appear only in the bounded-send tests.


class TestLifecycleConfigValidation:
    def test_new_knobs_reject_invalid_values(self):
        with pytest.raises(ValueError, match="max_queue_depth"):
            ServingConfig(max_queue_depth=0)
        with pytest.raises(ValueError, match="admission"):
            ServingConfig(admission="maybe")
        with pytest.raises(ValueError, match="batch_timeout_s"):
            ServingConfig(batch_timeout_s=0.0)
        with pytest.raises(ValueError, match="max_retries"):
            ServingConfig(max_retries=-1)
        with pytest.raises(ValueError, match="dispatch_timeout_s"):
            ServingConfig(dispatch_timeout_s=0.0)

    def test_work_item_deadline_must_be_positive(self):
        features = np.zeros(
            (sum(s.num_pixels for s in SHAPES_A), D_MODEL), dtype=np.float32
        )
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="deadline_s"):
                WorkItem(
                    item_id=1,
                    features=features,
                    spatial_shapes=SHAPES_A,
                    deadline_s=bad,
                )

    def test_submit_deadline_must_be_positive(self):
        engine = ServingEngine(
            lambda: _recording_bank([]), ServingConfig(num_workers=0), clock=FakeClock()
        )
        with pytest.raises(ValueError, match="deadline_s"):
            engine.submit(_item(0, SHAPES_A, 0), deadline_s=-1.0)


class TestAdmissionControl:
    def _engine(self, **config_kwargs):
        config = ServingConfig(
            **{"num_workers": 0, "max_batch_size": 8, "max_wait_s": 100.0, **config_kwargs}
        )
        return ServingEngine(lambda: _recording_bank([]), config, clock=FakeClock())

    def test_full_queue_sheds_with_queue_full_error(self):
        engine = self._engine(max_queue_depth=2)
        futures = [engine.submit(_item(i, SHAPES_A, i)) for i in range(2)]
        with pytest.raises(QueueFullError, match="max_queue_depth=2"):
            engine.submit(_item(2, SHAPES_A, 2))
        assert engine.stats.num_shed == 1
        assert engine.stats.num_requests == 2  # the shed request never queued
        engine.flush()
        for future in futures:
            assert future.result(timeout=1.0) is not None

    def test_replay_records_shed_requests_as_failures(self):
        engine = self._engine(max_queue_depth=2)
        events = [TrafficEvent(0.0, _item(i, SHAPES_A, i)) for i in range(4)]
        result = replay_traffic(engine, events, speed=0.0, tolerate_faults=True)
        assert result.num_failed == 2
        assert sorted(result.failures) == [2, 3]
        assert all(isinstance(e, QueueFullError) for e in result.failures.values())
        assert result.outputs[2] is None and result.outputs[3] is None
        for event, output in zip(events[:2], result.outputs[:2]):
            np.testing.assert_array_equal(output, event.item.features)

    def test_replay_raises_shed_without_tolerance(self):
        engine = self._engine(max_queue_depth=1)
        events = [TrafficEvent(0.0, _item(i, SHAPES_A, i)) for i in range(2)]
        with pytest.raises(QueueFullError):
            replay_traffic(engine, events, speed=0.0)

    def test_block_admission_waits_for_space_then_admits(self):
        engine = self._engine(max_queue_depth=1, admission="block", max_wait_s=0.0)
        first = engine.submit(_item(0, SHAPES_A, 0))
        admitted: list = []
        thread = threading.Thread(
            target=lambda: admitted.append(engine.submit(_item(1, SHAPES_B, 1)))
        )
        thread.start()
        # The submitter blocks until a poll drains the queue below the bound;
        # this loop is the stand-in for the pump thread.
        deadline = time.monotonic() + 30.0
        while thread.is_alive():
            if time.monotonic() > deadline:
                pytest.fail("blocked submit was never admitted")
            engine.poll()
        thread.join(timeout=10.0)
        assert admitted and engine.stats.num_shed == 0
        engine.flush()
        assert first.result(timeout=1.0) is not None
        assert admitted[0].result(timeout=1.0) is not None

    def test_block_admission_wakes_on_shutdown(self):
        engine = self._engine(max_queue_depth=1, admission="block")
        engine.submit(_item(0, SHAPES_A, 0))
        outcome: list = []

        def blocked_submit():
            try:
                engine.submit(_item(1, SHAPES_A, 1))
                outcome.append("admitted")
            except RuntimeError as error:
                outcome.append(error)

        thread = threading.Thread(target=blocked_submit)
        thread.start()
        engine.shutdown()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        # Whether the thread reached the wait before or after shutdown, it
        # must observe the shutdown, never hang and never be admitted.
        assert len(outcome) == 1
        assert isinstance(outcome[0], RuntimeError)


class TestDeadlines:
    def test_queued_request_expires_with_diagnostic(self):
        clock = FakeClock()
        engine = ServingEngine(
            lambda: _recording_bank([]),
            ServingConfig(num_workers=0, max_batch_size=8, max_wait_s=100.0),
            clock=clock,
        )
        future = engine.submit(_item(7, SHAPES_A, 0), deadline_s=1.0)
        engine.poll()
        assert not future.done()
        clock.advance(1.0)
        engine.poll()
        assert engine.stats.num_expired == 1
        with pytest.raises(DeadlineExceeded, match=r"request 7 expired after 1s"):
            future.result(timeout=1.0)

    def test_item_level_deadline_applies_when_submit_omits_one(self):
        clock = FakeClock()
        engine = ServingEngine(
            lambda: _recording_bank([]),
            ServingConfig(num_workers=0, max_batch_size=8, max_wait_s=100.0),
            clock=clock,
        )
        item = WorkItem(
            item_id="slo",
            features=np.zeros(
                (sum(s.num_pixels for s in SHAPES_A), D_MODEL), dtype=np.float32
            ),
            spatial_shapes=SHAPES_A,
            deadline_s=0.5,
        )
        future = engine.submit(item)
        clock.advance(0.5)
        engine.poll()
        with pytest.raises(DeadlineExceeded):
            future.result(timeout=1.0)

    def test_dispatched_request_never_expires(self):
        clock = FakeClock()
        engine = _idle_engine(clock, max_wait_s=0.0)
        _stub_worker(engine._workers[0])
        future = engine.submit(_item(0, SHAPES_A, 0), deadline_s=1.0)
        engine.poll()
        assert engine._workers[0].busy is not None  # in flight on the worker
        clock.advance(100.0)
        engine.poll()
        assert engine.stats.num_expired == 0
        assert not future.done()  # bounded by the watchdog, not the deadline


class TestWatchdog:
    def _hung_engine(self):
        clock = FakeClock()
        engine = _idle_engine(
            clock, max_wait_s=0.0, batch_timeout_s=1.0, restart_backoff_s=0.5
        )
        _stub_worker(engine._workers[0])
        future = engine.submit(_item(0, SHAPES_A, 0))
        engine.poll()
        assert engine._workers[0].busy is not None
        return engine, clock, future

    def test_watchdog_kills_overdue_batch_and_requeues(self):
        engine, clock, future = self._hung_engine()
        handle = engine._workers[0]
        clock.advance(0.999)
        engine.poll()
        assert engine.stats.watchdog_kills == 0  # one tick short of the bound
        clock.advance(0.001)
        engine.poll()
        assert engine.stats.watchdog_kills == 1
        assert engine.stats.worker_deaths == 1
        assert not handle.alive and handle.process is None  # killed and reaped
        assert handle.restart_at == clock.now + 0.5
        assert engine.stats.num_retried == 1
        assert not future.done()  # requeued as a suspect, not failed
        assert engine.mode == "degraded"

    def test_restart_after_watchdog_kill_serves_suspect_on_worker(self):
        engine, clock, future = self._hung_engine()
        clock.advance(1.0)
        engine.poll()  # watchdog kill
        spawned: list[int] = []

        def fake_spawn(handle):
            spawned.append(handle.index)
            _stub_worker(handle, ready=True)
            handle.restart_at = None

        engine._spawn = fake_spawn
        clock.advance(0.499)
        engine.poll()
        assert spawned == []  # backoff not yet expired on the engine clock
        clock.advance(0.001)
        engine.poll()
        assert spawned == [0]
        assert engine.stats.worker_restarts == 1
        # The same poll redispatches the suspect — alone, and to the worker.
        last = engine.stats.batches[-1]
        assert (last.reason, last.path, last.size) == ("retry", "worker", 1)
        assert engine.mode == "primary"


class TestRetryBudget:
    def _dispatched(self, clock, **config_kwargs):
        engine = _idle_engine(clock, max_wait_s=0.0, **config_kwargs)
        handle = engine._workers[0]
        _stub_worker(handle)
        future = engine.submit(_item(0, SHAPES_A, 0))
        engine.poll()
        assert handle.busy is not None
        return engine, handle, future

    def _fault_reply(self, engine, handle, retryable=True):
        with engine._lock:
            engine._handle_message(
                handle, engine._clock(), ("err", handle.busy.batch_id, "tb", retryable)
            )

    def test_retryable_fault_requeues_then_quarantines_past_budget(self):
        clock = FakeClock()
        engine, handle, future = self._dispatched(clock, max_retries=1)
        self._fault_reply(engine, handle)
        assert engine.stats.num_retried == 1
        assert not future.done()
        engine.poll()  # redispatch, isolated
        assert engine.stats.batches[-1].reason == "retry"
        self._fault_reply(engine, handle)
        assert engine.stats.num_quarantined == 1
        with pytest.raises(PoisonRequestError, match="quarantined as poison") as info:
            future.result(timeout=1.0)
        assert info.value.kills == 2
        assert info.value.max_retries == 1

    def test_non_retryable_error_fails_future_without_retry(self):
        clock = FakeClock()
        engine, handle, future = self._dispatched(clock)
        self._fault_reply(engine, handle, retryable=False)
        assert engine.stats.num_retried == 0
        with pytest.raises(RuntimeError, match="worker forward failed"):
            future.result(timeout=1.0)

    def test_legacy_err_message_without_flag_is_not_retryable(self):
        clock = FakeClock()
        engine, handle, future = self._dispatched(clock)
        with engine._lock:
            engine._handle_message(
                handle, clock(), ("err", handle.busy.batch_id, "tb")
            )
        assert engine.stats.num_retried == 0
        with pytest.raises(RuntimeError, match="worker forward failed"):
            future.result(timeout=1.0)

    def test_suspect_waits_for_worker_while_fresh_requests_serve_degraded(self):
        clock = FakeClock()
        engine, handle, suspect = self._dispatched(clock, restart_backoff_s=50.0)
        with engine._lock:
            engine._handle_death(handle, clock())
        assert engine.stats.num_retried == 1
        fresh = engine.submit(_item(1, SHAPES_A, 1))
        engine.poll()
        # The fresh request served in-process; the suspect must not — it
        # could be the poison that killed the worker, and an inproc forward
        # would take the engine down with it.
        assert fresh.result(timeout=1.0) is not None
        assert engine.stats.degraded_batches == 1
        assert engine.stats.batches[-1].size == 1
        assert not suspect.done()
        assert len(engine._pending) == 1

    def test_suspect_with_all_slots_retired_is_quarantined(self):
        clock = FakeClock()
        engine, handle, future = self._dispatched(clock, max_restarts=0)
        with engine._lock:
            engine._handle_death(handle, clock())
        assert handle.retired
        engine.poll()  # no slot can ever serve the suspect again
        assert engine.stats.num_quarantined == 1
        with pytest.raises(PoisonRequestError):
            future.result(timeout=1.0)


class TestLifecycleDiagnostics:
    def test_flush_timeout_message_names_engine_state(self):
        engine = _idle_engine(SteppingClock())
        _stub_worker(engine._workers[0], busy=object())
        with pytest.raises(
            TimeoutError,
            match=r"mode=primary queue_depth=0 workers=\(w0\[alive=True",
        ):
            engine.flush(timeout=5.0)

    def test_start_timeout_message_names_worker_state(self, monkeypatch):
        engine = _idle_engine(SteppingClock())
        monkeypatch.setattr(
            engine, "_spawn", lambda handle: _stub_worker(handle, ready=False)
        )
        with pytest.raises(
            TimeoutError, match=r"did not report ready.*ready=False"
        ):
            engine.start(wait_ready=True, timeout=5.0)

    def test_shutdown_fails_batch_in_flight_on_worker(self):
        clock = FakeClock()
        engine = _idle_engine(clock, max_wait_s=0.0)
        _stub_worker(engine._workers[0])
        future = engine.submit(_item(0, SHAPES_A, 0))
        engine.poll()
        assert engine._workers[0].busy is not None
        engine.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            future.result(timeout=1.0)

    def test_flush_while_degraded_serves_inproc(self):
        clock = FakeClock()
        engine = _idle_engine(clock, max_wait_s=100.0, restart_backoff_s=50.0)
        handle = engine._workers[0]
        _stub_worker(handle)
        with engine._lock:
            engine._handle_death(handle, clock())
        assert engine.mode == "degraded"
        futures = [engine.submit(_item(i, SHAPES_A, i)) for i in range(3)]
        engine.flush(timeout=5.0)
        for future in futures:
            assert future.result(timeout=1.0) is not None
        assert engine.stats.degraded_batches >= 1
        assert engine.mode == "degraded"  # backoff still pending: no restart


class TestKillWorkerValidation:
    def test_out_of_range_index_raises(self):
        engine = _idle_engine(FakeClock())
        with pytest.raises(ValueError, match="out of range"):
            engine.kill_worker(1)
        with pytest.raises(ValueError, match="out of range"):
            engine.kill_worker(-1)

    def test_returns_whether_a_kill_happened(self):
        engine = _idle_engine(FakeClock())
        assert engine.kill_worker(0) is False  # never spawned
        _stub_worker(engine._workers[0])
        assert engine.kill_worker(0) is True
        assert engine.kill_worker(0) is False  # already dead


class TestWorkerStatsTimeout:
    def test_unresponsive_worker_reports_none_within_timeout(self):
        engine = _idle_engine(FakeClock())
        _stub_worker(engine._workers[0], ready=True)
        begin = time.monotonic()
        assert engine.worker_stats(timeout=0.2) == [None]
        assert time.monotonic() - begin < 5.0

    def test_busy_slot_reports_none_without_touching_the_pipe(self):
        engine = _idle_engine(FakeClock())
        _stub_worker(engine._workers[0], busy=object())
        assert engine.worker_stats(timeout=0.2) == [None]
        assert engine._workers[0].conn.sent == []


class TestBoundedSend:
    def test_roundtrip_matches_connection_wire_format(self):
        a, b = mp.Pipe()
        try:
            payload = {"x": np.arange(5), "label": "batch"}
            _send_with_deadline(a, payload, timeout=5.0)
            assert b.poll(5.0)
            received = b.recv()
            np.testing.assert_array_equal(received["x"], payload["x"])
            assert received["label"] == "batch"
        finally:
            a.close()
            b.close()

    def test_times_out_on_undrained_pipe_and_restores_blocking(self):
        a, b = mp.Pipe()
        try:
            blob = np.zeros(4 << 20, dtype=np.uint8)  # far beyond the pipe buffer
            begin = time.monotonic()
            with pytest.raises(_PipeSendTimeout, match="unsent"):
                _send_with_deadline(a, blob, timeout=0.2)
            assert time.monotonic() - begin < 10.0
            assert os.get_blocking(a.fileno())  # mode restored for reuse
        finally:
            a.close()
            b.close()

    def test_falls_back_to_blocking_send_without_fileno(self):
        conn = _StubConn()
        _send_with_deadline(conn, ("a",), timeout=0.1)
        _send_with_deadline(conn, ("b",), None)
        assert conn.sent == [("a",), ("b",)]
