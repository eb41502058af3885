"""Tests for the batched execution engine: BatchRunner, --jobs."""

from __future__ import annotations

import numpy as np
import pytest

from repro.engine import (
    BatchRunner,
    ParallelExperimentError,
    WorkItem,
    defa_forward_fn,
    run_experiments_parallel,
)
from repro.core.config import DEFAConfig
from repro.core.encoder_runner import DEFAEncoderRunner
from repro.kernels import ExecutionOptions
from repro.experiments.runner import run_experiments
from repro.nn.encoder import DeformableEncoder
from repro.nn.positional import make_reference_points, sine_positional_encoding
from repro.utils.shapes import LevelShape

SHAPES_A = (LevelShape(8, 12), LevelShape(4, 6))
SHAPES_B = (LevelShape(6, 8), LevelShape(3, 4))
D_MODEL = 32


def _item(item_id, shapes, seed):
    rng = np.random.default_rng(seed)
    n_in = sum(s.num_pixels for s in shapes)
    return WorkItem(
        item_id=item_id,
        features=rng.standard_normal((n_in, D_MODEL)).astype(np.float32),
        spatial_shapes=shapes,
    )


def _encoder() -> DeformableEncoder:
    return DeformableEncoder(
        num_layers=2,
        d_model=D_MODEL,
        num_heads=4,
        num_levels=2,
        num_points=2,
        ffn_dim=64,
        rng=0,
    )


class TestWorkItem:
    def test_shape_key_groups_equal_pyramids(self):
        assert _item(0, SHAPES_A, 0).shape_key == _item(1, SHAPES_A, 1).shape_key
        assert _item(0, SHAPES_A, 0).shape_key != _item(1, SHAPES_B, 1).shape_key

    def test_token_mismatch_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            WorkItem(0, rng.standard_normal((5, D_MODEL)), SHAPES_A)

    def test_non_2d_features_raise(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            WorkItem(0, rng.standard_normal((2, 108, D_MODEL)), SHAPES_A)

    def test_identity_semantics(self):
        """Items are hashable and comparable despite the ndarray field."""
        a = _item(0, SHAPES_A, 0)
        b = _item(0, SHAPES_A, 0)
        assert a in {a} and a != b and a == a
        assert b not in {a}

    def test_features_snapshotted_at_construction(self):
        """The item must hold a private copy: post-construction mutation of
        the caller's array (buffer reuse between submit and execution) cannot
        reach the queued request."""
        rng = np.random.default_rng(0)
        n_in = sum(s.num_pixels for s in SHAPES_A)
        caller_buffer = rng.standard_normal((n_in, D_MODEL)).astype(np.float32)
        item = WorkItem(0, caller_buffer, SHAPES_A)
        snapshot = np.array(item.features)
        caller_buffer[:] = 0.0  # caller recycles its buffer post-submit
        np.testing.assert_array_equal(item.features, snapshot)

    def test_post_submit_mutation_cannot_change_outputs(self):
        """End-to-end: corrupting the submitted array after construction must
        not change what the runner computes."""
        rng = np.random.default_rng(1)
        n_in = sum(s.num_pixels for s in SHAPES_A)
        buffers = [
            rng.standard_normal((n_in, D_MODEL)).astype(np.float32) for _ in range(3)
        ]
        items = [WorkItem(i, buf, SHAPES_A) for i, buf in enumerate(buffers)]
        expected = [buf.copy() for buf in buffers]
        for buf in buffers:
            buf[:] = np.nan  # post-submit corruption
        runner = BatchRunner(lambda batch, shapes: batch.copy(), max_batch_size=2)
        result = runner.run(items)
        for output, want in zip(result.outputs, expected):
            np.testing.assert_array_equal(output, want)

    def test_features_are_read_only(self):
        item = _item(0, SHAPES_A, 0)
        assert not item.features.flags.writeable
        with pytest.raises(ValueError):
            item.features[0, 0] = 1.0

    def test_non_float_dtype_rejected(self):
        n_in = sum(s.num_pixels for s in SHAPES_A)
        with pytest.raises(ValueError, match="floating point"):
            WorkItem(0, np.zeros((n_in, D_MODEL), dtype=np.int32), SHAPES_A)

    def test_float64_converted_to_float_dtype(self):
        rng = np.random.default_rng(2)
        n_in = sum(s.num_pixels for s in SHAPES_A)
        item = WorkItem(0, rng.standard_normal((n_in, D_MODEL)), SHAPES_A)
        assert item.features.dtype == np.float32


class TestBatchRunner:
    def test_groups_and_batches(self):
        items = [
            _item("a0", SHAPES_A, 0),
            _item("b0", SHAPES_B, 1),
            _item("a1", SHAPES_A, 2),
            _item("a2", SHAPES_A, 3),
            _item("b1", SHAPES_B, 4),
        ]
        calls = []

        def forward(batch, shapes):
            calls.append(batch.shape[0])
            return batch  # identity

        runner = BatchRunner(forward, max_batch_size=2)
        result = runner.run(items)
        # 3 same-shape A items -> batches of 2 + 1; 2 B items -> one batch.
        assert sorted(result.stats.batch_sizes) == [1, 2, 2]
        assert result.stats.num_groups == 2
        assert result.stats.num_items == 5
        assert result.stats.num_batches == 3
        assert result.item_ids == ["a0", "b0", "a1", "a2", "b1"]

    def test_outputs_in_submission_order_and_equivalent(self):
        encoder = _encoder()
        items = [
            _item(i, SHAPES_A if i % 2 == 0 else SHAPES_B, seed=i) for i in range(6)
        ]
        def forward(batch, shapes):
            pos = sine_positional_encoding(shapes, D_MODEL)
            return encoder.forward(batch, pos, make_reference_points(shapes), shapes)

        runner = BatchRunner(forward, max_batch_size=4)
        result = runner.run(items)
        for item, output in zip(items, result.outputs):
            shapes = list(item.spatial_shapes)
            pos = sine_positional_encoding(shapes, D_MODEL)
            reference = make_reference_points(shapes)
            single = encoder.forward(item.features, pos, reference, shapes)
            np.testing.assert_allclose(output, single, atol=1e-5)

    def test_defa_forward_fn_equivalent(self):
        encoder = _encoder()
        runner_defa = DEFAEncoderRunner(encoder, DEFAConfig())
        items = [_item(i, SHAPES_A, seed=10 + i) for i in range(3)]
        engine = BatchRunner(defa_forward_fn(runner_defa), max_batch_size=8)
        result = engine.run(items)
        shapes = list(SHAPES_A)
        pos = sine_positional_encoding(shapes, D_MODEL)
        reference = make_reference_points(shapes)
        for item, output in zip(items, result.outputs):
            single = runner_defa.forward(item.features, pos, reference, shapes)
            np.testing.assert_allclose(output, single.memory, atol=1e-5)

    def test_wrong_forward_batch_raises(self):
        runner = BatchRunner(lambda batch, shapes: batch[:1], max_batch_size=4)
        with pytest.raises(ValueError):
            runner.run([_item(0, SHAPES_A, 0), _item(1, SHAPES_A, 1)])

    def test_invalid_batch_size_raises(self):
        with pytest.raises(ValueError):
            BatchRunner(lambda batch, shapes: batch, max_batch_size=0)

    def test_empty_run(self):
        runner = BatchRunner(lambda batch, shapes: batch)
        result = runner.run([])
        assert result.outputs == [] and result.stats.num_batches == 0
        assert result.stats.mean_batch_size == 0.0

    def test_mean_batch_size(self):
        items = [_item(i, SHAPES_A, i) for i in range(5)]
        result = BatchRunner(lambda batch, shapes: batch, max_batch_size=2).run(items)
        assert result.stats.batch_sizes == [2, 2, 1]
        assert result.stats.mean_batch_size == pytest.approx(5 / 3)


class TestParallelRunner:
    """--jobs execution must be deterministic: identical to the serial runner."""

    IDS = ["fig1b", "table1"]  # analytic experiments, fast enough for a test

    def test_parallel_matches_serial(self):
        serial = run_experiments(self.IDS, verbose=False, jobs=1)
        parallel = run_experiments(self.IDS, verbose=False, jobs=2)
        assert set(serial) == set(parallel)
        for experiment_id in self.IDS:
            assert serial[experiment_id].headers == parallel[experiment_id].headers
            assert serial[experiment_id].rows == parallel[experiment_id].rows
            assert serial[experiment_id].notes == parallel[experiment_id].notes

    def test_run_experiments_parallel_direct(self):
        results = run_experiments_parallel(["fig1b"], jobs=2)
        assert results["fig1b"].experiment_id == "fig1b"

    def test_on_result_callback_fires_per_completion(self):
        seen = []
        results = run_experiments_parallel(
            self.IDS, jobs=2, on_result=lambda eid, result: seen.append(eid)
        )
        assert sorted(seen) == sorted(self.IDS)
        assert set(results) == set(self.IDS)

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            run_experiments(self.IDS, verbose=False, jobs=0)
        with pytest.raises(ValueError):
            run_experiments_parallel(self.IDS, jobs=-1)

    def test_empty_ids(self):
        assert run_experiments_parallel([], jobs=2) == {}


class TestDefaForwardFnRunnerMode:
    """The adapter runs exactly as its runner is configured."""

    def test_none_keeps_current_mode(self):
        runner = DEFAEncoderRunner(_encoder(), DEFAConfig())
        runner.sparse_mode = "dense"
        adapter = defa_forward_fn(runner)
        batch = _item(0, SHAPES_A, 0).features[None]
        shapes = list(SHAPES_A)
        got = adapter(batch, shapes)
        assert runner.sparse_mode == "dense"
        dedicated = DEFAEncoderRunner(
            _encoder(), DEFAConfig(), ExecutionOptions(sparse_mode="dense")
        )
        pos = sine_positional_encoding(shapes, D_MODEL)
        reference = make_reference_points(shapes)
        np.testing.assert_array_equal(
            got, dedicated.forward(batch, pos, reference, shapes).memory
        )


def _flaky_experiment_worker(experiment_id: str):
    """Top-level (picklable) worker: fails every id starting with 'bad'."""
    if experiment_id.startswith("bad"):
        raise ValueError(f"boom: {experiment_id}")
    return experiment_id.upper()


class TestParallelMultiFailure:
    """Multi-failure runs must report every failed experiment id."""

    def test_all_failures_attached(self):
        ids = ["ok-1", "bad-1", "ok-2", "bad-2", "bad-3"]
        with pytest.raises(ParallelExperimentError) as excinfo:
            run_experiments_parallel(ids, jobs=2, worker=_flaky_experiment_worker)
        error = excinfo.value
        assert set(error.failures) == {"bad-1", "bad-2", "bad-3"}
        for failed_id in ("bad-1", "bad-2", "bad-3"):
            assert failed_id in str(error)
            assert isinstance(error.failures[failed_id], ValueError)
        # The first failing id (input order) is chained as the cause.
        assert error.__cause__ is error.failures["bad-1"]

    def test_completed_results_still_delivered_via_callback(self):
        """A failing sibling must not discard completed results: the
        save-as-you-go callback sees every success."""
        seen = {}
        with pytest.raises(ParallelExperimentError):
            run_experiments_parallel(
                ["ok-1", "bad-1", "ok-2"],
                jobs=2,
                on_result=lambda eid, result: seen.__setitem__(eid, result),
                worker=_flaky_experiment_worker,
            )
        assert seen == {"ok-1": "OK-1", "ok-2": "OK-2"}

    def test_no_failures_returns_results_in_id_order(self):
        results = run_experiments_parallel(
            ["ok-2", "ok-1"], jobs=2, worker=_flaky_experiment_worker
        )
        assert list(results) == ["ok-2", "ok-1"]
        assert results == {"ok-2": "OK-2", "ok-1": "OK-1"}
