"""Tests for repro.utils: RNG helpers, shapes, tables, serialization."""

import json

import numpy as np
import pytest

from repro.utils.rng import DEFAULT_SEED, as_rng, spawn_rngs
from repro.utils.serialization import save_json
from repro.utils.shapes import (
    LevelShape,
    level_start_indices,
    make_level_shapes,
    total_pixels,
)
from repro.utils.tables import format_table


class TestRng:
    def test_default_seed_is_deterministic(self):
        a = as_rng(None).integers(0, 1000, 10)
        b = as_rng(None).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_int_seed(self):
        assert as_rng(3).integers(0, 100) == as_rng(3).integers(0, 100)

    def test_existing_generator_passthrough(self):
        gen = np.random.default_rng(7)
        assert as_rng(gen) is gen

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(0, 3)
        assert len(rngs) == 3
        draws = [r.integers(0, 2**30) for r in rngs]
        assert len(set(draws)) == 3

    def test_spawn_rngs_reproducible(self):
        a = [r.integers(0, 2**30) for r in spawn_rngs(5, 4)]
        b = [r.integers(0, 2**30) for r in spawn_rngs(5, 4)]
        assert a == b

    def test_spawn_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_rngs(0, -1)

    def test_default_seed_constant(self):
        assert isinstance(DEFAULT_SEED, int)


class TestShapes:
    def test_level_shape_properties(self):
        shape = LevelShape(4, 6)
        assert shape.num_pixels == 24
        assert shape.as_tuple() == (4, 6)

    def test_level_shape_invalid(self):
        with pytest.raises(ValueError):
            LevelShape(0, 5)

    def test_make_level_shapes_coco(self):
        shapes = make_level_shapes(800, 1066, (8, 16, 32, 64))
        assert [s.as_tuple() for s in shapes] == [(100, 134), (50, 67), (25, 34), (13, 17)]

    def test_make_level_shapes_invalid_stride(self):
        with pytest.raises(ValueError):
            make_level_shapes(100, 100, (0,))

    def test_total_pixels(self):
        shapes = [LevelShape(2, 2), LevelShape(1, 3)]
        assert total_pixels(shapes) == 7

    def test_level_start_indices(self):
        shapes = [LevelShape(2, 2), LevelShape(1, 3), LevelShape(1, 1)]
        assert level_start_indices(shapes).tolist() == [0, 4, 7]


class TestTables:
    def test_basic_table(self):
        text = format_table(["a", "b"], [[1, 2.5], ["x", 3.25]])
        assert "a" in text and "x" in text
        assert "2.500" in text

    def test_title(self):
        text = format_table(["a"], [[1]], title="My table")
        assert text.splitlines()[0] == "My table"

    def test_row_length_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_format(self):
        text = format_table(["v"], [[1.23456]], float_fmt=".1f")
        assert "1.2" in text and "1.23" not in text


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        data = {"a": np.float32(1.5), "b": np.arange(3), "c": [np.int64(2), "text"], "d": np.bool_(True)}
        path = save_json(tmp_path / "out.json", data)
        loaded = json.loads(path.read_text())
        assert loaded["a"] == 1.5
        assert loaded["b"] == [0, 1, 2]
        assert loaded["c"] == [2, "text"]
        assert loaded["d"] is True

    def test_nested_dirs_created(self, tmp_path):
        path = save_json(tmp_path / "sub" / "dir" / "x.json", {"k": 1})
        assert path.exists()
