"""Shared utilities: RNG handling, shape helpers, tables and serialization."""

from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.shapes import (
    LevelShape,
    level_start_indices,
    make_level_shapes,
    total_pixels,
)
from repro.utils.tables import format_table
from repro.utils.serialization import save_json

__all__ = [
    "as_rng",
    "spawn_rngs",
    "LevelShape",
    "level_start_indices",
    "make_level_shapes",
    "total_pixels",
    "format_table",
    "save_json",
]
