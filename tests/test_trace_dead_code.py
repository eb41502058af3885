"""Tests for the trace-based dead-code check (``benchmarks/trace_dead_code.py``).

The full check runs every CI entry point and takes minutes; these pin its
parts in seconds: the definition index keys code the way the recorder sees
it, the recorder dumps from a forked worker that leaves through
``os._exit``, and every allowlist entry names a definition.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

import trace_dead_code  # noqa: E402  (path set up above)
from repro.utils.shapes import LevelShape, total_pixels  # noqa: E402

SHAPES_FILE = "repro/utils/shapes.py"


def _key(function) -> tuple[str, int]:
    return (SHAPES_FILE, function.__code__.co_firstlineno)


def test_definitions_are_keyed_like_the_recorded_code_objects():
    defined = trace_dead_code.definitions()
    assert defined[_key(total_pixels)] == "repro.utils.shapes.total_pixels"
    assert defined[_key(LevelShape.as_tuple)] == "repro.utils.shapes.LevelShape.as_tuple"
    # A decorated method's code starts at its first decorator.
    assert defined[_key(LevelShape.num_pixels.fget)] == "repro.utils.shapes.LevelShape.num_pixels"
    names = set(defined.values())
    assert "repro.utils.shapes.LevelShape" in names  # the class body
    assert "repro.utils.shapes.LevelShape.__post_init__" not in names  # protocol dunder


def test_every_allowlist_entry_names_a_definition():
    names = set(trace_dead_code.definitions().values())
    stale = [
        key
        for key in trace_dead_code.ALLOWLIST
        if not any(name == key or name.startswith(key + ".") for name in names)
    ]
    assert not stale, f"allowlist entries that name nothing: {stale}"


def test_recorder_dumps_from_a_forked_worker(tmp_path):
    site, calls = tmp_path / "site", tmp_path / "calls"
    site.mkdir()
    calls.mkdir()
    (site / "sitecustomize.py").write_text(trace_dead_code.SITECUSTOMIZE)
    script = (
        "import multiprocessing\n"
        "from repro.utils.shapes import LevelShape, total_pixels\n"
        "def work():\n"
        "    total_pixels([LevelShape(2, 3)])\n"
        "worker = multiprocessing.get_context('fork').Process(target=work)\n"
        "worker.start()\n"
        "worker.join()\n"
        "assert worker.exitcode == 0\n"
        "LevelShape(1, 1).as_tuple()\n"
    )
    env = dict(
        os.environ,
        DEAD_CODE_TRACE_DIR=str(calls),
        PYTHONPATH=os.pathsep.join([str(site), str(ROOT / "src")]),
    )
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=60)
    dumps = [
        {tuple(row) for row in json.loads(path.read_text())} for path in calls.glob("*.json")
    ]
    assert len(dumps) == 2  # the parent at exit, the worker from its finalizer
    worker = next(d for d in dumps if _key(total_pixels) in d)
    parent = next(d for d in dumps if d is not worker)
    assert _key(LevelShape.as_tuple) in parent and _key(total_pixels) not in parent
    assert _key(LevelShape.as_tuple) not in worker
