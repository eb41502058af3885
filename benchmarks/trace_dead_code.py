"""Fail on ``src/`` code that no entry point executes.

Runs the CI entry points with a ``sitecustomize`` that records every code
object called in ``src/repro`` (``sys.setprofile`` / ``threading.setprofile``);
each process dumps at exit, forked serving workers from a ``multiprocessing``
finalizer, since they leave through ``os._exit``.  A function, method,
constructor or class body that never ran fails unless :data:`ALLOWLIST` (the
name guard's of ``tests/test_no_test_only_code.py`` plus what only the trace
needs) names it or its class with a reason; so does an entry that names
nothing.  Protocol dunders (``__repr__``, ``__exit__``, ...) are not checked.
The compiled backend must run too, so build it first::

    python setup.py build_ext --inplace
    python benchmarks/trace_dead_code.py            # about 10 min on 2 vCPUs
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT / "tests"))
from test_no_test_only_code import ALLOWLIST as NAME_GUARD_ALLOWLIST

_STREAMING = "served streaming: blocked on perfbench `TracedBank`, ROADMAP item 5"

# Qualified name (a function, or a class for all its methods) -> why it stays.
ALLOWLIST: dict[str, str] = {
    **NAME_GUARD_ALLOWLIST,
    "repro.nn.grid_sample.bilinear_sample_level": "runs under the loop oracles",
    "repro.nn.grid_sample.bilinear_neighbors": "runs under the loop oracles",
    "repro.nn.modules.Module.forward": "abstract method every module overrides",
    "repro.nn.modules.GELU.forward": "FFN activation knob that perfbench passes",
    "repro.engine.serving.ServingEngine._diagnose": "error path: flush/start timeouts",
    "repro.engine.serving.ModelBank.request_classes": "error path: unknown request class",
    "repro.engine.serving.PoisonRequestError.__init__": "fault path: poison requests",
    "repro.engine.serving.WorkerError.__init__": "error path: a worker forward raised",
    "repro.engine.parallel.ParallelExperimentError.__init__": "error path: failed --jobs",
    "repro.engine.faults._hard_crash": "fault path: the worker exits inside it, unrecorded",
    "repro.nn.detection_head.DetectionResult.empty": "no-detection branch",
    "repro.nn.grid_sample.SamplingTrace.as_batch": "single-image input form (batch-first rule)",
    "repro.engine.serving.StreamingClassServer": _STREAMING,
    "repro.engine.serving.ServingEngine._stream_worker": _STREAMING,
    "repro.kernels.options.ExecutionOptions.with_overrides": _STREAMING,
}

SITECUSTOMIZE = """
import atexit, json, os, sys, threading
from multiprocessing import util
seen = set()
def _profile(frame, event, arg):
    if event == "call":
        seen.add(frame.f_code)
def _dump():
    rows = sorted({(c.co_filename.rsplit("/src/", 1)[-1], c.co_firstlineno)
                   for c in seen.copy() if "/src/repro/" in c.co_filename})
    with open(os.path.join(os.environ["DEAD_CODE_TRACE_DIR"], f"{os.getpid()}.json"), "w") as f:
        json.dump(rows, f)
atexit.register(_dump)
util.register_after_fork(_dump, lambda _: util.Finalize(None, _dump, exitpriority=-100))
sys.setprofile(_profile)
threading.setprofile(_profile)
"""


def entry_points(out: Path) -> list[list[str]]:
    """The commands CI runs, each writing what it saves under ``out``."""
    py, run_all = sys.executable, "benchmarks/run_all.py"
    bench = [py, "perfbench/run.py", "--seed", "1", "--workload"]
    workloads = ("encode_coco", "serve_mixed", "stream_video")
    return [
        *([*bench, w, "--seconds", "1", "--trace", t, "--tiny"] for w in workloads for t in "01"),
        *([*bench, w, "--seconds", "3", "--trace", "1"] for w in workloads),
        *([py, str(example)] for example in sorted((ROOT / "examples").glob("*.py"))),
        [py, "-m", "repro.experiments.runner", "--output-dir", str(out / "runner")],
        [py, "-m", "repro.experiments.runner", "fig1b", "table1", "--jobs", "2",
         "--output-dir", str(out / "jobs")],
        [py, "-m", "repro.kernels", "--check-reference"],
        [py, "-m", "repro.kernels", "--grid", "tiny", "--output", str(out / "host.json")],
        [py, run_all, "--repeats", "1", "--check", "--json", str(out / "all.json")],
        [py, run_all, "--only", "serving,serving_faults", "--check", "--json", str(out / "c.json")],
        [py, run_all, "--only", "kernel_fusion", "--backend", "reference",
         "--profile", str(out / "host.json"), "--json", str(out / "ref.json")],
        [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", "benchmarks/bench_serving.py"],
    ]


def definitions() -> dict[tuple[str, int], str]:
    """``(file under src/, first line)`` -> qualified name of each function,
    method and class body, read off the compiled code objects."""
    found: dict[tuple[str, int], str] = {}
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        module = rel.removesuffix(".py").removesuffix("/__init__").replace("/", ".")
        codes = [compile(path.read_text(), rel, "exec")]
        while codes:
            code = codes.pop()
            codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            name = code.co_name  # skip <module>, <lambda>, ... and protocol dunders
            if name[0] != "<" and (name == "__init__" or not name.endswith("__")):
                qualname = code.co_qualname.replace(".<locals>", "")
                found[(rel, code.co_firstlineno)] = f"{module}.{qualname}"
    return found


def main() -> int:
    if not list((SRC / "repro" / "kernels").glob("_defa_kernels*")):
        sys.exit("build the extension first: python setup.py build_ext --inplace")
    out = Path(tempfile.mkdtemp(prefix="dead-code-"))
    print(f"call records and outputs go to {out}", flush=True)
    for sub in ("calls", "site"):
        (out / sub).mkdir()
    (out / "site" / "sitecustomize.py").write_text(SITECUSTOMIZE)
    env = dict(os.environ, DEAD_CODE_TRACE_DIR=str(out / "calls"),
               PYTHONPATH=os.pathsep.join([str(out / "site"), str(SRC)]))
    for command in entry_points(out):
        print("$", " ".join(command[1:]), flush=True)
        subprocess.run(command, cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL)
    ran = {tuple(r) for d in (out / "calls").glob("*.json") for r in json.loads(d.read_text())}
    defined = definitions()
    covers = {key: [n for n in defined.values() if n == key or n.startswith(key + ".")]
              for key in ALLOWLIST}
    allowed = {name for names in covers.values() for name in names}
    never = sorted(name for key, name in defined.items() if key not in ran)
    failing = [f"never executed: {name}" for name in never if name not in allowed]
    failing += [f"allowlist entry names nothing: {key}" for key, n in covers.items() if not n]
    print(f"{len(defined) - len(never)} of {len(defined)} src/ definitions executed; "
          f"{len(never) - sum(n not in allowed for n in never)} others are allowlisted")
    print("\n".join(failing))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
