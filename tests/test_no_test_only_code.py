"""No ``src/`` definition exists only for the tests.

Every top-level function or class in ``src/repro`` and every non-dunder
method of a top-level class must be named somewhere in the code that runs
without the test suite: ``src/``, ``benchmarks/``, ``perfbench/`` or
``examples/``.  A reference is a loaded name or attribute, or a string
literal that is a whole identifier or dotted name (registries and ``getattr``
lookups name code that way).  Import lines, ``__all__`` lists, docstrings,
comments and identifiers inside prose strings such as error messages are not
references: a re-export or a mention in prose keeps nothing alive.

The scan matches by name, one level deep: a definition called only from
another definition still counts as called.  Anything the tests need beyond
that lives in :data:`ALLOWLIST`, each entry with the reason it stays.

Config fields get the same rule: every field of the classes in
:data:`CONFIG_CLASSES` must be passed by keyword (``field=``) somewhere in
that runtime code outside the class's own module, or be listed in
:data:`FIELD_ALLOWLIST` with a reason.  A field that only the tests set is a
knob nothing runs.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUNTIME_DIRS = ("src", "benchmarks", "perfbench", "examples")
DOTTED_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")

# Qualified name -> why a definition that only the tests reach stays in src/.
ALLOWLIST: dict[str, str] = {
    "repro.nn.grid_sample.bilinear_sample_level_reference": (
        "loop oracle the vectorized single-level bilinear sampler is tested against"
    ),
    "repro.nn.grid_sample.ms_deform_attn_core_reference": (
        "loop oracle the dense and sparse MSGS + aggregation kernels are tested against"
    ),
    "repro.core.sampling_stats.sampled_frequency_reference": (
        "loop oracle the dense and compact sampled-frequency counters are tested against"
    ),
    "repro.nn.grid_sample.ms_deform_attn_core": (
        "dense expected value the sparse kernels and batched paths are compared with"
    ),
    "repro.hardware.pe_array.bilinear_interpolate_factorized": (
        "home of Eq. 4 (three-multiplier bilinear interpolation), pinned to the "
        "standard bilinear formula"
    ),
    "repro.workloads.specs.WorkloadSpec.multi_scale_to_single_scale_ratio": (
        "home of the Sec. 2.2 multi-scale/single-scale fmap ratio (~21.3x), pinned "
        "to the paper value"
    ),
    "repro.kernels.registry.use_backend": (
        "scoped switch of the process-default backend that the backend-parametrized "
        "fixtures run under; its restore needs the registry's private global"
    ),
}

# Module file (relative to ``src/``) and name of each config class whose
# fields must be set by runtime code.
CONFIG_CLASSES = (
    ("repro/core/config.py", "DEFAConfig"),
    ("repro/kernels/options.py", "ExecutionOptions"),
)

# Qualified field name -> why a field that no runtime code sets stays.
FIELD_ALLOWLIST: dict[str, str] = {}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _references(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    prose: set[int] = set()  # docstrings and ``__all__`` entries
    # ast.walk is breadth-first, so a statement is seen before its strings.
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.Constant):
            if (
                isinstance(node.value, str)
                and id(node) not in prose
                and DOTTED_NAME.fullmatch(node.value)
            ):
                names.update(node.value.split("."))
        elif isinstance(node, ast.Expr):
            prose.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            prose.update(id(n) for n in ast.walk(node.value))
    return names


def _definitions(tree: ast.Module, module: str):
    """Yield ``(qualified name, name)`` for every definition the rule covers."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{module}.{stmt.name}", stmt.name
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not _is_dunder(item.name):
                        yield f"{module}.{stmt.name}.{item.name}", item.name


@lru_cache(maxsize=None)
def _runtime_trees() -> dict[Path, ast.Module]:
    """The parsed syntax tree of every runtime file."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in RUNTIME_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


@lru_cache(maxsize=None)
def _scan() -> tuple[set[str], dict[str, str]]:
    """Return (every referenced name, qualified name -> name of each definition)."""
    referenced: set[str] = set()
    definitions: dict[str, str] = {}
    for path, tree in _runtime_trees().items():
        referenced |= _references(tree)
        if path.is_relative_to(ROOT / "src"):
            parts = path.relative_to(ROOT / "src").with_suffix("").parts
            module = ".".join(parts[:-1] if parts[-1] == "__init__" else parts)
            definitions.update(_definitions(tree, module))
    return referenced, definitions


def test_every_src_definition_has_a_runtime_caller():
    referenced, definitions = _scan()
    unreferenced = sorted(
        qualified
        for qualified, name in definitions.items()
        if name not in referenced and qualified not in ALLOWLIST
    )
    assert not unreferenced, (
        "src/ definitions that only the tests reach (delete them with their "
        "tests, or allowlist them with a reason):\n  " + "\n  ".join(unreferenced)
    )


def test_allowlist_has_no_stale_entries():
    referenced, definitions = _scan()
    missing = sorted(q for q in ALLOWLIST if q not in definitions)
    called = sorted(q for q in ALLOWLIST if q in definitions and definitions[q] in referenced)
    assert not missing, f"allowlisted names that no longer exist: {missing}"
    assert not called, f"allowlisted names that now have a runtime caller: {called}"


@lru_cache(maxsize=None)
def _call_keywords() -> dict[Path, frozenset[str]]:
    """Every keyword-argument name passed in a call, per runtime file."""
    return {
        path: frozenset(
            kw.arg
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            for kw in node.keywords
            if kw.arg is not None
        )
        for path, tree in _runtime_trees().items()
    }


def _config_fields(module_file: Path, class_name: str) -> list[str]:
    tree = _runtime_trees()[module_file]
    (cls,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name)
    return [
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def test_every_config_field_is_set_by_runtime_code():
    unset = []
    for relative, class_name in CONFIG_CLASSES:
        module_file = ROOT / "src" / relative
        fields = _config_fields(module_file, class_name)
        assert fields, f"{class_name} has no annotated fields in {relative}"
        passed = set().union(
            *(kw for path, kw in _call_keywords().items() if path != module_file)
        )
        unset += [
            f"{class_name}.{field}"
            for field in fields
            if field not in passed and f"{class_name}.{field}" not in FIELD_ALLOWLIST
        ]
    assert not unset, (
        "config fields that no runtime code sets by keyword (delete them with "
        "their tests, or allowlist them with a reason):\n  " + "\n  ".join(unset)
    )
