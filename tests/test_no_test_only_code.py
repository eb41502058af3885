"""No ``src/`` definition, parameter or field exists only for the tests.

*Runtime code* is everything that runs without the test suite: ``src/``,
``benchmarks/``, ``perfbench/`` and ``examples/``.  Four rules hold over it,
each with an allowlist whose every entry gives the reason it stays.  An entry
of :data:`ALLOWLIST`, :data:`PARAMETER_ALLOWLIST` or
:data:`DATACLASS_FIELD_ALLOWLIST` that names nothing, or a name its rule no
longer flags, fails too.

Definitions.  Every top-level function or class in ``src/repro`` and every
non-dunder method of a top-level class is named somewhere in runtime code.
A reference is a loaded name or attribute, or a string literal that is a
whole identifier or dotted name (registries and ``getattr`` lookups name code
that way).  Import lines, ``__all__`` lists, docstrings, comments and
identifiers inside prose strings such as error messages are not references:
a re-export or a mention in prose keeps nothing alive.  The scan matches by
name, one level deep: a definition called only from another definition still
counts as called.  Keepers: :data:`ALLOWLIST`.

Config fields.  Every field of the classes in :data:`CONFIG_CLASSES` is
passed by keyword (``field=``) somewhere in runtime code outside the class's
own module.  Keepers: :data:`FIELD_ALLOWLIST`.

Parameters.  Every defaulted parameter of a top-level ``src/`` function,
or of a method or ``__init__`` of a top-level class, is passed by some
runtime call.  A call reaches the function its name is bound to: ``f(...)``
calls the ``f`` its module imports or defines (a local closure ``run`` is
no ``src/`` ``run``), and ``mod.f(...)``, with ``mod`` an imported module,
calls that module's ``f`` (through a package's re-exports), so
``np.f(...)`` or another script's ``run.run(...)`` passes nothing to
``src/``.  Any other callee is matched by name, as the definition rule
matches references: ``obj.f(...)`` and an unbound ``f(...)`` call every
``f``, and ``C(...)`` calls ``C.__init__``.  A parameter is passed by keyword
(``name=``) or by position (a method's ``self`` / ``cls`` is not counted); a
``*args`` covers every positional parameter from its position on and a
``**kwargs`` every parameter.  A call that hands a function on as a
positional argument (``run_once(benchmark, mod.f, scale=...)``,
``pool.submit(f, x)``) also passes it the arguments after it and every
keyword; a bare name counts as a function there only if the module binds it
by ``def``, ``class`` or import.  The generated ``__init__`` of a dataclass is
not covered: its fields fall under the next rule.  Keepers:
:data:`PARAMETER_ALLOWLIST`.

Dataclass fields.  Every field of a ``src/`` dataclass is read by runtime
code.  A read is an attribute load (``obj.name``, not ``obj.name = ...`` or
``obj.name += ...``) or a string literal that is exactly the identifier, as
``getattr(obj, "name")`` reads it; ``__all__`` entries and docstrings are
not reads.  A field written and never read is a result nobody looks at.
Keepers: :data:`DATACLASS_FIELD_ALLOWLIST`.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Mapping
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

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

_FAULT_WORKER = (
    "test seam: scripts a fault on a worker other than worker 0; the fault "
    "benchmarks run a single worker"
)
_CLI_ARGV = "CLI seam: tests pass the argument list the console passes through sys.argv"
_PATH_FLAG = (
    "which path the block took: tests pin the auto dispatch with it, and the "
    "per-block ledger and batch records (ROADMAP items 2 and 7) will read it"
)
_SIMULATED_SPLIT = (
    "the simulated compute / DRAM split of one block, which the per-block "
    "ledger (ROADMAP item 7) will read"
)

# ``qualified.function(parameter)`` -> why a defaulted parameter that no
# runtime call passes stays.
PARAMETER_ALLOWLIST: dict[str, str] = {
    "repro.engine.serving.ServingEngine.__init__(clock)": (
        "test seam: a fake engine clock drives the deadline, backoff and "
        "watchdog tests without real waits"
    ),
    "repro.engine.serving.ServingEngine.worker_stats(timeout)": (
        "test seam: bounds the unresponsive-worker test at 0.2 s instead of the "
        "5 s runtime bound"
    ),
    "repro.engine.faults.FaultPlan.with_crash(worker)": _FAULT_WORKER,
    "repro.engine.faults.FaultPlan.with_hang(worker)": _FAULT_WORKER,
    "repro.engine.faults.FaultPlan.with_raise(worker)": _FAULT_WORKER,
    "repro.engine.faults.FaultPlan.with_crash(incarnation)": (
        "test seam: scripts a crash in a restarted worker's life"
    ),
    "repro.engine.parallel.run_experiments_parallel(worker)": (
        "test seam: a picklable worker that fails on chosen ids, so the "
        "multi-failure report is tested; every registered experiment succeeds"
    ),
    "repro.experiments.runner.main(argv)": _CLI_ARGV,
    "repro.nn.grid_sample.ms_deform_attn_core(point_mask)": (
        "the PAP-masked dense expected value the sparse kernels are compared with"
    ),
    "repro.nn.grid_sample.ms_deform_attn_core_reference(point_mask)": (
        "the PAP mask of the loop oracle"
    ),
    "repro.core.sampling_stats.sampled_frequency_reference(point_mask)": (
        "the PAP mask of the loop oracle"
    ),
}

# ``qualified.Dataclass.field`` -> why a field that no runtime code reads stays.
DATACLASS_FIELD_ALLOWLIST: dict[str, str] = {
    "repro.core.pipeline.DEFALayerStats.sparse_projection": _PATH_FLAG,
    "repro.core.pipeline.DEFALayerStats.sparse_gather": _PATH_FLAG,
    "repro.core.pipeline.DEFALayerStats.sparse_query": _PATH_FLAG,
    "repro.core.pipeline.DEFALayerStats.sparse_ffn": _PATH_FLAG,
    "repro.hardware.simulator.LayerSimulationReport.compute_time_s": _SIMULATED_SPLIT,
    "repro.hardware.simulator.LayerSimulationReport.dram_time_s": _SIMULATED_SPLIT,
}


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _prose_ids(tree: ast.AST) -> set[int]:
    """``id`` of every docstring / bare-expression string and ``__all__`` entry."""
    prose: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr):
            prose.add(id(node.value))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            prose.update(id(n) for n in ast.walk(node.value))
    return prose


def _name_strings(tree: ast.AST) -> Iterable[str]:
    """Every string literal outside prose that is a whole (dotted) identifier."""
    prose = _prose_ids(tree)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in prose
            and DOTTED_NAME.fullmatch(node.value)
        ):
            yield node.value


def _references(tree: ast.AST) -> set[str]:
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    for value in _name_strings(tree):
        names.update(value.split("."))
    return names


def _reads(tree: ast.AST) -> set[str]:
    """Attribute loads and whole-identifier strings: what reads a field."""
    reads = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    reads.update(value for value in _name_strings(tree) if value.isidentifier())
    return reads


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


def _module_name(path: Path) -> str:
    """``src/repro/core/pipeline.py`` is ``repro.core.pipeline``, and
    ``perfbench/run.py`` is ``perfbench.run``."""
    base = ROOT / "src" if path.is_relative_to(ROOT / "src") else ROOT
    parts = path.relative_to(base).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@lru_cache(maxsize=None)
def _runtime_trees() -> dict[Path, ast.Module]:
    """The parsed syntax tree of every runtime file."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for top in RUNTIME_DIRS
        for path in sorted((ROOT / top).rglob("*.py"))
    }


@lru_cache(maxsize=None)
def _runtime_modules() -> dict[str, ast.Module]:
    """Module name -> syntax tree of every runtime file."""
    return {_module_name(path): tree for path, tree in _runtime_trees().items()}


@lru_cache(maxsize=None)
def _src_trees() -> dict[str, ast.Module]:
    """Module name -> syntax tree of every ``src/`` file."""
    return {
        _module_name(path): tree
        for path, tree in _runtime_trees().items()
        if path.is_relative_to(ROOT / "src")
    }


@lru_cache(maxsize=None)
def _scan() -> tuple[set[str], dict[str, str]]:
    """Return (every referenced name, qualified name -> name of each definition)."""
    referenced: set[str] = set()
    for tree in _runtime_trees().values():
        referenced |= _references(tree)
    definitions: dict[str, str] = {}
    for module, tree in _src_trees().items():
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


def _annotated_fields(cls: ast.ClassDef) -> list[str]:
    return [
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]


def _config_fields(module_file: Path, class_name: str) -> list[str]:
    tree = _runtime_trees()[module_file]
    (cls,) = (n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == class_name)
    return _annotated_fields(cls)


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


# --- parameters and dataclass fields --------------------------------------


def _decorator_names(node: ast.ClassDef | ast.FunctionDef) -> set[str]:
    names = set()
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name):
            names.add(target.id)
        elif isinstance(target, ast.Attribute):
            names.add(target.attr)
    return names


class _Signature(NamedTuple):
    """The defaulted parameters of one callable and how calls reach them."""

    callee: str  # the name a call uses: the function's, or the class's for __init__
    positional: list[str]  # passable by position, self/cls dropped
    defaulted: list[str]


def _function_signature(func: ast.FunctionDef, callee: str, method: bool) -> _Signature:
    args = func.args
    positional = [a.arg for a in (*args.posonlyargs, *args.args)]
    defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
    defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    if method and "staticmethod" not in _decorator_names(func):
        positional = positional[1:]
    return _Signature(callee, positional, defaulted)


def _signatures(src: Mapping[str, ast.Module]) -> dict[str, _Signature]:
    """``qualified callable name`` -> its signature, for every ``src/`` callable."""
    signatures: dict[str, _Signature] = {}
    for module, tree in src.items():
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef):
                signatures[f"{module}.{stmt.name}"] = _function_signature(
                    stmt, stmt.name, method=False
                )
            if not isinstance(stmt, ast.ClassDef):
                continue
            for item in stmt.body:
                if isinstance(item, ast.FunctionDef) and (
                    item.name == "__init__" or not _is_dunder(item.name)
                ):
                    callee = stmt.name if item.name == "__init__" else item.name
                    signatures[f"{module}.{stmt.name}.{item.name}"] = _function_signature(
                        item, callee, method=True
                    )
    return signatures


class _Scope(NamedTuple):
    """What the names of one runtime module are bound to."""

    module: str  # the module's own name
    modules: frozenset[str]  # every module name of the project
    aliases: dict[str, str]  # name -> the module it is bound to
    imported: dict[str, tuple[str, str]]  # name -> (module, name) it is imported from
    defined: frozenset[str]  # names bound by def or class


def _scope(module: str, tree: ast.Module, modules: frozenset[str]) -> _Scope:
    """The bindings of ``module``: ``import a.b as m`` binds ``m`` to module
    ``a.b`` and ``import a.b`` binds ``a``; ``from a import b`` binds ``b``
    to module ``a.b`` when that is a project module, else to ``a``'s ``b``."""
    aliases: dict[str, str] = {}
    imported: dict[str, tuple[str, str]] = {}
    defined: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                aliases[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                full = f"{node.module}.{alias.name}"
                if full in modules:
                    aliases[alias.asname or alias.name] = full
                else:
                    imported[alias.asname or alias.name] = (node.module, alias.name)
    return _Scope(module, modules, aliases, imported, frozenset(defined))


def _callee(node: ast.expr, scope: _Scope) -> tuple[str | None, str] | None:
    """``(module, name)`` of the function a call expression names; the module
    is ``None`` when the callee is matched by name alone.

    A bare ``f`` is the ``f`` its module imports or defines (a closure named
    ``run`` is no other module's ``run``); ``mod.f`` with ``mod`` an imported
    module is that module's ``f``, and a dotted prefix outside the project's
    packages (``np.random``) is taken for the module it looks like.  Any
    other ``obj.f`` and an unbound ``f`` are matched by name.
    """
    if isinstance(node, ast.Name):
        if node.id in scope.imported:
            return scope.imported[node.id]
        return (scope.module if node.id in scope.defined else None), node.id
    if not isinstance(node, ast.Attribute):
        return None
    parts = []
    value = node.value
    while isinstance(value, ast.Attribute):
        parts.append(value.attr)
        value = value.value
    if not isinstance(value, ast.Name) or value.id not in scope.aliases:
        return None, node.attr
    module = ".".join([scope.aliases[value.id], *reversed(parts)])
    packages = {name.split(".")[0] for name in scope.modules}
    if module in scope.modules or module.split(".")[0] not in packages:
        return module, node.attr
    return None, node.attr


def _calls(
    tree: ast.Module, scope: _Scope
) -> Iterable[tuple[tuple[str | None, str], list[ast.expr], list[ast.keyword]]]:
    """Yield ``((callee module, callee name), positional arguments,
    keywords)`` of every call (see :func:`_callee`).

    ``f(...)`` and ``obj.f(...)`` call ``f``.  A call that hands a function on
    as a positional argument, as ``run_once(benchmark, mod.f, x, scale=...)``,
    ``functools.partial(f, ...)`` or ``pool.submit(f, ...)`` do, also calls
    that function with the positional arguments after it and every keyword.
    A bare name is handed on as a function only when the module binds it by
    ``def``, ``class`` or import, so ``slice(start, stop)`` calls no ``start``.
    """
    functions = scope.defined | scope.imported.keys() | scope.aliases.keys()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = _callee(node.func, scope)
        if callee is not None:
            yield callee, node.args, node.keywords
        for position, arg in enumerate(node.args):
            if isinstance(arg, ast.Attribute) or (
                isinstance(arg, ast.Name) and arg.id in functions
            ):
                yield _callee(arg, scope), node.args[position + 1 :], node.keywords


def _origin(src: Mapping[str, ast.Module], module: str, name: str) -> str:
    """The module that defines ``name`` as ``module`` exports it, following
    ``from x import name`` re-exports (``repro.kernels.resolve_backend`` is
    ``repro.kernels.registry``'s)."""
    tree = src.get(module)
    for stmt in tree.body if tree is not None else ():
        if isinstance(stmt, ast.ImportFrom) and stmt.module and any(
            alias.name == name and alias.asname in (None, name) for alias in stmt.names
        ):
            return _origin(src, stmt.module, name)
    return module


def _passed_parameters(
    src: Mapping[str, ast.Module], runtime: Mapping[str, ast.Module]
) -> set[str]:
    """``qualified(parameter)`` of every defaulted parameter some call passes."""
    signatures = _signatures(src)
    by_callee: dict[str, list[str]] = {}
    for qualified, signature in signatures.items():
        by_callee.setdefault(signature.callee, []).append(qualified)
    modules = frozenset(runtime) | frozenset(src)
    passed: set[str] = set()
    for name, tree in runtime.items():
        for (module, callee), args, call_keywords in _calls(tree, _scope(name, tree, modules)):
            keywords = {kw.arg for kw in call_keywords}
            starred = next((i for i, a in enumerate(args) if isinstance(a, ast.Starred)), None)
            candidates = by_callee.get(callee, ())
            if module is not None:
                defined = f"{_origin(src, module, callee)}.{callee}"
                candidates = [q for q in candidates if q in (defined, f"{defined}.__init__")]
            for qualified in candidates:
                signature = signatures[qualified]
                names = set(signature.positional[: len(args)]) | keywords
                if starred is not None:
                    names |= set(signature.positional[starred:])
                if None in keywords:  # **kwargs
                    names |= set(signature.defaulted)
                passed.update(f"{qualified}({n})" for n in names & set(signature.defaulted))
    return passed


def unpassed_parameters(
    src: Mapping[str, ast.Module], runtime: Mapping[str, ast.Module]
) -> set[str]:
    """``qualified(parameter)`` of every defaulted parameter no call in the
    ``runtime`` modules (module name -> tree) passes."""
    defaulted = {f"{q}({p})" for q, s in _signatures(src).items() for p in s.defaulted}
    return defaulted - _passed_parameters(src, runtime)


def unread_fields(src: Mapping[str, ast.Module], runtime: Iterable[ast.Module]) -> set[str]:
    """``qualified.Dataclass.field`` of every field no runtime code reads."""
    fields = {
        f"{module}.{stmt.name}.{field}": field
        for module, tree in src.items()
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef) and "dataclass" in _decorator_names(stmt)
        for field in _annotated_fields(stmt)
    }
    reads = set().union(*(_reads(tree) for tree in runtime))
    return {q for q, name in fields.items() if name not in reads}


def stale_entries(allowlist: Mapping[str, str], flagged: set[str]) -> list[str]:
    """Allowlist entries that the rule does not flag: they name nothing, or a
    name that runtime code now passes or reads."""
    return sorted(q for q in allowlist if q not in flagged)


@lru_cache(maxsize=None)
def _unpassed() -> set[str]:
    return unpassed_parameters(_src_trees(), _runtime_modules())


@lru_cache(maxsize=None)
def _unread() -> set[str]:
    return unread_fields(_src_trees(), _runtime_trees().values())


def test_every_defaulted_parameter_is_passed_by_runtime_code():
    unpassed = sorted(_unpassed() - set(PARAMETER_ALLOWLIST))
    assert not unpassed, (
        "defaulted parameters that no runtime call passes (make them the constant "
        "they always are, or allowlist them with a reason):\n  " + "\n  ".join(unpassed)
    )


def test_every_dataclass_field_is_read_by_runtime_code():
    unread = sorted(_unread() - set(DATACLASS_FIELD_ALLOWLIST))
    assert not unread, (
        "dataclass fields that no runtime code reads (delete them with the code "
        "that fills them, or allowlist them with a reason):\n  " + "\n  ".join(unread)
    )


def test_parameter_and_field_allowlists_have_no_stale_entries():
    stale = stale_entries(PARAMETER_ALLOWLIST, _unpassed())
    stale += stale_entries(DATACLASS_FIELD_ALLOWLIST, _unread())
    assert not stale, (
        "allowlist entries that name nothing, or a name runtime code now passes "
        f"or reads: {stale}"
    )


# --- the rules on planted code --------------------------------------------

PLANTED_SRC = '''
from dataclasses import dataclass

@dataclass
class Report:
    kept: int
    unread: int

def scale(x, factor=2.0, offset=0.0, *, bias=0.0):
    return x

class Model:
    def __init__(self, width, depth=1):
        self.width = width

    def run(self, x, steps=1):
        return x
'''


PLANTED_SCRIPT = '''
def run(args, seconds=1.0):
    return args
'''


def _planted(caller: str) -> tuple[dict[str, ast.Module], dict[str, ast.Module]]:
    """``pkg.mod`` is the planted ``src/`` module, ``pkg.cli`` a runtime
    script beside it and ``caller`` the runtime code under test."""
    src = {"pkg.mod": ast.parse(PLANTED_SRC)}
    return src, {**src, "pkg.cli": ast.parse(PLANTED_SCRIPT), "caller": ast.parse(caller)}


def _planted_unpassed(caller: str) -> set[str]:
    return unpassed_parameters(*_planted(caller))


def _planted_unread(caller: str) -> set[str]:
    src, runtime = _planted(caller)
    return unread_fields(src, runtime.values())


def test_planted_field_that_nothing_reads_is_flagged():
    writes_only = "r = Report(1, 2)\nr.unread = 3\nr.unread += 1\nprint(r.kept)\n"
    assert _planted_unread(writes_only) == {"pkg.mod.Report.unread"}
    assert _planted_unread("print(r.kept, r.unread)\n") == set()
    assert _planted_unread('print(r.kept, getattr(r, "unread"))\n') == set()
    assert _planted_unread('"""unread"""\n__all__ = ["unread"]\nprint(r.kept)\n') == {
        "pkg.mod.Report.unread"
    }


PLANTED_PARAMETERS = {
    "pkg.mod.scale(factor)",
    "pkg.mod.scale(offset)",
    "pkg.mod.scale(bias)",
    "pkg.mod.Model.__init__(depth)",
    "pkg.mod.Model.run(steps)",
}


def test_planted_parameter_that_no_call_passes_is_flagged():
    assert _planted_unpassed("scale(1.0)\nModel(4).run(1)\n") == PLANTED_PARAMETERS
    # By position (a method's self is not counted), by keyword, by *args / **kwargs.
    assert _planted_unpassed("scale(1.0, 3.0)\nm = Model(4, 2)\nm.run(1, 5)\n") == {
        "pkg.mod.scale(offset)",
        "pkg.mod.scale(bias)",
    }
    assert _planted_unpassed("scale(1.0, offset=1.0, bias=1.0)\nModel(4, depth=2)\n") == {
        "pkg.mod.scale(factor)",
        "pkg.mod.Model.run(steps)",
    }
    assert _planted_unpassed("scale(*args)\nModel(**kwargs)\n") == {
        "pkg.mod.scale(bias)",
        "pkg.mod.Model.run(steps)",
    }


def test_planted_parameter_handed_on_through_a_helper_counts():
    # run_once(benchmark, f, *args, **kwargs) passes f what follows it.
    helper = (
        "from pkg.mod import scale\n"
        "run_once(benchmark, scale, 1.0, 2.0, bias=1.0)\n"
        "pool.submit(Model(4).run, 1, 5)\n"
    )
    assert _planted_unpassed(helper) == {
        "pkg.mod.scale(offset)",
        "pkg.mod.Model.__init__(depth)",
    }
    # A bare name that the module binds by neither def nor import is a value.
    assert _planted_unpassed("slice(scale, 1.0, 2.0, bias=1.0)\n") == PLANTED_PARAMETERS


def test_planted_call_reaches_only_the_function_its_name_is_bound_to():
    # mod.f(...) with mod an imported module calls that module's f: numpy's
    # scale and the script's run pass nothing to pkg.mod, and neither does a
    # closure of the caller's own that is named like a pkg.mod method.
    caller = (
        "import numpy as np\n"
        "from pkg import cli, mod\n"
        "np.scale(1.0, 2.0, 3.0, bias=1.0)\n"
        "cli.run(1, 5)\n"
        "run_once(benchmark, np.Model, 4, depth=2)\n"
        "def main():\n"
        "    def run(x, steps):\n"
        "        return x\n"
        "    run(1, 5)\n"
        "mod.scale(1.0, 2.0)\n"
        "mod.Model(4, 2)\n"
    )
    assert _planted_unpassed(caller) == {
        "pkg.mod.scale(offset)",
        "pkg.mod.scale(bias)",
        "pkg.mod.Model.run(steps)",
    }


def test_stale_allowlist_entries_are_reported():
    flagged = _planted_unpassed("scale(1.0, factor=3.0)\nModel(4)\n")
    allowlist = {
        "pkg.mod.scale(offset)": "still unpassed: a valid entry",
        "pkg.mod.scale(factor)": "now passed by a runtime call",
        "pkg.mod.scale(gone)": "names no parameter",
    }
    assert stale_entries(allowlist, flagged) == [
        "pkg.mod.scale(factor)",
        "pkg.mod.scale(gone)",
    ]
    flagged = _planted_unread("print(r.kept)\n")
    allowlist = {"pkg.mod.Report.unread": "valid", "pkg.mod.Report.kept": "now read"}
    assert stale_entries(allowlist, flagged) == ["pkg.mod.Report.kept"]
