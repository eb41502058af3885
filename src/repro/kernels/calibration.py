"""Host-calibrated auto-dispatch profiles (PR 9).

The ``auto`` sparse-dispatch rule compares keep fractions and problem sizes
against crossover thresholds (:class:`DispatchThresholds`).  Until PR 9 those
were hand-tuned module constants measured on one reference machine — but the
dense/sparse crossover moves with the host (memory bandwidth, malloc
behaviour) and with the kernel backend (the compiled C kernels shift every
break-even point).  This module makes the thresholds *data*:

* :class:`DispatchThresholds` — the eight crossover constants of the shared
  :func:`~repro.core.pipeline.use_sparse_rows` /
  :func:`~repro.nn.grid_sample.use_sparse_gather` dispatch rules.  Its field
  defaults ARE the historical hand-tuned values, and their only home.
* :class:`MachineProfile` — a named, versioned, JSON-serializable bundle of
  thresholds (a machine-wide default plus optional per-backend overrides).
  The committed ``profiles/reference.json`` equals :func:`reference_profile`
  bit for bit, so CI and every equivalence gate dispatch exactly as the
  hand-tuned constants always did (the committed-reference-default rule).
* :func:`calibrate` — the sweep harness: a config-object-driven design-space
  sweep (one :class:`CalibrationGrid` describes the keep-ratio × token-count
  grid) that measures dense vs. row-compacted projections and dense vs.
  compacted point gathering with the *real* kernels, per backend, and fits
  the crossover points into a fresh :class:`MachineProfile` for this host.
* an active-profile registry mirroring the kernel-backend registry
  (:func:`get_active_profile` / :func:`set_active_profile`, seeded lazily
  from ``REPRO_MACHINE_PROFILE``), and
  :func:`resolve_profile` — the uniform rule behind every
  ``machine_profile`` specification in :class:`~repro.kernels.
  ExecutionOptions` / :class:`~repro.engine.serving.ModelBankSpec`.

Run ``python -m repro.kernels --output host.json`` to calibrate
the current host, and load the result via ``ExecutionOptions(
machine_profile="host.json")`` or ``REPRO_MACHINE_PROFILE=host.json``.
Profiles change *dispatch decisions only* — which equivalence-tested path
runs — never numerics of a chosen path, so a miscalibrated profile can cost
wall clock but not correctness.

Import layering: this module sits below the pipeline (it may import
``repro.kernels.registry``/``plan`` at module level; anything from
``repro.nn``/``repro.core`` is imported lazily inside the sweep functions),
so ``core/pipeline.py`` and ``nn/grid_sample.py`` can derive their constants
from it without a cycle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from repro.kernels.registry import KERNEL_BACKENDS, resolve_backend

__all__ = [
    "PROFILE_ENV",
    "PROFILE_SCHEMA_VERSION",
    "REFERENCE_PROFILE_PATH",
    "CalibrationGrid",
    "DispatchThresholds",
    "MachineProfile",
    "calibrate",
    "get_active_profile",
    "reference_profile",
    "resolve_profile",
    "set_active_profile",
]

PROFILE_SCHEMA_VERSION = 1
"""Schema version stamped into every serialized profile.  Bumped whenever a
threshold field is added/removed/renamed; :meth:`MachineProfile.from_dict`
rejects any other version rather than guessing at migration."""

PROFILE_ENV = "REPRO_MACHINE_PROFILE"
"""Environment variable consulted once for the initial active profile: the
name ``"reference"`` or a path to a profile JSON file."""

REFERENCE_PROFILE_NAME = "reference"

REFERENCE_PROFILE_PATH = Path(__file__).resolve().parent / "profiles" / "reference.json"
"""The committed reference profile.  Equals :func:`reference_profile` exactly
(pinned by tests and the CI calibration-smoke leg): loading it reproduces the
historical hand-tuned dispatch decisions bit for bit."""


@dataclass(frozen=True)
class DispatchThresholds:
    """Crossover constants of the ``auto`` dense/sparse dispatch rules.

    The defaults are the hand-tuned reference-machine values, and this
    dataclass is their only home.

    Boundary semantics — pinned by the boundary-value tests, and load-bearing
    for the path-choice-parity invariant: a calibrated profile whose values
    sit exactly on a measured crossover must make the *same* decision in
    batched and single-image execution, otherwise float rounding differences
    between the two kernels can be amplified into INT12 quantization steps:

    * minimum sizes compare with ``<`` — ``rows_per_image < min_rows`` (and
      ``slots_per_image < min_slots``) forces dense, so a problem *exactly
      at* the minimum is sparse-eligible;
    * keep ratios compare with ``<=`` — ``keep_fraction <= keep_max`` goes
      sparse, so a keep fraction *exactly at* the crossover goes sparse.
    """

    pixel_keep_max: float = 0.85
    """Value projection: compacted when at most this fraction of fmap pixels
    survives the incoming FWP mask."""

    min_tokens: int = 512
    """Value projection: minimum per-image ``N_in`` before compaction can pay
    for its gather/scatter overhead."""

    query_keep_max: float = 0.85
    """Query-side projections (attention / offset / output heads) under query
    pruning: compacted at or below this query keep fraction."""

    min_queries: int = 512
    """Query-side projections: minimum per-image ``N_q``."""

    ffn_keep_max: float = 0.85
    """Inter-block FFN/LayerNorm stage (block-sparse encoder): compacted at
    or below this pixel keep fraction."""

    ffn_min_tokens: int = 512
    """Inter-block FFN/LayerNorm stage: minimum per-image ``N_in``."""

    point_keep_max: float = 0.70
    """MSGS point gathering: compacted at or below this PAP point keep
    fraction.  Above it, the compaction overhead (flatnonzero + segment
    bookkeeping) outweighs the avoided gather traffic."""

    min_slots: int = 32768
    """MSGS point gathering: minimum per-image gather slots
    (``N_q * N_h * N_l * N_p * 4``); below it, fixed per-call overhead
    dominates.  Counted per image, not per batch: batched and single-image
    execution must make the same dense/sparse decision, otherwise quantized
    configs could amplify the float32 rounding difference between the two
    kernels into a full quantization step and break batched-vs-serial
    equivalence."""

    def __post_init__(self) -> None:
        for name in ("pixel_keep_max", "query_keep_max", "ffn_keep_max", "point_keep_max"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise TypeError(f"{name} must be a number, got {type(value).__name__}")
            if not 0.0 <= float(value) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
            object.__setattr__(self, name, float(value))
        for name in ("min_tokens", "min_queries", "ffn_min_tokens", "min_slots"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an int, got {type(value).__name__}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "DispatchThresholds":
        if not isinstance(data, dict):
            raise TypeError(f"thresholds must be a mapping, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown threshold field(s) {sorted(unknown)}; "
                f"known fields: {sorted(known)}"
            )
        missing = known - set(data)
        if missing:
            raise ValueError(f"missing threshold field(s) {sorted(missing)}")
        return cls(**data)


@dataclass(frozen=True)
class MachineProfile:
    """One host's calibrated dispatch thresholds, versioned and serializable.

    Frozen, hashable and picklable (plain data only), so a profile can ride
    inside an :class:`~repro.kernels.ExecutionOptions` or a
    :class:`~repro.engine.serving.ModelBankSpec` across a worker process
    boundary.  ``per_backend`` carries backend-specific overrides — the
    compiled C kernels shift the crossovers relative to the NumPy kernels —
    looked up by :meth:`thresholds_for`; backends without an override use the
    machine-wide ``thresholds``.
    """

    name: str
    thresholds: DispatchThresholds = DispatchThresholds()
    per_backend: tuple[tuple[str, DispatchThresholds], ...] = ()
    host: tuple[tuple[str, str], ...] = ()
    """Provenance metadata of the calibrated host (platform, python, numpy
    versions) as sorted key/value pairs; informational only, never compared
    by the dispatch path."""

    schema_version: int = PROFILE_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ValueError("profile name must be a non-empty string")
        if self.schema_version != PROFILE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported profile schema_version {self.schema_version!r} "
                f"(this build reads version {PROFILE_SCHEMA_VERSION})"
            )
        if not isinstance(self.thresholds, DispatchThresholds):
            raise TypeError("thresholds must be a DispatchThresholds")
        object.__setattr__(self, "per_backend", tuple(self.per_backend))
        seen = set()
        for entry in self.per_backend:
            backend_name, thresholds = entry
            if backend_name not in KERNEL_BACKENDS:
                raise ValueError(
                    f"per_backend names must be from {KERNEL_BACKENDS}, "
                    f"got {backend_name!r}"
                )
            if backend_name in seen:
                raise ValueError(f"duplicate per_backend entry {backend_name!r}")
            seen.add(backend_name)
            if not isinstance(thresholds, DispatchThresholds):
                raise TypeError("per_backend values must be DispatchThresholds")
        object.__setattr__(
            self, "host", tuple((str(k), str(v)) for k, v in self.host)
        )

    def thresholds_for(self, backend_name: str | None) -> DispatchThresholds:
        """The thresholds governing dispatch under the named backend.

        ``None`` (no backend context) and backends without an override both
        resolve to the machine-wide default thresholds.
        """
        for name, thresholds in self.per_backend:
            if name == backend_name:
                return thresholds
        return self.thresholds

    # ------------------------------------------------------------- serde

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "name": self.name,
            "host": {key: value for key, value in self.host},
            "thresholds": self.thresholds.to_dict(),
            "per_backend": {
                name: thresholds.to_dict() for name, thresholds in self.per_backend
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineProfile":
        if not isinstance(data, dict):
            raise TypeError(f"profile must be a mapping, got {type(data).__name__}")
        known = {"schema_version", "name", "host", "thresholds", "per_backend"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown profile field(s) {sorted(unknown)}")
        missing = {"schema_version", "name", "thresholds"} - set(data)
        if missing:
            raise ValueError(f"missing profile field(s) {sorted(missing)}")
        host = data.get("host", {})
        if not isinstance(host, dict):
            raise TypeError("profile host metadata must be a mapping")
        per_backend = data.get("per_backend", {})
        if not isinstance(per_backend, dict):
            raise TypeError("profile per_backend must be a mapping")
        return cls(
            name=data["name"],
            schema_version=data["schema_version"],
            host=tuple(sorted((str(k), str(v)) for k, v in host.items())),
            thresholds=DispatchThresholds.from_dict(data["thresholds"]),
            per_backend=tuple(
                (name, DispatchThresholds.from_dict(values))
                for name, values in sorted(per_backend.items())
            ),
        )

    def save(self, path: str | os.PathLike) -> Path:
        """Write the profile as schema-checked JSON; returns the path."""
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "MachineProfile":
        """Read and validate a profile JSON file."""
        path = Path(path)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"profile file {path} is not valid JSON: {exc}") from None
        return cls.from_dict(data)


def reference_profile() -> MachineProfile:
    """The reference profile: today's hand-tuned constants, no overrides.

    The committed :data:`REFERENCE_PROFILE_PATH` JSON must equal this object
    exactly — that equality is what keeps CI and the equivalence gates
    bit-deterministic across hosts (the committed-reference-default rule).
    """
    return MachineProfile(name=REFERENCE_PROFILE_NAME)


# --------------------------------------------------------------------------
# Active-profile registry (mirrors repro.kernels.registry for backends).

_active_profile: MachineProfile | None = None


def get_active_profile() -> MachineProfile:
    """The process-default machine profile.

    Initialised lazily from :data:`PROFILE_ENV` (the committed reference
    profile when the variable is unset), changeable at runtime with
    :func:`set_active_profile`.
    """
    global _active_profile
    if _active_profile is None:
        spec = os.environ.get(PROFILE_ENV)
        _active_profile = _load_spec(spec) if spec else reference_profile()
    return _active_profile


def set_active_profile(profile: "MachineProfile | str | None") -> MachineProfile:
    """Set the process-default profile; returns the resolved profile.

    Accepts a :class:`MachineProfile`, ``"reference"``, a path to a profile
    JSON file, or ``None`` to reset to the environment/default resolution.
    """
    global _active_profile
    if profile is None:
        _active_profile = None
        return get_active_profile()
    _active_profile = _coerce(profile)
    return _active_profile


def _load_spec(spec: str) -> MachineProfile:
    if spec == REFERENCE_PROFILE_NAME:
        return reference_profile()
    return MachineProfile.load(spec)


def _coerce(profile: "MachineProfile | str") -> MachineProfile:
    if isinstance(profile, MachineProfile):
        return profile
    if isinstance(profile, str):
        return _load_spec(profile)
    raise TypeError(
        "machine_profile must be a MachineProfile, 'reference', a path to a "
        f"profile JSON file, or None; got {type(profile).__name__}"
    )


def resolve_profile(profile: "MachineProfile | str | None" = None) -> MachineProfile:
    """Resolve a profile specification to a :class:`MachineProfile`.

    ``None`` means the process-default active profile, ``"reference"`` the
    committed reference constants, any other string a profile JSON path, and
    a :class:`MachineProfile` passes through — the uniform rule behind every
    ``machine_profile`` parameter (mirrors :func:`repro.kernels.
    resolve_backend`).
    """
    if profile is None:
        return get_active_profile()
    return _coerce(profile)


# --------------------------------------------------------------------------
# The calibration sweep harness.


@dataclass(frozen=True)
class CalibrationGrid:
    """Design-space description of one calibration sweep.

    One frozen config object describes the whole sweep (the OpenNVRAM
    design-space-exploration idiom: mutate the config, not the harness):
    :func:`calibrate` walks ``keep_ratios`` × ``token_counts`` per backend,
    measures dense and compacted execution at every point, and fits the
    crossovers.  The defaults are a balanced grid (~seconds per backend on a
    laptop-class core); :meth:`tiny` is the CI smoke grid.
    """

    keep_ratios: tuple[float, ...] = (0.1, 0.3, 0.5, 0.7, 0.85, 0.95)
    """Keep fractions swept (ascending); the fitted ``*_keep_max`` is the
    largest ratio at which the compacted kernel still beats the dense one."""

    token_counts: tuple[int, ...] = (128, 512, 2048)
    """Per-image row/query counts swept; the fitted ``min_*`` is the smallest
    count at which compaction wins at a clearly-profitable keep ratio."""

    d_model: int = 64
    num_heads: int = 4
    num_levels: int = 2
    num_points: int = 2
    repeats: int = 3
    """Timing repeats per measurement point (best-of-N wall clock)."""

    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.keep_ratios or not self.token_counts:
            raise ValueError("keep_ratios and token_counts must be non-empty")
        if any(not 0.0 < r <= 1.0 for r in self.keep_ratios):
            raise ValueError("keep_ratios must lie in (0, 1]")
        if tuple(sorted(self.keep_ratios)) != tuple(self.keep_ratios):
            raise ValueError("keep_ratios must be ascending")
        if tuple(sorted(self.token_counts)) != tuple(self.token_counts):
            raise ValueError("token_counts must be ascending")
        if any(n <= 0 for n in self.token_counts):
            raise ValueError("token_counts must be positive")
        if self.repeats <= 0:
            raise ValueError("repeats must be positive")

    @classmethod
    def tiny(cls) -> "CalibrationGrid":
        """The CI smoke grid: two ratios × two sizes, one repeat."""
        return cls(keep_ratios=(0.3, 0.9), token_counts=(64, 256), repeats=1)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _keep_mask(rng: np.random.Generator, size: int, keep_ratio: float) -> np.ndarray:
    """A boolean keep mask with exactly ``round(size * keep_ratio)`` (>= 1)
    kept entries at random positions."""
    kept = max(1, int(round(size * keep_ratio)))
    mask = np.zeros(size, dtype=bool)
    mask[rng.permutation(size)[:kept]] = True
    return mask


def _sweep_row_projection(
    grid: CalibrationGrid, backend
) -> dict[int, dict[float, tuple[float, float]]]:
    """``{tokens: {keep_ratio: (dense_s, sparse_s)}}`` for the row-compacted
    projection — the machinery shared by the value / query-side / FFN stages,
    so one measured crossover serves all three row thresholds.  Times the
    batched helpers on a ``(1, tokens, D)`` input: a single image runs as a
    ``B = 1`` batch in the pipeline."""
    from repro.kernels.plan import ExecutionPlan
    from repro.kernels.fused_ops import project_into
    from repro.nn.modules import Linear

    rng = np.random.default_rng(grid.rng_seed)
    results: dict[int, dict[float, tuple[float, float]]] = {}
    for tokens in grid.token_counts:
        proj = Linear(grid.d_model, grid.d_model, rng=rng)
        x = rng.standard_normal((1, tokens, grid.d_model)).astype(np.float32)
        plan = ExecutionPlan()
        results[tokens] = {}
        for keep_ratio in grid.keep_ratios:
            mask = _keep_mask(rng, tokens, keep_ratio)
            kept = np.flatnonzero(mask)

            def dense() -> None:
                (out,) = project_into((proj,), x, plan, ("cal.dense",), backend=backend)
                out[0, ~mask] = 0

            def sparse() -> None:
                out = plan.zeros("cal.sparse", (tokens, grid.d_model))
                out[kept] = project_into(
                    (proj,), x, plan, ("cal.rows",), rows=kept, backend=backend
                )[0]

            dense()  # warm the arena outside the timed region
            sparse()
            results[tokens][keep_ratio] = (
                _best_of(dense, grid.repeats),
                _best_of(sparse, grid.repeats),
            )
    return results


def _sweep_point_gather(
    grid: CalibrationGrid, backend
) -> dict[int, dict[float, tuple[float, float]]]:
    """``{slots_per_image: {keep_ratio: (dense_s, sparse_s)}}`` for MSGS
    point gathering (dense trace + masked gather vs. compacted trace +
    compact gather)."""
    from repro.kernels.plan import ExecutionPlan
    from repro.nn.grid_sample import (
        ms_deform_attn_from_compact_trace,
        ms_deform_attn_from_trace,
        multi_scale_neighbors,
        multi_scale_neighbors_sparse,
    )
    from repro.utils.shapes import LevelShape

    rng = np.random.default_rng(grid.rng_seed + 1)
    d_head = grid.d_model // grid.num_heads
    results: dict[int, dict[float, tuple[float, float]]] = {}
    for n_q in grid.token_counts:
        side = max(2, int(np.ceil(np.sqrt(n_q / grid.num_levels))))
        spatial_shapes = [LevelShape(side, side) for _ in range(grid.num_levels)]
        n_in = sum(s.num_pixels for s in spatial_shapes)
        # One image as a B = 1 batch, the form every kernel runs on.
        value = rng.standard_normal(
            (1, n_in, grid.num_heads, d_head)
        ).astype(np.float32)
        points_shape = (1, n_q, grid.num_heads, grid.num_levels, grid.num_points)
        locations = rng.uniform(0.05, 0.95, size=points_shape + (2,)).astype(np.float32)
        weights = rng.uniform(0.0, 1.0, size=points_shape).astype(np.float32)
        slots = int(np.prod(points_shape)) * 4
        plan = ExecutionPlan()
        results[slots] = {}
        for keep_ratio in grid.keep_ratios:
            mask = _keep_mask(
                rng, int(np.prod(points_shape)), keep_ratio
            ).reshape(points_shape)

            def dense() -> None:
                trace = multi_scale_neighbors(spatial_shapes, locations)
                ms_deform_attn_from_trace(value, trace, weights, point_mask=mask)

            def sparse() -> None:
                trace = multi_scale_neighbors_sparse(
                    spatial_shapes, locations, point_mask=mask, plan=plan
                )
                ms_deform_attn_from_compact_trace(
                    value, trace, weights, backend=backend, plan=plan
                )

            sparse()  # warm the arena outside the timed region
            results[slots][keep_ratio] = (
                _best_of(dense, grid.repeats),
                _best_of(sparse, grid.repeats),
            )
    return results


def _fit_crossover(
    sweep: dict[int, dict[float, tuple[float, float]]],
    default_keep_max: float,
    default_min_size: int,
) -> tuple[float, int]:
    """Fit ``(keep_max, min_size)`` from a sweep.

    ``keep_max`` is the largest swept ratio at which the compacted kernel
    beats the dense one on the largest problem size (the regime the
    thresholds exist for); ``min_size`` is the smallest swept size at which
    compaction wins at the most favourable (smallest) ratio.  A sweep where
    compaction never wins keeps the hand-tuned defaults — a conservative
    fallback for noisy or degenerate hosts.
    """
    largest = max(sweep)
    keep_max = None
    for ratio, (dense_s, sparse_s) in sorted(sweep[largest].items()):
        if sparse_s <= dense_s:
            keep_max = ratio
    if keep_max is None:
        return default_keep_max, default_min_size
    min_size = None
    for size in sorted(sweep):
        smallest_ratio = min(sweep[size])
        dense_s, sparse_s = sweep[size][smallest_ratio]
        if sparse_s <= dense_s:
            min_size = size
            break
    if min_size is None:
        min_size = largest
    return float(keep_max), int(min_size)


def calibrate(
    grid: CalibrationGrid | None = None,
    backends: tuple[str, ...] | None = None,
    name: str | None = None,
) -> MachineProfile:
    """Measure this host's dense/sparse crossovers and fit a profile.

    Sweeps every requested backend (default: all of
    :data:`~repro.kernels.KERNEL_BACKENDS` that resolve on this host —
    ``"compiled"`` is skipped when the extension is absent rather than
    calibrating its ``"fused"`` fallback twice) and records one
    :class:`DispatchThresholds` override per backend, with the first
    backend's fit as the machine-wide default.  The row-projection sweep
    drives the three row thresholds (value / query / FFN share the same
    compaction machinery); the point-gather sweep drives
    ``point_keep_max`` / ``min_slots``.
    """
    import warnings

    grid = grid or CalibrationGrid()
    if backends is None:
        candidates = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for backend_name in KERNEL_BACKENDS:
                if resolve_backend(backend_name).name == backend_name:
                    candidates.append(backend_name)
        backends = tuple(candidates)
    if not backends:
        raise ValueError("no kernel backends to calibrate")
    defaults = DispatchThresholds()
    per_backend = []
    for backend_name in backends:
        backend = resolve_backend(backend_name)
        rows = _sweep_row_projection(grid, backend)
        points = _sweep_point_gather(grid, backend)
        row_keep_max, min_rows = _fit_crossover(
            rows, defaults.pixel_keep_max, defaults.min_tokens
        )
        point_keep_max, min_slots = _fit_crossover(
            points, defaults.point_keep_max, defaults.min_slots
        )
        per_backend.append(
            (
                backend_name,
                DispatchThresholds(
                    pixel_keep_max=row_keep_max,
                    min_tokens=min_rows,
                    query_keep_max=row_keep_max,
                    min_queries=min_rows,
                    ffn_keep_max=row_keep_max,
                    ffn_min_tokens=min_rows,
                    point_keep_max=point_keep_max,
                    min_slots=min_slots,
                ),
            )
        )
    host = tuple(
        sorted(
            {
                "platform": platform.platform(),
                "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
            }.items()
        )
    )
    return MachineProfile(
        name=name or f"calibrated-{platform.node() or 'host'}",
        thresholds=per_backend[0][1],
        per_backend=tuple(sorted(per_backend)),
        host=host,
    )


# --------------------------------------------------------------------------
# CLI: calibrate this host, or verify the committed reference profile.


def check_reference(path: Path = REFERENCE_PROFILE_PATH) -> list[str]:
    """Verify the committed reference profile; returns human-readable failures.

    Checks (the CI calibration-smoke gate):

    1. the file parses, schema-validates and round-trips through
       ``to_dict``/``from_dict``;
    2. it equals :func:`reference_profile` — i.e. the hand-tuned constants —
       exactly;
    3. dispatching representative shapes through the shared
       :func:`~repro.core.pipeline.use_sparse_rows` /
       :func:`~repro.nn.grid_sample.use_sparse_gather` rules with the loaded
       profile reproduces the module-constant decisions bit-identically, for
       every backend name.
    """
    from repro.core.pipeline import use_sparse_rows
    from repro.nn.grid_sample import use_sparse_gather

    failures: list[str] = []
    try:
        loaded = MachineProfile.load(path)
    except (OSError, TypeError, ValueError) as exc:
        return [f"failed to load {path}: {exc}"]
    if MachineProfile.from_dict(loaded.to_dict()) != loaded:
        failures.append("profile does not round-trip through to_dict/from_dict")
    if loaded != reference_profile():
        failures.append(
            f"{path} differs from reference_profile(); regenerate it with "
            f"`python -m repro.kernels --write-reference`"
        )
    reference = DispatchThresholds()
    rng = np.random.default_rng(0)
    for backend_name in KERNEL_BACKENDS + (None,):
        thresholds = loaded.thresholds_for(backend_name)
        for rows in (64, reference.min_tokens, 4096):
            for keep in (0.1, 0.5, reference.pixel_keep_max, 0.99):
                mask = _keep_mask(rng, rows, keep)
                expected = use_sparse_rows(
                    mask, rows, reference.pixel_keep_max, reference.min_tokens, "auto"
                )
                got = use_sparse_rows(
                    mask, rows, thresholds.pixel_keep_max, thresholds.min_tokens, "auto"
                )
                if expected != got:
                    failures.append(
                        f"use_sparse_rows dispatch diverged for backend="
                        f"{backend_name} rows={rows} keep={keep}: {expected} != {got}"
                    )
                point_mask = mask.reshape(1, rows, 1, 1, 1)  # one B = 1 image
                expected = use_sparse_gather(point_mask, rows * 4, "auto")
                got = use_sparse_gather(
                    point_mask, rows * 4, "auto", thresholds=thresholds
                )
                if expected != got:
                    failures.append(
                        f"use_sparse_gather dispatch diverged for backend="
                        f"{backend_name} slots={rows * 4} keep={keep}: "
                        f"{expected} != {got}"
                    )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.kernels", description=__doc__.split("\n", 1)[0]
    )
    parser.add_argument(
        "--output", type=Path, default=None,
        help="write the calibrated profile JSON here",
    )
    parser.add_argument(
        "--grid", choices=("default", "tiny"), default="default",
        help="sweep grid: 'tiny' is the CI smoke grid",
    )
    parser.add_argument(
        "--name", default=None, help="profile name (default: calibrated-<host>)"
    )
    parser.add_argument(
        "--backends", nargs="+", choices=KERNEL_BACKENDS, default=None,
        help="backends to calibrate (default: all that resolve on this host)",
    )
    parser.add_argument(
        "--check-reference", action="store_true",
        help="verify the committed reference profile instead of calibrating",
    )
    parser.add_argument(
        "--write-reference", action="store_true",
        help="(re)write the committed reference profile from the hand-tuned "
        "constants — only needed after changing DispatchThresholds defaults",
    )
    args = parser.parse_args(argv)

    if args.write_reference:
        path = reference_profile().save(REFERENCE_PROFILE_PATH)
        print(f"wrote {path}")
        return 0
    if args.check_reference:
        failures = check_reference()
        for failure in failures:
            print(f"FAIL: {failure}")
        if not failures:
            print(
                "reference profile OK: schema round-trip and dispatch parity "
                "with the hand-tuned constants"
            )
        return 1 if failures else 0

    grid = CalibrationGrid.tiny() if args.grid == "tiny" else CalibrationGrid()
    backends = tuple(args.backends) if args.backends else None
    profile = calibrate(grid, backends=backends, name=args.name)
    if args.output is not None:
        profile.save(args.output)
        print(f"wrote {args.output}")
    print(json.dumps(profile.to_dict(), indent=2, sort_keys=True))
    return 0
