"""Lightweight named-section wall-clock accounting for the hot kernels.

The DEFA pipeline and the grid-sampling kernels mark their phases with
:func:`kernel_section` ("value_proj", "neighbors", "gather", "aggregate", ...).
When nobody is collecting, a section is a single truthiness check — cheap
enough to leave enabled in production code.  Wrapping a region in
:func:`collect_kernel_timings` activates collection and yields a
:class:`KernelTimings` accumulator:

>>> with collect_kernel_timings() as timings:
...     runner.forward(...)
>>> timings.seconds["gather"]

Collectors nest: every active collector records every section, so a profiler
can measure one block while an outer harness measures the whole run.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(eq=False)
class KernelTimings:
    """Accumulated wall-clock seconds and call counts per kernel section.

    ``eq=False``: collectors are tracked on a stack and removed by identity;
    value equality would let one nested collector pop another with equal
    contents.
    """

    seconds: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)

    def record(self, name: str, elapsed: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + elapsed
        self.calls[name] = self.calls.get(name, 0) + 1

_COLLECTORS: list[KernelTimings] = []
"""Stack of active collectors; sections no-op when it is empty."""


@contextmanager
def collect_kernel_timings() -> Iterator[KernelTimings]:
    """Activate kernel-section collection for the enclosed region."""
    timings = KernelTimings()
    _COLLECTORS.append(timings)
    try:
        yield timings
    finally:
        _COLLECTORS.remove(timings)


@contextmanager
def kernel_section(name: str) -> Iterator[None]:
    """Attribute the enclosed wall-clock time to section *name*.

    A no-op (one list truthiness check) when no collector is active.
    """
    if not _COLLECTORS:
        yield
        return
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        for collector in _COLLECTORS:
            collector.record(name, elapsed)
