"""Shared infrastructure of the experiment harness."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.utils.tables import format_table


@dataclass
class ExperimentResult:
    """Result of one experiment (one paper table or figure).

    Attributes
    ----------
    experiment_id:
        Paper identifier, e.g. ``"fig6b"`` or ``"table1"``.
    title:
        Human-readable description.
    headers / rows:
        The regenerated table (same rows/series the paper reports, typically
        with measured-vs-published columns side by side).
    notes:
        Free-form remarks (substitutions, caveats).
    data:
        Machine-readable payload (saved as JSON by the runner).
    """

    experiment_id: str
    title: str
    headers: list[str]
    rows: list[list[Any]]
    notes: list[str] = field(default_factory=list)
    data: dict[str, Any] = field(default_factory=dict)

    def as_table(self) -> str:
        """Render the result as an aligned ASCII table (two decimals) with its notes."""
        text = format_table(self.headers, self.rows, float_fmt=".2f", title=self.title)
        if self.notes:
            text += "\n" + "\n".join(f"note: {note}" for note in self.notes)
        return text


EXPERIMENTS: dict[str, Callable[..., ExperimentResult]] = {}
"""Registry of experiment id -> run function, filled by :func:`register_experiment`."""


def register_experiment(experiment_id: str):
    """Decorator registering an experiment's ``run`` function under an id."""

    def decorator(func: Callable[..., ExperimentResult]) -> Callable[..., ExperimentResult]:
        EXPERIMENTS[experiment_id] = func
        return func

    return decorator
