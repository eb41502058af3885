"""Seeded workload inputs, generated here and nowhere else.

Every input the benchmark feeds the program — feature images, request
pyramids and classes, arrival times, video frames — is drawn in this module
from the run's ``--seed``.  Nothing is taken from the library's own traffic
or video generators, nor from the constants of ``benchmarks/``, so a change
to those cannot move the workload.  The same seed gives bit-identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.utils.shapes import LevelShape

PAPER_SHAPES = (
    LevelShape(100, 134),
    LevelShape(50, 67),
    LevelShape(25, 34),
    LevelShape(13, 17),
)
"""Deformable DETR pyramid of an 800x1066 COCO image (strides 8-64):
17,821 tokens."""

TINY_SHAPES = (LevelShape(8, 12), LevelShape(4, 6), LevelShape(2, 3), LevelShape(1, 2))
"""A four-level pyramid small enough for the benchmark's own smoke test."""


def workload_rng(seed: int, workload: str) -> np.random.Generator:
    """One independent generator per (seed, workload)."""
    tag = int.from_bytes(workload.encode(), "little") % (1 << 63)
    return np.random.default_rng([seed, tag])


def num_tokens(shapes) -> int:
    return sum(s.height * s.width for s in shapes)


def feature_image(rng: np.random.Generator, shapes, d_model: int) -> np.ndarray:
    """Flattened multi-scale features ``(N_in, d_model)``, unit normal."""
    return rng.standard_normal((num_tokens(shapes), d_model), dtype=np.float32)


# ---------------------------------------------------------------- serving


@dataclass(frozen=True)
class Arrival:
    """One open-loop request: when it is due and what it carries."""

    due_s: float
    """Scheduled send time, seconds from the start of its phase."""
    shape_index: int
    request_class: str
    pool_index: int
    """Which pre-generated feature array of its shape the request sends."""


def bursty_arrivals(
    rng: np.random.Generator,
    duration_s: float,
    mean_rps: float,
    burst_factor: float,
    burst_period_s: float,
    burst_len_s: float,
) -> np.ndarray:
    """Arrival times of Poisson base traffic with periodic request trains.

    Every ``burst_period_s`` one burst of ``burst_len_s`` sends evenly
    spaced requests at ``burst_factor * mean_rps``, at a seeded place in
    the period; Poisson traffic at the base rate runs throughout, set so
    the long-run mean is ``mean_rps``.  Every burst has the same size, so
    the tail the bursts cause does not hinge on a rare large Poisson draw.
    """
    peak = burst_factor * mean_rps
    per_burst = int(round(peak * burst_len_s))
    base = mean_rps - per_burst / burst_period_s
    if base <= 0:
        raise ValueError("burst too long or too strong for the mean rate")
    times = [poisson_arrivals(rng, duration_s, base)]
    train = np.arange(per_burst) / peak
    for start in np.arange(0.0, duration_s - burst_len_s, burst_period_s):
        offset = rng.uniform(0.0, burst_period_s - burst_len_s)
        times.append(start + offset + train)
    return np.sort(np.concatenate(times))


def poisson_arrivals(rng: np.random.Generator, duration_s: float, rps: float) -> np.ndarray:
    n = int(rps * duration_s * 1.2) + 16
    times = np.cumsum(rng.exponential(1.0 / rps, size=n))
    return times[times < duration_s]


def request_mix(
    rng: np.random.Generator,
    times: np.ndarray,
    shape_weights,
    class_weights,
    pool_size: int,
) -> list[Arrival]:
    """Attach a pyramid, a class and a feature array to every arrival."""
    shape_p = np.asarray([w for _, w in shape_weights], dtype=float)
    class_p = np.asarray([w for _, w in class_weights], dtype=float)
    shapes = rng.choice(len(shape_p), size=times.size, p=shape_p / shape_p.sum())
    classes = rng.choice(len(class_p), size=times.size, p=class_p / class_p.sum())
    pool = rng.integers(pool_size, size=times.size)
    return [
        Arrival(float(t), int(s), class_weights[int(c)][0], int(p))
        for t, s, c, p in zip(times, shapes, classes, pool)
    ]


# ---------------------------------------------------------------- video


class LowMotionVideo:
    """A synthetic video: a static background plus a few drifting objects.

    Each object is a square of constant feature signature painted on every
    pyramid level at the level's scale, one per cell of a grid over the
    image so objects never overlap.  Objects step diagonally by one
    finest-level cell on every frame except every ``static_every``-th one,
    which repeats its predecessor bit for bit.  The frame kinds a streaming
    session sees — fully static frames and small dirty sets of a fixed size
    — therefore follow a fixed schedule; the seed draws the background, the
    objects' places within their cells, their signatures and directions.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        shapes,
        d_model: int,
        grid: tuple[int, int] = (2, 2),
        size: float = 0.05,
        static_every: int = 4,
    ) -> None:
        self.shapes = tuple(shapes)
        self.static_every = static_every
        self.background = feature_image(rng, self.shapes, d_model)
        finest = self.shapes[0]
        self._cell = (1.0 / finest.height, 1.0 / finest.width)
        self.size = size
        cells = np.array([(i, j) for i in range(grid[0]) for j in range(grid[1])], dtype=float)
        jitter = rng.uniform(-0.1, 0.1, size=cells.shape)
        self.centers = (cells + 0.5 + jitter) / np.array(grid, dtype=float)
        self.directions = rng.choice([-1.0, 1.0], size=cells.shape)
        self.signatures = 2.0 * rng.standard_normal((len(cells), d_model)).astype(np.float32)

    def frame(self, index: int) -> np.ndarray:
        # Frames 1, 1 + static_every, ... repeat their predecessor.
        steps = index - (index + self.static_every - 1) // self.static_every
        frame = self.background.copy()
        offset = 0
        half = self.size / 2
        for shape in self.shapes:
            level = frame[offset : offset + shape.height * shape.width].reshape(
                shape.height, shape.width, -1
            )
            for center, direction, signature in zip(
                self.centers, self.directions, self.signatures
            ):
                cy = center[0] + steps * direction[0] * self._cell[0]
                cx = center[1] + steps * direction[1] * self._cell[1]
                y0, y1 = (int(np.floor(v * shape.height)) for v in (cy - half, cy + half))
                x0, x1 = (int(np.floor(v * shape.width)) for v in (cx - half, cx + half))
                level[max(y0, 0) : max(y1, 1), max(x0, 0) : max(x1, 1)] += signature
            offset += shape.height * shape.width
        return frame
