"""Evolution driver: trajectories, cycle detection, space-time rasters."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from .debruijn import as_cells, next_configuration
from .rules import Rule

Configuration = tuple[int, ...]

# states in increasing order: blue, green, red, yellow, cyan, magenta,
# orange, light gray, black, white
_PALETTE10 = (
    (0, 0, 255),
    (0, 255, 0),
    (255, 0, 0),
    (255, 255, 0),
    (0, 255, 255),
    (255, 0, 255),
    (255, 165, 0),
    (192, 192, 192),
    (0, 0, 0),
    (255, 255, 255),
)


def evolve(rule: Rule, start: Sequence[int] | str, steps: int) -> list[Configuration]:
    """Trajectory [x, G(x), ..., G^steps(x)] under periodic boundary."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    cells = as_cells(start, rule.d)
    out = [cells]
    for _ in range(steps):
        cells = next_configuration(rule, cells)
        out.append(cells)
    return out


@dataclass(frozen=True)
class CycleResult:
    """Tail length and cycle length of a trajectory, or truncation."""

    cycle_length: int | None
    tail_length: int | None
    truncated: bool
    steps_used: int


def cycle_length(rule: Rule, start: Sequence[int] | str, max_steps: int) -> CycleResult:
    """Evolve until a configuration repeats, or the step budget runs out."""
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    cells = as_cells(start, rule.d)
    seen = {cells: 0}
    for step in range(1, max_steps + 1):
        cells = next_configuration(rule, cells)
        if cells in seen:
            entry = seen[cells]
            return CycleResult(
                cycle_length=step - entry,
                tail_length=entry,
                truncated=False,
                steps_used=step,
            )
        seen[cells] = step
    return CycleResult(cycle_length=None, tail_length=None,
                       truncated=True, steps_used=max_steps)


def default_palette(d: int) -> tuple[tuple[int, int, int], ...]:
    """Per-state RGB colors: white/black for binary, the 10-color list else."""
    if d == 2:
        return ((255, 255, 255), (0, 0, 0))
    return _PALETTE10[:d]


def spacetime_raster(
    rule: Rule,
    start: Sequence[int] | str,
    steps: int,
    palette: Sequence[tuple[int, int, int]] | None = None,
) -> bytes:
    """Render a trajectory as a binary PPM (P6), time increasing downward.

    The image is (steps + 1) rows by n columns, one pixel per cell.
    """
    if palette is None:
        palette = default_palette(rule.d)
    if len(palette) != rule.d:
        raise ValueError(f"palette must supply {rule.d} colors")
    rows = evolve(rule, start, steps)
    width, height = len(rows[0]), len(rows)
    body = bytearray()
    for row in rows:
        for cell in row:
            body.extend(palette[cell])
    return b"P6\n%d %d\n255\n" % (width, height) + bytes(body)
