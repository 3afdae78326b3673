"""Evolution driver: trajectories, cycle detection, space-time rasters."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

# next_configuration stays bound here: perfbench's traced run rebinds
# engine.next_configuration, so the name must exist in this module
from .debruijn import next_configuration, ring_cells, stepper  # noqa: F401
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


def trajectory(rule: Rule, start: Sequence[int] | str, steps: int) -> Iterator[Configuration]:
    """Yield x, G(x), ..., G^steps(x) under periodic boundary, one at a time."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    cells = ring_cells(start, rule.d)
    step = stepper(rule)
    yield cells
    for _ in range(steps):
        cells = step(cells)
        yield cells


def evolve(rule: Rule, start: Sequence[int] | str, steps: int) -> list[Configuration]:
    """Trajectory [x, G(x), ..., G^steps(x)] under periodic boundary."""
    return list(trajectory(rule, start, steps))


@dataclass(frozen=True)
class CycleResult:
    """Tail length and cycle length of a trajectory, or truncation."""

    cycle_length: int | None
    tail_length: int | None
    truncated: bool
    steps_used: int


def cycle_length(rule: Rule, start: Sequence[int] | str, max_steps: int) -> CycleResult:
    """Evolve until a configuration repeats, or the step budget runs out.

    The first repeat comes after tail + cycle steps, reported as
    ``steps_used``; when that exceeds ``max_steps`` the result is
    truncated, with ``steps_used == max_steps``.

    No configuration is stored: memory is O(1) in the step count.  Each
    configuration is compared with the start, so an orbit with tail 0
    costs exactly its cycle length in steps, and with a tortoise parked
    at steps 1, 2, 4, ... (Brent 1980).  That finds the cycle of an orbit
    with a tail within 3(tail + cycle) steps; locating the tail then takes
    up to cycle + 2 tail steps more, about 5(tail + cycle) in all.  A
    truncated search may step up to 3 max_steps times.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    start = ring_cells(start, rule.d)
    step = stepper(rule)
    truncated = CycleResult(cycle_length=None, tail_length=None,
                            truncated=True, steps_used=max_steps)
    hare = tortoise = start
    parked, park = 0, 1  # the tortoise's step, the step it moves on to
    for t in range(1, 3 * max_steps + 1):
        hare = step(hare)
        if hare == start:
            if t > max_steps:
                return truncated
            return CycleResult(cycle_length=t, tail_length=0,
                               truncated=False, steps_used=t)
        if hare == tortoise:
            # the hare is one lap ahead: (parked, park] is too short for two
            cycle = t - parked
            break
        if t == park:
            tortoise, parked, park = hare, t, 2 * t
    else:
        return truncated
    # the tail is the first step at which two walkers a cycle apart meet
    ahead = start
    for _ in range(cycle):
        ahead = step(ahead)
    behind, tail = start, 0
    while behind != ahead:
        if tail + 1 + cycle > max_steps:
            return truncated
        behind, ahead = step(behind), step(ahead)
        tail += 1
    return CycleResult(cycle_length=cycle, tail_length=tail,
                       truncated=False, steps_used=tail + cycle)


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
    body = bytearray()
    for row in trajectory(rule, start, steps):
        for cell in row:
            body.extend(palette[cell])
    return b"P6\n%d %d\n255\n" % (len(row), steps + 1) + bytes(body)
