"""Evolution driver: trajectories, cycle detection, space-time rasters."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import gcd

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
    cells = bytes(ring_cells(start, rule.d))
    step = stepper(rule, len(cells))
    yield tuple(cells)
    for _ in range(steps):
        cells = step(cells)
        yield tuple(cells)


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

    The search follows rotation classes.  The global map G commutes with
    the rotation σ of the ring (shift invariance), so the classes of an
    orbit repeat with the same tail as its configurations and a class
    cycle t' that divides the cycle: if G^t'(y) = σ^j(y) for y on the
    cycle, the orbit closes after t'·p/gcd(p, j) steps, p being the
    rotation period of y.  So an orbit with tail 0 (every orbit of a rule
    that is reversible at that size) costs t' steps, not its cycle length.

    No table of configurations or of their rotations is kept: memory is
    O(n), and O(1) in the step count.  After each step one substring
    search looks the configuration up among the rotations of the start
    and of a tortoise parked at steps 1, 2, 4, ... (Brent 1980).  That
    finds the class cycle of an orbit with a tail within 3(tail + t')
    steps; locating the tail then takes t' + 2 tail steps more, about
    5(tail + t') in all.  A truncated search may step up to 3 max_steps
    times.  Each call logs one DEBUG record on the ``ringca.engine``
    logger: the steps taken, t', j, p and the tail.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    start = bytes(ring_cells(start, rule.d))
    n = len(start)
    step = stepper(rule, n)
    # two copies of the start, a byte no cell takes, two of the tortoise:
    # the hare found at k <= n is σ^k(start), found at 2n + 1 + k σ^k(tortoise)
    home = start + start + bytes([rule.d])
    rotations = home + start + start
    hare = tortoise = start
    parked, park = 0, 1  # the tortoise's step, the step it moves on to
    for taken in range(1, 3 * max_steps + 1):
        hare = step(hare)
        k = rotations.find(hare)
        if k >= 0:
            break
        if taken == park:
            tortoise, parked, park = hare, taken, 2 * taken
            rotations = home + hare + hare
    # a loop that runs out leaves k == -1: no class repeats in 3 max_steps steps
    classes = j = p = cycle = tail = None
    if k > n:
        # the hare is one class lap ahead: (parked, park] is too short for two
        classes, j, cyclic = taken - parked, k - 2 * n - 1, tortoise
    elif k >= 0:
        classes, j, cyclic, tail = taken, k, start, 0
    if classes is not None:
        p = (cyclic + cyclic).find(cyclic, 1)
        cycle = classes * p // gcd(p, j)
    if tail is None and cycle is not None and cycle < max_steps:
        # the tail is the first step at which two walkers a class cycle
        # apart are rotations by j of each other; G commutes with σ, so
        # the leading walker is rotated back by j once, before they walk
        ahead = start
        for _ in range(classes):
            ahead = step(ahead)
        ahead = ahead[n - j:] + ahead[:n - j]
        behind, walked = start, 0
        while behind != ahead and walked + cycle < max_steps:
            behind, ahead = step(behind), step(ahead)
            walked += 1
        taken += classes + 2 * walked
        if behind == ahead:
            tail = walked
    # imported here, as in synthesis: ringca.cli starts without logging
    import logging
    logging.getLogger(__name__).debug(
        "cycle_length(n=%d, max_steps=%d): %d steps, class cycle %s, "
        "rotation %s, rotation period %s, tail %s",
        n, max_steps, taken, classes, j, p, tail)
    if tail is None or tail + cycle > max_steps:
        return CycleResult(cycle_length=None, tail_length=None,
                           truncated=True, steps_used=max_steps)
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
