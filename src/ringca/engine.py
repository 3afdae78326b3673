"""Evolution driver: trajectories, cycle detection, space-time rasters."""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import gcd

# next_configuration stays bound here: perfbench's traced run rebinds
# engine.next_configuration, so the name must exist in this module
from .debruijn import next_configuration, packs, ring_cells, stepper  # noqa: F401
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


def trajectory(rule: Rule, start: Sequence[int] | str, steps: int) -> Iterator[bytes]:
    """Yield x, G(x), ..., G^steps(x) under periodic boundary, one at a
    time, as ``bytes`` of the cell states."""
    if steps < 0:
        raise ValueError("steps must be non-negative")
    cells = bytes(ring_cells(start, rule.d))
    step = stepper(rule, len(cells))
    yield cells
    for _ in range(steps):
        cells = step(cells)
        yield cells


def evolve(rule: Rule, start: Sequence[int] | str, steps: int) -> list[Configuration]:
    """Trajectory [x, G(x), ..., G^steps(x)] under periodic boundary."""
    return list(map(tuple, trajectory(rule, start, steps)))


@dataclass(frozen=True)
class CycleResult:
    """Tail length and cycle length of a trajectory, or truncation."""

    cycle_length: int | None
    tail_length: int | None
    truncated: bool
    steps_used: int


def _squared(rule: Rule) -> Rule:
    """The local rule of G², G the global map of ``rule``: its RMT holds
    the 2m - 1 cells from 2 lr left of a cell to 2 rr right of it, whose
    m windows of m cells are the RMTs of the m cells of G(x) that the
    cell of G(G(x)) reads."""
    d, m, table = rule.d, rule.m, rule.table
    wide = d ** m
    squared = []
    for r in range(d ** (2 * m - 1)):
        mid = 0
        for k in range(m - 1, -1, -1):
            mid = mid * d + table[r // d ** k % wide]
        squared.append(table[mid])
    return Rule(d, 2 * m - 1, tuple(squared), lr=2 * rule.lr)


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
    O(n), and O(1) in the step count.  Each move of the hare is two steps:
    one ``stepper`` call of G² when it fits a byte table, d^(2m-1) <= 256
    (``_squared``), two calls of G otherwise.  After each move one
    substring search looks the hare up among G(y) and y, for y the start
    and a tortoise parked at moves 1, 2, 4, ... (Brent 1980): the offsets
    from hare to target meet the class cycle t' first at t' itself, and
    under the identity rule at 1, not 2.  Moves of three steps would not:
    with a class tail of 2 only one of the start's three targets is on
    the cycle, its offsets are 1, 4, 7, ..., and a class cycle of 5 is
    first met at 10.

    The class cycle is found within 3(tail + t') steps, taken in half as
    many moves, plus a step per tortoise park for its G(y).  A match on
    the start means tail 0, one on G(start) tail 0 or 1, told apart by one
    step; otherwise the tail takes t' + 2 tail steps more, one a call,
    about 5(tail + t') in all.  A search that runs out takes 3 max_steps
    steps in about 3 max_steps / 2 moves.  The README's n = 13 orbit of
    1,073,397 configurations takes 41,303 calls for its 82,569-step class
    cycle.  Each call logs one DEBUG record on the ``ringca.engine``
    logger: the steps taken, t', j, p and the tail.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    start = bytes(ring_cells(start, rule.d))
    n = len(start)
    step = stepper(rule, n)
    leap = (stepper(_squared(rule), n) if packs(rule.d, 2 * rule.m - 1)
            else lambda y: step(step(y)))  # 2m - 1: the m of _squared(rule)
    sep, slot = bytes([rule.d]), 2 * n + 1

    def targets(y: bytes) -> bytes:
        # G(y) and then y, each twice and then a byte no cell takes: the
        # hare found k <= n bytes into a slot is σ^k of its copy
        ahead = step(y)
        return ahead + ahead + sep + y + y + sep

    rotations = home = targets(start)
    hare, parked, park = start, 0, 1  # the tortoise's move, the move it moves on to
    taken = 1  # steps besides the hare's: one G(y) per target
    for moves in range(1, (3 * max_steps + 1) // 2 + 1):
        previous, hare = hare, leap(hare)
        k = rotations.find(hare)
        if k >= 0:
            break
        if moves == park:
            parked, park = moves, 2 * moves
            rotations = home + targets(hare)
            taken += 1
    taken += 2 * moves
    # a loop that runs out leaves k == -1: no class repeats within its budget
    classes = j = p = cycle = tail = None
    if k >= 0:
        # slots: G(start), start, G(tortoise), tortoise
        at, j = divmod(k, slot)
        classes = 2 * (moves - at // 2 * parked) - 1 + at % 2
        cyclic = rotations[at * slot:at * slot + n]
        p = (cyclic + cyclic).find(cyclic, 1)
        cycle = classes * p // gcd(p, j)
        if at == 1:
            tail = 0
        elif at == 0:
            # G(start) is on the cycle, and so is the start iff G^classes
            # of it, one step past the last hare, is σ^j of it
            tail = int(step(previous) != start[j:] + start[:j])
            taken += 1
    # a tortoise's match means a tail: with tail 0 the start's targets
    # meet every offset first, so a cycle of max_steps leaves no room
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
    colours = [bytes(colour) for colour in palette]
    rows = [b"".join(map(colours.__getitem__, row))
            for row in trajectory(rule, start, steps)]
    return b"P6\n%d %d\n255\n" % (len(rows[0]) // 3, steps + 1) + b"".join(rows)
