"""de Bruijn graph analyses of CA rules.

The de Bruijn graph B(m-1, d) has a node for every (m-1)-digit overlap
window and an edge for every RMT: edge r runs from node r // d to node
r mod d^(m-1).  Cycles of length n are exactly the RMT sequences of the
n-cell configurations, which makes the graph the right tool for finding
fixed points and for deciding which trivial configurations s^n have
non-trivial predecessors.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from functools import cache

from .rules import Rule, self_replicating_rmts


def parse_configuration(text: str, d: int) -> tuple[int, ...]:
    """Parse a digit string into a cell tuple, validating states."""
    cells = []
    for pos, ch in enumerate(text):
        if not ch.isdigit() or int(ch) >= d:
            raise ValueError(f"bad cell digit {ch!r} at position {pos} for d={d}")
        cells.append(int(ch))
    return tuple(cells)


def as_cells(config: Sequence[int] | str, d: int) -> tuple[int, ...]:
    """A configuration as a cell tuple: a digit string is parsed, and every
    state must lie in 0..d-1."""
    if isinstance(config, str):
        return parse_configuration(config, d)
    cells = tuple(config)
    for c in cells:
        if not 0 <= c < d:
            raise ValueError(f"cell state {c} out of range for d={d}")
    return cells


def ring_cells(config: Sequence[int] | str, d: int) -> tuple[int, ...]:
    """``as_cells`` for a ring: the configuration must have a cell."""
    cells = as_cells(config, d)
    if not cells:
        raise ValueError("configuration must have at least one cell")
    return cells


@cache
def _window_shift(d: int, m: int) -> tuple[int, ...]:
    """RMT r with its leftmost digit dropped, times d: the next RMT less
    its incoming cell."""
    wrap = d ** (m - 1)
    return tuple(r % wrap * d for r in range(d ** m))


def stepper(rule: Rule) -> Callable[[tuple[int, ...]], tuple[int, ...]]:
    """The synchronous update of ``rule`` under periodic boundary, as a
    function that trusts its argument: a non-empty tuple of states in
    0..d-1 (see ``ring_cells``).  Callers that step one configuration many
    times validate it once and call this; ``next_configuration`` is the
    checked single step."""
    d, table, lr, rr = rule.d, rule.table, rule.lr, rule.rr
    shift = _window_shift(d, rule.m)
    reach = max(lr, rr)

    def step(cells: tuple[int, ...]) -> tuple[int, ...]:
        n = len(cells)
        # head: the window of cell -1 without its leftmost digit; feed:
        # the cell each next window takes in, cells rr, rr+1, ... mod n
        if n > reach:
            head = cells[n - lr:] + cells[:rr]
            feed = cells[rr:] + cells[:rr]
        else:  # the neighbourhood wraps the ring more than once
            head = [cells[j % n] for j in range(-lr, rr)]
            feed = [cells[(i + rr) % n] for i in range(n)]
        rmt = 0
        for c in head:
            rmt = rmt * d + c
        return tuple([table[rmt := shift[rmt] + c] for c in feed])

    return step


def next_configuration(rule: Rule, config: Sequence[int] | str) -> tuple[int, ...]:
    """One synchronous update of ``config`` under periodic boundary."""
    return stepper(rule)(ring_cells(config, rule.d))


def rmt_sequence(rule: Rule, config: Sequence[int] | str) -> tuple[int, ...]:
    """The cyclic RMT sequence induced by a configuration."""
    cells = as_cells(config, rule.d)
    n = len(cells)
    d = rule.d
    seq = []
    for i in range(n):
        rmt = 0
        for off in range(-rule.lr, rule.rr + 1):
            rmt = rmt * d + cells[(i + off) % n]
        seq.append(rmt)
    return tuple(seq)


@dataclass(frozen=True)
class PrimaryRmtSet:
    """The RMTs of one elementary cycle of the de Bruijn graph.

    ``rmts`` lists the cycle in traversal order, rotated so the smallest
    RMT comes first.  The middle digits of the members spell the repeating
    block of the homogeneous configurations built from this set.
    """

    rmts: tuple[int, ...]
    d: int
    m: int

    @property
    def cardinality(self) -> int:
        return len(self.rmts)

    def as_set(self) -> frozenset[int]:
        return frozenset(self.rmts)

    def pattern(self) -> tuple[int, ...]:
        """Repeating cell block of the homogeneous configuration."""
        rr = self.m - 1 - (self.m - 1) // 2
        return tuple((r // self.d ** rr) % self.d for r in self.rmts)


class DeBruijnGraph:
    """B(m-1, d) with RMT-labeled edges, optionally restricted to a subset."""

    def __init__(self, d: int, m: int):
        self.d = d
        self.m = m
        self.num_nodes = d ** (m - 1)
        self.num_edges = d ** m

    def edge_ends(self, rmt: int) -> tuple[int, int]:
        return rmt // self.d, rmt % self.num_nodes

    def cycles(self, rmts: Iterable[int], max_len: int | None = None) -> list[tuple[int, ...]]:
        """Elementary cycles of the subgraph with edge set ``rmts``.

        Returns RMT cycles in canonical rotation (smallest RMT first),
        ordered by length then lexicographically; ``max_len`` caps the
        length.  This is the one cycle search of the package.  Each cycle
        is found once, by a depth-first search from its smallest node that
        never enters a smaller node (the canonical start of Johnson 1975).
        RMTs order like their tail nodes, so that walk already lists the
        cycle in canonical rotation; and no two RMTs share both ends, so
        node cycles and RMT cycles correspond one to one.  The search keeps
        an explicit stack, so unbounded searches on large graphs do not
        depend on the recursion limit.
        """
        if max_len is not None and max_len < 1:
            raise ValueError(f"cycle length bound must be at least 1, got {max_len}")
        succ: dict[int, list[tuple[int, int]]] = {}
        for r in rmts:
            tail, head = self.edge_ends(r)
            succ.setdefault(tail, []).append((head, r))
        out = []
        for start in sorted(succ):
            path, on_path = [], {start}  # RMTs walked, nodes on the walk
            stack = [(start, iter(succ[start]))]
            while stack:
                for head, r in stack[-1][1]:
                    if head == start:
                        out.append(tuple(path) + (r,))
                    elif (head > start and head not in on_path and head in succ
                          and (max_len is None or len(path) + 1 < max_len)):
                        path.append(r)
                        on_path.add(head)
                        stack.append((head, iter(succ[head])))
                        break
                else:
                    node, _ = stack.pop()
                    on_path.discard(node)
                    if path:
                        path.pop()
        out.sort(key=lambda c: (len(c), c))
        return out


def primary_rmt_sets(d: int, m: int, max_card: int) -> list[PrimaryRmtSet]:
    """All elementary de Bruijn cycles of length <= max_card, as RMT sets."""
    if max_card > d ** (m - 1):
        max_card = d ** (m - 1)
    graph = DeBruijnGraph(d, m)
    return [
        PrimaryRmtSet(rmts=c, d=d, m=m)
        for c in graph.cycles(range(d ** m), max_len=max_card)
    ]


def quiescent_states(rule: Rule) -> set[int]:
    """States s with R(s, ..., s) = s."""
    return {s for s in range(rule.d) if rule.table[rule.homogeneous_rmt(s)] == s}


def fixed_point_attractors(
    rule: Rule, max_len: int | None = None
) -> list[tuple[PrimaryRmtSet, int]]:
    """Cycles of the self-replicating subgraph: every fixed point pattern.

    Each cycle of length p yields the fixed point (pattern)^k for ring
    sizes n = k * p.  ``max_len`` bounds the cycle search (full de Bruijn
    subgraphs of high-state rules hold astronomically many cycles).
    """
    graph = DeBruijnGraph(rule.d, rule.m)
    return [
        (PrimaryRmtSet(rmts=c, d=rule.d, m=rule.m), len(c))
        for c in graph.cycles(self_replicating_rmts(rule), max_len=max_len)
    ]


@dataclass(frozen=True)
class ReachabilityVerdict:
    """Which trivial configurations have predecessors besides themselves.

    ``reachable_trivials`` lists (state s, witness cycle) pairs where the
    witness is any cycle of the R[r] = s subgraph other than the self-loop
    at node s...s; evolving the witness's configuration one step yields
    s^n.  Witnesses of length 1 are other trivial configurations; longer
    witnesses are genuinely non-trivial predecessors.
    """

    nontrivial_fixed_points: tuple[tuple[PrimaryRmtSet, int], ...]
    reachable_trivials: tuple[tuple[int, PrimaryRmtSet], ...]

    def nontrivial_predecessors(self) -> list[tuple[int, PrimaryRmtSet]]:
        """Witnesses that are not themselves trivial configurations."""
        return [(s, w) for s, w in self.reachable_trivials if w.cardinality >= 2]


def trivial_reachability(rule: Rule, max_len: int | None = None) -> ReachabilityVerdict:
    """Find predecessors of every trivial configuration s^n."""
    graph = DeBruijnGraph(rule.d, rule.m)
    witnesses = []
    for s in range(rule.d):
        own_loop = rule.homogeneous_rmt(s)
        edges = [r for r in range(rule.num_rmts) if rule.table[r] == s]
        for cycle in graph.cycles(edges, max_len=max_len):
            if cycle == (own_loop,):
                continue
            witnesses.append((s, PrimaryRmtSet(rmts=cycle, d=rule.d, m=rule.m)))
    fixed = [
        (p, period)
        for p, period in fixed_point_attractors(rule, max_len=max_len)
        if period >= 2
    ]
    return ReachabilityVerdict(
        nontrivial_fixed_points=tuple(fixed),
        reachable_trivials=tuple(witnesses),
    )
