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

_MAX_CYCLES = 100_000  # one search keeps every cycle it finds: a memory bound


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


def packs(d: int, m: int) -> bool:
    """Whether a rule of ``d`` states and ``m``-cell neighbourhoods takes
    the packed route of ``stepper``: its RMTs fit in one byte."""
    return d ** m <= 256


def stepper(rule: Rule, n: int) -> Callable[[bytes], bytes]:
    """The synchronous update of ``rule`` on rings of ``n`` cells under
    periodic boundary, as a function from one configuration, as ``bytes``
    of its states, to the next.  The function trusts its argument: ``n``
    states in 0..d-1 (see ``ring_cells``), and it holds for that one ring
    size, whose offsets and lengths it computes once.  Callers that step
    rings of one size many times validate the start once and call this;
    ``next_configuration`` is the checked single step on tuples.

    All three lookup routes read the ring through one wrap rule: the
    n + m - 1 cells from cell -lr mod n on, cut from enough copies of the
    ring that rings shorter than the neighbourhood need no case of their
    own.  There are three routes because ``bytes.translate`` takes only a
    256-entry table.

    When d^m <= 256 (packed route) those cells are read as one integer with
    one byte per cell.  One multiplication by sum d^k 256^(m-1-k) adds the
    m shifted copies of that integer with their RMT weights; no byte field
    exceeds d^m - 1 <= 255, so none carries into the next, and byte i of
    the product's middle n bytes is the RMT of cell i.  One ``translate``
    then maps every RMT to its new state.

    When d^(m-1) <= 256 and the rule's sibling sets (the RMTs that share
    their left m - 1 digits) fall into K distinct maps from the incoming
    cell to the new state with K d <= 256 (class route), the same reading
    times sum d^k 256^(m-2-k) puts each cell's sibling index in a byte
    (fields up to d^(m-1) - 1 <= 255).  One ``translate`` maps the indices
    to their class times d.  Adding the reading itself, whose low n bytes
    are the incoming cells, forms each cell's class entry without carries
    (at most K d - 1 <= 255), and one ``translate`` through the K d-entry
    class table gives the new states.  Every permutation-form rule
    (``rule_from_permutation``) has K = 10, so its d = 10 step takes four
    C-level calls.  This is a route of its own, not the packed route with
    a class map, because the second translate and the addition make a
    d = 3 step 1.4-1.6 times slower (n = 13-201).

    Other tables, such as decimal synthesis rules (K = 100), walk the
    cells: the first m - 1 form the window of cell -1 less its leftmost
    digit, and each next RMT is the last one less its incoming cell
    (``_window_shift``) plus the incoming cell."""
    d, table, m = rule.d, rule.table, rule.m
    span = m - 1
    first, size = -rule.lr % n, n + span  # where the cells read start, how many
    copies, end = 2 - (1 - m) // n, first + size
    if packs(d, m):
        lookup = bytes(table).ljust(256, b"\0")
        weights = sum(d ** k << 8 * (span - k) for k in range(m))
        length = size + span

        def packed_step(cells: bytes) -> bytes:
            ext = (cells * copies)[first:end]
            rmts = (int.from_bytes(ext, "big") * weights).to_bytes(length, "big")
            return rmts[span:size].translate(lookup)

        return packed_step

    maps = [table[j:j + d] for j in range(0, d ** m, d)] if d ** span <= 256 else []
    base_of = {sibling_map: k * d for k, sibling_map in enumerate(dict.fromkeys(maps))}
    if maps and len(base_of) * d <= 256:
        lead = span - 1
        class_base = bytes(base_of[sibling_map] for sibling_map in maps).ljust(256, b"\0")
        lookup = bytes(v for sibling_map in base_of for v in sibling_map).ljust(256, b"\0")
        weights = sum(d ** k << 8 * (lead - k) for k in range(span))
        length, last = size + lead, n + lead

        def class_step(cells: bytes) -> bytes:
            wide = int.from_bytes((cells * copies)[first:end], "big")
            sibs = (wide * weights).to_bytes(length, "big")[lead:last]
            bases = int.from_bytes(sibs.translate(class_base), "big")
            return (bases + wide).to_bytes(size, "big")[span:].translate(lookup)

        return class_step

    shift = _window_shift(d, m)

    def step(cells: bytes) -> bytes:
        ext = (cells * copies)[first:end]
        rmt = 0
        for c in ext[:span]:
            rmt = rmt * d + c
        return bytes([table[rmt := shift[rmt] + c] for c in ext[span:]])

    return step


_last_step: tuple[tuple[Rule, int], Callable] | None = None  # see next_configuration


def next_configuration(rule: Rule, config: Sequence[int] | str) -> tuple[int, ...]:
    """One synchronous update of ``config`` under periodic boundary.

    The stepper of the last rule and ring size is kept, so that single
    steps of one rule on one ring size build its lookup tables once.
    """
    global _last_step
    cells = ring_cells(config, rule.d)
    key = rule, len(cells)
    memo = _last_step
    if memo is None or memo[0] != key:
        memo = _last_step = key, stepper(*key)
    return tuple(memo[1](bytes(cells)))


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

    def _cyclic_core(self, rmts: Iterable[int]) -> dict[int, list[int]]:
        """The RMTs leaving each node of the subgraph with edge set ``rmts``
        that can lie on a cycle.

        Nodes that no edge enters are dropped with the edges that leave
        them, repeatedly, since none of them lies on a cycle; nodes that no
        edge leaves are never keys.  Every node left is entered by an edge
        from a node left, so walking those edges backwards must close a
        cycle: the result is empty iff the subgraph is acyclic.
        """
        d, num_nodes = self.d, self.num_nodes
        succ: dict[int, list[int]] = {}
        entering = [0] * num_nodes
        for r in rmts:
            succ.setdefault(r // d, []).append(r)
            entering[r % num_nodes] += 1
        sources = [w for w in succ if not entering[w]]
        while sources:
            for r in succ.pop(sources.pop()):
                head = r % num_nodes
                entering[head] -= 1
                if not entering[head] and head in succ:
                    sources.append(head)
        return succ

    def has_cycle(self, rmts: Iterable[int]) -> bool:
        """Whether the subgraph with edge set ``rmts`` has a cycle (a
        self-loop counts), found without listing any: ``bool(cycles(rmts))``
        in time linear in the size of the graph."""
        return bool(self._cyclic_core(rmts))

    def cycles(self, rmts: Iterable[int], max_len: int | None = None) -> list[tuple[int, ...]]:
        """Elementary cycles of the subgraph with edge set ``rmts``.

        Returns RMT cycles in canonical rotation (smallest RMT first),
        ordered by length then lexicographically; ``max_len`` caps the
        length.  This is the one cycle search of the package.  Each cycle
        is found once, by a depth-first search from its smallest node that
        never enters a smaller node (the canonical start of Johnson 1975).
        RMTs order like their tail nodes, so that walk already lists the
        cycle in canonical rotation; and no two RMTs share both ends, so
        node cycles and RMT cycles correspond one to one.

        The search runs only on the nodes that ``_cyclic_core`` leaves
        (the pruning ``has_cycle`` runs too); on a functional graph (one
        outgoing edge per node, as in the per-value subgraphs of a rule
        whose sibling sets are permutations) those are the cycle nodes
        alone.  The search keeps an explicit stack, so unbounded searches
        on large graphs do not depend on the recursion limit.  A search
        that finds more than ``_MAX_CYCLES`` cycles raises ``ValueError``.
        """
        if max_len is not None and max_len < 1:
            raise ValueError(f"cycle length bound must be at least 1, got {max_len}")
        num_nodes = self.num_nodes
        succ = self._cyclic_core(rmts)
        out = []
        for start in sorted(succ):
            path, on_path = [], {start}  # RMTs walked, nodes on the walk
            stack = [(start, iter(succ[start]))]
            while stack:
                for r in stack[-1][1]:
                    head = r % num_nodes
                    if head == start:
                        if len(out) == _MAX_CYCLES:
                            raise ValueError(
                                f"more than {_MAX_CYCLES} de Bruijn cycles; "
                                "set a lower length bound (--max-cycle)")
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
    """All elementary de Bruijn cycles of length <= max_card, as RMT sets.
    None is longer than d^(m-1), the number of nodes."""
    graph = DeBruijnGraph(d, m)
    return [
        PrimaryRmtSet(rmts=c, d=d, m=m)
        for c in graph.cycles(range(d ** m), max_len=max_card)
    ]


def quiescent_states(rule: Rule) -> set[int]:
    """States s with R(s, ..., s) = s."""
    # s^m is s times the RMT 1^m (see Rule.homogeneous_rmt)
    ones, table = (rule.d ** rule.m - 1) // (rule.d - 1), rule.table
    return {s for s in range(rule.d) if table[s * ones] == s}


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
    witnesses are genuinely non-trivial predecessors.  Fixed points are
    not part of the verdict: ``fixed_point_attractors`` finds them.
    """

    reachable_trivials: tuple[tuple[int, PrimaryRmtSet], ...]

    def nontrivial_predecessors(self) -> list[tuple[int, PrimaryRmtSet]]:
        """Witnesses that are not themselves trivial configurations."""
        return [(s, w) for s, w in self.reachable_trivials if w.cardinality >= 2]


def trivial_reachability(rule: Rule, max_len: int | None = None) -> ReachabilityVerdict:
    """Find predecessors of every trivial configuration s^n: the cycles,
    up to ``max_len`` RMTs long, of each per-value subgraph R[r] = s."""
    graph = DeBruijnGraph(rule.d, rule.m)
    by_value: list[list[int]] = [[] for _ in range(rule.d)]
    for r, v in enumerate(rule.table):
        by_value[v].append(r)
    witnesses = []
    for s, edges in enumerate(by_value):
        own_loop = rule.homogeneous_rmt(s)
        for cycle in graph.cycles(edges, max_len=max_len):
            if cycle == (own_loop,):
                continue
            witnesses.append((s, PrimaryRmtSet(rmts=cycle, d=rule.d, m=rule.m)))
    return ReachabilityVerdict(reachable_trivials=tuple(witnesses))
