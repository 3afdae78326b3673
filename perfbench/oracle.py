"""Independent reference code for the benchmark's output checks.

Nothing here calls ringca: a rule is read only through its ``d``, ``m``,
``lr``, ``rr`` and ``table`` attributes, so a defect in the library cannot
hide itself by also breaking its own check.
"""

from __future__ import annotations

import itertools


def step(rule, cells: tuple[int, ...]) -> tuple[int, ...]:
    """One synchronous update of a ring, cell by cell."""
    n, d, table = len(cells), rule.d, rule.table
    out = []
    for i in range(n):
        rmt = 0
        for off in range(-rule.lr, rule.rr + 1):
            rmt = rmt * d + cells[(i + off) % n]
        out.append(table[rmt])
    return tuple(out)


def bijective(rule, n: int) -> bool:
    """Is the global map on n-cell rings a bijection?  Enumerates d^n rings."""
    seen = set()
    for cells in itertools.product(range(rule.d), repeat=n):
        image = step(rule, cells)
        if image in seen:
            return False
        seen.add(image)
    return True


def window_stream(rule, width: int, n: int, modulus: int | None, bits: int,
                  seed_digits: str, outputs: int) -> bytes:
    """First ``outputs`` values of a window generator, packed MSB-first.

    The window holds the seed, the rest of the ring starts as 0...01, the
    first n configurations are discarded, and each output is the window
    read as a base-d number (reduced mod ``modulus`` if given).
    """
    cells = tuple(int(c) for c in seed_digits) + (0,) * (n - width - 1) + (1,)
    for _ in range(n):
        cells = step(rule, cells)
    acc = 0
    for _ in range(outputs):
        cells = step(rule, cells)
        value = 0
        for c in cells[:width]:
            value = value * rule.d + c
        if modulus is not None:
            value %= modulus
        acc = (acc << bits) | value
    total = outputs * bits
    pad = -total % 8
    return (acc << pad).to_bytes((total + pad) // 8, "big")


# -- rule predicates ---------------------------------------------------------


def balanced(rule) -> bool:
    return all(rule.table.count(v) == rule.d ** (rule.m - 1) for v in range(rule.d))


def _sibling_sets(rule):
    d = rule.d
    return [range(d * j, d * j + d) for j in range(d ** (rule.m - 1))]


def _equivalent_sets(rule):
    sets = rule.d ** (rule.m - 1)
    return [range(i, rule.d ** rule.m, sets) for i in range(sets)]


def permutive(rule, kind: str) -> bool:
    """Strategy I (equivalent sets) or II (sibling sets) distinctness."""
    groups = _equivalent_sets(rule) if kind == "I" else _sibling_sets(rule)
    return balanced(rule) and all(
        len({rule.table[r] for r in g}) == rule.d for g in groups)


def _middle(rule, r: int) -> int:
    return (r // rule.d ** rule.rr) % rule.d


def _subgraph(rule, keep) -> dict[int, list[int]]:
    """de Bruijn node graph restricted to the RMTs ``keep`` accepts."""
    nodes = rule.d ** (rule.m - 1)
    succ: dict[int, list[int]] = {v: [] for v in range(nodes)}
    for r in range(rule.d ** rule.m):
        if keep(r):
            succ[r // rule.d].append(r % nodes)
    return succ


def cycle_lengths(succ: dict[int, list[int]], max_len: int) -> list[int]:
    """Lengths of all elementary cycles up to ``max_len`` nodes.

    Each cycle is found once, from its smallest node.
    """
    out = []
    for start in succ:
        stack = [(start, (start,))]
        while stack:
            node, path = stack.pop()
            for nxt in succ[node]:
                if nxt == start:
                    out.append(len(path))
                elif nxt > start and nxt not in path and len(path) < max_len:
                    stack.append((nxt, path + (nxt,)))
    return out


def _value_graphs(rule):
    for s in range(rule.d):
        yield _subgraph(rule, lambda r, s=s: rule.table[r] == s)


def _selfrep_graph(rule):
    return _subgraph(rule, lambda r: rule.table[r] == _middle(rule, r))


def has_short_bad_cycle(rule, max_len: int = 4) -> bool:
    """A cycle of length 2..max_len in a per-value or self-replicating
    subgraph: a periodic fixed point or a non-trivial predecessor of a
    trivial configuration."""
    graphs = list(_value_graphs(rule)) + [_selfrep_graph(rule)]
    return any(length >= 2 for g in graphs for length in cycle_lengths(g, max_len))


def _flow(rule) -> tuple[int, int]:
    def score(members) -> int:
        return len({rule.table[r] for r in members
                    if rule.table[r] != _middle(rule, r)})

    left = sum(score(g) for g in _sibling_sets(rule))
    right = sum(score(g) for g in _equivalent_sets(rule))
    return left, right


def randomness_candidate(rule, min_flow: int, strict: bool) -> bool:
    """One quiescent state, no fixed point besides it, enough information
    flow both ways, and (strict) no trivial configuration with a
    non-trivial predecessor."""
    homogeneous = [sum(s * rule.d ** k for k in range(rule.m)) for s in range(rule.d)]
    if sum(rule.table[h] == s for s, h in enumerate(homogeneous)) != 1:
        return False
    nodes = rule.d ** (rule.m - 1)
    if sorted(cycle_lengths(_selfrep_graph(rule), nodes)) != [1]:
        return False
    if min(_flow(rule)) < min_flow:
        return False
    if strict and any(length >= 2 for g in _value_graphs(rule)
                      for length in cycle_lengths(g, nodes)):
        return False
    return True
