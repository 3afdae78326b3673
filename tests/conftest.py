import functools
import itertools
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"

# recurring 3-state rules
FLOW_RULE = "120021120021021120021021210"        # left 18, right 10
STRATEGY_I_SAMPLE = "211212112020000020102121201"  # right 18, left 12
STRATEGY_II_SAMPLE = "102012102012102102021021012"  # left 18, right 12
REJECTED_FILTER_RULE = "102012210120021021012102120"

# Reversible at n = 11 by a brute-force enumeration of the 3^11 rings and by
# the pair-graph test, yet the tree calls both irreversible there: the tail
# (8, 1) that decides it comes from a self-loop claim.  The first is a
# golden classify rule.
WRONG_AT_11 = ["210210210012210210120210120", "210222220002000002121111111"]

PERMUTATION_RULES = [
    "8572036419", "3154968072", "1632405789", "5102847369", "1973502846",
    "7028415369", "1592407368", "2469587301", "8135940672", "0271584936",
    "9821354706", "6924135087", "5983076412", "4319256807", "9837205146",
]


def step_cells(rule, cells):
    """One synchronous update of a ring, cell by cell: cell i reads the
    m cells from i - lr to i + rr, wrapping around the ring."""
    n, d = len(cells), rule.d
    out = []
    for i in range(n):
        rmt = 0
        for off in range(-rule.lr, rule.rr + 1):
            rmt = rmt * d + cells[(i + off) % n]
        out.append(rule.table[rmt])
    return tuple(out)


def brute_force_reversible(rule, n):
    """Oracle: is the global map a bijection at ring size n?

    Enumerates all d^n configurations and applies the rule directly,
    cell by cell with its own step rather than the library's;
    injectivity on a finite set equals bijectivity.
    """
    seen = set()
    for cells in itertools.product(range(rule.d), repeat=n):
        image = step_cells(rule, cells)
        if image in seen:
            return False
        seen.add(image)
    return True


def periodic_sizes(state, step, bad):
    """Iterate ``state = step(state)`` from size 0 to the first repeat.
    Returns (mu, lam, sizes): the state at n + lam is the one at n for all
    n >= mu, and ``sizes`` holds the sizes below mu + lam of bad states."""
    seen = {}
    while state not in seen:
        seen[state] = len(seen)
        state = step(state)
    return seen[state], len(seen) - seen[state], {n for s, n in seen.items() if bad(s)}


def in_sizes(exact, n):
    mu, lam, sizes = exact
    return (n if n < mu else mu + (n - mu) % lam) in sizes


def pair_rows(rule):
    """Irreversible sizes by the Amoroso-Patt / Sutner pair graph.  Rings of
    n cells are the closed n-walks in the de Bruijn graph on the d^(m-1)
    windows of m-1 cells, whose edges are the RMTs labelled with their next
    state.  Pair node (u, v) steps to (u', v') when u -> u' and v -> v'
    share a label; two rings share an image iff a closed pair walk of length
    n visits some (u, v) with u != v.  Row p of the state at size n is an
    int bitset of the pair nodes that p reaches by walks of length n."""
    d, nodes = rule.d, rule.d ** (rule.m - 1)
    edges = [[(r % nodes, rule.table[r]) for r in range(u * d, u * d + d)] for u in range(nodes)]
    succ = [[u2 * nodes + v2 for u2, a in edges[u] for v2, b in edges[v] if a == b]
            for u, v in itertools.product(range(nodes), repeat=2)]

    def step(rows):
        for targets in succ:
            acc = 0
            for q in targets:
                acc |= rows[q]
            yield acc
    return periodic_sizes(  # (u, u) is p = u * (nodes + 1)
        tuple(1 << p for p in range(nodes * nodes)), lambda rows: tuple(step(rows)),
        lambda rows: any(rows[p] >> p & 1 for p in range(nodes * nodes) if p % (nodes + 1)))


def label_maps(rule):
    """``pair_rows(rule)`` for a rule whose sibling sets hold each state
    once (strategy II), else None.  Window u leaves by one edge labelled b,
    to delta_b(u), so a closed pair walk with label word w visits (u, v)
    iff the map delta_w fixes u and v.  The state at size n is the set of
    the maps of the words of length n, as bytes: at most 256 windows."""
    d, nodes = rule.d, rule.d ** (rule.m - 1)
    if any(len(set(rule.table[u * d:u * d + d])) < d for u in range(nodes)):
        return None
    delta = [bytearray(range(256)) for _ in range(d)]
    for r, label in enumerate(rule.table):
        delta[label][r // d] = r % nodes
    same = bytes(range(nodes))
    return periodic_sizes(
        frozenset({same}), lambda maps: frozenset(f.translate(b) for f in maps for b in delta),
        lambda maps: any(sum(u == v for u, v in enumerate(f)) > 1 for f in maps))


@functools.cache
def exact_sets(rule):
    # pair rows, but label maps where the pair graph passes 256 nodes
    return rule.d ** (rule.m - 1) > 16 and label_maps(rule) or pair_rows(rule)


def pair_graph_bijective(rule, n):
    """Oracle: is the global map a bijection at ring size n?  Exact at any n."""
    return not in_sizes(exact_sets(rule), n)


@pytest.fixture(scope="session")
def second_approach_rules():
    lines = (DATA / "good_rules_second_approach.txt").read_text().split()
    assert len(lines) == 122
    return lines
