import itertools
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"

# recurring 3-state rules
FLOW_RULE = "120021120021021120021021210"        # left 18, right 10
STRATEGY_I_SAMPLE = "211212112020000020102121201"  # right 18, left 12
STRATEGY_II_SAMPLE = "102012102012102102021021012"  # left 18, right 12
REJECTED_FILTER_RULE = "102012210120021021012102120"

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


def pair_graph_bijective(rule, n):
    """Oracle: is the global map a bijection at ring size n?

    The Amoroso-Patt / Sutner pair-graph test.  Configurations of an
    n-ring are the closed walks of length n in the de Bruijn graph on the
    d^(m-1) windows of m-1 cells, whose edges are the RMTs labelled with
    their next state.  Pair node (u, v) steps to (u', v') when u -> u' and
    v -> v' carry the same label; two configurations share an image iff
    a closed pair walk of length n visits some (u, v) with u != v.  The
    walks are counted by a boolean matrix power, rows held as int bitsets.
    """
    d, nodes = rule.d, rule.d ** (rule.m - 1)
    out_edges = [[] for _ in range(nodes)]
    for r, label in enumerate(rule.table):
        out_edges[r // d].append((r % nodes, label))
    step = []
    for u, v in itertools.product(range(nodes), repeat=2):
        row = 0
        for u2, a in out_edges[u]:
            for v2, b in out_edges[v]:
                if a == b:
                    row |= 1 << (u2 * nodes + v2)
        step.append(row)

    def times(x, y):
        out = []
        for row in x:
            acc = 0
            while row:
                low = row & -row
                acc |= y[low.bit_length() - 1]
                row ^= low
            out.append(acc)
        return out

    power = [1 << p for p in range(nodes * nodes)]
    while n:
        if n & 1:
            power = times(power, step)
        n >>= 1
        if n:
            step = times(step, step)
    return not any(power[p] >> p & 1
                   for p in range(nodes * nodes) if p // nodes != p % nodes)


def label_walk_bijective_sizes(rule, up_to):
    """The ring sizes n <= ``up_to`` at which ``pair_graph_bijective``
    holds, for a rule whose sibling sets hold each state once (strategy
    II), found without the d^(2m-2)-node pair matrix.

    Window u then leaves by exactly one edge labelled b, to delta_b(u),
    so a pair walk is fixed by its start and its label word w, and it
    closes at (u, v) iff the map delta_w fixes both u and v.  The global
    map is a bijection at size n iff no word of length n has a map with
    two fixed points; the maps of the words of each length are kept as
    one set of tuples.
    """
    d, nodes = rule.d, rule.d ** (rule.m - 1)
    delta = [[None] * nodes for _ in range(d)]
    for r, label in enumerate(rule.table):
        assert delta[label][r // d] is None, "a sibling set repeats a state"
        delta[label][r // d] = r % nodes
    maps, sizes = {tuple(range(nodes))}, set()
    for n in range(1, up_to + 1):
        maps = {tuple(step[u] for u in f) for f in maps for step in delta}
        if not any(sum(u == v for u, v in enumerate(f)) > 1 for f in maps):
            sizes.add(n)
    return sizes


@pytest.fixture(scope="session")
def second_approach_rules():
    lines = (DATA / "good_rules_second_approach.txt").read_text().split()
    assert len(lines) == 122
    return lines
