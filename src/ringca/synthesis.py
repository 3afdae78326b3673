"""Rule generators and randomness-oriented filters.

Three permutation strategies produce balanced rules with maximal
information flow in one direction (I: distinct values on every equivalent
set; II: on every sibling set; III: constant sibling sets arranged in
same-or-distinct groups).  On top of those, quiescent-state / fixed-point /
trivial-reachability filters select PRNG candidates, and a staged heuristic
assembles 10-state rules primary-set by primary-set.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from functools import cache, partial
from itertools import permutations, product

from .debruijn import (DeBruijnGraph, fixed_point_attractors, quiescent_states,
                       trivial_reachability)
# satisfies_strategy stays importable from here, where the strategies live
from .rules import (Rule, _flow, check_dims, satisfies_strategy,  # noqa: F401
                    self_replicating_rmts)

# largest rule table, in RMTs (d^m), that the strategy generators build
MAX_STRATEGY_RMTS = 1 << 20


class Lcg:
    """32-bit linear congruential generator, used for reproducible sampling.

    x <- (1664525 * x + 1013904223) mod 2^32 (Numerical Recipes constants);
    fixed here so synthesized rule lists are identical across platforms.
    The seed is taken mod 2^32: seed -5 gives the same draws as seed
    4294967291.

    ``randbelow(n)`` joins as many 32-bit draws as give n.bit_length() + 16
    bits, at least one word, and rejects values at or above the largest
    multiple of n below 2^(32 words).  Bounds below 2^16 need one word;
    for them ``randbelow`` takes the LCG step inline, and every shuffle
    runs through the one loop of :meth:`shuffle_blocks`.  That is the same
    algorithm, not an approximation: the same draws, the same rejections
    and the same ``state`` after every call.
    """

    def __init__(self, seed: int):
        self.state = seed & 0xFFFFFFFF

    def next_u32(self) -> int:
        self.state = (1664525 * self.state + 1013904223) & 0xFFFFFFFF
        return self.state

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        if n < 0x10000:
            limit = 0x100000000 - 0x100000000 % n
            state = self.state
            while True:
                state = (1664525 * state + 1013904223) & 0xFFFFFFFF
                if state < limit:
                    self.state = state
                    return state % n
        bits = max(n.bit_length() + 16, 32)
        words = (bits + 31) // 32
        span = 1 << (32 * words)
        limit = span - span % n
        while True:
            value = 0
            for _ in range(words):
                value = (value << 32) | self.next_u32()
            if value < limit:
                return value % n

    def shuffle(self, items: list) -> None:
        i = len(items) - 1
        while i >= 0xFFFF:  # bounds of 2^16 and more take several words
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
            i -= 1
        if i > 0:
            head = items[:i + 1]
            self.shuffle_blocks(head, i + 1)
            items[:i + 1] = head

    def shuffle_blocks(self, items: list, size: int) -> None:
        """Shuffle each block ``items[k:k + size]`` in place, first block
        first, with the draws that ``shuffle`` makes on each block in turn.

        ``size`` is at most 2^16 - 1, so every bound takes one word, and
        ``len(items)`` is a multiple of it.
        """
        if not 0 < size < 0x10000 or len(items) % size:
            raise ValueError(f"cannot shuffle {len(items)} items in blocks of {size}")
        # (offset, bound, rejection limit) of each draw within a block
        draws = [(i, i + 1, 0x100000000 - 0x100000000 % (i + 1))
                 for i in range(size - 1, 0, -1)]
        state = self.state
        for base in range(0, len(items), size):
            for i, n, limit in draws:
                state = (1664525 * state + 1013904223) & 0xFFFFFFFF
                while state >= limit:
                    state = (1664525 * state + 1013904223) & 0xFFFFFFFF
                i += base
                j = base + state % n
                items[i], items[j] = items[j], items[i]
        self.state = state

    def choice(self, items):
        return items[self.randbelow(len(items))]


@dataclass(frozen=True)
class StrategySpec:
    """Parameters for rule generation and candidate filtering."""

    kind: str  # "I" | "II" | "III"
    d: int = 3
    m: int = 3
    seed: int = 1
    min_reverse_flow: int = 8

    def __post_init__(self) -> None:
        if self.kind not in ("I", "II", "III"):
            raise ValueError(f"unknown strategy kind {self.kind!r}")
        # checked here, not by Rule: the generators size their tables as
        # d ** (m - 1), which is a float for m < 1
        check_dims(self.d, self.m)
        # d^m >= 2^m passes the bound once m reaches its bit length; the
        # power, huge for a huge m, is only taken below that
        if (self.m >= MAX_STRATEGY_RMTS.bit_length()
                or self.d ** self.m > MAX_STRATEGY_RMTS):
            raise ValueError(
                f"strategy tables hold at most {MAX_STRATEGY_RMTS} RMTs, "
                f"d^m is larger for d={self.d}, m={self.m}")
        if self.kind == "III" and self.m != 3:
            raise ValueError("strategy III is defined for 3-neighborhood rules only")
        if self.min_reverse_flow < 0:
            # every rule scores at least 0: such a bound would pass them all
            raise ValueError(
                f"min_reverse_flow must be at least 0, got {self.min_reverse_flow}")


def _shuffled_ranges(rng: Lcg, d: int, count: int) -> list[int]:
    """``count`` shuffles of ``range(d)``, one after another, in one list."""
    values = list(range(d)) * count
    rng.shuffle_blocks(values, d)
    return values


def _strategy_i(rng: Lcg, d: int, m: int) -> Rule:
    sets = _shuffled_ranges(rng, d, d ** (m - 1))
    # equivalent set i is RMTs i, i + d^(m-1), ...: value k of every set
    # fills the k-th block of d^(m-1) RMTs
    table = []
    for k in range(d):
        table += sets[k::d]
    return Rule(d, m, tuple(table))


def _strategy_ii(rng: Lcg, d: int, m: int) -> Rule:
    return Rule(d, m, tuple(_shuffled_ranges(rng, d, d ** (m - 1))))


def _rule_from_grid(grid, by_row: bool) -> Rule:
    """Strategy-III rule from a d x d grid of sibling-set values: set j is
    constant with value grid[j // d][j % d] when the grid is read by rows,
    grid[j % d][j // d] when it is read by columns."""
    d = len(grid)
    table = []
    for j in range(d * d):
        k, i = divmod(j, d)
        table += [grid[k][i] if by_row else grid[i][k]] * d
    return Rule(d, 3, tuple(table))


def strategy_iii_rules(d: int):
    """Every strategy-III clause combination, in clause order.

    Sibling sets are constant (clause 1).  The d^2 set values form a d x d
    grid; either all rows (sets Sibl_kd .. Sibl_kd+d-1) or all columns
    (sets congruent mod d) are constant or are permutations.  Yields
    2 * (d! + (d!)^d) rules, counting one per clause combination; some
    rules satisfy several clauses and repeat.
    """
    perms = list(permutations(range(d)))
    for by_row in (True, False):
        # constant lines: line k takes c[k]; balance forces c to be a permutation
        for c in perms:
            yield _rule_from_grid([[ck] * d for ck in c], by_row)
        # all-distinct lines: each line an independent permutation
        for lines in product(perms, repeat=d):
            yield _rule_from_grid(lines, by_row)


def _strategy_iii(rng: Lcg, d: int) -> Rule:
    fact = math.factorial(d)
    weights = [fact, fact ** d, fact, fact ** d]
    pick = rng.randbelow(sum(weights))
    family = 0
    for family, w in enumerate(weights):
        if pick < w:
            break
        pick -= w
    if family % 2 == 0:  # constant lines
        grid = [[ck] * d for ck in _shuffled_ranges(rng, d, 1)]
    else:
        lines = _shuffled_ranges(rng, d, d)
        grid = [lines[k:k + d] for k in range(0, d * d, d)]
    return _rule_from_grid(grid, by_row=family < 2)


def iter_strategy(spec: StrategySpec, count: int) -> Iterator[Rule]:
    """Sample ``count`` rules per the chosen strategy, reproducibly, one at
    a time: the rules of :func:`generate_strategy`, in its order."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng, d, m = Lcg(spec.seed), spec.d, spec.m
    if spec.kind == "I":
        draw = partial(_strategy_i, rng, d, m)
    elif spec.kind == "II":
        draw = partial(_strategy_ii, rng, d, m)
    else:
        draw = partial(_strategy_iii, rng, d)
    return (draw() for _ in range(count))


def generate_strategy(spec: StrategySpec, count: int) -> list[Rule]:
    """Sample ``count`` rules per the chosen strategy, reproducibly."""
    return list(iter_strategy(spec, count))


# -- candidate filters -----------------------------------------------------


def filter_randomness_candidates(
    rules, spec: StrategySpec | None = None, *, strict: bool = False
) -> list[Rule]:
    """Keep rules whose attractor structure suits a PRNG.

    Requirements: exactly one quiescent state, no fixed point other than
    the quiescent one, and information flow of at least
    ``spec.min_reverse_flow`` set-score units in the weaker direction.
    With ``strict=True``, additionally reject any rule for which some
    trivial configuration s^n has a non-trivial predecessor.

    Both attractor tests ask only whether a de Bruijn subgraph has a cycle
    of two or more RMTs, so :meth:`DeBruijnGraph.has_cycle` answers them
    without listing a cycle.  The self-loops of B(m-1, d) are exactly the
    homogeneous RMTs s^m.  Fixed points are the cycles of the
    self-replicating subgraph, whose self-loops are the homogeneous RMTs
    of the quiescent states; so, with exactly one quiescent state, its
    fixed point is the only one iff that subgraph less the homogeneous
    RMTs is acyclic.  The predecessors of s^n are the cycles of the
    R[r] = s subgraph, and those of length 1 are trivial configurations;
    so ``strict`` holds iff every per-value subgraph less the homogeneous
    RMTs is acyclic.

    Each call logs its rejections, counted by the first test a rule
    fails, and the rules kept as one DEBUG record on the
    ``ringca.synthesis`` logger.
    """
    min_flow = (spec.min_reverse_flow if spec is not None
                else StrategySpec.min_reverse_flow)
    kept = []
    quiescent = fixed_point = flow = trivial = 0  # rejections by reason
    shape = None  # (d, m) of the tables below
    for rule in rules:
        if len(quiescent_states(rule)) != 1:
            quiescent += 1
            continue
        d = rule.d
        if (d, rule.m) != shape:
            shape = d, rule.m
            graph = DeBruijnGraph(d, rule.m)
            homogeneous = {rule.homogeneous_rmt(s) for s in range(d)}
            others = [r for r in range(rule.num_rmts) if r not in homogeneous]
        selfrep = self_replicating_rmts(rule)
        if graph.has_cycle(selfrep - homogeneous):
            fixed_point += 1
            continue
        scores = _flow(rule, selfrep)
        if min(scores.left_changes, scores.right_changes) < min_flow:
            flow += 1
            continue
        if strict:
            by_value: list[list[int]] = [[] for _ in range(d)]
            table = rule.table
            for r in others:
                by_value[table[r]].append(r)
            if any(map(graph.has_cycle, by_value)):
                trivial += 1
                continue
        kept.append(rule)
    import logging  # see synthesize_decimal
    logging.getLogger(__name__).debug(
        "filter_randomness_candidates(strict=%s, min_reverse_flow=%d): "
        "%d rejected by quiescent states, %d by fixed points, %d by "
        "information flow, %d by trivial predecessors, %d kept", strict,
        min_flow, quiescent, fixed_point, flow, trivial, len(kept))
    return kept


def equivalent_sets_acceptable(rule: Rule) -> bool:
    """Asymmetry condition on the equivalent sets of a finished rule: no
    set constant, and not every set fully distinct."""
    all_distinct = 0
    for i in range(rule.num_sets):
        values = [rule.table[r] for r in rule.equivalent_set(i)]
        if len(set(values)) == 1:
            return False
        if len(set(values)) == rule.d:
            all_distinct += 1
    return all_distinct < rule.num_sets


def verify_rule(rule: Rule, max_len: int | None = 4) -> bool:
    """Accept a PRNG candidate: no periodic fixed point and no non-trivial
    predecessor of any trivial configuration, among cycles up to ``max_len``.

    This is the one bad-cycle test on finished rules.  It runs the
    package's one cycle search, :meth:`DeBruijnGraph.cycles`, first on the
    self-replicating subgraph (``fixed_point_attractors``), where a cycle
    of length 2 or more rejects the rule, and then, only if none is
    found, on each per-value subgraph (``trivial_reachability``).  The cap
    mirrors the staged cardinality limit of the synthesis.  It is also a
    hard necessity: in a rule whose sibling sets are permutations, each of
    those subgraphs has one outgoing edge per node, so each contains
    *some* cycle, of any length up to d^(m-1); only the short ones are
    controllable.
    """
    if any(period >= 2 for _, period in fixed_point_attractors(rule, max_len=max_len)):
        return False
    return not trivial_reachability(rule, max_len=max_len).nontrivial_predecessors()


# -- staged decimal synthesis ------------------------------------------------


def assignment_stages(d: int = 10) -> list[list[tuple[int, ...]]]:
    """Primary RMT sets in staged assignment order, per cardinality 1..4.

    Stage by stage: the d singletons; the pairs {iji, jij}; the triples
    through digit 0; then the quadruples, skipping any whose RMTs were all
    covered by earlier stages.  For d = 10 the stages hold 10, 45, 90 and
    648 sets and together cover all 1000 RMTs.
    """
    def rmt(a, b, c):
        return a * d * d + b * d + c

    stages: list[list[tuple[int, ...]]] = [[], [], [], []]
    assigned: set[int] = set()

    for i in range(d):
        stages[0].append((rmt(i, i, i),))
        assigned.add(rmt(i, i, i))
    for i in range(d - 1):
        for j in range(i + 1, d):
            cycle = (rmt(i, j, i), rmt(j, i, j))
            stages[1].append(cycle)
            assigned.update(cycle)
    for i in range(d):
        for j in range(1, d):
            cycle = (rmt(0, i, j), rmt(i, j, 0), rmt(j, 0, i))
            stages[2].append(cycle)
            assigned.update(cycle)
    for l in range(d):
        for i in range(1, d):
            for j in range(d):
                for k in range(1, d):
                    if (l == i == j) or (i == j == k) or (j == k == l) or (k == l == i):
                        continue
                    cycle = (rmt(l, i, j), rmt(i, j, k), rmt(j, k, l), rmt(k, l, i))
                    if len(set(cycle)) < 4:
                        continue
                    if all(r in assigned for r in cycle):
                        continue
                    stages[3].append(cycle)
                    assigned.update(cycle)
    return stages


@cache
def _decimal_stages() -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The stages of ``assignment_stages(10)``, built once: every decimal
    synthesis assigns the same sets in the same order."""
    return tuple(map(tuple, assignment_stages(10)))


class _DeadEnd(Exception):
    """A forced assignment closed a short bad cycle; retry the attempt."""


_DIGITS = frozenset(range(10))  # the states of a decimal rule


class _DecimalAssembler:
    """One synthesis attempt: value assignment over the staged sets.

    RMT r = abc is the de Bruijn edge from window ab = r // 10 to window
    bc = r % 100.  :meth:`_set`, the one writer of ``table``, keeps two
    tables current:

    - ``succ[v][w]``: the head window of the v-valued RMT leaving window
      w, or -1 if there is none;
    - ``behind[v][w]``: the length of the longest v-valued RMT walk
      ending at w, capped at ``cap`` = 2 * max_run.

    Sibling set t is ``table[10t:10t+10]`` and equivalent set w (the
    RMTs entering window w) is ``table[w::100]``; unassigned RMTs read -1.

    One ``succ`` entry per (v, w) suffices because sibling sets stay
    injective throughout assembly (a value is only allowed if its sibling
    set does not hold it yet): the RMTs leaving w form sibling set w, so
    at most one of them is v-valued, and at most one self-replicating.
    A forward walk is therefore unique, and :meth:`_runs` scores a value
    v for r with one walk along ``succ[v]`` from r's head window: its
    length gives the run out of r, and whether it meets r's tail window
    within 3 steps tells whether v would close a short constant cycle.
    Walks ending at w are not unique, so ``behind`` is kept instead:
    within one attempt RMTs are only ever added, so walks only get longer
    and ``behind`` only grows.  A new v-valued edge t -> h lengthens the
    walks that leave h, which follow ``succ[v]``; the update stops where
    a value no longer grows, since nothing ahead of an unchanged value
    changes.
    """

    def __init__(self, rng: Lcg, max_run: int):
        self.rng = rng
        self.max_run = max_run
        self.cap = 2 * max_run
        self.table = [-1] * 1000
        self.succ = [[-1] * 100 for _ in range(10)]
        self.behind = [[0] * 100 for _ in range(10)]

    def assemble(self, stages: Sequence[Sequence[tuple[int, ...]]]) -> tuple[int, ...]:
        """Random singletons, then the later stages set by set; raises
        :class:`_DeadEnd` when an RMT has no safe value."""
        for (r,) in stages[0]:
            self._set(r, self.rng.randbelow(10))
        for stage in stages[1:]:
            for cycle in stage:
                self.assign_cycle(cycle)
        return tuple(self.table)

    def _set(self, r: int, v: int) -> None:
        t, h = r // 10, r % 100
        self.table[r] = v
        succ, behind, cap = self.succ[v], self.behind[v], self.cap
        succ[t] = h
        # walks leaving h may now start behind t
        w, n = h, behind[t]
        if n < cap:
            n += 1
        while w >= 0 and behind[w] < n:
            behind[w] = n
            w = succ[w]
            if n < cap:
                n += 1

    def _runs(self, r: int, values: list[int]) -> list[tuple[int, int]]:
        """(run, v) for each v of ``values``, in order, that closes no
        constant or self-replicating cycle of 2..4 RMTs through RMT r.

        The values must be free in r's sibling set, so no v-valued RMT
        leaves r's tail window.  A bad cycle is r and a walk of 1..3 RMTs
        from r's head window back to its tail window: along v-valued RMTs,
        or, if v is r's middle digit, along self-replicating ones (window
        w leaves by value w % 10).  Length-1 loops are the trivial fixed
        points and stay allowed.  The run is the longest v-valued walk
        through r if r took v: ``behind`` at the tail window, r itself,
        and the walk out of the head window, capped at ``cap``.  They are
        walks, not paths: the cap ends a walk caught in a cycle, such as
        a v-valued self-loop, and r, unassigned, is on none of them.  One
        walk along ``succ[v]``, of up to max(cap, 3) steps, gives both the
        run out of r and the constant-cycle test; it ends where it meets
        the tail window.
        """
        tail, head = r // 10, r % 100
        middle, cap, succ, behind = tail % 10, self.cap, self.succ, self.behind
        reach = cap if cap > 3 else 3
        closing = -1  # the middle digit, if it closes a self-replicating cycle
        if middle in values:
            w = head
            for _ in range(3):
                w = succ[w % 10][w]
                if w < 0:
                    break
                if w == tail:
                    closing = middle
                    break
        runs = []
        for v in values:
            ahead, n, w = succ[v], 0, head
            while n < reach:
                w = ahead[w]
                if w < 0:
                    break
                n += 1
                if w == tail:
                    break
            if (w == tail and n <= 3) or v == closing:
                continue
            runs.append((behind[v][tail] + 1 + (n if n < cap else cap), v))
        return runs

    def assign_cycle(self, cycle: tuple[int, ...]) -> None:
        """Assign the unassigned RMTs of one staged set, tightest sibling
        set first.  :meth:`_runs` scores each allowed value of an RMT with
        one forward walk; the RMT draws at random among the safe values
        whose run stays below max_run, or takes the shortest run, least
        value first, when none does.  Raises :class:`_DeadEnd` when no
        value is safe."""
        table, max_run, choice = self.table, self.max_run, self.rng.choice
        todo = [r for r in cycle if table[r] == -1]
        # fill the tightest sibling sets first; their slots are forced anyway
        if len(todo) > 1:
            todo.sort(key=lambda r: table[r - r % 10:r - r % 10 + 10].count(-1))
        for r in todo:
            base = r - r % 10
            allowed = sorted(_DIGITS.difference(table[base:base + 10]))
            runs = self._runs(r, self._prune(r, allowed))
            if not runs:
                raise _DeadEnd  # every value closes a short bad cycle
            candidates = [v for run, v in runs if run < max_run]
            # else no value avoids a long run: take the least-bad one
            self._set(r, choice(candidates) if candidates else min(runs)[1])

    def _prune(self, r: int, allowed: list[int]) -> list[int]:
        """``allowed`` less the value that would complete r's equivalent
        set with one repeated value, or ``allowed`` if that leaves none."""
        equi = self.table[r % 100::100]
        if equi.count(-1) == 1 and len(set(equi)) == 2:
            return [v for v in allowed if v not in equi] or allowed
        return allowed


def synthesize_decimal(count: int, seed: int = 1, max_run: int = 3,
                       max_attempts_per_rule: int = 200) -> list[Rule]:
    """Heuristically assemble 10-state PRNG candidate rules.

    Values are assigned to the staged primary RMT sets in cardinality
    order, keeping sibling sets injective, closing no constant or
    self-replicating cycle of 2..4 RMTs, and keeping same-value runs
    shorter than ``max_run`` where a value allows it (a run through an
    RMT counts the RMT itself, so ``max_run`` must be at least 2).  An
    attempt that meets an RMT with no safe value is a dead end; a
    finished rule that fails :func:`equivalent_sets_acceptable` is
    rejected.  Both are retried.  Each call logs its attempts, dead ends
    and rejections, and the RMTs that the dead-end attempts had assigned,
    as one DEBUG record on the ``ringca.synthesis`` logger.

    Every finished rule passes ``verify_rule(rule, 4)``, so it is not
    asked:

    - every RMT but the ten homogeneous ones is set by
      :meth:`_DecimalAssembler.assign_cycle`, with a value that
      :meth:`_DecimalAssembler._runs` kept;
    - an elementary cycle of 2..4 RMTs holds no homogeneous RMT, since
      those are the de Bruijn graph's self-loops;
    - so the last RMT of such a cycle to be assigned was scored by
      ``_runs`` while the rest of the cycle was already in ``succ``;
    - ``_runs`` rejects exactly the v-valued and the self-replicating
      closed walks of at most 4 RMTs through r, which are what
      ``verify_rule(rule, 4)`` looks for.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if max_run < 2:
        raise ValueError("max_run must be at least 2")
    if max_attempts_per_rule < 1:
        raise ValueError("max_attempts_per_rule must be at least 1")
    rng = Lcg(seed)
    stages = _decimal_stages()
    out: list[Rule] = []
    attempts = dead_ends = unequal = lost = 0
    try:
        while len(out) < count:
            if attempts >= max_attempts_per_rule * count:
                raise RuntimeError("synthesis rejection rate too high")
            attempts += 1
            assembler = _DecimalAssembler(rng, max_run)
            try:
                table = assembler.assemble(stages)
            except _DeadEnd:
                dead_ends += 1
                lost += 1000 - assembler.table.count(-1)
                continue
            if -1 in table:  # every RMT is covered by the stages
                raise AssertionError("staged sets failed to cover the rule table")
            rule = Rule(10, 3, table)
            if equivalent_sets_acceptable(rule):
                out.append(rule)
            else:
                unequal += 1
    finally:
        # imported here: at the top it would add about 8 ms, some 8%, to
        # importing ringca.cli (2-core Xeon, Python 3.11.7), for a record
        # that is silent by default
        import logging
        logging.getLogger(__name__).debug(
            "synthesize_decimal(%d, seed=%d, max_run=%d): %d attempts, "
            "%d dead ends, %d rejected by equivalent_sets_acceptable, "
            "%d accepted, %d RMTs lost to dead ends", count, seed, max_run,
            attempts, dead_ends, unequal, len(out), lost)
    return out


# -- permutation-form rules --------------------------------------------------


def _rot_right(seq: tuple[int, ...], k: int) -> tuple[int, ...]:
    k %= len(seq)
    return seq[-k:] + seq[:-k] if k else seq


def rule_from_permutation(perm) -> Rule:
    """Expand a 10-digit permutation into a full 10-state rule.

    Sibling set 0 takes the permutation; sets 1..9 take right rotations of
    it by the set index; sets 10..99 rotate set (j mod 10) by j // 10; then
    each set j*10+i with i < j is replaced by set i*10+j, which balances
    the cardinality-2 primary sets.
    """
    if isinstance(perm, str):
        # a character that is not a digit reads -1, which the check rejects
        digits = tuple(map("0123456789".find, perm))
    else:
        digits = tuple(perm)
    if sorted(digits) != list(range(10)):
        raise ValueError("need a permutation of the digits 0-9")
    sibl: list[tuple[int, ...]] = [()] * 100
    sibl[0] = digits
    for i in range(1, 10):
        sibl[i] = _rot_right(digits, i)
    for j in range(10, 100):
        sibl[j] = _rot_right(sibl[j % 10], j // 10)
    for i in range(9):
        for j in range(i + 1, 10):
            sibl[j * 10 + i] = sibl[i * 10 + j]
    table = [0] * 1000
    for j in range(100):
        for t in range(10):
            table[10 * j + t] = sibl[j][t]
    return Rule(10, 3, tuple(table))


def permutation_of(rule: Rule) -> str:
    """Sibling set 0 of a 10-state rule, as a digit string."""
    if rule.d != 10 or rule.m != 3:
        raise ValueError("permutation form applies to 10-state, 3-neighborhood rules")
    return "".join(str(rule.table[t]) for t in range(10))
