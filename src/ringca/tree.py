"""Reachability-tree reversibility analysis.

The reachability tree of an n-cell CA is a d-ary edge-labeled tree whose
root-to-leaf paths enumerate exactly the reachable configurations.  Each
node is an ordered list of d^(m-1) RMT sets (one per sibling-set slot).
The global map is a bijection for size n iff every node is balanced and
carries the right number of RMTs: d^m at generic levels, d^iota at level
n - iota (1 <= iota <= m-1), where those last levels keep only a fixed
valid subset of RMTs.

Because equal nodes root equal subtrees, the tree collapses to a finite
*minimized* tree of unique nodes whose re-occurrences are tracked as level
sets with loop links.  A node present at levels q and q + L reappears at
q + 2L, q + 3L, ...; projecting those occurrences onto the special levels
n - iota decides reversibility for arbitrary n and yields arithmetic
progressions of sizes ("n = modulus*j + offset") at which the CA is
irreversible.

One loop rule keeps a node's level set, with least level q and a loop
l - q to each other level l, as the node is met again at level i.  Below
q the occurrence is ignored.  Otherwise the loops are read shortest
first, and the first that decides wins: one that divides i - q implies
the occurrence, and nothing is recorded; one that shares a factor g > 1
with i - q collapses the set to {i - g, i}, and so does a loop 2 with an
odd i - q, or any loop with i - q = 1, for g = 1, since the two loops
then reach every level from i - 1 on.  If no loop decides, i joins the
set.  Loops in a set therefore share no factor, and a set holding q + 1
is the self-loop {q, q + 1}; a node that becomes one makes each expanded
child a self-loop one level down, at {q + 1, q + 2}, unless the child
already is one.

A level set is stored as an int with bit l set for level l, so shifting a
parent's levels one level down is one shift, and the loops are read by
peeling its bits from the lowest.  Level sets and claims are replaced,
never changed in place, which lets new siblings share the ones they
start from.  An int costs more memory than a set of the same levels only
once its levels pass about 1,500; the deepest level recorded by the
classify tree of any rule in the tests' golden file is 121.

Each unique node is judged once, when it is created: whether it fails the
generic balance and d^m count, and at which last levels n - iota its
restricted content would fail.  Both judgements surface as progressions
of irreversible ring sizes, the same (start, period) type as the node's
occurrence claims: a generic failure as every size from its first level
plus m on, a bad last level iota as each claim shifted by iota, reported
once per claim: at creation, and for each claim a re-occurrence adds.

A slot's content is an integer bitmask over the d^m RMTs; RMT
multiplicity across the d^(m-1) set slots is what the balance and
cardinality conditions count.  One rule's tree holds few distinct slot
contents (100 for the 10-state rule of permutation 8572036419, against
100 slots in each of thousands of nodes), so each gets a small int id.
Per-rule tables, kept for one ``check_reversible`` or ``classify`` call,
are indexed by id.  One list per branch holds each id's child along that
branch; the lists grow in id order before a parent is expanded.

A node is stored as ``bytes`` of its slot ids, one byte per slot, so
its d children are d ``bytes.translate`` calls through the child lists
as 256-byte tables, and a node's hash, taken by the index lookup that
finds most children already known, is computed once.  Ids fit a byte
only while the tree holds at most 256 contents; a tree that meets a
257th (a random balanced 10-state rule meets over 300 among the root's
children) is built again from the root with tuple nodes, whose children
are one ``itemgetter`` read of each child list.  The build is
deterministic, so the node type is the only difference between the two.

Value counts are packed into one int, with fields wide enough that a
node's sum never carries: a node is balanced with the right total t
exactly when its slots' packed counts sum to t/d in every field.  Level
n - iota keeps in slot k the RMTs r with r mod d^(m-iota) = k div
d^(iota-1), so the counts of a slot's restriction are one entry of a
per-content table of counts by residue.  One list per slot index holds,
by id, the counts of the full content and of its restriction to every
last level, one field group per level, so judging a unique node is one
sum over its slots.  A content's entries at every slot index, its
column, are filled together the first time a judged node holds it, with
its residue tables computed then and not when it is interned: the large
trees judge every content, while a tree decided near the root judges few
of the contents it interns (about 130 of 330 for a random balanced
10-state rule checked at n = 5).  No restricted content or node is ever
built: a fixed-size check judges the levels below n - m + 1 by walking
full contents with the same verdict.

A bipermutive rule, one that holds each state once on every sibling set
and on every equivalent set (``satisfies_strategy`` "I" and "II", as
every ``rule_from_permutation`` rule does), has a tree whose every node
holds each sibling set once.  Proof: the root does.  If slot k of a node
holds sibling set j, its child along branch b holds the sibling sets of
the RMTs of Sibl_j labelled b, and Sibl_j labels exactly one RMT r with
b, so the child slot holds the one sibling set r mod d^(m-1).  Two
slots holding Sibl_j and Sibl_j' map to the same set only if their RMTs
r and r' labelled b lie in one equivalent set, which labels b once, so
r = r' and j = j'.  Each branch thus permutes the sibling sets, and
every node passes the generic count as the root does.  This is the tree's
view of Hedlund's (1969) result that such a rule is surjective: only the
last levels n - iota decide its reversibility, so its fixed-size check
judges a node at those alone, and only once the node's claims reach one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from operator import add, getitem, itemgetter, setitem

from .rules import Rule, is_balanced, satisfies_strategy

TreeNode = tuple[frozenset[int], ...]

_MAX_NODES = 500_000  # safety valve for pathological rules


class TreeSizeError(RuntimeError):
    """Minimized tree exceeded the safety cap (pathological rule)."""


# ---------------------------------------------------------------------------
# rule-specific precomputation and node primitives


class _WideNodes(Exception):
    """A tree of byte nodes met its 257th slot content."""


class _Context:
    """Per-rule tables used by all node operations.

    Each distinct slot content, a bitmask over the d^m RMTs, gets a small
    int id when first met (``intern``).  ``root`` makes a node ``bytes``
    of its slot ids while the context holds at most 256 contents, and a
    tuple of them after; a node's children have its type.

    ``child_slot[b]`` is a list mapping a slot id to the id of its child
    along branch b.  ``grow(top)`` fills the d lists in id order up to
    ``top``, so each content is expanded once per branch.  While every id
    fits a byte, ``tables[b]`` holds the same list as a 256-byte translate
    table, rebuilt whenever ``grow`` expands new ids, and the children of
    a byte node are d ``bytes.translate`` calls.  The 257th content ends
    the tables (``tables`` becomes None), and ``children`` of a byte node
    then raises ``_WideNodes``, so that the build starts again from the
    root with tuple nodes, whose children are one ``itemgetter(*gamma)``
    read of each child list.

    ``judge[k]`` maps the id held in slot k to one int of m field groups:
    group 0 holds the d value counts of the full content, group iota
    (1 <= iota <= m-1) those of its restriction to level n - iota, which
    keeps the RMTs r with ``r % d**(m-iota) == k // d**(iota-1)``.  So
    group iota is one entry of the content's residue table for iota, its
    value counts by residue of r modulo d**(m-iota) (``_counts``).  A
    node's verdict is one sum per unique node,
    ``sum(map(getitem, judge, gamma))``, over plain lists.  A node that
    holds an id no judged node held before fails that sum on a missing
    entry; ``_fill_columns`` then computes the residue tables of each such
    content and writes its entries at every slot index, its column, before
    the sum is taken again.  Only group 1, whose residue table is as wide
    as a node, costs a Python step per entry, and only at its non-zero
    entries, the slots ``r % d**(m-1)`` of the content's own RMTs: group
    0's total is added to the smallest residue table, groups 2 and up are
    read at every slot by the ``residues`` getters, and one
    ``map(setitem, ...)`` writes the column.  The total's group 0 must
    read d^m RMTs, balanced, and each group iota d^iota, or the node
    fails at n - iota.  Verdicts are kept by the total's difference from
    a passing one, so nodes that fail alike share one.
    """

    def __init__(self, rule: Rule):
        d, m = rule.d, rule.m
        self.d = d
        self.m = m
        self.num_rmts = d ** m
        self.num_sets = d ** (m - 1)
        # RMTs labelled with each next-state value
        self.value_mask = [0] * d
        for r, v in enumerate(rule.table):
            self.value_mask[v] |= 1 << r
        # sibling expansion of a single RMT: Sibl_(r mod d^(m-1))
        block = (1 << d) - 1
        self.expand = [block << (d * j) for j in range(self.num_sets)] * d
        # value counts of a slot, one bit field per value; the fields are
        # wide enough that a node's sum never carries from one to the next
        self.width = (self.num_sets * self.num_rmts).bit_length() + 1
        self.ones = sum(1 << (v * self.width) for v in range(d))
        self.group = d * self.width  # shift from one field group to the next
        self.group_mask = (1 << self.group) - 1
        # the judge total of a node that passes everywhere: d^m RMTs in
        # group 0, d^iota in group iota, equally many of every value
        self.passing = sum((d ** (iota - 1) if iota else self.num_sets)
                           * self.ones << (iota * self.group) for iota in range(m))
        # field group iota counts the RMTs of a slot by their residue
        # modulo steps[iota]; the full content (iota 0) is residue 0 mod 1.
        # units[iota][r] is one RMT r in its value's field of group iota
        self.steps = [1] + [d ** (m - iota) for iota in range(1, m)]
        self.units = [list(map([1 << (v * self.width + iota * self.group)
                                for v in range(d)].__getitem__, rule.table))
                      for iota in range(m)]
        # slot k keeps residue k // d**(iota-1) in field group iota: k
        # itself in group 1, and these getters' entries in groups 2 and up
        self.residues = [itemgetter(*(k // d ** (iota - 1) for k in range(self.num_sets)))
                         for iota in range(2, m)]
        self.masks: list[int] = []  # slot id -> RMT bitmask
        self.ids: dict[int, int] = {}  # RMT bitmask -> slot id
        # per slot index: slot id -> packed counts of every field group,
        # or None until a judged node holds the id
        self.judge: list[list[int | None]] = [[] for _ in range(self.num_sets)]
        self.verdicts: dict[int, tuple[bool, frozenset[int]]] = {}  # by diff
        # slot id -> child slot id, one list per branch, and the same as
        # translate tables while every id fits a byte
        self.child_slot: list[list[int]] = [[] for _ in range(d)]
        self.tables: list[bytes] | None = [bytes(256)] * d

    def intern(self, mask: int) -> int:
        """Slot id of one slot's RMT bitmask."""
        sid = self.ids.get(mask)
        if sid is None:
            sid = self.ids[mask] = len(self.masks)
            if sid == 256:
                self.tables = None  # ids no longer fit a byte
            self.masks.append(mask)
        return sid

    def grow(self, top: int) -> None:
        """Fill the child lists of every slot id up to ``top``."""
        start = len(self.child_slot[0])
        if top < start:
            return
        expand = self.expand
        for sid in range(start, top + 1):
            mask = self.masks[sid]
            for vmask, table in zip(self.value_mask, self.child_slot):
                # the sibling sets of the slot's RMTs labelled with the branch
                out = 0
                bits = mask & vmask
                while bits:
                    low = bits & -bits
                    out |= expand[low.bit_length() - 1]
                    bits ^= low
                table.append(self.intern(out))
        if self.tables is not None:
            self.tables = [bytes(table).ljust(256, b"\0") for table in self.child_slot]

    def _counts(self, mask: int) -> list[list[int]]:
        """Residue tables of a content, one per field group: group iota
        counts the content's RMTs by residue modulo ``steps[iota]``."""
        tables = [[0] * step for step in self.steps]
        groups = list(zip(tables, self.steps, self.units))
        while mask:
            low = mask & -mask
            r = low.bit_length() - 1
            for table, step, units in groups:
                table[r % step] += units[r]
            mask ^= low
        return tables

    def _fill_columns(self, gamma: bytes | tuple[int, ...]) -> None:
        """Fill the judge entries of the node's contents that no judged
        node held before, each content at every slot index at once."""
        judge = self.judge
        if len(judge[0]) < len(self.masks):
            pad = [None] * (len(self.masks) - len(judge[0]))
            for table in judge:
                table.extend(pad)
        slots = range(self.num_sets)
        for sid in set(gamma):
            if judge[0][sid] is None:
                (total,), first, *rest = self._counts(self.masks[sid])
                if rest:
                    # group 0 folded into the smallest residue table, and
                    # groups 2 .. m-1 read at every slot by their getters
                    *rest, low = rest
                    column = self.residues[-1]([count + total for count in low])
                    for table, residues in zip(rest, self.residues):
                        column = map(add, column, residues(table))
                    column = list(column)
                    # group 1 at the slots k = r % d**(m-1) of its RMTs
                    for k in compress(slots, first):
                        column[k] += first[k]
                else:  # m = 2: group 1 alone is d**(m-1) wide
                    column = [count + total for count in first]
                any(map(setitem, judge, repeat(sid), column))  # runs to the end

    def root(self) -> bytes | tuple[int, ...]:
        """The root node, as bytes while the ids fit a byte."""
        block = (1 << self.d) - 1
        ids = [self.intern(block << (self.d * k)) for k in range(self.num_sets)]
        return tuple(ids) if self.tables is None else bytes(ids)

    def children(self, gamma: bytes | tuple[int, ...]) -> list:
        """The node's d children, in branch order and of its type: one
        translate or one read of each child list.  Raises ``_WideNodes``
        if a child of a byte node holds an id past 255."""
        if len(self.child_slot[0]) < len(self.masks):
            self.grow(max(gamma))
        if type(gamma) is tuple:
            return list(map(itemgetter(*gamma), self.child_slot))
        if self.tables is None:
            raise _WideNodes
        return list(map(gamma.translate, self.tables))

    def verdict(self, gamma: bytes | tuple[int, ...]) -> tuple[bool, frozenset[int]]:
        """Whether the node passes the generic balance and d^m count, and
        at which last levels n - iota its restricted content would fail."""
        try:
            total = sum(map(getitem, self.judge, gamma))
        except (IndexError, TypeError):  # a content not yet judged
            self._fill_columns(gamma)
            total = sum(map(getitem, self.judge, gamma))
        diff = total ^ self.passing
        verdict = self.verdicts.get(diff)
        if verdict is None:
            mask = self.group_mask
            verdict = self.verdicts[diff] = (not diff & mask, frozenset(
                iota for iota in range(1, self.m) if diff >> (iota * self.group) & mask))
        return verdict


# -- public node operations (set-of-frozensets view) ------------------------


def _to_masks(node: TreeNode) -> tuple[int, ...]:
    return tuple(sum(1 << r for r in s) for s in node)


def _to_sets(masks) -> TreeNode:
    out = []
    for g in masks:
        members = set()
        while g:
            low = g & -g
            members.add(low.bit_length() - 1)
            g ^= low
        out.append(frozenset(members))
    return tuple(out)


def root_node(rule: Rule) -> TreeNode:
    """The tree root: slot k holds sibling set k."""
    ctx = _Context(rule)
    return _to_sets(ctx.masks[sid] for sid in ctx.root())


def child_node(node: TreeNode, rule: Rule, branch: int) -> tuple[TreeNode, TreeNode]:
    """Label and child of ``node`` along the branch for state ``branch``."""
    if not 0 <= branch < rule.d:
        raise ValueError(f"branch must be a state < {rule.d}")
    ctx = _Context(rule)
    masks = _to_masks(node)
    child = ctx.children(tuple(map(ctx.intern, masks)))[branch]
    vmask = ctx.value_mask[branch]
    return (_to_sets(g & vmask for g in masks),
            _to_sets(ctx.masks[sid] for sid in child))


def restrict_last_levels(node: TreeNode, rule: Rule, iota: int) -> TreeNode:
    """Node content as it appears at level n - iota (valid RMTs only)."""
    if not 1 <= iota <= rule.m - 1:
        raise ValueError(f"iota must be in [1, {rule.m - 1}]")
    # slot k keeps the RMTs r with r % step == k // span
    d, m = rule.d, rule.m
    step, span = d ** (m - iota), d ** (iota - 1)
    comb = sum(1 << (j * step) for j in range(d ** iota))
    return _to_sets(g & comb << k // span for k, g in enumerate(_to_masks(node)))


# ---------------------------------------------------------------------------
# minimized tree construction


class _Node:
    """One unique node of the minimized tree.

    ``levels`` is its level set as an int, with bit l set when the node
    occurs at level l, and ``claims`` a frozenset.  Both are replaced,
    never changed in place, so new siblings share the objects they start
    from.
    """

    __slots__ = ("gamma", "levels", "children", "created_level", "claims",
                 "bad_iotas")

    def __init__(self, gamma, levels, claims, bad_iotas, created_level):
        self.gamma = gamma
        self.levels: int = levels
        self.children: list[int] | None = None
        self.created_level = created_level  # construction pass of discovery
        # occurrence claims accumulated over every level-set state, as
        # progressions (see ``_covers``)
        self.claims: frozenset[tuple[int, int]] = claims
        self.bad_iotas = bad_iotas  # None while unjudged (_BipermutiveBuilder)


def _covers(progressions, p: int) -> bool:
    """Whether one of the (start, period) progressions holds ``p``: period
    0 is the single point start, period 1 every p >= start, and period L
    the points start + j*L."""
    for start, period in progressions:
        if p == start or period and p > start and (p - start) % period == 0:
            return True
    return False


def _state_claims(levels: int) -> set[tuple[int, int]]:
    """Claims of one level set: its least level q on its own, and q's loop
    to each other level, so {q, q + 1} is a self-loop, every level >= q."""
    low = levels & -levels
    q = low.bit_length() - 1
    claims = {(q, 0)}
    rest = levels ^ low
    while rest:
        low = rest & -rest
        claims.add((q, low.bit_length() - 1 - q))
        rest ^= low
    return claims


class _Builder:
    """Shared minimized-tree construction with loop bookkeeping.

    A subclass fills two hooks: ``_done(level)`` says whether to stop
    before building ``level``, and ``_found(sizes)`` takes the evidence.
    Node content is judged once, in ``_new_node``: equal nodes root equal
    subtrees, so a node met again needs no second look.  Every judgement
    reaches ``_found`` as (start, period) progressions of ring sizes at
    which the CA is irreversible; raising from it aborts construction.
    A node failing the generic condition reports ``(created_level + m,
    1)`` before it is appended, so a fixed-size check that stops there
    does not count it in M.  A node with bad last levels reports
    ``(s + iota, p)`` for each bad iota and each claim (s, p) it gains,
    its claims at creation included.  The new children of one parent
    start from one shared copy of the parent's claims shifted a level,
    made again only when the parent's claims have grown, and children
    with equal bad iotas at the same copy make one report between them,
    since a repeat could neither stop a check nor add evidence.

    The parent's levels shifted a level, ``ahead``, are likewise made
    once per parent: every new child starts from it, and a known child
    whose levels already hold ``ahead`` gets no occurrence to record.
    Level sets are ints and claims frozensets, replaced and never changed
    in place, so new siblings share them and need no copies.  Recording
    occurrences at another child may replace the parent's own levels or
    claims (a node can be its own descendant), so ``ahead`` and the
    shifted claims are made again whenever the parent's object was
    replaced.

    A re-occurrence follows the module docstring's loop rule
    (``_record_occurrence``).  Every change of a node's levels reaches
    its expanded children (``_changed``): as a self-loop, or through
    ``_offer``, the step by which ``_build`` records a parent's levels at
    a known child.

    Two invariants make these reports complete:

    - a node's claims always contain the claims of its current level set
      (``_state_claims``), so a new node's claims are just its parent's
      shifted one level;
    - a node's smallest claim start equals its ``created_level``, because
      every recorded level is at least the node's BFS depth; the generic
      failure of a node, wherever it recurs, is therefore the one tail
      ``(created_level + m, 1)``.
    """

    def __init__(self, rule: Rule):
        self.ctx = _Context(rule)

    def _found(self, sizes) -> None:
        """The CA is irreversible at every size of the (start, period)
        progressions in ``sizes``, a one-pass iterable; raising here stops
        construction."""
        raise NotImplementedError

    def _done(self, level: int) -> bool:
        """Whether construction stops before building ``level``."""
        raise NotImplementedError

    # -- node bookkeeping -------------------------------------------------

    def _new_node(self, gamma, levels: int, claims: frozenset[tuple[int, int]],
                  created_level: int) -> int:
        """Append a judged node; it keeps ``levels`` and ``claims``
        themselves, which its new siblings share."""
        uid = len(self.nodes)
        bad_iotas = self._judge(gamma, claims, created_level)
        if uid >= _MAX_NODES:
            raise TreeSizeError(f"more than {_MAX_NODES} unique nodes")
        self.nodes.append(_Node(gamma, levels, claims, bad_iotas, created_level))
        self.index[gamma] = uid
        return uid

    def _judge(self, gamma, claims: frozenset[tuple[int, int]], created_level: int):
        """The bad last levels of a new node, after reporting its generic
        failure, if any."""
        generic_ok, bad_iotas = self.ctx.verdict(gamma)
        if not generic_ok:
            self._found(((created_level + self.ctx.m, 1),))
        return bad_iotas

    def _claims_grew(self, nd: _Node, new) -> None:
        """Report the bad last levels of ``nd`` at its ``new`` claims."""
        if nd.bad_iotas:
            self._found((s + iota, p) for iota in nd.bad_iotas for s, p in new)

    def _record_occurrence(self, uid: int, i: int) -> None:
        """Apply the module docstring's loop rule to a re-occurrence at a
        level i that the node's set lacks."""
        nd = self.nodes[uid]
        levels = nd.levels
        low = levels & -levels
        q = low.bit_length() - 1
        if i < q:
            return
        rest = levels ^ low  # the other levels, shortest loop first
        while rest:
            low = rest & -rest
            loop = low.bit_length() - 1 - q
            g = math.gcd(loop, i - q)
            if g == loop:
                return  # the old loop implies the occurrence
            if g > 1 or loop == 2 or i - q == 1:
                nd.levels = 1 << (i - g) | 1 << i
                break
            rest ^= low
        else:
            nd.levels = levels | 1 << i
        self._changed(uid)

    def _changed(self, uid: int) -> None:
        """Add the claims of the node's new level set and pass its levels
        to its expanded children."""
        nd = self.nodes[uid]
        new = _state_claims(nd.levels) - nd.claims
        if not new:
            return  # nothing new to propagate; also breaks link cycles
        nd.claims = nd.claims | new
        self._claims_grew(nd, new)
        if nd.children is None:
            return
        # a self-loop {q, q + 1} never changes, and a node that becomes one
        # during this loop passes it to every child in a nested call
        base = (nd.levels & -nd.levels) << 1  # bit q + 1
        self_loop = nd.levels & base
        for c in set(nd.children):
            child = self.nodes[c]
            if self_loop and not child.levels & (child.levels & -child.levels) << 1:
                child.levels = base | base << 1  # a self-loop one level down
                self._changed(c)
            else:
                self._offer(nd, c)

    def _offer(self, parent: _Node, uid: int) -> None:
        """Record at child ``uid`` each of the parent's levels plus one
        that the child's levels lack, in increasing order."""
        child = self.nodes[uid]
        ahead = parent.levels << 1
        while ahead:
            low = ahead & -ahead
            if not child.levels & low:
                self._record_occurrence(uid, low.bit_length() - 1)
            ahead ^= low

    # -- construction -----------------------------------------------------

    def build(self) -> None:
        """Build the tree with byte nodes or, if it meets more than 256
        slot contents, again from the root with tuple nodes.  The build
        is deterministic, so the node type changes nothing else."""
        try:
            self._build()
        except _WideNodes:
            self._build()  # the context makes tuple nodes from now on

    def _build(self) -> None:
        """Expand level by level until convergence or until ``_done``."""
        self.nodes: list[_Node] = []
        self.index: dict[bytes | tuple[int, ...], int] = {}
        self._new_node(self.ctx.root(), 1, frozenset({(0, 0)}), created_level=0)
        self._claims_grew(self.nodes[0], self.nodes[0].claims)
        frontier = [0]
        i = 1
        while frontier and not self._done(i):
            next_frontier = []
            for p in frontier:
                parent = self.nodes[p]
                levels = parent.levels  # as ``ahead`` was made
                ahead = levels << 1
                children = []
                claims = None  # parent.claims as ``shifted`` was made
                for gamma in self.ctx.children(parent.gamma):
                    uid = self.index.get(gamma)
                    if uid is None:
                        if claims is not parent.claims:
                            claims = parent.claims
                            shifted = frozenset([(s + 1, p) for s, p in claims])
                            reported = set()  # bad iotas reported at ``shifted``
                        uid = self._new_node(gamma, ahead, shifted, created_level=i)
                        child = self.nodes[uid]
                        if child.bad_iotas not in reported:
                            reported.add(child.bad_iotas)
                            self._claims_grew(child, shifted)
                        next_frontier.append(uid)
                    elif ahead & ~self.nodes[uid].levels:
                        self._offer(parent, uid)
                        if parent.levels != levels:
                            levels = parent.levels
                            ahead = levels << 1
                    children.append(uid)
                parent.children = children
            frontier = next_frontier
            i += 1
        self.levels_built = i  # levels 0 .. i - 1
        self.converged = not frontier

    # -- stats -------------------------------------------------------------

    @property
    def unique_nodes(self) -> int:
        return len(self.nodes)

    @property
    def last_unique_level(self) -> int | None:
        # nodes are appended level by level
        return self.nodes[-1].created_level if self.nodes else None


# ---------------------------------------------------------------------------
# fixed-size decision


@dataclass(frozen=True)
class ReversibilityCheck:
    size: int
    reversible: bool
    unique_nodes: int
    last_unique_level: int | None


class _IrreversibleFound(Exception):
    pass


class _FixedSizeBuilder(_Builder):
    def __init__(self, rule: Rule, n: int):
        super().__init__(rule)
        self.n = n

    def _found(self, sizes) -> None:
        if _covers(sizes, self.n):
            raise _IrreversibleFound

    def _done(self, level: int) -> bool:
        return level > self.n - self.ctx.m + 1

    def _build(self) -> None:
        super()._build()
        self.final_checks()

    def final_checks(self) -> None:
        """Walk the last m - 2 levels below level n - m + 1.

        Construction stops at level n - m + 1 (the pinned M values count
        the nodes built up to there), so levels n - m + 2 .. n - 1 are
        walked here, each child judged by the verdict of its full content
        at its own iota.  Walking full rather than restricted contents is
        exact: an RMT r in slot k is valid at level n - iota when its last
        m - iota digits equal the first m - iota digits of k, so an RMT
        invalid at level n - iota - 1 has only invalid children at level
        n - iota, and restricting a child of a restricted node gives the
        restricted child of the full node.
        """
        n, m = self.n, self.ctx.m
        # level n - m + 1 itself was judged through the claims
        current = {nd.gamma for nd in self.nodes if _covers(nd.claims, n - m + 1)}
        for iota in range(m - 2, 0, -1):
            current = {child for gamma in current
                       for child in self.ctx.children(gamma)}
            if any(iota in self.ctx.verdict(gamma)[1] for gamma in current):
                raise _IrreversibleFound


class _BipermutiveBuilder(_FixedSizeBuilder):
    """Fixed-size check of a bipermutive rule (strategies I and II).

    Every node of its tree passes the generic count (see the module
    docstring), so a node is judged for its last levels only (``_judge``
    at creation, ``_claims_grew`` later), and only once one of its claims
    reaches a last level n - iota: a bad iota's report (s + iota, p)
    covers n exactly when its claim (s, p) covers n - iota, and the check
    stops only on a report that covers n.  Until then the node's
    ``bad_iotas`` is None.  Children that share a copy of claims are all
    judged or all not, so ``_build``'s one report per set of bad iotas
    stays exact.
    """

    def __init__(self, rule: Rule, n: int):
        super().__init__(rule, n)
        self.last_levels = range(n - rule.m + 1, n)
        self._reached = (None, False)  # claims and whether they reach one

    def _reaches(self, claims) -> bool:
        """Whether one of the claims covers a last level n - iota."""
        return any(_covers(claims, level) for level in self.last_levels)

    def _judge(self, gamma, claims: frozenset[tuple[int, int]], created_level: int):
        if claims is not self._reached[0]:  # siblings share ``claims``
            self._reached = (claims, self._reaches(claims))
        return self.ctx.verdict(gamma)[1] if self._reached[1] else None

    def _claims_grew(self, nd: _Node, new) -> None:
        if nd.bad_iotas is None:
            if not self._reaches(new):
                return
            nd.bad_iotas = self.ctx.verdict(nd.gamma)[1]
        super()._claims_grew(nd, new)


def check_reversible(rule: Rule, n: int) -> ReversibilityCheck:
    """Decide whether the global map is bijective for ring size ``n``.

    An unbalanced rule needs no case of its own: the root's generic count
    is the rule's balance, so its tree ends at the root, with M = 0.  A
    bipermutive rule is checked by ``_BipermutiveBuilder``, with the same
    result.  Each call logs one DEBUG record on the ``ringca.tree``
    logger: the verdict, M, the last level, whether the bipermutive
    check ran and how many tree nodes had their last levels judged.
    """
    if n < rule.m:
        raise ValueError(f"ring size must be at least m={rule.m}, got {n}")
    bipermutive = satisfies_strategy(rule, "II") and satisfies_strategy(rule, "I")
    builder = (_BipermutiveBuilder if bipermutive else _FixedSizeBuilder)(rule, n)
    try:
        builder.build()
        reversible = True
    except _IrreversibleFound:
        reversible = False
    # imported here, as in engine: ringca.cli starts without logging
    import logging
    log = logging.getLogger(__name__)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("check_reversible(n=%d): reversible %s, M %d, last level %s, "
                  "bipermutive %s, judged at last levels %d",
                  n, reversible, builder.unique_nodes, builder.last_unique_level,
                  bipermutive, sum(nd.bad_iotas is not None for nd in builder.nodes))
    return ReversibilityCheck(
        n, reversible, builder.unique_nodes, builder.last_unique_level)


# ---------------------------------------------------------------------------
# classification over all ring sizes


class Classification(str, Enum):
    REVERSIBLE = "reversible"
    STRICTLY_IRREVERSIBLE = "strictly-irreversible"
    TRIVIAL_SEMI = "trivially-semi-reversible"
    NONTRIVIAL_SEMI = "non-trivially-semi-reversible"


@dataclass(frozen=True, order=True)
class IrrevExpression:
    """Sizes n = modulus*j + offset (j >= 0) at which the CA is irreversible."""

    modulus: int
    offset: int

    def covers(self, n: int) -> bool:
        return n >= self.offset and (n - self.offset) % self.modulus == 0

    def subsumes(self, other: IrrevExpression) -> bool:
        return (other.modulus % self.modulus == 0) and self.covers(other.offset)

    def __str__(self) -> str:
        return f"n = {self.modulus}j + {self.offset}, j >= 0"


@dataclass(frozen=True)
class ReversibilityReport:
    classification: Classification
    expressions: tuple[IrrevExpression, ...] = ()
    irreversible_from: int | None = None
    exceptional_sizes: tuple[int, ...] = ()
    unique_nodes: int = 0
    last_unique_level: int | None = None

    def irreversible_at(self, n: int) -> bool:
        if self.classification is Classification.STRICTLY_IRREVERSIBLE:
            return True
        if self.irreversible_from is not None and n >= self.irreversible_from:
            return True
        return n in self.exceptional_sizes or any(
            e.covers(n) for e in self.expressions)

    def to_dict(self) -> dict:
        return {
            "classification": self.classification.value,
            "expressions": [[e.modulus, e.offset] for e in self.expressions],
            "irreversible_from": self.irreversible_from,
            "exceptional_sizes": list(self.exceptional_sizes),
            "unique_nodes": self.unique_nodes,
            "last_unique_level": self.last_unique_level,
        }

    @classmethod
    def from_dict(cls, data: dict) -> ReversibilityReport:
        return cls(
            classification=Classification(data["classification"]),
            expressions=tuple(IrrevExpression(m, o) for m, o in data["expressions"]),
            irreversible_from=data["irreversible_from"],
            exceptional_sizes=tuple(data["exceptional_sizes"]),
            unique_nodes=data["unique_nodes"],
            last_unique_level=data["last_unique_level"],
        )


def merge_expressions(expressions) -> tuple[IrrevExpression, ...]:
    """Drop expressions whose size sets are contained in another's."""
    kept: list[IrrevExpression] = []
    for e in sorted(set(expressions)):
        if any(o.subsumes(e) for o in kept):
            continue
        kept = [k for k in kept if not e.subsumes(k)]
        kept.append(e)
    return tuple(sorted(kept))


class _ClassifyBuilder(_Builder):
    """Collects irreversibility evidence while the tree grows.

    ``evidence`` holds every (start, period) progression of irreversible
    sizes reported so far: single sizes, tails (irreversible for every
    n >= start) and arithmetic progressions.  Once the evidence covers a
    tail {n >= B}, construction may stop after level B - 2: every special
    level n - iota of every smaller size has been built and checked, and
    any occurrence discovered later sits beyond the horizon, affecting only
    sizes the tail already covers.
    """

    def _build(self) -> None:
        self.evidence: set[tuple[int, int]] = set()
        super()._build()

    def _found(self, sizes) -> None:
        self.evidence.update(sizes)

    def tail_bound(self) -> int | None:
        """Least B with {n >= B} covered by the evidence, if one exists.

        Every tail and progression starts at or below ``top``, the largest
        start among them, so from ``top`` on whether they cover n depends
        only on n modulo the lcm of their periods: they cover a tail iff
        they cover the one window [top, top + lcm).  B is then one past the
        last smaller size that the evidence misses.
        """
        spans = [(s, p) for s, p in self.evidence if p]  # tails, progressions
        if not spans:
            return None
        top = max(s for s, _ in spans)
        lam = math.lcm(*(p for _, p in spans))
        if not all(_covers(spans, n) for n in range(top, top + lam)):
            return None
        return 1 + max((n for n in range(1, top) if not _covers(self.evidence, n)),
                       default=0)

    def _done(self, level: int) -> bool:
        bound = self.tail_bound()
        return bound is not None and level >= bound - 1


def _strictly_irreversible(rule: Rule) -> bool:
    # s^m is s times the RMT 1^m (see Rule.homogeneous_rmt)
    ones, table = (rule.d ** rule.m - 1) // (rule.d - 1), rule.table
    return len({table[s * ones] for s in range(rule.d)}) < rule.d


def classify(rule: Rule) -> ReversibilityReport:
    """Full reversibility class plus irreversibility expressions.

    Each call logs one DEBUG record on the ``ringca.tree`` logger: the
    class, M, the last level, the levels built and why construction
    stopped, at convergence or at the tail bound B, or that a strictly
    irreversible or unbalanced rule needs no tree.
    """
    if _strictly_irreversible(rule):
        report = ReversibilityReport(Classification.STRICTLY_IRREVERSIBLE)
        levels, stopped = 0, "no tree: strictly irreversible"
    elif not is_balanced(rule):
        report = ReversibilityReport(
            Classification.TRIVIAL_SEMI, irreversible_from=rule.m)
        levels, stopped = 0, "no tree: unbalanced"
    else:
        builder = _ClassifyBuilder(rule)
        builder.build()
        report = _report(builder)
        levels = builder.levels_built
        stopped = ("stopped at convergence" if builder.converged
                   else f"stopped at tail bound B = {report.irreversible_from}")
    # imported here, as in engine: ringca.cli starts without logging
    import logging
    log = logging.getLogger(__name__)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("classify: %s, M %d, last level %s, levels built %d, %s",
                  report.classification.value, report.unique_nodes,
                  report.last_unique_level, levels, stopped)
    return report


def _report(builder: _ClassifyBuilder) -> ReversibilityReport:
    """The report of a built classify tree."""
    stats = {
        "unique_nodes": builder.unique_nodes,
        "last_unique_level": builder.last_unique_level,
    }

    if not builder.evidence:
        return ReversibilityReport(Classification.REVERSIBLE, **stats)

    spans = {(s, p) for s, p in builder.evidence if p}
    merged = merge_expressions(IrrevExpression(p, s) for s, p in spans if p > 1)
    extra = tuple(sorted(
        s for s, p in builder.evidence if not p and not _covers(spans, s)))

    bound = builder.tail_bound()
    if bound is not None:
        kept = tuple(e for e in merged if e.offset < bound)
        return ReversibilityReport(
            Classification.TRIVIAL_SEMI,
            expressions=kept,
            irreversible_from=bound,
            exceptional_sizes=tuple(s for s in extra if s < bound),
            **stats,
        )
    return ReversibilityReport(
        Classification.NONTRIVIAL_SEMI,
        expressions=merged,
        exceptional_sizes=extra,
        **stats,
    )


def reversible_sizes(report: ReversibilityReport, up_to: int) -> set[int]:
    """Ring sizes in [1, up_to] at which the CA is reversible."""
    if up_to < 1:
        raise ValueError("up_to must be at least 1")
    return {n for n in range(1, up_to + 1) if not report.irreversible_at(n)}
