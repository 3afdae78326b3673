"""Rule tables for 1-D d-state cellular automata and their static metrics.

A local rule maps every neighborhood combination (an *RMT*, rule min term)
to a next state.  RMT ``r`` encodes the neighborhood digits left-to-right in
base ``d``: for a 3-neighborhood rule, ``r = x*d^2 + y*d + z`` stands for
R(x, y, z).  Rule strings are written with the highest RMT first, so the
rightmost character of the string is the next state of RMT 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import compress
from operator import eq


class RuleError(ValueError):
    """Malformed rule text or inconsistent rule parameters."""


def check_dims(d: int, m: int) -> None:
    """Reject a state count outside [2, 10] or a neighborhood below 2."""
    if not 2 <= d <= 10:
        raise RuleError(f"state count must be in [2, 10], got {d}")
    if m < 2:
        raise RuleError(f"neighborhood size must be >= 2, got {m}")


@dataclass(frozen=True)
class Rule:
    """A d-state, m-neighborhood local rule under periodic boundary.

    ``table[r]`` is the next state of RMT ``r``.  ``lr`` and ``rr`` are the
    left and right radii (``lr + rr + 1 == m``); the cell being updated sits
    ``lr`` positions from the left end of its neighborhood.
    """

    d: int
    m: int
    table: tuple[int, ...]
    lr: int = field(default=-1)
    rr: int = field(default=-1)

    def __post_init__(self) -> None:
        check_dims(self.d, self.m)
        if self.lr < 0 and self.rr < 0:
            lr = (self.m - 1) // 2
            object.__setattr__(self, "lr", lr)
            object.__setattr__(self, "rr", self.m - 1 - lr)
        elif self.lr < 0:
            object.__setattr__(self, "lr", self.m - 1 - self.rr)
        elif self.rr < 0:
            object.__setattr__(self, "rr", self.m - 1 - self.lr)
        if self.lr + self.rr + 1 != self.m or self.lr < 0 or self.rr < 0:
            raise RuleError(
                f"radii ({self.lr}, {self.rr}) inconsistent with m={self.m}")
        if not isinstance(self.table, tuple):
            object.__setattr__(self, "table", tuple(self.table))
        if len(self.table) != self.d ** self.m:
            raise RuleError(
                f"table must have {self.d ** self.m} entries, got {len(self.table)}")
        # min and max find a bad entry; the loop names the first one
        if min(self.table) < 0 or max(self.table) >= self.d:
            for r, v in enumerate(self.table):
                if not 0 <= v < self.d:
                    raise RuleError(f"table entry {v} at RMT {r} is not a state < {self.d}")

    # -- basic geometry -------------------------------------------------

    @property
    def num_rmts(self) -> int:
        return self.d ** self.m

    @property
    def num_sets(self) -> int:
        """Number of sibling sets; also the number of equivalent sets."""
        return self.d ** (self.m - 1)

    def __getitem__(self, rmt: int) -> int:
        return self.table[rmt]

    def rmt_digits(self, rmt: int) -> tuple[int, ...]:
        """Neighborhood digits of an RMT, leftmost cell first."""
        digits = []
        for _ in range(self.m):
            digits.append(rmt % self.d)
            rmt //= self.d
        return tuple(reversed(digits))

    def homogeneous_rmt(self, s: int) -> int:
        """The RMT of the neighborhood whose m cells all hold state ``s``."""
        return s * (self.d ** self.m - 1) // (self.d - 1)

    def sibling_set(self, j: int) -> tuple[int, ...]:
        """Sibl_j: the d RMTs sharing the same leftmost m-1 digits."""
        return tuple(self.d * j + t for t in range(self.d))

    def equivalent_set(self, i: int) -> tuple[int, ...]:
        """Equi_i: the d RMTs congruent to i modulo d^(m-1)."""
        return tuple(i + k * self.num_sets for k in range(self.d))

    # -- text forms ------------------------------------------------------

    @property
    def string(self) -> str:
        """Digit string, RMT d^m - 1 first."""
        return "".join(str(v) for v in reversed(self.table))

    def __str__(self) -> str:
        return self.string


def parse_rule(text: str, d: int, m: int, lr: int = -1) -> Rule:
    """Parse a rule digit string (highest RMT first) into a :class:`Rule`."""
    check_dims(d, m)
    # d^m >= 2^m outgrows len(text) once m passes its bit length; the
    # power, huge for a huge m, is only taken when it can match
    n = d ** m if m <= len(text).bit_length() else None
    if len(text) != n:
        expected = "d^m" if n is None else f"d^m = {n}"
        raise RuleError(f"rule string for d={d}, m={m} must have {expected} "
                        f"digits, got {len(text)}")
    table = [0] * n
    for pos, ch in enumerate(text):
        if not ch.isdigit() or int(ch) >= d:
            raise RuleError(
                f"bad digit {ch!r} at position {pos} (states must be < {d})")
        table[n - 1 - pos] = int(ch)
    return Rule(d, m, tuple(table), lr=lr)


def eca(number: int) -> Rule:
    """The elementary (2-state, 3-neighborhood) rule with Wolfram number."""
    if not 0 <= number < 256:
        raise RuleError(f"elementary rule number must be in [0, 256), got {number}")
    return Rule(2, 3, tuple((number >> r) & 1 for r in range(8)))


def wolfram_number(rule: Rule) -> int:
    """Decimal value of the rule string (Wolfram numbering for ECAs)."""
    value = 0
    for r in reversed(range(rule.num_rmts)):
        value = value * rule.d + rule.table[r]
    return value


# -- static metrics ------------------------------------------------------


def is_balanced(rule: Rule) -> bool:
    """True iff every state labels exactly d^(m-1) RMTs."""
    counts = [0] * rule.d
    for v in rule.table:
        counts[v] += 1
    return all(c == rule.num_sets for c in counts)


def satisfies_strategy(rule: Rule, kind: str) -> bool:
    """Check the distinctness predicate of strategy I (every equivalent
    set holds each state once: permutive in the leftmost cell) or II
    (every sibling set does: permutive in the rightmost cell)."""
    d, num_sets, table = rule.d, rule.num_sets, rule.table
    if kind == "I":
        groups = (table[i::num_sets] for i in range(num_sets))
    elif kind == "II":
        groups = (table[j:j + d] for j in range(0, rule.num_rmts, d))
    else:
        raise ValueError("kind must be 'I' or 'II'")
    # d^(m-1) groups of d RMTs, each holding every value once: balanced
    return all(len(set(g)) == d for g in groups)


def is_linear(rule: Rule) -> bool:
    """True iff the rule is additive under digit-wise mod-d RMT addition.

    An additive map of Z_d^m is fixed by its images of the unit RMTs d^k,
    so the rule is additive iff each RMT maps to the sum of its digits
    weighted by those images.
    """
    d, table = rule.d, rule.table
    units = [table[d ** k] for k in range(rule.m)]
    return all(
        v == sum(r // d ** k % d * u for k, u in enumerate(units)) % d
        for r, v in enumerate(table)
    )


@cache
def _middles(d: int, m: int, rr: int) -> tuple[int, ...]:
    """The state of the cell being updated, RMT by RMT: the digit ``rr``
    places from the right."""
    shift = d ** rr
    return tuple(r // shift % d for r in range(d ** m))


def self_replicating_rmts(rule: Rule) -> set[int]:
    """RMTs whose next state equals the state of the cell being updated."""
    middles = _middles(rule.d, rule.m, rule.rr)
    return set(compress(range(len(middles)), map(eq, rule.table, middles)))


@dataclass(frozen=True)
class FlowReport:
    """Directional information-flow scores of a rule.

    ``left_changes`` accumulates one score per sibling set (sensitivity to
    the right neighbor, information moving left); ``right_changes`` does the
    same per equivalent set.  A set's score is the number of distinct next
    states among its non-self-replicating members.
    """

    left_changes: int
    right_changes: int
    total_rmts: int


def information_flow(rule: Rule) -> FlowReport:
    """Score how strongly state changes propagate in each direction."""
    return _flow(rule, self_replicating_rmts(rule))


def _flow(rule: Rule, selfrep: set[int]) -> FlowReport:
    """:func:`information_flow` of a rule whose self-replicating RMTs are
    ``selfrep``."""
    d, sets = rule.d, rule.num_sets
    moved = [(r, v) for r, v in enumerate(rule.table) if r not in selfrep]
    # a set's score is the number of distinct (set, value) pairs among
    # its members in ``moved``: RMT r lies in sibling set r // d and in
    # equivalent set r % sets, and (set, value) is keyed as set * d + value
    left = len({r - r % d + v for r, v in moved})
    right = len({r % sets * d + v for r, v in moved})
    return FlowReport(left_changes=left, right_changes=right, total_rmts=rule.num_rmts)


# -- rule equivalence ----------------------------------------------------


@dataclass(frozen=True)
class EquivalentRules:
    reflection: Rule
    conjugation: Rule
    conjugation_reflection: Rule


def _reflect(rule: Rule) -> Rule:
    d = rule.d
    table = [0] * rule.num_rmts
    for r in range(rule.num_rmts):
        mirrored = 0
        for x in reversed(rule.rmt_digits(r)):
            mirrored = mirrored * d + x
        table[r] = rule.table[mirrored]
    return Rule(d, rule.m, tuple(table), lr=rule.rr)


def _conjugate(rule: Rule) -> Rule:
    d = rule.d
    table = [0] * rule.num_rmts
    for r in range(rule.num_rmts):
        digits = rule.rmt_digits(r)
        flipped = 0
        for x in digits:
            flipped = flipped * d + (d - 1 - x)
        table[r] = d - 1 - rule.table[flipped]
    return Rule(d, rule.m, tuple(table), lr=rule.lr)


def equivalent_rules(rule: Rule) -> EquivalentRules:
    """The three rules sharing the dynamics of ``rule`` up to symmetry."""
    refl = _reflect(rule)
    return EquivalentRules(
        reflection=refl,
        conjugation=_conjugate(rule),
        conjugation_reflection=_conjugate(refl),
    )


def min_representative(rule: Rule) -> Rule:
    """Numerically smallest member of the rule's equivalence class."""
    eq = equivalent_rules(rule)
    members = [rule, eq.reflection, eq.conjugation, eq.conjugation_reflection]
    return min(members, key=wolfram_number)
