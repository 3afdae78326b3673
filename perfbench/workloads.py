"""The three workloads: seeded inputs, one round of calls, output checks.

A round is a fixed list of calls into ringca's public API, made one after
another by a single caller.  Every call goes through a module or class
attribute (``tree.classify``, not a local alias), so the span recorder in
``tracer.py`` sees it when installed.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import statistics
import time

from ringca import engine, prng, rules, synthesis, tree

import data
import oracle

# Decimal synthesis uses the same calls for every workload seed: the
# number of attempts per accepted rule varies several-fold between
# synthesis seeds, and a seed-dependent batch would swamp any change in
# speed with that variation.
DECIMAL_CALLS = [(6, 20260811)]
DECIMAL_DIGEST = "a13108ae069bf9a8404558e9785070a9f25ab7f5e207f6be359bea193c4a41e6"
WIDE_SIZES = [11, 21]  # ring sizes of the d=10 checks
# d=3 rules per strategy kind and round: SPECS_PER_KIND seeded generator
# seeds with RULES_PER_SPEC rules each.  One generator seed yields
# correlated rules, and a batch from one seed costs up to 20% more or less
# to screen than a batch from another.
SPECS_PER_KIND, RULES_PER_SPEC = 50, 40
FILTER_BATCH = SPECS_PER_KIND * RULES_PER_SPEC
STREAM_BYTES = 128 * 1024  # per stream and round
PREFIX_OUTPUTS = 64  # outputs of each stream recomputed by the oracle


class Recorder:
    """Times each call of a round and keeps its output or exception.

    ``calls`` holds (part, op, seconds, output, error).  Time the
    reference sampler spends inside a call is not counted in its seconds.
    """

    def __init__(self, sampler=None):
        self.sampler = sampler
        self.calls: list[tuple[str, str, float, object, str | None]] = []

    def call(self, part: str, op: str, fn):
        if self.sampler:
            self.sampler.part = part
            spent = self.sampler.spent
        start = time.perf_counter()
        try:
            out, err = fn(), None
        except Exception as exc:  # a failed call is counted, not fatal
            out, err = None, f"{op}: {exc!r}"
        secs = time.perf_counter() - start
        if self.sampler:
            secs -= self.sampler.spent - spent
            self.sampler.part = None
        self.calls.append((part, op, secs, out, err))
        return out


def _ring_size(rng: random.Random, low: int) -> int:
    """Log-uniform ring size in [low, 10^6]."""
    return max(low, int(10 ** rng.uniform(math.log10(low), 6)))


# -- analyze -------------------------------------------------------------------


def analyze_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    narrow = [(rules.eca(k), None, None) for k in range(256)]
    narrow += [(rules.parse_rule(text, d, 3), n, (rev, m_nodes, last))
               for d, n, text, m_nodes, last, rev in data.ROWS]
    for kind in ("I", "II"):
        spec = synthesis.StrategySpec(kind, seed=rng.randrange(1, 2 ** 31))
        narrow += [(rule, _ring_size(rng, 3), None)
                   for rule in synthesis.generate_strategy(spec, 12)]
    for _ in range(24):
        table = [v for v in range(3) for _ in range(9)]
        rng.shuffle(table)
        narrow.append((rules.Rule(3, 3, tuple(table)), _ring_size(rng, 3), None))
    # every seed checks n = 11, then n = 21: the cost of a d=10 check does
    # not follow n or M closely enough for a seeded pair of sizes to cost
    # the same from seed to seed, and the order moves peak memory by 10%
    wide = [(synthesis.rule_from_permutation(p), n)
            for p, n in zip(rng.sample(data.PERMUTATIONS, 2), WIDE_SIZES)]
    sample = [(i, rng.randint(3, 8)) for i in rng.sample(range(len(narrow)), 16)]
    return {"narrow": narrow, "wide": wide, "oracle_sample": sample}


def analyze_round(inp: dict, rec: Recorder) -> None:
    for rule, n, _ in inp["narrow"]:
        rec.call("narrow", "classify", lambda: tree.classify(rule))
        if n is not None:
            rec.call("narrow", "check", lambda: tree.check_reversible(rule, n))
    for rule, n in inp["wide"]:
        rec.call("wide", "check", lambda: tree.check_reversible(rule, n))


def analyze_check(inp: dict, outs: list) -> list[str | None]:
    """One verdict per call of the round: None if correct, else why not."""
    bad: list[str | None] = [None] * len(outs)
    k = 0
    reports = []
    for rule, n, pin in inp["narrow"]:
        report = outs[k]
        reports.append((k, report))
        k += 1
        if n is None:
            continue
        got = outs[k]
        if report is not None and got is not None:
            if got.reversible != (not report.irreversible_at(n)):
                bad[k] = f"check and classify disagree: {rule} n={n}"
            elif pin is not None and (got.reversible, got.unique_nodes,
                                      got.last_unique_level) != pin:
                bad[k] = f"pinned row differs: {rule} n={n}"
        k += 1
    for i, n in inp["oracle_sample"]:
        idx, report = reports[i]
        rule = inp["narrow"][i][0]
        if report is not None and oracle.bijective(rule, n) == report.irreversible_at(n):
            bad[idx] = f"brute force disagrees with classify: {rule} n={n}"
    for rule, n in inp["wide"]:
        got = outs[k]
        if got is not None and (got.reversible, got.unique_nodes,
                                got.last_unique_level) != data.WIDE_PINS[n]:
            bad[k] = f"wide check differs: {synthesis.permutation_of(rule)} n={n}"
        k += 1
    return bad


def analyze_metrics(calls: list, walls: list[float]) -> dict:
    narrow = [c[2] for c in calls if c[0] == "narrow"]
    wide = [c[2] for c in calls if c[0] == "wide"]
    tail_pct, tail = tail_percentile(narrow)
    return {
        "named": {
            "decisions_per_s": (len(narrow + wide) / sum(walls), "1/s", ""),
            "decision_p50_ms": (1e3 * statistics.median(narrow), "ms",
                                f"{len(narrow)} d<=3 calls"),
            "decision_tail_ms": (1e3 * tail, "ms",
                                 f"p{tail_pct:g} of {len(narrow)} d<=3 calls"),
            "wide_check_s": (statistics.median(wide), "s", f"{len(wide)} d=10 calls"),
        },
        "small_per_s": len(narrow) / sum(narrow),
        "large_per_s": len(wide) / sum(wide),
    }


# -- synth ---------------------------------------------------------------------


def synth_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    batches = [(kind, [synthesis.StrategySpec(kind, seed=rng.randrange(1, 2 ** 31))
                       for _ in range(SPECS_PER_KIND)])
               for kind in ("I", "II")]
    return {"decimal": DECIMAL_CALLS, "batches": batches}


def synth_round(inp: dict, rec: Recorder) -> None:
    for count, seed in inp["decimal"]:
        rec.call("decimal", "synthesize",
                 lambda: synthesis.synthesize_decimal(count, seed=seed))
    for _, specs in inp["batches"]:
        batch = []
        for spec in specs:
            batch += rec.call("filter", "generate",
                              lambda: synthesis.generate_strategy(spec, RULES_PER_SPEC)) or []
        for strict in (False, True):
            rec.call("filter", "screen", lambda: synthesis.filter_randomness_candidates(
                batch, specs[0], strict=strict))


def synth_check(inp: dict, outs: list) -> list[str | None]:
    bad: list[str | None] = [None] * len(outs)
    k = 0
    decimal = []
    for count, seed in inp["decimal"]:
        got = outs[k] or []
        decimal += got
        if len(got) != count:
            bad[k] = f"synthesize_decimal({count}, seed={seed}) gave {len(got)} rules"
        for rule in got:
            if not oracle.permutive(rule, "II"):
                bad[k] = f"not balanced or not strategy II: {rule}"
            elif not synthesis.equivalent_sets_acceptable(rule):
                bad[k] = f"equivalent sets not acceptable: {rule}"
            elif oracle.has_short_bad_cycle(rule):
                bad[k] = f"short bad cycle: {rule}"
        k += 1
    if digest(decimal) != DECIMAL_DIGEST:
        bad[0] = bad[0] or f"decimal synthesis digest {digest(decimal)}"
    for kind, specs in inp["batches"]:
        batch = []
        for _ in specs:
            got = outs[k] or []
            batch += got
            if len(got) != RULES_PER_SPEC or not all(oracle.permutive(r, kind) for r in got):
                bad[k] = f"generate_strategy({kind}) output wrong"
            k += 1
        for strict in (False, True):
            want = [r for r in batch
                    if oracle.randomness_candidate(r, specs[0].min_reverse_flow, strict)]
            if outs[k] is not None and outs[k] != want:
                bad[k] = f"filter (strict={strict}) kept {len(outs[k])}, expected {len(want)}"
            k += 1
    return bad


def synth_metrics(calls: list, walls: list[float]) -> dict:
    decimal = [c for c in calls if c[0] == "decimal"]
    screen = [c for c in calls if c[0] == "filter"]
    accepted = sum(len(c[3] or ()) for c in decimal)
    screened = sum(FILTER_BATCH for c in screen if c[1] == "screen")
    rules_per_s = accepted / sum(c[2] for c in decimal)
    filter_per_s = screened / sum(c[2] for c in screen)
    return {
        "named": {
            "rules_per_s": (rules_per_s, "1/s", f"{accepted} accepted decimal rules"),
            "filter_rules_per_s": (filter_per_s, "1/s", f"{screened} d=3 rules screened"),
        },
        "small_per_s": filter_per_s,
        "large_per_s": rules_per_s,
    }


def digest(rule_list) -> str:
    return hashlib.sha256("\n".join(r.string for r in rule_list).encode()).hexdigest()


# -- evolve --------------------------------------------------------------------


def evolve_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    perm_a, perm_b = rng.sample(data.PERMUTATIONS, 2)
    spec = synthesis.StrategySpec("II", seed=rng.randrange(1, 2 ** 31))
    tri_rule = synthesis.generate_strategy(spec, 1)[0]
    streams = []
    for rule, maker, width in (
            (synthesis.rule_from_permutation(perm_a), lambda r: prng.binary_blocks(r, 1), 14),
            (synthesis.rule_from_permutation(perm_b), lambda r: prng.binary_blocks(r, 2), 28),
            (tri_rule, lambda r: prng.tri_window(r, 20), 20)):
        digits = "".join(str(rng.randrange(rule.d)) for _ in range(width))
        streams.append((rule, maker, digits))
    flow = rules.parse_rule(data.FLOW_RULE, 3, 3)
    return {"streams": streams, "flow": flow}


def evolve_round(inp: dict, rec: Recorder) -> None:
    for rule, maker, digits in inp["streams"]:
        gen = maker(rule)
        rec.call("stream", "seed", lambda: gen.seed(digits))
        spec = prng.StreamSpec(gen.bits_per_output, 8 * STREAM_BYTES // gen.bits_per_output)
        rec.call("stream", "emit", lambda: _emit(gen, spec))
    for n, cycle in data.ORBITS.items():
        start = "0" * (n - 1) + "1"
        rec.call("orbit", "cycle",
                 lambda: engine.cycle_length(inp["flow"], start, cycle + 10))


def _emit(gen: prng.Generator, spec: prng.StreamSpec) -> tuple[int, bytes]:
    buf = io.BytesIO()
    return prng.emit_stream(gen, spec, buf), buf.getvalue()


def evolve_check(inp: dict, outs: list) -> list[str | None]:
    bad: list[str | None] = [None] * len(outs)
    k = 0
    for rule, maker, digits in inp["streams"]:
        k += 1  # seed returns nothing; its effect shows in the stream
        if outs[k] is None:
            k += 1
            continue
        written, stream = outs[k]
        gen = maker(rule)
        want = oracle.window_stream(rule, gen.width, gen.n, gen.modulus,
                                    gen.bits_per_output, digits, PREFIX_OUTPUTS)
        if written != STREAM_BYTES or len(stream) != STREAM_BYTES:
            bad[k] = f"{gen.scheme} stream has {len(stream)} bytes"
        elif stream[:len(want)] != want:
            bad[k] = f"{gen.scheme} stream prefix differs from the reference step"
        k += 1
    for n, cycle in data.ORBITS.items():
        got = outs[k]
        if got is not None and (got.cycle_length, got.tail_length, got.truncated) != (
                cycle, 0, False):
            bad[k] = f"orbit n={n}: {got}"
        k += 1
    return bad


def golden_check() -> str | None:
    """The pinned 64-byte bin stream, from the library and the reference."""
    rule = synthesis.rule_from_permutation(data.GOLDEN_PERMUTATION)
    gen = prng.binary_blocks(rule, 1)
    gen.seed(data.GOLDEN_SEED)
    buf = io.BytesIO()
    prng.emit_stream(gen, prng.StreamSpec(32, 16), buf)
    own = oracle.window_stream(rule, 14, 101, 1 << 32, 32, data.GOLDEN_SEED, 16)
    if buf.getvalue() != data.GOLDEN_STREAM_64 or own != data.GOLDEN_STREAM_64:
        return "golden 64-byte stream differs"
    return None


def evolve_metrics(calls: list, walls: list[float]) -> dict:
    stream = [c for c in calls if c[0] == "stream"]
    orbit = [c for c in calls if c[0] == "orbit"]
    emitted = sum(c[3][0] for c in stream if c[1] == "emit" and c[3] is not None)
    steps = sum(c[3].steps_used for c in orbit if c[3] is not None)
    bytes_per_s = emitted / sum(c[2] for c in stream)
    steps_per_s = steps / sum(c[2] for c in orbit)
    return {
        "named": {
            "stream_MBps": (bytes_per_s / 1e6, "MB/s", f"{emitted} bytes"),
            "orbit_steps_per_s": (steps_per_s, "1/s", f"{steps} steps"),
        },
        "small_per_s": steps_per_s,
        "large_per_s": bytes_per_s,
    }


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest whole percentile with at least ten samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0
    idx = min(n - 1, max(0, math.ceil(pct / 100 * n) - 1))
    return pct, ordered[idx]


WORKLOADS = {
    "analyze": (analyze_inputs, analyze_round, analyze_check, analyze_metrics),
    "synth": (synth_inputs, synth_round, synth_check, synth_metrics),
    "evolve": (evolve_inputs, evolve_round, evolve_check, evolve_metrics),
}
