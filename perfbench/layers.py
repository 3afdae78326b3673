"""Per-layer metrics of the traced run, and what each should move.

Each row: metric name, unit, better direction, the end-to-end metric it
should move, the workload it should move it on, and the workloads on
which it is predicted not to change.  BENCHMARK.json lists the same names
in the same order; ``run.py`` refuses to run if the two disagree.
"""

from __future__ import annotations

ALL = ("analyze", "synth", "evolve")


def _rows(names, unit, better, moves, on):
    return [(n, unit, better, moves, on, tuple(w for w in ALL if w != on))
            for n in names]


TABLE = (
    _rows(("tree.check.calls",), "count", "lower", "decisions_per_s", "analyze")
    + _rows(("tree.check.busy_s",), "s", "lower", "decisions_per_s", "analyze")
    + _rows(("tree.classify.calls",), "count", "lower", "decisions_per_s", "analyze")
    + _rows(("tree.classify.busy_s",), "s", "lower", "decisions_per_s", "analyze")
    + _rows(("tree.d3.busy_s",), "s", "lower",
            "decision_p50_ms, decision_tail_ms", "analyze")
    + _rows(("tree.d10.busy_s",), "s", "lower", "wide_check_s", "analyze")
    + _rows(("tree.unique_nodes",), "count", "lower",
            "decision_p50_ms, decision_tail_ms, wide_check_s", "analyze")
    + _rows(("tree.d3.nodes_per_s",), "1/s", "higher",
            "decision_p50_ms, decision_tail_ms", "analyze")
    + _rows(("tree.d10.nodes_per_s",), "1/s", "higher", "wide_check_s", "analyze")
    + _rows(("debruijn.cycles.calls", "debruijn.cycles.found"), "count", "lower",
            "filter_rules_per_s, rules_per_s", "synth")
    + _rows(("debruijn.cycles.busy_s", "debruijn.reachability.busy_s"), "s", "lower",
            "filter_rules_per_s, rules_per_s", "synth")
    + _rows(("debruijn.step.calls", "debruijn.step.cells"), "count", "lower",
            "stream_MBps, orbit_steps_per_s", "evolve")
    + _rows(("debruijn.step.busy_s",), "s", "lower",
            "stream_MBps, orbit_steps_per_s", "evolve")
    + _rows(("debruijn.step.cells_per_s",), "1/s", "higher",
            "stream_MBps, orbit_steps_per_s", "evolve")
    + _rows(("synthesis.decimal.busy_s", "synthesis.assemble.self_s",
             "synthesis.verify.busy_s"), "s", "lower", "rules_per_s", "synth")
    + _rows(("synthesis.verify.calls",), "count", "lower", "rules_per_s", "synth")
    + _rows(("synthesis.accepted",), "count", "higher", "rules_per_s", "synth")
    + _rows(("synthesis.verify_pass_ratio",), "ratio", "higher", "rules_per_s", "synth")
    + _rows(("synthesis.filter.busy_s",), "s", "lower", "filter_rules_per_s", "synth")
    + _rows(("synthesis.filter.kept_ratio",), "ratio", "higher",
            "filter_rules_per_s", "synth")
    + _rows(("prng.seed.busy_s",), "s", "lower", "stream_MBps", "evolve")
    + _rows(("prng.next.calls",), "count", "lower", "stream_MBps", "evolve")
    + _rows(("prng.emit.busy_s", "prng.pack.self_s"), "s", "lower", "stream_MBps", "evolve")
    + _rows(("prng.bytes",), "count", "higher", "stream_MBps", "evolve")
    + _rows(("engine.cycle.busy_s",), "s", "lower", "orbit_steps_per_s", "evolve")
    + _rows(("engine.cycle.steps",), "count", "lower", "orbit_steps_per_s", "evolve")
    + _rows(("engine.cycle.alloc_peak_MB",), "MB", "lower",
            "orbit_steps_per_s, peak_rss_MB", "evolve")
    + [(n, "s", "lower", "setup_s", "all", ())
       for n in ("import.ringca_s", "import.networkx_s", "import.numpy_s")]
    + [("trace.overhead_s", "s", "lower", "none (traced minus untraced wall_s)", "all", ())]
)

# span names recorded by worker.py
CHECK, CLASSIFY = "tree.check_reversible", "tree.classify"
DECIMAL, VERIFY, EQUIV = ("synthesis.synthesize_decimal", "synthesis.verify_rule",
                          "synthesis.equivalent_sets_acceptable")
FILTER = "synthesis.filter_randomness_candidates"
CYCLES, REACH, STEP = ("debruijn.DeBruijnGraph.cycles",
                       "debruijn.trivial_reachability", "debruijn.next_configuration")
SEED, NEXT, EMIT = "prng.Generator.seed", "prng.Generator.next", "prng.emit_stream"
CYCLE = "engine.cycle_length"


def derive(summary: dict, alloc_peaks: list[int]) -> tuple[dict, dict]:
    """Per-layer values from a span summary, and why any is absent.

    A metric whose spans never occurred in the run reads 0 and gets a
    reason; ratios and rates over no work read 0 as well.
    """
    names = summary["names"]
    tagged = summary["by_tag"]

    def get(span, field):
        return names.get(span, {}).get(field, 0)

    def by_d(field, wide):
        return sum(v[field] for (span, tag), v in tagged.items()
                   if span in (CHECK, CLASSIFY) and (tag == 10) == wide)

    def ratio(num, den):
        return num / den if den else 0.0

    d3_busy, d10_busy = by_d("busy", False), by_d("busy", True)
    values = {
        "tree.check.calls": get(CHECK, "calls"),
        "tree.check.busy_s": get(CHECK, "busy"),
        "tree.classify.calls": get(CLASSIFY, "calls"),
        "tree.classify.busy_s": get(CLASSIFY, "busy"),
        "tree.d3.busy_s": d3_busy,
        "tree.d10.busy_s": d10_busy,
        "tree.unique_nodes": get(CHECK, "work") + get(CLASSIFY, "work"),
        "tree.d3.nodes_per_s": ratio(by_d("work", False), d3_busy),
        "tree.d10.nodes_per_s": ratio(by_d("work", True), d10_busy),
        "debruijn.cycles.calls": get(CYCLES, "calls"),
        "debruijn.cycles.found": get(CYCLES, "work"),
        "debruijn.cycles.busy_s": get(CYCLES, "busy"),
        "debruijn.reachability.busy_s": get(REACH, "busy"),
        "debruijn.step.calls": get(STEP, "calls"),
        "debruijn.step.cells": get(STEP, "work"),
        "debruijn.step.busy_s": get(STEP, "busy"),
        "debruijn.step.cells_per_s": ratio(get(STEP, "work"), get(STEP, "busy")),
        "synthesis.decimal.busy_s": get(DECIMAL, "busy"),
        "synthesis.assemble.self_s": get(DECIMAL, "self"),
        "synthesis.verify.busy_s": get(VERIFY, "busy"),
        "synthesis.verify.calls": get(VERIFY, "calls"),
        "synthesis.accepted": get(DECIMAL, "work"),
        "synthesis.verify_pass_ratio": ratio(get(DECIMAL, "work"), get(VERIFY, "calls")),
        "synthesis.filter.busy_s": get(FILTER, "busy"),
        "synthesis.filter.kept_ratio": ratio(get(FILTER, "work"), get(FILTER, "tag_sum")),
        "prng.seed.busy_s": get(SEED, "busy"),
        "prng.next.calls": get(NEXT, "calls"),
        "prng.emit.busy_s": get(EMIT, "busy"),
        "prng.pack.self_s": get(EMIT, "self"),
        "prng.bytes": get(EMIT, "work"),
        "engine.cycle.busy_s": get(CYCLE, "busy"),
        "engine.cycle.steps": get(CYCLE, "work"),
        "engine.cycle.alloc_peak_MB": max(alloc_peaks, default=0) / 2 ** 20,
    }
    sources = {
        "tree.": (CHECK, CLASSIFY), "debruijn.cycles": (CYCLES,),
        "debruijn.reachability": (REACH,), "debruijn.step": (STEP,),
        "synthesis.filter": (FILTER,), "synthesis.": (DECIMAL,),
        "prng.": (EMIT,), "engine.": (CYCLE,),
    }
    absent = {}
    for metric in values:
        spans = next(s for prefix, s in sources.items() if metric.startswith(prefix))
        if not any(get(s, "calls") for s in spans):
            absent[metric] = f"no {' or '.join(spans)} call in this workload"
        elif metric.startswith("tree.d") and "d3" in metric and not d3_busy:
            absent[metric] = "no tree call on a rule with d <= 3 in this workload"
        elif metric.startswith("tree.d10") and not d10_busy:
            absent[metric] = "no tree call on a d=10 rule in this workload"
    return values, absent
