"""Run one workload in a fresh process and print its figures as one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS timed|traced OUT_STEM

``timed`` repeats the workload's round until SECONDS have passed, stopping
when another round would end more than half a round late, and scales its
times by the host speed reference (``reference.py``).  ``traced`` runs
one round with spans recorded, keeps raw times, and writes the spans to
OUT_STEM.*.
``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

import ringca  # noqa: E402
from ringca import debruijn, engine, prng, synthesis, tree  # noqa: E402

import layers  # noqa: E402
import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

TRACED_CHUNKS = 40  # reference chunks timed before and after the traced round


def install(spans: tracer.Spans) -> None:
    """Rebind the names callers look up to span-recording wrappers."""
    def d_of(rule, *_):
        return rule.d

    spans.patch(tree, "classify", layers.CLASSIFY, tag=d_of, work=lambda r: r.unique_nodes)
    spans.patch(tree, "check_reversible", layers.CHECK, tag=d_of,
                work=lambda r: r.unique_nodes)
    spans.patch(synthesis, "synthesize_decimal", layers.DECIMAL, work=len)
    spans.patch(synthesis, "verify_rule", layers.VERIFY, work=int)
    spans.patch(synthesis, "equivalent_sets_acceptable", layers.EQUIV, work=int)
    spans.patch(synthesis, "filter_randomness_candidates", layers.FILTER,
                tag=lambda batch, *_: len(batch), work=len)
    spans.patch(debruijn.DeBruijnGraph, "cycles", layers.CYCLES, work=len)
    for owner in (debruijn, synthesis):
        spans.patch(owner, "trivial_reachability", layers.REACH)
    for owner in (prng, engine):
        spans.patch(owner, "next_configuration", layers.STEP, work=len)
    spans.patch(prng.Generator, "seed", layers.SEED)
    spans.patch(prng.Generator, "next", layers.NEXT)
    spans.patch(prng, "emit_stream", layers.EMIT, work=int)
    spans.patch(engine, "cycle_length", layers.CYCLE, work=lambda r: r.steps_used,
                replay=True)


def run_timed(run_round, inputs, seconds: float):
    """Rounds until ``seconds`` have passed, the host speed reference
    sampled throughout.

    Returns the calls of each round, the raw round times, all calls and
    round times scaled by the reference (see reference.py): a call by the
    reference measured during its slice of its round, a round by that
    measured during the round, the chunk times, and the peak resident
    memory at the end of the first round, which later rounds (repeating
    the same calls on a fragmented heap) would raise by up to 12%.
    """
    sampler = reference.Sampler()
    rounds, intervals, raw_walls = [], [], []
    with sampler:
        began = time.perf_counter()
        while True:
            rec = workloads.Recorder(sampler)
            spent = sampler.spent
            start = time.perf_counter()
            run_round(inputs, rec)
            end = time.perf_counter()
            raw_walls.append(end - start - (sampler.spent - spent))
            if not rounds:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            rounds.append(rec.calls)
            intervals.append((start, end))
            if end - began + raw_walls[-1] / 2 >= seconds:
                break
    calls = []
    for round_calls, iv in zip(rounds, intervals):
        scales = {part: sampler.scale(*iv, part) for part in {c[0] for c in round_calls}}
        calls += [(part, op, secs * scales[part], out, err)
                  for part, op, secs, out, err in round_calls]
    walls = [w * sampler.scale(*iv) for w, iv in zip(raw_walls, intervals)]
    return rounds, raw_walls, calls, walls, sampler.took, rss_mb


def run_traced(run_round, inputs) -> tuple[tracer.Spans, list, float, float]:
    """One round with spans recorded.

    Spans keep raw times; the reference is timed only before and after
    the round, so that none of it falls inside a span.  Returns the
    spans, the calls, and the raw and scaled round time.
    """
    spans = tracer.Spans()
    chunks = [reference.chunk() for _ in range(TRACED_CHUNKS)]
    install(spans)
    try:
        rec = workloads.Recorder()
        start = time.perf_counter()
        run_round(inputs, rec)
        wall = time.perf_counter() - start
    finally:
        spans.unpatch()
    chunks += [reference.chunk() for _ in range(TRACED_CHUNKS)]
    return spans, rec.calls, wall, wall * reference.scale_of(chunks)


def main() -> int:
    name, seed, seconds, mode, stem = sys.argv[1:6]
    if not Path(ringca.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"ringca imported from {ringca.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    make_inputs, run_round, check, metrics = workloads.WORKLOADS[name]
    inputs = make_inputs(int(seed))

    spans = None
    if mode == "traced":
        spans, calls, wall, scaled_wall = run_traced(run_round, inputs)
        rounds, raw_walls, walls, chunks = [calls], [wall], [scaled_wall], []
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        rounds, raw_walls, calls, walls, chunks, rss_mb = run_timed(
            run_round, inputs, float(seconds))

    # every call of every round is checked: round 0 against the references,
    # later rounds against round 0
    verdicts = check(inputs, [c[3] for c in rounds[0]])
    attempted, errors = 0, []
    for round_calls in rounds:
        for i, (_, op, _, out, err) in enumerate(round_calls):
            attempted += 1
            why = err or verdicts[i]
            if why is None and out != rounds[0][i][3]:
                why = f"{op} output changed between rounds"
            if why is not None:
                errors.append(why)
    if name == "evolve":
        attempted += 1
        golden = workloads.golden_check()
        if golden is not None:
            errors.append(golden)

    result = {
        "walls": walls,
        "raw_walls": raw_walls,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:10],
        "raw": metrics([c for round_calls in rounds for c in round_calls], raw_walls),
        "chunks": chunks,
        **metrics(calls, walls),
    }
    if spans is not None:
        result["layers"], result["absent"] = layers.derive(
            spans.summary(), spans.alloc_peaks(layers.CYCLE))
        spans.write(Path(stem))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
