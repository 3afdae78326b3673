"""Command-line interface.

Verbs: classify, check, info, synthesize, evolve, cycle, spacetime, prng.
Exit codes: 0 success, 1 domain error (bad rule/configuration/size),
2 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import sys

from . import debruijn, engine, prng, synthesis, tree
from .rules import (Rule, RuleError, equivalent_rules, information_flow,
                    is_balanced, is_linear, parse_rule)
from .tree import TreeSizeError


def _load_rule(args) -> Rule:
    if getattr(args, "perm", None):
        return synthesis.rule_from_permutation(args.perm)
    if getattr(args, "rule_file", None):
        text = open(args.rule_file).read()
        return parse_rule_spec(text)
    if not args.rule:
        raise RuleError("no rule given (use --rule, --perm or --rule-file)")
    return parse_rule(args.rule, args.d, args.m)


def parse_rule_spec(text: str) -> Rule:
    """Parse a `d=<d> m=<m> rule=<digits>` rule file; any flaw is a RuleError."""
    text = text.strip()
    if "=" not in text:
        raise RuleError("rule file must use the `d=<d> m=<m> rule=<digits>` form")
    fields = {}
    for token in text.split():
        key, sep, value = token.partition("=")
        if not sep:
            raise RuleError(f"rule file token {token!r} is not of the form key=value")
        fields[key] = value
    missing = [key for key in ("d", "m", "rule") if key not in fields]
    if missing:
        raise RuleError("rule file lacks " + ", ".join(f"{k}=" for k in missing))
    try:
        d, m = int(fields["d"]), int(fields["m"])
    except ValueError as exc:
        raise RuleError(f"rule file d= and m= must be integers ({exc})") from None
    return parse_rule(fields["rule"], d, m)


def _add_rule_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d", type=int, default=3, help="states per cell")
    p.add_argument("--m", type=int, default=3, help="neighborhood size")
    p.add_argument("--rule", help="rule digit string, highest RMT first")
    p.add_argument("--perm", help="10-digit permutation form of a decimal rule")
    p.add_argument("--rule-file", help="file with `d=.. m=.. rule=..`")


def _cmd_classify(args) -> int:
    rule = _load_rule(args)
    report = tree.classify(rule)
    if args.json:
        print(json.dumps(report.to_dict()))
        return 0
    print(report.classification.value)
    for e in report.expressions:
        print(f"irreversible for {e}")
    for s in report.exceptional_sizes:
        print(f"irreversible for n = {s}")
    if report.irreversible_from is not None:
        print(f"irreversible for every n >= {report.irreversible_from}")
    print(f"unique nodes: {report.unique_nodes}, "
          f"last unique level: {report.last_unique_level}")
    return 0


def _cmd_check(args) -> int:
    rule = _load_rule(args)
    result = tree.check_reversible(rule, args.size)
    if args.json:
        print(json.dumps(dataclasses.asdict(result)))
        return 0
    verdict = "Reversible" if result.reversible else "Irreversible"
    print(f"{verdict} (M={result.unique_nodes})")
    return 0


def _cmd_info(args) -> int:
    rule = _load_rule(args)
    flow = information_flow(rule)
    quiescent = sorted(debruijn.quiescent_states(rule))
    max_cycle = args.max_cycle
    if max_cycle is None and (rule.d > 4 or rule.d ** (rule.m - 1) > 16):
        max_cycle = 4  # unbounded enumeration explodes on large de Bruijn graphs
    fixed = debruijn.fixed_point_attractors(rule, max_len=max_cycle)
    verdict = debruijn.trivial_reachability(rule, max_len=max_cycle)
    if args.json:
        print(json.dumps({
            "rule": rule.string,
            "d": rule.d,
            "m": rule.m,
            "balanced": is_balanced(rule),
            "linear": is_linear(rule),
            "left_changes": flow.left_changes,
            "right_changes": flow.right_changes,
            "total_rmts": flow.total_rmts,
            "quiescent_states": quiescent,
            "fixed_point_cycles": [list(p.rmts) for p, _ in fixed],
            "reachable_trivials": [
                [s, list(w.rmts)] for s, w in verdict.reachable_trivials],
        }))
        return 0
    print(f"rule {rule.string} (d={rule.d}, m={rule.m})")
    print(f"balanced: {is_balanced(rule)}, linear: {is_linear(rule)}")
    print(f"information flow: left={flow.left_changes}/{flow.total_rmts}, "
          f"right={flow.right_changes}/{flow.total_rmts}")
    print(f"quiescent states: {quiescent}")
    for p, period in fixed:
        pattern = "".join(str(c) for c in p.pattern())
        print(f"fixed point ({pattern})^k at sizes n = {period}k")
    for s, w in verdict.reachable_trivials:
        pattern = "".join(str(c) for c in w.pattern())
        print(f"{s}^n reachable from ({pattern})^k")
    eq = equivalent_rules(rule)
    print(f"reflection: {eq.reflection.string}")
    print(f"conjugation: {eq.conjugation.string}")
    return 0


def _cmd_synthesize(args) -> int:
    if args.strategy == "decimal":
        rules = synthesis.synthesize_decimal(args.count, seed=args.seed)
    else:
        spec = synthesis.StrategySpec(
            args.strategy, d=args.d, m=args.m, seed=args.seed,
            min_reverse_flow=args.min_reverse_flow)
        rules = synthesis.generate_strategy(spec, args.count)
        if args.filter:
            rules = synthesis.filter_randomness_candidates(
                rules, spec, strict=args.strict)
    for rule in rules:
        if args.as_perm:
            print(synthesis.permutation_of(rule))
        else:
            print(rule.string)
    return 0


def _cmd_evolve(args) -> int:
    rule = _load_rule(args)
    for cells in engine.trajectory(rule, args.start, args.steps):
        print("".join(str(c) for c in cells))
    return 0


def _cmd_cycle(args) -> int:
    rule = _load_rule(args)
    result = engine.cycle_length(rule, args.start, args.max_steps)
    if result.truncated:
        print(f"no repeat within {result.steps_used} steps")
    else:
        print(f"cycle length {result.cycle_length}, tail {result.tail_length}")
    return 0


def _cmd_spacetime(args) -> int:
    rule = _load_rule(args)
    data = engine.spacetime_raster(rule, args.start, args.steps)
    with open(args.out, "wb") as fh:
        fh.write(data)
    print(f"wrote {args.out}")
    return 0


def _cmd_prng(args) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    rule = _load_rule(args)
    if args.scheme == "tri":
        gen = prng.tri_window(rule, args.width)
    elif args.scheme == "dec":
        gen = prng.decimal_digits(rule, args.width)
    else:
        gen = prng.binary_blocks(rule, args.blocks)
    seed_digits = args.seed_digits or "0" * gen.width
    gen.seed(seed_digits)
    if args.format == "decimal-lines":
        sink = open(args.out, "w") if args.out else contextlib.nullcontext(sys.stdout)
        with sink as fh:
            for _ in range(args.count):
                fh.write(f"{gen.next()}\n")
        return 0
    spec = prng.StreamSpec(bits_per_output=gen.bits_per_output, count=args.count)
    if args.out:
        with open(args.out, "wb") as fh:
            written = prng.emit_stream(gen, spec, fh)
        print(f"wrote {written} bytes to {args.out}")
    else:
        prng.emit_stream(gen, spec, sys.stdout.buffer)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringca",
        description="Reversibility analysis and PRNGs for 1-D cellular "
                    "automata on a ring")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("classify", help="reversibility class over all ring sizes")
    _add_rule_args(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("check", help="reversibility at one ring size")
    _add_rule_args(p)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("info", help="static metrics and attractor structure")
    _add_rule_args(p)
    p.add_argument("--max-cycle", type=int, default=None,
                   help="bound the cycle searches (needed for d=10)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("synthesize", help="generate candidate rules")
    p.add_argument("--strategy", choices=["I", "II", "III", "decimal"],
                   required=True)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--filter", action="store_true",
                   help="apply the quiescent/fixed-point/flow filters")
    p.add_argument("--strict", action="store_true",
                   help="with --filter: require isolated trivial configurations")
    p.add_argument("--min-reverse-flow", type=int, default=8)
    p.add_argument("--as-perm", action="store_true",
                   help="print the sibling-set-0 permutation instead")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("evolve", help="print a trajectory")
    _add_rule_args(p)
    p.add_argument("--start", required=True)
    p.add_argument("--steps", type=int, default=1)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("cycle", help="detect the cycle from a seed")
    _add_rule_args(p)
    p.add_argument("--start", required=True)
    p.add_argument("--max-steps", type=int, default=10_000_000)
    p.set_defaults(func=_cmd_cycle)

    p = sub.add_parser("spacetime", help="write a space-time PPM image")
    _add_rule_args(p)
    p.add_argument("--start", required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spacetime)

    p = sub.add_parser("prng", help="run a window PRNG")
    _add_rule_args(p)
    p.add_argument("--scheme", choices=["tri", "dec", "bin"], required=True)
    p.add_argument("--width", type=int, default=20,
                   help="window length (tri/dec schemes)")
    p.add_argument("--blocks", type=int, default=1,
                   help="b for 32*b-bit outputs (bin scheme)")
    p.add_argument("--seed", "--seed-digits", dest="seed_digits",
                   help="window seed digits (default all 0)")
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--format", choices=["raw", "decimal-lines"], default="raw")
    p.set_defaults(func=_cmd_prng)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RuleError, ValueError, OSError, TreeSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
