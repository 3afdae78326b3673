import contextlib
import functools
import io
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ringca
from ringca import debruijn, prng, synthesis
from ringca.cli import run
from ringca.engine import evolve
from ringca.rules import Rule, parse_rule, self_replicating_rmts
from ringca.tree import ReversibilityReport

from conftest import FLOW_RULE


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def _env():
    """Environment of a fresh interpreter that imports this checkout's ringca."""
    src = str(Path(ringca.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=src)


def python(*argv):
    """Run a fresh interpreter that imports this checkout's ringca."""
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=_env(), timeout=60)


class TestClassify:
    def test_eca75(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--d", "2", "--m", "3",
                              "--rule", "01001011")
        assert code == 0
        assert "non-trivially-semi-reversible" in out
        assert "n = 2j + 2" in out
        assert "unique nodes: 21" in out

    def test_json_roundtrip(self, capsys):
        code, out, _ = invoke(capsys, "classify", "--d", "2", "--m", "3",
                              "--rule", "01001011", "--json")
        assert code == 0
        report = ReversibilityReport.from_dict(json.loads(out))
        assert report.unique_nodes == 21
        assert report.expressions[0].modulus == 2

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_stats(self, capsys, json_flag):
        argv = ("classify", "--d", "2", "--m", "3", "--rule", "00011011", *json_flag)
        code, plain, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = invoke(capsys, *argv, "--stats")
        assert code == 0 and out == plain
        assert err == ("classify: trivially-semi-reversible, M 7, last level 2, "
                       "levels built 3, stopped at tail bound B = 4\n")
        # the handler is gone again
        assert invoke(capsys, *argv)[2] == ""


class TestCheck:
    def test_irreversible(self, capsys):
        code, out, _ = invoke(capsys, "check", "--d", "3", "--m", "3",
                              "--rule", "102012120012102120102102120",
                              "--size", "555")
        assert code == 0
        assert out.strip() == "Irreversible (M=19)"

    def test_reversible(self, capsys):
        code, out, _ = invoke(capsys, "check", "--d", "2", "--m", "3",
                              "--rule", "01001011", "--size", "1001")
        assert code == 0
        assert out.strip() == "Reversible (M=21)"

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "check", "--d", "2", "--m", "3",
                              "--rule", "01001011", "--size", "1001", "--json")
        assert code == 0
        assert out == ('{"size": 1001, "reversible": true, "unique_nodes": 21, '
                       '"last_unique_level": 5}\n')

    @pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
    def test_stats(self, capsys, json_flag):
        argv = ("check", "--d", "3", "--m", "3",
                "--rule", "102012120012102120102102120", "--size", "555", *json_flag)
        code, plain, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = invoke(capsys, *argv, "--stats")
        assert code == 0 and out == plain
        assert err == ("check_reversible(n=555): reversible False, M 19, "
                       "last level 3, bipermutive False, judged at last levels 19\n")
        assert invoke(capsys, *argv)[2] == ""

    def test_domain_error_exit_code(self, capsys):
        code, _, err = invoke(capsys, "check", "--d", "3", "--m", "3",
                              "--rule", "0120", "--size", "5")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("perm",
                             ["aa3", "0123456788", "01234567890", "012345678 9"])
    def test_bad_permutation(self, capsys, perm):
        code, out, err = invoke(capsys, "check", "--perm", perm, "--size", "5")
        assert code == 1 and out == ""
        assert err == "error: need a permutation of the digits 0-9\n"

    @pytest.mark.parametrize("d, m", [("2", "1000000000"), ("10", "5000")])
    def test_huge_neighborhood(self, capsys, d, m):
        start = time.perf_counter()
        code, out, err = invoke(capsys, "check", "--d", d, "--m", m,
                                "--rule", "0", "--size", "5")
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"d={d}, m={m}" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--bogus-flag"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("sources", [
        ("--rule", "00011110", "--perm", "8572036419"),
        ("--rule", "00011110", "--rule-file", "rule.txt"),
        ("--perm", "8572036419", "--rule-file", "rule.txt"),
    ])
    def test_one_rule_source(self, capsys, sources):
        # two rule sources are a usage error, not a silent choice of one
        with pytest.raises(SystemExit) as exc:
            run(["check", "--d", "2", "--m", "3", *sources, "--size", "3"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "not allowed with argument" in err
        assert err.splitlines()[0].startswith("usage:")


class TestInfo:
    def test_flow_and_quiescent(self, capsys):
        code, out, _ = invoke(capsys, "info", "--d", "3", "--m", "3",
                              "--rule", "120021120021021120021021210")
        assert code == 0
        assert "left=18/27" in out and "right=10/27" in out
        assert "quiescent states: [0]" in out

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "info", "--d", "3", "--m", "3",
                              "--rule", "120021120021021120021021210", "--json")
        data = json.loads(out)
        assert data["left_changes"] == 18 and data["right_changes"] == 10
        assert data["balanced"] is True and data["linear"] is False

    @pytest.mark.parametrize("bound", ["0", "-3"])
    def test_max_cycle_below_one(self, capsys, bound):
        code, out, err = invoke(capsys, "info", "--d", "3", "--m", "3",
                                "--rule", "120021120021021120021021210",
                                "--max-cycle", bound)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_cycle_cap(self, capsys, monkeypatch):
        # every RMT of the identity rule self-replicates, so its unbounded
        # search meets all 148 elementary cycles of the 9-node graph
        probe = Rule(3, 3, (0,) * 27)
        identity = Rule(3, 3, tuple(probe.rmt_digits(r)[probe.lr] for r in range(27)))
        monkeypatch.setattr(debruijn, "_MAX_CYCLES", 20)
        code, out, err = invoke(capsys, "info", "--d", "3", "--m", "3",
                                "--rule", identity.string)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "more than 20 de Bruijn cycles" in err and "--max-cycle" in err
        code, out, _ = invoke(capsys, "info", "--d", "3", "--m", "3",
                              "--rule", identity.string, "--max-cycle", "2")
        assert code == 0
        assert "quiescent states: [0, 1, 2]" in out

    def test_default_bound_on_large_graph(self):
        # every RMT self-replicates, so an unbounded search would enumerate
        # every elementary cycle of the 128-node de Bruijn graph
        probe = Rule(2, 8, (0,) * 256)
        identity = Rule(2, 8, tuple(probe.rmt_digits(r)[probe.lr] for r in range(256)))
        assert len(self_replicating_rmts(identity)) == 256
        capped = ("import resource, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                  "from ringca.cli import main; main()")
        proc = python("-c", capped, "info", "--d", "2", "--m", "8",
                      "--rule", identity.string)
        assert proc.returncode == 0, proc.stderr
        assert "quiescent states: [0, 1]" in proc.stdout


class TestSynthesize:
    def test_strategy_ii(self, capsys):
        code, out, _ = invoke(capsys, "synthesize", "--strategy", "II",
                              "--count", "3", "--seed", "5")
        rules = out.split()
        assert code == 0 and len(rules) == 3
        assert all(len(r) == 27 for r in rules)

    def test_perm_output(self, capsys):
        code, out, _ = invoke(capsys, "synthesize", "--strategy", "decimal",
                              "--count", "1", "--seed", "2024", "--as-perm")
        perm = out.strip()
        assert code == 0
        assert sorted(perm) == list("0123456789")

    def test_seed_taken_mod_2_32(self, capsys):
        argv = ("synthesize", "--strategy", "decimal", "--as-perm")
        code, out, _ = invoke(capsys, *argv, "--seed", "-5")
        assert code == 0
        assert invoke(capsys, *argv, "--seed", str(2 ** 32 - 5)) == (0, out, "")

    def test_decimal_stats(self, capsys):
        argv = ("synthesize", "--strategy", "decimal", "--count", "1",
                "--seed", "2024", "--as-perm")
        code, plain, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = invoke(capsys, *argv, "--stats")
        assert code == 0 and out == plain
        assert err.startswith("synthesize_decimal(1, seed=2024, max_run=3): ")
        assert err.count("\n") == 1 and "1 accepted, " in err
        assert err.endswith(" RMTs lost to dead ends\n")
        # the handler is gone again
        assert invoke(capsys, *argv)[2] == ""

    def test_filter_stats(self, capsys):
        argv = ("synthesize", "--strategy", "II", "--count", "200", "--seed", "5",
                "--filter", "--strict")
        code, plain, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = invoke(capsys, *argv, "--stats")
        assert code == 0 and out == plain
        assert err == ("filter_randomness_candidates(strict=True, min_reverse_flow=8): "
                       "137 rejected by quiescent states, 40 by fixed points, 3 by "
                       "information flow, 20 by trivial predecessors, 0 kept\n")
        assert invoke(capsys, *argv)[2] == ""

    def test_filter_memory_bounded(self, capsys):
        """Rules are drawn one at a time and screened as they come, so the
        traced peak of ``--filter --strict`` does not grow with the count;
        holding 10,000 rules at once would take several MB."""
        argv = ["synthesize", "--strategy", "II", "--seed", "5", "--filter", "--strict"]
        invoke(capsys, *argv, "--count", "10")  # first-call imports and caches
        for count in (1000, 10_000):
            tracemalloc.start()
            try:
                code, _, _ = invoke(capsys, *argv, "--count", str(count))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert code == 0
            assert peak < 256 * 1024, f"peak {peak} bytes at --count {count}"

    @pytest.mark.parametrize("strategy, size", [
        ("I", ("--m", "0")), ("II", ("--m", "-1")), ("I", ("--d", "11")),
        ("I", ("--d", "10", "--m", "5000")), ("II", ("--d", "2", "--m", "30"))])
    def test_sizes_out_of_range(self, capsys, strategy, size):
        code, out, err = invoke(capsys, "synthesize", "--strategy", strategy,
                                *size)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_stats_needs_decimal(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["synthesize", "--strategy", "II", "--stats"])
        assert exc.value.code == 2
        assert "--stats needs --strategy decimal" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (("--strategy", "I", "--count", "3", "--strict"), "--strict needs --filter"),
        (("--strategy", "decimal", "--strict"), "--strict needs --filter"),
        (("--strategy", "decimal", "--filter"), "--filter needs --strategy I, II or III"),
        (("--strategy", "decimal", "--filter", "--strict"),
         "--filter needs --strategy I, II or III"),
        (("--strategy", "II", "--min-reverse-flow", "99", "--count", "2"),
         "--min-reverse-flow needs --filter"),
        (("--strategy", "decimal", "--d", "3", "--m", "5", "--min-reverse-flow", "99",
          "--count", "1", "--as-perm"), "--min-reverse-flow needs --filter"),
        (("--strategy", "decimal", "--d", "3"), "--d needs --strategy I, II or III"),
        (("--strategy", "decimal", "--m", "3"), "--m needs --strategy I, II or III")])
    def test_ignored_filter_options_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exc:
            run(["synthesize", *argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage:")
        assert captured.err.splitlines()[-1] == f"ringca: error: {message}"

    def test_negative_reverse_flow_rejected(self, capsys):
        code, out, err = invoke(capsys, "synthesize", "--strategy", "II", "--filter",
                                "--min-reverse-flow", "-3")
        assert code == 1 and out == ""
        assert err == "error: min_reverse_flow must be at least 0, got -3\n"

    def test_absent_options_take_spec_defaults(self, capsys):
        argv = ("synthesize", "--strategy", "II", "--count", "40", "--seed", "4",
                "--filter")
        code, default, _ = invoke(capsys, *argv)
        assert code == 0 and len(default.split()) == 2
        spec = synthesis.StrategySpec("II")
        given = ("--d", str(spec.d), "--m", str(spec.m),
                 "--min-reverse-flow", str(spec.min_reverse_flow))
        assert invoke(capsys, *argv, *given) == (0, default, "")
        # one of the two kept rules has a flow of exactly 8
        code, tighter, _ = invoke(capsys, *argv, "--min-reverse-flow", "9")
        assert code == 0 and len(tighter.split()) == 1

    def test_filter_and_strict(self, capsys):
        argv = ("synthesize", "--strategy", "II", "--count", "30", "--seed", "5")
        code, everything, _ = invoke(capsys, *argv)
        code, loose, _ = invoke(capsys, *argv, "--filter")
        assert code == 0
        code, strict, _ = invoke(capsys, *argv, "--filter", "--strict")
        assert code == 0
        assert set(strict.split()) <= set(loose.split()) < set(everything.split())


class TestEvolveAndCycle:
    def test_evolve(self, capsys):
        code, out, _ = invoke(capsys, "evolve", "--d", "3", "--m", "3",
                              "--rule", "201210210201210210201210210",
                              "--start", "1012", "--steps", "1")
        assert code == 0
        assert out.split() == ["1012", "0120"]

    def test_cycle(self, capsys):
        code, out, _ = invoke(capsys, "cycle", "--d", "3", "--m", "3",
                              "--rule", "120021120021021120021021210",
                              "--start", "00001", "--max-steps", "1000")
        assert code == 0
        assert "cycle length 170" in out

    def test_evolve_rows(self, capsys):
        # pinned output, one row per step
        code, out, _ = invoke(capsys, "evolve", "--perm", "8135940672",
                              "--start", "0123456789012", "--steps", "6")
        assert code == 0
        assert out == ("0123456789012\n2182760495316\n5456667432534\n"
                       "4064941348007\n2372177817366\n4333929074068\n"
                       "1065872762338\n")

    @pytest.mark.parametrize("rule_args, d", [
        (("--d", "2", "--m", "3", "--rule", "01101110"), 2),
        (("--d", "3", "--m", "3", "--rule", FLOW_RULE), 3),
        (("--perm", "8135940672"), 10),
    ])
    def test_evolve_rows_match_per_cell(self, capsys, rule_args, d):
        rng = random.Random(d)
        start = "".join(str(rng.randrange(d)) for _ in range(17))
        code, out, _ = invoke(capsys, "evolve", *rule_args, "--start", start,
                              "--steps", "9")
        rule = (synthesis.rule_from_permutation(rule_args[1]) if d == 10
                else parse_rule(rule_args[-1], d, 3))
        rows = evolve(rule, start, 9)
        assert code == 0
        assert out == "".join("".join(str(c) for c in row) + "\n" for row in rows)

    @pytest.mark.parametrize("max_steps, line", [
        ("100", "cycle length 25, tail 4"),
        ("29", "cycle length 25, tail 4"),
        ("28", "no repeat within 28 steps"),
    ])
    def test_cycle_with_tail(self, capsys, max_steps, line):
        code, out, _ = invoke(capsys, "cycle", "--d", "2", "--m", "3",
                              "--rule", "01101110", "--start", "0000000001",
                              "--max-steps", max_steps)
        assert code == 0 and out == line + "\n"

    def test_cycle_json(self, capsys):
        code, out, _ = invoke(capsys, "cycle", "--d", "2", "--m", "3",
                              "--rule", "01101110", "--start", "0000000001",
                              "--json")
        assert code == 0
        assert json.loads(out) == {"cycle_length": 25, "tail_length": 4,
                                   "truncated": False, "steps_used": 29}

    def test_cycle_stats(self, capsys):
        argv = ("cycle", "--d", "2", "--m", "3", "--rule", "01101110",
                "--start", "0000000001")
        code, plain, err = invoke(capsys, *argv)
        assert code == 0 and err == ""
        code, out, err = invoke(capsys, *argv, "--stats")
        assert code == 0 and out == plain
        assert err == ("cycle_length(n=10, max_steps=10000000): 31 steps, "
                       "class cycle 5, rotation 8, rotation period 10, tail 4\n")
        # the handler is gone again
        assert invoke(capsys, *argv)[2] == ""

    def test_cycle_empty_start(self):
        proc = python("-m", "ringca.cli", "cycle", "--d", "2", "--m", "3",
                      "--rule", "01101110", "--start", "")
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == "error: configuration must have at least one cell\n"


class TestFiles:
    def test_spacetime(self, capsys, tmp_path):
        out_file = tmp_path / "img.ppm"
        code, _, _ = invoke(capsys, "spacetime", "--d", "2", "--m", "3",
                            "--rule", "01011010", "--start", "00100",
                            "--steps", "2", "--out", str(out_file))
        assert code == 0
        data = out_file.read_bytes()
        assert data.startswith(b"P6\n5 3\n255\n")
        assert len(data) == len(b"P6\n5 3\n255\n") + 45

    def test_prng_raw(self, capsys, tmp_path):
        out_file = tmp_path / "stream.bin"
        code, out, _ = invoke(capsys, "prng", "--scheme", "bin",
                              "--perm", "8135940672", "--blocks", "1",
                              "--seed-digits", "00000000000007",
                              "--count", "4", "--out", str(out_file))
        assert code == 0
        assert out_file.stat().st_size == 16

    def test_prng_decimal_lines(self, capsys):
        code, out, _ = invoke(capsys, "prng", "--scheme", "dec",
                              "--perm", "8135940672", "--width", "3",
                              "--seed-digits", "042", "--count", "5",
                              "--format", "decimal-lines")
        assert code == 0
        values = [int(line) for line in out.split()]
        assert len(values) == 5
        assert all(0 <= v < 1000 for v in values)

    def test_prng_decimal_lines_pinned(self, capsys, tmp_path):
        expected = "642\n930\n174\n705\n70\n851\n677\n699\n"
        argv = ("prng", "--scheme", "dec", "--perm", "8135940672", "--width", "3",
                "--seed-digits", "042", "--count", "8", "--format", "decimal-lines")
        code, out, _ = invoke(capsys, *argv)
        assert code == 0 and out == expected
        out_file = tmp_path / "lines.txt"
        code, out, _ = invoke(capsys, *argv, "--out", str(out_file))
        assert code == 0 and out == ""
        assert out_file.read_text() == expected

    @pytest.mark.parametrize("count", [1, 255, 256, 257, 1000])
    @pytest.mark.parametrize("scheme", ["bin", "tri"])
    def test_prng_decimal_lines_in_blocks(self, capsys, scheme, count):
        if scheme == "bin":
            rule_args = ("--perm", "8135940672")
            gen = prng.binary_blocks(synthesis.rule_from_permutation("8135940672"))
        else:
            rule_args = ("--d", "3", "--m", "3", "--rule", FLOW_RULE)
            gen = prng.tri_window(parse_rule(FLOW_RULE, 3, 3))
        code, out, _ = invoke(capsys, "prng", "--scheme", scheme, *rule_args,
                              "--count", str(count), "--format", "decimal-lines")
        gen.seed("0" * gen.width)
        assert code == 0
        assert out == "".join(f"{prng.decimal_text(gen.next())}\n" for _ in range(count))

    def test_prng_decimal_lines_beyond_int_digit_limit(self):
        # a 9,100-trit window reads up to 3^9100 - 1, 4,342 digits, past
        # the 4,300 that str() of an int accepts by default
        width = 9100
        proc = python("-m", "ringca.cli", "prng", "--d", "3", "--m", "3",
                      "--rule", FLOW_RULE, "--scheme", "tri", "--width", str(width),
                      "--count", "1", "--format", "decimal-lines")
        assert proc.returncode == 0, proc.stderr
        (line,) = proc.stdout.splitlines()
        assert 4300 < len(line) <= 4342 and line[0] != "0"
        gen = prng.tri_window(parse_rule(FLOW_RULE, 3, 3), width)
        gen.seed("0" * width)
        assert functools.reduce(lambda v, c: v * 10 + int(c), line, 0) == gen.next()

    def test_rule_file(self, capsys, tmp_path):
        rule_file = tmp_path / "rule.txt"
        rule_file.write_text("d=2 m=3 rule=01001011\n")
        code, out, _ = invoke(capsys, "check", "--rule-file", str(rule_file),
                              "--size", "7")
        assert code == 0 and "Reversible" in out

    def test_rule_file_closed(self, tmp_path):
        rule_file = tmp_path / "rule.txt"
        rule_file.write_text("d=2 m=3 rule=01001011\n")
        proc = python("-X", "dev", "-m", "ringca.cli", "check",
                      "--rule-file", str(rule_file), "--size", "7")
        assert proc.returncode == 0 and "Reversible" in proc.stdout
        assert "ResourceWarning" not in proc.stderr

    def test_prng_count_below_one(self, capsys):
        code, out, err = invoke(capsys, "prng", "--scheme", "bin",
                                "--perm", "8135940672", "--count", "-5")
        assert code == 1 and out == ""
        assert err.startswith("error:") and "--count" in err

    @pytest.mark.parametrize("rule_args", [
        ("--scheme", "tri", "--d", "3", "--m", "3",
         "--rule", "120021120021021120021021210"),
        ("--scheme", "dec", "--perm", "8135940672"),
    ])
    def test_prng_width_below_one(self, capsys, rule_args):
        code, out, err = invoke(capsys, "prng", *rule_args, "--width", "0",
                                "--count", "2", "--format", "decimal-lines")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "width" in err

    @pytest.mark.parametrize("text, problem", [
        ("d=2 m=3", "rule="),
        ("m=3 rule=01001011", "d="),
        ("d=2 rule=01001011", "m="),
        ("d=two m=3 rule=01001011", "integers"),
        ("d=2 m=3.0 rule=01001011", "integers"),
        ("d=2 m=3 01001011", "'01001011'"),
    ])
    def test_rule_file_errors(self, capsys, tmp_path, text, problem):
        rule_file = tmp_path / "rule.txt"
        rule_file.write_text(text + "\n")
        code, out, err = invoke(capsys, "check", "--rule-file", str(rule_file),
                                "--size", "7")
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert problem in err


class TestEntryPoints:
    def test_module_main(self):
        proc = python("-m", "ringca.cli", "classify", "--d", "2", "--m", "3",
                      "--rule", "01001011")
        assert proc.returncode == 0
        assert proc.stdout.startswith("non-trivially-semi-reversible")

    @pytest.mark.parametrize("argv, code", [
        (("classify", "--d", "2", "--m", "3", "--rule", "01001011"), 0),
        (("classify", "--d", "2", "--m", "3", "--rule", "01001012"), 1),
        (("classify", "--d", "2", "--m", "3", "--rule", "01001011", "--bogus"), 2),
    ])
    def test_package_main(self, argv, code):
        proc = python("-m", "ringca", *argv)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout.startswith("non-trivially-semi-reversible") == (code == 0)

    def test_no_networkx_import(self):
        proc = python("-c", "import sys, ringca.cli; "
                            "print('networkx' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    def test_no_logging_import(self):
        # the synthesis counters import logging only when they are logged
        proc = python("-c", "import sys, ringca.cli; "
                            "print('logging' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    @pytest.mark.parametrize("argv", [
        ("evolve", "--d", "2", "--m", "3", "--rule", "01101110",
         "--start", "0000000001", "--steps", "100000"),
        ("prng", "--scheme", "dec", "--perm", "8135940672", "--width", "3",
         "--count", "100000", "--format", "decimal-lines"),
    ])
    def test_reader_closes_pipe_early(self, argv):
        # the output is far larger than a pipe buffer, so the verb is
        # still writing when the reader goes away; it stops quietly
        proc = subprocess.Popen([sys.executable, "-m", "ringca.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_env())
        assert proc.stdout.readline().strip()
        proc.stdout.close()
        assert proc.wait(timeout=60) == 0
        assert proc.stderr.read() == b""
        proc.stderr.close()


# -- any argv ends in exit 0, 1 or 2 ----------------------------------------

_INTEGER = st.integers(-2, 12).map(str)
_NUMBER = st.one_of(_INTEGER, _INTEGER, _INTEGER,
                    st.sampled_from(["", "x", "1.5", "0x10", "1_0"]))
_TEXT = st.text("0123456789a- ", max_size=12)
_START = st.one_of(st.text("01", max_size=12), st.text("012", max_size=12), _TEXT)
# rule sources; {tmp} is the directory that argv_dir fills
_VALID_RULES = st.sampled_from([
    ("--d", "2", "--m", "3", "--rule", "01001011"),
    ("--d", "3", "--m", "3", "--rule", FLOW_RULE),
    ("--perm", "8572036419"),
    ("--rule-file", "{tmp}/rule.txt"),
])
_RULES = st.one_of(
    _VALID_RULES, _VALID_RULES,
    st.sampled_from([
        ("--rule-file", "{tmp}/bad.txt"),
        ("--rule-file", "{tmp}/missing.txt"),
        ("--rule-file", "{tmp}"),
        ("--rule", "01001011", "--perm", "8572036419"),
        (),
    ]),
    st.tuples(st.just("--d"), st.sampled_from(["-1", "0", "1", "2", "3", "10"]),
              st.just("--m"), st.sampled_from(["-1", "0", "1", "2", "3", "40"]),
              st.just("--rule"), _TEXT),
    st.tuples(st.just("--perm"), _TEXT))
_OUT = st.sampled_from(["{tmp}/out", "{tmp}", "{tmp}/missing/out"])


def _opt(flag, values=None):
    """A strategy for one option's argv tokens."""
    if values is None:
        return st.just((flag,))
    return values.map(lambda value: (flag, value))


def _options(required=(), **optional):
    """A strategy for the argv tokens of the ``required`` options and any
    subset of the ``optional`` ones; the options are keyword arguments
    mapped to their :func:`_opt` strategies."""
    return st.fixed_dictionaries(dict(required), optional=optional).map(
        lambda drawn: [tok for opt in drawn.values() for tok in opt])


# every verb's options, with sizes, steps and counts bounded so that an
# example takes milliseconds: classify sees no valid d = 10 rule, whose
# tree takes some 0.2 s; cycle always has a step bound, since an 11-cell
# d = 10 ring can take 40 s to repeat; and a decimal synthesis takes a
# seed whose one rule takes about 10 ms (2-core Xeon; seed 1 takes 190 ms)
_VERBS = {
    "classify": _options(json=_opt("--json"), stats=_opt("--stats")),
    "check": _options({"size": _opt("--size", _NUMBER)},
                      json=_opt("--json"), stats=_opt("--stats")),
    "info": _options(max_cycle=_opt("--max-cycle", st.integers(-1, 4).map(str)),
                     json=_opt("--json")),
    "synthesize": _options(
        {"strategy": _opt("--strategy",
                          st.sampled_from(["I", "II", "III", "decimal", "x"])),
         "seed": _opt("--seed", st.sampled_from(["2", "6", "9", "x", ""]))},
        d=_opt("--d", st.integers(-1, 4).map(str)),
        m=_opt("--m", st.integers(-1, 4).map(str)),
        count=_opt("--count", st.integers(-1, 1).map(str)),
        filter=_opt("--filter"), strict=_opt("--strict"),
        flow=_opt("--min-reverse-flow", _NUMBER), as_perm=_opt("--as-perm"),
        stats=_opt("--stats")),
    "evolve": _options({"start": _opt("--start", _START)},
                       steps=_opt("--steps", _NUMBER)),
    "cycle": _options({"start": _opt("--start", _START),
                       "max_steps": _opt("--max-steps",
                                         st.integers(-1, 300).map(str))},
                      json=_opt("--json"), stats=_opt("--stats")),
    "spacetime": _options({"start": _opt("--start", _START),
                           "out": _opt("--out", _OUT)},
                          steps=_opt("--steps", _NUMBER)),
    "prng": _options(
        {"scheme": _opt("--scheme", st.sampled_from(["tri", "dec", "bin", "x"]))},
        width=_opt("--width", _NUMBER),
        blocks=_opt("--blocks", st.integers(-1, 3).map(str)),
        seed=_opt("--seed", st.text("0123456789", max_size=12)),
        count=_opt("--count", _NUMBER), out=_opt("--out", _OUT),
        format=_opt("--format", st.sampled_from(["raw", "decimal-lines", "x"]))),
}


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(sorted(_VERBS)))
    rule = () if verb == "synthesize" else draw(_RULES)
    if verb == "classify" and rule == ("--perm", "8572036419"):
        rule = ("--perm", "012345678")
    argv = [verb, *rule, *draw(_VERBS[verb])]
    stray = draw(st.sampled_from([None, None, None, "--bogus", "extra", "--json"]))
    return argv if stray is None else [*argv, stray]


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("argv")
    (tmp / "rule.txt").write_text("d=2 m=3 rule=01001011\n")
    (tmp / "bad.txt").write_text("d=2 m=3\n")
    return tmp


class TestAnyArgv:
    @given(_argv())
    @settings(max_examples=300, deadline=None)
    def test_exit_codes(self, argv_dir, argv):
        # a usage error exits 2 through argparse; a domain error returns 1
        # with one line on stderr; nothing else escapes
        argv = [tok.replace("{tmp}", str(argv_dir)) for tok in argv]
        out, err = io.TextIOWrapper(io.BytesIO()), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = run(argv)
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2), argv
        if code == 1:
            assert err.getvalue().startswith("error: "), argv
            assert err.getvalue().count("\n") == 1, argv
