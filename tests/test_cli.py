import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ringca
from ringca.cli import run
from ringca.rules import Rule, self_replicating_rmts
from ringca.tree import ReversibilityReport


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def python(*argv):
    """Run a fresh interpreter that imports this checkout's ringca."""
    src = str(Path(ringca.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env, timeout=60)


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

    def test_domain_error_exit_code(self, capsys):
        code, _, err = invoke(capsys, "check", "--d", "3", "--m", "3",
                              "--rule", "0120", "--size", "5")
        assert code == 1
        assert "error" in err

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            run(["check", "--bogus-flag"])
        assert exc.value.code == 2


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

    def test_default_bound_on_large_graph(self):
        # every RMT self-replicates, so an unbounded search would enumerate
        # every elementary cycle of the 128-node de Bruijn graph
        probe = Rule(2, 8, (0,) * 256)
        identity = Rule(2, 8, tuple(probe.middle_digit(r) for r in range(256)))
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

    def test_rule_file(self, capsys, tmp_path):
        rule_file = tmp_path / "rule.txt"
        rule_file.write_text("d=2 m=3 rule=01001011\n")
        code, out, _ = invoke(capsys, "check", "--rule-file", str(rule_file),
                              "--size", "7")
        assert code == 0 and "Reversible" in out

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

    def test_no_networkx_import(self):
        proc = python("-c", "import sys, ringca.cli; "
                            "print('networkx' in sys.modules)")
        assert proc.returncode == 0 and proc.stdout.strip() == "False"
