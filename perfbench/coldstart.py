"""Cold start of one CLI-like call: import ringca.cli and build the
workload's first library objects, then print time.monotonic().

    python3 perfbench/coldstart.py WORKLOAD

``run.py`` reads the clock before starting this interpreter, so the
difference is the set-up time a fresh process pays.
"""

import sys
import time
from pathlib import Path

sys.path.insert(1, str(Path(__file__).resolve().parent.parent / "src"))

import ringca.cli  # noqa: E402,F401
from ringca import prng, rules, synthesis  # noqa: E402

workload = sys.argv[1]
if workload == "analyze":
    rules.parse_rule("01001011", 2, 3)
elif workload == "synth":
    synthesis.StrategySpec("II", seed=1)
    synthesis.Lcg(1)
else:
    prng.binary_blocks(synthesis.rule_from_permutation("8135940672"), 1)
print(time.monotonic())
