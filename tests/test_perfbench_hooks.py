"""The names the benchmark's traced run rebinds must exist.

``perfbench/worker.py --trace 1`` wraps functions and methods of ringca
(``install``) and restores them afterwards (``unpatch``).  Deleting or
renaming one of them would otherwise surface only in a traced benchmark
run, not in the test suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import ringca

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import tracer, worker
from ringca import debruijn, engine, prng, synthesis
names = [(debruijn.DeBruijnGraph, "cycles"), (synthesis, "trivial_reachability"),
         (prng, "next_configuration"), (engine, "next_configuration")]
before = [getattr(owner, attr) for owner, attr in names]
spans = tracer.Spans()
worker.install(spans)
assert all(getattr(owner, attr) is not f for (owner, attr), f in zip(names, before))
spans.unpatch()
assert all(getattr(owner, attr) is f for (owner, attr), f in zip(names, before))
print("ok")
"""


def test_traced_run_patches_and_restores():
    src = str(Path(ringca.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
