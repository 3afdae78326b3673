"""Steadiness check: run the benchmark in sets of seeds and compare.

    python3 perfbench/steady.py [--sets 2] [--runs 10] [--workloads analyze,synth]

Each set runs ``run.py`` once per seed (a fresh seed for every run and
set) on every workload, one run at a time.  For every end-to-end metric
and workload it prints each set's median and quartiles, the spread (the
distance between the quartiles over the median) against the metric's
bound, and how much worse the last set's median is than the first set's.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    values: dict = {}  # (workload, set) -> metric -> list of values
    for s in range(args.sets):
        for workload in args.workloads.split(","):
            for r in range(args.runs):
                seed = 1000 * (s + 1) + r
                proc = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                    capture_output=True, text=True, cwd=ROOT, timeout=300)
                line = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
                if proc.returncode != 0 or not line.startswith("{"):
                    print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                    return 1
                result = json.loads(line)
                for name, m in result["metrics"].items():
                    values.setdefault((workload, s), {}).setdefault(name, []).append(m["value"])
                print(f"set {s} {workload} seed {seed}: " + " ".join(
                    f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)

    ok = True
    print(f"\n{'workload':<8} {'metric':<12} {'set':>3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>7} {'bound':>6} {'worse':>7}")
    for workload in args.workloads.split(","):
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(args.sets):
                vals = values[(workload, s)][name]
                q1, med, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / med
                if first is None:
                    first = med
                worse = (med - first) / first if m["better"] == "lower" else (first - med) / first
                bad = (spread > bound and name != "setup_s") or worse > bound
                ok &= not bad
                print(f"{workload:<8} {name:<12} {s:>3} {q1:>11.5g} {med:>11.5g} {q3:>11.5g} "
                      f"{spread:>7.3f} {bound:>6.2f} {worse:>7.3f}{'  FAIL' if bad else ''}")
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    (ROOT / ".bench_out" / "steady.json").write_text(json.dumps(
        {f"{w}/set{s}": v for (w, s), v in values.items()}, indent=1) + "\n")
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
