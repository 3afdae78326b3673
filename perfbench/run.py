"""ringca benchmark: one workload at one seed.

    python3 perfbench/run.py --workload analyze|synth|evolve --seed N \
        --seconds S --trace 0|1

Run from anywhere; the library is imported from ``src/`` next to this
directory.  With ``--trace 0`` it measures cold-start set-up, then runs
the workload untraced in a fresh process and prints every end-to-end
metric.  With ``--trace 1`` it also runs one traced round in another
process and prints every per-layer metric instead, plus the tracing
overhead.  Every output is checked; the last line of standard output is
one JSON object, and the exit code is 1 if any check failed.  The full
record of the run, environment included, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import layers
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
COLD_STARTS = 9
IMPORT_RUNS = 3
BUDGET_S = 170.0  # every child process is killed once the run is this old

# metrics in the result line: the same names on every workload
E2E = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_MB": "MB",
    "small_per_s": "1/s",
    "large_per_s": "1/s",
}
SLICES = {
    "analyze": ("d<=3 decisions (check_reversible, classify) per second",
                "d=10 check_reversible calls per second"),
    "synth": ("d=3 rules screened per second (filter_rules_per_s)",
              "accepted decimal rules per second (rules_per_s)"),
    "evolve": ("cycle_length steps per second (orbit_steps_per_s)",
               "stream bytes per second (stream_MBps * 1e6)"),
}
# the workload-specific end-to-end metrics, printed by name
NAMED = {
    "decisions_per_s": ("1/s", "analyze"),
    "decision_p50_ms": ("ms", "analyze"),
    "decision_tail_ms": ("ms", "analyze"),
    "wide_check_s": ("s", "analyze"),
    "rules_per_s": ("1/s", "synth"),
    "filter_rules_per_s": ("1/s", "synth"),
    "stream_MBps": ("MB/s", "evolve"),
    "orbit_steps_per_s": ("1/s", "evolve"),
}


class Failure(Exception):
    """The benchmark could not produce a result."""


def environment() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    llc = "unknown"
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    levels = []
    for c in caches:
        try:
            levels.append((int((c / "level").read_text()), (c / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    if levels:
        level, size = max(levels)
        llc = f"L{level} {size}"

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
        "llc": llc,
        "loadavg": list(os.getloadavg()),
        "networkx": version("networkx"),
        "numpy": version("numpy"),
    }


def remaining(started: float) -> float:
    left = BUDGET_S - (time.monotonic() - started)
    if left <= 0:
        raise Failure("time budget exhausted")
    return left


def child(args: list[str], started: float) -> subprocess.CompletedProcess:
    """Run a Python child to completion; on timeout it is killed and reaped."""
    try:
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              timeout=remaining(started), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise Failure(f"{args[0]} ran out of time") from exc
    if proc.returncode != 0:
        raise Failure(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return proc


def setup_time(workload: str, started: float) -> tuple[float, float]:
    """Median over fresh interpreters of start-to-objects-built time,
    scaled by the host speed reference timed around each start, and raw."""
    script = str(HERE / "coldstart.py")
    child([script, workload], started)  # untimed: writes bytecode caches
    # the reference and each fresh interpreter run on the same core
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    scaled, raw = [], []
    try:
        for _ in range(COLD_STARTS):
            chunks = [reference.chunk() for _ in range(5)]
            t0 = time.monotonic()
            proc = child([script, workload], started)
            raw.append(float(proc.stdout.split()[-1]) - t0)
            chunks += [reference.chunk() for _ in range(5)]
            scaled.append(raw[-1] * reference.scale_of(chunks))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(scaled), statistics.median(raw)


def import_times(workload: str, started: float) -> dict[str, float]:
    """Median cumulative import time of ringca, networkx and numpy, from
    ``-X importtime``; a package that is never imported reads 0."""
    runs = []
    for _ in range(IMPORT_RUNS):
        proc = child(["-X", "importtime", str(HERE / "coldstart.py"), workload], started)
        cumulative = {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) / 1e6
        runs.append(cumulative)
    return {pkg: statistics.median(r.get(pkg, 0.0) for r in runs)
            for pkg in ("ringca", "networkx", "numpy")}


def worker(workload: str, seed: int, seconds: float, mode: str, started: float) -> dict:
    stem = OUT / f"spans-{workload}-seed{seed}"
    proc = child([str(HERE / "worker.py"), workload, str(seed), str(seconds), mode,
                  str(stem)], started)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_benchmark_file() -> None:
    """BENCHMARK.json must list exactly the metrics this script prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    if e2e != E2E or per_layer != [row[:3] for row in layers.TABLE]:
        raise Failure("BENCHMARK.json and perfbench/layers.py disagree")
    if set(w["name"] for w in spec["workloads"]) != set(SLICES):
        raise Failure("BENCHMARK.json lists other workloads than perfbench")


def show(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<30} {text:>14} {unit:<6} {note}".rstrip())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SLICES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    try:
        if not (ROOT / "src" / "ringca" / "__init__.py").is_file():
            raise Failure(f"no ringca sources under {ROOT / 'src'}")
        check_benchmark_file()
        env = environment()
        print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
        setup_s, raw_setup_s = setup_time(args.workload, started)
        timed = worker(args.workload, args.seed, args.seconds, "timed", started)
        traced = imports = None
        if args.trace:
            imports = import_times(args.workload, started)
            traced = worker(args.workload, args.seed, args.seconds, "traced", started)
    except Failure as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    wall_s = statistics.median(timed["walls"])
    raw_wall_s = statistics.median(timed["raw_walls"])
    runs = [timed] + ([traced] if traced else [])
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    print(f"workload {args.workload} seed {args.seed}: {len(timed['walls'])} rounds in "
          f"{sum(timed['raw_walls']):.1f} s; closed loop, one caller, no threads")
    print(f"times scaled to the reference speed ({len(timed['chunks'])} chunks, mean "
          f"{statistics.fmean(timed['chunks']) * 1e3:.3f} ms, nominal "
          f"{reference.NOMINAL_S * 1e3:g} ms); raw values in brackets")
    show("setup_s", setup_s, "s", f"[{raw_setup_s:.4g}] median of {COLD_STARTS} cold starts")
    show("wall_s", wall_s, "s", f"[{raw_wall_s:.4g}] median of {len(timed['walls'])} rounds")
    show("peak_rss_MB", timed["rss_mb"], "MB", "workload process after round 1 (ru_maxrss)")
    show("error_rate", failed / attempted, "1", f"{failed} failed / {attempted} attempted")
    for name, (unit, owner) in NAMED.items():
        if name in timed["named"]:
            value, unit, note = timed["named"][name]
            raw = timed["raw"]["named"][name][0]
            show(name, value, unit, f"[{raw:.4g}] {note}")
        else:
            print(f"  {name:<30} {'n/a':>14} {unit:<6} measured by {owner} only")
    small, large = SLICES[args.workload]
    show("small_per_s", timed["small_per_s"], "1/s",
         f"[{timed['raw']['small_per_s']:.4g}] {small}")
    show("large_per_s", timed["large_per_s"], "1/s",
         f"[{timed['raw']['large_per_s']:.4g}] {large}")
    for err in timed["errors"] + (traced["errors"] if traced else []):
        print(f"  check failed: {err}")

    e2e = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_MB": timed["rss_mb"],
           "small_per_s": timed["small_per_s"], "large_per_s": timed["large_per_s"]}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "env": env, "end_to_end": e2e, "named": timed["named"],
              "raw": {"setup_s": raw_setup_s, "wall_s": raw_wall_s, **timed["raw"]},
              "walls": timed["walls"], "raw_walls": timed["raw_walls"],
              "chunks": timed["chunks"], "attempted": attempted, "failed": failed,
              "errors": timed["errors"]}
    if traced:
        values = dict(traced["layers"])
        absent = dict(traced["absent"])
        for pkg, secs in imports.items():
            values[f"import.{pkg}_s"] = secs
            if not secs:
                absent[f"import.{pkg}_s"] = f"{pkg} is not imported by ringca.cli"
        values["trace.overhead_s"] = traced["walls"][0] - wall_s
        print(f"traced round: {traced['walls'][0]:.4g} s [{traced['raw_walls'][0]:.4g}], "
              f"untraced wall_s {wall_s:.4g} s [{raw_wall_s:.4g}]; per-layer times are raw; "
              f"spans in {OUT.name}/spans-{args.workload}-seed{args.seed}.*")
        for name, unit, _, moves, on, still in layers.TABLE:
            where = f"moves {moves} on {on}" + (
                f"; no change on {', '.join(still)}" if still else "")
            note = f"absent: {absent[name]}" if name in absent else where
            show(name, values[name], unit, note)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, *_ in layers.TABLE}
        record.update(layers=values, absent=absent, traced_wall_s=traced["walls"][0])
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in E2E.items()}

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
