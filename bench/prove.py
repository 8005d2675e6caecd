"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/prove.py --seeds 10 [--record LABEL]

For each workload it runs bench/run.py once per seed 0, 1, ..., one after another,
and prints the median, the quartiles and the spread of every end-to-end
metric. The spread is the interquartile range as a share of the median,
from statistics.quantiles(values, n=4). It flags every spread that is a third
of the metric's bound or more. With --record it also makes one traced run per
workload, on seed 0, and appends everything to bench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TRAJECTORY = BENCH_DIR / "trajectory.json"


def run_once(workload: str, seed: int, trace: int, seconds: int) -> tuple[dict, list[str], float]:
    cmd = SPEC["command"][1:]
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *cmd, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1]), lines[:-1], wall


def summarize(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--record", metavar="LABEL", help="append the results to trajectory.json")
    args = parser.parse_args()

    entry = {"label": args.record, "date": time.strftime("%Y-%m-%d"),
             "run_seconds": args.seconds, "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs, walls = [], []
        for seed in range(args.seeds):
            result, lines, wall = run_once(workload, seed, 0, args.seconds)
            if not result["correct"]:
                raise SystemExit(f"{workload} seed {seed}: correctness check failed")
            runs.append(result)
            walls.append(wall)
            entry.setdefault("env", next((l for l in lines if l.startswith("env ")), ""))
        print(f"{workload}: {len(runs)} runs, wall per run {min(walls):.1f}-{max(walls):.1f} s")
        table = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarize(values)
            table[name] = stats
            flag = ""
            if stats["spread"] >= metric["bound"] / 3:
                flag = "  <-- spread >= bound/3"
                steady = False
            print(f"  {name:<16s} median {stats['median']:>12.5g} {metric['unit']:<6s}"
                  f" q1 {stats['q1']:>12.5g} q3 {stats['q3']:>12.5g}"
                  f" spread {stats['spread']:.4f} (bound {metric['bound']}){flag}")
            print("    runs " + " ".join(f"{v:.4g}" for v in values))
        record = {"end_to_end": table, "wall_s_max": max(walls)}
        if args.record:
            traced, _lines, _wall = run_once(workload, 0, 1, args.seconds)
            record["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["workloads"][workload] = record

    if args.record:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        history.append(entry)
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
        print(f"appended {args.record!r} to {TRAJECTORY}")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
