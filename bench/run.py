"""motrack benchmark: one workload, one seed, one measured run.

    python3 bench/run.py --workload suite_serial --seed 0 --seconds 30 --trace 0

Prints the run environment and every metric by name and unit, then, as the
last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end-to-end metrics; --trace 1
reports the per-layer metrics of a traced run and its tracing overhead.
Exits 1 when a correctness check fails and 2 when motrack cannot be
imported from this checkout's src/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.dont_write_bytecode = True

with open(ROOT / "BENCHMARK.json") as _f:
    SPEC = json.load(_f)

UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def environment() -> dict[str, str]:
    import numpy
    import scipy

    from workloads import nproc

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "motrack").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": str(nproc()),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg": " ".join(f"{v:.2f}" for v in os.getloadavg()),
        "host_load": "not controlled (shared host)",
    }


def main(argv: list[str] | None = None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        import motrack
    except ImportError as exc:
        print(f"error: cannot import motrack from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(motrack.__file__).resolve().parent.parent != SRC:
        print(f"error: motrack imported from {motrack.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads

    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.make_workload(args.workload, args.seed, workdir, size)
        m = workloads.measure(workload, args.seconds, bool(args.trace))
        values = (workloads.per_layer if args.trace else workloads.end_to_end)(m, workload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it

    expected = [x["name"] for x in SPEC["per_layer" if args.trace else "end_to_end"]]
    if sorted(values) != sorted(expected):
        print(f"error: metrics {sorted(set(values) ^ set(expected))} disagree with BENCHMARK.json",
              file=sys.stderr)
        return 1

    env = environment()
    correct = m.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("env " + "  ".join(f"{k}={v}" for k, v in env.items()))
    samples = sum(len(p.latencies_ns) for p in m.passes if p.mode == "plain")
    print(f"{workload.op_noun}s attempted {m.attempted}  failed {m.failed}  "
          f"passes {len(m.passes)}  latency samples {samples}  setup repeats {len(m.setup_s)}")
    for name, value in values.items():
        print(f"  {name:<44s} {value:>14.6g} {UNITS[name]}")
    if args.trace:
        print("spans (traced passes): name  parent  calls  total_ms  self_ms")
        for name, stat in sorted(m.pass_tracer.spans().items(), key=lambda kv: -kv[1].total_ns):
            print(f"  {name:<40s} {stat.parent or '-':<32s} {stat.calls:>9d} "
                  f"{stat.total_ns / 1e6:>11.1f} {stat.self_ns / 1e6:>11.1f}")
    result = {
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    # A terminated run still removes its work files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
