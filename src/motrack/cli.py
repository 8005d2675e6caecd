"""Command-line interface: track, eval, simulate, sweep, ablate."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import KEYS, RunConfig
from .metrics import evaluate
from .mot_io import atomic_write_text, load_detections, load_trajectories, write_detections, write_trajectories
from .runner import (
    PRESETS,
    format_ablation_table,
    format_sweep_report,
    run_ablation,
    run_sweep,
    track_frames,
)
from .simulator import generate, scenario_by_name


# The config keys of the commands that read only some of them; any other key
# in their --config file is an error rather than silently ignored. track reads
# every key but the two that only eval and simulate read.
KEYS_READ = {"eval": ("eval.iou_threshold",), "simulate": ("embed.dim",)}
KEYS_READ["track"] = tuple(key for key in KEYS if key not in KEYS_READ["eval"] + KEYS_READ["simulate"])


def _load_config(args) -> RunConfig:
    if args.config is None:
        return RunConfig()
    return RunConfig.from_file(args.config, only=KEYS_READ.get(args.command), reader=f"motrack {args.command}")


def _cmd_track(args) -> int:
    cfg = _load_config(args)
    frames = load_detections(args.det, sidecar=args.aff)
    hypothesis = track_frames(frames, cfg)
    write_trajectories(args.out, hypothesis)
    print(f"wrote {hypothesis.total_boxes()} boxes for {len(hypothesis.identities())} tracks to {args.out}")
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_config(args)
    gt = load_trajectories(args.gt)
    hyp = load_trajectories(args.hyp)
    report = evaluate(gt, hyp, cfg.eval_iou_threshold)
    if args.format == "kv":
        print("\n".join(report.as_kv_lines()))
    else:
        print(report.as_table())
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    out_dir = Path(args.out_dir)
    try:
        scenario = scenario_by_name(args.scenario)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc
    scenario = replace(scenario, seed=args.seed, embed_dim=cfg.embed_dim)
    gt, frames = generate(scenario)

    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.scenario}_seed{args.seed}"
    gt_path = out_dir / f"{stem}_gt.txt"
    det_path = out_dir / f"{stem}_det.txt"
    write_trajectories(gt_path, gt)
    write_detections(det_path, frames)
    print(f"wrote {gt_path}")
    print(f"wrote {det_path} (+ sidecar)")
    return 0


def _parse_grid(items: list[str]) -> dict[str, list[str]]:
    grid: dict[str, list[str]] = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"bad --grid entry {item!r}; expected key=v1,v2,...")
        key, values = item.split("=", 1)
        key = key.strip()
        parsed = [v.strip() for v in values.split(",")]
        if not any(parsed):
            raise ValueError(f"bad --grid entry {item!r}: no values")
        if "" in parsed or key in grid:
            problem = "empty value" if "" in parsed else f"repeats key {key!r}"
            raise ValueError(f"bad --grid entry {item!r}: {problem}")
        grid[key] = parsed
    return grid


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    grid = _parse_grid(args.grid or [])
    results = run_sweep(cfg, grid, seeds=range(args.seeds), jobs=args.jobs, with_hota=not args.no_hota)
    report = format_sweep_report(results)
    if args.out:
        atomic_write_text(args.out, report + "\n")
        print(f"wrote {args.out}")
    else:
        print(report)
    return 0


def _cmd_ablate(args) -> int:
    cfg = _load_config(args)
    results = run_ablation(cfg, seeds=range(args.seeds), jobs=args.jobs, with_hota=not args.no_hota)
    print(format_ablation_table(results))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motrack",
        description="Motion-gated multi-object tracking, metrics, and occlusion simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key = value config file")
    suite = argparse.ArgumentParser(add_help=False, parents=[config])
    suite.add_argument("--seeds", type=int, default=100, help="seeds per scenario")
    suite.add_argument("--jobs", type=int, default=1, help="worker threads")
    suite.add_argument("--no-hota", action="store_true", help="skip the HOTA sweep")

    p_track = sub.add_parser("track", parents=[config], help="run the tracker over a detection file")
    p_track.add_argument("--det", required=True, help="MOT detection file")
    p_track.add_argument("--aff", help="explicit affinity sidecar (default: <det>.aff, if it exists)")
    p_track.add_argument("--out", required=True, help="hypothesis output file")
    p_track.set_defaults(func=_cmd_track)

    p_eval = sub.add_parser("eval", parents=[config], help="score a hypothesis against ground truth")
    p_eval.add_argument("--gt", required=True, help="ground-truth MOT file")
    p_eval.add_argument("--hyp", required=True, help="hypothesis MOT file")
    p_eval.add_argument("--format", choices=("table", "kv"), default="table")
    p_eval.set_defaults(func=_cmd_eval)

    p_sim = sub.add_parser("simulate", parents=[config], help="generate a named scenario to MOT files")
    p_sim.add_argument("--scenario", required=True, help="name from the standard suite")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out-dir", required=True, help="output directory")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", parents=[suite], help="run the suite across a config grid")
    p_sweep.add_argument("--grid", action="append", help="key=v1,v2,... (repeatable)")
    p_sweep.add_argument("--out", help="write the report to a file")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_abl = sub.add_parser("ablate", parents=[suite], help=f"compare presets {sorted(PRESETS)} over the suite")
    p_abl.set_defaults(func=_cmd_ablate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # so that a reader gone away fails here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so that the flush at interpreter exit does
        # not raise again; the output was cut short, so the run failed.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:  # a config, parse, file or range error
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
