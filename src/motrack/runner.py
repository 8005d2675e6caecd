"""Run orchestration: tracking over frame streams, seeded suite sweeps, and
the ablation presets. Shared by the CLI and the acceptance tests."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import product
from typing import Iterable, Mapping, Sequence

from dataclasses import replace

from .association import CONFIRMED, LOST, TENTATIVE, DetectionCandidate, TrackerState, step_tracker
from .config import RunConfig
from .metrics import EvalReport, TrajectorySet, evaluate
from .simulator import ScenarioConfig, generate, standard_suite

# Ablation presets. tau_kf = inf switches the confidence gate permanently
# off (the filter never corrects), which reduces the tracker to pure
# appearance matching when alpha = 1; alpha = 0 is pure motion IoU.
PRESETS: dict[str, dict[str, str]] = {
    "full": {},
    "no_motion_gate": {"kf.tau_kf": "inf"},
    "appearance_only": {"assoc.alpha": "1.0", "kf.tau_kf": "inf"},
    "motion_only": {"assoc.alpha": "0.0"},
}


def track_frames(
    frames: Mapping[int, list[DetectionCandidate]] | Sequence[list[DetectionCandidate]],
    run_cfg: RunConfig,
) -> TrajectorySet:
    """Run the tracker over a frame stream and collect the hypothesis set.

    Mapping input is keyed by frame number (gaps become empty frames); a
    sequence holds frame i+1 at position i. Which lifecycle states reach
    the output is controlled by output.include_lost / include_tentative.
    """
    if isinstance(frames, Mapping):
        if frames:
            first, last = min(frames), max(frames)
            stream = [(f, frames.get(f, [])) for f in range(first, last + 1)]
        else:
            stream = []
    else:
        stream = [(i + 1, candidates) for i, candidates in enumerate(frames)]

    included = {CONFIRMED}
    if run_cfg.output_include_lost:
        included.add(LOST)
    if run_cfg.output_include_tentative:
        included.add(TENTATIVE)

    state = TrackerState(config=run_cfg.tracker)
    hypothesis = TrajectorySet()
    for frame, candidates in stream:
        state, outputs = step_tracker(state, candidates, frame_index=frame)
        for out in outputs:
            if out.status in included:
                hypothesis.add(frame, out.track_id, out.box)
    return hypothesis


def run_scenario(
    scenario: ScenarioConfig,
    run_cfg: RunConfig,
    with_hota: bool = True,
) -> EvalReport:
    """Generate a scenario, track it, and evaluate the hypothesis."""
    gt, frames = generate(scenario)
    hypothesis = track_frames(frames, run_cfg)
    return evaluate(gt, hypothesis, run_cfg.eval_iou_threshold, with_hota=with_hota)


def run_suite(
    run_cfg: RunConfig,
    scenarios: Sequence[tuple[str, ScenarioConfig]] | None = None,
    seeds: Iterable[int] = range(100),
    jobs: int = 1,
    with_hota: bool = True,
) -> dict[tuple[str, int], EvalReport]:
    """Evaluate every (scenario, seed) cell on ``jobs`` worker threads (at
    least 1); results are keyed, so the merge order (and any thread
    schedule) cannot affect the outcome."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if scenarios is None:
        scenarios = standard_suite()
    seeds = list(seeds)
    tasks = [(name, seed, replace(cfg, seed=seed)) for name, cfg in scenarios for seed in seeds]

    def run(task):
        name, seed, scenario = task
        return (name, seed), run_scenario(scenario, run_cfg, with_hota=with_hota)

    if jobs == 1:
        results = dict(map(run, tasks))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = dict(pool.map(run, tasks))
    return results


def mean_metrics(reports: dict[tuple[str, int], EvalReport]) -> dict[str, dict[str, float]]:
    """Per-scenario means over seeds; None-valued metrics are skipped."""
    by_name: dict[str, list[EvalReport]] = {}
    for (name, _seed), report in sorted(reports.items()):
        by_name.setdefault(name, []).append(report)
    table: dict[str, dict[str, float]] = {}
    for name, rows in by_name.items():
        agg: dict[str, float] = {"runs": float(len(rows))}
        for metric in EvalReport._FIELDS:
            values = [getattr(r, metric) for r in rows if getattr(r, metric) is not None]
            if values:
                agg[metric] = sum(values) / len(values)
        table[name] = agg
    return table


def preset_config(base: RunConfig, preset: str) -> RunConfig:
    try:
        overrides = PRESETS[preset]
    except KeyError:
        raise KeyError(f"unknown preset {preset!r}; known: {sorted(PRESETS)}") from None
    return base.with_overrides(overrides)


def run_ablation(
    base: RunConfig,
    scenarios: Sequence[tuple[str, ScenarioConfig]] | None = None,
    seeds: Iterable[int] = range(100),
    jobs: int = 1,
    with_hota: bool = True,
) -> dict[str, dict[str, dict[str, float]]]:
    """Mean metrics per preset per scenario, presets in PRESETS order:
    {preset: {scenario: {metric: mean}}}."""
    seeds = list(seeds)
    out: dict[str, dict[str, dict[str, float]]] = {}
    for preset in PRESETS:
        reports = run_suite(preset_config(base, preset), scenarios, seeds, jobs, with_hota)
        out[preset] = mean_metrics(reports)
    return out


def format_ablation_table(results: dict[str, dict[str, dict[str, float]]]) -> str:
    """Comparison table of the ablation presets, one block per scenario."""
    metrics = ("ids", "idf1", "mota", "hota")
    scenario_names = sorted({name for per in results.values() for name in per})
    width = max(len(p) for p in results) + 2
    lines = []
    for name in scenario_names:
        lines.append(f"scenario {name}")
        header = f"  {'preset':<{width}}" + "".join(f"{m.upper():>8s}" for m in metrics)
        lines.append(header)
        for preset, per_scenario in results.items():
            agg = per_scenario.get(name, {})
            cells = []
            for m in metrics:
                v = agg.get(m)
                cells.append(f"{'n/a':>8s}" if v is None else f"{v:>8.3f}")
            lines.append(f"  {preset:<{width}}" + "".join(cells))
    return "\n".join(lines)


def run_sweep(
    base: RunConfig,
    grid: dict[str, list[str]],
    scenarios: Sequence[tuple[str, ScenarioConfig]] | None = None,
    seeds: Iterable[int] = range(100),
    jobs: int = 1,
    with_hota: bool = True,
) -> list[tuple[dict[str, str], dict[str, dict[str, float]]]]:
    """Evaluate the cartesian product of grid values over the suite.

    Returns one (cell-assignment, per-scenario means) entry per grid cell,
    in deterministic lexicographic cell order. Every cell's config is built
    before any cell runs, so a bad grid value fails before any work.
    """
    seeds = list(seeds)
    keys = sorted(grid)
    cells = [dict(zip(keys, combo)) for combo in product(*(grid[k] for k in keys))]
    if not cells:
        cells = [{}]
    configs = [base.with_overrides(cell) for cell in cells]
    return [
        (cell, mean_metrics(run_suite(cfg, scenarios, seeds, jobs, with_hota)))
        for cell, cfg in zip(cells, configs)
    ]


def format_sweep_report(results) -> str:
    lines = []
    for cell, table in results:
        assignment = " ".join(f"{k}={v}" for k, v in sorted(cell.items())) or "(defaults)"
        lines.append(f"cell {assignment}")
        for name in sorted(table):
            agg = table[name]
            metrics = " ".join(
                f"{metric}={agg[metric]:.6f}" for metric in EvalReport._FIELDS if metric in agg
            )
            lines.append(f"  {name} runs={int(agg['runs'])} {metrics}")
    return "\n".join(lines)
