"""Run orchestration: tracking over frame streams, seeded suite sweeps, and
the ablation presets. Shared by the CLI and the acceptance tests."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from itertools import product
from typing import Iterable, Mapping, Sequence

from dataclasses import replace

from .association import CONFIRMED, LOST, TENTATIVE, DetectionCandidate, Frame, TrackerState, step_tracker
from .config import RunConfig
from .metrics import EvalReport, TrajectorySet, evaluate, format_metric
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
    frames: Mapping[int, Frame | list[DetectionCandidate]] | Sequence[Frame | list[DetectionCandidate]],
    run_cfg: RunConfig,
) -> TrajectorySet:
    """Run the tracker over a frame stream and collect the hypothesis set.

    Mapping input is keyed by frame number (gaps become empty frames); a
    sequence holds frame i+1 at position i. Each frame is a ``Frame`` or a
    list of candidates. Which lifecycle states reach
    the output is controlled by output.include_lost / include_tentative.
    Each frame's outputs come in increasing id order, so the collected
    columns are already sorted as ``TrajectorySet.from_columns`` checks.
    """
    if isinstance(frames, Mapping):
        numbers = range(min(frames), max(frames) + 1) if frames else ()
        stream = [(f, frames.get(f, [])) for f in numbers]
    else:
        stream = list(enumerate(frames, start=1))

    included = {CONFIRMED}
    if run_cfg.output_include_lost:
        included.add(LOST)
    if run_cfg.output_include_tentative:
        included.add(TENTATIVE)

    state = TrackerState(config=run_cfg.tracker)
    frame_col, id_col, box_col = [], [], []  # box_col: x, y, w, h of each box in turn
    for frame, candidates in stream:
        state, outputs = step_tracker(state, candidates, frame_index=frame)
        for out in outputs:  # in increasing id order
            if out.status in included:
                frame_col.append(frame)
                id_col.append(out.track_id)
                box_col.extend(out.box.as_tuple())
    return TrajectorySet.from_columns(frame_col, id_col, box_col)


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
    tasks = [(name, seed, replace(cfg, seed=seed, embed_dim=run_cfg.embed_dim))
             for name, cfg in scenarios for seed in seeds]

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


def _run_cells(base, cells, scenarios, seeds, jobs, with_hota) -> list[dict[str, dict[str, float]]]:
    """Per-scenario means for each override cell, in cell order. The seeds are
    listed and every config built before any cell runs, so bad input fails first."""
    if not (seed_list := list(seeds)):
        raise ValueError(f"seeds must name at least one seed, got {seeds!r}")
    configs = [base.with_overrides(cell) for cell in cells]
    return [mean_metrics(run_suite(cfg, scenarios, seed_list, jobs, with_hota)) for cfg in configs]


def run_ablation(
    base: RunConfig,
    scenarios: Sequence[tuple[str, ScenarioConfig]] | None = None,
    seeds: Iterable[int] = range(100),
    jobs: int = 1,
    with_hota: bool = True,
) -> dict[str, dict[str, dict[str, float]]]:
    """Mean metrics per preset per scenario, presets in PRESETS order:
    {preset: {scenario: {metric: mean}}}."""
    return dict(zip(PRESETS, _run_cells(base, PRESETS.values(), scenarios, seeds, jobs, with_hota)))


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
            lines.append(f"  {preset:<{width}}" + "".join(format_metric(agg.get(m), ".3f", "n/a").rjust(8)
                                                         for m in metrics))
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
    before any cell runs, so a bad or missing grid value fails before any work.
    """
    keys = sorted(grid)
    if empty := [key for key in keys if not grid[key]]:
        raise ValueError(f"grid key {empty[0]!r} has no values")
    cells = [dict(zip(keys, combo)) for combo in product(*(grid[k] for k in keys))]
    return list(zip(cells, _run_cells(base, cells, scenarios, seeds, jobs, with_hota)))


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
