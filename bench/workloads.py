"""The benchmark's workloads and the closed loop that measures them.

Every workload is closed loop with one client: a pass starts when the
previous one returns. A pass runs the workload's whole fixed input once, so
passes repeat the same work and their outputs must be identical.

Every timing is scaled by the host's speed while it ran, read from short runs
of a fixed reference kernel (see `reference_s` and `SpeedProbe`).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import resource
import statistics
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np
from motrack import association, cli, metrics, mot_io, runner, simulator, temporal_memory
from motrack.config import RunConfig

from tracer import Tracer

SETUP_REPEATS = 3     # set up at least this many times ...
SETUP_SECONDS = 3.0   # ... and until this long has passed
SUITE_SCENARIOS = tuple(name for name, _ in simulator.standard_suite())
CROWD_SCENARIO = "crowd24_occl20"
EVAL_SCENARIO = "crowd8_occl20_long"
QUALITY_SCENARIOS = SUITE_SCENARIOS + (CROWD_SCENARIO, EVAL_SCENARIO)

# Per-workload input sizes. "full" is what the benchmark command runs;
# "tiny" lets the benchmark's own tests run every workload in seconds.
SIZES = {
    "full": {"suite_seeds": 8, "suite_frames": None, "crowd_frames": 400, "crowd_agents": 24,
             "eval_frames": 4500, "prefix_frames": 60},
    "tiny": {"suite_seeds": 1, "suite_frames": 12, "crowd_frames": 25, "crowd_agents": 6,
             "eval_frames": 30, "prefix_frames": 10},
}

# The reference kernel's time per repeat on a host at full speed (an Intel
# Xeon 2-CPU virtual machine); timings are reported as if the host ran at it.
REFERENCE_REPEAT_S = 0.00375
BRACKET_REPEATS = 20   # a reference run before and after each set-up and pass
SLICE_REPEATS = 4      # a short run inside a set-up or pass ...
SLICE_GAP_S = 0.25     # ... at the first tick point this long after the last run
_REF_BOXES = [(float(i * 37 % 500), float(i * 53 % 400), 20.0 + i % 30, 30.0 + i % 20)
              for i in range(60)]
_REF_ARRAY = np.array(_REF_BOXES)


def reference_s(repeats: int) -> float:
    """Seconds taken by a fixed piece of work shaped like motrack's own:
    scalar box IoU in Python loops and many small numpy operations.

    Other tenants of a shared host slow every process down, by up to 2x and
    for seconds to minutes at a time. The kernel does not use motrack, so a
    change to the program leaves its time unchanged: it reads only the host's
    speed. Over 15 s windows of a 4-minute probe on a 2-CPU virtual machine,
    motrack's pass times varied with a coefficient of variation of 0.13,
    and their ratio to an interleaved run of this kernel with one of 0.03.
    """
    t0 = perf_counter()
    total = 0.0
    for _ in range(repeats):
        for ax, ay, aw, ah in _REF_BOXES:
            for bx, by, bw, bh in _REF_BOXES:
                ix = min(ax + aw, bx + bw) - max(ax, bx)
                iy = min(ay + ah, by + bh) - max(ay, by)
                if ix > 0.0 and iy > 0.0:
                    total += ix * iy / (aw * ah + bw * bh - ix * iy)
        for _ in range(300):
            total += float((_REF_ARRAY[:, :2] + _REF_ARRAY[:, 2:] * 0.5).sum())
    elapsed = perf_counter() - t0
    if total <= 0.0:  # keeps the work observable; never true
        raise AssertionError("reference kernel computed nothing")
    return elapsed


class SpeedProbe:
    """Reads the host's slowdown during one set-up or pass.

    A reference run brackets the timed block. Inside it, `tick` runs at the
    end of calls the workload names (`Workload.tick_points`) and adds a short
    reference run once SLICE_GAP_S has passed since the last one, so the
    probe follows the host's speed within the block. Those short runs are
    outside every latency sample, and `sliced_s` lets the caller take them
    off the block's time.
    """

    def __init__(self, slicing: bool) -> None:
        self.slicing = slicing
        self.readings: list[tuple[int, float]] = []  # (tick-point calls before it, slowdown)
        self.ticks = 0
        self.sliced_s = 0.0
        self._last = perf_counter()

    def sample(self, repeats: int = BRACKET_REPEATS) -> float:
        elapsed = reference_s(repeats)
        self.readings.append((self.ticks, elapsed / (repeats * REFERENCE_REPEAT_S)))
        self._last = perf_counter()
        return elapsed

    def tick(self, *_ignored) -> None:
        self.ticks += 1
        if self.slicing and perf_counter() - self._last >= SLICE_GAP_S:
            self.sliced_s += self.sample(SLICE_REPEATS)

    def slowdown(self) -> float:
        """Mean slowdown over the block."""
        return statistics.fmean(slowdown for _, slowdown in self.readings)

    def call_slowdowns(self) -> list[float]:
        """Slowdown around each tick-point call of the block: the mean of the
        last reading before the call and the first one after it."""
        out, k = [], 0
        for call in range(self.ticks):
            while self.readings[k + 1][0] <= call:
                k += 1
            out.append((self.readings[k][1] + self.readings[k + 1][1]) / 2.0)
        return out


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@dataclass
class Pass:
    mode: str            # "plain", "alt" (untraced, at jobs = nproc) or "traced"
    ops: int
    frames: int
    wall_s: float
    latencies_ns: list[int]  # one per operation the latency percentiles cover
    output: object
    failed: int = 0
    slowdown: float = 1.0    # host slowdown during the pass; timings are divided by it
    latency_slowdowns: list[float] = field(default_factory=list)  # per sample, when known

    def scaled_s(self) -> float:
        return self.wall_s / self.slowdown

    def scaled_latencies_ms(self) -> list[float]:
        slowdowns = self.latency_slowdowns or [self.slowdown] * len(self.latencies_ns)
        return [ns / 1e6 / s for ns, s in zip(self.latencies_ns, slowdowns)]


def _hook(probe: SpeedProbe, names: tuple[tuple[object, str], ...]) -> Tracer:
    """End-to-end timers: one sampling span around each given function,
    followed by a tick of the speed probe."""
    hook = Tracer()
    for owner, attr in names:
        hook.span(owner, attr, attr, samples=True, on_return=probe.tick)
    return hook


def _samples(hook: Tracer, name: str) -> list[int]:
    stat = hook.spans().get(name)
    return stat.samples_ns if stat else []


def _report_quality(report) -> dict[str, float]:
    return {"idf1": report.idf1, "hota": report.hota, "mota": report.mota, "ids": report.ids}


class Workload:
    op_noun: str
    traced_modes = ("plain", "traced")
    # Calls, in set-up and in passes, after which the speed probe may run.
    tick_points: tuple[tuple[object, str], ...] = ((runner, "step_tracker"),)
    # Whether a pass's latency samples are its tick-point calls, one each.
    samples_at_ticks = True

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, mode: str, probe: SpeedProbe) -> Pass:
        """One pass; its wall time excludes the probe's runs inside it."""
        raise NotImplementedError

    def diff(self, first, output, ops: int) -> int:
        """Ops of a pass that fail because its output differs from the first pass."""
        return 0 if output == first else ops

    def verify(self, output) -> int:
        """Ops of a pass with this output that fail the workload's own checks."""
        return 0

    def quality(self, output) -> dict[str, dict[str, float]]:
        """Scenario name -> {idf1, hota, mota, ids}, plus the workload value under ''."""
        raise NotImplementedError


class Suite(Workload):
    """The standard suite through run_suite(jobs=1, with_hota=True): short
    sequences, so fixed per-call costs dominate. runner's parallel dispatch
    runs at jobs = nproc in the "alt" passes of a traced run and once after
    the timed passes, where it must reproduce the serial reports."""

    op_noun = "cell"
    traced_modes = ("plain", "alt", "traced")

    def __init__(self, seed: int, size: str = "full") -> None:
        sizes = SIZES[size]
        self.parallel_jobs = nproc()
        k = sizes["suite_seeds"]
        self.seeds = [seed * k + i for i in range(k)]
        self.scenarios = simulator.standard_suite()
        if sizes["suite_frames"]:
            self.scenarios = [(n, replace(c, n_frames=sizes["suite_frames"])) for n, c in self.scenarios]
        self.frames = len(self.seeds) * sum(c.n_frames for _, c in self.scenarios)
        self.cfg = RunConfig()

    def _run(self, jobs: int):
        return runner.run_suite(self.cfg, self.scenarios, self.seeds, jobs=jobs, with_hota=True)

    def setup(self) -> None:
        # Warm-up over the first seed, so first-call costs are not timed.
        runner.run_suite(self.cfg, self.scenarios, self.seeds[:1], jobs=1, with_hota=True)

    def run_pass(self, mode: str, probe: SpeedProbe) -> Pass:
        jobs = self.parallel_jobs if mode == "alt" else 1
        hook = _hook(probe, self.tick_points)
        with hook:
            t0 = perf_counter()
            reports = self._run(jobs)
            wall = perf_counter() - t0 - probe.sliced_s
        steps = _samples(hook, "step_tracker")
        failed = 0 if len(steps) == self.frames else len(reports)
        return Pass(mode, len(reports), self.frames, wall, steps, reports, failed)

    def diff(self, first, output, ops: int) -> int:
        if set(first) != set(output):
            return ops
        return sum(1 for key in first if first[key] != output[key])

    def verify(self, output) -> int:
        failed = {key for key, r in output.items()
                  if r.total_gt == 0 or None in (r.idf1, r.hota, r.mota)}
        parallel = self._run(self.parallel_jobs)
        failed |= {key for key, r in output.items() if parallel.get(key) != r}
        return len(failed)

    def quality(self, output) -> dict[str, dict[str, float]]:
        def mean(reports) -> dict[str, float]:
            rows = [_report_quality(r) for r in reports]
            return {k: statistics.fmean(row[k] for row in rows) for k in rows[0]}

        table = {name: mean([r for (n, _s), r in output.items() if n == name])
                 for name, _ in self.scenarios}
        table[""] = mean(list(output.values()))
        return table


def crowd_scenario(seed: int, n_agents: int, n_frames: int) -> simulator.ScenarioConfig:
    """crowd8_occl20 scaled to a 1080p arena: dense, occluded, merging, ~1 clutter box/frame."""
    base = simulator.scenario_by_name("crowd8_occl20")
    return replace(base, n_agents=n_agents, n_frames=n_frames, arena=(1920.0, 1080.0),
                   fp_rate=1.0, seed=seed)


class CrowdOnline(Workload):
    """One long dense sequence through `motrack track`, in process."""

    op_noun = "frame"

    def __init__(self, seed: int, workdir: Path, size: str = "full") -> None:
        sizes = SIZES[size]
        self.scenario = crowd_scenario(seed, sizes["crowd_agents"], sizes["crowd_frames"])
        self.prefix = sizes["prefix_frames"]
        self.det = workdir / "crowd_det.txt"
        self.out = workdir / "crowd_hyp.txt"

    def setup(self) -> None:
        self.gt, self.frames = simulator.generate(self.scenario)
        mot_io.write_detections(self.det, self.frames)
        busy = [i for i, frame in enumerate(self.frames) if frame]
        # `track` runs from the first to the last frame that has a detection.
        self.n_frames = busy[-1] - busy[0] + 1

    def run_pass(self, mode: str, probe: SpeedProbe) -> Pass:
        hook = _hook(probe, self.tick_points)
        with hook, contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            code = cli.main(["track", "--det", str(self.det), "--out", str(self.out)])
            wall = perf_counter() - t0 - probe.sliced_s
        steps = _samples(hook, "step_tracker")
        data = self.out.read_bytes() if code == 0 else b""
        ok = code == 0 and len(steps) == self.n_frames
        return Pass(mode, self.n_frames, self.n_frames, wall, steps,
                    hashlib.sha256(data).hexdigest(), 0 if ok else self.n_frames)

    def verify(self, output) -> int:
        # The file round trip must not change tracking: the tracker is online,
        # so the in-memory run over a prefix equals the file run's prefix.
        expected = list(runner.track_frames(self.frames[: self.prefix], RunConfig()).records())
        got = [r for r in mot_io.load_trajectories(self.out).records() if r[0] <= self.prefix]
        return 0 if got == expected else self.n_frames

    def quality(self, output) -> dict[str, dict[str, float]]:
        report = metrics.evaluate(self.gt, mot_io.load_trajectories(self.out))
        return {CROWD_SCENARIO: _report_quality(report), "": _report_quality(report)}


class EvalFiles(Workload):
    """A long GT + tracker-hypothesis file pair through `motrack eval --format kv`."""

    op_noun = "eval pair"
    tick_points = ((runner, "step_tracker"), (metrics, "clear_metrics"),
                   (metrics, "identity_metrics"), (metrics, "hota"))
    samples_at_ticks = False

    def __init__(self, seed: int, workdir: Path, size: str = "full") -> None:
        base = simulator.scenario_by_name("crowd8_occl20")
        self.scenario = replace(base, n_frames=SIZES[size]["eval_frames"], seed=seed)
        self.gt_path = workdir / "eval_gt.txt"
        self.hyp_path = workdir / "eval_hyp.txt"

    def setup(self) -> None:
        self.gt, frames = simulator.generate(self.scenario)
        self.hyp = runner.track_frames(frames, RunConfig())
        mot_io.atomic_write_text(self.gt_path, mot_io.trajectory_lines(self.gt.records()))
        mot_io.write_trajectories(self.hyp_path, self.hyp)

    def run_pass(self, mode: str, probe: SpeedProbe) -> Pass:
        buf = io.StringIO()
        with _hook(probe, self.tick_points), contextlib.redirect_stdout(buf):
            t0 = perf_counter()
            code = cli.main(["eval", "--gt", str(self.gt_path), "--hyp", str(self.hyp_path),
                             "--format", "kv"])
            wall = perf_counter() - t0 - probe.sliced_s
        output = buf.getvalue() if code == 0 else ""
        return Pass(mode, 1, self.scenario.n_frames, wall, [round(wall * 1e9)], output,
                    0 if code == 0 else 1)

    def verify(self, output) -> int:
        # `eval` on the files must equal evaluate() on the in-memory sets.
        report = metrics.evaluate(self.gt, self.hyp, RunConfig().eval_iou_threshold)
        return 0 if output == "\n".join(report.as_kv_lines()) + "\n" else 1

    def quality(self, output) -> dict[str, dict[str, float]]:
        kv = dict(line.split("=", 1) for line in output.splitlines())
        row = {k: float(kv[k]) for k in ("idf1", "hota", "mota", "ids")}
        return {EVAL_SCENARIO: row, "": row}


def make_workload(name: str, seed: int, workdir: Path, size: str = "full") -> Workload:
    if name == "suite_serial":
        return Suite(seed, size)
    if name == "crowd_online":
        return CrowdOnline(seed, workdir, size)
    if name == "eval_files":
        return EvalFiles(seed, workdir, size)
    raise KeyError(f"unknown workload {name!r}")


# --- tracing ---------------------------------------------------------------

def layer_tracer() -> Tracer:
    """Spans and counters at every layer boundary, rebound in the calling module."""

    def on_step(stats, args, result):
        live = len(result[0].tracks)
        stats.counts["live_tracks"] += live
        stats.maxima["live_tracks"] = max(stats.maxima.get("live_tracks", 0), live)

    def on_associate(stats, args, result):
        stats.counts["pairs"] += len(args[0]) * len(args[1])
        stats.counts["matches"] += len(result.matches)

    def on_update(stats, args, result):
        stats.counts["corrections_fired"] += result.state is not args[0].state

    def on_generate(stats, args, result):
        stats.counts["sim_frames"] += args[0].n_frames
        stats.counts["sim_candidates"] += sum(len(frame) for frame in result[1])

    def on_clear(stats, args, result):
        stats.counts["gt_boxes"] += result.total_gt

    def on_load_det(stats, args, result):
        stats.counts["lines_read"] += sum(len(frame) for frame in result.values())

    def on_load_traj(stats, args, result):
        stats.counts["lines_read"] += result.total_boxes()

    def on_sidecar(stats, args, result):
        stats.counts["lines_read"] += len(result)

    def on_write(stats, args, result):
        stats.counts["lines_written"] += args[1].total_boxes()

    queue = temporal_memory.MotionQueue
    return (
        Tracer()
        .span(runner, "run_scenario", "runner.run_scenario", samples=True)
        .span(runner, "generate", "simulator.generate", on_return=on_generate)
        .span(simulator, "generate", "simulator.generate", on_return=on_generate)
        .count(simulator, "iou", "iou.simulator")
        .span(runner, "step_tracker", "association.step_tracker", on_return=on_step)
        .span(association, "kf_predict", "kinematics.kf_predict")
        .span(association, "kf_gated_update", "kinematics.kf_gated_update", on_return=on_update)
        .span(association, "kf_init", "kinematics.kf_init")
        .span(association, "associate_frame", "association.associate_frame", on_return=on_associate)
        .span(association, "linear_sum_assignment", "association.linear_sum_assignment")
        .count(association, "iou", "iou.association")
        .span(association, "temporal_buffer_update", "association.temporal_buffer_update")
        .span(queue, "push", "temporal_memory.MotionQueue.push")
        .span(runner, "evaluate", "metrics.evaluate")
        .span(cli, "evaluate", "metrics.evaluate")
        .span(metrics, "clear_metrics", "metrics.clear_metrics", on_return=on_clear)
        .span(metrics, "identity_metrics", "metrics.identity_metrics")
        .span(metrics, "hota", "metrics.hota")
        .count(metrics, "linear_sum_assignment", "metrics.assignment_calls")
        .count(metrics, "iou", "iou.metrics")
        .span(cli, "track_frames", "runner.track_frames")
        .span(cli, "load_detections", "mot_io.load_detections", on_return=on_load_det)
        .span(mot_io, "load_sidecar", "mot_io.load_sidecar", on_return=on_sidecar)
        .span(cli, "load_trajectories", "mot_io.load_trajectories", on_return=on_load_traj)
        .span(cli, "write_trajectories", "mot_io.write_trajectories", on_return=on_write)
    )


# --- measurement -----------------------------------------------------------

def _percentile(values: list[float], p: int) -> float:
    if not values:  # only when a correctness check has already failed
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; worker processes, if any, count too.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _rate(passes: list[Pass]) -> float:
    """Frames per second of the median pass, in scaled time."""
    return passes[0].frames / statistics.median(p.scaled_s() for p in passes)


def _latencies_ms(passes: list[Pass]) -> list[float]:
    """Each operation's median scaled latency over the given passes.

    Passes repeat identical input in the same order, so sample i is the same
    frame or call in every pass. A cost that hits an operation in fewer than
    half of the passes, such as a garbage-collector pause or a burst of load
    from another tenant, does not count.
    """
    return [statistics.median(samples)
            for samples in zip(*(p.scaled_latencies_ms() for p in passes))]


@dataclass
class Measurement:
    setup_s: list[float]
    passes: list[Pass]
    quality: dict[str, dict[str, float]]
    pass_tracer: Tracer | None
    setup_tracer: Tracer | None

    @property
    def attempted(self) -> int:
        return sum(p.ops for p in self.passes)

    @property
    def failed(self) -> int:
        return sum(min(p.failed, p.ops) for p in self.passes)


def measure(workload: Workload, seconds: float, trace: bool) -> Measurement:
    """Set up SETUP_REPEATS times or more, until SETUP_SECONDS have passed,
    then run passes until `seconds` have passed.

    Untraced, every pass is a plain pass. Traced, plain, (alt) and traced
    passes rotate, so the untraced passes of the same run give the tracing
    overhead. Each mode runs at least twice. Each set-up and pass is scaled
    by its own SpeedProbe. A traced run takes no probe runs inside set-ups
    and passes, so that they leave the layer spans untouched; its probes
    read only the bracketing runs.
    """
    setup_s = []
    setup_tracer = layer_tracer() if trace else None
    deadline = perf_counter() + SETUP_SECONDS
    while len(setup_s) < SETUP_REPEATS or perf_counter() < deadline:
        probe = SpeedProbe(slicing=not trace)
        layers = setup_tracer or contextlib.nullcontext()
        probe.sample()
        with layers, _hook(probe, workload.tick_points):
            t0 = perf_counter()
            workload.setup()
            elapsed = perf_counter() - t0 - probe.sliced_s
        probe.sample()
        setup_s.append(elapsed / probe.slowdown())

    modes = workload.traced_modes if trace else ("plain",)
    pass_tracer = layer_tracer() if trace else None
    passes: list[Pass] = []
    deadline = perf_counter() + seconds
    while len(passes) < 2 * len(modes) or perf_counter() < deadline:
        mode = modes[len(passes) % len(modes)]
        probe = SpeedProbe(slicing=not trace)
        probe.sample()
        with pass_tracer if mode == "traced" else contextlib.nullcontext():
            p = workload.run_pass(mode, probe)
        probe.sample()
        p.slowdown = probe.slowdown()
        if workload.samples_at_ticks:
            p.latency_slowdowns = probe.call_slowdowns()
        passes.append(p)

    first = passes[0].output
    own_failures = workload.verify(first)
    for p in passes:
        p.failed += workload.diff(first, p.output, p.ops) or own_failures
    return Measurement(setup_s, passes, workload.quality(first), pass_tracer, setup_tracer)


def end_to_end(m: Measurement, workload: Workload) -> dict[str, float]:
    """End-to-end metrics of the plain passes, in scaled time."""
    plain = [p for p in m.passes if p.mode == "plain"]
    latencies_ms = _latencies_ms(plain)
    return {
        "setup_s": statistics.median(m.setup_s),
        "peak_rss_mb": _peak_rss_mb(),
        "frames_per_s": _rate(plain),
        "latency_p50_ms": _percentile(latencies_ms, 50),
        "latency_p99_ms": _percentile(latencies_ms, 99),
        "mota": m.quality[""]["mota"],
    }


def per_layer(m: Measurement, workload: Workload) -> dict[str, float]:
    """Per-layer metrics of the traced passes. Counts are per pass over the
    workload's input; a layer the workload does not exercise reads 0."""
    traced = [p for p in m.passes if p.mode == "traced"]
    n_traced = len(traced)
    spans = m.pass_tracer.spans()
    counts = m.pass_tracer.counts()
    maxima = m.pass_tracer.maxima()

    def total_us(name: str) -> float:
        stat = spans.get(name)
        return stat.total_ns / 1e3 if stat else 0.0

    def calls(name: str) -> int:
        stat = spans.get(name)
        return stat.calls if stat else 0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_pass(value: float) -> float:
        return value / n_traced

    # The simulator runs in the timed passes on the suites and only in set-up elsewhere.
    sim_tracer, sim_runs = m.pass_tracer, n_traced
    if not calls("simulator.generate"):
        sim_tracer, sim_runs = m.setup_tracer, len(m.setup_s)
    sim = sim_tracer.spans().get("simulator.generate")
    sim_counts = sim_tracer.counts()
    sim_frames = sim_counts.get("sim_frames", 0)

    frames = calls("association.step_tracker")
    step = spans.get("association.step_tracker")
    pairs = counts.get("pairs", 0)
    updates = calls("kinematics.kf_gated_update")
    assign_us = total_us("association.linear_sum_assignment")
    gt_boxes = counts.get("gt_boxes", 0)
    cell_samples = spans["runner.run_scenario"].samples_ns if calls("runner.run_scenario") else []

    out = {
        "simulator.us_per_frame": ratio(sim.total_ns / 1e3 if sim else 0.0, sim_frames),
        "simulator.candidates_per_frame": ratio(sim_counts.get("sim_candidates", 0), sim_frames),
        "geometry.iou_calls.association": per_pass(counts.get("iou.association", 0)),
        "geometry.iou_calls.metrics": per_pass(counts.get("iou.metrics", 0)),
        "geometry.iou_calls.simulator": sim_counts.get("iou.simulator", 0) / sim_runs,
        "kinematics.predict_us_per_frame": ratio(total_us("kinematics.kf_predict"), frames),
        "kinematics.update_us_per_frame": ratio(total_us("kinematics.kf_gated_update"), frames),
        "kinematics.corrections_fired": per_pass(counts.get("corrections_fired", 0)),
        "kinematics.gate_open_ratio": ratio(counts.get("corrections_fired", 0), updates),
        "association.step_us_per_frame": ratio(total_us("association.step_tracker"), frames),
        "association.associate_us_per_frame": ratio(total_us("association.associate_frame"), frames),
        "association.assignment_us_per_frame": ratio(assign_us, frames),
        "association.score_ns_per_pair": ratio(
            (total_us("association.associate_frame") - assign_us) * 1e3, pairs),
        "association.lifecycle_us_per_frame": ratio(step.self_ns / 1e3 if step else 0.0, frames),
        "association.pairs_per_frame": ratio(pairs, frames),
        "association.match_yield": ratio(counts.get("matches", 0), pairs),
        "association.live_tracks_mean": ratio(counts.get("live_tracks", 0), frames),
        "association.live_tracks_max": maxima.get("live_tracks", 0),
        "association.births": per_pass(calls("kinematics.kf_init")),
        "association.buffer_updates": per_pass(calls("association.temporal_buffer_update")),
        "temporal_memory.queue_pushes": per_pass(calls("temporal_memory.MotionQueue.push")),
        "temporal_memory.queue_push_us_per_frame": ratio(
            total_us("temporal_memory.MotionQueue.push"), frames),
        "metrics.clear_us_per_gt_box": ratio(total_us("metrics.clear_metrics"), gt_boxes),
        "metrics.identity_us_per_gt_box": ratio(total_us("metrics.identity_metrics"), gt_boxes),
        "metrics.hota_us_per_gt_box": ratio(total_us("metrics.hota"), gt_boxes),
        "metrics.assignment_calls": per_pass(counts.get("metrics.assignment_calls", 0)),
        "mot_io.parse_us_per_line": ratio(
            total_us("mot_io.load_detections") + total_us("mot_io.load_trajectories"),
            counts.get("lines_read", 0)),
        "mot_io.sidecar_share": ratio(total_us("mot_io.load_sidecar"),
                                      total_us("mot_io.load_detections")),
        "mot_io.write_us_per_line": ratio(total_us("mot_io.write_trajectories"),
                                          counts.get("lines_written", 0)),
        "runner.cell_ms_p50": (_percentile([ns / 1e6 for ns in cell_samples], 50)
                               if cell_samples else 0.0),
        "runner.parallel_efficiency": _parallel_efficiency(m.passes, workload),
    }
    for scenario in QUALITY_SCENARIOS:
        row = m.quality.get(scenario, {})
        for key in ("ids", "idf1", "hota"):
            out[f"quality.{scenario}.{key}"] = row.get(key, 0.0)
    for key in ("ids", "idf1", "hota"):
        out[f"quality.{key}"] = m.quality[""][key]
    out.update(_trace_overhead(m.passes, traced))
    return out


def _parallel_efficiency(passes: list[Pass], workload: Workload) -> float:
    """cells/s at nproc jobs / (nproc * cells/s at 1 job), from untraced passes."""
    if not isinstance(workload, Suite):
        return 0.0
    serial, parallel = (_rate([p for p in passes if p.mode == mode]) for mode in ("plain", "alt"))
    return parallel / (workload.parallel_jobs * serial)


def _trace_overhead(passes: list[Pass], traced: list[Pass]) -> dict[str, float]:
    """Traced minus untraced, as a percentage of untraced, on the same run's passes."""
    plain = [p for p in passes if p.mode == "plain"]
    rate_plain, rate_traced = _rate(plain), _rate(traced)
    p50_plain = _percentile(_latencies_ms(plain), 50)
    p50_traced = _percentile(_latencies_ms(traced), 50)
    return {
        "trace.frames_per_s_overhead_pct": 100.0 * (rate_plain - rate_traced) / rate_plain,
        "trace.latency_p50_overhead_pct": 100.0 * (p50_traced - p50_plain) / p50_plain,
    }
