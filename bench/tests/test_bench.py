"""The benchmark's own tests: every workload runs at a tiny size and reports
every metric, and every correctness check fails on a planted fault.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import workloads  # noqa: E402
from motrack import association, cli, runner  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture(autouse=True)
def few_setups(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_SECONDS", 0.0)


def bench(capsys, workload: str, trace: int = 0) -> tuple[int, dict]:
    code = run.main(["--workload", workload, "--seed", "1", "--seconds", "0.2",
                     "--trace", str(trace)], size="tiny")
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in run.SPEC["workloads"]])
def test_workload_reports_every_metric(capsys, workload, trace):
    code, result = bench(capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = run.SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in spec)
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def assert_fails(capsys, workload: str) -> None:
    code, result = bench(capsys, workload)
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


def test_nondeterministic_hypothesis_fails(capsys, monkeypatch):
    calls = []
    original = cli.track_frames

    def drifting(frames, cfg):
        calls.append(1)
        hyp = original(frames, cfg)
        if len(calls) == 2:
            hyp.add(max(hyp.frames) + 1, 999, next(iter(hyp.records()))[2])
        return hyp

    monkeypatch.setattr(cli, "track_frames", drifting)
    assert_fails(capsys, "crowd_online")


def test_nondeterministic_suite_report_fails(capsys, monkeypatch):
    passes = []
    run_pass = workloads.Suite.run_pass
    evaluate = runner.evaluate

    def counted(self, mode, probe):
        passes.append(mode)
        return run_pass(self, mode, probe)

    def drifting(*args, **kwargs):
        report = evaluate(*args, **kwargs)
        return replace(report, ids=report.ids + 1) if len(passes) == 2 else report

    monkeypatch.setattr(workloads.Suite, "run_pass", counted)
    monkeypatch.setattr(runner, "evaluate", drifting)
    assert_fails(capsys, "suite_serial")


def test_mismatched_eval_line_fails(capsys, monkeypatch):
    original = cli.evaluate
    monkeypatch.setattr(cli, "evaluate", lambda *a, **k: replace(original(*a, **k), fp=0))
    assert_fails(capsys, "eval_files")


def test_bypassed_latency_hook_fails(capsys, monkeypatch):
    original = cli.track_frames

    def bypass(frames, cfg):
        hooked = runner.step_tracker
        runner.step_tracker = association.step_tracker
        try:
            return original(frames, cfg)
        finally:
            runner.step_tracker = hooked

    monkeypatch.setattr(cli, "track_frames", bypass)
    assert_fails(capsys, "crowd_online")


def test_parallel_reports_must_equal_serial(capsys, monkeypatch):
    original = runner.run_suite

    def skewed(*args, jobs=1, **kwargs):
        reports = original(*args, jobs=jobs, **kwargs)
        if jobs > 1:
            key = min(reports)
            reports[key] = replace(reports[key], ids=reports[key].ids + 1)
        return reports

    monkeypatch.setattr(runner, "run_suite", skewed)
    assert_fails(capsys, "suite_serial")


def test_speed_probe_runs_outside_latency_samples(monkeypatch):
    monkeypatch.setattr(workloads, "SLICE_GAP_S", 0.0)
    workload = workloads.Suite(1, "tiny")
    workload.setup()
    probe = workloads.SpeedProbe(slicing=True)
    probe.sample()
    result = workload.run_pass("plain", probe)
    probe.sample()
    frames = len(result.latencies_ns)
    assert probe.ticks == frames and len(probe.readings) == frames + 2  # one run after every frame
    assert len(probe.call_slowdowns()) == frames
    # The pass time excludes the probe runs, and the frame samples still fit in it.
    assert sum(result.latencies_ns) / 1e9 < result.wall_s


def test_tracer_restores_names_and_splits_self_time():
    original = runner.step_tracker
    tracer = (Tracer()
              .span(runner, "step_tracker", "step")
              .span(association, "associate_frame", "associate"))
    frames = [[association.DetectionCandidate(association.BoundingBox(0.0, 0.0, 10.0, 10.0), 0.9)]] * 3
    with tracer:
        assert runner.step_tracker is not original
        runner.track_frames(frames, runner.RunConfig())
    assert runner.step_tracker is original
    spans = tracer.spans()
    assert spans["step"].calls == 3 and spans["associate"].calls == 3
    assert spans["associate"].parent == "step"
    assert spans["step"].self_ns == spans["step"].total_ns - spans["associate"].total_ns


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "suite_serial", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
