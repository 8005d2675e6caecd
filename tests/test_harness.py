import contextlib
import io
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
import time
import warnings
from dataclasses import fields, is_dataclass
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import (BoundingBox, ConfigError, DetectionCandidate, KinematicsConfig, RunConfig, TrackerConfig,
                     mot_io, runner)
from motrack.cli import KEYS_READ, main
from motrack.config import KEYS
from motrack.geometry import RANGES
from motrack.mot_io import (
    MotParseError,
    load_detections,
    load_sidecar,
    load_trajectories,
    sidecar_path,
    write_detections,
    write_trajectories,
)
from motrack.runner import PRESETS, preset_config, run_suite, run_sweep, track_frames
from motrack.simulator import ScenarioConfig, generate, scenario_by_name

from fixtures import perfect_gt


class TestRunConfig:
    def test_defaults_cover_every_key(self):
        cfg = RunConfig()
        assert cfg.tracker.kinematics.tau_kf == 3.0
        assert cfg.tracker.mode == "hungarian"
        assert "kf.tau_kf" in cfg.describe()

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# tracker setup\n"
            "assoc.alpha = 0.25\n"
            "kf.tau_kf = inf\n"
            "lifecycle.max_age = 12   # coast budget\n"
            "output.include_lost = true\n"
        )
        cfg = RunConfig.from_file(path)
        assert cfg.tracker.alpha == 0.25
        assert math.isinf(cfg.tracker.kinematics.tau_kf)
        assert cfg.tracker.max_age == 12
        assert cfg.output_include_lost is True

    def test_empty_file_is_complete(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        assert RunConfig.from_file(path) == RunConfig()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("assoc.alhpa = 0.5\n")
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig.from_file(path)

    def test_type_checked_values(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("lifecycle.n_init = soon\n")
        with pytest.raises(ConfigError, match="expected an integer"):
            RunConfig.from_file(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text("assoc.alpha = 0.1\nassoc.alpha = 0.2\n")
        with pytest.raises(ConfigError, match="duplicate"):
            RunConfig.from_file(path)

    def test_mode_choice_validated(self):
        with pytest.raises(ConfigError):
            RunConfig().with_overrides({"assoc.mode": "psychic"})

    def test_builds_tracker_configs(self):
        cfg = RunConfig().with_overrides({"assoc.alpha": "0.7", "kf.tau_obj": "0.4"})
        tracker = cfg.tracker
        assert tracker.alpha == 0.7
        assert tracker.kinematics.tau_obj == 0.4

    def test_presets(self):
        base = RunConfig()
        app = preset_config(base, "appearance_only")
        assert app.tracker.alpha == 1.0 and math.isinf(app.tracker.kinematics.tau_kf)
        assert preset_config(base, "motion_only").tracker.alpha == 0.0
        assert set(PRESETS) == {"full", "no_motion_gate", "appearance_only", "motion_only"}
        with pytest.raises(KeyError):
            preset_config(base, "bogus")

    def test_ablation_runs_every_preset_in_order(self, monkeypatch):
        ran = []
        monkeypatch.setattr(runner, "run_suite", lambda cfg, *args: ran.append(cfg) or {})
        results = runner.run_ablation(RunConfig(), seeds=range(1))
        assert list(results) == list(PRESETS)
        assert ran == [preset_config(RunConfig(), p) for p in PRESETS]


def keyed_fields(cls, path=()):
    """(key, attribute path, field) of every config field, nested ones expanded."""
    out = []
    for f in fields(cls):
        if "key" in f.metadata:
            out.append((f.metadata["key"], path + (f.name,), f))
        else:
            assert is_dataclass(f.default_factory), f"{cls.__name__}.{f.name} has no key"
            out.extend(keyed_fields(f.default_factory, path + (f.name,)))
    return out


def other_value(f):
    """A valid config-file value differing from the field's default, and its parse."""
    if "choices" in f.metadata:
        text = next(c for c in f.metadata["choices"] if c != f.default)
        return text, text
    if f.metadata.get("int_or_inf"):
        return "7", 7.0
    if isinstance(f.default, bool):
        return str(not f.default).lower(), not f.default
    if isinstance(f.default, int):
        return str(f.default + 2), f.default + 2
    return "0.25", 0.25


class TestConfigRegistry:
    def test_every_field_has_exactly_one_key(self):
        keys = [key for key, _, _ in keyed_fields(RunConfig)]
        assert len(keys) == len(set(keys)) == 16

    @pytest.mark.parametrize(
        "key,path,f", [pytest.param(*entry, id=entry[0]) for entry in keyed_fields(RunConfig)]
    )
    def test_file_key_reaches_its_field(self, tmp_path, key, path, f):
        text, expected = other_value(f)
        cfg_path = tmp_path / "one.cfg"
        cfg_path.write_text(f"{key} = {text}\n")
        cfg = RunConfig.from_file(cfg_path)
        assert reduce(getattr, path, RunConfig()) != expected
        assert reduce(getattr, path, cfg) == expected
        assert cfg.describe() != RunConfig().describe()

    def test_describe_loads_back(self, tmp_path):
        every_key = {key: other_value(f)[0] for key, _, f in keyed_fields(RunConfig)}
        for overrides in ({}, every_key, {"kf.tau_kf": "inf", "kf.pos_noise": "1e-05"}):
            cfg = RunConfig().with_overrides(overrides)
            path = tmp_path / "described.cfg"
            path.write_text(cfg.describe() + "\n")
            assert RunConfig.from_file(path) == cfg

    def test_describe_lists_each_key_once(self):
        listed = [line.split(" = ", 1)[0] for line in RunConfig().describe().splitlines()]
        assert listed == [key for key, _, _ in keyed_fields(RunConfig)]

    @pytest.mark.parametrize("key", ["queue.T", "cache.k", "cache.reduce",
                                     "paths.det", "paths.gt", "paths.out", "paths.out_dir"])
    def test_removed_keys_unknown(self, key):
        with pytest.raises(ConfigError, match="unknown config key"):
            RunConfig().with_overrides({key: "4"})

    @pytest.mark.parametrize("key,value,message", [
        ("assoc.alpha", "1.5", "alpha must be in"),
        ("lifecycle.n_init", "0", "n_init must be an integer >= 1"),
        ("lifecycle.max_age", "-1", "max_age must be an integer >= 0"),
        ("assoc.tau_match", "5", "tau_match must be in"),
        ("buffer.tau_gamma", "1.5", "tau_gamma must be in"),
        ("lifecycle.tau_birth", "7", "tau_birth must be in"),
        ("lifecycle.tau_birth", "-0.5", "tau_birth must be in"),
        ("kf.tau_obj", "2", "tau_obj must be in"),
        ("kf.tau_obj", "-0.1", "tau_obj must be in"),
        ("kf.pos_noise", "-1", "pos_noise must be finite and >= 0"),
        ("kf.vel_noise", "inf", "vel_noise must be finite and >= 0"),
        ("kf.obs_noise", "0", "obs_noise must be finite and > 0"),
        ("kf.obs_noise", "inf", "obs_noise must be finite and > 0"),
        ("eval.iou_threshold", "1.5", r"iou_threshold must be in \(0, 1\)"),
        ("eval.iou_threshold", "0", r"iou_threshold must be in \(0, 1\)"),
        ("embed.dim", "0", "embed_dim must be an integer >= 1"),
    ])
    def test_out_of_range_value_names_key_and_line(self, tmp_path, capsys, key, value, message):
        with pytest.raises(ConfigError, match=f"key '{key}': {message}"):
            RunConfig().with_overrides({key: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"# run\nassoc.mode = greedy\n{key} = {value}\n")
        with pytest.raises(ConfigError, match=f"bad.cfg:3: key '{key}': {message}"):
            RunConfig.from_file(path)
        # The command that reads the key; eval and simulate refuse assoc.mode.
        argv = {"eval.iou_threshold": ["eval", "--gt", "g.txt", "--hyp", "h.txt"],
                "embed.dim": ["simulate", "--scenario", "crossing2", "--out-dir", str(tmp_path / "sim")],
                }.get(key, ["track", "--det", "d.txt", "--out", "o.txt"])
        if argv[0] != "track":
            path.write_text(f"# run\n\n{key} = {value}\n")
        assert main([*argv, "--config", str(path)]) == 1
        assert f"bad.cfg:3: key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--grid", "embed.dim=4"],
        ["ablate", "--config", "embed4.cfg"],
    ], ids=lambda argv: argv[0])
    def test_suite_scenarios_take_embed_dim(self, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "embed4.cfg").write_text("embed.dim = 4\n")
        dims = set()

        def recording_generate(scenario):
            gt, frames = generate(scenario)
            dims.update(frame.embeddings.shape[1] for frame in frames)
            return gt, frames

        monkeypatch.setattr(runner, "generate", recording_generate)
        assert main(argv + ["--seeds", "1", "--no-hota"]) == 0
        assert dims == {4}

    def test_sweep_builds_every_cell_before_running(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(runner, "run_suite", lambda *args, **kwargs: ran.append(args) or {})
        with pytest.raises(ConfigError, match="key 'assoc.alpha': alpha must be in"):
            run_sweep(RunConfig(), {"assoc.alpha": ["0.5", "1.5"]}, seeds=range(1))
        assert main(["sweep", "--grid", "assoc.alpha=0.5,1.5", "--seeds", "3", "--no-hota"]) == 1
        assert "key 'assoc.alpha'" in capsys.readouterr().err
        assert ran == []

    def test_sweep_key_without_values_fails_before_running(self, monkeypatch):
        ran = []
        monkeypatch.setattr(runner, "run_suite", lambda *args, **kwargs: ran.append(args) or {})
        with pytest.raises(ValueError, match="grid key 'assoc.alpha' has no values"):
            run_sweep(RunConfig(), {"assoc.alpha": []}, seeds=range(1))
        assert ran == []
        assert run_sweep(RunConfig(), {}, seeds=range(1)) == [({}, {})]
        assert ran == [(RunConfig(), None, [0], 1, True)]

    @pytest.mark.parametrize("grid, message", [
        (["assoc.alpha=0.5", "assoc.alpha=1"], "bad --grid entry 'assoc.alpha=1': repeats key 'assoc.alpha'"),
        (["assoc.alpha=0,,1"], "bad --grid entry 'assoc.alpha=0,,1': empty value"),
        (["assoc.alpha="], "bad --grid entry 'assoc.alpha=': no values"),
    ], ids=["repeated_key", "empty_value", "no_values"])
    def test_grid_input_is_never_dropped(self, monkeypatch, capsys, grid, message):
        ran = []
        monkeypatch.setattr(runner, "run_suite", lambda *args, **kwargs: ran.append(args) or {})
        argv = [arg for entry in grid for arg in ("--grid", entry)]
        assert main(["sweep", "--seeds", "1", "--no-hota", *argv]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert ran == []

    @pytest.mark.parametrize("cls,name,bound", [
        (TrackerConfig, "max_age", "an integer >= 0"),
        (TrackerConfig, "n_init", "an integer >= 1"),
        (KinematicsConfig, "tau_kf", ">= 0"),
        (RunConfig, "embed_dim", "an integer >= 1"),
    ])
    def test_nan_fails_the_declared_range(self, cls, name, bound):
        with pytest.raises(ValueError, match=f"^{name} must be {bound}, got nan$"):
            cls(**{name: math.nan})

    @pytest.mark.parametrize("build,name,bound", [
        (lambda v: TrackerConfig(n_init=v), "n_init", 1),
        (lambda v: TrackerConfig(max_age=v), "max_age", 0),
        (lambda v: RunConfig(embed_dim=v), "embed_dim", 1),
        (lambda v: ScenarioConfig(n_agents=v, n_frames=2), "n_agents", 1),
        (lambda v: ScenarioConfig(n_agents=2, n_frames=v), "n_frames", 1),
        (lambda v: ScenarioConfig(n_agents=2, n_frames=2, embed_dim=v), "embed_dim", 1),
    ], ids=["n_init", "max_age", "run_embed_dim", "n_agents", "n_frames", "scenario_embed_dim"])
    @pytest.mark.parametrize("value", [2.5, 3.0, math.inf, True])
    def test_integer_field_rejects_a_non_integer(self, build, name, bound, value):
        # A count the tracker would round, or the simulator could not range over.
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= {bound}, got {value}$"):
            build(value)

    def test_gate_count_beyond_the_float_range_is_a_parse_error(self):
        with pytest.raises(ConfigError, match="key 'kf.tau_kf': expected an integer or 'inf'"):
            RunConfig().with_overrides({"kf.tau_kf": "1" + "0" * 400})


NUMERIC_KEYS = [key for key, (_, f) in KEYS.items() if "range" in f.metadata]


def range_bounds(f):
    """(lo, hi, lo_in, hi_in, is_int) of a field's declared range: an integer
    range, "integer >= n" for the int fields and ">= n" for the gate count,
    else a float interval."""
    spec = f.metadata["range"]
    if spec.startswith(("integer >= ", ">= ")):
        return int(spec.rpartition(">= ")[2]), math.inf, True, True, True
    lo, hi = (float(v) for v in spec[1:-1].split(", "))
    return lo, hi, spec[0] == "[", spec[-1] == "]", False


def values_inside(key, f):
    """Config-file text of a value in the key's declared range, its edges
    included. Half the draws of an unbounded range come from its first few
    units, so that drawn runs also track, not only fail on their noise or
    never confirm a track."""
    if "choices" in f.metadata:
        return st.sampled_from(f.metadata["choices"])
    if isinstance(f.default, bool):
        return st.sampled_from(["true", "false"])
    lo, hi, lo_in, hi_in, is_int = range_bounds(f)
    if is_int:
        if key == "embed.dim":  # it sizes the simulator's embedding block
            return st.integers(lo, 64).map(str)
        wide = st.integers(min_value=lo)
        if f.metadata.get("int_or_inf"):  # a float count, so bounded by the float range
            wide = st.integers(lo, int(sys.float_info.max)) | st.just("inf")
        return (st.integers(lo, lo + 8) | wide).map(str)
    edges = [lo if lo_in else math.nextafter(lo, math.inf),
             min(hi if hi_in else math.nextafter(hi, -math.inf), sys.float_info.max)]
    wide = st.sampled_from(edges) | st.floats(lo, hi, exclude_min=not lo_in, exclude_max=not hi_in,
                                              allow_infinity=False)
    if hi == math.inf:
        wide = st.floats(lo, 1.0, exclude_min=not lo_in) | wide
    return wide.map(repr)


def values_outside(f):
    """Config-file text of the nearest values outside the key's declared range,
    and NaN for a float key."""
    lo, hi, lo_in, hi_in, is_int = range_bounds(f)
    if is_int:
        below = [str(lo - 1)]
    else:
        below = [repr(math.nextafter(lo, -math.inf) if lo_in else lo)]
        below.append(repr(math.nextafter(hi, math.inf) if hi_in else hi))
    return below + (["nan"] if isinstance(f.default, float) else [])


@st.composite
def drawn_configs(draw, keys=tuple(KEYS)):
    """Config-file lines setting each of ``keys``, in a drawn order, to a value
    drawn from its declared range."""
    order = draw(st.permutations(keys))
    return [f"{key} = {draw(values_inside(key, KEYS[key][1]))}" for key in order]


class TestRegistryDrawnConfigs:
    """Configs drawn from the key registry's declared ranges (each key's
    ``"range"`` or ``"choices"`` metadata)."""

    @settings(max_examples=100, deadline=None)
    @given(drawn_configs())
    def test_describe_loads_back_to_the_drawn_config(self, lines):
        with tempfile.TemporaryDirectory() as tmp:
            drawn, described = Path(tmp, "drawn.cfg"), Path(tmp, "described.cfg")
            drawn.write_text("\n".join(lines) + "\n")
            cfg = RunConfig.from_file(drawn)
            described.write_text(cfg.describe() + "\n")
            assert RunConfig.from_file(described) == cfg

    @settings(max_examples=100, deadline=None)
    @given(drawn_configs(), st.sampled_from(NUMERIC_KEYS), st.data())
    def test_nearest_value_outside_a_range_names_file_line_and_key(self, lines, key, data):
        f = KEYS[key][1]
        value = data.draw(st.sampled_from(values_outside(f)))
        lineno = next(i for i, line in enumerate(lines, start=1) if line.startswith(f"{key} = "))
        lines[lineno - 1] = f"{key} = {value}"
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "bad.cfg")
            path.write_text("\n".join(lines) + "\n")
            with pytest.raises(ConfigError) as info:
                RunConfig.from_file(path)
        located = f"{path}:{lineno}: key '{key}': "
        assert str(info.value).startswith(located)
        if not (f.metadata.get("int_or_inf") and value == "nan"):  # a gate count parses as an integer
            words = RANGES[f.metadata["range"]][1]
            assert str(info.value).startswith(f"{located}{f.metadata.get('name', f.name)} must be {words}, got ")

    @settings(max_examples=100, deadline=None)
    @given(drawn_configs(KEYS_READ["track"]))
    def test_track_runs_on_every_drawn_config(self, lines):
        det = Path(__file__).parent / "data" / "crossing2_seed0_det.txt"
        with tempfile.TemporaryDirectory() as tmp:
            cfg, out = Path(tmp, "run.cfg"), Path(tmp, "hyp.txt")
            cfg.write_text("\n".join(lines) + "\n")
            argv = ["track", "--det", str(det), "--out", str(out), "--config", str(cfg)]
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv)
            if code == 1:  # only kf_init's noise error, which names the box
                assert re.fullmatch(r"error: kf\.pos_noise = .* give a non-finite or zero noise variance "
                                    r"for box size .* \(frame \d+, candidate \d+\)\n", err.getvalue())
                assert not out.exists()
                return
            assert code == 0 and err.getvalue() == ""
            written = out.read_bytes()
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0
            assert out.read_bytes() == written
            load_trajectories(out)


class TestMotIo:
    def test_parse_documented_line(self, tmp_path):
        path = tmp_path / "gt.txt"
        path.write_text("1,3,10,20,30,40,1,-1,-1,-1\n")
        ts = load_trajectories(path)
        assert list(ts.records()) == [(1, 3, BoundingBox(10, 20, 30, 40))]

    def test_empty_file_empty_set(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        assert load_trajectories(path).total_boxes() == 0

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1,1,10,20,30,40,1,-1,-1,-1\n2,1,xx,20,30,40,1,-1,-1,-1\n")
        with pytest.raises(MotParseError, match=":2:"):
            load_trajectories(path)

    def test_unsorted_frames_grouped(self, tmp_path):
        path = tmp_path / "shuffled.txt"
        path.write_text(
            "5,1,0,0,10,10,1,-1,-1,-1\n1,1,0,0,10,10,1,-1,-1,-1\n3,1,0,0,10,10,1,-1,-1,-1\n"
        )
        assert load_trajectories(path).frames == [1, 3, 5]

    def test_write_then_read_round_trip_bit_identical(self, tmp_path):
        gt, frames = generate(scenario_by_name("crossing2"))
        det_path = tmp_path / "det.txt"
        write_detections(det_path, frames)
        first_det = det_path.read_text()
        first_aff = sidecar_path(det_path).read_text()

        reloaded = load_detections(det_path)
        det_path2 = tmp_path / "det2.txt"
        write_detections(det_path2, reloaded)
        assert det_path2.read_text() == first_det
        assert sidecar_path(det_path2).read_text() == first_aff

        gt_path = tmp_path / "gt.txt"
        write_trajectories(gt_path, gt)
        reloaded_gt = load_trajectories(gt_path)
        gt_path2 = tmp_path / "gt2.txt"
        write_trajectories(gt_path2, reloaded_gt)
        assert gt_path2.read_text() == gt_path.read_text()

    def test_sidecar_attaches_by_frame_and_index(self, tmp_path):
        det = tmp_path / "d.txt"
        det.write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n1,-1,20,0,10,10,0.8,-1,-1,-1\n")
        aff = tmp_path / "d.aff"
        aff.write_text("aff 1 2\n1,1,0.75,1.0,0.0\n")
        frames = load_detections(det)
        assert frames[1][0].s_mask is None and frames[1][0].embedding is None
        assert frames[1][1].s_mask == 0.75
        assert np.array_equal(frames[1][1].embedding, [1.0, 0.0])

    def test_sidecar_header_checked(self, tmp_path):
        aff = tmp_path / "x.aff"
        aff.write_text("affinity v2\n")
        with pytest.raises(MotParseError):
            load_sidecar(aff)

    def test_detection_conf_clamped(self, tmp_path):
        det = tmp_path / "d.txt"
        det.write_text("1,-1,0,0,10,10,37.5,-1,-1,-1\n")
        assert load_detections(det)[1][0].s_obj == 1.0

    @pytest.mark.parametrize("conf", ["nan", "inf", "-inf"])
    def test_non_finite_conf_rejected_with_location(self, tmp_path, conf):
        det = tmp_path / "d.txt"
        det.write_text(f"1,-1,0,0,10,10,0.9,-1,-1,-1\n2,-1,0,0,10,10,{conf},-1,-1,-1\n")
        with pytest.raises(MotParseError, match=rf"d\.txt:2: conf must be finite, got '{conf}'"):
            load_detections(det)

    @pytest.mark.parametrize("entry", ["3,0,0.5", "1,2,0.5", "1,-1,0.5"])
    def test_unmatched_sidecar_entry_rejected(self, tmp_path, entry):
        det = tmp_path / "d.txt"
        det.write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n1,-1,20,0,10,10,0.8,-1,-1,-1\n")
        aff = tmp_path / "d.aff"
        aff.write_text(f"aff 1 0\n1,0,0.25\n{entry}\n1,1,0.75\n")
        frame, cand = entry.split(",")[:2]
        with pytest.raises(MotParseError, match=rf"d\.aff: entry for frame {frame}, candidate {cand} matches"):
            load_detections(det)

    @pytest.mark.parametrize("aff, message", [
        ("aff 1 -1\n1,0\n", "d.aff:1: sidecar dim must be >= 0, got -1"),
        ("aff 1 0\n1,0,nan\n", "d.aff:2: s_mask must be in [0, 1], got 'nan'"),
        ("aff 1 0\n1,1,0.5\n1,0,1.5\n", "d.aff:3: s_mask must be in [0, 1], got '1.5'"),
        ("aff 1 2\n1,1,-,0,1\n1,0,-,1.0,inf\n", "d.aff:3: embedding contains non-finite entries"),
        ("aff 1 2\n1,0,0.5,nan,0\n1,1,-\n1,1,-\n", "d.aff:2: embedding contains non-finite entries"),
        ("aff 1 0\n1,0,0.3\n1,1,-\n1,0,0.7\n", "d.aff:4: a second entry for frame 1, candidate 0"),
    ], ids=["negative_dim", "nan_s_mask", "s_mask_above_1", "inf_embedding",
          "nan_embedding_before_a_repeat", "repeated_entry"])
    def test_bad_sidecar_entry_rejected_with_location(self, tmp_path, aff, message):
        det = tmp_path / "d.txt"
        det.write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n1,-1,20,0,10,10,0.8,-1,-1,-1\n")
        (tmp_path / "d.aff").write_text(aff)
        with pytest.raises(MotParseError) as info:
            load_detections(det)
        assert str(info.value) == f"{tmp_path}/{message}"

    @pytest.mark.parametrize("dim", ["4", "10000000000000"])
    def test_sidecar_of_3_field_entries_has_no_embedding_columns(self, tmp_path, capsys, dim):
        # No line carries an embedding, so the header's dim sizes nothing:
        # 10**13 columns for one entry would be a 146 TiB allocation.
        det = tmp_path / "d.txt"
        det.write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n1,-1,20,0,10,10,0.8,-1,-1,-1\n")
        (tmp_path / "d.aff").write_text(f"aff 1 {dim}\n1,1,0.75\n")
        side = load_sidecar(tmp_path / "d.aff")
        assert side.embeddings.shape == (0, 0) and side.s_mask.tolist() == [0.75]
        frames = load_detections(det)
        assert frames[1].embeddings.shape == (2, 0) and frames[1][1].s_mask == 0.75
        assert main(["track", "--det", str(det), "--out", str(tmp_path / "hyp.txt")]) == 0
        assert capsys.readouterr().err == ""

    def test_explicit_sidecar_must_exist(self, tmp_path):
        det = tmp_path / "d.txt"
        det.write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n")
        assert load_detections(det)[1][0].s_mask is None  # the default <det>.aff is optional
        with pytest.raises(FileNotFoundError, match="missing.aff"):
            load_detections(det, sidecar=tmp_path / "missing.aff")

    def test_track_cli_fails_on_unmatched_sidecar_entry(self, tmp_path, capsys):
        det = tmp_path / "d.txt"
        det.write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n")
        (tmp_path / "d.aff").write_text("aff 1 0\n2,0,0.5\n")
        assert main(["track", "--det", str(det), "--out", str(tmp_path / "hyp.txt")]) != 0
        assert "matches no detection" in capsys.readouterr().err


    @pytest.mark.parametrize("lines, line, message", [
        (["1,3,0,0,10,10,1", "2,3,0,0,10,10,1", "1,3,5,5,10,10,1"], 3,
         "identity 3 appears twice in frame 1"),
        (["1,3,0,0,10,10,1", "", "1,-1,0,0,10,10,1"], 3,
         "id -1 marks a detection line; use load_detections"),
        (["1,inf,0,0,10,10,1"], 1, "malformed line '1,inf,0,0,10,10,1'"),
        (["1,1,0,0,10,10,1", "99999999999999999999,1,0,0,10,10,1"], 2, "frame or id outside int64"),
    ])
    def test_rejected_trajectory_line_named_by_loader_and_eval(
        self, tmp_path, capsys, lines, line, message
    ):
        path = tmp_path / "traj.txt"
        path.write_text("\n".join(lines) + "\n")
        expected = f"{path}:{line}: {message}"
        with pytest.raises(MotParseError) as info:
            load_trajectories(path)
        assert str(info.value) == expected
        good = tmp_path / "good.txt"
        good.write_text("1,1,0,0,10,10,1\n")
        for gt, hyp in [(path, good), (good, path)]:
            assert main(["eval", "--gt", str(gt), "--hyp", str(hyp)]) == 1
            assert capsys.readouterr().err == f"error: {expected}\n"

    @pytest.mark.parametrize("frame", ["0", "-4"])
    def test_detection_frame_before_one_named_by_loader_and_track(self, tmp_path, capsys, frame):
        det = tmp_path / "d.txt"
        det.write_text(f"1,-1,0,0,10,10,0.9,-1,-1,-1\n\n{frame},-1,0,0,10,10,0.9,-1,-1,-1\n")
        expected = f"{det}:3: frame {frame} is before frame 1"
        with pytest.raises(MotParseError) as info:
            load_detections(det)
        assert str(info.value) == expected
        assert main(["track", "--det", str(det), "--out", str(tmp_path / "hyp.txt")]) == 1
        assert capsys.readouterr().err == f"error: {expected}\n"
        assert not (tmp_path / "hyp.txt").exists()

    @pytest.mark.parametrize("box, message", [
        ("1e308,0,1e308,10", "box x + w must be finite, got inf"),
        ("0,-1e308,10,-1e308", "box extents must be positive, got w=10.0, h=-1e+308"),
        ("0,1e308,10,1e308", "box y + h must be finite, got inf"),
        ("0,0,1e200,1e200", "box w * h must be finite, got inf"),
        ("0,0,5e-324,0.5", "box w * h must be positive, got 0.0"),
    ])
    def test_overflowing_box_named_by_track_and_eval(self, tmp_path, capsys, box, message):
        det = tmp_path / "d.txt"
        det.write_text(f"1,-1,0,0,10,10,0.9,-1,-1,-1\n2,-1,{box},0.9,-1,-1,-1\n3,-1,0,0,10,10,0.9,-1,-1,-1\n")
        gt = tmp_path / "gt.txt"
        gt.write_text(f"1,1,0,0,10,10,1\n2,1,{box},1\n3,1,0,0,10,10,1\n")
        good = tmp_path / "good.txt"
        good.write_text("1,1,0,0,10,10,1\n2,1,0,0,10,10,1\n")
        runs = [(["track", "--det", str(det), "--out", str(tmp_path / "hyp.txt")], det),
                (["eval", "--gt", str(gt), "--hyp", str(good)], gt),
                (["eval", "--gt", str(good), "--hyp", str(gt)], gt)]
        for argv, path in runs:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main(argv) == 1
            assert [w.category for w in caught] == []
            assert capsys.readouterr().err == f"error: {path}:2: {message}\n"
        assert not (tmp_path / "hyp.txt").exists()

    def test_far_apart_boxes_track_without_warning(self, tmp_path, capsys):
        # The track of frames 1-2 meets candidates about 3.4e308 away.
        det = tmp_path / "d.txt"
        det.write_text("".join(f"{f},-1,{x},0,10,10,0.9,-1,-1,-1\n"
                               for f, x in enumerate([-1.7e308] * 2 + [1.7e308] * 3, start=1)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["track", "--det", str(det), "--out", str(tmp_path / "hyp.txt")]) == 0
        assert capsys.readouterr().err == ""

    def test_box_too_large_for_the_kalman_noise_is_named(self, tmp_path, capsys):
        # The box loads, but its size squared overflows the birth noise; the
        # message keeps the noise keys and names the frame and candidate.
        det = tmp_path / "d.txt"
        det.write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n"
                       "2,-1,0,0,10,10,0.9,-1,-1,-1\n2,-1,0,0,1e300,10,0.9,-1,-1,-1\n"
                       "3,-1,0,0,10,10,0.9,-1,-1,-1\n")
        assert main(["track", "--det", str(det), "--out", str(tmp_path / "hyp.txt")]) == 1
        assert capsys.readouterr().err == (
            "error: kf.pos_noise = 0.05, kf.vel_noise = 0.05 and kf.obs_noise = 0.1 give a non-finite or "
            "zero noise variance for box size 1e+300 x 10.0 (frame 2, candidate 1)\n")
        assert not (tmp_path / "hyp.txt").exists()


class TestTrackFrames:
    def test_gap_frames_treated_as_empty(self):
        frames = {
            1: [],
            5: [],
        }
        hyp = track_frames(frames, RunConfig())
        assert hyp.total_boxes() == 0

    def test_sparse_frame_numbers_cost_no_step_per_missing_frame(self, tmp_path):
        """Frames 1-3 and 10**12 to 10**12 + 2: the missing frames are stepped
        only while the first track lives, so track finishes at once and
        writes the golden hypothesis. With lost and tentative tracks
        included, the first track coasts max_age = 30 frames and retires."""
        data = Path(__file__).parent / "data"
        det, out = data / "sparse_frames_det.txt", tmp_path / "hyp.txt"
        start = time.perf_counter()
        assert main(["track", "--det", str(det), "--out", str(out)]) == 0
        assert time.perf_counter() - start < 5.0
        assert out.read_bytes() == (data / "sparse_frames_hyp.txt").read_bytes()
        cfg = tmp_path / "all.cfg"
        cfg.write_text("output.include_lost = true\noutput.include_tentative = true\n")
        assert main(["track", "--det", str(det), "--config", str(cfg), "--out", str(out)]) == 0
        frames = [int(line.split(",")[0]) for line in out.read_text().splitlines()]
        assert frames == [*range(1, 34), *range(10**12, 10**12 + 3)]

    def test_crossing_occlusion_resumes_identity_ids_zero(self):
        # the crossing fixture occludes both agents mid-sequence (merged
        # detections); the default config re-acquires each on its prediction
        # and the evaluator reports no identity switches
        from motrack.runner import run_scenario

        report = run_scenario(scenario_by_name("crossing2"), RunConfig(), with_hota=False)
        assert report.ids == 0
        assert report.idf1 > 0.9

    def test_include_tentative_writes_unconfirmed_tracks(self):
        # One box in frames 1 and 2: its track has 2 hits, fewer than
        # n_init = 3, so it never confirms and retires unmatched in frame 3.
        box = BoundingBox(0, 0, 20, 20)
        frames = [[DetectionCandidate(box, 0.9)], [DetectionCandidate(box, 0.9)], []]
        for overrides, expected in (({}, []), ({"output.include_lost": "true"}, []),
                                    ({"output.include_tentative": "true"}, [(1, 1, box), (2, 1, box)])):
            assert list(track_frames(frames, RunConfig().with_overrides(overrides)).records()) == expected

    def test_include_flags_change_output(self):
        gt, frames = generate(scenario_by_name("crossing2"))
        base = track_frames(frames, RunConfig())
        with_lost = track_frames(
            frames, RunConfig().with_overrides({"output.include_lost": "true"})
        )
        assert with_lost.total_boxes() >= base.total_boxes()


class TestCli:
    def run_cli(self, *argv):
        return main(list(argv))

    def test_eval_perfect_fixture_prints_mota_one(self, tmp_path, capsys):
        gt_path = tmp_path / "gt.txt"
        write_trajectories(gt_path, perfect_gt())
        code = self.run_cli("eval", "--gt", str(gt_path), "--hyp", str(gt_path), "--format", "kv")
        out = capsys.readouterr().out
        assert code == 0
        assert "mota=1.000000" in out
        assert "hota=1.000000" in out

    def test_simulate_then_track_then_eval(self, tmp_path, capsys):
        code = self.run_cli("simulate", "--scenario", "crossing2", "--seed", "3",
                            "--out-dir", str(tmp_path))
        assert code == 0
        det = tmp_path / "crossing2_seed3_det.txt"
        gt = tmp_path / "crossing2_seed3_gt.txt"
        out = tmp_path / "hyp.txt"
        assert det.exists() and gt.exists() and sidecar_path(det).exists()

        code = self.run_cli("track", "--det", str(det), "--out", str(out))
        assert code == 0 and out.exists()

        code = self.run_cli("eval", "--gt", str(gt), "--hyp", str(out), "--format", "kv")
        assert code == 0
        kv = dict(
            line.split("=") for line in capsys.readouterr().out.strip().splitlines()
            if "=" in line
        )
        assert float(kv["idf1"]) > 0.8

    def test_ci_console_script_step_in_process(self, tmp_path, capsys, monkeypatch):
        """The CI step that runs the installed ``motrack`` script, run here
        line by line through ``main`` from the checkout root: simulate
        reproduces the crossing2 and crowd8_occl20 golden files, track and
        eval run on both, and eval's kv report is the golden one, for
        crossing2 also on CRLF copies of its files that ``awk`` writes with an
        empty second line; crowd8_occl20's track with lost and tentative
        tracks included writes the golden hypothesis, and so does track on
        the detections whose frame numbers jump from 3 to 10**12."""
        root = Path(__file__).resolve().parents[1]
        monkeypatch.chdir(root)
        workflow = yaml.safe_load((root / ".github/workflows/tests.yml").read_text())
        (step,) = [s for s in workflow["jobs"]["tests"]["steps"] if s.get("name") == "Console script end to end"]
        commands = [shlex.split(line.replace("$RUNNER_TEMP", str(tmp_path)))
                    for line in step["run"].splitlines() if line.strip()]
        assert [argv[0] for argv in commands] == (
            (["motrack"] + ["cmp"] * 3) * 2 + ["motrack"] * 2 + ["cmp"] + ["motrack", "cmp"] * 2 + ["motrack"] * 3
            + ["cmp"] + ["awk"] * 2 + ["motrack", "cmp"] + ["motrack"] * 2)
        assert [argv[1] for argv in commands if argv[0] == "motrack"] == [
            "simulate", "simulate", "track", "eval", "track", "track", "track", "eval", "eval", "eval", "sweep",
            "ablate"]
        assert [argv[3] for argv in commands if argv[1] == "simulate"] == ["crossing2", "crowd8_occl20"]
        crowd_track, crowd_eval, crowd_cmp, all_track, all_cmp = commands[8:13]
        assert crowd_track[3] == commands[6][1] and crowd_eval[3] == commands[5][1]
        assert crowd_eval[5] == crowd_track[-1] and crowd_eval[-2:] == [">", crowd_cmp[1]]
        assert crowd_cmp[2] == "tests/data/crowd8_occl20_seed0_eval.kv"
        assert all_track[1:] == ["track", "--det", crowd_track[3], "--config",
                                 "tests/data/crowd8_occl20_seed0_hyp_all.cfg", "--out", all_cmp[1]]
        assert all_cmp[2] == "tests/data/crowd8_occl20_seed0_hyp_all.txt"
        sparse_track, sparse_cmp = commands[13:15]
        assert sparse_track[1:] == ["track", "--det", "tests/data/sparse_frames_det.txt", "--out", sparse_cmp[1]]
        assert sparse_cmp[2] == "tests/data/sparse_frames_hyp.txt"
        for at in (-8, -4):
            assert commands[at][-2] == ">" and commands[at + 1][1:] == [commands[at][-1],
                                                                       "tests/data/crossing2_seed0_eval.kv"]
        assert [argv[-1] for argv in commands[-6:-4]] == [commands[-4][3], commands[-4][5]]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # as the step's PYTHONWARNINGS
            for argv in commands:
                if argv[0] == "motrack":
                    capsys.readouterr()
                    redirect = argv[-1] if argv[-2] == ">" else None
                    assert self.run_cli(*(argv[1:-2] if redirect else argv[1:])) == 0, argv
                    out = capsys.readouterr().out
                    if redirect:
                        Path(redirect).write_text(out)
                    elif argv[1] == "eval":
                        assert "MOTA" in out.upper()
                elif argv[0] == "awk":
                    copy = subprocess.run(argv[:-2], capture_output=True, check=True).stdout
                    assert copy.count(b"\r\n") == Path(argv[-3]).read_text().count("\n") + 1
                    Path(argv[-1]).write_bytes(copy)
                else:
                    assert Path(argv[1]).read_bytes() == (root / argv[2]).read_bytes(), argv

    def test_ci_per_line_parser_step_in_process(self, tmp_path, capsys, monkeypatch):
        """The CI step that drives the per-line MOT parser, run here line by
        line through ``main`` from the checkout root: ``awk`` copies the
        crossing2 GT, detections and hypothesis with a whitespace-only second
        line, which the bulk read refuses; eval's kv report on the copies is
        the golden one, and track on the detection copy writes the same
        hypothesis as on the original."""
        root = Path(__file__).resolve().parents[1]
        monkeypatch.chdir(root)
        workflow = yaml.safe_load((root / ".github/workflows/tests.yml").read_text())
        (step,) = [s for s in workflow["jobs"]["tests"]["steps"] if s.get("name") == "Console script per-line parser"]
        commands = [shlex.split(line.replace("$RUNNER_TEMP", str(tmp_path)))
                    for line in step["run"].splitlines() if line.strip()]
        assert [argv[1] if argv[0] == "motrack" else argv[0] for argv in commands] == [
            "track", "awk", "awk", "eval", "cmp", "awk", "track", "cmp"]
        track, gt_copy, hyp_copy, evaluate_copies, cmp_kv, det_copy, track_copy, cmp_hyp = commands
        assert [argv[-3] for argv in (gt_copy, hyp_copy, det_copy)] == [
            "tests/data/crossing2_seed0_gt.txt", track[-1], "tests/data/crossing2_seed0_det.txt"]
        assert evaluate_copies[1:] == ["eval", "--gt", gt_copy[-1], "--hyp", hyp_copy[-1], "--format", "kv",
                                       ">", cmp_kv[1]]
        assert cmp_kv[2] == "tests/data/crossing2_seed0_eval.kv"
        assert track_copy[1:-1] == ["track", "--det", det_copy[-1], "--aff", "tests/data/crossing2_seed0_det.aff",
                                    "--out"]
        assert cmp_hyp[1:] == [track_copy[-1], track[-1]]

        parsed = []  # the files the per-line parser read
        per_line = mot_io._parse_lines
        monkeypatch.setattr(mot_io, "_parse_lines", lambda path, lines: parsed.append(path) or per_line(path, lines))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # as the step's PYTHONWARNINGS
            for argv in commands:
                if argv[0] == "motrack":
                    capsys.readouterr()
                    redirect = argv[-1] if argv[-2] == ">" else None
                    assert self.run_cli(*(argv[1:-2] if redirect else argv[1:])) == 0, argv
                    if redirect:
                        Path(redirect).write_text(capsys.readouterr().out)
                elif argv[0] == "awk":
                    copy = subprocess.run(argv[:-2], capture_output=True, check=True).stdout.splitlines(True)
                    original = Path(argv[-3]).read_bytes().splitlines(True)
                    assert copy[1] == b" \t\n" and copy[:1] + copy[2:] == original
                    Path(argv[-1]).write_bytes(b"".join(copy))
                else:
                    assert Path(argv[1]).read_bytes() == Path(argv[2]).read_bytes(), argv
        assert parsed == [gt_copy[-1], hyp_copy[-1], det_copy[-1]]

    def test_track_is_deterministic(self, tmp_path):
        self.run_cli("simulate", "--scenario", "crossing2", "--seed", "1",
                     "--out-dir", str(tmp_path))
        det = tmp_path / "crossing2_seed1_det.txt"
        out_a = tmp_path / "a.txt"
        out_b = tmp_path / "b.txt"
        assert self.run_cli("track", "--det", str(det), "--out", str(out_a)) == 0
        assert self.run_cli("track", "--det", str(det), "--out", str(out_b)) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_simulate_is_deterministic(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        for d in (dir_a, dir_b):
            assert self.run_cli("simulate", "--scenario", "clutter4", "--seed", "9",
                                "--out-dir", str(d)) == 0
        for name in ("clutter4_seed9_gt.txt", "clutter4_seed9_det.txt", "clutter4_seed9_det.aff"):
            assert (dir_a / name).read_text() == (dir_b / name).read_text()

    def test_unknown_scenario_is_clean_error(self, tmp_path, capsys):
        code = self.run_cli("simulate", "--scenario", "warpdrive", "--out-dir", str(tmp_path))
        assert code == 1
        assert capsys.readouterr().err == ("error: unknown scenario 'warpdrive'; known scenarios: "
                                           "crossing2, crowd8_occl20, fastmotion4, clutter4\n")

    @pytest.mark.parametrize("command, flag, value, problem", [
        ("track", "--det", "missing", "No such file or directory"),
        ("eval", "--gt", "missing", "No such file or directory"),
        ("eval", "--hyp", "missing", "No such file or directory"),
        ("track", "--config", "missing", "No such file or directory"),
        ("track", "--aff", "missing", "No such file or directory"),
        ("eval", "--gt", ".", "Is a directory"),
        ("track", "--out", "missing/dir/hyp.txt", "No such file or directory"),
    ], ids=["det", "gt", "hyp", "config", "aff", "gt_dir", "out_dir"])
    def test_missing_input_is_clean_error(self, tmp_path, monkeypatch, capsys, command, flag, value, problem):
        """A missing input file, a directory as --gt or an output under a
        missing directory is one ``error:`` line naming the path, exit 1,
        and no file written."""
        monkeypatch.chdir(tmp_path)
        write_trajectories("gt.txt", perfect_gt())
        Path("d.txt").write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n")
        flags = {"track": {"--det": "d.txt", "--out": "hyp.txt"}, "eval": {"--gt": "gt.txt", "--hyp": "gt.txt"}}
        argv = [command, *(arg for pair in {**flags[command], flag: value}.items() for arg in pair)]
        assert self.run_cli(*argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: [Errno ") and captured.err.endswith(f"] {problem}: {value!r}\n")
        assert captured.err.count("\n") == 1 and captured.out == ""
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.txt", "gt.txt"]

    def test_ci_console_script_failures_step_in_process(self, tmp_path, monkeypatch, capsys):
        """The CI step of bad inputs, run here line by line through ``main``:
        each command exits 1 with exactly one ``error:`` line on stderr."""
        root = Path(__file__).resolve().parents[1]
        workflow = yaml.safe_load((root / ".github/workflows/tests.yml").read_text())
        (step,) = [s for s in workflow["jobs"]["tests"]["steps"] if s.get("name") == "Console script failures"]
        lines = [shlex.split(line.replace("$RUNNER_TEMP", str(tmp_path)))
                 for line in step["run"].splitlines() if line.startswith(("expect_error motrack", "echo "))]
        assert [words[2] for words in lines if words[0] == "expect_error"] == [
            "track", "eval", "eval", "track", "sweep", "ablate", "sweep", "track", "track"]
        monkeypatch.chdir(root)
        for words in lines:
            if words[0] == "echo":  # echo "<line>" > "<config file>"
                Path(words[3]).write_text(words[1] + "\n")
                continue
            assert self.run_cli(*words[2:]) == 1, words
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, words
            if "--config" in words:
                assert f".cfg:1: key '{Path(words[-1]).read_text().split(' = ')[0]}': " in err, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["alpha.cfg", "tau_kf.cfg"]

    @pytest.mark.parametrize("argv", [
        ["track", "--det", "d.txt"],
        ["track", "--out", "o.txt"],
        ["eval", "--hyp", "h.txt"],
        ["simulate", "--scenario", "crossing2"],
        ["eval", "--gt", "g.txt", "--hyp", "h.txt", "--iou", "0.3"],
        ["sweep", "--suite", "standard", "--seeds", "1", "--no-hota"],
        ["ablate", "--suite", "standard", "--seeds", "1", "--no-hota"],
    ], ids=" ".join)
    def test_missing_path_flag_or_removed_flag_is_usage_error(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        write_trajectories(tmp_path / "g.txt", perfect_gt())
        write_trajectories(tmp_path / "h.txt", perfect_gt())
        (tmp_path / "d.txt").write_text("1,-1,0,0,10,10,0.9,-1,-1,-1\n")
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(*argv)
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("usage: motrack") and captured.out == ""
        assert sorted(tmp_path.iterdir()) == before

    def test_bad_config_key_is_clean_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("made.up = 1\n")
        code = self.run_cli("eval", "--gt", "x", "--hyp", "y", "--config", str(cfg))
        assert code == 1
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("command,reads,value", [
        ("simulate", "embed.dim", "4"),
        ("eval", "eval.iou_threshold", "0.9"),
        ("track", "lifecycle.n_init", "5"),
    ])
    def test_config_keys_a_command_ignores_are_refused(self, tmp_path, capsys, command, reads, value):
        gt = tmp_path / "gt.txt"
        write_trajectories(gt, perfect_gt())
        det = Path(__file__).parent / "data" / "crossing2_seed0_det.txt"
        argv = {"simulate": ["simulate", "--scenario", "crossing2", "--out-dir", str(tmp_path / "sim")],
                "eval": ["eval", "--gt", str(gt), "--hyp", str(gt), "--format", "kv"],
                "track": ["track", "--det", str(det), "--out", str(tmp_path / "hyp.txt")]}[command]
        ignored_lines = {"simulate": ("assoc.alpha = 0.3", "lifecycle.n_init = 5", "eval.iou_threshold = 0.9"),
                         "eval": ("assoc.alpha = 0.3", "lifecycle.n_init = 5", "embed.dim = 4"),
                         "track": ("embed.dim = 4", "eval.iou_threshold = 0.9")}[command]
        cfg = tmp_path / "c.cfg"
        for ignored in ignored_lines:
            cfg.write_text(f"{reads} = {value}\n{ignored}\n")
            capsys.readouterr()
            assert self.run_cli(*argv, "--config", str(cfg)) == 1
            captured = capsys.readouterr()
            key = ignored.split(" = ")[0]
            assert captured.err == (f"error: {cfg}:2: motrack {command} does not read config key {key!r}; "
                                    f"it reads only {', '.join(KEYS_READ[command])}\n")
            assert reads in KEYS_READ[command] and key not in KEYS_READ[command]
            assert captured.out == ""
            assert sorted(p.name for p in tmp_path.iterdir()) == ["c.cfg", "gt.txt"]
        cfg.write_text(f"{reads} = {value}\n")
        assert self.run_cli(*argv, "--config", str(cfg)) == 0
        if command == "simulate":
            assert load_sidecar(tmp_path / "sim" / "crossing2_seed0_det.aff").embeddings.shape[1] == 4
        elif command == "eval":
            assert "mota=1.000000" in capsys.readouterr().out
        else:
            written = list(load_trajectories(tmp_path / "hyp.txt").records())
            frames = load_detections(det)
            assert written == list(track_frames(frames, RunConfig().with_overrides({reads: value})).records())
            assert written != list(track_frames(frames, RunConfig()).records())

    @pytest.mark.parametrize("lines_read,unbuffered", [(0, False), (0, True), (1, True)])
    def test_reader_closing_the_pipe_is_no_traceback(self, tmp_path, lines_read, unbuffered):
        # With no line read, the pipe closes before the report is written, so
        # the write always fails; unbuffered, print fails, else the flush does.
        gt = tmp_path / "gt.txt"
        write_trajectories(gt, perfect_gt())
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "motrack.cli", "eval", "--gt", str(gt), "--hyp", str(gt), "--format", "kv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True)
        for _ in range(lines_read):
            assert proc.stdout.readline() == "mota=1.000000\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert "Traceback" not in err
        assert err == ""
        assert code in ((1,) if lines_read == 0 else (0, 1))

    @pytest.mark.parametrize("overrides", [
        "kf.obs_noise = 1e-200\nkf.pos_noise = 0\nkf.vel_noise = 0\nkf.tau_kf = 0\n",
        "kf.vel_noise = 1e200\n",
    ])
    def test_degenerate_kalman_noise_is_clean_error(self, tmp_path, capsys, overrides):
        assert self.run_cli("simulate", "--scenario", "crossing2", "--seed", "0",
                            "--out-dir", str(tmp_path)) == 0
        capsys.readouterr()
        cfg = tmp_path / "noise.cfg"
        cfg.write_text(overrides)
        out = tmp_path / "hyp.txt"
        code = self.run_cli("track", "--det", str(tmp_path / "crossing2_seed0_det.txt"),
                            "--config", str(cfg), "--out", str(out))
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: kf.pos_noise = ")
        assert "kf.vel_noise" in err and "kf.obs_noise" in err and "for box size" in err
        assert not out.exists()

    def test_sweep_summarises_grid(self, tmp_path, capsys):
        code = self.run_cli(
            "sweep", "--grid", "assoc.alpha=0.0,1.0",
            "--seeds", "2", "--no-hota", "--out", str(tmp_path / "sweep.txt"),
        )
        assert code == 0
        text = (tmp_path / "sweep.txt").read_text()
        assert "cell assoc.alpha=0.0" in text
        assert "cell assoc.alpha=1.0" in text
        assert "crossing2" in text and "clutter4" in text

    def test_sweep_deterministic_across_thread_counts(self, tmp_path):
        args = ["sweep", "--grid", "assoc.alpha=0.3,0.7", "--seeds", "2", "--no-hota"]
        out1 = tmp_path / "jobs1.txt"
        out4 = tmp_path / "jobs4.txt"
        assert self.run_cli(*args, "--jobs", "1", "--out", str(out1)) == 0
        assert self.run_cli(*args, "--jobs", "4", "--out", str(out4)) == 0
        assert out1.read_text() == out4.read_text()

    def test_ablate_reports_fewer_switches_for_full(self, capsys):
        code = self.run_cli("ablate", "--seeds", "4", "--no-hota", "--jobs", "2")
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario crossing2" in out
        ids = {}
        current = None
        for line in out.splitlines():
            if line.startswith("scenario "):
                current = line.split()[1]
            parts = line.split()
            if current == "crossing2" and parts and parts[0] in PRESETS:
                ids[parts[0]] = float(parts[1])
        assert ids["full"] < ids["appearance_only"]

    @pytest.mark.parametrize("argv, golden", [
        (["ablate", "--seeds", "1", "--no-hota"], "suite_ablate_seeds1.txt"),
        (["sweep", "--seeds", "1", "--no-hota", "--grid", "assoc.alpha=0,1"], "suite_sweep_seeds1_alpha.txt"),
    ], ids=["ablate", "sweep"])
    def test_suite_report_matches_golden(self, capsys, argv, golden):
        assert self.run_cli(*argv) == 0
        assert capsys.readouterr().out == (Path(__file__).parent / "data" / golden).read_text()


class TestJobsValidation:
    @pytest.mark.parametrize("jobs", [0, -1])
    def test_run_suite_rejects_jobs_below_one(self, jobs):
        with pytest.raises(ValueError, match="jobs must be at least 1"):
            run_suite(RunConfig(), seeds=range(1), jobs=jobs)

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_cli_rejects_jobs_below_one(self, command, jobs, capsys):
        assert main([command, "--seeds", "1", "--no-hota", "--jobs", jobs]) == 1
        captured = capsys.readouterr()
        assert f"jobs must be at least 1, got {jobs}" in captured.err
        assert captured.out == ""


class TestSeedsValidation:
    @pytest.mark.parametrize("run", ["sweep", "ablation"])
    def test_library_rejects_no_seeds_before_running(self, monkeypatch, run):
        ran = []
        monkeypatch.setattr(runner, "run_suite", lambda *args, **kwargs: ran.append(args) or {})
        with pytest.raises(ValueError, match=r"seeds must name at least one seed, got range\(0, 0\)"):
            if run == "sweep":
                run_sweep(RunConfig(), {"assoc.alpha": ["0", "1"]}, seeds=range(0))
            else:
                runner.run_ablation(RunConfig(), seeds=range(0))
        assert ran == []

    @pytest.mark.parametrize("command", ["sweep", "ablate"])
    @pytest.mark.parametrize("seeds", ["0", "-1"])
    def test_cli_rejects_seeds_below_one(self, command, seeds, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(runner, "run_suite", lambda *args, **kwargs: ran.append(args) or {})
        assert main([command, "--seeds", seeds, "--no-hota"]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: seeds must name at least one seed, got range(0, {seeds})\n"
        assert captured.out == "" and ran == []


class TestThreadedSuiteDeterminism:
    def test_run_suite_identical_across_jobs(self):
        from motrack.simulator import standard_suite

        cfg = RunConfig()
        scenarios = [s for s in standard_suite() if s[0] == "crossing2"]
        seq = run_suite(cfg, scenarios, seeds=range(4), jobs=1, with_hota=False)
        par = run_suite(cfg, scenarios, seeds=range(4), jobs=4, with_hota=False)
        assert seq == par
