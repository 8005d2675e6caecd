from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from motrack import ScenarioConfig, generate, iou, scenario_by_name, standard_suite
from motrack.mot_io import trajectory_lines, write_detections

DATA = Path(__file__).parent / "data"


def generate_by_frame(cfg):
    """``generate(cfg)`` with the ground truth as {frame: {identity: box}}."""
    gt, frames = generate(cfg)
    by_frame = {}
    for frame, identity, box in gt.records():
        by_frame.setdefault(frame, {})[identity] = box
    return by_frame, frames


def small_config(**overrides):
    base = dict(n_agents=3, n_frames=40, arena=(400.0, 300.0), seed=5)
    base.update(overrides)
    return ScenarioConfig(**base)


class TestGenerate:
    def test_identity_scenario_matches_ground_truth(self):
        cfg = small_config(detection_noise=0.0, miss_rate=0.0, fp_rate=0.0,
                           occlusion_rate=0.0, proximity_merge=False,
                           affinity_fidelity=1.0)
        gt, frames = generate_by_frame(cfg)
        assert len(frames) == cfg.n_frames
        for t, frame in enumerate(frames):
            truth = gt[t + 1]
            assert len(frame) == cfg.n_agents
            matched = 0
            for cand in frame:
                matched += any(iou(cand.box, box) == 1.0 for box in truth.values())
            assert matched == cfg.n_agents

    def test_fixed_seed_is_bit_identical(self):
        cfg = small_config(detection_noise=0.05, miss_rate=0.1, fp_rate=0.2,
                           occlusion_rate=0.1, proximity_merge=True)
        gt_a, frames_a = generate(cfg)
        gt_b, frames_b = generate(cfg)
        assert list(gt_a.records()) == list(gt_b.records())
        for fa, fb in zip(frames_a, frames_b):
            assert len(fa) == len(fb)
            for ca, cb in zip(fa, fb):
                assert ca.box == cb.box
                assert ca.s_obj == cb.s_obj
                assert np.array_equal(ca.embedding, cb.embedding)

    def test_different_seed_differs(self):
        cfg = small_config(detection_noise=0.05)
        _, frames_a = generate(cfg)
        _, frames_b = generate(replace(cfg, seed=6))
        assert any(
            ca.box != cb.box
            for fa, fb in zip(frames_a, frames_b)
            for ca, cb in zip(fa, fb)
        )

    def test_trajectories_stay_inside_arena(self):
        cfg = small_config(n_frames=300, speed_range=(10.0, 30.0))
        gt, _ = generate_by_frame(cfg)
        w, h = cfg.arena
        for per_frame in gt.values():
            for box in per_frame.values():
                assert box.x >= -1e-9 and box.y >= -1e-9
                assert box.right <= w + 1e-9 and box.bottom <= h + 1e-9

    def test_every_gt_box_has_candidate_within_noise_bound(self):
        cfg = small_config(detection_noise=0.05, miss_rate=0.0, fp_rate=0.0,
                           occlusion_rate=0.0, proximity_merge=False)
        gt, frames = generate_by_frame(cfg)
        for t, frame in enumerate(frames):
            for box in gt[t + 1].values():
                dists = [
                    abs(c.box.x - box.x) + abs(c.box.y - box.y) for c in frame
                ]
                # 5 sigma of the positional noise, relative to box size
                bound = 5 * cfg.detection_noise * (box.w + box.h)
                assert min(dists) <= bound

    def test_occlusion_windows_drop_detections(self):
        cfg = small_config(occlusion_windows=((1, 10, 20),), proximity_merge=False,
                           detection_noise=0.0)
        gt, frames = generate_by_frame(cfg)
        for t in range(9, 20):
            frame = frames[t]
            true_box = gt[t + 1][1]
            assert all(iou(c.box, true_box) != 1.0 for c in frame)
            assert len(frame) == cfg.n_agents - 1

    def test_occlusion_rate_produces_roughly_that_many_drops(self):
        cfg = small_config(n_agents=6, n_frames=400, occlusion_rate=0.2,
                           proximity_merge=False, detection_noise=0.0)
        _, frames = generate(cfg)
        total = sum(len(f) for f in frames)
        expected = 6 * 400 * 0.8
        assert 0.65 * expected <= total <= 1.05 * expected

    def test_proximity_merge_unions_overlapping_agents(self):
        # two agents pinned together by a crossing start: the merge window
        # produces single union candidates covering both true boxes
        cfg = ScenarioConfig(
            n_agents=2, n_frames=60, arena=(400.0, 300.0), crossing=True,
            turn_rate=0.0, speed_range=(3.0, 4.0), proximity_merge=True,
            merge_iou=0.05, seed=2,
        )
        gt, frames = generate_by_frame(cfg)
        merge_frames = [t for t, f in enumerate(frames) if len(f) == 1]
        assert merge_frames, "crossing never merged"
        for t in merge_frames:
            union = frames[t][0].box
            for box in gt[t + 1].values():
                assert union.x <= box.x + 1e-9 and union.right >= box.right - 1e-9
                assert union.y <= box.y + 1e-9 and union.bottom >= box.bottom - 1e-9
            assert frames[t][0].s_obj < 0.6

    def test_false_positive_rate(self):
        cfg = small_config(n_frames=400, fp_rate=0.5, proximity_merge=False)
        _, frames = generate(cfg)
        n_fp = sum(len(f) - cfg.n_agents for f in frames)
        assert 0.5 * 0.5 * 400 <= n_fp <= 1.5 * 0.5 * 400

    def test_affinity_fidelity_controls_signature_swaps(self):
        # with perfect fidelity every embedding is closest to its own agent's
        # signature; with low fidelity a noticeable share is not
        def swap_fraction(fidelity):
            cfg = small_config(n_agents=4, n_frames=200, proximity_merge=False,
                               affinity_fidelity=fidelity, detection_noise=0.0)
            gt, frames = generate_by_frame(cfg)
            sigs = {}
            for t, frame in enumerate(frames):
                truth = gt[t + 1]
                for c in frame:
                    agent = max(truth, key=lambda i: iou(c.box, truth[i]))
                    sigs.setdefault(agent, []).append(c.embedding)
            anchors = {a: np.mean(e, axis=0) for a, e in sigs.items()}
            wrong = total = 0
            for t, frame in enumerate(frames):
                truth = gt[t + 1]
                for c in frame:
                    agent = max(truth, key=lambda i: iou(c.box, truth[i]))
                    best = max(anchors, key=lambda a: float(np.dot(anchors[a], c.embedding)))
                    total += 1
                    wrong += best != agent
            return wrong / total

        assert swap_fraction(1.0) < 0.02
        assert swap_fraction(0.7) > 0.15

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ScenarioConfig(n_agents=0, n_frames=10)
        with pytest.raises(ValueError):
            ScenarioConfig(n_agents=1, n_frames=10, arena=(10.0, 10.0))
        with pytest.raises(ValueError):
            ScenarioConfig(n_agents=1, n_frames=10, miss_rate=1.5)
        for field, value, message in [
            ("box_size_range", (-5.0, 10.0), "box_size_range must satisfy 0 < lo <= hi"),
            ("box_size_range", (30.0, 10.0), "box_size_range must satisfy 0 < lo <= hi"),
            ("detection_noise", -0.5, "detection_noise must be finite and >= 0"),
            ("detection_noise", float("nan"), "detection_noise must be finite and >= 0"),
            ("fp_rate", float("inf"), "fp_rate must be finite and >= 0"),
            ("merge_iou", 2.0, r"merge_iou must be in \[0, 1\]"),
            ("occlusion_windows", ((3, 1, 5),), "occlusion_windows names unknown agent 3"),
            ("occlusion_windows", ((1, 2, 4), (1, 9, 3)), r"occlusion_windows entry \(1, 9, 3\) starts after it ends"),
            ("arena", (float("inf"), 480.0), r"arena must be finite, got \(inf, 480.0\)"),
            ("arena", (640.0, float("nan")), r"arena must be finite, got \(640.0, nan\)"),
            ("speed_range", (float("nan"), 5.0), r"speed_range must be finite, got \(nan, 5.0\)"),
            ("speed_range", (1.0, float("inf")), r"speed_range must be finite, got \(1.0, inf\)"),
        ]:
            with pytest.raises(ValueError, match=message):
                ScenarioConfig(n_agents=2, n_frames=10, **{field: value})


class TestStandardSuite:
    def test_contains_exactly_four_named_scenarios(self):
        names = [name for name, _ in standard_suite()]
        assert names == ["crossing2", "crowd8_occl20", "fastmotion4", "clutter4"]

    def test_all_configs_validate_and_regenerate(self):
        for _name, cfg in standard_suite():
            gt, frames = generate(cfg)
            assert gt.total_boxes() == cfg.n_agents * cfg.n_frames
            assert len(frames) == cfg.n_frames

    def test_fastmotion_speeds(self):
        cfg = scenario_by_name("fastmotion4")
        assert cfg.speed_range[0] >= 15.0

    def test_clutter_fp_rate(self):
        assert scenario_by_name("clutter4").fp_rate == 0.3

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            scenario_by_name("nope")


class TestGoldenFiles:
    @pytest.mark.parametrize("name", ["crossing2", "crowd8_occl20"])
    def test_seed0_regeneration_matches_golden(self, name, tmp_path):
        gt, frames = generate(scenario_by_name(name))
        assert trajectory_lines(gt.records()) == (DATA / f"{name}_seed0_gt.txt").read_text()
        det_path = tmp_path / "det.txt"
        write_detections(det_path, frames)
        assert det_path.read_text() == (DATA / f"{name}_seed0_det.txt").read_text()
        assert (tmp_path / "det.aff").read_text() == (DATA / f"{name}_seed0_det.aff").read_text()

    def test_crossing_golden_has_mutual_occlusion_window(self):
        _, frames = generate(scenario_by_name("crossing2"))
        single = [t for t, f in enumerate(frames) if len(f) == 1]
        longest, run = 0, 0
        prev = None
        for t in single:
            run = run + 1 if prev == t - 1 else 1
            longest = max(longest, run)
            prev = t
        assert longest >= 5
