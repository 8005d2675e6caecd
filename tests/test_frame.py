"""``Frame``: one frame's candidates as columns, from the loader, the
simulator and a candidate list, into the tracker.

Differential tests hold each producer and the tracker to what they gave
before they took columns: ``generate_oracle`` and ``load_detections_oracle``
build one ``DetectionCandidate`` per detection, and ``step_tracker`` on a
list of candidates converts it to a Frame once.
"""

import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import (BoundingBox, DetectionCandidate, Frame, RunConfig, ScenarioConfig, TrackerState, generate,
                     scenario_by_name, standard_suite, step_tracker)
from motrack.mot_io import load_detections, load_sidecar, sidecar_path, write_detections
from motrack.runner import track_frames

import oracles
from oracles import boxes_array, generate_oracle, load_detections_oracle
from test_association import _output_bits, _track_bits, tracker_streams


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def assert_same_candidate(view: DetectionCandidate, cand: DetectionCandidate) -> None:
    assert _bits(view.box.as_tuple()) == _bits(cand.box.as_tuple())
    assert _bits(view.s_obj) == _bits(cand.s_obj)
    assert view.s_mask == cand.s_mask
    assert type(view.s_mask) is type(cand.s_mask)
    if cand.embedding is None:
        assert view.embedding is None
    else:
        assert view.embedding.tobytes() == cand.embedding.tobytes()


def assert_frame_holds(frame: Frame, cands: list[DetectionCandidate]) -> None:
    """The frame's columns hold exactly ``cands``, bit for bit."""
    assert len(frame) == len(cands)
    assert frame.boxes.tobytes() == boxes_array(c.box for c in cands).tobytes()
    assert frame.s_obj.tobytes() == _bits([c.s_obj for c in cands])
    assert frame.has_embedding.tolist() == [c.embedding is not None for c in cands]
    for j, c in enumerate(cands):
        if c.embedding is not None:
            assert frame.embeddings[j].tobytes() == c.embedding.tobytes()
        if isinstance(c.s_mask, dict):
            assert frame.mapped[j] == c.s_mask and math.isnan(frame.s_mask[j])
        elif c.s_mask is None:
            assert math.isnan(frame.s_mask[j]) and j not in frame.mapped
        else:
            assert frame.s_mask[j] == c.s_mask
    for view, cand in zip(frame, cands):
        assert_same_candidate(view, cand)


@st.composite
def candidate_lists(draw):
    """Candidates with a scalar, per-track mapping or no s_mask, and an
    embedding of the list's one dimension or none."""
    dim = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)
    cands = []
    for _ in range(draw(st.integers(0, 6))):
        box = BoundingBox(draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3)),
                          draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-3, 1e3)))
        s_mask = draw(st.none() | unit | st.dictionaries(st.integers(1, 9), unit, max_size=3))
        embedding = None
        if draw(st.booleans()):
            embedding = np.array(draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim)))
        cands.append(DetectionCandidate(box, draw(unit), s_mask, embedding))
    return cands


class TestFrameOf:
    @settings(max_examples=300, deadline=None)
    @given(candidate_lists())
    def test_views_equal_the_candidates(self, cands):
        frame = Frame.of(cands)
        assert_frame_holds(frame, cands)
        assert Frame.of(frame) is frame
        for k in range(-len(cands), len(cands)):
            assert_same_candidate(frame[k], cands[k])
        assert [c.box for c in frame[1:3]] == [c.box for c in cands[1:3]]

    def test_sequence_protocol(self):
        cands = [DetectionCandidate(BoundingBox(0, 0, 1, 1), 0.5),
                 DetectionCandidate(BoundingBox(2, 0, 1, 1), 0.7, s_mask=0.25)]
        frame = Frame.of(cands)
        assert len(frame) == 2 and frame and not Frame.of([])
        assert [c.s_obj for c in frame] == [0.5, 0.7]
        assert [c.s_obj for c in reversed(frame)] == [0.7, 0.5]
        with pytest.raises(IndexError):
            frame[2]
        assert repr(frame) == "Frame(2 candidates)"

    def test_columns_are_read_only_copies(self):
        boxes = np.array([[0.0, 0.0, 1.0, 1.0]])
        frame = Frame(boxes, [0.5], embeddings=np.ones((1, 2)))
        boxes[0, 0] = 9.0
        assert frame.boxes[0, 0] == 0.0
        for column in (frame.boxes, frame.s_obj, frame.s_mask, frame.embeddings, frame.has_embedding):
            assert not column.flags.writeable
        with pytest.raises(AttributeError):
            frame.boxes = boxes
        with pytest.raises(ValueError):
            frame[0].embedding[0] = 5.0

    def test_empty_frame_shapes(self):
        frame = Frame([], [])
        assert frame.boxes.shape == (0, 4) and frame.embeddings.shape == (0, 0)
        assert Frame.of([]).boxes.shape == (0, 4)


class TestFrameValidation:
    """Each check names the problem as ``BoundingBox`` and
    ``DetectionCandidate`` do for one candidate."""

    GOOD = [[0.0, 0.0, 10.0, 10.0], [20.0, 0.0, 10.0, 10.0]]

    @pytest.mark.parametrize("field, value, message", [
        (0, math.nan, "box field 'x' must be finite, got nan"),
        (1, math.inf, "box field 'y' must be finite, got inf"),
        (2, -math.inf, "box field 'w' must be finite, got -inf"),
        (2, 0.0, "box extents must be positive, got w=0.0, h=10.0"),
        (3, -1.0, "box extents must be positive, got w=10.0, h=-1.0"),
    ])
    def test_bad_box(self, field, value, message):
        boxes = [list(b) for b in self.GOOD]
        boxes[1][field] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            Frame(boxes, [0.5, 0.5])
        with pytest.raises(ValueError, match=f"^{message}$"):
            BoundingBox(*boxes[1])

    @pytest.mark.parametrize("value", [-0.5, 1.5, math.nan, math.inf])
    def test_s_obj_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match=rf"^s_obj must be in \[0, 1\], got {value!r}$"):
            Frame(self.GOOD, [0.5, value])
        with pytest.raises(ValueError, match=rf"^s_obj must be in \[0, 1\], got {value!r}$"):
            DetectionCandidate(BoundingBox(*self.GOOD[0]), value)

    @pytest.mark.parametrize("value", [-0.5, 1.5, math.inf])
    def test_s_mask_outside_unit_interval(self, value):
        with pytest.raises(ValueError, match=rf"^s_mask must be in \[0, 1\], got {value!r}$"):
            Frame(self.GOOD, [0.5, 0.5], s_mask=[math.nan, value])

    def test_mapping_values_checked(self):
        with pytest.raises(ValueError, match=r"^s_mask\[3\] must be in \[0, 1\], got 2.0$"):
            Frame(self.GOOD, [0.5, 0.5], mapped={0: {3: 2.0}})

    def test_mapping_needs_a_candidate_without_scalar(self):
        with pytest.raises(ValueError, match="mapped candidate 1"):
            Frame(self.GOOD, [0.5, 0.5], s_mask=[math.nan, 0.5], mapped={1: {3: 0.5}})
        with pytest.raises(ValueError, match="mapped candidate 2"):
            Frame(self.GOOD, [0.5, 0.5], mapped={2: {3: 0.5}})

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_embedding(self, value):
        embeddings = np.ones((2, 3))
        embeddings[1, 2] = value
        with pytest.raises(ValueError, match="^embedding contains non-finite entries$"):
            Frame(self.GOOD, [0.5, 0.5], embeddings=embeddings)
        # A row without an embedding is not looked at.
        frame = Frame(self.GOOD, [0.5, 0.5], embeddings=embeddings, has_embedding=[True, False])
        assert frame[1].embedding is None

    def test_empty_embedding(self):
        with pytest.raises(ValueError, match=r"^embedding must be a non-empty vector, got shape \(0,\)$"):
            Frame(self.GOOD, [0.5, 0.5], embeddings=np.zeros((2, 0)), has_embedding=[True, False])

    def test_two_embedding_dimensions(self):
        box = BoundingBox(*self.GOOD[0])
        cands = [DetectionCandidate(box, 0.1, embedding=np.ones(3)),
                 DetectionCandidate(box, 0.1, embedding=np.ones(2))]
        with pytest.raises(ValueError, match=r"^buffer/key dimension mismatch: \(2,\) vs \(3,\)$"):
            Frame.of(cands)
        # Rejected at once, even where no score compares them and nothing is born.
        with pytest.raises(ValueError, match="dimension mismatch"):
            step_tracker(TrackerState(), cands)

    @pytest.mark.parametrize("kwargs, message", [
        ({"boxes": [[0.0, 0.0, 1.0]]}, r"boxes must have shape \(1, 4\)"),
        ({"s_obj": 0.5}, r"s_obj must have shape \(n,\)"),
        ({"s_mask": [0.5, 0.5]}, r"s_mask must have shape \(1,\)"),
        ({"embeddings": np.ones(3)}, r"embeddings must have shape \(1, d\)"),
        ({"has_embedding": [True, True]}, r"has_embedding must have shape \(1,\)"),
    ])
    def test_column_shapes(self, kwargs, message):
        columns = {"boxes": [[0.0, 0.0, 1.0, 1.0]], "s_obj": [0.5], **kwargs}
        with pytest.raises(ValueError, match=message):
            Frame(**columns)


class TestStepOnFrameOrList:
    @settings(max_examples=150, deadline=None)
    @given(tracker_streams())
    def test_bit_identical_outputs(self, stream):
        """Empty frames; scalar, mapping and absent s_mask; missing embeddings."""
        config, frames = stream
        on_list, on_frame = TrackerState(config=config), TrackerState(config=config)
        for f, cands in enumerate(frames, start=1):
            on_list, expected = step_tracker(on_list, cands)
            on_frame, outputs = step_tracker(on_frame, Frame.of(cands))
            assert _output_bits(outputs) == _output_bits(expected), f"frame {f}"
            assert [_track_bits(t) for t in on_frame.tracks] == [_track_bits(t) for t in on_list.tracks]


@st.composite
def small_scenarios(draw):
    n_agents = draw(st.integers(1, 5))
    n_frames = draw(st.integers(1, 12))
    unit = st.floats(0.0, 1.0)
    windows = draw(st.lists(st.tuples(st.integers(1, n_agents), st.integers(0, n_frames + 1),
                                      st.integers(0, 4)), max_size=2))
    return ScenarioConfig(
        n_agents=n_agents, n_frames=n_frames, arena=(draw(st.floats(120.0, 400.0)), draw(st.floats(120.0, 400.0))),
        speed_range=(0.0, draw(st.floats(0.0, 30.0))), turn_rate=draw(unit),
        box_size_range=(10.0, draw(st.floats(10.0, 40.0))), crossing=draw(st.booleans()),
        occlusion_windows=tuple((a, first, first + length) for a, first, length in windows),
        occlusion_rate=draw(unit), proximity_merge=draw(st.booleans()), merge_iou=draw(unit),
        detection_noise=draw(st.floats(0.0, 0.5)), fp_rate=draw(st.floats(0.0, 3.0)), miss_rate=draw(unit),
        affinity_fidelity=draw(unit), embed_dim=draw(st.integers(1, 6)), seed=draw(st.integers(0, 2**32)),
    )


class TestGenerateAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(small_scenarios())
    def test_frames_bit_equal_to_candidates(self, config):
        gt, frames = generate(config)
        gt_old, cands = generate_oracle(config)
        assert [c.tobytes() for c in gt.columns()] == [c.tobytes() for c in gt_old.columns()]
        assert len(frames) == len(cands) == config.n_frames
        for frame, old in zip(frames, cands):
            assert isinstance(frame, Frame)
            assert frame.embeddings.shape == (len(old), config.embed_dim)
            assert_frame_holds(frame, old)

    def test_standard_suite_bit_equal(self):
        for _, config in standard_suite():
            for frame, old in zip(generate(config)[1], generate_oracle(config)[1]):
                assert_frame_holds(frame, old)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_crowd_bit_equal(self, seed, monkeypatch):
        # The benchmark's crowd shape: crowd8_occl20's occlusion and merges
        # with 24 agents in a 1080p arena, where the merge sweep skips most pairs.
        config = replace(scenario_by_name("crowd8_occl20"), n_agents=24, n_frames=60,
                         arena=(1920.0, 1080.0), fp_rate=1.0, seed=seed)
        cluster_sizes, all_pairs = [], oracles._merge_clusters

        def all_pairs_merge(boxes, threshold):
            clusters = all_pairs(boxes, threshold)
            cluster_sizes.extend(map(len, clusters))
            return clusters

        monkeypatch.setattr(oracles, "_merge_clusters", all_pairs_merge)
        gt, frames = generate(config)
        gt_old, cands = generate_oracle(config)
        assert max(cluster_sizes) > 1, "no agents merged"
        assert [c.tobytes() for c in gt.columns()] == [c.tobytes() for c in gt_old.columns()]
        for frame, old in zip(frames, cands):
            assert_frame_holds(frame, old)

    def test_clutter_outgrows_one_candidate_per_agent_and_frame(self):
        # Clutter brings more candidates than one per agent and frame, all
        # gathered into the one column set that is cut into the frames.
        config = ScenarioConfig(n_agents=2, n_frames=40, fp_rate=3.0, embed_dim=3, seed=5)
        _, frames = generate(config)
        _, cands = generate_oracle(config)
        assert sum(map(len, frames)) > 2 * config.n_agents * config.n_frames
        for frame, old in zip(frames, cands, strict=True):
            assert_frame_holds(frame, old)

    def test_box_a_frame_rejects_fails_the_sequence_check(self):
        # The sequence is checked once, with the message a Frame gives for
        # its first bad box (here the area of every box overflows).
        config = ScenarioConfig(n_agents=2, n_frames=3, arena=(1.7e308, 1.7e308),
                                box_size_range=(1e307, 1e308), speed_range=(0.0, 0.0), seed=1)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=r"^box w \* h must be finite, got inf$"):
            generate(config)

    @pytest.mark.parametrize("n_agents", [1, 3])
    def test_stationary_crossing_agents_spawn_on_the_waypoint(self, n_agents):
        # No agent moves, so no axis bounds the crossing back-off time: the
        # array minimum is empty and must fall back to n_frames / 2.
        config = ScenarioConfig(n_agents=n_agents, n_frames=6, crossing=True, speed_range=(0.0, 0.0), seed=3)
        gt, frames = generate(config)
        gt_old, cands = generate_oracle(config)
        assert [c.tobytes() for c in gt.columns()] == [c.tobytes() for c in gt_old.columns()]
        boxes = gt.columns()[2]
        assert np.array_equal(boxes, np.tile(boxes[:n_agents], (config.n_frames, 1)))
        for frame, old in zip(frames, cands):
            assert_frame_holds(frame, old)


class TestEmptySequences:
    """Frames with no candidates, as the one column set is cut: a sequence
    with none at all, and one whose first, middle and last frames are empty."""

    COLUMNS = ("boxes", "s_obj", "s_mask", "embeddings", "has_embedding")

    def assert_empty_views(self, frames, numbers, embed_dim):
        for number in numbers:
            frame = frames[number - 1]
            assert len(frame) == 0
            assert frame.boxes.shape == (0, 4) and frame.s_obj.shape == (0,) and frame.s_mask.shape == (0,)
            assert frame.embeddings.shape == (0, embed_dim) and frame.has_embedding.shape == (0,)
            for name in self.COLUMNS:
                assert not getattr(frame, name).flags.writeable, name

    def test_agent_occluded_on_every_frame(self, tmp_path):
        config = ScenarioConfig(n_agents=1, n_frames=6, occlusion_windows=((1, 1, 6),), embed_dim=5)
        gt, frames = generate(config)
        assert len(frames) == 6 and gt.total_boxes() == 6
        self.assert_empty_views(frames, range(1, 7), 5)
        path = tmp_path / "det.txt"
        sidecar_path(path).write_text("aff 1 5\n")  # left by an earlier write
        write_detections(path, frames)
        assert path.read_bytes() == b"" and not sidecar_path(path).exists()
        assert load_detections(path) == {}
        assert track_frames(frames, RunConfig()).total_boxes() == 0
        assert track_frames(load_detections(path), RunConfig()).total_boxes() == 0

    def test_empty_first_middle_and_last_frames(self, tmp_path):
        config = ScenarioConfig(n_agents=1, n_frames=7, occlusion_windows=((1, 1, 1), (1, 4, 4), (1, 7, 7)),
                                embed_dim=3, seed=2)
        _, frames = generate(config)
        assert [len(frame) for frame in frames] == [0, 1, 1, 0, 1, 1, 0]
        self.assert_empty_views(frames, (1, 4, 7), 3)
        for frame in frames:
            for name in self.COLUMNS:
                assert not getattr(frame, name).flags.writeable, name
            with pytest.raises(ValueError):
                frame.s_obj[:] = 0.5
        path = tmp_path / "det.txt"
        write_detections(path, frames)
        loaded = load_detections(path)
        assert list(loaded) == [2, 3, 5, 6]
        for number, frame in loaded.items():
            for name in ("boxes", "s_obj", "embeddings", "has_embedding"):
                assert getattr(frame, name).tobytes() == getattr(frames[number - 1], name).tobytes(), name
        # An empty frame's tracks coast without output, so skipping frames 1
        # and 7 (the file has no line for them) leaves the hypothesis as it is.
        assert list(track_frames(loaded, RunConfig()).records()) == list(track_frames(frames, RunConfig()).records())


class TestLoadedFrames:
    def test_loader_frames_equal_the_per_row_oracle(self):
        data = Path(__file__).parent / "data"
        for name in ("crossing2", "crowd8_occl20"):
            path = data / f"{name}_seed0_det.txt"
            frames, old = load_detections(path), load_detections_oracle(path)
            assert list(frames) == list(old)
            for number, frame in frames.items():
                assert isinstance(frame, Frame)
                assert_frame_holds(frame, old[number])

    def test_sidecar_columns_and_length(self, tmp_path):
        aff = tmp_path / "d.aff"
        aff.write_text("aff 1 2\n3,1,0.5,1.0,2.0\n\n1,0,-\n2,4,-,0.5,0.25\n")
        side = load_sidecar(aff)
        assert len(side) == 3
        assert side.frame.tolist() == [3, 1, 2] and side.cand.tolist() == [1, 0, 4]
        assert side.s_mask[0] == 0.5 and np.isnan(side.s_mask[1:]).all()
        assert side.has_embedding.tolist() == [True, False, True]
        assert side.embeddings.tolist() == [[1.0, 2.0], [0.5, 0.25]]  # the keyed entries' rows only

    @pytest.mark.parametrize("body, message", [
        ("1,0,-,1.0,x\n1,1,-,1.0,nan\n", r"d\.aff:2: malformed line '1,0,-,1.0,x'"),
        ("1,0,-,1.0,nan\n1,1,-,1.0,x\n", r"d\.aff:2: embedding contains non-finite entries"),
        ("1,0,-,1.0,inf\n1,0,-,1.0,1.0\n", r"d\.aff:2: embedding contains non-finite entries"),
        ("1,0,-,1.0,1.0\n1,0,-,1.0,inf\n", r"d\.aff:3: a second entry for frame 1, candidate 0"),
        ("1,0,2.0,1.0,inf\n", r"d\.aff:2: s_mask must be in \[0, 1\], got '2.0'"),
        (f"{2**63},0,-\n", r"d\.aff:2: frame or candidate outside int64"),
    ])
    def test_sidecar_first_bad_line_wins(self, tmp_path, body, message):
        aff = tmp_path / "d.aff"
        aff.write_text("aff 1 2\n" + body)
        with pytest.raises(ValueError, match=message):
            load_sidecar(aff)

    def test_generated_frames_round_trip_bit_equal(self, tmp_path):
        _, frames = generate(scenario_by_name("clutter4"))
        path = tmp_path / "det.txt"
        write_detections(path, frames)
        loaded = load_detections(path)
        for number, frame in enumerate(frames, start=1):
            if not len(frame):
                assert number not in loaded
                continue
            back = loaded[number]
            for name in ("boxes", "s_obj", "embeddings", "has_embedding"):
                assert getattr(back, name).tobytes() == getattr(frame, name).tobytes(), name
            assert np.isnan(back.s_mask).all()

    def test_orphan_entry_named_in_file_order(self):
        with tempfile.TemporaryDirectory() as tmp:
            det = Path(tmp) / "d.txt"
            det.write_text("2,-1,0,0,10,10,0.9,-1,-1,-1\n1,-1,0,0,10,10,0.9,-1,-1,-1\n")
            sidecar_path(det).write_text("aff 1 0\n2,0,0.5\n1,1,0.5\n2,3,0.5\n")
            with pytest.raises(ValueError, match="entry for frame 1, candidate 1 matches no detection"):
                load_detections(det)
