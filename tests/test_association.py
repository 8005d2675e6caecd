import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import (
    CONFIRMED,
    LOST,
    TENTATIVE,
    BoundingBox,
    DetectionCandidate,
    KinematicsConfig,
    Track,
    TrackerConfig,
    TrackerState,
    associate_frame,
    generate,
    iou,
    kf_init,
    kf_predict,
    scenario_by_name,
    step_tracker,
    temporal_buffer_update,
)
from motrack.association import MODES, _score_matrices

from oracles import (
    OracleTrackerState,
    associate_frame_oracle,
    best_matching_score,
    candidate_affinity,
    cosine_affinity,
    ema_closed_form,
    fused_score,
    motion_consistency_score,
    step_tracker_oracle,
)


def make_track(track_id, box, config=None, predicted=True):
    cfg = config or TrackerConfig()
    track = Track(id=track_id, kalman=kf_init(BoundingBox(*box), cfg.kinematics))
    if predicted:
        track.kalman, track.predicted_box = kf_predict(track.kalman)
    return track


def cand(box, s_obj=0.9, s_mask=None, embedding=None):
    return DetectionCandidate(BoundingBox(*box), s_obj=s_obj, s_mask=s_mask, embedding=embedding)


class TestDetectionCandidate:
    def test_scores_stored_as_checked_floats(self):
        box = BoundingBox(0, 0, 10, 10)
        for s_obj, s_mask in [("0.9", "0.25"), (np.float32(0.5), np.int64(1)), (np.int64(0), 1)]:
            c = DetectionCandidate(box, s_obj=s_obj, s_mask=s_mask)
            assert type(c.s_obj) is float and c.s_obj == float(s_obj)
            assert type(c.s_mask) is float and c.s_mask == float(s_mask)
        c = DetectionCandidate(box, s_obj=np.float64(0.75), s_mask={3: "0.5", 4: np.float32(1.0)})
        assert type(c.s_obj) is float
        assert c.s_mask == {3: 0.5, 4: 1.0}
        assert all(type(v) is float for v in c.s_mask.values())

    @pytest.mark.parametrize("kwargs", [
        {"s_obj": "abc"},
        {"s_obj": "1.5"},
        {"s_obj": 0.9, "s_mask": "abc"},
        {"s_obj": 0.9, "s_mask": {2: "nan"}},
    ])
    def test_bad_scores_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DetectionCandidate(BoundingBox(0, 0, 10, 10), **kwargs)

    def test_string_objectness_tracks_like_its_float(self):
        def run(s_obj):
            state = TrackerState(config=TrackerConfig(n_init=1, kinematics=KinematicsConfig(tau_kf=0)))
            for f in range(4):
                state, outputs = step_tracker(state, [cand((2.0 * f, 0, 20, 20), s_obj=s_obj)])
            return [(o.track_id, o.box, o.score) for o in outputs], state.tracks[0].kalman.state

        (out_s, x_s), (out_f, x_f) = run("0.9"), run(0.9)
        assert out_s == out_f and np.array_equal(x_s, x_f)


class TestScores:
    """The per-pair scalar scorers kept in tests/oracles.py as references."""

    def test_motion_score_is_prediction_iou(self):
        p = BoundingBox(0, 0, 10, 10)
        assert motion_consistency_score(p, p) == 1.0
        assert motion_consistency_score(p, BoundingBox(50, 50, 10, 10)) == 0.0
        assert motion_consistency_score(p, BoundingBox(5, 0, 10, 10)) == pytest.approx(1 / 3)

    def test_fused_endpoints_and_midpoint(self):
        assert fused_score(0.8, 0.5, alpha=1.0) == 0.8
        assert fused_score(0.8, 0.5, alpha=0.0) == 0.5
        assert fused_score(0.8, 0.5, alpha=0.6) == pytest.approx(0.68)

    def test_fused_monotone_and_bounded_by_max(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            m, k, a = rng.uniform(size=3)
            f = fused_score(m, k, a)
            assert f <= max(m, k) + 1e-12
            assert fused_score(min(m + 0.1, 1.0), k, a) >= f - 1e-12
            assert fused_score(m, min(k + 0.1, 1.0), a) >= f - 1e-12

    def test_fused_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            fused_score(1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            fused_score(0.5, 0.5, -0.1)


class TestTemporalBuffer:
    def test_zero_motion_confidence_preserves_memory(self):
        b, gamma = temporal_buffer_update(np.array([1.0, 2.0]), np.array([9.0, 9.0]), 0.0, 0.9)
        assert gamma == 1.0
        assert np.array_equal(b, [1.0, 2.0])

    def test_full_confidence_full_cap_overwrites(self):
        b, gamma = temporal_buffer_update(np.array([1.0, 2.0]), np.array([9.0, 8.0]), 1.0, 1.0)
        assert gamma == 0.0
        assert np.array_equal(b, [9.0, 8.0])

    def test_mid_confidence_arithmetic(self):
        b, gamma = temporal_buffer_update(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5, 0.8)
        assert gamma == pytest.approx(0.5)
        assert np.allclose(b, [0.5, 0.5])

    def test_gamma_range(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            s, tau = rng.uniform(size=2)
            _, gamma = temporal_buffer_update(np.zeros(2), np.ones(2), s, tau)
            assert 1.0 - tau - 1e-12 <= gamma <= 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            temporal_buffer_update(np.zeros(3), np.zeros(2), 0.5, 0.9)

    def test_unrolled_matches_closed_form(self):
        rng = np.random.default_rng(7)
        dim = 4
        buffer = rng.normal(size=dim)
        b0 = buffer.copy()
        keys, gammas = [], []
        for _ in range(2000):
            key = rng.normal(size=dim)
            s_kf = float(rng.uniform())
            buffer, gamma = temporal_buffer_update(buffer, key, s_kf, 0.9)
            keys.append(key)
            gammas.append(gamma)
        expected = ema_closed_form(b0, keys, gammas)
        np.testing.assert_allclose(buffer, expected, atol=1e-12)


class TestCosineFallback:
    """The oracle's cosine fallback and per-pair affinity resolution."""

    def test_affinity_maps_to_unit_interval(self):
        e = np.array([1.0, 0.0])
        assert cosine_affinity(e, e) == pytest.approx(1.0)
        assert cosine_affinity(e, -e) == pytest.approx(0.0)
        assert cosine_affinity(e, np.array([0.0, 1.0])) == pytest.approx(0.5)

    def test_missing_sides_give_zero(self):
        assert cosine_affinity(None, np.ones(2)) == 0.0
        assert cosine_affinity(np.zeros(2), np.ones(2)) == 0.0

    def test_candidate_affinity_resolution(self):
        track = make_track(3, (0, 0, 10, 10))
        track.memory = np.array([1.0, 0.0])
        by_scalar = cand((0, 0, 10, 10), s_mask=0.7)
        by_row = cand((0, 0, 10, 10), s_mask={3: 0.4, 9: 0.9})
        by_fallback = cand((0, 0, 10, 10), embedding=np.array([1.0, 0.0]))
        assert candidate_affinity(track, by_scalar) == 0.7
        assert candidate_affinity(track, by_row) == 0.4
        assert candidate_affinity(track, by_fallback) == pytest.approx(1.0)


@st.composite
def scoring_frames(draw):
    """Tracks and candidates with every kind of appearance input.

    Tracks have a memory, a zero memory or none; candidates a scalar
    s_mask, a per-track mapping (naming some live and some unknown track
    ids) or none, and an embedding, a zero embedding or none.
    """
    dim = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0)
    coord = st.floats(0.0, 60.0)
    extent = st.floats(1.0, 40.0)

    def box():
        return BoundingBox(draw(coord), draw(coord), draw(extent), draw(extent))

    def vector():
        kind = draw(st.sampled_from(("none", "zero", "random")))
        if kind == "none":
            return None
        if kind == "zero":
            return np.zeros(dim)
        return np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim)))

    n_tracks = draw(st.integers(0, 5))
    tracks = []
    for track_id in draw(st.permutations(range(1, 9)))[:n_tracks]:
        track = Track(id=track_id, kalman=kf_init(box(), KinematicsConfig()))
        track.predicted_box = box()
        track.memory = vector()
        tracks.append(track)
    candidates = []
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from(("none", "scalar", "mapping")))
        if kind == "scalar":
            s_mask = draw(unit)
        elif kind == "mapping":
            s_mask = draw(st.dictionaries(st.integers(1, 10), unit, max_size=4))
        else:
            s_mask = None
        candidates.append(DetectionCandidate(box(), s_obj=0.9, s_mask=s_mask, embedding=vector()))
    return tracks, candidates, draw(unit)


class TestScoreMatrices:
    @settings(max_examples=300, deadline=None)
    @given(scoring_frames())
    def test_matches_per_pair_scalar_path(self, frame):
        tracks, candidates, alpha = frame
        fused, motion, _ = _score_matrices(tracks, candidates, alpha)
        assert fused.shape == motion.shape == (len(tracks), len(candidates))
        for i, t in enumerate(tracks):
            for j, c in enumerate(candidates):
                s_kf = motion_consistency_score(t.predicted_box, c.box)
                assert motion[i, j] == s_kf
                expected = fused_score(candidate_affinity(t, c), s_kf, alpha)
                assert fused[i, j] == pytest.approx(expected, abs=1e-12, rel=0)

    def test_dimension_mismatch_rejected(self):
        track = make_track(1, (0, 0, 10, 10))
        track.memory = np.ones(3)
        with pytest.raises(ValueError, match="dimension mismatch"):
            _score_matrices([track], [cand((0, 0, 10, 10), embedding=np.ones(2))], 0.5)

    def test_mismatch_ignored_where_scalar_mask_decides(self):
        track = make_track(1, (0, 0, 10, 10))
        track.memory = np.ones(3)
        candidates = [cand((0, 0, 10, 10), s_mask=0.25, embedding=np.ones(2))]
        fused, _, _ = _score_matrices([track], candidates, 1.0)
        assert fused.tolist() == [[0.25]]

    def test_mismatch_rejected_where_mapping_decides(self):
        """A mapping candidate's embedding is compared with every memory of
        the frame, so a mismatch raises even where the mapping names the track."""
        track = make_track(1, (0, 0, 10, 10))
        track.memory = np.ones(3)
        mapped = cand((0, 0, 10, 10), s_mask={1: 0.75}, embedding=np.ones(2))
        with pytest.raises(ValueError, match=r"^buffer/embedding dimension mismatch: \(2,\) vs \(3,\)"):
            _score_matrices([track], [mapped], 1.0)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_non_finite_scores_rejected(self):
        track = make_track(1, (0, 0, 10, 10))
        track.memory = np.full(2, 1e200)
        with pytest.raises(ValueError, match="non-finite"):
            _score_matrices([track], [cand((0, 0, 10, 10), embedding=np.full(2, 1e200))], 0.5)


class TestAssociateFrame:
    def test_single_pair_above_threshold_matches(self):
        cfg = TrackerConfig()
        track = make_track(1, (0, 0, 10, 10))
        result = associate_frame([track], [cand((1, 0, 10, 10))], cfg)
        assert result.pairs() == [(1, 0)]
        assert result.unmatched_tracks == ()
        assert result.unmatched_candidates == ()

    def test_two_by_two_prefers_diagonal(self):
        cfg = TrackerConfig(alpha=1.0)
        t0 = make_track(10, (0, 0, 10, 10))
        t1 = make_track(11, (100, 100, 10, 10))
        c0 = cand((500, 0, 10, 10), s_mask={10: 0.9, 11: 0.3})
        c1 = cand((500, 100, 10, 10), s_mask={10: 0.2, 11: 0.8})
        result = associate_frame([t0, t1], [c0, c1], cfg)
        assert sorted(result.pairs()) == [(10, 0), (11, 1)]

    def test_greedy_collision_lower_scorer_unmatched(self):
        cfg = TrackerConfig(alpha=1.0, mode="greedy")
        t0 = make_track(1, (0, 0, 10, 10))
        t1 = make_track(2, (100, 100, 10, 10))
        c0 = cand((0, 0, 10, 10), s_mask={1: 0.9, 2: 0.7})
        c1 = cand((300, 300, 10, 10), s_mask={1: 0.05, 2: 0.05})
        result = associate_frame([t0, t1], [c0, c1], cfg)
        assert result.pairs() == [(1, 0)]
        assert result.unmatched_tracks == (2,)
        assert 1 in result.unmatched_candidates

    def test_greedy_tie_breaks_to_lower_candidate_index(self):
        cfg = TrackerConfig(alpha=1.0, mode="greedy")
        track = make_track(1, (0, 0, 10, 10))
        c0 = cand((0, 0, 10, 10), s_mask=0.8)
        c1 = cand((0, 0, 10, 10), s_mask=0.8)
        result = associate_frame([track], [c0, c1], cfg)
        assert result.pairs() == [(1, 0)]

    def test_hungarian_matches_brute_force_and_beats_greedy(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 6))
            affinity = rng.uniform(size=(n, m))
            tracks = []
            for i in range(n):
                t = make_track(i, (1000.0 * i, 0.0, 10.0, 10.0))
                tracks.append(t)
            cands = [
                cand(
                    (5000.0, 100.0 * j, 10.0, 10.0),
                    s_mask={i: float(affinity[i, j]) for i in range(n)},
                )
                for j in range(m)
            ]
            cfg = TrackerConfig(alpha=1.0, tau_match=0.1)
            hung = associate_frame(tracks, cands, cfg)
            greedy = associate_frame(tracks, cands, TrackerConfig(alpha=1.0, tau_match=0.1, mode="greedy"))
            hung_total = sum(m_.score for m_ in hung.matches)
            greedy_total = sum(m_.score for m_ in greedy.matches)
            best = best_matching_score(affinity, 0.1)
            assert hung_total == pytest.approx(best, abs=1e-9)
            assert hung_total >= greedy_total - 1e-12
            matched_tracks = [m_.track_id for m_ in hung.matches]
            matched_cands = [m_.candidate_index for m_ in hung.matches]
            assert len(set(matched_tracks)) == len(matched_tracks)
            assert len(set(matched_cands)) == len(matched_cands)
            assert all(m_.score >= 0.1 for m_ in hung.matches)

    def test_rejects_prediction_missing(self):
        track = make_track(1, (0, 0, 10, 10), predicted=False)
        with pytest.raises(ValueError):
            associate_frame([track], [cand((0, 0, 10, 10))], TrackerConfig())


class TestStepTracker:
    def test_empty_frame_no_tracks(self):
        state = TrackerState()
        state, outputs = step_tracker(state, [])
        assert outputs == []
        assert state.tracks == []
        assert state.frame_index == 1

    def test_confirmation_after_n_init_frames(self):
        config = TrackerConfig(n_init=3)
        state = TrackerState(config=config)
        statuses = []
        for f in range(1, 5):
            state, outputs = step_tracker(state, [cand((10.0 + f, 10.0, 20, 20), s_obj=0.9)])
            statuses.append([o.status for o in outputs])
        assert statuses[0] == [TENTATIVE]
        assert statuses[1] == [TENTATIVE]
        assert statuses[2] == [CONFIRMED]
        assert len(state.tracks) == 1
        assert state.tracks[0].id == 1

    def test_low_confidence_candidate_does_not_spawn(self):
        config = TrackerConfig(tau_birth=0.6)
        state = TrackerState(config=config)
        state, _ = step_tracker(state, [cand((0, 0, 10, 10), s_obj=0.5)])
        assert state.tracks == []

    def test_misses_reset_on_match_and_lost_flagging(self):
        config = TrackerConfig(n_init=1, max_age=5)
        state = TrackerState(config=config)
        state, _ = step_tracker(state, [cand((0, 0, 20, 20))])
        state, outputs = step_tracker(state, [])
        assert outputs[0].status == LOST
        assert outputs[0].score is None
        assert state.tracks[0].misses == 1
        state, outputs = step_tracker(state, [cand((0, 0, 20, 20))])
        assert state.tracks[0].misses == 0
        assert outputs[0].status == CONFIRMED

    def test_tentative_track_dies_on_first_miss(self):
        config = TrackerConfig(n_init=3)
        state = TrackerState(config=config)
        state, _ = step_tracker(state, [cand((0, 0, 20, 20))])
        state, outputs = step_tracker(state, [])
        assert state.tracks == []
        assert outputs == []

    def test_retirement_after_max_age(self):
        config = TrackerConfig(n_init=1, max_age=3)
        state = TrackerState(config=config)
        state, _ = step_tracker(state, [cand((0, 0, 20, 20))])
        for _ in range(3):
            state, _ = step_tracker(state, [])
            assert len(state.tracks) == 1
        state, _ = step_tracker(state, [])
        assert state.tracks == []

    def test_occlusion_recovery_keeps_identity(self):
        """A track occluded while moving is re-acquired by its prediction."""
        config = TrackerConfig(n_init=1, max_age=10, kinematics=KinematicsConfig(tau_kf=1))
        state = TrackerState(config=config)
        ids_seen = set()
        for f in range(1, 21):
            if 8 <= f <= 13:
                frame = []
            else:
                frame = [cand((10.0 * f, 50.0, 30, 30), s_obj=0.95)]
            state, outputs = step_tracker(state, frame)
            for o in outputs:
                if o.status == CONFIRMED:
                    ids_seen.add(o.track_id)
        assert ids_seen == {1}

    def test_output_box_is_candidate_box_when_matched(self):
        config = TrackerConfig(n_init=1)
        state = TrackerState(config=config)
        box = (3.5, 4.5, 21.0, 22.0)
        state, outputs = step_tracker(state, [cand(box)])
        assert outputs[0].box.as_tuple() == pytest.approx(box)

    def test_out_of_order_frame_rejected(self):
        state = TrackerState()
        state, _ = step_tracker(state, [], frame_index=5)
        with pytest.raises(ValueError):
            step_tracker(state, [], frame_index=5)

    def test_ids_never_reused(self):
        config = TrackerConfig(n_init=1, max_age=0)
        state = TrackerState(config=config)
        seen = []
        for f in range(6):
            frame = [cand((100.0 * f, 0, 10, 10))] if f % 2 == 0 else []
            state, outputs = step_tracker(state, frame)
            seen.extend(o.track_id for o in outputs)
        assert len(set(seen)) == len([i for i in seen])  # every output id unique here
        assert state.next_id == 4  # three births

    def test_deterministic_replay(self):
        rng = np.random.default_rng(33)
        frames = []
        for f in range(30):
            frame = []
            for j in range(int(rng.integers(0, 4))):
                frame.append(cand(
                    (float(rng.uniform(0, 200)), float(rng.uniform(0, 200)), 15, 15),
                    s_obj=float(rng.uniform(0.4, 1.0)),
                    embedding=rng.normal(size=8),
                ))
            frames.append(frame)

        def run():
            state = TrackerState(config=TrackerConfig())
            collected = []
            for frame in frames:
                state, outputs = step_tracker(state, frame)
                collected.append(tuple((o.track_id, o.box.as_tuple(), o.status) for o in outputs))
            return collected

        assert run() == run()

    def test_buffer_updates_only_with_embeddings(self):
        config = TrackerConfig(n_init=1)
        state = TrackerState(config=config)
        state, _ = step_tracker(state, [cand((0, 0, 20, 20))])
        assert state.tracks[0].memory is None
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        state, _ = step_tracker(state, [cand((0, 0, 20, 20), embedding=e1)])
        assert np.array_equal(state.tracks[0].memory, e1)
        state, _ = step_tracker(state, [cand((0, 0, 20, 20), embedding=e2)])
        track = state.tracks[0]
        expected, _ = temporal_buffer_update(e1, e2, 1.0, config.tau_gamma)
        # the match IoU is not exactly 1 (the filter is still converging), so
        # just check the buffer moved strictly toward the new key
        assert 0.0 < track.memory[1] < 1.0
        assert track.memory[0] + track.memory[1] == pytest.approx(1.0)
        del expected


@st.composite
def tracker_streams(draw):
    """A tracker config and a stream of frames for it.

    Frames may be empty; candidates have random boxes and objectness, a
    scalar, per-track mapping or no s_mask, and an embedding of the
    stream's one dimension or none. tau_kf is 0, 3 or inf; both assignment
    modes occur.
    """
    dim = draw(st.integers(1, 4))
    unit = st.floats(0.0, 1.0)
    coord = st.floats(-50.0, 250.0)
    extent = st.floats(1.0, 60.0)
    config = TrackerConfig(
        mode=draw(st.sampled_from(MODES)),
        n_init=draw(st.integers(1, 4)),
        max_age=draw(st.integers(0, 6)),
        kinematics=KinematicsConfig(tau_kf=draw(st.sampled_from((0.0, 3.0, math.inf)))),
    )
    frames = []
    for _ in range(draw(st.integers(1, 30))):
        frame = []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(("none", "scalar", "mapping")))
            if kind == "scalar":
                s_mask = draw(unit)
            elif kind == "mapping":
                s_mask = draw(st.dictionaries(st.integers(1, 12), unit, max_size=3))
            else:
                s_mask = None
            embedding = None
            if draw(st.booleans()):
                embedding = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim)))
            box = BoundingBox(draw(coord), draw(coord), draw(extent), draw(extent))
            frame.append(DetectionCandidate(box, draw(unit), s_mask, embedding))
        frames.append(frame)
    return config, frames


class TestTrackerStreams:
    @settings(max_examples=150, deadline=None)
    @given(tracker_streams())
    def test_stream_invariants(self, stream):
        config, frames = stream
        state = TrackerState(config=config)
        issued: set[int] = set()  # every id a track has held
        retired: set[int] = set()
        for frame in frames:
            state, outputs = step_tracker(state, frame)
            live = {t.id for t in state.tracks}
            assert len(live) == len(state.tracks)
            assert not live & retired, "a retired id came back"
            retired |= issued - live
            issued |= live
            ids = [o.track_id for o in outputs]
            assert len(ids) == len(set(ids))
            assert set(ids) <= live
            for o in outputs:
                assert all(map(math.isfinite, o.box.as_tuple()))
                assert o.box.w > 0 and o.box.h > 0
            for t in state.tracks:
                k = t.kalman
                assert np.all(np.isfinite(k.state))
                assert all(map(math.isfinite, k.pos_var + k.vel_var + k.cross))
        assert issued == set(range(1, state.next_id))


def _float_bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _track_bits(track) -> tuple:
    """Every field of a track, floats as their bytes, so -0.0 != 0.0."""
    k = track.kalman
    return (
        track.id, track.status, track.hits, track.misses, k.counter,
        _float_bits(k.state), _float_bits(k.pos_var + k.vel_var + k.cross), _float_bits(k.q + k.r),
        None if track.memory is None else _float_bits(track.memory),
        None if track.predicted_box is None else _float_bits(track.predicted_box.as_tuple()),
        _float_bits(track.last_box.as_tuple()),
        None if track.last_score is None else _float_bits(track.last_score),
    )


def _output_bits(outputs) -> list[tuple]:
    return [(o.track_id, _float_bits(o.box.as_tuple()), o.status,
             None if o.score is None else _float_bits(o.score)) for o in outputs]


def assert_matches_oracle(config, frames) -> OracleTrackerState:
    """Run the column tracker and the per-track oracle side by side; after
    every frame their outputs and every field of every track must be equal
    bit for bit. Returns the oracle's final state."""
    state, oracle = TrackerState(config=config), OracleTrackerState(config=config)
    for f, frame in enumerate(frames, start=1):
        state, outputs = step_tracker(state, frame)
        oracle, expected = step_tracker_oracle(oracle, frame)
        assert _output_bits(outputs) == _output_bits(expected), f"frame {f}"
        # A track born this frame has no prediction yet: None in both.
        assert [_track_bits(t) for t in state.tracks] == [_track_bits(t) for t in oracle.tracks], f"frame {f}"
        assert (state.next_id, state.frame_index) == (oracle.next_id, oracle.frame_index)
        assert [o.track_id for o in outputs] == sorted(o.track_id for o in outputs)
    return oracle


class TestColumnsMatchPerTrackOracle:
    """The column tracker against ``step_tracker_oracle``, the per-track step
    it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(tracker_streams())
    def test_random_streams_bit_equal(self, stream):
        config, frames = stream
        assert_matches_oracle(config, frames)

    @settings(max_examples=100, deadline=None)
    @given(tracker_streams())
    def test_association_matches_dict_oracle(self, stream):
        """``associate_frame`` on each frame's predicted tracks against the
        dict-and-tuple association it replaced: the derived matches and
        unmatched views are equal values."""
        config, frames = stream
        oracle = OracleTrackerState(config=config)
        for frame in frames:
            predicted = [replace(t, predicted_box=kf_predict(t.kalman)[1]) for t in oracle.tracks]
            result = associate_frame(predicted, frame, config)
            expected = associate_frame_oracle(predicted, frame, config)
            assert result.matches == expected.matches
            assert result.unmatched_tracks == expected.unmatched_tracks
            assert result.unmatched_candidates == expected.unmatched_candidates
            assert result.pairs() == [(m.track_id, m.candidate_index) for m in expected.matches]
            oracle, _ = step_tracker_oracle(oracle, frame)

    def test_crowd_sequence_bit_equal(self, monkeypatch):
        """24 agents, 400 frames: the benchmark's crowd_online sequence (seed 0)."""
        import oracles

        counts = {"corrections": 0, "buffer_updates": 0}
        gated_update, buffer_update = oracles.kf_gated_update, oracles.temporal_buffer_update

        def counted_update(s, *args):
            updated = gated_update(s, *args)
            counts["corrections"] += updated.state is not s.state
            return updated

        def counted_buffer(*args):
            counts["buffer_updates"] += 1
            return buffer_update(*args)

        monkeypatch.setattr(oracles, "kf_gated_update", counted_update)
        monkeypatch.setattr(oracles, "temporal_buffer_update", counted_buffer)
        scenario = replace(scenario_by_name("crowd8_occl20"), n_agents=24, n_frames=400,
                           arena=(1920.0, 1080.0), fp_rate=1.0, seed=0)
        _, frames = generate(scenario)
        oracle = assert_matches_oracle(TrackerConfig(), frames)
        assert (counts["corrections"], oracle.next_id - 1, counts["buffer_updates"]) == (6960, 28, 7705)

    def test_snapshots_are_copies(self):
        state = TrackerState(config=TrackerConfig(n_init=1))
        emb = np.array([1.0, 0.0])
        state, _ = step_tracker(state, [cand((0, 0, 20, 20), embedding=emb)])
        (track,) = state.tracks
        track.memory[0] = 9.0
        track.kalman.state[0] = 9.0
        track.hits = 99
        (again,) = state.tracks
        assert again.memory.tolist() == [1.0, 0.0]
        assert again.kalman.state[0] == 0.0 and again.hits == 1
        assert again.predicted_box is None  # born this frame, not predicted yet
        state, _ = step_tracker(state, [])
        assert state.tracks[0].predicted_box == state.tracks[0].last_box

    def test_result_views_derive_from_arrays(self):
        tracks = [make_track(5, (0, 0, 10, 10)), make_track(7, (200, 0, 10, 10)),
                  make_track(9, (400, 0, 10, 10))]
        frame = [cand((400, 0, 10, 10)), cand((900, 0, 10, 10)), cand((0, 0, 10, 10))]
        result = associate_frame(tracks, frame, TrackerConfig())
        assert result.rows.tolist() == [0, 2] and result.cols.tolist() == [2, 0]
        assert result.pairs() == [(5, 2), (9, 0)]
        assert [(m.track_id, m.candidate_index) for m in result.matches] == [(5, 2), (9, 0)]
        assert all(type(m.score) is float and type(m.track_id) is int for m in result.matches)
        assert result.unmatched_tracks == (7,)
        assert result.unmatched_candidates == (1,)
        assert result.boxes.tolist() == [[0.0, 0.0, 10.0, 10.0], [400.0, 0.0, 10.0, 10.0]]
        again = associate_frame(tracks, frame, TrackerConfig())
        assert result == again and hash(result) == hash(again)
        assert result != associate_frame(tracks, frame[:2], TrackerConfig())

    def test_second_embedding_dimension_rejected_at_once(self):
        """Memories share one dimension, so a birth with another one fails
        even though no score would compare the two."""
        state = TrackerState(config=TrackerConfig(n_init=1))
        state, _ = step_tracker(state, [cand((0, 0, 20, 20), embedding=np.ones(3))])
        with pytest.raises(ValueError, match=r"^buffer/key dimension mismatch: \(2,\) vs \(3,\)"):
            step_tracker(state, [cand((0, 0, 20, 20), s_mask=0.5, embedding=np.ones(3)),
                                 cand((500, 0, 20, 20), s_mask=0.5, embedding=np.ones(2))])

    def test_dimension_free_again_once_no_memory_is_held(self):
        state = TrackerState(config=TrackerConfig(n_init=1, max_age=0))
        state, _ = step_tracker(state, [cand((0, 0, 20, 20), embedding=np.ones(3))])
        state, _ = step_tracker(state, [])
        assert state.tracks == []
        state, _ = step_tracker(state, [cand((0, 0, 20, 20), embedding=np.ones(2))])
        assert state.tracks[0].memory.tolist() == [1.0, 1.0]

    def test_non_finite_prediction_names_the_field(self):
        state = TrackerState(config=TrackerConfig(n_init=1))
        state, _ = step_tracker(state, [cand((0, 0, 20, 20))])
        state.rows.x[0, 4] = math.inf  # x velocity
        with pytest.raises(ValueError, match="box field 'x' must be finite, got inf"):
            step_tracker(state, [])


class TestSoak:
    def test_rows_stay_the_live_tracks_and_memory_stays_bounded(self):
        """A 4-agent stream replayed for 10 000 frames. On every frame the
        rows are the live tracks, once each in id order: every column has one
        entry per row, every row has its output, and each row is either a
        row of the frame before or a track born in this frame, so no retired
        id returns. What the last 2 000 frames allocate and leave alive is no
        more than the tracker's state (traced only there: tracing is slow)."""
        _, clip = generate(replace(scenario_by_name("clutter4"), n_frames=250, seed=3))
        state = TrackerState()
        ids, retirements = [], 0
        try:
            for f in range(10_000):
                if f == 8_000:
                    gc.collect()
                    tracemalloc.start()
                first_new = state.next_id
                previous, (state, outputs) = set(ids), step_tracker(state, clip[f % len(clip)])
                ids = state.rows.id.tolist()
                assert ids == [o.track_id for o in outputs] == sorted(set(ids))
                assert all(i in previous or i >= first_new for i in ids)
                retirements += len(previous - set(ids))
                rows = state.rows
                assert {len(getattr(rows, name)) for name in rows.ARRAYS} == {len(ids)}
                assert len(rows.last_box) == len(rows.last_score) == len(ids) <= 12
            gc.collect()
            growth = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retirements > 500  # tracks do retire and new ones are born
        assert growth < 16 * 1024, growth


class TestModeReductions:
    def build_fixture_frames(self):
        rng = np.random.default_rng(41)
        frames = []
        for f in range(12):
            frame = [
                cand(
                    (30.0 * j + 2.0 * f, 40.0 * j, 20, 20),
                    s_obj=0.9,
                    s_mask={1: float(rng.uniform(0.5, 1.0)), 2: float(rng.uniform(0.5, 1.0))},
                )
                for j in range(2)
            ]
            frames.append(frame)
        return frames

    def test_alpha_one_reduces_to_appearance_argmax(self):
        config = TrackerConfig(
            alpha=1.0, mode="greedy", n_init=1, tau_match=0.0,
            kinematics=KinematicsConfig(tau_kf=math.inf),
        )
        state = TrackerState(config=config)
        frames = self.build_fixture_frames()
        state, _ = step_tracker(state, frames[0])
        for frame in frames[1:]:
            tracks = list(state.tracks)
            for t in tracks:
                _, t_predicted = kf_predict(t.kalman)
            expected = {}
            for t in tracks:
                affs = [candidate_affinity(t, c) for c in frame]
                expected[t.id] = int(np.argmax(affs))
            state, _ = step_tracker(state, frame)
            chosen = {t.id: t.last_box for t in state.tracks if t.misses == 0 and t.id in expected}
            for tid, j in expected.items():
                if tid in chosen:
                    assert chosen[tid] == frame[j].box

    def test_alpha_zero_reduces_to_motion_argmax(self):
        config = TrackerConfig(alpha=0.0, mode="greedy", n_init=1, tau_match=0.0)
        state = TrackerState(config=config)
        frames = self.build_fixture_frames()
        state, _ = step_tracker(state, frames[0])
        for frame in frames[1:]:
            predictions = {}
            for t in state.tracks:
                _, box = kf_predict(t.kalman)
                predictions[t.id] = box
            state, _ = step_tracker(state, frame)
            for t in state.tracks:
                if t.misses == 0 and t.id in predictions:
                    best = int(np.argmax([iou(predictions[t.id], c.box) for c in frame]))
                    assert t.last_box == frame[best].box
