import math

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
    fused_score,
    iou,
    kf_init,
    kf_predict,
    motion_consistency_score,
    step_tracker,
    temporal_buffer_update,
)
from motrack.association import _score_matrices, candidate_affinity, cosine_affinity

from oracles import best_matching_score, ema_closed_form


def make_track(track_id, box, config=None, predicted=True):
    cfg = config or TrackerConfig()
    track = Track(id=track_id, kalman=kf_init(BoundingBox(*box), cfg.kinematics))
    if predicted:
        track.kalman, track.predicted_box = kf_predict(track.kalman)
    return track


def cand(box, s_obj=0.9, s_mask=None, embedding=None):
    return DetectionCandidate(BoundingBox(*box), s_obj=s_obj, s_mask=s_mask, embedding=embedding)


class TestScores:
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
        fused, motion = _score_matrices(tracks, candidates, alpha)
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
        candidates = [
            cand((0, 0, 10, 10), s_mask=0.25, embedding=np.ones(2)),
            cand((0, 0, 10, 10), s_mask={1: 0.75}, embedding=np.ones(2)),
        ]
        fused, _ = _score_matrices([track], candidates, 1.0)
        assert fused.tolist() == [[0.25, 0.75]]

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
