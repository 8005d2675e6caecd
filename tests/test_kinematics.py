import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motrack import BoundingBox, KinematicsConfig, kf_gated_update, kf_init, kf_predict

from oracles import DenseKalmanOracle

ALWAYS = KinematicsConfig(tau_kf=0)


def make_state(box=(0, 0, 10, 10), config=ALWAYS):
    return kf_init(BoundingBox(*box), config)


def test_init_state_and_counter():
    s = make_state()
    assert np.allclose(s.state, [0, 0, 10, 10, 0, 0, 0, 0])
    assert s.counter == 0


def test_init_covariance_velocity_dominates_position():
    cfg = KinematicsConfig()
    s = kf_init(BoundingBox(5, 5, 2, 3), cfg)
    diag = np.diag(s.covariance)
    size = np.array([2.0, 3.0, 2.0, 3.0])
    assert np.allclose(diag[:4], (2.0 * cfg.pos_noise * size) ** 2)
    assert np.allclose(diag[4:], (10.0 * cfg.vel_noise * size) ** 2)
    assert np.all(diag > 0)
    assert diag[4:].min() > diag[:4].max()


def test_predict_advances_by_velocity():
    s = make_state()
    s = replace(s, state=np.array([0.0, 0.0, 10.0, 10.0, 1.0, 2.0, 0.0, 0.0]))
    _, box = kf_predict(s)
    assert box.as_tuple() == pytest.approx((1, 2, 10, 10))


def test_predict_identity_with_zero_velocity():
    s = make_state((3, 4, 5, 6))
    _, box = kf_predict(s)
    assert box.as_tuple() == pytest.approx((3, 4, 5, 6))


def test_two_predicts_unroll_recurrence():
    s = make_state()
    s = replace(s, state=np.array([0.0, 0.0, 10.0, 10.0, 1.0, 0.0, 0.0, 0.0]))
    s, _ = kf_predict(s)
    s, box = kf_predict(s)
    assert box.x == pytest.approx(2.0)


def test_predicted_extents_floored():
    s = make_state()
    s = replace(s, state=np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0, -5.0, -5.0]))
    _, box = kf_predict(s)
    assert box.w == pytest.approx(1e-3)
    assert box.h == pytest.approx(1e-3)


def test_counter_trace_and_gate_firing():
    """Reliability [T,T,F,T,T,T] with tau_kf=3: counters [1,2,0,1,2,3] and
    the correction fires only on the sixth call."""
    cfg = KinematicsConfig(tau_kf=3)
    s = kf_init(BoundingBox(0, 0, 10, 10), cfg)
    z = BoundingBox(50, 50, 10, 10)  # far from the prediction: firing moves the state
    expected_counters = [1, 2, 0, 1, 2, 3]
    fired = []
    for step, reliable in enumerate([True, True, False, True, True, True]):
        s, _ = kf_predict(s)
        before = s.state.copy()
        s = kf_gated_update(s, z, reliable, cfg)
        assert s.counter == expected_counters[step]
        fired.append(not np.array_equal(s.state, before))
    assert fired == [False, False, False, False, False, True]


def test_tau_zero_always_fires():
    cfg = KinematicsConfig(tau_kf=0)
    s = kf_init(BoundingBox(0, 0, 10, 10), cfg)
    z = BoundingBox(30, 0, 10, 10)
    for reliable in (True, False, False):
        s, _ = kf_predict(s)
        before = s.state.copy()
        s = kf_gated_update(s, z, reliable, cfg)
        assert not np.array_equal(s.state, before)


def test_zero_innovation_keeps_mean_and_shrinks_covariance():
    s = make_state((4, 5, 8, 9))
    s, box = kf_predict(s)
    before_diag = np.diag(s.covariance).copy()
    updated = kf_gated_update(s, box, True, ALWAYS)
    assert np.allclose(updated.state, s.state, atol=1e-12)
    assert np.all(np.diag(updated.covariance) <= before_diag + 1e-12)


def test_covariance_symmetric_and_finite():
    rng = np.random.default_rng(3)
    cfg = KinematicsConfig(tau_kf=2)
    s = kf_init(BoundingBox(0, 0, 20, 30), cfg)
    for _ in range(200):
        s, box = kf_predict(s)
        assert np.max(np.abs(s.covariance - s.covariance.T)) < 1e-9
        z = BoundingBox(box.x + rng.normal(), box.y + rng.normal(), 20.0, 30.0)
        s = kf_gated_update(s, z, bool(rng.uniform() < 0.8), cfg)
        assert np.max(np.abs(s.covariance - s.covariance.T)) < 1e-9
        assert np.all(np.isfinite(s.state))
        assert np.all(np.isfinite(s.covariance))


def test_blocked_gate_grows_covariance_trace():
    cfg = KinematicsConfig(tau_kf=math.inf)
    s = kf_init(BoundingBox(0, 0, 10, 10), cfg)
    traces = []
    for _ in range(20):
        s, box = kf_predict(s)
        s = kf_gated_update(s, box, True, cfg)
        traces.append(np.trace(s.covariance))
    assert all(b > a for a, b in zip(traces, traces[1:]))


def test_reset_requires_full_streak_again():
    """After an unreliable frame, tau_kf consecutive reliable frames are
    needed before any correction fires; checked over random sequences."""
    rng = np.random.default_rng(17)
    for trial in range(50):
        tau = int(rng.integers(1, 5))
        cfg = KinematicsConfig(tau_kf=tau)
        s = kf_init(BoundingBox(0, 0, 10, 10), cfg)
        streak = 0
        for _ in range(40):
            s, box = kf_predict(s)
            reliable = bool(rng.uniform() < 0.6)
            streak = streak + 1 if reliable else 0
            z = BoundingBox(box.x + 3.0, box.y + 3.0, box.w, box.h)
            before = s.state.copy()
            s = kf_gated_update(s, z, reliable, cfg)
            fired = not np.array_equal(s.state, before)
            assert fired == (streak >= tau)


def test_matches_dense_oracle_over_long_sequences():
    """Predict/update trajectories agree with the independent dense-matrix
    filter componentwise over noisy gated sequences."""
    rng = np.random.default_rng(23)
    for trial in range(5):
        tau = int(rng.integers(0, 4))
        cfg = KinematicsConfig(tau_kf=tau)
        start = (
            float(rng.uniform(0, 100)),
            float(rng.uniform(0, 100)),
            float(rng.uniform(5, 40)),
            float(rng.uniform(5, 40)),
        )
        s = kf_init(BoundingBox(*start), cfg)
        oracle = DenseKalmanOracle(start, cfg.pos_noise, cfg.vel_noise, cfg.obs_noise)
        for _ in range(500):
            s, _ = kf_predict(s)
            oracle.predict()
            z = (
                float(rng.uniform(0, 100)),
                float(rng.uniform(0, 100)),
                float(rng.uniform(5, 40)),
                float(rng.uniform(5, 40)),
            )
            reliable = bool(rng.uniform() < 0.7)
            s = kf_gated_update(s, BoundingBox(*z), reliable, cfg)
            oracle.gated_update(z, reliable, tau)
            np.testing.assert_allclose(s.state, oracle.x, atol=1e-9)
            np.testing.assert_allclose(s.covariance, oracle.P, atol=1e-9)
        assert s.counter == oracle.counter


def test_dense_filter_keeps_per_axis_covariance_blocks():
    """The dense oracle never fills a covariance entry outside the per-axis
    (position, velocity) blocks, the structure kf_predict/kf_gated_update
    compute on."""
    rng = np.random.default_rng(29)
    axis = np.arange(8) % 4
    outside = axis[:, None] != axis[None, :]
    oracle = DenseKalmanOracle((10.0, 20.0, 30.0, 40.0))
    for _ in range(300):
        oracle.predict()
        assert not oracle.P[outside].any()
        z = tuple(float(v) for v in rng.uniform(1, 100, 4))
        oracle.gated_update(z, bool(rng.uniform() < 0.8), 1)
        assert not oracle.P[outside].any()


@st.composite
def filter_runs(draw):
    """A start box, a filter config with noise scales anywhere in their valid
    ranges, and a frame stream of reliable, unreliable and coasting runs of up
    to max_age (30) frames; each run observes the start box at its own offset."""
    box = (
        draw(st.floats(-500, 500)), draw(st.floats(-500, 500)),
        draw(st.floats(1, 300)), draw(st.floats(1, 300)),
    )
    cfg = KinematicsConfig(
        tau_kf=draw(st.sampled_from([0.0, 3.0, math.inf])),
        pos_noise=draw(st.floats(0, 2)),
        vel_noise=draw(st.floats(0, 2)),
        obs_noise=draw(st.floats(1e-3, 2)),
    )
    run = st.tuples(
        st.sampled_from(["reliable", "unreliable", "coast"]),
        st.integers(1, 30),
        st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 2), st.floats(0.5, 2)),
    )
    return box, cfg, draw(st.lists(run, min_size=1, max_size=8))


@settings(max_examples=150, deadline=None)
@given(filter_runs())
def test_filter_stays_finite_psd_and_matches_dense_oracle(case):
    box, cfg, runs = case
    x, y, w, h = box
    s = kf_init(BoundingBox(*box), cfg)
    oracle = DenseKalmanOracle(box, cfg.pos_noise, cfg.vel_noise, cfg.obs_noise)
    for kind, length, (dx, dy, sw, sh) in runs:
        z = BoundingBox(x + dx, y + dy, w * sw, h * sh)
        for _ in range(length):
            s, _ = kf_predict(s)
            oracle.predict()
            if kind != "coast":
                reliable = kind == "reliable"
                s = kf_gated_update(s, z, reliable, cfg)
                oracle.gated_update(z.as_tuple(), reliable, cfg.tau_kf)
            assert np.all(np.isfinite(s.state))
            for p_pp, p_vv, p_pv in zip(s.pos_var, s.vel_var, s.cross):
                assert p_pp >= 0.0 and p_vv >= 0.0
                assert p_pp * p_vv - p_pv * p_pv >= -1e-9 * max(p_pp * p_vv, p_pv * p_pv)
            scale = np.abs(oracle.P).max()
            np.testing.assert_allclose(s.covariance, oracle.P, rtol=1e-9, atol=1e-9 * scale)
            assert s.counter == oracle.counter


def test_gate_closed_keeps_state_object():
    cfg = KinematicsConfig(tau_kf=2)
    s, box = kf_predict(make_state(config=cfg))
    held = kf_gated_update(s, box, True, cfg)
    assert held.counter == 1
    assert held.state is s.state
    assert held.pos_var is s.pos_var and held.vel_var is s.vel_var and held.cross is s.cross


def test_negative_tau_rejected():
    with pytest.raises(ValueError):
        KinematicsConfig(tau_kf=-1)
