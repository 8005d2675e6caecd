import numpy as np
import pytest

from motrack import (
    GateNetwork,
    LatentMap,
    MotionQueue,
    ProjectionPair,
    attention_scores,
    forecast,
    gated_fuse,
    memory_cache_select,
    spatial_pool,
)

from oracles import attention_oracle, memory_select_oracle, softmax_oracle


def random_proj(dim, seed):
    return ProjectionPair.from_seed(dim, seed)


class TestAttentionScores:
    def test_identical_keys_give_uniform_rows(self):
        proj = random_proj(3, 0)
        f_q = np.random.default_rng(1).normal(size=(4, 3))
        f_k = np.tile(np.array([[0.3, -1.2, 0.7]]), (5, 1))
        out = attention_scores(f_q, f_k, proj)
        assert np.allclose(out, 1.0 / 5.0)

    def test_two_key_case_matches_scalar_softmax(self):
        proj = ProjectionPair.identity(2)
        out = attention_scores([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]], proj)
        expected = softmax_oracle([1.0 / np.sqrt(2.0), 0.0])
        assert np.allclose(out[0], expected, atol=1e-12)

    def test_positive_scaling_keeps_row_argmax(self):
        proj = random_proj(4, 2)
        rng = np.random.default_rng(3)
        f_q = rng.normal(size=(3, 4))
        f_k = rng.normal(size=(6, 4))
        base = attention_scores(f_q, f_k, proj)
        scaled = attention_scores(2.5 * f_q, f_k, proj)
        assert np.array_equal(base.argmax(axis=1), scaled.argmax(axis=1))

    def test_rows_stochastic_and_open_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            d = int(rng.integers(1, 8))
            proj = random_proj(d, int(rng.integers(1000)))
            f_q = rng.normal(size=(int(rng.integers(1, 6)), d))
            # a single key forces its weight to exactly 1, so use >= 2 keys
            f_k = rng.normal(size=(int(rng.integers(2, 9)), d))
            out = attention_scores(f_q, f_k, proj)
            assert np.allclose(out.sum(axis=1), 1.0, atol=1e-9)
            assert np.all(out > 0) and np.all(out < 1)

    def test_logit_shift_invariance(self):
        # adding a constant direction to every key row shifts all logits of a
        # row equally once projected identically; emulate by direct comparison
        # against the oracle, which uses an unshifted softmax
        rng = np.random.default_rng(5)
        proj = random_proj(5, 6)
        f_q = rng.normal(size=(3, 5))
        f_k = rng.normal(size=(7, 5))
        ours = attention_scores(f_q, f_k, proj)
        ref = attention_oracle(f_q, f_k, proj.w_q, proj.w_k)
        assert np.allclose(ours, ref, atol=1e-9)

    def test_dimension_mismatch_rejected(self):
        proj = random_proj(3, 0)
        with pytest.raises(ValueError):
            attention_scores(np.ones((2, 4)), np.ones((2, 3)), proj)

    def test_non_finite_rejected(self):
        proj = random_proj(2, 0)
        with pytest.raises(ValueError):
            attention_scores(np.array([[np.nan, 1.0]]), np.ones((2, 2)), proj)


class TestSpatialPool:
    def test_single_row_identity(self):
        row = np.array([[1.0, 2.0, 3.0]])
        assert np.array_equal(spatial_pool(row), row)

    def test_two_rows(self):
        out = spatial_pool(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert np.allclose(out, [[0.5, 0.5]])

    def test_matches_summation(self):
        rng = np.random.default_rng(8)
        tokens = rng.normal(size=(5, 3))
        manual = np.array([[sum(tokens[i, j] for i in range(5)) / 5.0 for j in range(3)]])
        assert np.allclose(spatial_pool(tokens), manual, atol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spatial_pool(np.empty((0, 3)))


class TestMemoryCacheSelect:
    def test_k_equals_length_returns_all_sorted(self):
        rng = np.random.default_rng(9)
        proj = random_proj(4, 10)
        memory = rng.normal(size=(6, 4))
        current = rng.normal(size=(1, 4))
        out = memory_cache_select(current, memory, proj, k=6)
        scores = [s for _, s in out]
        assert sorted(scores, reverse=True) == scores
        assert sorted(i for i, _ in out) == list(range(6))

    def test_single_frame_scores_two(self):
        proj = random_proj(3, 11)
        out = memory_cache_select(np.ones((1, 3)), np.ones((1, 3)), proj, k=1)
        assert out[0][0] == 0
        assert out[0][1] == pytest.approx(2.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            d = int(rng.integers(1, 9))
            length = int(rng.integers(1, 17))
            k = int(rng.integers(1, length + 1))
            proj = random_proj(d, int(rng.integers(10000)))
            memory = rng.normal(size=(length, d))
            current = rng.normal(size=(1, d))
            ours = memory_cache_select(current, memory, proj, k)
            ref = memory_select_oracle(current, memory, proj.w_q, proj.w_k, k)
            assert [i for i, _ in ours] == [i for i, _ in ref]
            assert np.allclose([s for _, s in ours], [s for _, s in ref], atol=1e-9)

    def test_permutation_consistency(self):
        rng = np.random.default_rng(13)
        proj = random_proj(5, 14)
        memory = rng.normal(size=(8, 5))
        current = rng.normal(size=(1, 5))
        perm = rng.permutation(8)
        base = memory_cache_select(current, memory, proj, k=3)
        permuted = memory_cache_select(current, memory[perm], proj, k=3)
        inverse = {int(p): i for i, p in enumerate(perm)}
        assert [inverse[i] for i, _ in base] == [i for i, _ in permuted]

    def test_k_out_of_range(self):
        proj = random_proj(2, 0)
        memory = np.ones((3, 2))
        current = np.ones((1, 2))
        for bad_k in (0, 4):
            with pytest.raises(ValueError):
                memory_cache_select(current, memory, proj, bad_k)


class TestMotionQueue:
    def test_push_and_length(self):
        q = MotionQueue(capacity=3, dim=2)
        q.push([1.0, 2.0])
        assert len(q) == 1

    def test_eviction_order(self):
        q = MotionQueue(capacity=3, dim=1)
        for v in range(5):
            q.push([float(v)])
        assert len(q) == 3
        assert q.states().ravel().tolist() == [2.0, 3.0, 4.0]

    def test_matches_list_slice_oracle(self):
        capacity = 4
        q = MotionQueue(capacity=capacity, dim=2)
        pushed = []
        rng = np.random.default_rng(17)
        for _ in range(capacity + 3):
            v = rng.normal(size=2)
            pushed.append(v)
            q.push(v)
        expected = np.stack(pushed[-capacity:])
        assert np.array_equal(q.states(), expected)

    def test_dimension_mismatch(self):
        q = MotionQueue(capacity=2, dim=3)
        with pytest.raises(ValueError):
            q.push([1.0, 2.0])

    @pytest.mark.parametrize("capacity,dim,message", [
        (0, 3, "capacity must be >= 1, got 0"),
        (float("nan"), 3, "capacity must be >= 1, got nan"),
        (3, float("nan"), "dim must be >= 1, got nan"),
    ])
    def test_sizes_below_one_or_nan_rejected(self, capacity, dim, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            MotionQueue(capacity=capacity, dim=dim)


class TestForecast:
    def test_identical_states_forecast_themselves(self):
        q = MotionQueue(4, 3)
        for _ in range(4):
            q.push([2.0, -1.0, 0.5])
        latent, predicted = forecast(q)
        assert np.allclose(predicted, [2.0, -1.0, 0.5])
        assert np.allclose(latent, predicted)

    def test_linear_motion_is_exact(self):
        q = MotionQueue(8, 2)
        for t in range(6):
            q.push([float(t), 3.0 - 2.0 * t])
        _, predicted = forecast(q)
        assert np.allclose(predicted, [6.0, 3.0 - 12.0], atol=1e-12)

    def test_random_walk_matches_summation_oracle(self):
        rng = np.random.default_rng(19)
        states = rng.normal(size=(8, 4)).cumsum(axis=0)
        q = MotionQueue(8, 4)
        for s in states:
            q.push(s)
        _, predicted = forecast(q)
        diffs = [states[i + 1] - states[i] for i in range(7)]
        mean_diff = np.array([sum(d[j] for d in diffs) / 7.0 for j in range(4)])
        assert np.allclose(predicted, states[-1] + mean_diff, atol=1e-12)

    def test_empty_queue_rejected(self):
        with pytest.raises(ValueError):
            forecast(MotionQueue(3, 2))

    def test_custom_forecaster_and_latent_map(self):
        q = MotionQueue(3, 2)
        q.push([1.0, 2.0])

        def zeros_forecaster(states):
            return np.zeros(states.shape[1])

        lm = LatentMap.from_seed(latent_dim=5, state_dim=2, seed=3)
        latent, predicted = forecast(q, zeros_forecaster, lm)
        assert np.allclose(predicted, 0.0)
        assert latent.shape == (5,)
        assert np.allclose(latent, lm.matrix @ predicted)


class TestGatedFuse:
    def test_gate_forced_closed_returns_reconstruction(self):
        gate = GateNetwork.constant(4, bias=-40.0)
        z_h = np.array([1.0, -2.0, 0.5, 3.0])
        z_hat = np.array([-1.0, 2.0, 1.5, 0.0])
        fused, g = gated_fuse(z_h, z_hat, gate)
        assert np.allclose(fused, z_h, atol=1e-12)
        assert np.all(g < 1e-12)

    def test_gate_forced_open_returns_prediction(self):
        gate = GateNetwork.constant(4, bias=40.0)
        z_h = np.array([1.0, -2.0, 0.5, 3.0])
        z_hat = np.array([-1.0, 2.0, 1.5, 0.0])
        fused, g = gated_fuse(z_h, z_hat, gate)
        assert np.allclose(fused, z_hat, atol=1e-12)
        assert np.all(g > 1.0 - 1e-12)

    def test_zero_weights_zero_bias_average(self):
        gate = GateNetwork(np.zeros((3, 6)), np.zeros(3))
        z_h = np.array([2.0, 4.0, -6.0])
        z_hat = np.array([0.0, 0.0, 0.0])
        fused, g = gated_fuse(z_h, z_hat, gate)
        assert np.allclose(g, 0.5)
        assert np.allclose(fused, [1.0, 2.0, -3.0])

    def test_fused_lies_between_inputs(self):
        rng = np.random.default_rng(21)
        for seed in range(20):
            gate = GateNetwork.from_seed(6, seed)
            z_h = rng.normal(size=6)
            z_hat = rng.normal(size=6)
            fused, g = gated_fuse(z_h, z_hat, gate)
            lo = np.minimum(z_h, z_hat)
            hi = np.maximum(z_h, z_hat)
            assert np.all(fused >= lo - 1e-12)
            assert np.all(fused <= hi + 1e-12)
            assert np.all((g > 0) & (g < 1))

    def test_dimension_mismatch(self):
        gate = GateNetwork.constant(3, 0.0)
        with pytest.raises(ValueError):
            gated_fuse(np.ones(2), np.ones(3), gate)

