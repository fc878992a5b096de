import math
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sneakpath import codec as gs
from sneakpath import analysis, mlp
from sneakpath.channel import ChannelParams, transmit
from sneakpath.detectors import classify_array, threshold_detect
from sneakpath.rng import STREAM_FAILURES, STREAM_NOISE, derive_rng


def finite_difference_grads(model, X, Y, step=1e-6):
    def loss():
        return mlp.bce_loss(mlp._forward_pass(model, X)[-1], Y)

    fd_w = [np.zeros_like(w) for w in model.weights]
    fd_b = [np.zeros_like(b) for b in model.biases]
    for arrs, fds in ((model.weights, fd_w), (model.biases, fd_b)):
        for arr, fd in zip(arrs, fds):
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = arr[ix]
                arr[ix] = orig + step
                up = loss()
                arr[ix] = orig - step
                down = loss()
                arr[ix] = orig
                fd[ix] = (up - down) / (2 * step)
    return fd_w, fd_b


def max_relative_error(analytic, numeric):
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-8)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestForward:
    def test_zero_parameters_give_half(self):
        model = mlp._init_from_dims([4, 8, 4, 4], 0, 1.0)
        for w in model.weights:
            w[:] = 0.0
        out = mlp.forward(model, np.zeros(4))
        assert np.allclose(out, 0.5)

    def test_relu_units(self):
        assert mlp.relu(np.array([-3.0]))[0] == 0.0
        assert mlp.relu(np.array([2.0]))[0] == 2.0

    def test_sigmoid_matches_two_branch_formula_exactly(self):
        x = np.random.default_rng(5).normal(0.0, 40.0, 4096)
        x[:10] = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 709.0, -709.0,
                  np.inf, -np.inf]
        pos = x >= 0
        expected = np.empty_like(x)
        expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        ex = np.exp(x[~pos])
        expected[~pos] = ex / (1.0 + ex)
        assert np.array_equal(mlp.sigmoid(x), expected)

    def test_matches_hand_computation(self):
        model = mlp._init_from_dims([2, 2, 2, 2], 0, 1.0)
        x = np.array([0.3, -0.7])
        h = x
        for i in range(2):
            h = np.maximum(model.weights[i].T @ h + model.biases[i], 0.0)
        z = model.weights[2].T @ h + model.biases[2]
        expected = 1.0 / (1.0 + np.exp(-z))
        assert np.allclose(mlp.forward(model, x), expected)

    def test_output_strictly_in_unit_interval(self):
        model = mlp.init_model(16, 3)
        rng = np.random.default_rng(0)
        out = mlp.forward(model, rng.normal(0, 1, (50, 16)))
        assert (out > 0.0).all() and (out < 1.0).all()

    def test_rejects_bad_input(self):
        model = mlp._init_from_dims([4, 8, 4, 4], 0, 1.0)
        with pytest.raises(ValueError):
            mlp.forward(model, np.zeros(3))
        with pytest.raises(ValueError):
            mlp.forward(model, np.array([1.0, np.nan, 0.0, 0.0]))


class TestHardDecide:
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_a_stack_is_decided_array_by_array(self, k):
        model = mlp._init_from_dims([256, 32, 256], 7, normalizer=1.0 / 1000.0)
        reads = np.random.default_rng(k).uniform(50.0, 1100.0, (k, 16, 16))
        singles = [mlp.hard_decide(model, r) for r in reads]
        assert all(s.shape == (16, 16) for s in singles)
        before = model.inference_calls
        stack = mlp.hard_decide(model, reads)
        assert model.inference_calls - before == k  # one forward call per array, none for k = 0
        assert stack.shape == (k, 16, 16) and stack.dtype == np.int64
        assert all(np.array_equal(s, one) for s, one in zip(stack, singles))


class TestBceLoss:
    def test_closed_form(self):
        assert mlp.bce_loss(np.array([0.5]), np.array([1.0])) == pytest.approx(np.log(2))

    def test_perfect_prediction_clamped_floor(self):
        y = np.array([0.0, 1.0])
        assert mlp.bce_loss(y, y) <= -np.log(1 - 1e-12) + 1e-15

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.01, 0.99, 40)
        y = (rng.random(40) < 0.5).astype(float)
        direct = -np.sum(y * np.log(p) + (1 - y) * np.log(1 - p)) / 40
        assert mlp.bce_loss(p, y) == pytest.approx(direct)


class TestBackward:
    def test_output_bias_gradient_closed_form(self):
        # Single sample: d loss / d b_out = (p - y) / n_out for sigmoid + BCE.
        model = mlp._init_from_dims([3, 6, 3, 3], 2, 1.0)
        x = np.array([0.2, -0.1, 0.4])
        y = np.array([1.0, 0.0, 1.0])
        p = mlp._forward_pass(model, x[None, :])[-1][0]
        _, db, _ = mlp.backward(model, x, y)
        assert np.allclose(db[-1], (p - y) / 3.0)

    def test_dead_relu_region_gives_zero_hidden_grads(self):
        model = mlp._init_from_dims([4, 8, 4, 4], 0, 1.0)
        for w in model.weights:
            w[:] = 0.0
        dw, _, _ = mlp.backward(model, np.zeros((2, 4)), np.ones((2, 4)))
        assert np.allclose(dw[0], 0.0)
        assert np.allclose(dw[1], 0.0)

    def test_finite_differences_small_net(self):
        model = mlp._init_from_dims([4, 8, 4, 4], 7, 1.0)
        rng = np.random.default_rng(3)
        X = rng.normal(0, 1, (5, 4))
        Y = (rng.random((5, 4)) < 0.5).astype(float)
        dw, db, _ = mlp.backward(model, X, Y)
        fd_w, fd_b = finite_difference_grads(model, X, Y)
        assert max_relative_error(dw, fd_w) < 1e-5
        assert max_relative_error(db, fd_b) < 1e-5


class TestAdam:
    def test_zero_gradient_no_move(self):
        model = mlp._init_from_dims([2, 4, 2, 2], 0, 1.0)
        state = mlp.AdamState.for_model(model)
        before = [w.copy() for w in model.weights]
        zeros_w = [np.zeros_like(w) for w in model.weights]
        zeros_b = [np.zeros_like(b) for b in model.biases]
        mlp.adam_step(model, zeros_w, zeros_b, state, mlp.TrainConfig())
        assert all(np.array_equal(a, b) for a, b in zip(before, model.weights))

    def test_first_step_is_signed_learning_rate(self):
        model = mlp._init_from_dims([2, 4, 2, 2], 0, 1.0)
        state = mlp.AdamState.for_model(model)
        cfg = mlp.TrainConfig(learning_rate=1e-3)
        before = model.weights[0].copy()
        grads_w = [np.full_like(w, 0.37) for w in model.weights]
        grads_b = [np.zeros_like(b) for b in model.biases]
        mlp.adam_step(model, grads_w, grads_b, state, cfg)
        move = model.weights[0] - before
        assert np.allclose(move, -cfg.learning_rate, rtol=1e-6)

    def test_blocked_update_matches_whole_array_update(self):
        # 300 x 100 entries span two row blocks of the in-cache update.
        rng = np.random.default_rng(9)
        model = mlp.MlpModel(dims=[300, 100], weights=[rng.normal(size=(300, 100))],
                             biases=[rng.normal(size=100)], normalizer=1.0)
        cfg = mlp.TrainConfig(learning_rate=0.01)
        state = mlp.AdamState.for_model(model)
        theta = [model.weights[0].copy(), model.biases[0].copy()]
        m = [np.zeros_like(a) for a in theta]
        v = [np.zeros_like(a) for a in theta]
        for t in (1, 2, 3):
            grads = [rng.normal(size=a.shape) for a in theta]
            mlp.adam_step(model, grads[:1], grads[1:], state, cfg)
            c1, c2 = 1.0 - mlp.ADAM_BETA1 ** t, 1.0 - mlp.ADAM_BETA2 ** t
            for a, g, mm, vv in zip(theta, grads, m, v):
                mm *= mlp.ADAM_BETA1
                mm += (1.0 - mlp.ADAM_BETA1) * g
                vv *= mlp.ADAM_BETA2
                vv += (1.0 - mlp.ADAM_BETA2) * g * g
                a -= cfg.learning_rate * (mm / c1) / (np.sqrt(vv / c2) + mlp.ADAM_EPS)
        assert np.array_equal(model.weights[0], theta[0])
        assert np.array_equal(model.biases[0], theta[1])

    def test_two_iteration_scalar_trace(self):
        # Hand-stepped Adam on one parameter with gradients g1=0.5, g2=-0.25.
        cfg = mlp.TrainConfig(learning_rate=0.1)
        theta, m, v = 1.0, 0.0, 0.0
        for t, g in ((1, 0.5), (2, -0.25)):
            m = mlp.ADAM_BETA1 * m + (1 - mlp.ADAM_BETA1) * g
            v = mlp.ADAM_BETA2 * v + (1 - mlp.ADAM_BETA2) * g * g
            mhat = m / (1 - mlp.ADAM_BETA1 ** t)
            vhat = v / (1 - mlp.ADAM_BETA2 ** t)
            theta -= cfg.learning_rate * mhat / (np.sqrt(vhat) + mlp.ADAM_EPS)

        model = mlp.MlpModel(dims=[1, 1], weights=[np.array([[1.0]])],
                             biases=[np.array([0.0])], normalizer=1.0)
        state = mlp.AdamState.for_model(model)
        for g in (0.5, -0.25):
            mlp.adam_step(model, [np.array([[g]])], [np.array([0.0])], state, cfg)
        assert model.weights[0][0, 0] == pytest.approx(theta, rel=1e-12)


class TestDataset:
    def test_starvation_when_no_affected_arrays_exist(self, monkeypatch):
        monkeypatch.setattr(mlp, "DATASET_BUDGET", 10)
        params = ChannelParams(sigma=0.0, p_f=0.0)
        with pytest.raises(mlp.FilterStarvationError, match="within 50 attempts"):
            mlp.generate_dataset(params, None, 5, mlp.AFFECTED_ONLY, seed=1)

    def test_count_and_filter_are_checked(self):
        params = ChannelParams(sigma=0.0, p_f=0.0)
        with pytest.raises(ValueError, match="count must be >= 1"):
            mlp.generate_dataset(params, None, 0, mlp.ALL, seed=1)
        with pytest.raises(ValueError, match="unknown class filter"):
            mlp.generate_dataset(params, None, 3, "affected", seed=1)

    def test_all_filter_exact_count(self):
        params = ChannelParams(sigma=0.0, p_f=0.0)
        ds = mlp.generate_dataset(params, None, 7, mlp.ALL, seed=1)
        assert len(ds) == 7
        assert ds.inputs.shape == (7, 256)
        assert set(np.unique(ds.labels)) <= {0, 1}

    @pytest.mark.parametrize("codec", [None, gs.CodecConfig.make(8, 4)])
    def test_arrays_are_write_trial_arrays(self, codec):
        params = ChannelParams(sigma=30.0, p_f=1e-2)
        ds = mlp.generate_dataset(params, codec, 6, mlp.ALL, seed=8, q=0.4)
        scn = analysis.Scenario(analysis.MIDPOINT, params, codec=codec, q=0.4)
        for i, (inputs, labels) in enumerate(zip(ds.inputs, ds.labels)):
            _, bits, _, _ = analysis.write_trial(scn, 8, i)
            assert np.array_equal(labels, bits.reshape(-1))
            _, _, reads = transmit(bits, params, derive_rng(8, i, STREAM_FAILURES),
                                   derive_rng(8, i, STREAM_NOISE))
            assert np.array_equal(inputs, reads.reshape(-1) * (1.0 / params.r0))

    def test_affected_only_reverified(self):
        params = ChannelParams(sigma=30.0, p_f=1e-3)
        cfg = gs.CodecConfig.make(8, 4)
        ds = mlp.generate_dataset(params, cfg, 20, mlp.AFFECTED_ONLY, seed=2)
        for x, y in zip(ds.inputs, ds.labels):
            reads = (x / (1.0 / params.r0)).reshape(16, 16)
            est = threshold_detect(reads, params.midpoint)
            weights = gs.tile_weights(y.reshape(16, 16), 8)
            assert classify_array(est, weights, 8)


class TestTrain:
    def test_toy_separable_convergence(self):
        # Noiseless two-level inputs: BCE should drop below 0.01 quickly.
        rng = np.random.default_rng(0)
        labels = (rng.random((200, 4)) < 0.5).astype(np.int64)
        inputs = np.where(labels == 1, 0.1, 1.0)
        ds = mlp.Dataset(inputs=inputs, labels=labels)
        model = mlp._init_from_dims([4, 16, 8, 4], 1, 1.0)
        trace = mlp.train(model, ds, mlp.TrainConfig(batch_size=32, epochs=200, seed=1))
        assert trace[-1] < 0.01

    def test_deterministic_training(self):
        rng = np.random.default_rng(0)
        labels = (rng.random((50, 4)) < 0.5).astype(np.int64)
        inputs = np.where(labels == 1, 0.1, 1.0) + rng.normal(0, 0.01, (50, 4))
        runs = []
        for _ in range(2):
            model = mlp._init_from_dims([4, 8, 4, 4], 5, 1.0)
            mlp.train(model, mlp.Dataset(inputs=inputs, labels=labels),
                      mlp.TrainConfig(batch_size=16, epochs=10, seed=5))
            runs.append([w.copy() for w in model.weights])
        assert all(np.array_equal(a, b) for a, b in zip(*runs))

    @pytest.mark.parametrize("kwargs,message", [(dict(batch_size=0), "batch size must be"),
                                                (dict(learning_rate=0.0), "learning rate must")])
    def test_config_ranges(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            mlp.TrainConfig(**kwargs)

    def test_empty_dataset(self):
        ds = mlp.Dataset(inputs=np.empty((0, 4)), labels=np.empty((0, 4), dtype=np.int64))
        with pytest.raises(ValueError, match="dataset is empty"):
            mlp.train(mlp._init_from_dims([4, 8, 4, 4], 1, 1.0), ds, mlp.TrainConfig())

    def test_non_finite_loss_stops_training(self):
        ds = mlp.Dataset(inputs=np.full((8, 4), np.nan), labels=np.zeros((8, 4), dtype=np.int64))
        model = mlp._init_from_dims([4, 8, 4, 4], 1, 1.0)
        with pytest.raises(FloatingPointError, match="non-finite training loss at step 0"):
            mlp.train(model, ds, mlp.TrainConfig(batch_size=4))


def test_calibrate_threshold_reads_the_pool_at_its_own_scale():
    """Two models that compute the same function of reads get the same threshold."""
    params = ChannelParams(n=4, sigma=30.0, p_f=0.1)
    base = mlp.init_model(16, 3, normalizer=1.0 / 1000.0)
    # Halving the normalizer and doubling the first layer scales by powers of two only.
    twin = mlp.MlpModel(dims=base.dims, weights=[2.0 * base.weights[0], *base.weights[1:]],
                        biases=base.biases, normalizer=1.0 / 2000.0)
    reads = np.random.default_rng(0).uniform(50.0, 1100.0, (4, 4))
    assert np.array_equal(mlp.hard_decide(base, reads), mlp.hard_decide(twin, reads))
    got = [mlp.calibrate_threshold(model, params, None, 30, seed=4) for model in (base, twin)]
    assert got[0].r_th_spi == got[1].r_th_spi
    assert np.array_equal(got[0].distances, got[1].distances)


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        model = mlp.init_model(16, 9, normalizer=1e-3)
        path = tmp_path / "det.mlp"
        mlp.save(model, path)
        loaded = mlp.load(path)
        assert loaded.dims == model.dims
        assert loaded.normalizer == model.normalizer
        rng = np.random.default_rng(1)
        probe = rng.normal(0, 1, (8, 16))
        assert np.array_equal(mlp.forward(model, probe), mlp.forward(loaded, probe))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.mlp"
        path.write_bytes(b"NOTAMODEL")
        with pytest.raises(ValueError):
            mlp.load(path)

    def test_length_must_match_dims(self, tmp_path):
        path = tmp_path / "det.mlp"
        mlp.save(mlp.init_model(4, 2), path)
        data = path.read_bytes()
        truncated = [data[:-1], data[:-8], data[:-200], data[: len(mlp.MAGIC) + 2]]
        padded = [data + bytes(1), data + bytes(8)]
        for damaged in truncated + padded:
            path.write_bytes(damaged)
            with pytest.raises(mlp.ModelFileError, match="det.mlp"):
                mlp.load(path)


def _structured_model_bytes(draw_dims, normalizer, slack):
    """A header for ``draw_dims`` with zero parameters; ``slack`` bytes off the exact length."""
    params = sum((d_in + 1) * d_out for d_in, d_out in zip(draw_dims, draw_dims[1:]))
    body = bytes(max(0, 8 * params + slack))
    return (mlp.MAGIC + struct.pack(f"<I{len(draw_dims)}I", len(draw_dims) - 1, *draw_dims)
            + body + struct.pack("<d", normalizer))


MODEL_BYTES = st.one_of(
    st.binary(max_size=120),
    st.binary(max_size=120).map(lambda b: mlp.MAGIC + b),
    st.builds(_structured_model_bytes, st.lists(st.integers(0, 4), min_size=1, max_size=4),
              st.floats(), st.sampled_from([0, 0, -1, 1, 8])),
)


@settings(max_examples=300, deadline=None)
@given(MODEL_BYTES)
def test_load_rejects_or_returns_a_usable_model(data):
    """Any bytes load as ModelFileError, or as a model with >= 1 layer, no zero dim and a
    finite, positive normalizer."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.mlp"
        path.write_bytes(data)
        try:
            model = mlp.load(path)
        except mlp.ModelFileError:
            return
    assert model.n_layers >= 1 and min(model.dims) >= 1
    assert math.isfinite(model.normalizer) and model.normalizer > 0.0
