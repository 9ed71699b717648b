import copy
import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fofe_wsd import nn


def _net(*matrices):
    """Build params from alternating weight/bias arrays."""
    layers = [(np.asarray(w, float), np.asarray(b, float)) for w, b in matrices]
    return nn.NetworkParams(embedding=np.zeros((0, 0)), layers=layers)


@dataclass
class OracleState:
    rule: str
    learning_rate: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict | None = None
    v: dict | None = None


def _zero_like_params(params):
    return {
        "embedding": np.zeros_like(params.embedding),
        "layers": [(np.zeros_like(w), np.zeros_like(b)) for w, b in params.layers],
    }


def oracle_apply_update(params, grads, state):
    """An independent optimizer step: dict moments and explicit per-tensor pairs."""
    pairs = []
    if grads.embedding is not None:
        if grads.embedding.shape != params.embedding.shape:
            raise ValueError("embedding gradient shape mismatch")
        pairs.append((params.embedding, grads.embedding))
    for (w, b), (gw, gb) in zip(params.layers, grads.layers):
        if gw.shape != w.shape or gb.shape != b.shape:
            raise ValueError("layer gradient shape mismatch")
        pairs.append((w, gw))
        pairs.append((b, gb))

    if state.rule == "sgd":
        state.step += 1
        for p, g in pairs:
            p -= state.learning_rate * g
        return

    if state.m is None:
        state.m = _zero_like_params(params)
        state.v = _zero_like_params(params)
    moments = []
    if grads.embedding is not None:
        moments.append((state.m["embedding"], state.v["embedding"]))
    for (mw, mb), (vw, vb) in zip(state.m["layers"], state.v["layers"]):
        moments.append((mw, vw))
        moments.append((mb, vb))

    state.step += 1
    c1 = 1.0 - state.beta1**state.step
    c2 = 1.0 - state.beta2**state.step
    for (p, g), (m, v) in zip(pairs, moments):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.eps)


def _flat(embedding, layers):
    """The embedding, then each layer's weight and bias, listed here without ``tensors()``."""
    return [embedding] + [t for layer in layers for t in layer]


class TestInit:
    def test_same_seed_is_bit_identical(self):
        a = nn.init_network([4, 3, 2], 7, embed_shape=(5, 3))
        b = nn.init_network([4, 3, 2], 7, embed_shape=(5, 3))
        assert_array_equal(a.embedding, b.embedding)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert_array_equal(wa, wb)
            assert_array_equal(ba, bb)

    def test_fan_bound(self):
        params = nn.init_network([4, 3], 0)
        bound = math.sqrt(6.0 / 7.0)
        assert bound == pytest.approx(0.9258, abs=1e-4)
        w, b = params.layers[0]
        assert np.all(np.abs(w) <= bound)
        assert_array_equal(b, np.zeros(3))

    def test_embedding_bound(self):
        params = nn.init_network([2, 2], 0, embed_shape=(50, 4))
        assert np.all(np.abs(params.embedding) <= 0.05)

    def test_needs_two_dims(self):
        with pytest.raises(ValueError, match="input and output"):
            nn.init_network([4], 0)

    def test_layer_dims_property(self):
        assert nn.init_network([4, 3, 2], 0).layer_dims == [4, 3, 2]


class TestForward:
    def test_zero_params_zero_logits(self):
        params = _net(([[0.0, 0.0]] * 3, [0.0, 0.0]))
        trace = nn.forward(params, np.array([1.0, -2.0, 3.0]))
        assert_array_equal(trace.logits, [0.0, 0.0])

    def test_single_layer_is_affine_only(self):
        params = _net((np.eye(2), [0.0, 0.0]))
        trace = nn.forward(params, np.array([1.0, -2.0]))
        assert_array_equal(trace.logits, [1.0, -2.0])  # no rectifier on the output

    def test_hidden_layer_rectifies(self):
        params = _net((np.eye(2), [0.0, 0.0]), (np.eye(2), [0.0, 0.0]))
        trace = nn.forward(params, np.array([1.0, -2.0]))
        assert_array_equal(trace.activations[1], [1.0, 0.0])
        assert_array_equal(trace.logits, [1.0, 0.0])

    def test_trace_shape_contract(self):
        params = nn.init_network([3, 5, 4, 2], 1)
        trace = nn.forward(params, np.zeros(3))
        assert len(trace.activations) == len(params.layers) + 1
        assert len(trace.preacts) == len(params.layers)
        assert trace.held_out is trace.activations[-2]

    def test_dimension_mismatch(self):
        params = nn.init_network([3, 2], 1)
        with pytest.raises(ValueError, match="dimension"):
            nn.forward(params, np.zeros(4))

    def test_deterministic(self):
        params = nn.init_network([3, 4, 2], 5)
        x = np.random.default_rng(0).normal(size=3)
        assert_array_equal(nn.forward(params, x).logits, nn.forward(params, x).logits)


class TestHeldOut:
    def test_equals_forward_held_out(self):
        rng = np.random.default_rng(8)
        for dims in ([3, 2], [3, 5, 2], [6, 4, 5, 7]):
            params = nn.init_network(dims, 2)
            for x in (rng.normal(size=dims[0]), rng.normal(size=(4, dims[0]))):
                assert np.array_equal(nn.held_out(params, x), nn.forward(params, x).held_out)

    def test_keeps_the_rectifier(self):
        params = _net((np.eye(2), [0.0, 0.0]), (np.eye(2), [0.0, 0.0]))
        assert_array_equal(nn.held_out(params, np.array([1.0, -2.0])), [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            nn.held_out(nn.init_network([3, 4, 2], 1), np.zeros(4))


class TestSoftmaxLoss:
    def test_uniform_logits(self):
        assert nn.loss_softmax_xent(np.zeros(4), 2) == pytest.approx(math.log(4.0), abs=1e-12)

    def test_no_overflow(self):
        assert nn.loss_softmax_xent(np.array([1000.0, 0.0]), 0) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form(self):
        assert nn.loss_softmax_xent(np.array([1.0, 2.0]), 0) == pytest.approx(
            math.log(1.0 + math.e), abs=1e-12
        )

    def test_target_out_of_range(self):
        with pytest.raises(ValueError, match="target"):
            nn.loss_softmax_xent(np.zeros(3), 3)

    def test_batch_mean(self):
        logits = np.array([[1.0, 2.0], [0.0, 0.0]])
        expected = (math.log(1.0 + math.e) + math.log(2.0)) / 2.0
        assert nn.loss_softmax_xent(logits, np.array([0, 1])) == pytest.approx(expected, abs=1e-12)

    def test_softmax_sums_to_one_and_shift_invariant(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            logits = rng.normal(scale=10.0, size=rng.integers(1, 12))
            p = nn.softmax(logits)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert_allclose(p, nn.softmax(logits + 13.7), atol=1e-12)


class TestBackward:
    def test_logit_gradient_is_softmax_minus_one_hot(self):
        params = _net((np.eye(3), [0.0, 0.0, 0.0]))
        x = np.array([0.3, -0.2, 0.9])
        trace = nn.forward(params, x)
        grads = nn.backward(params, trace, 1)
        expected = nn.softmax(trace.logits).copy()
        expected[1] -= 1.0
        # the last layer's bias gradient equals the logit gradient
        assert_allclose(grads.layers[-1][1], expected, atol=1e-15)

    def test_zero_input_zeroes_first_weight_grad(self):
        # dW = x (outer) delta, so x = 0 kills the weight grad but not the bias
        # grad; positive first-layer biases keep the rectifier mask open.
        params = nn.init_network([3, 4, 2], 2)
        params.layers[0][1][:] = 1.0
        trace = nn.forward(params, np.zeros(3))
        grads = nn.backward(params, trace, 0)
        assert_array_equal(grads.layers[0][0], np.zeros((3, 4)))
        assert np.any(grads.layers[0][1] != 0.0)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            params = nn.init_network([3, 4, 2], seed)
            x = rng.normal(size=3)
            target = int(rng.integers(0, 2))
            assert nn.gradient_check(params, x, target, epsilon=1e-5) < 1e-6

    def test_batch_gradient_is_mean_of_singles(self):
        params = nn.init_network([3, 4, 2], 4)
        rng = np.random.default_rng(5)
        xs = rng.normal(size=(6, 3))
        targets = rng.integers(0, 2, size=6)
        batch = nn.backward(params, nn.forward(params, xs), targets)
        singles = [nn.backward(params, nn.forward(params, x), int(t)) for x, t in zip(xs, targets)]
        for li in range(len(params.layers)):
            mean_w = np.mean([g.layers[li][0] for g in singles], axis=0)
            mean_b = np.mean([g.layers[li][1] for g in singles], axis=0)
            assert_allclose(batch.layers[li][0], mean_w, atol=1e-12)
            assert_allclose(batch.layers[li][1], mean_b, atol=1e-12)
        # batch input grads differentiate the *mean* loss, so each row is the
        # single-example gradient divided by the batch size
        assert_allclose(batch.input, np.stack([g.input for g in singles]) / len(xs), atol=1e-12)

    @pytest.mark.parametrize("target", [-1, 2, [0, -1], [2, 1]])
    def test_target_out_of_range(self, target):
        params = nn.init_network([3, 4, 2], 2)
        x = np.zeros(3) if np.ndim(target) == 0 else np.zeros((2, 3))
        with pytest.raises(ValueError, match="target"):
            nn.backward(params, nn.forward(params, x), target)

    def test_stale_trace_rejected(self):
        params = nn.init_network([3, 4, 2], 0)
        other = nn.init_network([5, 4, 2], 0)
        trace = nn.forward(other, np.zeros(5))
        with pytest.raises(ValueError, match="mismatch"):
            nn.backward(params, trace, 0)


class TestApplyUpdate:
    def test_zero_learning_rate_is_identity(self):
        params = nn.init_network([2, 2], 0)
        before = [arr.copy() for arr, _ in params.layers]
        grads = nn.backward(params, nn.forward(params, np.ones(2)), 0)
        nn.apply_update(params, grads, nn.OptimizerState(rule="sgd", learning_rate=0.0))
        assert_array_equal(params.layers[0][0], before[0])

    def test_plain_rule_arithmetic(self):
        params = _net((np.array([[1.0]]), [0.0]))
        grads = nn.Gradients(
            embedding=np.zeros((0, 0)), layers=[(np.array([[0.5]]), np.array([0.0]))], input=np.zeros(1)
        )
        nn.apply_update(params, grads, nn.OptimizerState(rule="sgd", learning_rate=0.1))
        assert params.layers[0][0][0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_adaptive_rule_first_step(self):
        params = _net((np.array([[1.0]]), [0.0]))
        grads = nn.Gradients(
            embedding=np.zeros((0, 0)), layers=[(np.array([[0.5]]), np.array([0.0]))], input=np.zeros(1)
        )
        state = nn.OptimizerState(rule="adam", learning_rate=0.001)
        nn.apply_update(params, grads, state)
        # bias-corrected moments at step 1: m=0.5, v=0.25 -> step = lr * 0.5/(0.5+eps)
        expected = 1.0 - 0.001 * 0.5 / (0.5 + 1e-8)
        assert params.layers[0][0][0, 0] == pytest.approx(expected, abs=1e-12)
        assert state.step == 1

    def test_shape_mismatch(self):
        params = _net((np.ones((2, 2)), [0.0, 0.0]))
        grads = nn.Gradients(
            embedding=np.zeros((0, 0)), layers=[(np.ones((3, 2)), np.zeros(2))], input=np.zeros(2)
        )
        with pytest.raises(ValueError, match="shape"):
            nn.apply_update(params, grads, nn.OptimizerState(rule="sgd"))

    @pytest.mark.parametrize("rule", ["adam", "sgd"])
    def test_missing_layer_gradients_rejected(self, rule):
        params = nn.init_network([3, 4, 2], 1, embed_shape=(5, 2))
        grads = nn.backward(params, nn.forward(params, np.ones(3)), 1)
        grads.embedding[...] = 1.0
        short = nn.Gradients(embedding=grads.embedding, layers=grads.layers[:1], input=grads.input)
        before = copy.deepcopy(params)
        state = nn.OptimizerState(rule=rule, learning_rate=0.1)
        with pytest.raises(ValueError, match="shape"):
            nn.apply_update(params, short, state)
        got = _flat(params.embedding, params.layers)
        for ours, theirs in zip(got, _flat(before.embedding, before.layers)):
            assert_array_equal(ours, theirs)
        assert state.step == 0

    def test_loss_decreases_overfitting_one_example(self):
        params = nn.init_network([3, 8, 4], 9)
        x = np.array([0.5, -1.0, 2.0])
        target = 2
        state = nn.OptimizerState(rule="sgd", learning_rate=0.05)
        losses = []
        for _ in range(50):
            trace = nn.forward(params, x)
            losses.append(nn.loss_softmax_xent(trace.logits, target))
            nn.apply_update(params, nn.backward(params, trace, target), state)
        diffs = np.diff(losses)
        assert np.all(diffs < 0.0)


class TestApplyUpdateEqualsOracle:
    @pytest.mark.parametrize("rule", ["adam", "sgd"])
    @pytest.mark.parametrize("embed_shape", [(6, 3), None], ids=["embedding", "no-embedding"])
    def test_five_steps_bit_equal(self, rule, embed_shape):
        params = nn.init_network([4, 5, 3], 3, embed_shape=embed_shape)
        expected = copy.deepcopy(params)
        state = nn.OptimizerState(rule=rule, learning_rate=0.01)
        oracle = OracleState(rule=rule, learning_rate=0.01)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x, targets = rng.normal(size=(2, 4)), rng.integers(0, 3, size=2)
            grads = nn.backward(params, nn.forward(params, x), targets)
            grads.embedding[...] = rng.normal(size=grads.embedding.shape)
            nn.apply_update(params, grads, state)
            oracle_apply_update(expected, grads, oracle)
        assert state.step == oracle.step == 5
        got = _flat(params.embedding, params.layers)
        for ours, theirs in zip(got, _flat(expected.embedding, expected.layers)):
            assert np.array_equal(ours, theirs)
        if rule == "adam":
            for moments, oracle_moments in ((state.m, oracle.m), (state.v, oracle.v)):
                want = _flat(oracle_moments["embedding"], oracle_moments["layers"])
                assert len(moments) == len(want)
                for ours, theirs in zip(moments, want):
                    assert np.array_equal(ours, theirs)
        else:
            assert state.m is None and state.v is None


class TestGradientCheck:
    def test_correct_implementation_passes(self):
        rng = np.random.default_rng(10)
        params = nn.init_network([4, 6, 3], 10)
        x = rng.normal(size=4)
        assert nn.gradient_check(params, x, 1, epsilon=1e-5) < 1e-6

    def test_detects_scaled_gradient(self, monkeypatch):
        params = nn.init_network([4, 6, 3], 11)
        x = np.random.default_rng(11).normal(size=4)
        true_backward = nn.backward

        def scaled_backward(p, trace, target):
            grads = true_backward(p, trace, target)
            scaled = [(w * 1.01, b * 1.01) for w, b in grads.layers]
            return nn.Gradients(embedding=grads.embedding, layers=scaled, input=grads.input)

        monkeypatch.setattr(nn, "backward", scaled_backward)
        assert nn.gradient_check(params, x, 1, epsilon=1e-5) >= 1e-3

    def test_degenerate_empty_net(self):
        params = nn.NetworkParams(embedding=np.zeros((0, 0)), layers=[])
        assert nn.gradient_check(params, np.array([0.1, 0.2]), 0) == 0.0

    def test_epsilon_must_be_positive(self):
        params = nn.init_network([2, 2], 0)
        with pytest.raises(ValueError, match="epsilon"):
            nn.gradient_check(params, np.zeros(2), 0, epsilon=0.0)
