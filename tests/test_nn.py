import copy
import math
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fofe_wsd import nn
from fofe_wsd.lm import LmConfig, load_checkpoint, save_checkpoint, train_lm


def softmax(logits):
    """Max-shifted softmax along the last axis: the reference for the output delta."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _built(cls, layers, embedding=np.zeros((0, 0)), **attributes):
    """``cls.zeros`` of the shapes of ``embedding`` and the (weight, bias) ``layers``, filled with them."""
    layers = [(np.asarray(w, float), np.asarray(b, float)) for w, b in layers]
    dims = [layers[0][0].shape[0], *(w.shape[1] for w, _ in layers)] if layers else []
    built = cls.zeros(dims, np.shape(embedding))
    for ours, given in zip(built.tensors(), _flat(embedding, layers), strict=True):
        ours[...] = given
    for name, value in attributes.items():
        setattr(built, name, value)
    return built


def _net(*matrices):
    """Build params from alternating weight/bias arrays."""
    return _built(nn.NetworkParams, matrices)


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

    # The compact step of Kingma & Ba (2015), Section 2. Every scalar is a
    # Python float, so float32 tensors are updated in float32 arithmetic.
    state.step += 1
    root_c2 = math.sqrt(1.0 - state.beta2**state.step)
    a_t = state.learning_rate * root_c2 / (1.0 - state.beta1**state.step)
    eps_hat = state.eps * root_c2
    for (p, g), (m, v) in zip(pairs, moments):
        m *= state.beta1
        m += (1.0 - state.beta1) * g
        v *= state.beta2
        v += (1.0 - state.beta2) * np.square(g)
        p -= a_t * m / (np.sqrt(v) + eps_hat)


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

    def test_float32_draws_round_as_astype(self):
        wide = nn.init_network([40, 30, 20], 7, embed_shape=(50, 8))
        narrow = nn.init_network([40, 30, 20], 7, embed_shape=(50, 8), dtype=np.float32)
        assert narrow.flat.dtype == np.float32 and narrow.layout == wide.layout
        assert narrow.flat.tobytes() == wide.astype(np.float32).flat.tobytes()

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
        assert [a.shape for a in trace.activations] == [(3,), (5,), (4,), (2,)]  # held out: (4,)

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
                assert np.array_equal(nn.held_out(params, x), nn.forward(params, x).activations[-2])

    def test_keeps_the_rectifier(self):
        params = _net((np.eye(2), [0.0, 0.0]), (np.eye(2), [0.0, 0.0]))
        assert_array_equal(nn.held_out(params, np.array([1.0, -2.0])), [1.0, 0.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            nn.held_out(nn.init_network([3, 4, 2], 1), np.zeros(4))

    def test_holds_one_chunk_sized_array_per_layer(self):
        # one 256-context chunk at a 768-wide input and hidden 512,512, in float32 as build embeds it
        params = nn.init_network([768, 512, 512, 8], 3, dtype=np.float32)
        x = np.random.default_rng(9).normal(size=(256, 768)).astype(np.float32)
        tracemalloc.start()
        try:
            rows = nn.held_out(params, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(rows, nn.forward(params, x).activations[-2])
        # the layer's input and its result; ``np.maximum(a @ w + b, 0.0)`` also held ``a @ w + b``
        assert peak < 2.5 * rows.nbytes, peak / rows.nbytes


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
            p = softmax(logits)
            assert abs(p.sum() - 1.0) <= 1e-12
            assert_allclose(p, softmax(logits + 13.7), atol=1e-12)


class TestStepLoss:
    """``backward`` takes the loss and the output delta from one exponentiation of the logits."""

    @staticmethod
    def step(logits, target):
        """The logits through one identity layer, then ``backward``: its input gradient is the output delta."""
        logits = np.asarray(logits)
        params = nn.NetworkParams.zeros([logits.shape[-1]] * 2, dtype=logits.dtype)
        params.layers[0][0][...] = np.eye(logits.shape[-1])
        trace = nn.forward(params, logits)
        assert np.array_equal(trace.logits, logits)
        return trace.logits, nn.backward(params, trace, target)

    @staticmethod
    def softmax_minus_onehot(logits, targets):
        delta = np.atleast_2d(softmax(logits))
        delta[np.arange(len(delta)), np.atleast_1d(targets)] -= 1.0
        delta /= len(delta)
        return delta.reshape(np.shape(logits))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_batch(self, dtype):
        rng = np.random.default_rng(12)
        targets = rng.integers(0, 40, 32)
        logits, grads = self.step(rng.normal(scale=6.0, size=(32, 40)).astype(dtype), targets)
        assert grads.loss == nn.loss_softmax_xent(logits, targets)
        assert grads.input.dtype == dtype
        assert np.array_equal(grads.input, self.softmax_minus_onehot(logits, targets))

    @pytest.mark.parametrize(
        "logits, target", [([0.3, -1.2, 2.0, 0.0], 2), ([1000.0, 0.0], 0), ([1000.0, 0.0], 1)]
    )
    def test_single_vector(self, logits, target):
        logits, grads = self.step(np.array(logits), target)
        assert grads.loss == nn.loss_softmax_xent(logits, target)
        assert grads.input.shape == logits.shape
        assert np.array_equal(grads.input, self.softmax_minus_onehot(logits, target))

    def test_large_logit_gap(self):
        _, grads = self.step(np.array([1000.0, 0.0]), 0)
        assert grads.loss == 0.0
        assert_array_equal(grads.input, [0.0, 0.0])


def reference_backward(params, trace, target):
    """Loss, layer gradients and input gradient by the formulas ``backward`` started from, written out here.

    ``np.max``, ``np.take_along_axis``, ``np.mean`` and ``np.sum(axis=0)``, each on its own
    array, with none of the kernel's helpers.
    """
    single = trace.logits.ndim == 1
    activations = [np.atleast_2d(a) for a in trace.activations]
    preacts = [np.atleast_2d(h) for h in trace.preacts]
    logits = activations[-1]
    targets = np.atleast_1d(np.asarray(target, dtype=np.intp))
    n = len(targets)
    shift = np.max(logits, axis=-1, keepdims=True)
    e = np.exp(logits - shift)
    total = np.sum(e, axis=-1, keepdims=True)
    picked = np.take_along_axis(logits, targets[:, None], axis=-1)[:, 0]
    loss = float(np.mean(shift[:, 0] + np.log(total[:, 0]) - picked))
    delta = e / total
    delta[np.arange(n), targets] -= 1.0
    delta /= n
    layers = []
    for li in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[li]
        layers.append((activations[li].T @ delta, np.sum(delta, axis=0)))
        delta = delta @ w.T
        if li > 0:
            delta = delta * (preacts[li - 1] > 0.0)
    return loss, layers[::-1], delta[0] if single else delta


class TestBackwardEqualsReference:
    """The loss and every gradient of ``backward`` equal ``reference_backward`` bit for bit."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 7, 32, None], ids=["1", "7", "32", "vector"])
    def test_bit_equal(self, dtype, batch):
        rng = np.random.default_rng(21 if batch is None else batch)
        params = nn.init_network([12, 16, 9, 40], 6).astype(dtype)
        params.flat[...] *= 3.0  # logits spread over several units
        shape = (12,) if batch is None else (batch, 12)
        x = rng.normal(size=shape).astype(dtype)
        target = int(rng.integers(0, 40)) if batch is None else rng.integers(0, 40, batch)
        trace = nn.forward(params, x)
        assert any(np.any(h <= 0.0) for h in trace.preacts[:-1])  # the rectifier masks some units
        grads = nn.backward(params, trace, target)
        loss, layers, input_grad = reference_backward(params, trace, target)
        assert grads.loss == loss
        assert len(grads.layers) == len(layers)
        for (grad_w, grad_b), (want_w, want_b) in zip(grads.layers, layers, strict=True):
            assert grad_w.dtype == grad_b.dtype == dtype
            assert np.array_equal(grad_w, want_w)
            assert np.array_equal(grad_b, want_b)
        assert grads.input.shape == x.shape
        assert np.array_equal(grads.input, input_grad)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_loss_of_a_large_batch(self, dtype):
        """The mean over many rows, where a float32 sum has rounded many times."""
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=8.0, size=(1000, 50)).astype(dtype)
        targets = rng.integers(0, 50, 1000)
        shift = np.max(logits, axis=-1, keepdims=True)
        total = np.sum(np.exp(logits - shift), axis=-1, keepdims=True)
        picked = np.take_along_axis(logits, targets[:, None], axis=-1)[:, 0]
        assert nn.loss_softmax_xent(logits, targets) == float(
            np.mean(shift[:, 0] + np.log(total[:, 0]) - picked)
        )


class TestSingleInput:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vector_is_a_batch_of_one(self, dtype):
        """A ``(d,)`` trace and the ``(1, d)`` trace of the same row give bit-equal gradients."""
        rng = np.random.default_rng(13)
        params = nn.init_network([6, 8, 5, 4], 2).astype(dtype)
        batch = nn.forward(params, rng.normal(size=(1, 6)).astype(dtype))
        vector = nn.ForwardTrace([a[0] for a in batch.activations], [h[0] for h in batch.preacts])
        from_batch = nn.backward(params, batch, [3])
        from_vector = nn.backward(params, vector, 3)
        assert from_batch.input.shape == (1, 6)
        assert from_vector.input.shape == (6,)
        assert np.array_equal(from_batch.input[0], from_vector.input)
        assert from_batch.loss == from_vector.loss
        assert np.array_equal(from_batch.flat, from_vector.flat)

    @pytest.mark.parametrize(
        "target", [-1, 4, [-1], [4]], ids=["negative", "too-large", "negative-row", "too-large-row"]
    )
    def test_target_outside_the_classes(self, target):
        params = nn.init_network([6, 4], 2)
        x = np.zeros(6) if np.ndim(target) == 0 else np.zeros((1, 6))
        with pytest.raises(ValueError, match=r"^target out of range$"):
            nn.backward(params, nn.forward(params, x), target)
        with pytest.raises(ValueError, match=r"^target out of range$"):
            nn.loss_softmax_xent(np.zeros(x.shape[:-1] + (4,)), target)

    def test_targets_not_one_per_row(self):
        params = nn.init_network([6, 4], 2)
        with pytest.raises(ValueError, match=r"^targets shape \(3,\) does not match logits \(2, 4\)$"):
            nn.backward(params, nn.forward(params, np.zeros((2, 6))), [0, 1, 2])
        with pytest.raises(ValueError, match=r"^targets shape \(2,\) does not match logits \(1, 4\)$"):
            nn.backward(params, nn.forward(params, np.zeros(6)), [0, 1])


class TestBackward:
    def test_logit_gradient_is_softmax_minus_one_hot(self):
        params = _net((np.eye(3), [0.0, 0.0, 0.0]))
        x = np.array([0.3, -0.2, 0.9])
        trace = nn.forward(params, x)
        grads = nn.backward(params, trace, 1)
        expected = softmax(trace.logits).copy()
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
        grads = _built(nn.Gradients, [(np.array([[0.5]]), np.array([0.0]))], input=np.zeros(1))
        nn.apply_update(params, grads, nn.OptimizerState(rule="sgd", learning_rate=0.1))
        assert params.layers[0][0][0, 0] == pytest.approx(0.95, abs=1e-15)

    def test_adaptive_rule_first_step(self):
        params = _net((np.array([[1.0]]), [0.0]))
        grads = _built(nn.Gradients, [(np.array([[0.5]]), np.array([0.0]))], input=np.zeros(1))
        state = nn.OptimizerState(rule="adam", learning_rate=0.001)
        nn.apply_update(params, grads, state)
        # bias-corrected moments at step 1: m=0.5, v=0.25 -> step = lr * 0.5/(0.5+eps)
        expected = 1.0 - 0.001 * 0.5 / (0.5 + 1e-8)
        assert params.layers[0][0][0, 0] == pytest.approx(expected, abs=1e-12)
        assert state.step == 1

    def test_shape_mismatch(self):
        params = _net((np.ones((2, 2)), [0.0, 0.0]))
        grads = _built(nn.Gradients, [(np.ones((3, 2)), np.zeros(2))], input=np.zeros(2))
        with pytest.raises(ValueError, match="shape"):
            nn.apply_update(params, grads, nn.OptimizerState(rule="sgd"))

    @pytest.mark.parametrize("rule", ["adam", "sgd"])
    def test_missing_layer_gradients_rejected(self, rule):
        params = nn.init_network([3, 4, 2], 1, embed_shape=(5, 2))
        grads = nn.backward(params, nn.forward(params, np.ones(3)), 1)
        grads.embedding[...] = 1.0
        short = _built(nn.Gradients, grads.layers[:1], grads.embedding, input=grads.input)
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
    @pytest.mark.parametrize(
        "rule, embed_shape, dims, order, dtype",
        [
            pytest.param("adam", (6, 3), [4, 5, 3], "C", np.float64, id="embedding-adam"),
            pytest.param("sgd", (6, 3), [4, 5, 3], "C", np.float64, id="embedding-sgd"),
            pytest.param("adam", None, [4, 5, 3], "C", np.float64, id="no-embedding-adam"),
            pytest.param("sgd", None, [4, 5, 3], "C", np.float64, id="no-embedding-sgd"),
            # The flat buffer (235,003 float64 elements) takes 7.2 Adam
            # slices of 256 KiB (32,768 float64 elements), with slice edges
            # inside the embedding and both weights. The Fortran ids also
            # check that a Fortran-ordered copy cannot replace a tensor.
            pytest.param("adam", (3000, 25), [4, 20000, 3], "C", np.float64, id="several-slices-adam"),
            pytest.param(
                "adam", (3000, 25), [4, 20000, 3], "F", np.float64, id="several-slices-fortran-adam"
            ),
            pytest.param("adam", (6, 3), [4, 5, 3], "C", np.float32, id="embedding-adam-f32"),
            pytest.param("sgd", (6, 3), [4, 5, 3], "C", np.float32, id="embedding-sgd-f32"),
            # The same slice count at 65,536 float32 elements a slice.
            pytest.param("adam", (6000, 25), [4, 40000, 3], "C", np.float32, id="several-slices-adam-f32"),
            pytest.param(
                "adam", (6000, 25), [4, 40000, 3], "F", np.float32, id="several-slices-fortran-adam-f32"
            ),
        ],
    )
    def test_five_steps_bit_equal(self, rule, embed_shape, dims, order, dtype):
        params = nn.init_network(dims, 3, embed_shape=embed_shape).astype(dtype)
        if order == "F":
            w, b = params.layers[0]
            with pytest.raises(TypeError):
                params.layers[0] = (np.asarray(w, order="F"), b)
            assert params.layers[0][0].flags.c_contiguous
        expected = copy.deepcopy(params)
        state = nn.OptimizerState(rule=rule, learning_rate=0.01)
        oracle = OracleState(rule=rule, learning_rate=0.01)
        rng = np.random.default_rng(8)
        for _ in range(5):
            x, targets = rng.normal(size=(2, 4)).astype(dtype), rng.integers(0, 3, size=2)
            grads = nn.backward(params, nn.forward(params, x), targets)
            grads.embedding[...] = rng.normal(size=grads.embedding.shape)
            nn.apply_update(params, grads, state)
            oracle_apply_update(expected, grads, oracle)
        assert state.step == oracle.step == 5
        got = _flat(params.embedding, params.layers)
        for ours, theirs in zip(got, _flat(expected.embedding, expected.layers)):
            assert ours.dtype == theirs.dtype == dtype
            assert np.array_equal(ours, theirs)
        if rule == "adam":
            for moments, oracle_moments in ((state.m, oracle.m), (state.v, oracle.v)):
                want = _flat(oracle_moments["embedding"], oracle_moments["layers"])
                assert moments.dtype == dtype
                assert np.array_equal(moments, np.concatenate([t.ravel() for t in want]))
        else:
            assert state.m is None and state.v is None


class TestSubnormalMoments:
    def test_half_the_gradient_zero_for_1500_steps(self):
        """A first moment whose gradient stays zero decays to 0, not into the float32 subnormals.

        Without the flush it decays by 0.9 a step below the smallest normal float
        (after about 800 steps here) and sticks at the smallest subnormal, where every
        later step computes on it slowly; the oracle shows that happening. The flush
        leaves it subnormal for fewer than 16 steps in a row, and every other float
        equals the oracle's.
        """
        params = nn.init_network([16, 32, 8], 4, embed_shape=(10, 4)).astype(np.float32)
        expected = copy.deepcopy(params)
        state = nn.OptimizerState(rule="adam", learning_rate=1e-3)
        oracle = OracleState(rule="adam", learning_rate=1e-3)
        grads = nn.Gradients(np.zeros_like(params.flat), params.layout)
        zero = np.arange(params.flat.size) % 2 == 0
        tiny = np.finfo(np.float32).tiny
        rng = np.random.default_rng(30)
        subnormal_for = np.zeros(params.flat.size, int)  # consecutive steps each moment was subnormal
        for step in range(1500):
            grads.flat[...] = rng.normal(size=params.flat.size)
            if step:
                grads.flat[zero] = 0.0
            nn.apply_update(params, grads, state)
            oracle_apply_update(expected, grads, oracle)
            subnormal = (state.m != 0.0) & (np.abs(state.m) < tiny)
            subnormal_for = np.where(subnormal, subnormal_for + 1, 0)
            assert subnormal_for.max() < 16
        oracle_m = np.concatenate([t.ravel() for t in _flat(oracle.m["embedding"], oracle.m["layers"])])
        oracle_v = np.concatenate([t.ravel() for t in _flat(oracle.v["embedding"], oracle.v["layers"])])
        assert np.all((oracle_m[zero] != 0.0) & (np.abs(oracle_m[zero]) < tiny))
        assert not np.any((state.m != 0.0) & (np.abs(state.m) < tiny))
        assert np.all(state.m[zero] == 0.0)
        assert np.array_equal(state.m[~zero], oracle_m[~zero])
        assert np.array_equal(state.v, oracle_v)
        want = _flat(expected.embedding, expected.layers)
        assert np.array_equal(params.flat, np.concatenate([t.ravel() for t in want]))


def _trained_model():
    config = LmConfig(embed_dim=3, hidden_dims=(5,), batch_size=4, epochs=1, seed=2)
    return train_lm(["the cat sat", "a dog sat on the mat", "the dog ran"], config)


def _checkpointed(tmp_path):
    save_checkpoint(_trained_model(), tmp_path / "model.fofe")
    return load_checkpoint(tmp_path / "model.fofe").params


LAYOUT_SOURCES = {
    "zeros": lambda tmp_path: nn.NetworkParams.zeros([4, 5, 3], (6, 2)),
    "init_network": lambda tmp_path: nn.init_network([4, 5, 3], 1, embed_shape=(6, 2)),
    "astype": lambda tmp_path: nn.init_network([4, 5, 3], 1, embed_shape=(6, 2)).astype(np.float32),
    "load_checkpoint": _checkpointed,
    "deepcopy": lambda tmp_path: copy.deepcopy(nn.init_network([4, 5, 3], 1, embed_shape=(6, 2))),
    "train_lm": lambda tmp_path: _trained_model().params,
}


@pytest.mark.parametrize("source", LAYOUT_SOURCES)
class TestLayout:
    """Every tensor is a view of one flat buffer, however the parameters were made."""

    def test_tensors_are_views_of_flat_in_order(self, source, tmp_path):
        params = LAYOUT_SOURCES[source](tmp_path)
        flat = params.flat
        assert flat.ndim == 1 and flat.flags.c_contiguous
        offset = 0
        for tensor, shape in zip(params.tensors(), params.layout, strict=True):
            assert tensor.shape == shape and tensor.dtype == flat.dtype
            assert tensor.flags.c_contiguous
            assert tensor.base is flat
            start = tensor.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
            assert start == offset * flat.itemsize
            offset += tensor.size
        assert offset == flat.size

    def test_update_of_a_deep_copy_leaves_the_original(self, source, tmp_path):
        params = LAYOUT_SOURCES[source](tmp_path)
        before = params.flat.copy()
        clone = copy.deepcopy(params)
        grads = nn.Gradients(np.ones_like(clone.flat), clone.layout)
        nn.apply_update(clone, grads, nn.OptimizerState(rule="sgd", learning_rate=0.5))
        assert np.array_equal(params.flat, before)
        # the copy's tensors are views of its own buffer, so they moved with it
        for ours, theirs in zip(clone.tensors(), params.tensors(), strict=True):
            assert np.array_equal(ours, theirs - 0.5)

    def test_layers_cannot_be_replaced(self, source, tmp_path):
        params = LAYOUT_SOURCES[source](tmp_path)
        with pytest.raises(TypeError):
            params.layers[0] = params.layers[0]


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
            return _built(nn.Gradients, scaled, grads.embedding, input=grads.input)

        monkeypatch.setattr(nn, "backward", scaled_backward)
        assert nn.gradient_check(params, x, 1, epsilon=1e-5) >= 1e-3

    def test_degenerate_empty_net(self):
        params = _built(nn.NetworkParams, [])
        assert nn.gradient_check(params, np.array([0.1, 0.2]), 0) == 0.0

    def test_epsilon_must_be_positive(self):
        params = nn.init_network([2, 2], 0)
        with pytest.raises(ValueError, match="epsilon"):
            nn.gradient_check(params, np.zeros(2), 0, epsilon=0.0)
