import math
import tracemalloc
from typing import Sequence

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fofe_wsd import fofe, lm, nn
from fofe_wsd.corpus import build_vocabulary, tokenize_line
from fofe_wsd.fofe import (
    FofeConfig,
    context_code,
    context_ids,
    contexts_backward,
    decode,
    encode_contexts,
    encode_left,
    encode_order,
    encode_right,
)
from fofe_wsd.lm import LmConfig, train_lm

A, B, C = 0, 1, 2


# ---------------------------------------------------------------------------
# Reference oracle: the recursion and its adjoint run token by token, one
# example at a time. The batched encoder and the vocab-space views must give
# the same floats; the batched adjoint adds the same token values, in the
# order ``oracle_batch_backward`` sorts them into.
# ---------------------------------------------------------------------------


def oracle_encode_order(ids, cfg, vocab_size, direction="left"):
    seq = list(ids) if direction == "left" else list(ids)[::-1]
    history = []
    z = np.zeros(vocab_size)
    for i in seq:
        z = cfg.alpha * z
        z[i] += 1.0
        history.append(z)
    slabs = []
    for j in range(cfg.order):
        t = len(seq) - cfg.order + 1 + j
        slabs.append(history[t - 1] if t >= 1 else np.zeros(vocab_size))
    return np.concatenate(slabs)


def oracle_encode_embedded(ids, cfg, direction, embeddings):
    seq = list(ids) if direction == "left" else list(ids)[::-1]
    dim = embeddings.shape[1]
    history = []
    z = np.zeros(dim, embeddings.dtype)
    for i in seq:
        z = cfg.alpha * z + embeddings[i]
        history.append(z)
    slabs = []
    for j in range(cfg.order):
        t = len(seq) - cfg.order + 1 + j
        slabs.append(history[t - 1] if t >= 1 else np.zeros(dim, embeddings.dtype))
    return np.concatenate(slabs)


def oracle_embedded_values(ids, cfg, direction, grad):
    """Each token's adjoint value, run token by token: (distance from the target, id, value)."""
    dim = len(grad) // cfg.order
    seq = list(ids) if direction == "left" else list(ids)[::-1]
    T = len(seq)
    slab_of_t = {T - cfg.order + 1 + j: j for j in range(cfg.order)}
    lam = np.zeros(dim, grad.dtype)
    values = []
    for t in range(T, 0, -1):
        lam = cfg.alpha * lam
        j = slab_of_t.get(t)
        if j is not None:
            lam = lam + grad[j * dim : (j + 1) * dim]
        values.append((T + 1 - t, seq[t - 1], lam))
    return values


def oracle_clip(ids, target_index, cap):
    if cap <= 0:
        return ids, target_index
    lo = max(0, target_index - cap)
    return ids[lo : target_index + cap + 1], target_index - lo


def oracle_context_code(ids, target_index, cfg, embeddings):
    left = oracle_encode_embedded(ids[:target_index], cfg, "left", embeddings)
    right = oracle_encode_embedded(ids[target_index + 1 :], cfg, "right", embeddings)
    return np.concatenate([left, right])


def oracle_batch_backward(batch, cfg, grads, embed_grad):
    """Add the adjoint values of (ids, target index) examples into ``embed_grad``.

    Nearest tokens first; at one distance, example by example, left side
    before right.
    """
    half = grads.shape[1] // 2
    values = []
    for example, ((ids, target_index), grad) in enumerate(zip(batch, grads)):
        sides = [(ids[:target_index], "left", grad[:half]), (ids[target_index + 1 :], "right", grad[half:])]
        for side, (context, direction, slabs) in enumerate(sides):
            for distance, i, value in oracle_embedded_values(context, cfg, direction, slabs):
                values.append((distance, example, side, i, value))
    for *_, i, value in sorted(values, key=lambda v: v[:3]):
        embed_grad[i] += value


def oracle_update(params, grads, moments, step, config):
    """The optimizer step on whole arrays, as its formulas read (``nn.apply_update`` slices large tensors).

    Adam takes the compact form of Kingma & Ba (2015), Section 2. Every
    scalar is a Python float, so float32 tensors get float32 arithmetic.
    """
    lr = config.learning_rate
    if config.optimizer == "sgd":
        for p, g in zip(params.tensors(), grads.tensors()):
            p -= lr * g
        return
    root_c2 = math.sqrt(1.0 - nn.ADAM_BETA2**step)
    a_t, eps_hat = lr * root_c2 / (1.0 - nn.ADAM_BETA1**step), nn.ADAM_EPS * root_c2
    for p, g, m, v in zip(params.tensors(), grads.tensors(), *moments):
        m *= nn.ADAM_BETA1
        m += (1.0 - nn.ADAM_BETA1) * g
        v *= nn.ADAM_BETA2
        v += (1.0 - nn.ADAM_BETA2) * np.square(g)
        p -= a_t * m / (np.sqrt(v) + eps_hat)


def oracle_train(lines, config, dtype):
    """The training loop of ``train_lm`` in ``dtype``, with the oracle encoder and optimizer step."""
    init_seed, shuffle_seed = np.random.SeedSequence(config.seed).spawn(2)
    vocab = build_vocabulary(lines, config.max_vocab)
    params = nn.init_network(
        config.layer_dims(len(vocab)), init_seed, embed_shape=(len(vocab), config.embed_dim)
    ).astype(dtype)
    examples = []
    for line in lines:
        ids = vocab.encode(tokenize_line(line))
        examples.extend(oracle_clip(ids, t, config.window_cap) for t in range(len(ids)))
    moments = [[np.zeros_like(t) for t in params.tensors()] for _ in range(2)]
    step = 0
    shuffle_rng = np.random.default_rng(shuffle_seed)
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(len(examples))
        for start in range(0, len(examples), config.batch_size):
            batch = [examples[i] for i in order[start : start + config.batch_size]]
            x = np.stack(
                [oracle_context_code(ids, t, config.fofe, params.embedding) for ids, t in batch]
            )
            targets = np.array([ids[t] for ids, t in batch], dtype=np.intp)
            grads = nn.backward(params, nn.forward(params, x), targets)
            oracle_batch_backward(batch, config.fofe, grads.input, grads.embedding)
            step += 1
            oracle_update(params, grads, moments, step, config)
    return params


def flat_layout(sentences: Sequence[Sequence[int]], targets, order, window_cap=0) -> np.ndarray:
    """``context_ids`` of the words at ``targets`` in ``sentences``, one per sentence."""
    lengths = np.array([len(s) for s in sentences], dtype=np.intp)
    tokens = np.array([i for s in sentences for i in s], dtype=np.intp)
    return context_ids(tokens, np.cumsum(lengths) - lengths, lengths, targets, order, window_cap)


def one_side(ids, cfg, direction, embeddings):
    """The batched code of ``ids`` as the left or right context of a target."""
    half = cfg.order * embeddings.shape[1]
    if direction == "left":
        return context_code(list(ids) + [0], len(ids), cfg, embeddings)[:half]
    return context_code([0] + list(ids), 0, cfg, embeddings)[half:]


def random_batch(rng, vocab_size, max_len=9):
    """Sentences with targets: lone targets, empty sides and long sides all occur."""
    lengths = rng.integers(1, max_len + 1, int(rng.integers(1, 8)))
    sentences = [list(rng.integers(0, vocab_size, length)) for length in lengths]
    targets = np.array([int(rng.integers(0, length)) for length in lengths])
    return sentences, targets


class TestEncodeLeft:
    def test_abc_example(self):
        assert_allclose(encode_left([A, B, C], 0.7, 3), [0.49, 0.7, 1.0], atol=1e-12)

    def test_empty_sequence_is_zero(self):
        assert_array_equal(encode_left([], 0.3, 4), np.zeros(4))

    def test_abcbc_hand_unrolled(self):
        # z_5 for [A,B,C,B,C] at alpha=0.5: [a^4, a^3 + a, a^2 + 1]
        alpha = 0.5
        expected = [alpha**4, alpha**3 + alpha, alpha**2 + 1.0]
        assert_allclose(encode_left([A, B, C, B, C], alpha, 3), [0.0625, 0.625, 1.25], atol=1e-15)
        assert_allclose(encode_left([A, B, C, B, C], alpha, 3), expected, atol=1e-15)

    def test_id_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            encode_left([0, 3], 0.5, 3)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError, match="alpha"):
            encode_left([0], 1.0, 2)

    def test_linearity_over_concatenation(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            alpha = float(rng.uniform(0.05, 0.95))
            v = int(rng.integers(2, 10))
            s1 = list(rng.integers(0, v, rng.integers(0, 8)))
            s2 = list(rng.integers(0, v, rng.integers(0, 8)))
            combined = encode_left(s1 + s2, alpha, v)
            expected = alpha ** len(s2) * encode_left(s1, alpha, v) + encode_left(s2, alpha, v)
            assert_allclose(combined, expected, atol=1e-12)

    def test_dimension_independent_of_length(self):
        for n in (0, 1, 5, 40):
            assert encode_left([0] * n, 0.3, 7).shape == (7,)


class TestEncodeRight:
    def test_abc_reversed(self):
        assert_allclose(encode_right([A, B, C], 0.7, 3), [1.0, 0.7, 0.49], atol=1e-12)

    def test_empty(self):
        assert_array_equal(encode_right([], 0.7, 3), np.zeros(3))

    def test_single_token_is_one_hot(self):
        assert_array_equal(encode_right([A], 0.42, 3), [1.0, 0.0, 0.0])

    def test_equals_left_of_reversed(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            ids = list(rng.integers(0, 5, rng.integers(0, 10)))
            assert_array_equal(
                encode_right(ids, 0.6, 5), encode_left(ids[::-1], 0.6, 5)
            )


class TestEncodeOrder:
    def test_second_order_stacks_trailing_codes(self):
        cfg = FofeConfig(alpha=0.7, order=2)
        assert_allclose(
            encode_order([A, B, C], cfg, 3, "left"),
            [0.7, 1.0, 0.0, 0.49, 0.7, 1.0],
            atol=1e-12,
        )

    def test_short_sequence_zero_padded(self):
        cfg = FofeConfig(alpha=0.7, order=3)
        expected = np.zeros(9)
        expected[6 + A] = 1.0
        assert_array_equal(encode_order([A], cfg, 3, "left"), expected)

    def test_order_one_reduces_to_plain_encode(self):
        cfg = FofeConfig(alpha=0.55, order=1)
        ids = [2, 0, 1, 1]
        assert_array_equal(encode_order(ids, cfg, 3, "left"), encode_left(ids, 0.55, 3))
        assert_array_equal(encode_order(ids, cfg, 3, "right"), encode_right(ids, 0.55, 3))

    def test_dimension(self):
        cfg = FofeConfig(alpha=0.2, order=4)
        assert encode_order([0, 1], cfg, 5, "right").shape == (20,)


class TestVocabViewsEqualOracle:
    @pytest.mark.parametrize("order", [1, 2, 3, 4])
    def test_random_sequences(self, order):
        rng = np.random.default_rng(order)
        for _ in range(300):
            v = int(rng.integers(1, 12))
            ids = [int(i) for i in rng.integers(0, v, int(rng.integers(0, 15)))]
            cfg = FofeConfig(alpha=float(rng.uniform(0.05, 0.95)), order=order)
            for direction in ("left", "right"):
                assert np.array_equal(
                    encode_order(ids, cfg, v, direction), oracle_encode_order(ids, cfg, v, direction)
                )
            if order == 1:
                assert np.array_equal(encode_left(ids, cfg.alpha, v), oracle_encode_order(ids, cfg, v))
                assert np.array_equal(
                    encode_right(ids, cfg.alpha, v), oracle_encode_order(ids, cfg, v, "right")
                )

    def test_empty_sequences(self):
        for order in (1, 3):
            cfg = FofeConfig(alpha=0.6, order=order)
            for direction in ("left", "right"):
                expected = oracle_encode_order([], cfg, 4, direction)
                assert np.array_equal(encode_order([], cfg, 4, direction), expected)
        assert np.array_equal(encode_left([], 0.6, 4), np.zeros(4))
        assert np.array_equal(encode_right([], 0.6, 4), np.zeros(4))

    def test_vocabulary_much_larger_than_sequence(self):
        rng = np.random.default_rng(9)
        v = 50_000
        for order in (1, 2, 4):
            cfg = FofeConfig(alpha=0.7, order=order)
            ids = [int(i) for i in rng.integers(0, v, 6)] + [7, 7]
            for direction in ("left", "right"):
                assert np.array_equal(
                    encode_order(ids, cfg, v, direction), oracle_encode_order(ids, cfg, v, direction)
                )


class TestEncodeEmbedded:
    def test_identity_embeddings_recover_one_hot_codes(self):
        cfg = FofeConfig(alpha=0.7, order=2)
        eye = np.eye(3)
        for direction in ("left", "right"):
            assert_array_equal(
                one_side([A, B, C], cfg, direction, eye),
                encode_order([A, B, C], cfg, 3, direction),
            )

    def test_empty_sequence(self):
        cfg = FofeConfig(alpha=0.7, order=3)
        for direction in ("left", "right"):
            assert_array_equal(one_side([], cfg, direction, np.ones((4, 5))), np.zeros(15))

    def test_agrees_with_sparse_route(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            v = int(rng.integers(1, 9))
            d = int(rng.integers(1, 5))
            order = int(rng.integers(1, 4))
            cfg = FofeConfig(alpha=float(rng.uniform(0.1, 0.9)), order=order)
            emb = rng.normal(size=(v, d))
            ids = list(rng.integers(0, v, rng.integers(0, 11)))
            direction = "left" if rng.random() < 0.5 else "right"
            dense = one_side(ids, cfg, direction, emb)
            slabs = encode_order(ids, cfg, v, direction).reshape(order, v)
            assert np.max(np.abs(dense - (slabs @ emb).ravel())) <= 1e-10


class TestContextIds:
    def test_layout(self):
        tokens = np.array([10, 11, 12, 13, 14, 20, 21])
        ids = context_ids(tokens, starts=[0, 5], lengths=[5, 2], positions=[1, 0], order=2)
        assert ids.tolist() == [
            [-1, -1, 10],  # left of 11
            [-1, -1, -1],  # left of 20: empty
            [14, 13, 12],  # right of 11, reversed: the longest side sets the width
            [-1, -1, 21],  # right of 20, reversed
        ]

    def test_width_is_at_least_order(self):
        assert flat_layout([[5]], [0], order=3).tolist() == [[-1] * 3] * 2

    def test_window_cap(self):
        sentence = [10, 11, 12, 13, 14, 15, 16]
        assert flat_layout([sentence], [4], order=1, window_cap=2).tolist() == [[12, 13], [16, 15]]
        assert flat_layout([sentence], [0], order=1, window_cap=2).tolist() == [[-1, -1], [12, 11]]

    @pytest.mark.parametrize("start, position", [(0, 3), (3, -1)])
    def test_position_outside_its_sentence(self, start, position):
        # read unchecked, (0, 3) would take token 20 of the next sentence, (3, -1) token 12 of the last
        tokens = np.array([10, 11, 12, 20, 21, 22])
        with pytest.raises(ValueError, match=f"target index {position} out of range for 3 tokens"):
            context_ids(tokens, starts=[0, start], lengths=[3, 3], positions=[1, position], order=1)

    def test_neighbouring_sentences_stay_out(self):
        # the sentence of example 0 sits between two others in the token array
        tokens = np.array([1, 2, 10, 11, 12, 3, 4])
        ids = context_ids(tokens, starts=[2], lengths=[3], positions=[1], order=3)
        assert ids.tolist() == [[-1, -1, 10], [-1, -1, 12]]


class TestDecode:
    def test_roundtrip_example(self):
        code = encode_left([2, 1, 2, 0], 0.4, 3)
        assert decode(code, 0.4, 10) == [2, 1, 2, 0]

    def test_zero_vector_is_empty(self):
        assert decode(np.zeros(5), 0.4, 10) == []

    def test_invalid_code_rejected(self):
        with pytest.raises(ValueError, match="not a valid FOFE code"):
            decode(np.array([0.3, 0.2]), 0.4, 10)

    def test_alpha_must_be_below_half(self):
        with pytest.raises(ValueError, match="alpha"):
            decode(np.zeros(2), 0.5, 10)

    def test_max_len_exceeded(self):
        code = encode_left([0, 1, 0], 0.3, 2)
        with pytest.raises(ValueError, match="max_len"):
            decode(code, 0.3, 2)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(3)
        for alpha in (0.2, 0.4, 0.49):
            for _ in range(200):
                v = int(rng.integers(1, 51))
                t = int(rng.integers(0, 21))
                ids = [int(i) for i in rng.integers(0, v, t)]
                assert decode(encode_left(ids, alpha, v), alpha, 25) == ids


class TestContextCode:
    def test_lone_target_gives_zero_vector(self):
        cfg = FofeConfig(alpha=0.7, order=3)
        emb = np.random.default_rng(4).normal(size=(5, 4))
        assert_array_equal(context_code([2], 0, cfg, emb), np.zeros(2 * 3 * 4))

    def test_output_dimension(self):
        cfg = FofeConfig(alpha=0.7, order=3)
        emb = np.zeros((10, 16))
        assert context_code([1, 2, 3], 1, cfg, emb).shape == (2 * 3 * 16,)

    def test_production_width_is_3072(self):
        cfg = FofeConfig(alpha=0.7, order=3)
        emb = np.zeros((10, 512))
        assert context_code([1, 2, 3], 1, cfg, emb).shape == (3072,)

    def test_single_word_contexts_reduce_to_one_hots(self):
        cfg = FofeConfig(alpha=0.7, order=1)
        eye = np.eye(3)
        code = context_code([A, B, C], 1, cfg, eye)
        assert_array_equal(code, [1, 0, 0, 0, 0, 1])

    def test_target_index_out_of_range(self):
        cfg = FofeConfig(alpha=0.7, order=1)
        with pytest.raises(ValueError, match="out of range"):
            context_code([0, 1], 2, cfg, np.eye(2))


class TestEmbeddedBackward:
    def _numeric_grad(self, func, emb, eps=1e-6):
        grad = np.zeros_like(emb)
        for idx in np.ndindex(emb.shape):
            plus = emb.copy()
            plus[idx] += eps
            minus = emb.copy()
            minus[idx] -= eps
            grad[idx] = (func(plus) - func(minus)) / (2 * eps)
        return grad

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        cfg = FofeConfig(alpha=0.6, order=2)
        emb = rng.normal(size=(6, 3))
        ids = [int(i) for i in rng.integers(0, 6, 7)]
        for target in (0, 6):  # one side holds all seven tokens, the other none
            layout = flat_layout([ids], [target], cfg.order)
            probe = rng.normal(size=(1, 2 * cfg.order * 3))
            analytic = np.zeros_like(emb)
            contexts_backward(layout, cfg, probe, analytic)
            numeric = self._numeric_grad(
                lambda e: float(np.sum(encode_contexts(layout, cfg, e) * probe)), emb
            )
            assert_allclose(analytic, numeric, atol=1e-8)

    def test_context_backward_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        cfg = FofeConfig(alpha=0.7, order=3)
        emb = rng.normal(size=(5, 2))
        sentences, targets = random_batch(rng, 5)
        for cap in (0, 2):
            layout = flat_layout(sentences, targets, cfg.order, cap)
            probe = rng.normal(size=(len(targets), 2 * cfg.order * 2))
            analytic = np.zeros_like(emb)
            contexts_backward(layout, cfg, probe, analytic)
            numeric = self._numeric_grad(
                lambda e: float(np.sum(encode_contexts(layout, cfg, e) * probe)), emb
            )
            assert_allclose(analytic, numeric, atol=1e-8)

    def test_float_buffers_bounded_by_a_block(self):
        # 32 examples from one 1,000-token sentence hold 31,968 context tokens
        cfg = FofeConfig(alpha=0.7, order=3)
        rng = np.random.default_rng(8)
        sentence = list(rng.integers(0, 50, 1000))
        layout = flat_layout([sentence] * 32, np.arange(0, 1000, 32)[:32], cfg.order)
        grad = rng.normal(size=(32, 2 * cfg.order * 32)).astype(np.float32)
        embed_grad = np.zeros((50, 32), np.float32)
        tracemalloc.start()
        try:
            contexts_backward(layout, cfg, grad, embed_grad)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 31_968 * 32 * 4  # the bytes of one float32 row of d per context token

    def test_gradient_shape_checked(self):
        cfg = FofeConfig(alpha=0.7, order=2)
        layout = flat_layout([[1, 2, 3]], [1], cfg.order)
        with pytest.raises(ValueError, match="gradient has shape"):
            contexts_backward(layout, cfg, np.zeros((1, 7)), np.zeros((4, 2)))

    def test_embedding_gradient_must_be_contiguous(self):
        # the gradient is added through a flat view, which a strided array has not
        cfg = FofeConfig(alpha=0.7, order=1)
        layout = flat_layout([[1, 2, 3]], [1], cfg.order)
        with pytest.raises(ValueError, match="C-contiguous"):
            contexts_backward(layout, cfg, np.ones((1, 4)), np.zeros((2, 4)).T)


class TestBatchedEqualsOracle:
    """Codes and gradients are bit-equal to the token-by-token oracle."""

    CASES = [(order, cap) for order in (1, 2, 3, 5) for cap in (0, 1, 2, 4)]

    @pytest.mark.parametrize("order, cap", CASES)
    def test_codes(self, order, cap):
        rng = np.random.default_rng(100 * order + cap)
        for _ in range(20):
            cfg = FofeConfig(alpha=float(rng.uniform(0.05, 0.95)), order=order)
            emb = rng.normal(size=(7, 3))
            sentences, targets = random_batch(rng, 7)
            codes = encode_contexts(flat_layout(sentences, targets, order, cap), cfg, emb)
            assert codes.shape == (len(targets), 2 * order * 3)
            for s, t, row in zip(sentences, targets, codes):
                assert np.array_equal(row, oracle_context_code(*oracle_clip(s, t, cap), cfg, emb))
                assert np.array_equal(context_code(s, t, cfg, emb, cap), row)

    @pytest.mark.parametrize("order, cap", CASES)
    def test_gradients(self, order, cap):
        rng = np.random.default_rng(100 * order + cap + 1)
        for _ in range(20):
            cfg = FofeConfig(alpha=float(rng.uniform(0.05, 0.95)), order=order)
            # few rows, so that each row gathers many additions
            sentences, targets = random_batch(rng, 3)
            grad = rng.normal(size=(len(targets), 2 * order * 4))
            layout = flat_layout(sentences, targets, order, cap)
            batch = [oracle_clip(s, t, cap) for s, t in zip(sentences, targets)]
            # contexts_backward adds into its argument
            for start in (np.zeros((3, 4)), rng.normal(size=(3, 4))):
                batched, expected = start.copy(), start.copy()
                contexts_backward(layout, cfg, grad, batched)
                oracle_batch_backward(batch, cfg, grad, expected)
                assert np.array_equal(batched, expected)

    @pytest.mark.parametrize("order, cap", [(3, 0), (2, 40)])
    def test_skewed_lengths(self, order, cap, monkeypatch):
        # one long sentence among short ones: most columns hold a token in few rows
        monkeypatch.setattr(fofe, "_BLOCK_CELLS", 12)  # one column per block: many np.add.at calls
        rng = np.random.default_rng(order + cap)
        cfg = FofeConfig(alpha=0.9, order=order)
        emb = rng.normal(size=(11, 3))
        sentences = [list(rng.integers(0, 11, n)) for n in (300, 1, 4, 2, 300, 7)]
        targets = np.array([150, 0, 3, 1, 0, 2])
        layout = flat_layout(sentences, targets, order, cap)
        codes = encode_contexts(layout, cfg, emb)
        for s, t, row in zip(sentences, targets, codes):
            assert np.array_equal(row, oracle_context_code(*oracle_clip(s, t, cap), cfg, emb))
        grad = rng.normal(size=codes.shape)
        batched, expected = np.zeros_like(emb), np.zeros_like(emb)
        contexts_backward(layout, cfg, grad, batched)
        oracle_batch_backward([oracle_clip(s, t, cap) for s, t in zip(sentences, targets)], cfg, grad, expected)
        assert np.array_equal(batched, expected)

    @pytest.mark.parametrize("order, cap", [(1, 0), (3, 0), (1, 2), (3, 2)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_column_blocks(self, order, cap, dtype, monkeypatch):
        # The fold and its adjoint take a layout one block of columns at a
        # time. Every block width, from one column to the whole layout (37
        # columns without a cap), gives the oracle's floats; at alpha 0.05 a
        # float32 adjoint value left to decay would go subnormal within 30 columns.
        rng = np.random.default_rng(10 * order + cap)
        emb = rng.normal(size=(11, 4)).astype(dtype)
        sentences = [list(rng.integers(0, 11, n)) for n in (38, 1, 5, 2, 20, 7)]
        targets = np.array([0, 0, 3, 1, 10, 6])
        layout = flat_layout(sentences, targets, order, cap)
        rows, width = layout.shape
        grad = rng.normal(size=(len(targets), 2 * order * 4)).astype(dtype)
        for alpha in (0.05, 0.7):
            cfg = FofeConfig(alpha=alpha, order=order)
            codes = [oracle_context_code(*oracle_clip(s, t, cap), cfg, emb) for s, t in zip(sentences, targets)]
            expected = np.zeros_like(emb)
            oracle_batch_backward([oracle_clip(s, t, cap) for s, t in zip(sentences, targets)], cfg, grad, expected)
            for columns in range(1, width + 1):
                # half a row over ``columns`` rows still makes blocks of ``columns`` columns
                monkeypatch.setattr(fofe, "_BLOCK_CELLS", columns * rows + rows // 2)
                assert np.array_equal(encode_contexts(layout, cfg, emb), np.stack(codes))
                batched = np.zeros_like(emb)
                contexts_backward(layout, cfg, grad, batched)
                assert np.array_equal(batched, expected)

    def test_lone_target(self):
        cfg = FofeConfig(alpha=0.7, order=2)
        emb = np.random.default_rng(7).normal(size=(4, 3))
        layout = flat_layout([[3], [1, 2]], [0, 1], cfg.order)
        codes = encode_contexts(layout, cfg, emb)
        assert_array_equal(codes[0], np.zeros(12))
        assert np.array_equal(codes[1], oracle_context_code([1, 2], 1, cfg, emb))
        embed_grad = np.zeros_like(emb)
        contexts_backward(layout[[0, 2]], cfg, np.ones((1, 12)), embed_grad)
        assert_array_equal(embed_grad, np.zeros_like(emb))


class TestTrainingEqualsOracle:
    @pytest.mark.parametrize(
        "optimizer, order, cap, embed_dim, dtype",
        [
            pytest.param("adam", 3, 0, 5, np.float64, id="adam-3-0"),
            pytest.param("sgd", 1, 2, 5, np.float64, id="sgd-1-2"),
            pytest.param("adam", 3, 0, 1200, np.float64, id="adam-3-0-several-slices"),
            pytest.param("adam", 3, 0, 5, np.float32, id="adam-3-0-f32"),
            pytest.param("sgd", 1, 2, 5, np.float32, id="sgd-1-2-f32"),
            pytest.param("adam", 3, 0, 2400, np.float32, id="adam-3-0-several-slices-f32"),
        ],
    )
    def test_parameters_bit_equal(self, toy_lines, monkeypatch, optimizer, order, cap, embed_dim, dtype):
        # The flat buffer of the embedding (60 x 1200 float64 or 60 x 2400
        # float32), the weights and biases (130,148 or 259,748 elements) takes
        # four 256 KiB Adam slices, the last one partial, with slice edges
        # inside the embedding and the first weight; the 30 steps reuse one
        # gradient buffer. train_lm trains in float32; the float64 cases switch it.
        monkeypatch.setattr(lm, "_TRAIN_DTYPE", dtype)
        kernel_dtypes = set()
        grad_buffers = []
        apply_update = nn.apply_update

        def checked_update(params, grads, state):
            apply_update(params, grads, state)
            moments = [a for a in (state.m, state.v) if a is not None]
            kernel_dtypes.update(a.dtype for a in [*params.tensors(), *grads.tensors(), *moments])
            grad_buffers.append(grads.flat)

        monkeypatch.setattr(nn, "apply_update", checked_update)
        config = LmConfig(
            fofe=FofeConfig(alpha=0.7, order=order),
            embed_dim=embed_dim,
            hidden_dims=(8,),
            max_vocab=60,
            window_cap=cap,
            optimizer=optimizer,
            learning_rate=0.01,
            batch_size=16,
            epochs=2,
            seed=4,
        )
        lines = toy_lines[:30]
        params = train_lm(lines, config).params
        assert kernel_dtypes == {np.dtype(dtype)}
        # one gradient buffer for the whole run
        assert len(grad_buffers) > 1 and all(g is grad_buffers[0] for g in grad_buffers)
        expected = oracle_train(lines, config, dtype)
        assert expected.embedding.dtype == dtype
        # train_lm returns the parameters widened to float64, which is exact
        assert params.embedding.dtype == np.float64
        assert np.array_equal(params.embedding, expected.embedding)
        for (w, b), (ew, eb) in zip(params.layers, expected.layers):
            assert np.array_equal(w, ew)
            assert np.array_equal(b, eb)


class TestConfig:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            FofeConfig(alpha=0.0)
        with pytest.raises(ValueError):
            FofeConfig(alpha=1.0)

    def test_order_bound(self):
        with pytest.raises(ValueError):
            FofeConfig(alpha=0.5, order=0)
