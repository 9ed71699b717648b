import os
import struct
import tracemalloc
import warnings
import zlib
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fofe_wsd import corpus, fofe, lm, nn, synthetic
from fofe_wsd._files import write_file
from fofe_wsd.corpus import UNK_ID, UNK_TOKEN, Vocabulary
from fofe_wsd.errors import DataError, NumericalError
from fofe_wsd.fofe import context_code, context_ids
from fofe_wsd.lm import (
    LmConfig,
    LmModel,
    context_embeddings,
    load_checkpoint,
    save_checkpoint,
    train_lm,
    training_examples,
)
from containers import checkpoint_bytes
from labeled import embed


def examples_of(sentences):
    """``training_examples`` of sentences given as lists of model ids."""
    tokens = np.array([i for sentence in sentences for i in sentence], dtype=np.intp)
    return training_examples(tokens, np.cumsum([0, *map(len, sentences)], dtype=np.intp))


class TestMakeTrainingExamples:
    def test_one_example_per_position(self):
        tokens, starts, lengths, positions = examples_of([[5, 6, 7, 8, 9]])
        assert positions.tolist() == [0, 1, 2, 3, 4]
        assert starts.tolist() == [0] * 5 and lengths.tolist() == [5] * 5
        assert tokens.tolist() == [5, 6, 7, 8, 9]

    def test_window_cap_clips_both_sides(self):
        cfg = LmConfig(window_cap=2)
        tokens, starts, lengths, positions = examples_of([[10, 11, 12, 13, 14, 15, 16]])
        example = [4]
        ids = context_ids(
            tokens, starts[example], lengths[example], positions[example], 1, cfg.window_cap
        )
        # left context = tokens 2..3, right context = tokens 5..6 (reversed)
        assert ids.tolist() == [[12, 13], [16, 15]]

    def test_empty_sentence(self):
        examples = examples_of([[]])
        assert [a.tolist() for a in examples] == [[], [], [], []]

    def test_sentences_back_to_back(self):
        tokens, starts, lengths, positions = examples_of([[5, 6, 7], [], [8]])
        assert tokens.tolist() == [5, 6, 7, 8]
        assert starts.tolist() == [0, 0, 0, 3]
        assert lengths.tolist() == [3, 3, 3, 1]
        assert positions.tolist() == [0, 1, 2, 0]


class TestTrainLm:
    def test_zero_epochs_returns_initialized_model(self, toy_lines):
        cfg = LmConfig(embed_dim=4, hidden_dims=(8,), epochs=0, max_vocab=30, seed=3)
        model = train_lm(toy_lines[:10], cfg)
        init_seed, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        fresh = nn.init_network(
            cfg.layer_dims(len(model.vocab)), init_seed, embed_shape=(len(model.vocab), 4)
        )
        # training runs on the draws rounded to float32, and returns them
        assert model.params.flat.dtype == np.float32
        assert_array_equal(model.params.embedding, fresh.embedding.astype(np.float32))
        for (w, b), (fw, fb) in zip(model.params.layers, fresh.layers):
            assert_array_equal(w, fw.astype(np.float32))
            assert_array_equal(b, fb.astype(np.float32))

    def test_empty_corpus(self):
        with pytest.raises(DataError, match="empty corpus"):
            train_lm([], LmConfig())

    def test_tokenizes_each_line_once(self, toy_lines, tiny_config, monkeypatch):
        calls = []
        for module in (corpus, lm):
            if hasattr(module, "tokenize_line"):
                wrapped = getattr(module, "tokenize_line")
                monkeypatch.setattr(module, "tokenize_line", lambda text, _f=wrapped: calls.append(text) or _f(text))
        lines = toy_lines[:12] + ["", f"{UNK_TOKEN} Time"]
        train_lm(lines, replace(tiny_config, epochs=1))
        assert calls == lines
        calls.clear()
        train_lm(lines, replace(tiny_config, epochs=1), model=train_lm(lines[:3], replace(tiny_config, epochs=0)))
        assert calls == lines[:3] + lines

    def test_one_pass_over_the_corpus(self, toy_lines, tiny_config, tmp_path):
        # a one-shot generator and an open file, whose lines keep their line ends,
        # train the model a list does
        lines = toy_lines[:20] + ["", f"{UNK_TOKEN} The  TIME\t", "time"]
        text = tmp_path / "corpus.txt"
        text.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        for config in (tiny_config, replace(tiny_config, max_vocab=5)):
            save_checkpoint(train_lm(lines, config), tmp_path / "list.fofe")
            save_checkpoint(train_lm((line for line in lines), config), tmp_path / "generator.fofe")
            with open(text, encoding="utf-8") as fh:
                save_checkpoint(train_lm(fh, config), tmp_path / "file.fofe")
            want = (tmp_path / "list.fofe").read_bytes()
            assert (tmp_path / "generator.fofe").read_bytes() == want
            assert (tmp_path / "file.fofe").read_bytes() == want

    def test_same_seed_same_checkpoint_bytes(self, toy_lines, tiny_config, tmp_path):
        a = tmp_path / "a.fofe"
        b = tmp_path / "b.fofe"
        save_checkpoint(train_lm(toy_lines[:20], tiny_config), a)
        save_checkpoint(train_lm(toy_lines[:20], tiny_config), b)
        assert a.read_bytes() == b.read_bytes()

    def test_progress_reports_every_epoch(self, toy_lines):
        seen = []
        cfg = LmConfig(embed_dim=4, hidden_dims=(8,), epochs=4, max_vocab=30)
        train_lm(toy_lines[:10], cfg, progress=lambda e, l: seen.append((e, l)))
        assert [e for e, _ in seen] == [1, 2, 3, 4]
        assert all(np.isfinite(l) for _, l in seen)

    def test_loss_decreases_on_frozen_batch(self, toy_lines):
        # one sentence, full-batch plain gradient descent: the logged loss is
        # evaluated before each update and must fall for the first 10 steps
        for seed in range(10):
            losses = []
            cfg = LmConfig(
                embed_dim=6,
                hidden_dims=(12,),
                max_vocab=40,
                optimizer="sgd",
                learning_rate=0.05,
                batch_size=1024,
                epochs=10,
                seed=seed,
            )
            train_lm(toy_lines[:1], cfg, progress=lambda e, l: losses.append(l))
            assert np.all(np.diff(losses) < 0.0), f"seed {seed}: {losses}"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_run_aborts(self, toy_lines):
        cfg = LmConfig(
            embed_dim=4,
            hidden_dims=(8,),
            max_vocab=30,
            optimizer="sgd",
            learning_rate=1e30,
            epochs=5,
        )
        with pytest.raises(NumericalError, match="non-finite"):
            train_lm(toy_lines[:10], cfg)


def embed_one(model, tokens, target_index):
    """The embedding of one context, through ``context_embeddings``."""
    (embedding,) = embed(model, [(tokens, target_index)])
    return embedding


class TestContextEmbedding:
    def test_dimension_is_last_hidden(self, tiny_model):
        emb = embed_one(tiny_model, ["time", "year", "way"], 1)
        assert emb.shape == (tiny_model.config.hidden_dims[-1],)

    def test_zero_params_zero_embedding(self, tiny_model):
        cfg = tiny_model.config
        params = tiny_model.params
        model = LmModel(
            vocab=tiny_model.vocab,
            config=cfg,
            params=nn.NetworkParams.zeros(cfg.layer_dims(len(tiny_model.vocab)), params.embedding.shape),
        )
        assert_array_equal(embed_one(model, ["time", "year"], 0), np.zeros(cfg.hidden_dims[-1]))

    def test_pure_function(self, tiny_model):
        tokens = ["time", "year", "way", "day"]
        assert_array_equal(
            embed_one(tiny_model, tokens, 2), embed_one(tiny_model, tokens, 2)
        )

    def test_unknown_words_are_interchangeable(self, tiny_model):
        base = ["time", "qqqqq", "way", "day"]
        swapped = ["time", "zzzzz", "way", "day"]
        assert tiny_model.vocab.encode(["qqqqq", "zzzzz"]) == [UNK_ID, UNK_ID]
        assert_array_equal(
            embed_one(tiny_model, base, 2), embed_one(tiny_model, swapped, 2)
        )

    def test_window_cap_limits_sensitivity(self, toy_lines):
        cfg = LmConfig(embed_dim=4, hidden_dims=(8,), max_vocab=60, window_cap=2, epochs=1)
        model = train_lm(toy_lines[:15], cfg)
        words = toy_lines[0].split()[:8]
        changed = list(words)
        changed[0] = "year"  # more than 2 tokens left of the target
        changed[7] = "time"  # more than 2 tokens right of the target
        assert_array_equal(
            embed_one(model, words, 4), embed_one(model, changed, 4)
        )

    def test_target_index_out_of_range(self, tiny_model):
        with pytest.raises(ValueError, match="out of range"):
            embed_one(tiny_model, ["time"], 1)

    def test_fixed_input_dimension_for_any_sentence_length(self, tiny_model):
        rng = np.random.default_rng(0)
        words = tiny_model.vocab.tokens[1:]
        for length in (1, 3, 9, 25):
            tokens = [words[int(i)] for i in rng.integers(0, len(words), length)]
            emb = embed_one(tiny_model, tokens, int(rng.integers(0, length)))
            assert emb.shape == (tiny_model.config.hidden_dims[-1],)


    @pytest.mark.parametrize("window_cap", [0, 2])
    @pytest.mark.parametrize("count", [8, 7])
    def test_each_chunk_is_one_held_out_product(self, tiny_model, monkeypatch, window_cap, count):
        # 3 contexts per chunk: 8 contexts make chunks of 3, 3, 2 and 7 make 3, 3, 1
        monkeypatch.setattr(lm, "_EMBED_BATCH", 3)
        calls = []
        for module, name in ((fofe, "encode_contexts"), (nn, "held_out")):
            wrapped = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, _f=wrapped, _n=name: calls.append(_n) or _f(*a))
        model = LmModel(tiny_model.vocab, replace(tiny_model.config, window_cap=window_cap), tiny_model.params)
        rng = np.random.default_rng(1)
        words = tiny_model.vocab.tokens[1:] + ["qqqqq"]
        contexts = []
        for length in (1, 9, 3, 25, 2, 6, 1, 12)[:count]:
            tokens = [words[int(i)] for i in rng.integers(0, len(words), length)]
            contexts.append((tokens, int(rng.integers(0, length))))

        embeddings = embed(model, contexts)
        dim = model.config.held_out_dim
        assert model.params.flat.dtype == np.float32
        assert embeddings.shape == (count, dim) and embeddings.dtype == np.float32
        chunks = -(-count // 3)
        assert calls == ["encode_contexts", "held_out"] * chunks
        none = embed(model, [])
        assert none.shape == (0, dim) and none.dtype == np.float32 and len(calls) == 2 * chunks
        table = model.params.embedding  # the float32 table as it is: codes and products stay float32
        for start in range(0, count, 3):
            codes = np.stack([
                context_code(model.vocab.encode(tokens), target, model.config.fofe, table, window_cap)
                for tokens, target in contexts[start : start + 3]
            ])
            expected = nn.held_out(model.params, codes)
            for got, want in zip(embeddings[start : start + 3], expected, strict=True):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_float32_rows_in_the_parameters_dtype(self, tiny_model):
        wide = LmModel(tiny_model.vocab, tiny_model.config, tiny_model.params.astype(np.float64))
        rng = np.random.default_rng(3)
        words = tiny_model.vocab.tokens[1:] + ["qqqqq"]
        sentences = [[words[int(i)] for i in rng.integers(0, len(words), n)] for n in (1, 9, 3, 25)]
        positions = np.array([int(rng.integers(0, len(sentence))) for sentence in sentences])
        lengths = np.array([len(sentence) for sentence in sentences])
        tokens = np.array([i for sentence in sentences for i in tiny_model.vocab.encode(sentence)])
        layout = context_ids(tokens, np.cumsum(lengths) - lengths, lengths, positions, tiny_model.config.fofe.order)
        for model in (tiny_model, wide):
            codes = fofe.encode_contexts(layout, model.config.fofe, model.params.embedding)
            want = nn.held_out(model.params, codes)
            assert want.dtype == model.params.flat.dtype
            got = embed(model, list(zip(sentences, positions.tolist())))
            assert got.dtype == np.float32 and got.tobytes() == want.astype(np.float32).tobytes()

    def test_rows_are_the_training_forward_pass(self, tiny_model, toy_lines, monkeypatch):
        # the held-out activations of one training step's forward pass, with the update skipped
        # so the parameters stay as they were, are the context embeddings of its examples
        examples = examples_of([tiny_model.vocab.encode(line.split()) for line in toy_lines[:8]])
        batch = np.random.default_rng(4).permutation(len(examples[0]))[:40]
        seen = []
        forward = nn.forward
        monkeypatch.setattr(nn, "forward", lambda *a: seen.append(forward(*a)) or seen[-1])
        monkeypatch.setattr(nn, "apply_update", lambda *a: None)
        grads = nn.Gradients(np.zeros_like(tiny_model.params.flat), tiny_model.params.layout)
        args = examples[0], *(column[batch] for column in examples[1:])
        lm._train_step(tiny_model, *args, nn.OptimizerState(), grads)
        (activations,) = seen
        got = context_embeddings(tiny_model, *args)
        assert got.dtype == activations[-2].dtype == np.float32
        assert got.tobytes() == activations[-2].tobytes()

    def test_contexts_index_one_token_array(self, tiny_model, monkeypatch):
        # contexts picked out of one array of sentences, out of order and repeated,
        # embed as the same contexts laid out back to back
        monkeypatch.setattr(lm, "_EMBED_BATCH", 3)
        rng = np.random.default_rng(2)
        words = tiny_model.vocab.tokens[1:] + ["qqqqq"]
        sentences = [[words[int(i)] for i in rng.integers(0, len(words), n)] for n in (4, 1, 7, 3)]
        ids = np.array([i for sentence in sentences for i in tiny_model.vocab.encode(sentence)], dtype=np.intp)
        lengths = np.array([len(sentence) for sentence in sentences])
        rows, positions = np.array([2, 0, 2, 3, 1, 0]), np.array([6, 3, 0, 1, 0, 0])
        got = context_embeddings(tiny_model, ids, (np.cumsum(lengths) - lengths)[rows], lengths[rows], positions)
        want = embed(tiny_model, [(sentences[r], p) for r, p in zip(rows, positions)])
        assert got.tobytes() == want.tobytes()


def peak_bytes(run):
    """The tracemalloc peak of ``run()``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestVocabularyWideMemory:
    """Memory that must not follow the vocabulary size V beyond one pass over V."""

    def test_context_embeddings_copy_no_rows(self):
        # a 100,000-row table, 6.4 MB as float32; four sentences reach at most 48 of its rows,
        # and the embedding copies none of it and makes no pass over it, so the peak is the
        # FOFE buffers (0.32 MB); a bool mark and an id map over the table alone take 0.9 MB
        vocab = Vocabulary.from_tokens([UNK_TOKEN] + [f"w{i}" for i in range(99_999)])
        config = LmConfig(embed_dim=16, hidden_dims=(8,))
        params = nn.init_network(config.layer_dims(len(vocab)), 0, (len(vocab), config.embed_dim), np.float32)
        model = LmModel(vocab, config, params)
        rng = np.random.default_rng(0)
        contexts = examples_of([rng.integers(0, len(vocab), n).tolist() for n in (5, 12, 1, 30)])
        assert peak_bytes(lambda: context_embeddings(model, *contexts)) < 512 << 10
        # the rows of one product over the table as it is, bit for bit
        layout = context_ids(*contexts, config.fofe.order)
        want = nn.held_out(params, fofe.encode_contexts(layout, config.fofe, params.embedding))
        assert context_embeddings(model, *contexts).tobytes() == want.tobytes()

    def test_load_checkpoint_holds_one_parameter_buffer(self, tmp_path):
        # 1,000 tokens and a 1,024-wide hidden layer: 1.25 M parameters, 5.0 MB as float32
        tokens = [UNK_TOKEN] + [f"w{i}" for i in range(999)]
        config = LmConfig(embed_dim=32, hidden_dims=(1024,))
        params = nn.init_network(config.layer_dims(len(tokens)), 0, (len(tokens), config.embed_dim), np.float32)
        assert params.flat.size >= 1_000_000
        path = tmp_path / "m.fofe"
        save_checkpoint(LmModel(Vocabulary.from_tokens(tokens), config, params), path)
        vocabulary = peak_bytes(lambda: Vocabulary.from_tokens([str(t.encode(), "utf-8") for t in tokens]))
        assert peak_bytes(lambda: load_checkpoint(path)) <= params.flat.nbytes + vocabulary + (256 << 10)


class TestLongSentenceMemory:
    """One 1,000-token sentence among short ones: the FOFE layer takes its
    layout a bounded block of columns at a time, so the peak stays near the
    layout's own size. The bounds are twice the peaks of the fold that kept
    one float row per token (6.5 MB and 1.65 MB under tracemalloc)."""

    @pytest.fixture
    def inputs(self):
        vocab = Vocabulary.from_tokens([UNK_TOKEN] + [f"w{i}" for i in range(2499)])
        rng = np.random.default_rng(0)

        def words(n):
            return [f"w{i}" for i in rng.integers(0, 2499, n)]

        config = LmConfig(embed_dim=32)
        return vocab, config, [(words(8), 3) for _ in range(255)] + [(words(1000), 500)]

    def test_context_embeddings_of_one_chunk(self, inputs):
        vocab, config, contexts = inputs
        params = nn.init_network(config.layer_dims(len(vocab)), 0, (len(vocab), config.embed_dim))
        model = LmModel(vocab, config, params)
        assert peak_bytes(lambda: embed(model, contexts)) < 13e6

    def test_train_step_of_one_batch(self, inputs):
        vocab, config, contexts = inputs
        params = nn.init_network(config.layer_dims(len(vocab)), 0, (len(vocab), config.embed_dim), np.float32)
        model = LmModel(vocab, config, params)
        tokens, starts, lengths, positions = examples_of(
            [vocab.encode(words) for words, _ in contexts[:31] + contexts[-1:]]
        )
        batch = np.array([8 * i + 3 for i in range(31)] + [8 * 31 + 500])
        state = nn.OptimizerState()
        grads = nn.Gradients(np.zeros_like(params.flat), params.layout)

        def step():
            lm._train_step(model, tokens, starts[batch], lengths[batch], positions[batch], state, grads)

        step()  # the first Adam step makes the moments
        assert peak_bytes(step) < 3.3e6


def write_checkpoint(model, path, tensors, dims=None, tokens=None):
    """A checkpoint of ``model`` that stores ``tensors`` (and ``dims``, ``tokens``), with a valid checksum."""
    write_file(path, checkpoint_bytes(model, tensors, dims, tokens))


class TestCheckpoint:
    def test_roundtrip_architecture_and_bits(self, tiny_model, tmp_path):
        path = tmp_path / "m.fofe"
        save_checkpoint(tiny_model, path)
        loaded = load_checkpoint(path)
        assert loaded.vocab.tokens == tiny_model.vocab.tokens
        assert loaded.config.fofe == tiny_model.config.fofe
        assert loaded.config.embed_dim == tiny_model.config.embed_dim
        assert loaded.config.hidden_dims == tiny_model.config.hidden_dims
        # on-disk tensors are f32, so the fixed point is reached after one trip
        assert_allclose(loaded.params.embedding, tiny_model.params.embedding, atol=1e-6)
        second = tmp_path / "m2.fofe"
        save_checkpoint(loaded, second)
        reloaded = load_checkpoint(second)
        assert_array_equal(reloaded.params.embedding, loaded.params.embedding)
        for (w, b), (w2, b2) in zip(loaded.params.layers, reloaded.params.layers):
            assert_array_equal(w, w2)
            assert_array_equal(b, b2)
        assert path.read_bytes()[4:] == second.read_bytes()[4:]

    def test_saved_twice_identical(self, tiny_model, tmp_path):
        a, b = tmp_path / "a.fofe", tmp_path / "b.fofe"
        save_checkpoint(tiny_model, a)
        save_checkpoint(tiny_model, b)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.fofe"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(DataError, match="incompatible checkpoint"):
            load_checkpoint(path)

    def test_truncated_file(self, tiny_model, tmp_path):
        path = tmp_path / "m.fofe"
        save_checkpoint(tiny_model, path)
        path.write_bytes(path.read_bytes()[:50])
        with pytest.raises(DataError, match="truncated"):
            load_checkpoint(path)

    def test_vocabulary_count_beyond_file_is_truncation(self, tiny_model, tmp_path):
        # too few bytes left for the tokens' length prefixes: refused before any token is
        # decoded, so the first token, made invalid UTF-8, is never read
        path = tmp_path / "m.fofe"
        save_checkpoint(tiny_model, path)
        raw = bytearray(path.read_bytes())
        at = 24 + 4 * len(tiny_model.config.layer_dims(len(tiny_model.vocab)))  # after magic .. dims
        assert raw[at : at + 4] == len(tiny_model.vocab).to_bytes(4, "little")
        raw[at : at + 4] = (len(raw) // 4).to_bytes(4, "little")
        raw[at + 8] ^= 0xFF  # the first token's first byte
        raw[-8:] = zlib.crc32(raw[:-8]).to_bytes(8, "little")
        path.write_bytes(raw)
        with pytest.raises(DataError, match=r"^truncated checkpoint: "):
            load_checkpoint(path)

    def test_corrupted_byte_fails_checksum(self, tiny_model, tmp_path):
        path = tmp_path / "m.fofe"
        save_checkpoint(tiny_model, path)
        good = path.read_bytes()
        token = tiny_model.vocab.tokens[1].encode("utf-8")
        # a tensor byte, and the first byte of a vocabulary token (now invalid UTF-8)
        for at in (len(good) // 2, good.index(struct.pack("<I", len(token)) + token) + 4):
            raw = bytearray(good)
            raw[at] ^= 0xFF
            path.write_bytes(raw)
            with pytest.raises(DataError, match="checksum|corrupt"):
                load_checkpoint(path)

    def test_checkpoint_is_self_describing(self, toy_lines, tmp_path):
        cfg = LmConfig(embed_dim=4, hidden_dims=(8, 8), max_vocab=17, epochs=0, seed=5)
        path = tmp_path / "m.fofe"
        save_checkpoint(train_lm(toy_lines[:10], cfg), path)
        loaded = load_checkpoint(path)
        assert len(loaded.vocab) == 17
        assert loaded.config.hidden_dims == (8, 8)
        assert loaded.config.embed_dim == 4

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.fofe")

    def test_saved_checkpoint_is_version_2_with_crc32(self, tiny_model, tmp_path):
        path = tmp_path / "m.fofe"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        assert raw[4:8] == (2).to_bytes(4, "little")
        assert raw[-8:] == zlib.crc32(raw[:-8]).to_bytes(8, "little")

    def test_value_beyond_f32_is_not_written(self, tiny_model, tmp_path):
        path = tmp_path / "m.fofe"
        save_checkpoint(tiny_model, path)
        old = path.read_bytes()
        params = tiny_model.params.astype(np.float64)  # wider than f32, so 1e39 can be held
        params.layers[-1][1][-1] = 1e39  # inf as f32
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(DataError, match="1e\\+39 is not finite as f32"):
                save_checkpoint(replace(tiny_model, params=params), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["m.fofe"]

    def test_trained_model_equals_its_checkpoint(self, tmp_path):
        # a library caller who keeps the returned model gets the floats that
        # ``build`` reads from the checkpoint, also after resuming
        synthetic.generate(tmp_path, synthetic.SyntheticConfig(seed=0))
        lines = (tmp_path / "corpus.txt").read_text(encoding="utf-8").splitlines()[:200]
        cfg = LmConfig(epochs=2)
        path = tmp_path / "m.fofe"

        def checkpointed(model):
            save_checkpoint(model, path)
            loaded = load_checkpoint(path)
            for ours, theirs in zip(model.params.tensors(), loaded.params.tensors(), strict=True):
                assert ours.dtype == theirs.dtype == np.float32
                assert ours.tobytes() == theirs.tobytes()
            return loaded

        loaded = checkpointed(train_lm(lines, cfg))
        before = [t.copy() for t in loaded.params.tensors()]
        checkpointed(train_lm(lines, replace(cfg, epochs=1), model=loaded))
        # the model resumed from is left as it was
        assert all(np.array_equal(a, b) for a, b in zip(before, loaded.params.tensors()))

    def test_resume_continues_from_params(self, toy_lines, tmp_path):
        cfg = LmConfig(embed_dim=4, hidden_dims=(8,), max_vocab=30, epochs=2, seed=1)
        model = train_lm(toy_lines[:10], cfg)
        path = tmp_path / "m.fofe"
        save_checkpoint(model, path)
        resumed = train_lm(toy_lines[:10], cfg, model=load_checkpoint(path))
        assert resumed.vocab.tokens == model.vocab.tokens
        assert not np.array_equal(resumed.params.embedding, model.params.embedding)

    def test_written_like_save_checkpoint(self, tiny_model, tmp_path):
        ours, theirs = tmp_path / "a.fofe", tmp_path / "b.fofe"
        (w0, b0), (w1, b1) = tiny_model.params.layers
        write_checkpoint(tiny_model, ours, [tiny_model.params.embedding, w0, b0, w1, b1])
        save_checkpoint(tiny_model, theirs)
        assert ours.read_bytes() == theirs.read_bytes()

    @pytest.mark.parametrize(
        "case",
        [
            "weight transposed",
            "embedding row too many",
            "bias element too many",
            "huge dims",
            "repeated token",
            "first token not unk",
            "one layer dim",
        ],
    )
    def test_well_framed_wrong_shapes(self, tiny_model, tmp_path, case):
        embedding = tiny_model.params.embedding
        (w0, b0), (w1, b1) = tiny_model.params.layers
        dims, tokens = None, list(tiny_model.vocab.tokens)
        if case == "weight transposed":
            assert w0.shape[0] != w0.shape[1]
            w0 = w0.T
        elif case == "embedding row too many":
            embedding = np.vstack([embedding, embedding[:1]])
        elif case == "bias element too many":
            b1 = np.append(b1, 0.0)
        elif case == "huge dims":  # a hidden width whose weights no memory could hold
            dims = tiny_model.config.layer_dims(len(tiny_model.vocab))
            dims[1:-1] = [2**32 - 1, 2**32 - 1]
        elif case == "repeated token":  # the count, and so every shape, still fits
            tokens[-1] = tokens[1]
        elif case == "first token not unk":
            tokens[0], tokens[1] = tokens[1], tokens[0]
        else:  # the input width alone: no output layer
            dims = tiny_model.config.layer_dims(len(tiny_model.vocab))[:1]
        path = tmp_path / "m.fofe"
        write_checkpoint(tiny_model, path, [embedding, w0, b0, w1, b1], dims, tokens)
        with pytest.raises(DataError, match="corrupt checkpoint"):
            load_checkpoint(path)
