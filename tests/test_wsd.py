import math
import os
import re
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fofe_wsd import lm, synthetic, wsd
from fofe_wsd.corpus import UNK_TOKEN, SenseInventory, Vocabulary, read_labeled_corpus, read_sense_inventory
from fofe_wsd.errors import DataError
from fofe_wsd.wsd import (
    ClassifierConfig,
    ClassifierStore,
    LemmaBlock,
    NoClassifierError,
    build_classifier_store,
    build_sense_embeddings,
    load_store,
    predict_all,
    predict_cosine,
    predict_knn,
    read_predictions,
    save_store,
    write_predictions,
)
from containers import container, put_floats, put_str, put_u32, write_container
from labeled import Instance, corpus_of, embed


def _store(dim, lemma_pairs):
    """A collected store of the (lemma, sense, vector) pairs; lemmas and each lemma's keys in first-use order."""
    index, codes, vectors = {}, {}, {}
    for lemma, sense, vec in lemma_pairs:
        keys = index.setdefault(lemma, {})
        codes.setdefault(lemma, []).append(keys.setdefault(sense, len(keys)))
        vectors.setdefault(lemma, []).append(np.asarray(vec, dtype=float))
    blocks = [
        LemmaBlock(lemma, list(keys), np.array(codes[lemma], dtype=np.uint32), np.array(vectors[lemma]).reshape(-1, dim))
        for lemma, keys in index.items()
    ]
    return ClassifierStore(dim, len(blocks), blocks)


def _empty_block(dim, lemma="w"):
    """A block of no pairs."""
    return LemmaBlock(lemma, [], np.zeros(0, dtype=np.uint32), np.zeros((0, dim)))


def _blocks(store):
    """Each lemma's block, by lemma."""
    return {block.lemma: block for block in store.blocks}


def _senses(store):
    """Each lemma's sense key per pair, in pair order."""
    return {block.lemma: [block.keys[c] for c in block.codes] for block in store.blocks}


def _instance(instance_id, tokens, target, lemma, senses):
    return Instance(instance_id, list(tokens), target, lemma, frozenset(senses))


def _corpus(instances):
    """The instances as ``read_labeled_corpus`` reads them from a file."""
    return corpus_of((i.instance_id, i.tokens, i.target_index, i.lemma, i.sense_keys) for i in instances)


class TestBuildClassifierStore:
    def test_groups_by_lemma(self, tiny_model):
        words = tiny_model.vocab.tokens[1:6]
        instances = [
            _instance("i1", words, 2, "bank", {"bank%1"}),
            _instance("i2", words[::-1], 1, "bank", {"bank%2"}),
        ]
        store = build_classifier_store(tiny_model, _corpus(instances), SenseInventory({"bank": ["bank%1", "bank%2"]}))
        (block,) = store.blocks
        assert block.lemma == "bank" and store.n_lemmas == 1
        assert block.pairs.shape == (2, tiny_model.config.hidden_dims[-1])
        assert _senses(store)["bank"] == ["bank%1", "bank%2"]
        contexts = [(inst.tokens, inst.target_index) for inst in instances]
        # the float32 embeddings, as the store holds them
        assert block.pairs.dtype == np.float32
        assert_array_equal(block.pairs, embed(tiny_model, contexts))

    def test_empty_instances(self, tiny_model):
        store = build_classifier_store(tiny_model, _corpus([]), SenseInventory({}))
        assert store.blocks == [] and store.n_lemmas == 0

    def test_multi_gold_shares_one_embedding(self, tiny_model):
        words = tiny_model.vocab.tokens[1:5]
        store = build_classifier_store(
            tiny_model, _corpus([_instance("i1", words, 1, "w", {"w%2", "w%1"})]), SenseInventory({"w": ["w%1", "w%2"]})
        )
        assert _senses(store)["w"] == ["w%1", "w%2"]  # sorted key order
        (block,) = store.blocks
        assert_array_equal(block.pairs[0], block.pairs[1])

    def test_interleaved_lemmas_and_a_split_multi_gold_instance(self, tiny_model, monkeypatch):
        # 3 contexts per chunk: b's 3 instances fill the first chunk and a's the
        # second, whose last, the multi-gold i6, gives a's last two pairs
        monkeypatch.setattr(lm, "_EMBED_BATCH", 3)
        words = tiny_model.vocab.tokens[1:9]
        lemmas = ["b", "a", "b", "a", "b", "a"]
        golds = [{"b%1"}, {"a%2"}, {"b%2"}, {"a%1"}, {"b%1"}, {"a%1", "a%2"}]
        instances = [
            _instance(f"i{n + 1}", words[n : n + 3], n % 3, lemma, gold)
            for n, (lemma, gold) in enumerate(zip(lemmas, golds))
        ]
        inventory = SenseInventory({"a": ["a%1", "a%2"], "b": ["b%1", "b%2"]})
        chunks = _recorded(monkeypatch, "context_embeddings", lambda args, rows: len(rows))
        store = build_classifier_store(tiny_model, _corpus(instances), inventory)
        assert chunks == [3, 3]  # the chunks of one call over every instance, each its own call
        b, a = store.blocks
        assert (b.lemma, a.lemma, store.n_lemmas) == ("b", "a", 2)  # first-use order
        assert (b.keys, a.keys) == (["b%1", "b%2"], ["a%2", "a%1"])
        assert (b.codes.tolist(), a.codes.tolist()) == ([0, 1, 0], [0, 1, 1, 0])
        assert _senses(store) == {"b": ["b%1", "b%2", "b%1"], "a": ["a%2", "a%1", "a%1", "a%2"]}
        # pairs in instance order, then sorted keys
        order = [instances[n] for n in (0, 2, 4, 1, 3, 5, 5)]
        rows = np.concatenate([b.pairs, a.pairs])
        for row, inst in zip(rows, order, strict=True):
            assert_allclose(row, embed(tiny_model, [(inst.tokens, inst.target_index)])[0], atol=1e-12)
        assert a.pairs[2].tobytes() == a.pairs[3].tobytes()
        # streamed, b's block comes as soon as the first chunk is embedded, and equals the built one
        chunks.clear()
        stream = wsd.stream_classifier_store(tiny_model, _corpus(instances), inventory)
        assert chunks == []
        lemma, keys, codes, pairs = next(stream.blocks)
        assert (lemma, keys, codes.tolist(), chunks) == ("b", ["b%1", "b%2"], [0, 1, 0], [3])
        assert pairs.tobytes() == b.pairs.tobytes()
        assert [block.lemma for block in stream.blocks] == ["a"] and chunks == [3, 3]

    def test_each_instance_is_embedded_once(self, tiny_model, monkeypatch):
        words = tiny_model.vocab.tokens[1:9]
        instances = [
            _instance("i1", words[:4], 1, "w", {"w%2", "w%1"}),
            _instance("i2", words[2:], 2, "w", {"w%1"}),
            _instance("i3", words[1:6], 3, "v", {"v%1", "v%3", "v%2"}),
        ]
        inventory = SenseInventory({"w": ["w%1", "w%2"], "v": ["v%1", "v%2", "v%3"]})
        returned = []
        context_embeddings = wsd.context_embeddings

        def counted(*args):
            returned.append(context_embeddings(*args))
            return returned[-1]

        monkeypatch.setattr(wsd, "context_embeddings", counted)
        store = build_classifier_store(tiny_model, _corpus(instances), inventory)
        assert sum(map(len, returned)) == len(instances)
        assert _senses(store) == {"w": ["w%1", "w%2", "w%1"], "v": ["v%1", "v%2", "v%3"]}
        # each pair is its instance's one row, bit for bit
        assert_array_equal(np.concatenate([block.pairs for block in store.blocks]), returned[0][[0, 0, 1, 2, 2, 2]])
        # with one key per instance, the pairs are views of the embedded rows
        (block,) = build_classifier_store(tiny_model, _corpus(instances[1:2]), inventory).blocks
        assert block.pairs.base is returned[-1]

    def test_inventory_checked_before_embedding(self, tiny_model, monkeypatch):
        words = tiny_model.vocab.tokens[1:6]
        inventory = SenseInventory({"bank": ["bank%1", "bank%2"]})
        instances = [
            _instance("i1", words, 2, "bank", {"bank%1"}),
            _instance("i2", words, 3, "bank", {"bank%9", "bank%8"}),
            _instance("i3", words, 1, "ghost", {"g%1"}),
            _instance("i4", words, 4, "bank", {"bank%1", "bank%7"}),
            _instance("i5", words, 1, "oak", {"oak%1"}),
        ]

        def no_embedding(*args):
            raise AssertionError("embedded before the inventory checks")

        monkeypatch.setattr(wsd, "context_embeddings", no_embedding)
        with pytest.raises(DataError, match=r"unknown lemma .*: i3, i5$"):
            build_classifier_store(tiny_model, _corpus(instances), inventory)
        listed_lemmas = _corpus(inst for inst in instances if inst.lemma == "bank")
        with pytest.raises(DataError, match=r"not listed .*: i2 \(bank%8, bank%9\), i4 \(bank%7\)$"):
            build_classifier_store(tiny_model, listed_lemmas, inventory)


class TestPredictKnn:
    def test_majority_of_three_nearest(self):
        (block,) = _store(
            2,
            [
                ("w", "A", (1.0, 0.0)),
                ("w", "A", (0.9, 0.1)),
                ("w", "A", (1.0, 0.1)),
                ("w", "B", (0.0, 1.0)),
                ("w", "B", (0.1, 1.0)),
            ],
        ).blocks
        assert predict_knn(block, ClassifierConfig(k=3), np.array([1.0, 0.0])) == "A"

    def test_single_pair(self):
        (block,) = _store(2, [("w", "B", (0.3, 0.4))]).blocks
        assert predict_knn(block, ClassifierConfig(k=1), np.array([1.0, 1.0])) == "B"

    def test_vote_tie_broken_by_mean_distance(self):
        # A sits at distance 0.0, B at cosine distance 0.3 from the query
        b = (0.7, math.sqrt(1.0 - 0.7**2))
        (block,) = _store(2, [("w", "A", (1.0, 0.0)), ("w", "B", b)]).blocks
        assert predict_knn(block, ClassifierConfig(k=2), np.array([1.0, 0.0])) == "A"

    def test_residual_tie_uses_inventory_order(self):
        (block,) = _store(2, [("w", "zz", (1.0, 0.0)), ("w", "aa", (1.0, 0.0))]).blocks
        cfg = ClassifierConfig(k=2)
        query = np.array([1.0, 0.0])
        inv = SenseInventory(entries={"w": ["zz", "aa"]})
        assert predict_knn(block, cfg, query, inv) == "zz"
        # without an inventory the fallback is lexicographic
        assert predict_knn(block, cfg, query) == "aa"

    def test_missing_lemma_signals_no_classifier(self):
        with pytest.raises(NoClassifierError, match="^other$"):
            predict_knn(_empty_block(2, "other"), ClassifierConfig(), np.array([1.0, 0.0]))

    def test_zero_norm_vectors_at_distance_one(self):
        (block,) = _store(2, [("w", "A", (0.0, 0.0)), ("w", "B", (1.0, 0.0))]).blocks
        # zero-norm training vector never beats an aligned one
        assert predict_knn(block, ClassifierConfig(k=1), np.array([1.0, 0.0])) == "B"
        # zero-norm query: every distance is 1, majority over all pairs applies
        (block2,) = _store(2, [("w", "A", (1.0, 0.0)), ("w", "A", (0.0, 1.0)), ("w", "B", (1.0, 1.0))]).blocks
        assert predict_knn(block2, ClassifierConfig(k=3), np.zeros(2)) == "A"

    def test_k_at_least_total_pairs_is_global_majority(self):
        (block,) = _store(
            2,
            [
                ("w", "A", (1.0, 0.0)),
                ("w", "B", (0.99, 0.01)),
                ("w", "B", (0.98, 0.02)),
            ],
        ).blocks
        assert predict_knn(block, ClassifierConfig(k=50), np.array([1.0, 0.0])) == "B"

    def test_scale_invariance_of_query(self):
        rng = np.random.default_rng(0)
        (block,) = _store(3, [("w", f"s{j % 3}", rng.normal(size=3)) for j in range(12)]).blocks
        cfg = ClassifierConfig(k=5)
        for _ in range(50):
            q = rng.normal(size=3)
            base = predict_knn(block, cfg, q)
            for scale in (1e-3, 7.3, 1e4):
                assert predict_knn(block, cfg, scale * q) == base

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        (block,) = _store(4, [("w", f"s{j % 4}", rng.normal(size=4)) for j in range(20)]).blocks
        q = rng.normal(size=4)
        cfg = ClassifierConfig(k=8)
        assert predict_knn(block, cfg, q) == predict_knn(block, cfg, q)


def _reference_knn(pairs, k, query, sense_order):
    """Exhaustive-sort reference with the same tie ladder, written plainly."""

    def cosine_distance(u, v):
        nu = math.sqrt(sum(x * x for x in u))
        nv = math.sqrt(sum(x * x for x in v))
        if nu == 0.0 or nv == 0.0:
            return 1.0
        return 1.0 - sum(a * b for a, b in zip(u, v)) / (nu * nv)

    scored = [(cosine_distance(query, vec), i) for i, (_, vec) in enumerate(pairs)]
    scored.sort(key=lambda t: (t[0], t[1]))
    chosen = scored[: min(k, len(pairs))]
    votes = {}
    dists = {}
    for dist, i in chosen:
        sense = pairs[i][0]
        votes[sense] = votes.get(sense, 0) + 1
        dists.setdefault(sense, []).append(dist)
    rank = {s: i for i, s in enumerate(sense_order)}
    best = None
    for sense in votes:
        key = (-votes[sense], sum(dists[sense]) / votes[sense], rank.get(sense, len(rank)), sense)
        if best is None or key < best[0]:
            best = (key, sense)
    return best[1]


class TestKnnBruteForceEquivalence:
    def test_matches_reference_on_random_queries(self):
        rng = np.random.default_rng(42)
        inv = SenseInventory(entries={"w": ["s0", "s1", "s2"]})
        for trial in range(20):
            dim = int(rng.integers(1, 5))
            n = int(rng.integers(1, 21))
            pairs = [(f"s{int(rng.integers(0, 3))}", rng.normal(size=dim)) for _ in range(n)]
            (block,) = _store(dim, [("w", s, v) for s, v in pairs]).blocks
            k = int(rng.integers(1, 12))
            cfg = ClassifierConfig(k=k)
            for _ in range(50):
                q = rng.normal(size=dim)
                expected = _reference_knn(pairs, k, list(q), ["s0", "s1", "s2"])
                assert predict_knn(block, cfg, q, inv) == expected


def _means(store):
    """Each lemma's sense -> mean embedding, from ``build_sense_embeddings`` of its block."""
    means = [build_sense_embeddings(block) for block in store.blocks]
    return {block.lemma: dict(zip([block.keys[c] for c in block.codes], block.pairs)) for block in means}


def oracle_sense_embeddings(lemma_pairs):
    """The per-pair loop: each sense's embeddings summed in pair order."""
    means = {}
    for lemma, pairs in lemma_pairs.items():
        sums, counts = {}, {}
        for sense, emb in pairs:
            sums[sense] = sums[sense] + emb if sense in sums else emb.astype(np.float64, copy=True)
            counts[sense] = counts.get(sense, 0) + 1
        means[lemma] = {sense: sums[sense] / counts[sense] for sense in sums}
    return means


class TestSenseEmbeddings:
    def test_bit_equal_to_per_pair_loop(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            dim = int(rng.integers(1, 40))
            lemma_pairs = {
                f"w{j}": [
                    (f"s{int(rng.integers(0, 4))}", rng.normal(size=dim))
                    for _ in range(int(rng.integers(1, 30)))
                ]
                for j in range(int(rng.integers(1, 4)))
            }
            store = _store(dim, [(lemma, s, v) for lemma, pairs in lemma_pairs.items() for s, v in pairs])
            means = _means(store)
            expected = oracle_sense_embeddings(lemma_pairs)
            assert [list(m) for m in means.values()] == [list(m) for m in expected.values()]
            for lemma in expected:
                for sense in expected[lemma]:
                    assert np.array_equal(means[lemma][sense], expected[lemma][sense])

    def test_single_pair_mean_is_the_pair(self):
        store = _store(2, [("w", "A", (0.25, 0.75))])
        assert_array_equal(_means(store)["w"]["A"], [0.25, 0.75])

    def test_two_pair_mean(self):
        store = _store(2, [("w", "A", (1.0, 0.0)), ("w", "A", (0.0, 1.0))])
        assert_array_equal(_means(store)["w"]["A"], [0.5, 0.5])

    def test_empty_store(self):
        lemma, keys, codes, rows = build_sense_embeddings(_empty_block(3))
        assert (lemma, keys, codes.tolist(), rows.shape) == ("w", [], [], (0, 3))

    def test_mean_inside_coordinatewise_hull(self):
        rng = np.random.default_rng(2)
        vecs = [rng.normal(size=4) for _ in range(9)]
        store = _store(4, [("w", "A", v) for v in vecs])
        mean = _means(store)["w"]["A"]
        stacked = np.stack(vecs)
        assert np.all(mean >= stacked.min(axis=0) - 1e-12)
        assert np.all(mean <= stacked.max(axis=0) + 1e-12)


class TestPredictCosine:
    @staticmethod
    def _sense_means(sense_vectors):
        """``build_sense_embeddings`` of lemma ``w``'s block of the (sense, vector) pairs."""
        (block,) = _store(2, [("w", sense, vec) for sense, vec in sense_vectors]).blocks
        return build_sense_embeddings(block)

    def test_nearest_sense_embedding(self):
        means = self._sense_means([("A", (1.0, 0.0)), ("B", (0.0, 1.0))])
        assert predict_cosine(means, np.array([0.9, 0.1])) == "A"

    def test_exact_match_wins(self):
        means = self._sense_means([("A", (1.0, 0.0)), ("B", (0.6, 0.8))])
        assert predict_cosine(means, np.array([0.6, 0.8])) == "B"

    def test_tie_broken_by_inventory_order(self):
        means = self._sense_means([("bbb", (1.0, 0.0)), ("aaa", (0.0, 1.0))])
        inv = SenseInventory(entries={"w": ["bbb", "aaa"]})
        assert predict_cosine(means, np.array([1.0, 1.0]), inv) == "bbb"
        assert predict_cosine(means, np.array([1.0, 1.0])) == "aaa"

    def test_missing_lemma(self):
        means = build_sense_embeddings(_empty_block(2))
        with pytest.raises(NoClassifierError, match="^w$"):
            predict_cosine(means, np.array([1.0, 0.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        (block,) = _store(3, [("w", f"s{j}", rng.normal(size=3)) for j in range(4)]).blocks
        means = build_sense_embeddings(block)
        for _ in range(25):
            q = rng.normal(size=3)
            assert predict_cosine(means, q) == predict_cosine(means, 100.0 * q)


class TestPredictWithBackoff:
    def test_knn_path_when_pairs_exist(self, tiny_model):
        words = tiny_model.vocab.tokens[1:6]
        train = _corpus([_instance("t1", words, 2, "bank", {"bank%1"})])
        inv = SenseInventory(entries={"bank": ["bank%2", "bank%1"]})
        store = build_classifier_store(tiny_model, train, inv)
        test = _corpus([_instance("q1", words, 2, "bank", {"bank%1"})])
        assert predict_all(store, inv, tiny_model, ClassifierConfig(), test) == ["bank%1"]

    def test_backoff_to_first_sense(self, tiny_model):
        inv = SenseInventory(entries={"bank": ["bank%1", "bank%2"]})
        store = ClassifierStore(tiny_model.config.hidden_dims[-1], 0, [])
        test = _corpus([_instance("q1", tiny_model.vocab.tokens[1:4], 1, "bank", {"bank%2"})])
        assert predict_all(store, inv, tiny_model, ClassifierConfig(), test) == ["bank%1"]

    def test_unknown_lemma_everywhere(self, tiny_model):
        inv = SenseInventory(entries={})
        store = ClassifierStore(tiny_model.config.hidden_dims[-1], 0, [])
        test = _corpus([_instance("q1", tiny_model.vocab.tokens[1:4], 1, "ghost", {"g%1"})])
        with pytest.raises(DataError, match="unknown lemma"):
            predict_all(store, inv, tiny_model, ClassifierConfig(), test)

    def test_lemma_in_store_but_not_inventory(self, tiny_model, monkeypatch):
        words = tiny_model.vocab.tokens[1:6]
        store = build_classifier_store(
            tiny_model, _corpus([_instance("t1", words, 2, "bank", {"bank%1"})]), SenseInventory({"bank": ["bank%1"]})
        )
        inv = SenseInventory(entries={"rose": ["rose%1"]})
        test = _corpus([
            _instance("q1", words, 2, "bank", {"bank%1"}),
            _instance("q2", words, 1, "rose", {"rose%1"}),
            _instance("q3", words, 3, "bank", {"bank%1"}),
        ])

        def no_embedding(*args):
            raise AssertionError("embedded before the lemma check")

        monkeypatch.setattr(wsd, "context_embeddings", no_embedding)
        with pytest.raises(DataError, match=r"unknown lemma .*: q1, q3$"):
            predict_all(store, inv, tiny_model, ClassifierConfig(), test)

    def test_predict_all_keeps_order_and_paths(self, tiny_model):
        words = tiny_model.vocab.tokens[1:9]
        train = [
            _instance("t1", words[:5], 2, "bank", {"bank%1"}),
            _instance("t2", words[2:], 4, "bank", {"bank%2"}),
            _instance("t3", words[1:7], 0, "rose", {"rose%1"}),
        ]
        inv = SenseInventory(entries={"bank": ["bank%2", "bank%1"], "rose": ["rose%1"], "oak": ["oak%3"]})
        store = build_classifier_store(tiny_model, _corpus(train), inv)
        cfg = ClassifierConfig(k=1)
        test = [
            _instance("q1", words[:4], 1, "oak", {"oak%3"}),
            _instance("q2", words[3:], 2, "bank", {"bank%1"}),
            _instance("q3", words, 5, "rose", {"rose%1"}),
            _instance("q4", words[:6], 0, "bank", {"bank%2"}),
        ]
        blocks = _blocks(store)
        expected = [
            predict_knn(
                blocks[inst.lemma],
                cfg,
                embed(tiny_model, [(inst.tokens, inst.target_index)])[0],
                inv,
            )
            if inst.lemma in blocks
            else inv.first_sense(inst.lemma)
            for inst in test
        ]
        assert predict_all(store, inv, tiny_model, cfg, _corpus(test)) == expected
        assert predict_all(store, inv, tiny_model, cfg, _corpus([])) == []


def _fed_queries(monkeypatch, store, queries):
    """A stand-in model; instance ``q{i}`` embeds to ``queries[i]``.

    The instance's one token is ``i``, whose model id is ``i + 1``, and
    ``wsd.context_embeddings`` is replaced by a lookup of it.
    """

    def lookup(model, tokens, starts, lengths, positions):
        rows = [queries[i - 1] for i in tokens[starts + positions].tolist()]
        return np.array(rows, dtype=float).reshape(len(positions), store.dim)

    monkeypatch.setattr(wsd, "context_embeddings", lookup)
    vocab = Vocabulary.from_tokens([UNK_TOKEN, *map(str, range(len(queries)))])
    return SimpleNamespace(vocab=vocab, config=SimpleNamespace(held_out_dim=store.dim))


def _query_instances(lemmas):
    return _corpus(_instance(f"q{i}", (str(i),), 0, lemma, {"x"}) for i, lemma in enumerate(lemmas))


def _oracle(store, inv, cfg, corpus, queries):
    lemmas, blocks = [corpus.lemmas[code] for code in corpus.lemma_codes], _blocks(store)
    return [
        predict_knn(blocks[lemma], cfg, queries[i], inv) if lemma in blocks else inv.first_sense(lemma)
        for i, lemma in enumerate(lemmas)
    ]


def _counted_knn(monkeypatch):
    """Replace ``wsd.predict_knn`` by a wrapper; returns its list of call lemmas."""
    calls = []

    def counted(block, cfg, query, inventory=None):
        calls.append(block.lemma)
        return predict_knn(block, cfg, query, inventory)

    monkeypatch.setattr(wsd, "predict_knn", counted)
    return calls


def _random_store(rng, dim, n_lemmas):
    """Seeded lemmas of 1-40 pairs over 2-4 senses, with duplicates and zero rows.

    Half the lemmas hold small-integer vectors, whose distances tie exactly.
    """
    pairs, inventory = [], {}
    for li in range(n_lemmas):
        lemma, keys = f"w{li}", [f"w{li}%{s}" for s in range(int(rng.integers(2, 5)))]
        inventory[lemma] = [keys[i] for i in rng.permutation(len(keys))]
        integral = li % 2 == 0
        for _ in range(int(rng.integers(1, 41))):
            vec = rng.integers(-1, 2, size=dim).astype(float) if integral else rng.normal(size=dim)
            if rng.random() < 0.1:
                vec = np.zeros(dim)
            # a multi-gold instance: one embedding under several senses, in key order
            for sense in sorted(rng.choice(keys, size=1 + int(rng.random() < 0.2), replace=False)):
                pairs.append((lemma, str(sense), vec))
    for li in range(n_lemmas, n_lemmas + 3):  # backoff-only lemmas
        inventory[f"w{li}"] = [f"w{li}%b", f"w{li}%a"]
    return _store(dim, pairs), SenseInventory(inventory)


def _random_queries(rng, store, lemmas):
    """Random queries, all-zero ones and exact copies of a pair of the lemma."""
    queries, blocks = [], _blocks(store)
    for lemma in lemmas:
        pick = rng.random()
        if pick < 0.1:
            queries.append(np.zeros(store.dim))
        elif pick < 0.3 and lemma in blocks:
            vectors = blocks[lemma].pairs
            queries.append(vectors[int(rng.integers(len(vectors)))].copy())
        elif pick < 0.5:
            queries.append(rng.integers(-1, 2, size=store.dim).astype(float))
        else:
            queries.append(rng.normal(size=store.dim))
    return queries


class TestPredictAllEqualsOracle:
    """``predict_all`` answers what ``predict_knn`` (or first-sense backoff) answers, query by query."""

    @pytest.mark.parametrize("k", [1, 3, 8, 50])
    def test_random_stores(self, monkeypatch, k):
        rng = np.random.default_rng(1000 + k)
        calls = _counted_knn(monkeypatch)
        queried = fell_back = 0
        for trial in range(6):
            store, inv = _random_store(rng, int(rng.integers(2, 6)), 6)
            lemmas = [str(rng.choice(list(inv.entries))) for _ in range(200)]  # interleaved
            queries = _random_queries(rng, store, lemmas)
            instances = _query_instances(lemmas)
            model = _fed_queries(monkeypatch, store, queries)
            calls.clear()
            got = predict_all(store, inv, model, ClassifierConfig(k=k), instances)
            assert got == _oracle(store, inv, ClassifierConfig(k=k), instances, queries)
            queried += sum(lemma in _blocks(store) for lemma in lemmas)
            fell_back += len(calls)
        # ties are common here, but most queries still take the batched path
        assert 0 < fell_back < queried / 2

    @pytest.mark.parametrize("budget", [1, 7, 64])
    def test_queries_span_several_blocks(self, monkeypatch, budget):
        rng = np.random.default_rng(7)
        store, inv = _random_store(rng, 3, 4)
        lemmas = [str(rng.choice(list(inv.entries))) for _ in range(120)]
        queries = _random_queries(rng, store, lemmas)
        instances = _query_instances(lemmas)
        model = _fed_queries(monkeypatch, store, queries)
        cfg = ClassifierConfig(k=3)
        expected = _oracle(store, inv, cfg, instances, queries)
        calls = _counted_knn(monkeypatch)
        blocks = _recorded(monkeypatch, "_cosine_distances", lambda args, distances: len(args[0]))
        monkeypatch.setattr(wsd, "_BLOCK_ELEMENTS", budget)
        assert predict_all(store, inv, model, cfg, instances) == expected
        # each fallback to predict_knn adds a one-row call
        assert len(blocks) - len(calls) > len(store.blocks)
        assert sum(blocks) - len(calls) == sum(lemma in _blocks(store) for lemma in lemmas)
        assert max(blocks) == max(1, budget // min(len(block.pairs) for block in store.blocks))

    def test_zero_rows_and_zero_query(self, monkeypatch):
        store = _store(
            2,
            [("w", "A", (0.0, 0.0)), ("w", "B", (1.0, 0.0)), ("w", "B", (0.0, 0.0)), ("w", "A", (0.0, 1.0))],
        )
        inv = SenseInventory({"w": ["B", "A"], "v": ["v%1"]})
        queries = [np.zeros(2), np.array([1.0, 0.1]), np.array([0.2, 1.0]), np.array([1.0, 1.0])]
        instances = _query_instances(["w", "w", "v", "w"])
        model = _fed_queries(monkeypatch, store, queries)
        for k in (1, 2, 3, 4, 9):
            cfg = ClassifierConfig(k=k)
            assert predict_all(store, inv, model, cfg, instances) == _oracle(store, inv, cfg, instances, queries)

    def test_zero_query_with_clear_majority_stays_batched(self, monkeypatch):
        # every distance is 1; with k >= pairs the 2-1 vote decides
        store = _store(2, [("w", "B", (1.0, 0.0)), ("w", "A", (0.0, 1.0)), ("w", "A", (1.0, 1.0))])
        inv = SenseInventory({"w": ["B", "A"]})
        model = _fed_queries(monkeypatch, store, [np.zeros(2)])
        calls = _counted_knn(monkeypatch)
        assert predict_all(store, inv, model, ClassifierConfig(k=3), _query_instances(["w"])) == ["A"]
        assert calls == []

    def test_non_finite_queries(self, monkeypatch):
        # an inf component puts every pair at NaN distance; a NaN query sits at distance 1 from every pair
        rows = [("A", (1.0, 0.0)), ("B", (0.0, 1.0)), ("A", (1.0, 0.2)), ("B", (0.1, 1.0)), ("A", (0.9, 0.1))]
        store = _store(2, [("w", sense, vec) for sense, vec in rows])
        inv = SenseInventory({"w": ["B", "A"]})
        queries = [np.array([np.inf, 0.0]), np.array([1.0, np.nan]), np.array([-np.inf, np.inf]), np.array([1.0, 0.1])]
        instances = _query_instances(["w"] * len(queries))
        model = _fed_queries(monkeypatch, store, queries)
        fell_back = []  # the query of each call of ``wsd.predict_knn``

        def recorded(block, cfg, query, inventory=None):
            fell_back.append(next(i for i, q in enumerate(queries) if np.array_equal(q, query, equal_nan=True)))
            return predict_knn(block, cfg, query, inventory)

        monkeypatch.setattr(wsd, "predict_knn", recorded)
        for k in (2, 5, 9):  # below, at and beyond the pair count
            cfg = ClassifierConfig(k=k)
            fell_back.clear()
            assert predict_all(store, inv, model, cfg, instances) == _oracle(store, inv, cfg, instances, queries)
            assert {0, 2} <= set(fell_back)
            # every distance of the NaN query is 1: a tie at the k-th below the pair count, a 3-2 vote at or beyond it
            assert (1 in fell_back) == (k < len(rows))

    def test_one_block_per_lemma_within_the_budget(self, monkeypatch):
        # the benchmark's shape of lemma, 150 queries of 300 pairs, and a smaller lemma interleaved with it
        rng = np.random.default_rng(11)
        store = _store(8, [(lemma, f"{lemma}%{rng.integers(3)}", rng.normal(size=8)) for lemma in "w" * 300 + "v" * 40])
        inv = SenseInventory({block.lemma: sorted(block.keys) for block in store.blocks})
        lemmas = rng.permutation(list("w" * 150 + "v" * 60)).tolist()
        queries = _random_queries(rng, store, lemmas)
        instances = _query_instances(lemmas)
        model = _fed_queries(monkeypatch, store, queries)
        cfg = ClassifierConfig(k=8)
        expected = _oracle(store, inv, cfg, instances, queries)
        assert 300 * 150 <= wsd._BLOCK_ELEMENTS
        calls = _counted_knn(monkeypatch)
        blocks = _recorded(monkeypatch, "_cosine_distances", lambda args, distances: len(args[0]))
        assert predict_all(store, inv, model, cfg, instances) == expected
        # one block per lemma; each fallback to predict_knn adds a one-row call
        assert len(blocks) - len(calls) == 2
        assert sorted(blocks, reverse=True)[:2] == [150, 60]


class TestCertificate:
    """Near-ties go to ``predict_knn``; a clear vote stays on the batched path."""

    def test_kth_and_next_distance_tie(self, monkeypatch):
        # duplicate rows under two senses: the first and second distances are both 0
        store = _store(2, [("w", "B", (1.0, 0.0)), ("w", "A", (1.0, 0.0)), ("w", "A", (0.0, 1.0))])
        inv = SenseInventory({"w": ["A", "B"]})
        queries = [np.array([2.0, 0.0])]
        instances = _query_instances(["w"])
        model = _fed_queries(monkeypatch, store, queries)
        calls = _counted_knn(monkeypatch)
        cfg = ClassifierConfig(k=1)
        assert predict_all(store, inv, model, cfg, instances) == _oracle(store, inv, cfg, instances, queries) == ["B"]
        assert calls == ["w"]

    def test_kth_and_next_distance_within_bound(self, monkeypatch):
        # the second distance is a few ulps above the first: not a tie, but too close to certify
        store = _store(2, [("w", "A", (1.0, 0.0)), ("w", "B", (1.0, 1e-7))])
        inv = SenseInventory({"w": ["B", "A"]})
        queries = [np.array([1.0, 0.0])]
        instances = _query_instances(["w"])
        model = _fed_queries(monkeypatch, store, queries)
        (gap,) = wsd._cosine_distances(wsd._unit_rows(queries[0]), wsd._unit_rows(store.blocks[0].pairs))
        assert 0.0 < gap[1] - gap[0] < wsd._CERTIFY_BOUND
        calls = _counted_knn(monkeypatch)
        cfg = ClassifierConfig(k=1)
        assert predict_all(store, inv, model, cfg, instances) == _oracle(store, inv, cfg, instances, queries) == ["A"]
        assert calls == ["w"]

    def test_vote_tie_with_equal_mean_distance(self, monkeypatch):
        # the two nearest are a clear k-th / (k+1)-th apart from the third, but
        # split 1-1 between senses at the same distance: inventory order decides
        store = _store(2, [("w", "A", (1.0, 1.0)), ("w", "B", (1.0, 1.0)), ("w", "A", (-1.0, 0.0))])
        inv = SenseInventory({"w": ["B", "A"]})
        queries = [np.array([3.0, 3.0])]
        instances = _query_instances(["w"])
        model = _fed_queries(monkeypatch, store, queries)
        calls = _counted_knn(monkeypatch)
        cfg = ClassifierConfig(k=2)
        assert predict_all(store, inv, model, cfg, instances) == _oracle(store, inv, cfg, instances, queries) == ["B"]
        assert calls == ["w"]

    def test_wide_margin_takes_no_fallback(self, monkeypatch):
        rng = np.random.default_rng(3)
        centres = {"A": np.array([1.0, 0.0, 0.0]), "B": np.array([0.0, 1.0, 0.0]), "C": np.array([0.0, 0.0, 1.0])}
        rows = [(s, centres[s] + 0.05 * rng.normal(size=3)) for s in "ABC" for _ in range(10)]
        rows.append(("A", centres["B"] + np.array([0.3, 0.0, 0.0])))  # a vote tie broken by a clear mean
        store = _store(3, [("w", s, v) for s, v in rows])
        inv = SenseInventory({"w": ["C", "B", "A"]})
        queries = [centres[s] + 0.02 * rng.normal(size=3) for s in "ABCABC"] + [centres["B"] + [0.1, 0.0, 0.0]]
        instances = _query_instances(["w"] * len(queries))
        model = _fed_queries(monkeypatch, store, queries)
        calls = _counted_knn(monkeypatch)
        for k in (1, 5, 2, len(rows), 100):
            cfg = ClassifierConfig(k=k)
            got = predict_all(store, inv, model, cfg, instances)
            assert got == _oracle(store, inv, cfg, instances, queries)
            assert calls == []
        assert predict_all(store, inv, model, ClassifierConfig(k=1), instances)[:6] == list("ABCABC")


def _write_store(path, dim, lemma, keys, codes, rows, version=wsd.STORE_VERSION):
    """A one-lemma store with the given key list and codes (a v1 store has one record per pair)."""
    out = container(wsd.STORE_MAGIC, version)
    put_u32(out, dim, 1)
    put_str(out, lemma)
    rows = np.asarray(rows, dtype=float).reshape(len(codes), dim)
    if version == 1:
        put_u32(out, len(codes))
        for code, row in zip(codes, rows):
            put_str(out, keys[code])
            put_floats(out, row)
    else:
        put_u32(out, len(codes), len(keys))
        for key in keys:
            put_str(out, key)
        put_u32(out, *codes)
        put_floats(out, rows)
    write_container(path, out)


def _hand_built(keys, codes, rows):
    """A 2-wide store of one lemma ``w`` holding the given key list, codes and rows as they are."""
    return ClassifierStore(2, 1, [LemmaBlock("w", list(keys), np.array(codes, dtype=np.uint32), rows)])


_INCONSISTENT_KEY_LISTS = pytest.mark.parametrize(
    "keys, codes, detail",
    [
        (["A"], [0, 1], "sense code 1 beyond the 1 keys of lemma 'w'"),
        (["A", "A"], [0, 1], "duplicate sense key for lemma 'w'"),
        (["A", "B"], [0, 0], "sense keys of lemma 'w' unused or not in first-use order"),
        (["A", "B"], [1, 0], "sense keys of lemma 'w' unused or not in first-use order"),
    ],
    ids=["code-out-of-range", "duplicate-key", "unused-key", "not-first-use-order"],
)


class TestStorePersistence:
    def test_block_layout(self, tmp_path):
        a, b = tmp_path / "a.fwsd", tmp_path / "b.fwsd"
        rows = [[0.5, 0.25], [1.0, 2.0], [-1.0, 0.0]]
        _write_store(a, 2, "w", ["B", "A"], [0, 1, 0], rows)
        loaded = load_store(a)
        assert _senses(loaded) == {"w": ["B", "A", "B"]}
        assert_array_equal(loaded.blocks[0].pairs, rows)
        save_store(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    @_INCONSISTENT_KEY_LISTS
    def test_inconsistent_key_list_is_corrupt(self, tmp_path, keys, codes, detail):
        path = tmp_path / "s.fwsd"
        _write_store(path, 2, "w", keys, codes, np.ones((len(codes), 2)))
        with pytest.raises(DataError, match=rf"corrupt classifier store: .* \({detail}\)"):
            load_store(path)

    @_INCONSISTENT_KEY_LISTS
    def test_inconsistent_key_list_is_not_written(self, tmp_path, keys, codes, detail):
        # the loader's checks, run as each lemma is written, before the file is replaced
        with pytest.raises(ValueError, match=rf"^{re.escape(detail)}$"):
            save_store(_hand_built(keys, codes, np.ones((len(codes), 2))), tmp_path / "s.fwsd")
        assert os.listdir(tmp_path) == []

    def test_bad_key_list_in_the_last_lemma_is_not_written(self, tmp_path, monkeypatch):
        path, earlier = tmp_path / "s.fwsd", tmp_path / "earlier.fwsd"
        save_store(_store(2, [("w", "A", (0.5, 0.5))]), path)
        old = path.read_bytes()
        # a and b hold 512 KiB of pairs each, more than the temp file's write buffer
        sizes = {"a": 1 << 16, "b": 1 << 16, "c": 1}
        blocks = [
            LemmaBlock(lemma, ["A"], np.zeros(n, dtype=np.uint32), np.full((n, 2), 0.5, dtype=np.float32))
            for lemma, n in sizes.items()
        ]
        save_store(ClassifierStore(2, 2, blocks[:2]), earlier)
        blocks[2] = blocks[2]._replace(codes=np.array([1], dtype=np.uint32))  # beyond c's one key
        in_temp = _recorded(monkeypatch, "_key_list_problem", lambda args, problem: os.path.getsize(f"{path}.tmp"))
        with pytest.raises(ValueError, match=r"^sense code 1 beyond the 1 keys of lemma 'c'$"):
            save_store(ClassifierStore(2, 3, iter(blocks)), path)
        # a and b were in the temp file, all but its trailer, when c was checked
        assert in_temp[-1] == earlier.stat().st_size - 8
        assert path.read_bytes() == old
        assert sorted(os.listdir(tmp_path)) == ["earlier.fwsd", "s.fwsd"]

    def test_stream_of_another_lemma_count_is_not_written(self, tmp_path):
        store = _store(2, [("w", "A", (0.5, 0.5))])
        with pytest.raises(ValueError, match=r"^a stream of 2 lemmas gave 1$"):
            save_store(store._replace(n_lemmas=2), tmp_path / "s.fwsd")
        assert os.listdir(tmp_path) == []

    def test_version_1_store_is_incompatible(self, tmp_path):
        path = tmp_path / "s.fwsd"
        _write_store(path, 2, "w", ["A", "B"], [0, 1], np.ones((2, 2)), version=1)
        with pytest.raises(DataError, match=rf"incompatible classifier store: .* \(version 1\)"):
            load_store(path)

    def test_value_beyond_f32_is_not_written(self, tmp_path):
        path = tmp_path / "s.fwsd"
        save_store(_store(2, [("w", "A", (0.5, 0.5))]), path)
        old = path.read_bytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no numpy overflow warning either
            with pytest.raises(DataError, match=r"1e\+39 is not finite as f32"):
                save_store(_store(2, [("w", "A", (0.5, 0.5)), ("w", "B", (1e39, 0.5))]), path)
        assert path.read_bytes() == old
        assert os.listdir(tmp_path) == ["s.fwsd"]

    @pytest.mark.parametrize("senses, shape", [(["A"], (2, 2)), (["A", "B"], (2, 3))], ids=["rows", "width"])
    def test_pairs_not_matching_keys_and_dim_are_not_written(self, tmp_path, senses, shape):
        path = tmp_path / "s.fwsd"
        with pytest.raises(ValueError, match=r"lemma 'w': \d sense keys, pairs of shape"):
            save_store(_hand_built(senses, range(len(senses)), np.ones(shape)), path)
        assert os.listdir(tmp_path) == []

    def test_roundtrip_bytes(self, tmp_path):
        rng = np.random.default_rng(4)
        store = _store(
            5,
            [("bank", "bank%1", rng.normal(size=5).astype(np.float32).astype(float)) for _ in range(3)]
            + [("rose", "rose%2", rng.normal(size=5).astype(np.float32).astype(float))],
        )
        a, b = tmp_path / "a.fwsd", tmp_path / "b.fwsd"
        save_store(store, a)
        loaded = load_store(a)
        assert [block.lemma for block in loaded.blocks] == ["bank", "rose"]
        save_store(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    def test_values_roundtrip_at_f32(self, tmp_path):
        rng = np.random.default_rng(5)
        store = _store(3, [("w", "A", rng.normal(size=3))])
        path = tmp_path / "s.fwsd"
        save_store(store, path)
        loaded = load_store(path)
        assert_allclose(loaded.blocks[0].pairs[0], store.blocks[0].pairs[0], atol=1e-6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.fwsd"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(DataError, match="incompatible"):
            load_store(path)

    def test_pair_count_beyond_file_is_truncation(self, tmp_path):
        path = tmp_path / "s.fwsd"
        save_store(_store(2, [("w", "A", (0.5, 0.5))]), path)
        raw = bytearray(path.read_bytes())
        at = raw.index(b"\x01\x00\x00\x00w") + 5  # the pair count after the lemma name, before the key count
        raw[at : at + 4] = (2**32 - 1).to_bytes(4, "little")
        path.write_bytes(raw)
        with pytest.raises(DataError, match="truncated"):
            load_store(path)

    def test_corruption_detected(self, tmp_path):
        store = _store(2, [("w", "A", (0.5, 0.5))])
        path = tmp_path / "s.fwsd"
        save_store(store, path)
        good = path.read_bytes()
        # an embedding byte, and the lemma name's only byte (made invalid UTF-8)
        for at, flip in ((-3, 0x01), (good.index(b"\x01\x00\x00\x00w") + 4, 0xFF)):
            raw = bytearray(good)
            raw[at] ^= flip
            path.write_bytes(raw)
            with pytest.raises(DataError, match="checksum|corrupt"):
                load_store(path)


def _recorded(monkeypatch, name, keep, seen=None):
    """Wrap ``wsd.<name>``; the returned list (``seen``, or a new one) gets ``keep(args, result)`` for each call."""
    seen, inner = [] if seen is None else seen, getattr(wsd, name)

    def wrapper(*args):
        result = inner(*args)
        seen.append(keep(args, result))
        return result

    monkeypatch.setattr(wsd, name, wrapper)
    return seen


class TestLoadedRowsWidened:
    """A loaded store keeps its f32 rows, yet computes what the same rows widened by hand give, bit for bit."""

    @pytest.fixture
    def case(self, tmp_path):
        rng = np.random.default_rng(17)
        store, inv = _random_store(rng, 6, 8)
        save_store(store, tmp_path / "s.fwsd")
        loaded = load_store(tmp_path / "s.fwsd")
        assert all(block.pairs.dtype == np.float32 and not block.pairs.flags.writeable for block in loaded.blocks)
        widened = loaded._replace(blocks=[block._replace(pairs=block.pairs.astype(np.float64)) for block in loaded.blocks])
        lemmas = [str(rng.choice(list(inv.entries))) for _ in range(200)]
        queries = _random_queries(rng, loaded, lemmas)
        return SimpleNamespace(loaded=loaded, widened=widened, inv=inv, lemmas=lemmas, queries=queries)

    @staticmethod
    def _same(case, seen, run):
        """``run`` answers the same on both stores, and the arrays recorded in ``seen`` are bit-equal."""
        answers = run(case.loaded)
        from_loaded = list(seen)
        seen.clear()
        assert answers == run(case.widened)
        assert len(from_loaded) == len(seen) > 0
        for got, expected in zip(from_loaded, seen):
            for a, b in zip(got, expected, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @staticmethod
    def _queried(case):
        return [(lemma, q) for lemma, q in zip(case.lemmas, case.queries) if lemma in _blocks(case.loaded)]

    def _predict_all(self, case, monkeypatch):
        cfg, instances = ClassifierConfig(k=5), _query_instances(case.lemmas)
        model = _fed_queries(monkeypatch, case.loaded, case.queries)
        return lambda store: predict_all(store, case.inv, model, cfg, instances)

    def test_predict_knn(self, case, monkeypatch):
        seen = _recorded(monkeypatch, "_cosine_distances", lambda args, distances: [distances])
        cfg = ClassifierConfig(k=5)

        def run(store):
            blocks = _blocks(store)
            return [predict_knn(blocks[lemma], cfg, q, case.inv) for lemma, q in self._queried(case)]

        self._same(case, seen, run)
        assert len(seen) == len(self._queried(case)) > 100

    def test_predict_all_batched(self, case, monkeypatch):
        # the vectors and norms each block of distances starts from, the distances,
        # and each vote's neighbour codes and distances, winners and margins
        seen = _recorded(monkeypatch, "_cosine_distances", lambda args, distances: [*args, distances])
        _recorded(monkeypatch, "_vote", lambda args, result: [*args[:2], *result], seen)
        self._same(case, seen, self._predict_all(case, monkeypatch))

    def test_predict_all_every_query_falls_back(self, case, monkeypatch):
        monkeypatch.setattr(wsd, "_CERTIFY_BOUND", math.inf)
        calls = _counted_knn(monkeypatch)
        seen = _recorded(monkeypatch, "_cosine_distances", lambda args, distances: [distances])
        self._same(case, seen, self._predict_all(case, monkeypatch))
        # each query's distances, once in its block and once in its fallback
        assert len(calls) == sum(len(distances) for (distances,) in seen) == 2 * len(self._queried(case))

    def test_sense_embeddings_and_cosine(self, case, monkeypatch):
        seen = _recorded(monkeypatch, "_cosine_distances", lambda args, distances: [distances])
        means = {}

        def run(store):
            means[id(store)] = {block.lemma: build_sense_embeddings(block) for block in store.blocks}
            return [predict_cosine(means[id(store)][lemma], q, case.inv) for lemma, q in self._queried(case)]

        self._same(case, seen, run)
        got, expected = means[id(case.loaded)], means[id(case.widened)]
        assert list(got) == list(expected)
        for lemma, block in expected.items():
            assert got[lemma].keys == block.keys
            assert got[lemma].pairs.dtype == block.pairs.dtype == np.float64
            assert got[lemma].pairs.tobytes() == block.pairs.tobytes()


class TestBuiltStoreIsTheLoadedStore:
    """A store built in this process holds, and votes on, the floats ``load_store`` reads from its file."""

    @pytest.fixture
    def case(self, tmp_path):
        paths = synthetic.generate(tmp_path, synthetic.SyntheticConfig(seed=3, n_train=60, n_test=40))
        lines = paths["corpus"].read_text(encoding="utf-8").splitlines()[:200]
        model = lm.train_lm(lines, lm.LmConfig(epochs=1))
        inventory = read_sense_inventory(paths["inventory"])
        train = read_labeled_corpus(paths["train"])
        built = build_classifier_store(model, train, inventory)
        save_store(built, tmp_path / "s.fwsd")
        test = read_labeled_corpus(paths["test"])
        return SimpleNamespace(
            model=model, inventory=inventory, train=train, built=built, loaded=load_store(tmp_path / "s.fwsd"), test=test
        )

    def test_rows_are_the_file_rows(self, case):
        assert len(case.built.blocks) == len(case.loaded.blocks) == case.built.n_lemmas == case.loaded.n_lemmas
        for built, loaded in zip(case.built.blocks, case.loaded.blocks):
            assert (built.lemma, built.keys) == (loaded.lemma, loaded.keys)
            assert built.pairs.dtype == loaded.pairs.dtype == np.float32
            assert built.pairs.tobytes() == loaded.pairs.tobytes()

    def test_streams_write_and_predict_alike(self, case, tmp_path):
        save_store(wsd.stream_classifier_store(case.model, case.train, case.inventory), tmp_path / "streamed.fwsd")
        assert (tmp_path / "streamed.fwsd").read_bytes() == (tmp_path / "s.fwsd").read_bytes()
        with wsd.open_store(tmp_path / "s.fwsd") as stream:
            streamed = predict_all(stream, case.inventory, case.model, ClassifierConfig(), case.test)
        assert streamed == predict_all(case.loaded, case.inventory, case.model, ClassifierConfig(), case.test)

    def test_collected_stores_save_and_predict_twice(self, case, tmp_path):
        # a collected store's blocks are a list, which saving leaves for predict_all, and predict_all for itself
        with wsd.open_store(tmp_path / "s.fwsd") as stream:
            streamed = predict_all(stream, case.inventory, case.model, ClassifierConfig(), case.test)
        for name in ("built", "loaded"):
            store = getattr(case, name)
            save_store(store, tmp_path / f"{name}.fwsd")
            assert (tmp_path / f"{name}.fwsd").read_bytes() == (tmp_path / "s.fwsd").read_bytes()
            for _ in range(2):
                assert predict_all(store, case.inventory, case.model, ClassifierConfig(), case.test) == streamed

    def test_predict_all_votes_alike(self, case, monkeypatch):
        # the same senses, from bit-equal distances and votes
        seen = _recorded(monkeypatch, "_cosine_distances", lambda args, distances: [*args, distances])
        _recorded(monkeypatch, "_vote", lambda args, result: [*args[:2], *result], seen)
        answers = {}
        for name in ("built", "loaded"):
            start = len(seen)
            answers[name] = predict_all(getattr(case, name), case.inventory, case.model, ClassifierConfig(), case.test)
            answers[name + " arrays"] = seen[start:]
        assert answers["built"] == answers["loaded"] and len(answers["built"]) == len(case.test)
        assert len(answers["built arrays"]) == len(answers["loaded arrays"]) > 0
        for got, expected in zip(answers["built arrays"], answers["loaded arrays"]):
            for a, b in zip(got, expected, strict=True):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_load_store_peak_memory_is_about_the_file_size(tmp_path):
    """The loaded pairs are the file's f32 blocks, not float64 copies of them."""
    rng = np.random.default_rng(40)
    lemmas = [f"w{i}" for i in range(40)]
    codes = (np.arange(300) % 3).astype(np.uint32)
    blocks = [LemmaBlock(lemma, [f"{lemma}%{s}" for s in range(3)], codes, rng.normal(size=(300, 64))) for lemma in lemmas]
    store = ClassifierStore(64, len(blocks), blocks)
    path = tmp_path / "s.fwsd"
    save_store(store, path)
    tracemalloc.start()
    try:
        loaded = load_store(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(len(block.pairs) for block in loaded.blocks) == 40 * 300
    assert peak <= 1.5 * path.stat().st_size


class TestPredictionsFile:
    def test_roundtrip_order_preserved(self, tmp_path):
        rows = [("i2", "a%1"), ("i1", "b%2")]
        path = tmp_path / "p.tsv"
        write_predictions(rows, path)
        assert path.read_text(encoding="utf-8") == "i2\ta%1\ni1\tb%2\n"
        assert list(read_predictions(path).items()) == rows

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("i1\ta%1\ni1\ta%2\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            read_predictions(path)
