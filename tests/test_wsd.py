import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fofe_wsd import wsd
from fofe_wsd.corpus import LabeledInstance, SenseInventory
from fofe_wsd.errors import DataError
from fofe_wsd.lm import context_embeddings
from fofe_wsd.wsd import (
    ClassifierConfig,
    ClassifierStore,
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


def _store(dim, lemma_pairs):
    senses, vectors = {}, {}
    for lemma, sense, vec in lemma_pairs:
        senses.setdefault(lemma, []).append(sense)
        vectors.setdefault(lemma, []).append(np.asarray(vec, dtype=float))
    pairs = {lemma: np.array(rows).reshape(len(rows), dim) for lemma, rows in vectors.items()}
    return ClassifierStore(dim=dim, senses=senses, pairs=pairs)


def _instance(instance_id, tokens, target, lemma, senses):
    return LabeledInstance(
        instance_id=instance_id,
        tokens=tokens,
        target_index=target,
        lemma=lemma,
        sense_keys=frozenset(senses),
    )


class TestBuildClassifierStore:
    def test_groups_by_lemma(self, tiny_model):
        words = tiny_model.vocab.tokens[1:6]
        instances = [
            _instance("i1", words, 2, "bank", {"bank%1"}),
            _instance("i2", words[::-1], 1, "bank", {"bank%2"}),
        ]
        store = build_classifier_store(tiny_model, instances, SenseInventory({"bank": ["bank%1", "bank%2"]}))
        assert list(store.pairs) == ["bank"]
        assert store.pairs["bank"].shape == (2, tiny_model.config.hidden_dims[-1])
        assert store.senses["bank"] == ["bank%1", "bank%2"]
        contexts = [(inst.tokens, inst.target_index) for inst in instances]
        assert_array_equal(store.pairs["bank"], np.array(list(context_embeddings(tiny_model, contexts))))

    def test_empty_instances(self, tiny_model):
        store = build_classifier_store(tiny_model, [], SenseInventory({}))
        assert store.pairs == {}

    def test_multi_gold_shares_one_embedding(self, tiny_model):
        words = tiny_model.vocab.tokens[1:5]
        store = build_classifier_store(
            tiny_model, [_instance("i1", words, 1, "w", {"w%2", "w%1"})], SenseInventory({"w": ["w%1", "w%2"]})
        )
        assert store.senses["w"] == ["w%1", "w%2"]  # sorted key order
        assert_array_equal(store.pairs["w"][0], store.pairs["w"][1])

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
            build_classifier_store(tiny_model, instances, inventory)
        listed_lemmas = [inst for inst in instances if inst.lemma == "bank"]
        with pytest.raises(DataError, match=r"not listed .*: i2 \(bank%8, bank%9\), i4 \(bank%7\)$"):
            build_classifier_store(tiny_model, listed_lemmas, inventory)


class TestPredictKnn:
    def test_majority_of_three_nearest(self):
        store = _store(
            2,
            [
                ("w", "A", (1.0, 0.0)),
                ("w", "A", (0.9, 0.1)),
                ("w", "A", (1.0, 0.1)),
                ("w", "B", (0.0, 1.0)),
                ("w", "B", (0.1, 1.0)),
            ],
        )
        assert predict_knn(store, ClassifierConfig(k=3), "w", np.array([1.0, 0.0])) == "A"

    def test_single_pair(self):
        store = _store(2, [("w", "B", (0.3, 0.4))])
        assert predict_knn(store, ClassifierConfig(k=1), "w", np.array([1.0, 1.0])) == "B"

    def test_vote_tie_broken_by_mean_distance(self):
        # A sits at distance 0.0, B at cosine distance 0.3 from the query
        b = (0.7, math.sqrt(1.0 - 0.7**2))
        store = _store(2, [("w", "A", (1.0, 0.0)), ("w", "B", b)])
        assert predict_knn(store, ClassifierConfig(k=2), "w", np.array([1.0, 0.0])) == "A"

    def test_residual_tie_uses_inventory_order(self):
        store = _store(2, [("w", "zz", (1.0, 0.0)), ("w", "aa", (1.0, 0.0))])
        cfg = ClassifierConfig(k=2)
        query = np.array([1.0, 0.0])
        inv = SenseInventory(entries={"w": ["zz", "aa"]})
        assert predict_knn(store, cfg, "w", query, inv) == "zz"
        # without an inventory the fallback is lexicographic
        assert predict_knn(store, cfg, "w", query) == "aa"

    def test_missing_lemma_signals_no_classifier(self):
        store = _store(2, [("w", "A", (1.0, 0.0))])
        with pytest.raises(NoClassifierError):
            predict_knn(store, ClassifierConfig(), "other", np.array([1.0, 0.0]))

    def test_zero_norm_vectors_at_distance_one(self):
        store = _store(2, [("w", "A", (0.0, 0.0)), ("w", "B", (1.0, 0.0))])
        # zero-norm training vector never beats an aligned one
        assert predict_knn(store, ClassifierConfig(k=1), "w", np.array([1.0, 0.0])) == "B"
        # zero-norm query: every distance is 1, majority over all pairs applies
        store2 = _store(2, [("w", "A", (1.0, 0.0)), ("w", "A", (0.0, 1.0)), ("w", "B", (1.0, 1.0))])
        assert predict_knn(store2, ClassifierConfig(k=3), "w", np.zeros(2)) == "A"

    def test_k_at_least_total_pairs_is_global_majority(self):
        store = _store(
            2,
            [
                ("w", "A", (1.0, 0.0)),
                ("w", "B", (0.99, 0.01)),
                ("w", "B", (0.98, 0.02)),
            ],
        )
        assert predict_knn(store, ClassifierConfig(k=50), "w", np.array([1.0, 0.0])) == "B"

    def test_scale_invariance_of_query(self):
        rng = np.random.default_rng(0)
        store = _store(3, [("w", f"s{j % 3}", rng.normal(size=3)) for j in range(12)])
        cfg = ClassifierConfig(k=5)
        for _ in range(50):
            q = rng.normal(size=3)
            base = predict_knn(store, cfg, "w", q)
            for scale in (1e-3, 7.3, 1e4):
                assert predict_knn(store, cfg, "w", scale * q) == base

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        store = _store(4, [("w", f"s{j % 4}", rng.normal(size=4)) for j in range(20)])
        q = rng.normal(size=4)
        cfg = ClassifierConfig(k=8)
        assert predict_knn(store, cfg, "w", q) == predict_knn(store, cfg, "w", q)


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
            store = _store(dim, [("w", s, v) for s, v in pairs])
            k = int(rng.integers(1, 12))
            cfg = ClassifierConfig(k=k)
            for _ in range(50):
                q = rng.normal(size=dim)
                expected = _reference_knn(pairs, k, list(q), ["s0", "s1", "s2"])
                assert predict_knn(store, cfg, "w", q, inv) == expected


def _means(store):
    """Each lemma's sense -> mean embedding, from ``build_sense_embeddings``."""
    return {lemma: dict(zip(store.senses[lemma], store.pairs[lemma])) for lemma in store.pairs}


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
            means = _means(build_sense_embeddings(store))
            expected = oracle_sense_embeddings(lemma_pairs)
            assert [list(m) for m in means.values()] == [list(m) for m in expected.values()]
            for lemma in expected:
                for sense in expected[lemma]:
                    assert np.array_equal(means[lemma][sense], expected[lemma][sense])

    def test_single_pair_mean_is_the_pair(self):
        store = _store(2, [("w", "A", (0.25, 0.75))])
        senses = build_sense_embeddings(store)
        assert_array_equal(_means(senses)["w"]["A"], [0.25, 0.75])

    def test_two_pair_mean(self):
        store = _store(2, [("w", "A", (1.0, 0.0)), ("w", "A", (0.0, 1.0))])
        senses = build_sense_embeddings(store)
        assert_array_equal(_means(senses)["w"]["A"], [0.5, 0.5])

    def test_empty_store(self):
        assert _means(build_sense_embeddings(ClassifierStore(dim=3))) == {}

    def test_mean_inside_coordinatewise_hull(self):
        rng = np.random.default_rng(2)
        vecs = [rng.normal(size=4) for _ in range(9)]
        store = _store(4, [("w", "A", v) for v in vecs])
        mean = _means(build_sense_embeddings(store))["w"]["A"]
        stacked = np.stack(vecs)
        assert np.all(mean >= stacked.min(axis=0) - 1e-12)
        assert np.all(mean <= stacked.max(axis=0) + 1e-12)


class TestPredictCosine:
    def test_nearest_sense_embedding(self):
        store = _store(2, [("w", "A", (1.0, 0.0)), ("w", "B", (0.0, 1.0))])
        senses = build_sense_embeddings(store)
        assert predict_cosine(senses, "w", np.array([0.9, 0.1])) == "A"

    def test_exact_match_wins(self):
        store = _store(2, [("w", "A", (1.0, 0.0)), ("w", "B", (0.6, 0.8))])
        senses = build_sense_embeddings(store)
        assert predict_cosine(senses, "w", np.array([0.6, 0.8])) == "B"

    def test_tie_broken_by_inventory_order(self):
        store = _store(2, [("w", "bbb", (1.0, 0.0)), ("w", "aaa", (0.0, 1.0))])
        senses = build_sense_embeddings(store)
        inv = SenseInventory(entries={"w": ["bbb", "aaa"]})
        assert predict_cosine(senses, "w", np.array([1.0, 1.0]), inv) == "bbb"
        assert predict_cosine(senses, "w", np.array([1.0, 1.0])) == "aaa"

    def test_missing_lemma(self):
        senses = build_sense_embeddings(ClassifierStore(dim=2))
        with pytest.raises(NoClassifierError):
            predict_cosine(senses, "w", np.array([1.0, 0.0]))

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        store = _store(3, [("w", f"s{j}", rng.normal(size=3)) for j in range(4)])
        senses = build_sense_embeddings(store)
        for _ in range(25):
            q = rng.normal(size=3)
            assert predict_cosine(senses, "w", q) == predict_cosine(senses, "w", 100.0 * q)


class TestPredictWithBackoff:
    def test_knn_path_when_pairs_exist(self, tiny_model):
        words = tiny_model.vocab.tokens[1:6]
        train = [_instance("t1", words, 2, "bank", {"bank%1"})]
        inv = SenseInventory(entries={"bank": ["bank%2", "bank%1"]})
        store = build_classifier_store(tiny_model, train, inv)
        test = _instance("q1", words, 2, "bank", {"bank%1"})
        assert predict_all(store, inv, tiny_model, ClassifierConfig(), [test]) == ["bank%1"]

    def test_backoff_to_first_sense(self, tiny_model):
        inv = SenseInventory(entries={"bank": ["bank%1", "bank%2"]})
        store = ClassifierStore(dim=tiny_model.config.hidden_dims[-1])
        test = _instance("q1", tiny_model.vocab.tokens[1:4], 1, "bank", {"bank%2"})
        assert predict_all(store, inv, tiny_model, ClassifierConfig(), [test]) == ["bank%1"]

    def test_unknown_lemma_everywhere(self, tiny_model):
        inv = SenseInventory(entries={})
        store = ClassifierStore(dim=tiny_model.config.hidden_dims[-1])
        test = _instance("q1", tiny_model.vocab.tokens[1:4], 1, "ghost", {"g%1"})
        with pytest.raises(DataError, match="unknown lemma"):
            predict_all(store, inv, tiny_model, ClassifierConfig(), [test])

    def test_lemma_in_store_but_not_inventory(self, tiny_model, monkeypatch):
        words = tiny_model.vocab.tokens[1:6]
        store = build_classifier_store(
            tiny_model, [_instance("t1", words, 2, "bank", {"bank%1"})], SenseInventory({"bank": ["bank%1"]})
        )
        inv = SenseInventory(entries={"rose": ["rose%1"]})
        test = [
            _instance("q1", words, 2, "bank", {"bank%1"}),
            _instance("q2", words, 1, "rose", {"rose%1"}),
            _instance("q3", words, 3, "bank", {"bank%1"}),
        ]

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
        store = build_classifier_store(tiny_model, train, inv)
        cfg = ClassifierConfig(k=1)
        test = [
            _instance("q1", words[:4], 1, "oak", {"oak%3"}),
            _instance("q2", words[3:], 2, "bank", {"bank%1"}),
            _instance("q3", words, 5, "rose", {"rose%1"}),
            _instance("q4", words[:6], 0, "bank", {"bank%2"}),
        ]
        expected = [
            predict_knn(
                store,
                cfg,
                inst.lemma,
                next(context_embeddings(tiny_model, [(inst.tokens, inst.target_index)])),
                inv,
            )
            if inst.lemma in store
            else inv.first_sense(inst.lemma)
            for inst in test
        ]
        assert predict_all(store, inv, tiny_model, cfg, test) == expected
        assert predict_all(store, inv, tiny_model, cfg, []) == []


class TestStorePersistence:
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
        assert list(loaded.pairs) == ["bank", "rose"]
        save_store(loaded, b)
        assert a.read_bytes() == b.read_bytes()

    def test_values_roundtrip_at_f32(self, tmp_path):
        rng = np.random.default_rng(5)
        store = _store(3, [("w", "A", rng.normal(size=3))])
        path = tmp_path / "s.fwsd"
        save_store(store, path)
        loaded = load_store(path)
        assert_allclose(loaded.pairs["w"][0], store.pairs["w"][0], atol=1e-6)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "s.fwsd"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(DataError, match="incompatible"):
            load_store(path)

    def test_pair_count_beyond_file_is_truncation(self, tmp_path):
        path = tmp_path / "s.fwsd"
        save_store(_store(2, [("w", "A", (0.5, 0.5))]), path)
        raw = bytearray(path.read_bytes())
        at = raw.index(b"\x01\x00\x00\x00w") + 5  # the pair count after the lemma name
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
