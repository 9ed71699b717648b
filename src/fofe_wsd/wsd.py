"""Per-lemma sense classifiers over context embeddings.

The primary path is a cosine-distance kNN over every labeled training
occurrence of a lemma; the baseline averages each sense's embeddings into
one sense embedding and picks the most similar. Lemmas with no training
pairs at all fall back to the inventory's first-listed sense. The store
keeps each lemma's pairs as a sense-key list and one (pairs, dim) matrix.

Store file format: a ``_files`` container (magic ``FWSD``, version 1, which
frames and checksums it) whose body is embedding dim u32, lemma count u32,
then per lemma a length-prefixed name, pair count, and per pair a
length-prefixed sense key plus the f32 embedding.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._files import Reader, container, put_floats, put_str, put_u32, read_records, write_container, write_file
from .corpus import LabeledInstance, SenseInventory
from .errors import DataError, UsageError
from .lm import LmModel, context_embeddings

STORE_MAGIC = b"FWSD"
STORE_VERSION = 1


class NoClassifierError(LookupError):
    """No training pairs exist for the requested lemma."""


@dataclass(frozen=True)
class ClassifierConfig:
    k: int = 8  # neighbors; distance is cosine

    def __post_init__(self) -> None:
        if self.k < 1:
            raise UsageError(f"k must be >= 1, got {self.k}")


@dataclass
class ClassifierStore:
    """Per-lemma training pairs, in build order.

    ``senses[lemma][i]`` is the sense key of pair i and ``pairs[lemma][i]``
    its context embedding: a row of one (pairs, dim) float64 matrix.
    """

    dim: int
    senses: dict[str, list[str]] = field(default_factory=dict)
    pairs: dict[str, np.ndarray] = field(default_factory=dict)

    def __contains__(self, lemma: str) -> bool:
        return len(self.pairs.get(lemma, ())) > 0


def _check_lemmas(instances: Sequence[LabeledInstance], inventory: SenseInventory) -> None:
    """A ``DataError`` listing every instance whose lemma the inventory lacks."""
    unknown = [inst.instance_id for inst in instances if inst.lemma not in inventory]
    if unknown:
        raise DataError("unknown lemma (not in the inventory) for instance(s): " + ", ".join(unknown))


def build_classifier_store(
    model: LmModel, instances: Sequence[LabeledInstance], inventory: SenseInventory
) -> ClassifierStore:
    """Embed every labeled instance and group the pairs by lemma.

    A multi-gold instance contributes one pair per gold sense key (keys in
    sorted order), each with the same embedding. Pair order follows
    instance order. Before any embedding, a ``DataError`` names every
    instance whose lemma, or any of whose gold keys, the inventory lacks.
    """
    _check_lemmas(instances, inventory)
    unlisted = [
        f"{inst.instance_id} ({', '.join(sorted(extra))})"
        for inst in instances
        if (extra := inst.sense_keys.difference(inventory.senses(inst.lemma)))
    ]
    if unlisted:
        raise DataError("sense key(s) not listed in the inventory for instance(s): " + ", ".join(unlisted))
    dim = model.config.held_out_dim
    counts = Counter(inst.lemma for inst in instances for _ in inst.sense_keys)
    store = ClassifierStore(
        dim=dim,
        senses={lemma: [] for lemma in counts},
        pairs={lemma: np.empty((n, dim)) for lemma, n in counts.items()},
    )
    embeddings = context_embeddings(model, [(inst.tokens, inst.target_index) for inst in instances])
    for inst, emb in zip(instances, embeddings):
        for sense in sorted(inst.sense_keys):
            store.pairs[inst.lemma][len(store.senses[inst.lemma])] = emb
            store.senses[inst.lemma].append(sense)
    return store


def _cosine_distances(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """1 - cosine similarity per row; zero-norm vectors sit at distance 1."""
    qn = float(np.linalg.norm(query))
    norms = np.linalg.norm(vectors, axis=1)
    sims = np.zeros(len(vectors))
    if qn > 0.0:
        nonzero = norms > 0.0
        sims[nonzero] = (vectors[nonzero] @ query) / (norms[nonzero] * qn)
    return 1.0 - sims


def _sense_rank(lemma: str, inventory: SenseInventory | None) -> dict[str, int]:
    if inventory is not None and lemma in inventory:
        return {key: i for i, key in enumerate(inventory.senses(lemma))}
    return {}


def predict_knn(
    store: ClassifierStore,
    cfg: ClassifierConfig,
    lemma: str,
    query: np.ndarray,
    inventory: SenseInventory | None = None,
) -> str:
    """Majority sense of the k nearest training pairs by cosine distance.

    Vote ties break toward the tied sense whose voting neighbors have the
    smaller mean distance, then by inventory order (lexicographic order when
    no inventory is given).
    """
    if lemma not in store:
        raise NoClassifierError(lemma)
    senses = store.senses[lemma]
    distances = _cosine_distances(np.asarray(query, dtype=np.float64), store.pairs[lemma])
    nearest = np.argsort(distances, kind="stable")[: min(cfg.k, len(senses))]

    votes: Counter[str] = Counter()
    dist_sum: dict[str, float] = {}
    for i in nearest:
        sense = senses[i]
        votes[sense] += 1
        dist_sum[sense] = dist_sum.get(sense, 0.0) + float(distances[i])
    rank = _sense_rank(lemma, inventory)
    return min(
        votes,
        key=lambda s: (-votes[s], dist_sum[s] / votes[s], rank.get(s, len(rank)), s),
    )


def build_sense_embeddings(store: ClassifierStore) -> ClassifierStore:
    """A store with one pair per sense: the mean of its context embeddings.

    Senses keep the order of their first pair. Each sense's rows are summed
    one after the other (``cumsum``; ``sum`` may pair them up differently).
    """
    means = ClassifierStore(dim=store.dim)
    for lemma, vectors in store.pairs.items():
        senses = np.array(store.senses[lemma], dtype=str)
        keys = means.senses[lemma] = list(dict.fromkeys(store.senses[lemma]))
        rows = means.pairs[lemma] = np.empty((len(keys), store.dim))
        for i, sense in enumerate(keys):
            mask = senses == sense
            rows[i] = np.cumsum(vectors[mask], axis=0)[-1] / np.count_nonzero(mask)
    return means


def predict_cosine(
    means: ClassifierStore,
    lemma: str,
    query: np.ndarray,
    inventory: SenseInventory | None = None,
) -> str:
    """Sense whose mean embedding is most cosine-similar to the query.

    ``means`` comes from ``build_sense_embeddings``. Ties go by inventory
    order, then by key.
    """
    if lemma not in means:
        raise NoClassifierError(lemma)
    keys = means.senses[lemma]
    sims = 1.0 - _cosine_distances(np.asarray(query, dtype=np.float64), means.pairs[lemma])
    rank = _sense_rank(lemma, inventory)
    best = min(range(len(keys)), key=lambda i: (-sims[i], rank.get(keys[i], len(rank)), keys[i]))
    return keys[best]


def predict_all(
    store: ClassifierStore,
    inventory: SenseInventory,
    model: LmModel,
    cfg: ClassifierConfig,
    instances: Sequence[LabeledInstance],
) -> list[str]:
    """Predicted sense of each instance, in order.

    kNN when the instance's lemma has training pairs, else the inventory's
    first sense. The kNN queries of all instances come from one
    ``context_embeddings`` call. Before any embedding, a lemma missing from
    the inventory (listing every such instance) or a store whose width is
    not the model's is a ``DataError``.
    """
    _check_lemmas(instances, inventory)
    if store.dim != model.config.held_out_dim:
        raise DataError(
            f"classifier store holds {store.dim}-wide embeddings, "
            f"but the model's are {model.config.held_out_dim} wide"
        )
    queried = [inst for inst in instances if inst.lemma in store]
    queries = context_embeddings(model, [(inst.tokens, inst.target_index) for inst in queried])
    return [
        predict_knn(store, cfg, inst.lemma, next(queries), inventory)
        if inst.lemma in store
        else inventory.first_sense(inst.lemma)
        for inst in instances
    ]


def write_predictions(rows: Sequence[tuple[str, str]], path: str | Path) -> None:
    """One ``instance_id<TAB>sense key`` line per row, in the given order."""
    write_file(path, "".join(f"{instance_id}\t{sense}\n" for instance_id, sense in rows))


def read_predictions(path: str | Path) -> dict[str, str]:
    predictions: dict[str, str] = {}
    for lineno, (instance_id, sense) in read_records(path, "predictions", 2):
        if instance_id in predictions:
            raise DataError(f"{path}: duplicate prediction for {instance_id!r} (line {lineno})")
        predictions[instance_id] = sense
    return predictions


def save_store(store: ClassifierStore, path: str | Path) -> None:
    """Write the store to ``path``; embeddings narrow to f32 on disk."""
    out = container(STORE_MAGIC, STORE_VERSION)
    put_u32(out, store.dim, len(store.pairs))
    for lemma, vectors in store.pairs.items():
        put_str(out, lemma)
        put_u32(out, len(vectors))
        for sense, emb in zip(store.senses[lemma], vectors.astype("<f4")):
            put_str(out, sense)
            put_floats(out, emb)
    write_container(path, out)


def load_store(path: str | Path) -> ClassifierStore:
    rd = Reader.open(path, "classifier store", STORE_MAGIC, STORE_VERSION)
    dim = rd.u32()
    store = ClassifierStore(dim=dim)
    for _ in range(rd.u32()):
        lemma = rd.text()
        if lemma in store.pairs:
            raise rd.corrupt(f"duplicate lemma {lemma!r}")
        n_pairs = rd.u32()
        rd.need(n_pairs * (4 + 4 * dim))  # each pair: a length prefix and dim f32
        senses = store.senses[lemma] = []
        vectors = store.pairs[lemma] = np.empty((n_pairs, dim))
        for i in range(n_pairs):
            senses.append(rd.text())
            vectors[i] = rd.floats(dim)
    rd.close()
    return store
