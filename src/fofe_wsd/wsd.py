"""Per-lemma sense classifiers over context embeddings.

The primary path is a cosine-distance kNN over every labeled training
occurrence of a lemma; the baseline averages each sense's embeddings into
one sense embedding and picks the most similar. Lemmas with no training
pairs at all fall back to the inventory's first-listed sense. The store
holds each lemma as its file does (below); distances and means are float64.

``predict_knn`` votes for one query. ``predict_all`` votes for a lemma's
queries together: one matrix product per block of queries, an exact top k
by partition, and the same tie ladder. A matrix product may round a
distance differently from the per-query product, by far less than
``_CERTIFY_BOUND``. So a query whose k-th and (k+1)-th distances, or whose
two best vote-tied senses' mean distances, are within that bound is
recomputed with ``predict_knn``: the batched answers equal the per-query
ones by construction.

Store file format: a ``_files`` container (magic ``FWSD``, version 2, which
frames and checksums it) whose body is embedding dim u32, lemma count u32,
then per lemma two blocks after a header: a length-prefixed name, the pair
count and the distinct-sense count (u32 each), and the distinct sense keys,
length-prefixed, in the order of their first pair; then one u32 block with
each pair's index into that key list and one f32 (pairs, dim) block,
row-major. Each block is read with one ``np.frombuffer``. A code beyond the
key list, a key listed twice, and keys not in first-use order (an unused key
among them) make the file corrupt, so a loaded store saves to the same
bytes. Version 1 stores, one record per pair, are rejected as incompatible;
``build`` writes them anew.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from ._files import Reader, container, put_floats, put_str, put_u32, read_records, write_container, write_file
from .corpus import LabeledInstance, SenseInventory
from .errors import DataError, UsageError
from .lm import LmModel, context_embeddings

STORE_MAGIC = b"FWSD"
STORE_VERSION = 2
# A batched kNN decision closer than this is recomputed per query.
_CERTIFY_BOUND = 1e-12
# Elements of one block of query-by-pair distances in ``predict_all``: 64 KiB
# of float64. With 1 MiB blocks, repeated pipeline runs in one process grew
# its peak RSS run by run (the freed blocks fragment the heap).
_BLOCK_ELEMENTS = 1 << 13


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
    """Per-lemma training pairs, in build order, in the store file's layout.

    ``keys[lemma]`` lists the lemma's distinct sense keys in the order of
    their first pair, and ``codes[lemma][i]`` (uint32) is pair i's index into
    it. ``pairs[lemma][i]`` is pair i's context embedding: a row of one
    (pairs, dim) matrix, float64 from ``build_classifier_store``, and the
    file's read-only f32 block from ``load_store``.
    """

    dim: int
    keys: dict[str, list[str]] = field(default_factory=dict)
    codes: dict[str, np.ndarray] = field(default_factory=dict)
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
    store = ClassifierStore(dim=dim, pairs={lemma: np.empty((n, dim)) for lemma, n in counts.items()})
    index: dict[str, dict[str, int]] = {lemma: {} for lemma in counts}  # sense key -> code
    codes: dict[str, list[int]] = {lemma: [] for lemma in counts}
    embeddings = context_embeddings(model, [(inst.tokens, inst.target_index) for inst in instances])
    for inst, emb in zip(instances, embeddings):
        keys, lemma_codes = index[inst.lemma], codes[inst.lemma]
        for sense in sorted(inst.sense_keys):
            store.pairs[inst.lemma][len(lemma_codes)] = emb
            lemma_codes.append(keys.setdefault(sense, len(keys)))
    store.keys = {lemma: list(keys) for lemma, keys in index.items()}
    store.codes = {lemma: np.array(c, dtype=np.uint32) for lemma, c in codes.items()}
    return store


def _cosine_distances(query: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """1 - cosine similarity per row, in float64; zero-norm vectors sit at distance 1."""
    query, vectors = np.asarray(query, dtype=np.float64), np.asarray(vectors, dtype=np.float64)
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
    keys, codes = store.keys[lemma], store.codes[lemma]
    distances = _cosine_distances(query, store.pairs[lemma])
    nearest = np.argsort(distances, kind="stable")[: min(cfg.k, len(codes))]

    votes: Counter[str] = Counter()
    dist_sum: dict[str, float] = {}
    for i in nearest:
        sense = keys[codes[i]]
        votes[sense] += 1
        dist_sum[sense] = dist_sum.get(sense, 0.0) + float(distances[i])
    rank = _sense_rank(lemma, inventory)
    return min(
        votes,
        key=lambda s: (-votes[s], dist_sum[s] / votes[s], rank.get(s, len(rank)), s),
    )


def build_sense_embeddings(store: ClassifierStore) -> ClassifierStore:
    """A store with one pair per sense: the mean of its context embeddings.

    Pair i is key i's mean. Rows are widened to float64, and each sense's are
    summed one after the other (``cumsum``; ``sum`` may pair them up differently).
    """
    means = ClassifierStore(dim=store.dim)
    for lemma, vectors in store.pairs.items():
        vectors, codes, keys = np.asarray(vectors, dtype=np.float64), store.codes[lemma], store.keys[lemma]
        means.keys[lemma], means.codes[lemma] = list(keys), np.arange(len(keys), dtype=np.uint32)
        rows = means.pairs[lemma] = np.empty((len(keys), store.dim))
        for code in range(len(keys)):
            mask = codes == code
            rows[code] = np.cumsum(vectors[mask], axis=0)[-1] / np.count_nonzero(mask)
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
    keys = means.keys[lemma]
    sims = 1.0 - _cosine_distances(query, means.pairs[lemma])
    rank = _sense_rank(lemma, inventory)
    best = min(range(len(keys)), key=lambda i: (-sims[i], rank.get(keys[i], len(rank)), keys[i]))
    return keys[best]


def _knn_block(
    vectors: np.ndarray, norms: np.ndarray, codes: np.ndarray, n_senses: int, k: int, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Winning sense code of each query and whether the batched vote certifies it.

    The distances are ``_cosine_distances``' arithmetic with one matrix
    product for the block. Not certified: a k-th and (k+1)-th distance, or
    the mean distances of the two best senses tied on votes, within
    ``_CERTIFY_BOUND`` (or not comparable, as NaN is).
    """
    rows = len(queries)
    qn = np.linalg.norm(queries, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        distances = (queries @ vectors.T) / (qn[:, None] * norms)
    distances[:, ~(norms > 0.0)] = 0.0
    distances[~(qn > 0.0)] = 0.0
    np.subtract(1.0, distances, out=distances)

    certified = np.ones(rows, dtype=bool)
    if k < len(vectors):
        order = np.argpartition(distances, k, axis=1)  # the k nearest, then the (k+1)-th
        nearest = order[:, :k]
        near = np.take_along_axis(distances, nearest, axis=1)
        after = np.take_along_axis(distances, order[:, k : k + 1], axis=1)[:, 0]
        certified &= after - near.max(axis=1) > _CERTIFY_BOUND
    else:
        nearest = np.broadcast_to(np.arange(len(vectors)), distances.shape)
        near = distances
    cells = (np.arange(rows)[:, None] * n_senses + codes[nearest]).ravel()
    votes = np.bincount(cells, minlength=rows * n_senses).reshape(rows, n_senses)
    sums = np.bincount(cells, near.ravel(), rows * n_senses).reshape(rows, n_senses)
    top = votes == votes.max(axis=1, keepdims=True)
    means = np.divide(sums, votes, out=np.full(votes.shape, np.inf), where=top)
    winners = means.argmin(axis=1)
    picked = (np.arange(rows), winners)
    best = means[picked]
    means[picked] = np.inf
    certified &= means.min(axis=1) - best > _CERTIFY_BOUND
    return winners, certified


def _knn_lemma(
    store: ClassifierStore,
    cfg: ClassifierConfig,
    lemma: str,
    queries: Iterator[np.ndarray],
    count: int,
    inventory: SenseInventory,
) -> list[str]:
    """``predict_knn`` of each of the next ``count`` queries, all of ``lemma``, batched under the certificate."""
    vectors, keys = np.asarray(store.pairs[lemma], dtype=np.float64), store.keys[lemma]
    norms = np.linalg.norm(vectors, axis=1)
    k = min(cfg.k, len(vectors))
    per_block = max(1, _BLOCK_ELEMENTS // len(vectors))
    senses: list[str] = []
    for first in range(0, count, per_block):
        block = np.fromiter(queries, np.dtype((np.float64, store.dim)), min(per_block, count - first))
        winners, certified = _knn_block(vectors, norms, store.codes[lemma], len(keys), k, block)
        senses.extend(keys[w] for w in winners.tolist())
        for i in np.flatnonzero(~certified):
            senses[first + i] = predict_knn(store, cfg, lemma, block[i], inventory)
    return senses


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
    ``context_embeddings`` call in lemma order, so a query's last bits may
    depend on the contexts it is embedded with. Each lemma's queries are
    scored together, in blocks of at most ``_BLOCK_ELEMENTS`` distances; a
    query whose vote is within ``_CERTIFY_BOUND`` of a tie (see the module
    docstring) is recomputed with ``predict_knn``, so each answer is
    ``predict_knn``'s for the query vector computed here. Before any
    embedding, a lemma missing from the inventory (listing every such
    instance) or a store whose width is not the model's is a ``DataError``.
    """
    _check_lemmas(instances, inventory)
    if store.dim != model.config.held_out_dim:
        raise DataError(
            f"classifier store holds {store.dim}-wide embeddings, "
            f"but the model's are {model.config.held_out_dim} wide"
        )
    senses = [inventory.first_sense(inst.lemma) for inst in instances]
    queried = sorted((i for i, inst in enumerate(instances) if inst.lemma in store), key=lambda i: instances[i].lemma)
    queries = context_embeddings(model, [(instances[i].tokens, instances[i].target_index) for i in queried])
    for lemma, group in itertools.groupby(queried, key=lambda i: instances[i].lemma):
        rows = list(group)
        for i, sense in zip(rows, _knn_lemma(store, cfg, lemma, queries, len(rows), inventory)):
            senses[i] = sense
    return senses


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


def _key_list_problem(lemma: str, keys: Sequence[str], codes: np.ndarray) -> str | None:
    """Why a lemma's keys and codes break the store format (see the module docstring), or None."""
    if len(set(keys)) < len(keys):
        return f"duplicate sense key for lemma {lemma!r}"
    used, first = np.unique(codes, return_index=True)
    if len(used) and used[-1] >= len(keys):
        return f"sense code {used[-1]} beyond the {len(keys)} keys of lemma {lemma!r}"
    if len(used) < len(keys) or (np.diff(first) < 0).any():
        return f"sense keys of lemma {lemma!r} unused or not in first-use order"
    return None


def save_store(store: ClassifierStore, path: str | Path) -> None:
    """Write the store to ``path``; embeddings narrow to f32 on disk.

    Before any byte is written, a value that is not finite as f32 is a
    ``DataError``, and pairs not of shape (codes, dim) or a bad key list a
    ``ValueError``: the loader would reject either file.
    """
    out = container(STORE_MAGIC, STORE_VERSION)
    put_u32(out, store.dim, len(store.pairs))
    for lemma, vectors in store.pairs.items():
        keys, codes = store.keys[lemma], store.codes[lemma].astype("<u4", copy=False)
        if vectors.shape != (len(codes), store.dim):
            raise ValueError(
                f"lemma {lemma!r}: {len(codes)} sense keys, pairs of shape {vectors.shape}, dim {store.dim}"
            )
        if problem := _key_list_problem(lemma, keys, codes):
            raise ValueError(problem)
        put_str(out, lemma)
        put_u32(out, len(codes), len(keys))
        for key in keys:
            put_str(out, key)
        out += codes.tobytes()
        put_floats(out, vectors)
    write_container(path, out)


def load_store(path: str | Path) -> ClassifierStore:
    rd = Reader.open(path, "classifier store", STORE_MAGIC, (STORE_VERSION,))
    dim = rd.u32()
    store = ClassifierStore(dim=dim)
    for _ in range(rd.u32()):
        lemma = rd.text()
        if lemma in store.pairs:
            raise rd.corrupt(f"duplicate lemma {lemma!r}")
        n_pairs, n_keys = rd.u32(), rd.u32()
        rd.need(4 * n_keys)  # each key's length prefix
        keys = [rd.text() for _ in range(n_keys)]
        codes = rd.u32s(n_pairs)
        if problem := _key_list_problem(lemma, keys, codes):
            raise rd.corrupt(problem)
        vectors = rd.floats(n_pairs * dim)
        rd.check_finite(vectors)
        store.keys[lemma], store.codes[lemma], store.pairs[lemma] = keys, codes, vectors.reshape(n_pairs, dim)
    rd.close()
    return store
