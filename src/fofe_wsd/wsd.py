"""Per-lemma sense classifiers over context embeddings.

The primary path is a cosine-distance kNN over every labeled training
occurrence of a lemma; the baseline averages each sense's embeddings into
one sense embedding and picks the most similar. Lemmas with no training
pairs at all fall back to the inventory's first-listed sense. The store
holds each lemma as its file does (below); distances and means are float64.
``build_classifier_store`` and ``predict_all`` take a ``LabeledCorpus`` and
group its instances by lemma with one stable sort of its lemma codes.

Every distance comes from ``_cosine_distances`` and every vote from
``_vote``. ``predict_knn`` votes for one query. ``predict_all`` votes for a
lemma's queries together: one product per block of queries (a whole lemma
when it fits), the k-th and (k+1)-th distances by one ``np.partition``, and
the same vote over each query's distances at or below its k-th. A block may
round a distance differently from a one-query product, and the vote sums a
sense's distances in column order rather than by distance, each by far less
than ``_CERTIFY_BOUND``. So a query whose k-th and (k+1)-th distances, or
whose vote margin, are within that bound is recomputed with
``predict_knn``: the batched answers equal the per-query ones by
construction.

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

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._files import Reader, container, put_floats, put_str, put_u32, read_records, write_container, write_file
from .corpus import LabeledCorpus, SenseInventory
from .errors import DataError, UsageError
from .lm import LmModel, context_embeddings

STORE_MAGIC = b"FWSD"
STORE_VERSION = 2
# A batched kNN decision closer than this is recomputed per query.
_CERTIFY_BOUND = 1e-12
# Elements of one block of query-by-pair distances in ``predict_all``: 512 KiB
# of float64, so a lemma of 300 pairs scores 150 queries in one block. Against
# 64 KiB blocks, perfbench wsd-lemmas peak RSS read 59.96 -> 58.89, 60.18 ->
# 58.86, 59.52 -> 59.16, 58.89 -> 59.08 and 58.57 -> 61.25 MB (seeds 1-5,
# 2-vCPU host; median of seeds 1-10 59.74 -> 59.70 MB). Over 30 pipeline rounds
# in one process, 128 KiB and 256 KiB blocks levelled off as high as 512 KiB.
_BLOCK_ELEMENTS = 1 << 16


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
    it. ``pairs[lemma][i]`` is pair i's context embedding: a row of a
    (pairs, dim) view, float64 into the one matrix ``build_classifier_store``
    embeds, or f32 into the file's bytes from ``load_store`` (read-only).
    """

    dim: int
    keys: dict[str, list[str]] = field(default_factory=dict)
    codes: dict[str, np.ndarray] = field(default_factory=dict)
    pairs: dict[str, np.ndarray] = field(default_factory=dict)

    def __contains__(self, lemma: str) -> bool:
        return len(self.pairs.get(lemma, ())) > 0


def _check_lemmas(corpus: LabeledCorpus, inventory: SenseInventory) -> None:
    """A ``DataError`` listing, in file order, every instance whose lemma the inventory lacks."""
    unknown = np.array([lemma not in inventory for lemma in corpus.lemmas], dtype=bool)
    if unknown.any():
        ids = [corpus.ids[i] for i in np.flatnonzero(unknown[corpus.lemma_codes]).tolist()]
        raise DataError("unknown lemma (not in the inventory) for instance(s): " + ", ".join(ids))


def _check_keys(corpus: LabeledCorpus, inventory: SenseInventory) -> None:
    """A ``DataError`` naming, in file order, every instance with a gold key its lemma's entry lacks, and those keys."""
    code_of, width = {key: code for code, key in enumerate(corpus.keys)}, len(corpus.keys)
    listed = [
        lemma * width + code_of[key]
        for lemma, name in enumerate(corpus.lemmas)
        for key in inventory.senses(name)
        if key in code_of
    ]
    owners = np.repeat(np.arange(len(corpus)), np.diff(corpus.gold_offsets))
    extra = ~np.isin(corpus.lemma_codes[owners].astype(np.int64) * width + corpus.gold, listed)
    unlisted: dict[int, list[str]] = {}
    for row, code in zip(owners[extra].tolist(), corpus.gold[extra].tolist()):
        unlisted.setdefault(row, []).append(corpus.keys[code])
    if unlisted:
        raise DataError(
            "sense key(s) not listed in the inventory for instance(s): "
            + ", ".join(f"{corpus.ids[row]} ({', '.join(keys)})" for row, keys in unlisted.items())
        )


def _by_lemma(corpus: LabeledCorpus, chosen: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The instances of the lemmas ``chosen`` (a mask over ``corpus.lemmas``) grouped by lemma.

    Lemmas come in first-use order and instances in file order within one:
    a stable sort of the lemma codes. Returns the instances and each
    lemma's count of them.
    """
    picked = np.flatnonzero(chosen[corpus.lemma_codes])
    rows = picked[np.argsort(corpus.lemma_codes[picked], kind="stable")]
    return rows, np.bincount(corpus.lemma_codes[rows], minlength=len(corpus.lemmas))


def _embed(model: LmModel, corpus: LabeledCorpus, rows: np.ndarray) -> np.ndarray:
    """The context embedding of each instance in ``rows``, from one ``context_embeddings`` call.

    The corpus's token types map to model ids once each (unknown words to
    the unknown id); one ``take`` maps its tokens.
    """
    ids = np.array(model.vocab.encode(corpus.types), dtype=np.intp).take(corpus.tokens)
    starts = corpus.offsets[rows]
    return context_embeddings(model, ids, starts, corpus.offsets[rows + 1] - starts, corpus.targets[rows])


def build_classifier_store(model: LmModel, corpus: LabeledCorpus, inventory: SenseInventory) -> ClassifierStore:
    """Embed every labeled instance and group the pairs by lemma.

    A multi-gold instance contributes one pair per gold key (keys in sorted
    order), each with the same embedding. Lemmas come in first-use order
    and pairs in instance order, and each lemma's pairs are a slice of one
    matrix. Before any embedding, a ``DataError`` names every instance
    whose lemma, or any of whose gold keys, the inventory lacks.
    """
    _check_lemmas(corpus, inventory)
    _check_keys(corpus, inventory)
    rows, _ = _by_lemma(corpus, np.ones(len(corpus.lemmas), dtype=bool))
    copies = np.diff(corpus.gold_offsets)[rows]
    owners = np.repeat(rows, copies)  # each pair's instance
    firsts = np.repeat(np.cumsum(copies) - copies, copies)  # the first pair of each pair's instance
    ranks = np.arange(len(owners)) - firsts  # each pair's place among its instance's gold keys
    keys = corpus.gold[corpus.gold_offsets[owners] + ranks]
    embeddings = _embed(model, corpus, owners)
    later = ranks > 0  # two products of one context may round apart, so copy the first
    embeddings[later] = embeddings[firsts[later]]
    sizes = np.bincount(corpus.lemma_codes[owners], minlength=len(corpus.lemmas))
    store = ClassifierStore(dim=model.config.held_out_dim)
    for lemma, end, size in zip(corpus.lemmas, np.cumsum(sizes).tolist(), sizes.tolist()):
        used, first, codes = np.unique(keys[end - size : end], return_index=True, return_inverse=True)
        by_use = np.argsort(first)  # the lemma's keys in first-use order
        store.keys[lemma] = [corpus.keys[code] for code in used[by_use].tolist()]
        store.codes[lemma] = np.argsort(by_use).astype(np.uint32)[codes]
        store.pairs[lemma] = embeddings[end - size : end]
    return store


def _widened(store: ClassifierStore, lemma: str) -> tuple[np.ndarray, np.ndarray]:
    """A lemma's pairs as float64, and their norms."""
    vectors = np.asarray(store.pairs[lemma], dtype=np.float64)
    return vectors, np.linalg.norm(vectors, axis=1)


def _cosine_distances(queries: np.ndarray, vectors: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """1 - cosine similarity of each query (row) to each vector, in float64.

    ``norms`` are the vectors' norms. One matrix product computes the block;
    a zero-norm query or vector sits at distance 1.
    """
    queries = np.asarray(queries, dtype=np.float64)
    qn = np.linalg.norm(queries, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        distances = (queries @ vectors.T) / (qn[:, None] * norms)
    distances[:, ~(norms > 0.0)] = 0.0
    distances[~(qn > 0.0)] = 0.0
    return np.subtract(1.0, distances, out=distances)


def _tie_order(lemma: str, keys: Sequence[str], inventory: SenseInventory | None) -> np.ndarray:
    """Each sense code's place in inventory order, then in key order (keys the inventory lacks last)."""
    listed = inventory.senses(lemma) if inventory is not None and lemma in inventory else []
    rank = {key: i for i, key in enumerate(listed)}
    return np.argsort(sorted(range(len(keys)), key=lambda c: (rank.get(keys[c], len(rank)), keys[c])))


def _vote(codes: np.ndarray, distances: np.ndarray, tie_order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Winning sense code of each row of neighbours, and its margin.

    Row i holds the sense codes and distances of a query's nearest pairs,
    whose distances are summed in column order. The sense with the most
    votes wins; a vote tie goes to the smaller mean distance, then to the
    smaller ``tie_order``. The margin is the gap from the winner's mean
    distance to the next among the senses tied with it on votes (inf if
    none is).
    """
    rows, n_senses = len(codes), len(tie_order)
    cells = (np.arange(rows)[:, None] * n_senses + codes).ravel()
    votes = np.bincount(cells, minlength=rows * n_senses).reshape(rows, n_senses)
    sums = np.bincount(cells, distances.ravel(), rows * n_senses).reshape(rows, n_senses)
    top = votes == votes.max(axis=1, keepdims=True)
    means = np.divide(sums, votes, out=np.full(votes.shape, np.inf), where=top)
    best = means.min(axis=1)
    winners = np.where(means == best[:, None], tie_order, n_senses).argmin(axis=1)
    means[np.arange(rows), winners] = np.inf
    return winners, means.min(axis=1) - best


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
    distances = _cosine_distances(np.reshape(query, (1, -1)), *_widened(store, lemma))
    nearest = np.argsort(distances[0], kind="stable")[None, : cfg.k]
    winners, _ = _vote(codes[nearest], distances[:, nearest[0]], _tie_order(lemma, keys, inventory))
    return keys[winners[0]]


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
    order, then by key: this is ``predict_knn`` over every mean, one vote each.
    """
    if lemma not in means:
        raise NoClassifierError(lemma)
    return predict_knn(means, ClassifierConfig(k=len(means.keys[lemma])), lemma, query, inventory)


def _knn_lemma(
    store: ClassifierStore, cfg: ClassifierConfig, lemma: str, queries: np.ndarray, inventory: SenseInventory
) -> np.ndarray:
    """The code of ``predict_knn``'s sense for each query (a row) of ``lemma``, batched under the certificate.

    A k-th and (k+1)-th distance, or a vote margin, within ``_CERTIFY_BOUND``
    (or not comparable, as NaN is) sends the query to ``predict_knn``.
    """
    (vectors, norms), keys, codes = _widened(store, lemma), store.keys[lemma], store.codes[lemma]
    tie_order, k = _tie_order(lemma, keys, inventory), min(cfg.k, len(vectors))
    per_block = max(1, _BLOCK_ELEMENTS // len(vectors))
    senses = np.empty(len(queries), dtype=np.intp)
    for first in range(0, len(queries), per_block):
        block = queries[first : first + per_block]
        distances = _cosine_distances(block, vectors, norms)
        if k < len(vectors):
            edge = np.partition(distances, k, axis=1)  # the k nearest first, then the (k+1)-th
            kth = np.maximum.reduce(edge[:, :k], axis=1)
            certified = edge[:, k] - kth > _CERTIFY_BOUND
            # a certified row's k nearest are exactly its distances at or below its k-th; keep them in column order
            near = np.flatnonzero(distances <= np.where(certified, kth, np.nan)[:, None])
            neighbours, distances = codes[near % len(vectors)].reshape(-1, k), distances.take(near).reshape(-1, k)
        else:  # every pair is a neighbour
            neighbours, certified = np.broadcast_to(codes, distances.shape), np.ones(len(block), dtype=bool)
        winners, margins = _vote(neighbours, distances, tie_order)
        voted = np.flatnonzero(certified)
        certified[voted] = margins > _CERTIFY_BOUND
        senses[first + voted] = winners
        for i in np.flatnonzero(~certified):
            senses[first + i] = keys.index(predict_knn(store, cfg, lemma, block[i], inventory))
    return senses


def predict_all(
    store: ClassifierStore,
    inventory: SenseInventory,
    model: LmModel,
    cfg: ClassifierConfig,
    corpus: LabeledCorpus,
) -> list[str]:
    """Predicted sense of each instance, in file order.

    kNN when the instance's lemma has training pairs, else the inventory's
    first sense. The queries are grouped and embedded as in
    ``build_classifier_store``, so a query's last bits may depend on the
    contexts it is embedded with. Each lemma's queries are scored together,
    in blocks of at most ``_BLOCK_ELEMENTS`` distances; a query whose vote is
    within ``_CERTIFY_BOUND`` of a tie (see the module docstring) is
    recomputed with ``predict_knn``, so each answer is ``predict_knn``'s for
    the query vector computed here. Before any embedding, a lemma missing
    from the inventory (listing every such instance) or a store whose width
    is not the model's is a ``DataError``.
    """
    _check_lemmas(corpus, inventory)
    if store.dim != model.config.held_out_dim:
        raise DataError(
            f"classifier store holds {store.dim}-wide embeddings, "
            f"but the model's are {model.config.held_out_dim} wide"
        )
    known = np.array([lemma in store for lemma in corpus.lemmas], dtype=bool)
    rows, sizes = _by_lemma(corpus, known)
    queries = _embed(model, corpus, rows)
    senses: list[str] = []  # each lemma's candidate answers, one lemma after another
    first = np.zeros(len(corpus.lemmas), dtype=np.intp)  # where each lemma's answers begin in it
    for code, lemma in enumerate(corpus.lemmas):
        first[code] = len(senses)
        senses.extend(store.keys[lemma] if known[code] else [inventory.first_sense(lemma)])
    answers = first[corpus.lemma_codes]
    for lemma, end, size in zip(corpus.lemmas, np.cumsum(sizes).tolist(), sizes.tolist()):
        if size:
            answers[rows[end - size : end]] += _knn_lemma(store, cfg, lemma, queries[end - size : end], inventory)
    return [senses[i] for i in answers.tolist()]


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
    rd = Reader.open(path, "classifier store", STORE_MAGIC, STORE_VERSION)
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
