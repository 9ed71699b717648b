"""Per-lemma sense classifiers over context embeddings.

The primary path is a cosine-distance kNN over every labeled training
occurrence of a lemma; the baseline averages each sense's embeddings into
one sense embedding and picks the most similar. Lemmas with no training
pairs at all fall back to the inventory's first-listed sense. A lemma's
pairs are one ``LemmaBlock``, laid out as its file holds them (below), in
float32; distances and means are float64.

A ``ClassifierStore`` is a width, a lemma count and the blocks in store
order. Its ``blocks`` are a list when collected, and an iterator, consumed
once, when streamed: ``stream_classifier_store`` embeds each lemma's block
as soon as its last instance is embedded, and ``open_store`` reads each
block from the file when it is asked for. ``build_classifier_store`` and
``load_store`` collect those two. ``save_store`` and ``predict_all`` take
either, and the ``build`` and ``predict`` commands pass the streamed ones
straight on, so they hold one lemma's pairs at a time. Both stages group
a ``LabeledCorpus``'s instances by lemma with one stable sort of its lemma
codes.

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
row-major. Each block is read straight into its own array, and written
straight from its lemma's arrays a slice at a time. A code beyond the key
list, a key listed twice, and keys not in first-use order (an unused key
among them) make the file corrupt, so a loaded store saves to the same
bytes. Version 1 stores, one record per pair, are rejected as incompatible;
``build`` writes them anew.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import lm
from ._files import Reader, Writer, read_records, write_file
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


class LemmaBlock(NamedTuple):
    """One lemma's training pairs, as the store file holds them.

    ``keys`` lists the lemma's distinct sense keys in the order of their
    first pair, and ``codes[i]`` (uint32) is pair i's index into it.
    ``pairs[i]`` is pair i's context embedding: a float32 row of the
    lemma's (pairs, dim) matrix, as build embedded it or the loader read it
    (read-only).
    """

    lemma: str
    keys: list[str]
    codes: np.ndarray
    pairs: np.ndarray


class ClassifierStore(NamedTuple):
    """Per-lemma training pairs: their width, their lemma count, and each lemma's block, in store order.

    ``blocks`` is a list when the store is collected (``build_classifier_store``,
    ``load_store``), and an iterator, consumed once, when it is streamed
    (``stream_classifier_store``, ``open_store``). A streamed block is made
    when it is asked for, so a consumer that drops each block before the
    next holds one lemma's pairs at a time.
    """

    dim: int
    n_lemmas: int
    blocks: Iterable[LemmaBlock]


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


def _by_lemma(corpus: LabeledCorpus) -> tuple[np.ndarray, np.ndarray]:
    """The instances grouped by lemma, and each lemma's count of them.

    Lemmas come in ``corpus.lemmas``'s first-use order and instances in
    file order within one: a stable sort of the lemma codes.
    """
    return np.argsort(corpus.lemma_codes, kind="stable"), np.bincount(corpus.lemma_codes, minlength=len(corpus.lemmas))


def _embedder(model: LmModel, corpus: LabeledCorpus) -> Callable[[np.ndarray], np.ndarray]:
    """A function giving the context embedding of each instance in ``rows`` from one ``context_embeddings`` call.

    The corpus's token types map to model ids once each (unknown words to
    the unknown id); one ``take`` maps its tokens.
    """
    ids = np.array(model.vocab.encode(corpus.types), dtype=np.intp).take(corpus.tokens)

    def embed(rows: np.ndarray) -> np.ndarray:
        starts = corpus.offsets[rows]
        return context_embeddings(model, ids, starts, corpus.offsets[rows + 1] - starts, corpus.targets[rows])

    return embed


def _take(held: list[np.ndarray], n: int) -> np.ndarray:
    """The first ``n`` rows of the arrays in ``held``, removed from it; a view when they lie in the first one."""
    parts = []
    while n > len(held[0]):
        n -= len(held[0])
        parts.append(held.pop(0))
    parts.append(held[0][:n])
    held[0] = held[0][n:]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _built_blocks(model: LmModel, corpus: LabeledCorpus) -> Iterator[LemmaBlock]:
    """Each lemma's block, as soon as its last instance is embedded.

    The instances go through ``context_embeddings`` in ``_by_lemma``'s
    order, ``lm._EMBED_BATCH`` at a time, so the chunks are those of one
    call over them all. A multi-gold instance's one row repeats once per
    gold key, keys in sorted order. A lemma's keys come in first-use order.
    """
    embed, (rows, sizes) = _embedder(model, corpus), _by_lemma(corpus)
    copies = np.diff(corpus.gold_offsets)
    held: list[np.ndarray] = []  # embedded rows not yet in a block, in ``rows`` order
    done = 0  # instances embedded
    for lemma, end, size in zip(corpus.lemmas, np.cumsum(sizes).tolist(), sizes.tolist()):
        while done < end:
            held.append(embed(rows[done : done + lm._EMBED_BATCH]))
            done += len(held[-1])
        instances, embeddings = rows[end - size : end], _take(held, size)
        counts = copies[instances]
        owners = np.repeat(instances, counts)  # each pair's instance
        if len(owners) > size:  # a multi-gold instance: its one row once per gold key
            embeddings = np.repeat(embeddings, counts, axis=0)
        ranks = np.arange(len(owners)) - np.repeat(np.cumsum(counts) - counts, counts)  # place among its instance's keys
        gold = corpus.gold[corpus.gold_offsets[owners] + ranks]
        used, first, codes = np.unique(gold, return_index=True, return_inverse=True)
        by_use = np.argsort(first)  # the lemma's keys in first-use order
        keys = [corpus.keys[code] for code in used[by_use].tolist()]
        yield LemmaBlock(lemma, keys, np.argsort(by_use).astype(np.uint32)[codes], embeddings)


def stream_classifier_store(model: LmModel, corpus: LabeledCorpus, inventory: SenseInventory) -> ClassifierStore:
    """The store of ``build_classifier_store``, embedded one lemma at a time as its blocks are asked for.

    At the call, before any embedding, a ``DataError`` names every instance
    whose lemma, or any of whose gold keys, the inventory lacks.
    """
    _check_lemmas(corpus, inventory)
    _check_keys(corpus, inventory)
    return ClassifierStore(model.config.held_out_dim, len(corpus.lemmas), _built_blocks(model, corpus))


def build_classifier_store(model: LmModel, corpus: LabeledCorpus, inventory: SenseInventory) -> ClassifierStore:
    """Embed every labeled instance once and group the pairs by lemma.

    A multi-gold instance contributes one pair per gold key (keys in sorted
    order), each its one embedding. Lemmas come in first-use order and
    pairs in instance order. This collects ``stream_classifier_store``,
    whose checks it makes.
    """
    store = stream_classifier_store(model, corpus, inventory)
    return store._replace(blocks=list(store.blocks))


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """A float64 copy of ``rows``, each divided by its norm; a row of norm 0 or NaN becomes all zeros."""
    rows = np.array(rows, dtype=np.float64, ndmin=2)
    norms = np.linalg.norm(rows, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rows /= norms[:, None]
    rows[~(norms > 0.0)] = 0.0
    return rows


def _cosine_distances(unit_queries: np.ndarray, unit_rows: np.ndarray) -> np.ndarray:
    """1 - cosine similarity of each query to each row, both from ``_unit_rows``; 1 if either is all zeros."""
    distances = unit_queries @ unit_rows.T
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
    block: LemmaBlock,
    cfg: ClassifierConfig,
    query: np.ndarray,
    inventory: SenseInventory | None = None,
) -> str:
    """Majority sense of the lemma's k nearest training pairs by cosine distance.

    Vote ties break toward the tied sense whose voting neighbors have the
    smaller mean distance, then by inventory order (lexicographic order when
    no inventory is given).
    """
    lemma, keys, codes, pairs = block
    if not len(pairs):
        raise NoClassifierError(lemma)
    distances = _cosine_distances(_unit_rows(query), _unit_rows(pairs))
    nearest = np.argsort(distances[0], kind="stable")[None, : cfg.k]
    winners, _ = _vote(codes[nearest], distances[:, nearest[0]], _tie_order(lemma, keys, inventory))
    return keys[winners[0]]


def build_sense_embeddings(block: LemmaBlock) -> LemmaBlock:
    """The lemma's block with one pair per sense: the mean of its context embeddings.

    Pair i is key i's mean. Rows are widened to float64, and each sense's are
    summed one after the other (``cumsum``; ``sum`` may pair them up differently).
    """
    lemma, keys, codes, vectors = block
    vectors = np.asarray(vectors, dtype=np.float64)
    rows = np.empty((len(keys), vectors.shape[1]))
    for code in range(len(keys)):
        mask = codes == code
        rows[code] = np.cumsum(vectors[mask], axis=0)[-1] / np.count_nonzero(mask)
    return LemmaBlock(lemma, list(keys), np.arange(len(keys), dtype=np.uint32), rows)


def predict_cosine(
    means: LemmaBlock,
    query: np.ndarray,
    inventory: SenseInventory | None = None,
) -> str:
    """Sense whose mean embedding is most cosine-similar to the query.

    ``means`` comes from ``build_sense_embeddings``. Ties go by inventory
    order, then by key: this is ``predict_knn`` over every mean, one vote each.
    """
    if not len(means.pairs):
        raise NoClassifierError(means.lemma)
    return predict_knn(means, ClassifierConfig(k=len(means.keys)), query, inventory)


def _knn_lemma(block: LemmaBlock, cfg: ClassifierConfig, queries: np.ndarray, inventory: SenseInventory) -> np.ndarray:
    """The code of ``predict_knn``'s sense for each query (a row) of the block's lemma, batched under the certificate.

    A k-th and (k+1)-th distance, or a vote margin, within ``_CERTIFY_BOUND``
    (or not comparable, as NaN is) sends the query to ``predict_knn``.
    """
    vectors, keys, codes = _unit_rows(block.pairs), block.keys, block.codes
    tie_order, k = _tie_order(block.lemma, keys, inventory), min(cfg.k, len(vectors))
    per_block = max(1, _BLOCK_ELEMENTS // len(vectors))
    senses = np.empty(len(queries), dtype=np.intp)
    for first in range(0, len(queries), per_block):
        chunk = queries[first : first + per_block]
        distances = _cosine_distances(_unit_rows(chunk), vectors)
        if k < len(vectors):
            edge = np.partition(distances, k, axis=1)  # the k nearest first, then the (k+1)-th
            kth = np.maximum.reduce(edge[:, :k], axis=1)
            certified = edge[:, k] - kth > _CERTIFY_BOUND
            # a certified row's k nearest are exactly its distances at or below its k-th; keep them in column order
            near = np.flatnonzero(distances <= np.where(certified, kth, np.nan)[:, None])
            neighbours, distances = codes[near % len(vectors)].reshape(-1, k), distances.take(near).reshape(-1, k)
        else:  # every pair is a neighbour
            neighbours, certified = np.broadcast_to(codes, distances.shape), np.ones(len(chunk), dtype=bool)
        winners, margins = _vote(neighbours, distances, tie_order)
        voted = np.flatnonzero(certified)
        certified[voted] = margins > _CERTIFY_BOUND
        senses[first + voted] = winners
        for i in np.flatnonzero(~certified):
            senses[first + i] = keys.index(predict_knn(block, cfg, chunk[i], inventory))
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
    first sense. Every instance is embedded first, in one
    ``context_embeddings`` call in ``_by_lemma``'s order, so a query's last
    bits may depend on the contexts it is embedded with. Then each lemma's
    queries are scored as its block comes from ``store.blocks``, a list or
    a stream, in blocks of at most ``_BLOCK_ELEMENTS`` distances; a query
    whose vote is within ``_CERTIFY_BOUND`` of a tie (see the module
    docstring) is recomputed with ``predict_knn``, so each answer is
    ``predict_knn``'s for the query vector computed here. Nothing is
    returned before the blocks are exhausted, which is when ``open_store``'s
    stream checks the file's end. Before any embedding, a lemma missing
    from the inventory (listing every such instance) or a store whose width
    is not the model's is a ``DataError``.
    """
    _check_lemmas(corpus, inventory)
    if store.dim != model.config.held_out_dim:
        raise DataError(
            f"classifier store holds {store.dim}-wide embeddings, "
            f"but the model's are {model.config.held_out_dim} wide"
        )
    rows, sizes = _by_lemma(corpus)
    queries = _embedder(model, corpus)(rows)
    ends = np.cumsum(sizes).tolist()
    spans = {lemma: slice(end - size, end) for lemma, end, size in zip(corpus.lemmas, ends, sizes.tolist())}
    senses: list[str] = []  # each lemma's candidate answers, one lemma after another
    answers = np.empty(len(corpus), dtype=np.intp)  # each instance's index into them
    for block in store.blocks:
        if block.lemma in spans and len(block.pairs):
            span = spans.pop(block.lemma)
            answers[rows[span]] = len(senses) + _knn_lemma(block, cfg, queries[span], inventory)
            senses.extend(block.keys)
    for lemma, span in spans.items():  # no training pairs: first-sense backoff
        answers[rows[span]] = len(senses)
        senses.append(inventory.first_sense(lemma))
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
    """Write the store to ``path``, one lemma's blocks at a time; embeddings narrow to f32 on disk.

    Before the file is replaced, a value that is not finite as f32 is a
    ``DataError``, and pairs not of shape (codes, dim), a bad key list or
    blocks of other than its count of lemmas a ``ValueError``: the loader
    would reject any such file. Each lemma is checked as it is reached,
    after the lemmas before it are in the temp file, and its blocks are
    streamed to the file from its arrays' own memory.
    """
    with Writer.create(path, STORE_MAGIC, STORE_VERSION) as wr:
        wr.u32(store.dim, store.n_lemmas)
        written = 0
        for lemma, keys, codes, vectors in store.blocks:
            codes = codes.astype("<u4", copy=False)
            if vectors.shape != (len(codes), store.dim):
                raise ValueError(
                    f"lemma {lemma!r}: {len(codes)} sense keys, pairs of shape {vectors.shape}, dim {store.dim}"
                )
            if problem := _key_list_problem(lemma, keys, codes):
                raise ValueError(problem)
            wr.texts([lemma])
            wr.u32(len(codes), len(keys))
            wr.texts(keys)
            wr.u32s(codes)
            wr.floats(vectors)
            written += 1
        if written != store.n_lemmas:
            raise ValueError(f"a stream of {store.n_lemmas} lemmas gave {written}")


def _read_blocks(rd: Reader, dim: int, n_lemmas: int) -> Iterator[LemmaBlock]:
    """The ``n_lemmas`` blocks ``rd`` is at, each checked as it is read; then the file's checksum and end."""
    seen: set[str] = set()
    for _ in range(n_lemmas):
        (lemma,) = rd.texts(1)
        if lemma in seen:
            raise rd.corrupt(f"duplicate lemma {lemma!r}")
        seen.add(lemma)
        n_pairs, n_keys = rd.u32(), rd.u32()
        keys = rd.texts(n_keys)
        codes = rd.u32s(n_pairs)
        if problem := _key_list_problem(lemma, keys, codes):
            raise rd.corrupt(problem)
        yield LemmaBlock(lemma, keys, codes, rd.floats(n_pairs * dim).reshape(n_pairs, dim))
    rd.close()


@contextlib.contextmanager
def open_store(path: str | Path) -> Iterator[ClassifierStore]:
    """The store file at ``path`` as a streamed ``ClassifierStore``, open while the ``with`` block runs.

    Its width and lemma count are read at once. Each block is read when it
    is asked for, its arrays read-only; a repeated lemma or a bad key list
    is corrupt. The stream ends only once the checksum and the file's end
    have checked, so whoever exhausts it has read an intact file.
    """
    with Reader.open(path, "classifier store", STORE_MAGIC, STORE_VERSION) as rd:
        dim, n_lemmas = rd.u32(), rd.u32()
        yield ClassifierStore(dim, n_lemmas, _read_blocks(rd, dim, n_lemmas))


def load_store(path: str | Path) -> ClassifierStore:
    """The whole store file at ``path``: ``open_store``'s stream, collected."""
    with open_store(path) as store:
        return store._replace(blocks=list(store.blocks))
