"""Per-lemma sense classifiers over context embeddings.

The primary path is a cosine-distance kNN over every labeled training
occurrence of a lemma; the baseline averages each sense's embeddings into
one sense embedding and picks the most similar. Lemmas with no training
pairs at all fall back to the inventory's first-listed sense.

Store file format mirrors the checkpoint container: magic ``FWSD``,
version u32, embedding dim u32, lemma count u32, then per lemma a
length-prefixed name, pair count, and per pair a length-prefixed sense key
plus the f32 embedding, ending with the u64 byte-sum checksum.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from ._binio import Reader, checksum, write_str
from .corpus import LabeledInstance, SenseInventory
from .errors import DataError
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
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass
class ClassifierStore:
    """Per-lemma (sense key, context embedding) training pairs, in build order."""

    dim: int
    pairs: dict[str, list[tuple[str, np.ndarray]]] = field(default_factory=dict)

    def add(self, lemma: str, sense_key: str, embedding: np.ndarray) -> None:
        if embedding.shape != (self.dim,):
            raise ValueError(f"embedding has shape {embedding.shape}, expected ({self.dim},)")
        self.pairs.setdefault(lemma, []).append((sense_key, embedding))

    def __contains__(self, lemma: str) -> bool:
        return bool(self.pairs.get(lemma))

    def sense_counts(self, lemma: str) -> Counter[str]:
        return Counter(sense for sense, _ in self.pairs.get(lemma, []))


@dataclass
class SenseEmbeddings:
    """Per-lemma mean embedding of each sense's training pairs."""

    dim: int
    means: dict[str, dict[str, np.ndarray]] = field(default_factory=dict)


def build_classifier_store(model: LmModel, instances: Sequence[LabeledInstance]) -> ClassifierStore:
    """Embed every labeled instance and group the pairs by lemma.

    A multi-gold instance contributes one pair per gold sense key (keys in
    sorted order), all sharing the same embedding. Pair order follows
    instance order.
    """
    dim = model.config.hidden_dims[-1] if model.config.hidden_dims else model.config.input_dim
    store = ClassifierStore(dim=dim)
    embeddings = context_embeddings(model, [(inst.tokens, inst.target_index) for inst in instances])
    for inst, emb in zip(instances, embeddings):
        for sense in sorted(inst.sense_keys):
            store.add(inst.lemma, sense, emb)
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
    pairs = store.pairs.get(lemma)
    if not pairs:
        raise NoClassifierError(lemma)
    vectors = np.stack([emb for _, emb in pairs])
    distances = _cosine_distances(np.asarray(query, dtype=np.float64), vectors)
    nearest = np.argsort(distances, kind="stable")[: min(cfg.k, len(pairs))]

    votes: Counter[str] = Counter()
    dist_sum: dict[str, float] = {}
    for i in nearest:
        sense = pairs[i][0]
        votes[sense] += 1
        dist_sum[sense] = dist_sum.get(sense, 0.0) + float(distances[i])
    rank = _sense_rank(lemma, inventory)
    return min(
        votes,
        key=lambda s: (-votes[s], dist_sum[s] / votes[s], rank.get(s, len(rank)), s),
    )


def build_sense_embeddings(store: ClassifierStore) -> SenseEmbeddings:
    """Arithmetic mean of each sense's context embeddings."""
    means: dict[str, dict[str, np.ndarray]] = {}
    for lemma, pairs in store.pairs.items():
        sums: dict[str, np.ndarray] = {}
        counts: Counter[str] = Counter()
        for sense, emb in pairs:
            if sense in sums:
                sums[sense] = sums[sense] + emb
            else:
                sums[sense] = emb.astype(np.float64, copy=True)
            counts[sense] += 1
        means[lemma] = {sense: sums[sense] / counts[sense] for sense in sums}
    return SenseEmbeddings(dim=store.dim, means=means)


def predict_cosine(
    senses: SenseEmbeddings,
    lemma: str,
    query: np.ndarray,
    inventory: SenseInventory | None = None,
) -> str:
    """Sense whose mean embedding is most cosine-similar to the query."""
    lemma_means = senses.means.get(lemma)
    if not lemma_means:
        raise NoClassifierError(lemma)
    keys = list(lemma_means)
    vectors = np.stack([lemma_means[k] for k in keys])
    sims = 1.0 - _cosine_distances(np.asarray(query, dtype=np.float64), vectors)
    rank = _sense_rank(lemma, inventory)
    order = sorted(range(len(keys)), key=lambda i: (-sims[i], rank.get(keys[i], len(rank)), keys[i]))
    return keys[order[0]]


def predict_with_backoff(
    store: ClassifierStore,
    inventory: SenseInventory,
    model: LmModel,
    cfg: ClassifierConfig,
    instance: LabeledInstance,
) -> str:
    """kNN when the lemma has training pairs, else the inventory's first sense."""
    return predict_all(store, inventory, model, cfg, [instance])[0]


def predict_all(
    store: ClassifierStore,
    inventory: SenseInventory,
    model: LmModel,
    cfg: ClassifierConfig,
    instances: Sequence[LabeledInstance],
) -> list[str]:
    """``predict_with_backoff`` of each instance, in order.

    The kNN queries of all instances come from one ``context_embeddings``
    call.
    """
    queried = [inst for inst in instances if inst.lemma in store]
    queries = context_embeddings(model, [(inst.tokens, inst.target_index) for inst in queried])
    predictions = []
    for inst in instances:
        if inst.lemma in store:
            predictions.append(predict_knn(store, cfg, inst.lemma, next(queries), inventory))
        elif inst.lemma in inventory:
            predictions.append(inventory.first_sense(inst.lemma))
        else:
            raise DataError(f"unknown lemma {inst.lemma!r} (instance {inst.instance_id})")
    return predictions


def write_predictions(rows: Sequence[tuple[str, str]], path: str | Path) -> None:
    """One ``instance_id<TAB>sense key`` line per row, in the given order."""
    text = "".join(f"{instance_id}\t{sense}\n" for instance_id, sense in rows)
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def read_predictions(path: str | Path) -> dict[str, str]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read predictions {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"predictions {path} is not valid UTF-8: {exc}") from exc
    predictions: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise DataError(f"{path}: malformed prediction line {lineno}: {line!r}")
        instance_id, sense = parts
        if instance_id in predictions:
            raise DataError(f"{path}: duplicate prediction for {instance_id!r} (line {lineno})")
        predictions[instance_id] = sense
    return predictions


def save_store(store: ClassifierStore, path: str | Path) -> None:
    """Write the store to ``path``; embeddings narrow to f32 on disk."""
    out = bytearray()
    out += STORE_MAGIC
    out += struct.pack("<I", STORE_VERSION)
    out += struct.pack("<I", store.dim)
    out += struct.pack("<I", len(store.pairs))
    for lemma, pairs in store.pairs.items():
        write_str(out, lemma)
        out += struct.pack("<I", len(pairs))
        for sense, emb in pairs:
            write_str(out, sense)
            out += np.ascontiguousarray(emb, dtype="<f4").tobytes()
    out += struct.pack("<Q", checksum(out))
    Path(path).write_bytes(out)


def load_store(path: str | Path) -> ClassifierStore:
    try:
        buf = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read classifier store {path}: {exc}") from exc
    rd = Reader(buf, "classifier store")
    if rd.take(4) != STORE_MAGIC:
        raise DataError(f"incompatible classifier store: {path} (bad magic)")
    version = rd.u32()
    if version != STORE_VERSION:
        raise DataError(f"incompatible classifier store: {path} (version {version})")
    dim = rd.u32()
    store = ClassifierStore(dim=dim)
    n_lemmas = rd.u32()
    for _ in range(n_lemmas):
        lemma = rd.text()
        if lemma in store.pairs:
            raise DataError(f"corrupt classifier store: {path} (duplicate lemma {lemma!r})")
        n_pairs = rd.u32()
        store.pairs[lemma] = []
        for _ in range(n_pairs):
            sense = rd.text()
            emb = np.frombuffer(rd.take(4 * dim), dtype="<f4").astype(np.float64)
            store.pairs[lemma].append((sense, emb))
    summed_region = buf[: rd.pos]
    stored_sum = rd.u64()
    if rd.pos != len(buf):
        raise DataError(f"corrupt classifier store: {path} (trailing bytes)")
    if checksum(summed_region) != stored_sum:
        raise DataError(f"corrupt classifier store: {path} (checksum mismatch)")
    return store
