"""Test helpers for labeled corpora.

``read_reference`` is the labeled-corpus reader as it was written before
the columnar ``LabeledCorpus``: one ``Instance`` per line, checked line by
line. The tests hold the columnar reader to it. ``corpus_of`` reads rows
through the real reader, and ``embed`` runs ``context_embeddings`` on
(tokens, target index) contexts.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fofe_wsd._files import read_records
from fofe_wsd.corpus import LabeledCorpus, read_labeled_corpus, tokenize_line
from fofe_wsd.errors import DataError
from fofe_wsd.lm import context_embeddings


@dataclass
class Instance:
    """One sense-annotated target-word occurrence."""

    instance_id: str
    tokens: list[str]
    target_index: int
    lemma: str
    sense_keys: frozenset[str]


def read_reference(path: str | Path) -> list[Instance]:
    """Parse a labeled TSV corpus into instances, in file order."""
    instances: list[Instance] = []
    seen_ids: set[str] = set()
    records = read_records(path, "labeled corpus", 5)
    for lineno, (instance_id, text, index_text, lemma, gold_text) in records:
        if not instance_id:
            raise DataError(f"{path}: empty instance id (line {lineno})")
        if instance_id in seen_ids:
            raise DataError(f"{path}: duplicate instance id {instance_id!r} (line {lineno})")
        tokens = tokenize_line(text)
        try:
            target_index = int(index_text)
        except ValueError:
            raise DataError(f"{path}: malformed target index {index_text!r} (line {lineno})")
        if not 0 <= target_index < len(tokens):
            raise DataError(f"{path}: target index out of range (line {lineno})")
        lemma = lemma.strip().lower()
        if not lemma:
            raise DataError(f"{path}: empty lemma (line {lineno})")
        sense_keys = frozenset(k.strip() for k in gold_text.split(",") if k.strip())
        if not sense_keys:
            raise DataError(f"{path}: empty gold sense set (line {lineno})")
        seen_ids.add(instance_id)
        instances.append(Instance(instance_id, tokens, target_index, lemma, sense_keys))
    return instances


def instances_of(corpus: LabeledCorpus) -> list[Instance]:
    """The corpus's instances, one record each, in file order."""
    rows = []
    for i, instance_id in enumerate(corpus.ids):
        tokens = [corpus.types[c] for c in corpus.tokens[corpus.offsets[i] : corpus.offsets[i + 1]]]
        keys = frozenset(corpus.keys[c] for c in corpus.gold[corpus.gold_offsets[i] : corpus.gold_offsets[i + 1]])
        lemma = corpus.lemmas[corpus.lemma_codes[i]]
        rows.append(Instance(instance_id, tokens, int(corpus.targets[i]), lemma, keys))
    return rows


def labeled_line(instance_id, tokens, target, lemma, senses) -> str:
    """One labeled-corpus line; the gold keys are written sorted."""
    return "\t".join([instance_id, " ".join(tokens), str(target), lemma, ",".join(sorted(senses))]) + "\n"


def corpus_of(rows) -> LabeledCorpus:
    """``read_labeled_corpus`` of a file of ``labeled_line`` rows."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "labeled.tsv"
        path.write_text("".join(labeled_line(*row) for row in rows), encoding="utf-8")
        return read_labeled_corpus(path)


def embed(model, contexts) -> np.ndarray:
    """``context_embeddings`` of the (tokens, target index) contexts."""
    ids = [model.vocab.encode(tokens) for tokens, _ in contexts]
    lengths = np.array([len(sentence) for sentence in ids], dtype=np.intp)
    tokens = np.array([i for sentence in ids for i in sentence], dtype=np.intp)
    positions = np.array([target for _, target in contexts], dtype=np.intp)
    return context_embeddings(model, tokens, np.cumsum(lengths) - lengths, lengths, positions)
