"""Corpus ingestion: tokenization, vocabulary, labeled corpora, sense inventories.

File formats (all UTF-8, one record per line):

* unlabelled corpus: plain text, one sentence per line
* labeled corpus (TSV):
  ``instance_id<TAB>space-joined tokens<TAB>target_index<TAB>lemma<TAB>comma-joined gold sense keys``
* sense inventory (TSV): ``lemma<TAB>comma-joined ordered sense keys``
  (first key = most frequent sense, used for backoff)

Lines starting with ``#`` and blank lines are skipped in the TSV readers.
A labeled corpus is read once into one ``LabeledCorpus`` of flat arrays,
which ``build``, ``predict`` and ``eval`` use as they are.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ._files import read_records
from .errors import DataError

UNK_TOKEN = "<unk>"
UNK_ID = 0


def tokenize_line(text: str) -> list[str]:
    """Split on Unicode whitespace and lowercase. No other normalization."""
    return text.lower().split()


@dataclass
class Vocabulary:
    """Ordered token -> dense id map with a reserved unknown token at id 0."""

    tokens: list[str]
    index: dict[str, int] = field(repr=False)

    @classmethod
    def from_tokens(cls, tokens: list[str]) -> "Vocabulary":
        if not tokens or tokens[0] != UNK_TOKEN:
            raise ValueError(f"vocabulary must start with the {UNK_TOKEN!r} token")
        index = {tok: i for i, tok in enumerate(tokens)}
        if len(index) != len(tokens):
            raise ValueError("vocabulary contains duplicate tokens")
        return cls(tokens=tokens, index=index)

    def __len__(self) -> int:
        return len(self.tokens)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        """The id of each token, ``UNK_ID`` for one not in the vocabulary."""
        return [self.index.get(t, UNK_ID) for t in tokens]


def tokenize_corpus(lines: Iterable[str]) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Tokenize a plain-text corpus, one sentence per line, in one pass, into columns.

    Returns its distinct tokens in first-use order, the int32 code (place in that list) of
    each token, and the lines' intp offsets: line i's codes are ``codes[offsets[i]:offsets[i + 1]]``.
    """
    types: defaultdict[str, int] = defaultdict(itertools.count().__next__)  # token -> code, in first-use order
    codes, ends = [], []
    for line in lines:
        codes.extend(map(types.__getitem__, tokenize_line(line)))
        ends.append(len(codes))
    return list(types), np.fromiter(codes, dtype=np.int32, count=len(codes)), np.array([0, *ends], dtype=np.intp)


def build_vocabulary(types: Sequence[str], codes: np.ndarray, max_size: int) -> Vocabulary:
    """The unknown token and the ``max_size - 1`` most frequent tokens of a ``tokenize_corpus`` corpus.

    Ids go by descending count from 1, ties in token order; a ``<unk>`` in the corpus is no word.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2 (unknown token plus one word)")
    counts = np.bincount(codes, minlength=len(types)).tolist()
    ranked = sorted((-n, token) for token, n in zip(types, counts) if token != UNK_TOKEN)
    if not ranked:
        raise DataError("empty corpus")
    return Vocabulary.from_tokens([UNK_TOKEN, *(token for _, token in ranked[: max_size - 1])])


@dataclass
class SenseInventory:
    """Per-lemma ordered sense keys; list order is semantic (first = backoff)."""

    entries: dict[str, list[str]]

    def __contains__(self, lemma: str) -> bool:
        return lemma in self.entries

    def senses(self, lemma: str) -> list[str]:
        return self.entries[lemma]

    def first_sense(self, lemma: str) -> str:
        return self.entries[lemma][0]


@dataclass(eq=False)
class LabeledCorpus:
    """A labeled corpus as columns, instances in file order.

    Instance i is ``ids[i]``. Its tokens are the ``types`` whose codes are
    ``tokens[offsets[i]:offsets[i + 1]]``, and its target word is the one at
    ``targets[i]`` among them. Its lemma is ``lemmas[lemma_codes[i]]``, and
    its gold keys are the ``keys`` at ``gold[gold_offsets[i]:gold_offsets[i + 1]]``,
    in ascending code order. ``types`` and ``lemmas`` list each string once,
    in the order of its first instance; ``keys`` is sorted, so an instance's
    gold keys come in sorted order too. Codes are int32, offsets and targets
    intp.
    """

    ids: list[str]
    types: list[str]
    tokens: np.ndarray
    offsets: np.ndarray
    targets: np.ndarray
    lemmas: list[str]
    lemma_codes: np.ndarray
    keys: list[str]
    gold: np.ndarray
    gold_offsets: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)


def read_labeled_corpus(path: str | Path) -> LabeledCorpus:
    """Parse a labeled TSV corpus into columns, in file order.

    A line is checked for its field count, then an empty and a repeated
    instance id, the target index (an ``int``, inside the line's tokens),
    an empty lemma and an empty gold set, in that order; the first failure
    is a ``DataError`` naming its line. Lemmas are stripped and lowercased,
    gold keys stripped and deduplicated. The token codes grow in one flat
    list: each token string is kept once, as a key of the type table,
    and no per-line list outlives its line.
    """
    ids: dict[str, None] = {}
    types: defaultdict[str, int] = defaultdict(itertools.count().__next__)  # token -> code, in first-use order
    lemmas: dict[str, int] = {}  # lemma -> code
    lemma_of: dict[str, int] = {}  # lemma field as written -> code
    gold_sets: dict[str, list[str]] = {}  # gold field as written -> its sorted keys
    tokens, lengths, targets, lemma_codes, gold_fields = [], [], [], [], []  # tokens: a code per token
    for lineno, (instance_id, text, index_text, lemma, gold_text) in read_records(path, "labeled corpus", 5):
        if not instance_id:
            raise DataError(f"{path}: empty instance id (line {lineno})")
        if instance_id in ids:
            raise DataError(f"{path}: duplicate instance id {instance_id!r} (line {lineno})")
        words = tokenize_line(text)
        try:
            target = int(index_text)
        except ValueError:
            raise DataError(f"{path}: malformed target index {index_text!r} (line {lineno})")
        if not 0 <= target < len(words):
            raise DataError(f"{path}: target index out of range (line {lineno})")
        code = lemma_of.get(lemma)
        if code is None:
            name = lemma.strip().lower()
            if not name:
                raise DataError(f"{path}: empty lemma (line {lineno})")
            code = lemma_of[lemma] = lemmas.setdefault(name, len(lemmas))
        senses = gold_sets.get(gold_text)
        if senses is None:
            senses = sorted({k.strip() for k in gold_text.split(",")}.difference([""]))
            if not senses:
                raise DataError(f"{path}: empty gold sense set (line {lineno})")
            gold_sets[gold_text] = senses
        ids[instance_id] = None
        tokens.extend(map(types.__getitem__, words))
        lengths.append(len(words))
        targets.append(target)
        lemma_codes.append(code)
        gold_fields.append(senses)
    keys = sorted({key for senses in gold_sets.values() for key in senses})
    key_codes = {key: i for i, key in enumerate(keys)}
    gold = itertools.chain.from_iterable(gold_fields)
    return LabeledCorpus(
        ids=list(ids),
        types=list(types),
        tokens=np.fromiter(tokens, dtype=np.int32, count=len(tokens)),
        offsets=np.cumsum([0, *lengths], dtype=np.intp),
        targets=np.array(targets, dtype=np.intp),
        lemmas=list(lemmas),
        lemma_codes=np.array(lemma_codes, dtype=np.int32),
        keys=keys,
        gold=np.fromiter(map(key_codes.__getitem__, gold), dtype=np.int32),
        gold_offsets=np.cumsum([0, *map(len, gold_fields)], dtype=np.intp),
    )


def read_sense_inventory(path: str | Path) -> SenseInventory:
    """Parse a sense-inventory TSV, preserving per-lemma sense order exactly."""
    entries: dict[str, list[str]] = {}
    for lineno, (lemma, keys_text) in read_records(path, "sense inventory", 2):
        lemma = lemma.strip().lower()
        if not lemma:
            raise DataError(f"{path}: empty lemma (line {lineno})")
        if lemma in entries:
            raise DataError(f"{path}: duplicate lemma {lemma!r} (line {lineno})")
        keys = [k.strip() for k in keys_text.split(",") if k.strip()]
        if not keys:
            raise DataError(f"{path}: empty sense list (line {lineno})")
        if len(set(keys)) != len(keys):
            raise DataError(f"{path}: duplicate sense key for lemma {lemma!r} (line {lineno})")
        entries[lemma] = keys
    return SenseInventory(entries=entries)
