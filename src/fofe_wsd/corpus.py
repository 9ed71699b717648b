"""Corpus ingestion: tokenization, vocabulary, labeled instances, sense inventories.

File formats (all UTF-8, one record per line):

* unlabelled corpus: plain text, one sentence per line
* labeled corpus (TSV):
  ``instance_id<TAB>space-joined tokens<TAB>target_index<TAB>lemma<TAB>comma-joined gold sense keys``
* sense inventory (TSV): ``lemma<TAB>comma-joined ordered sense keys``
  (first key = most frequent sense, used for backoff)

Lines starting with ``#`` and blank lines are skipped in the TSV readers.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

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
    unk_id: int = UNK_ID

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

    def lookup(self, token: str) -> int:
        """Id of ``token``, or the unknown id when absent."""
        return self.index.get(token, self.unk_id)

    def encode(self, tokens: Iterable[str]) -> list[int]:
        return [self.index.get(t, self.unk_id) for t in tokens]


def build_vocabulary(corpus: Iterable[str], max_size: int) -> Vocabulary:
    """Build a vocabulary of the most frequent tokens.

    Keeps the unknown token plus the ``max_size - 1`` most frequent corpus
    tokens; frequency ties break lexicographically. Ids are assigned by
    descending frequency (then token order), starting at 1.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2 (unknown token plus one word)")
    counts: Counter[str] = Counter()
    for line in corpus:
        counts.update(tokenize_line(line))
    # The reserved token is never treated as a corpus word.
    counts.pop(UNK_TOKEN, None)
    if not counts:
        raise DataError("empty corpus")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    kept = [token for token, _ in ranked[: max_size - 1]]
    return Vocabulary.from_tokens([UNK_TOKEN, *kept])


@dataclass
class LabeledInstance:
    """One sense-annotated target-word occurrence."""

    instance_id: str
    tokens: list[str]
    target_index: int
    lemma: str
    sense_keys: frozenset[str]


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


def read_labeled_corpus(path: str | Path) -> list[LabeledInstance]:
    """Parse a labeled TSV corpus into instances, in file order."""
    instances: list[LabeledInstance] = []
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
        instances.append(
            LabeledInstance(
                instance_id=instance_id,
                tokens=tokens,
                target_index=target_index,
                lemma=lemma,
                sense_keys=sense_keys,
            )
        )
    return instances


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
