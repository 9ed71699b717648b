"""Seeded generator for a pseudoword disambiguation benchmark.

Two real-word flavors with disjoint collocate pools ("money" talk and
"river" talk) are merged into one artificial polyseme, so every occurrence
comes with a free gold sense: which pool its sentence was drawn from. The
generator writes an unlabelled corpus for language-model pretraining,
labeled train/test splits, the two-sense inventory, and a ready-to-run
config file.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from ._files import write_file
from .errors import DataError, UsageError

PSEUDOWORD = "blicket"

# Disjoint collocate pools; fillers are shared glue words.
_MONEY = [
    "money", "loan", "cash", "teller", "deposit", "account", "credit",
    "mortgage", "vault", "customer", "interest", "savings", "cheque",
    "branch", "manager", "fee", "withdrawal", "balance", "coins", "notes",
]
_RIVER = [
    "river", "water", "shore", "fishing", "mud", "stream", "canoe",
    "reeds", "current", "flood", "willow", "heron", "pebbles", "ferry",
    "meadow", "bridge", "otter", "rain", "tide", "marsh",
]
_FILLERS = [
    "the", "a", "an", "old", "new", "quiet", "busy", "near", "by", "past",
    "under", "over", "was", "is", "were", "went", "walked", "stood", "sat",
    "saw", "found", "left", "to", "from", "and", "then", "that", "this",
    "every", "some",
]

_POOLS = {"money": _MONEY, "river": _RIVER}
_SENSES = {"money": f"{PSEUDOWORD}%1", "river": f"{PSEUDOWORD}%2"}


@dataclass(frozen=True)
class SyntheticConfig:
    seed: int = 0
    n_train: int = 200
    n_test: int = 100
    n_extra: int = 150  # unlabelled pseudoword sentences per flavor
    n_background: int = 100  # plain sentences per flavor, no pseudoword

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise UsageError(f"{f.name} must be >= 0, got {getattr(self, f.name)}")


def _phrase(rng: np.random.Generator, pool: list[str], n: int) -> list[str]:
    """n words mixing shared fillers with pool collocates (at least one each)."""
    words = []
    for i in range(n):
        source = pool if (i % 2 == 0 or rng.random() < 0.4) else _FILLERS
        words.append(source[int(rng.integers(len(source)))])
    return words


def _pseudo_sentence(rng: np.random.Generator, flavor: str) -> tuple[list[str], int]:
    pool = _POOLS[flavor]
    left = _phrase(rng, pool, int(rng.integers(2, 5)))
    right = _phrase(rng, pool, int(rng.integers(2, 5)))
    tokens = [_FILLERS[int(rng.integers(len(_FILLERS)))], *left, PSEUDOWORD, *right]
    return tokens, len(left) + 1


def _background_sentence(rng: np.random.Generator, flavor: str) -> list[str]:
    return _phrase(rng, _POOLS[flavor], int(rng.integers(5, 10)))


def generate(outdir: str | Path, config: SyntheticConfig = SyntheticConfig()) -> dict[str, Path]:
    """Write corpus.txt, train.tsv, test.tsv, inventory.tsv, and run.conf.

    Returns the paths keyed by role. Deterministic for a given config.
    """
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create output directory {outdir}: {exc}") from exc
    rng = np.random.default_rng(config.seed)
    flavors = list(_POOLS)

    def labeled_rows(prefix: str, count: int) -> list[str]:
        rows = []
        for i in range(count):
            flavor = flavors[i % 2]
            tokens, target = _pseudo_sentence(rng, flavor)
            rows.append(
                "\t".join(
                    [f"{prefix}{i + 1:04d}", " ".join(tokens), str(target), PSEUDOWORD, _SENSES[flavor]]
                )
            )
        return rows

    train_rows = labeled_rows("train", config.n_train)
    test_rows = labeled_rows("test", config.n_test)

    corpus_lines = [row.split("\t")[1] for row in train_rows]
    for i in range(2 * config.n_extra):
        corpus_lines.append(" ".join(_pseudo_sentence(rng, flavors[i % 2])[0]))
    for i in range(2 * config.n_background):
        corpus_lines.append(" ".join(_background_sentence(rng, flavors[i % 2])))
    perm = rng.permutation(len(corpus_lines))
    corpus_lines = [corpus_lines[i] for i in perm]

    paths = {
        "corpus": outdir / "corpus.txt",
        "train": outdir / "train.tsv",
        "test": outdir / "test.tsv",
        "inventory": outdir / "inventory.tsv",
        "config": outdir / "run.conf",
    }
    texts = {
        "corpus": corpus_lines,
        "train": train_rows,
        "test": test_rows,
        "inventory": [f"{PSEUDOWORD}\t{_SENSES['money']},{_SENSES['river']}"],
        "config": [
            "# synthetic pseudoword benchmark",
            *(f"{role} = {paths[role]}" for role in ("corpus", "train", "test", "inventory")),
            f"checkpoint = {outdir / 'model.fofe'}",
            f"store = {outdir / 'classifiers.fwsd'}",
            f"predictions = {outdir / 'predictions.tsv'}",
            f"report = {outdir / 'report.tsv'}",
            "alpha = 0.7",
            "order = 3",
            "k = 8",
            "embed_dim = 32",
            "hidden_dims = 64,64",
            "epochs = 20",
            f"seed = {config.seed}",
        ],
    }
    for role, lines in texts.items():
        write_file(paths[role], "\n".join(lines) + "\n")
    return paths
