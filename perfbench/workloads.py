"""Seeded inputs for the three benchmark workloads.

Each generator writes a corpus, labeled train/test splits, a sense
inventory and a ``run.conf`` into one directory and returns a ``Workload``
describing them. The program under test only ever sees those files.
``synthetic`` is produced by the program's own ``gen-synthetic``; the other
two are generated here with the standard library and numpy, so that a
change to the program cannot change them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

_DATA_FILES = ("corpus.txt", "train.tsv", "test.tsv", "inventory.tsv")
_PATH_KEYS = ("corpus", "train", "test", "inventory", "checkpoint", "store", "predictions", "report")

# sha256 of the synthetic inputs for seed 0 (see ``inputs_digest``). A
# change to ``gen-synthetic`` or to its default config moves it and fails the
# run, so the paper-reproduction workload cannot change silently.
SYNTHETIC_SEED0_SHA256 = "24212733171fd8e7c9691650c16cda1e434e06f2c7f705899a7b0a5cc106bca5"


@dataclass(frozen=True)
class Workload:
    """Generated inputs plus the counts the throughput metrics divide by."""

    name: str
    config: Path
    examples_per_epoch: int  # corpus tokens: one training example per position
    epochs: int
    train_instances: int
    test_instances: int


def _count_tokens(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(len(line.lower().split()) for line in fh)


def _count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#"))


def _config_value(config: Path, key: str) -> str:
    for line in config.read_text(encoding="utf-8").splitlines():
        name, sep, value = line.partition("=")
        if sep and name.strip() == key:
            return value.strip()
    raise KeyError(f"{config}: no {key!r} setting")


def _describe(name: str, outdir: Path) -> Workload:
    config = outdir / "run.conf"
    return Workload(
        name=name,
        config=config,
        examples_per_epoch=_count_tokens(outdir / "corpus.txt"),
        epochs=int(_config_value(config, "epochs")),
        train_instances=_count_rows(outdir / "train.tsv"),
        test_instances=_count_rows(outdir / "test.tsv"),
    )


def _write(outdir: Path, corpus: list[str], train: list[str], test: list[str],
           inventory: dict[str, list[str]], settings: dict[str, object]) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    texts = {
        "corpus.txt": corpus,
        "train.tsv": train,
        "test.tsv": test,
        "inventory.tsv": [f"{lemma}\t{','.join(keys)}" for lemma, keys in inventory.items()],
    }
    for filename, lines in texts.items():
        (outdir / filename).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    conf = [
        f"corpus = {outdir / 'corpus.txt'}",
        f"train = {outdir / 'train.tsv'}",
        f"test = {outdir / 'test.tsv'}",
        f"inventory = {outdir / 'inventory.tsv'}",
        f"checkpoint = {outdir / 'model.fofe'}",
        f"store = {outdir / 'classifiers.fwsd'}",
        f"predictions = {outdir / 'predictions.tsv'}",
        f"report = {outdir / 'report.tsv'}",
        *(f"{key} = {value}" for key, value in settings.items()),
    ]
    (outdir / "run.conf").write_text("\n".join(conf) + "\n", encoding="utf-8", newline="\n")


def _labeled_row(instance_id: str, tokens: list[str], target: int, lemma: str, sense: str) -> str:
    return "\t".join([instance_id, " ".join(tokens), str(target), lemma, sense])


# ---------------------------------------------------------------------------
# synthetic: the program's own generator at its defaults
# ---------------------------------------------------------------------------


def inputs_digest(outdir: Path) -> str:
    """sha256 over the generated data files and the non-path config lines."""
    h = hashlib.sha256()
    for filename in _DATA_FILES:
        h.update(filename.encode())
        h.update((outdir / filename).read_bytes())
    for line in (outdir / "run.conf").read_text(encoding="utf-8").splitlines():
        if line.partition("=")[0].strip() not in _PATH_KEYS:
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def synthetic(outdir: Path, seed: int, cli_main) -> Workload:
    """``gen-synthetic --seed`` at its default sizes and its own run.conf."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main(["gen-synthetic", "--outdir", str(outdir), "--seed", str(seed)])
    if rc != 0:
        raise RuntimeError(f"gen-synthetic exited {rc}")
    return _describe("synthetic", outdir)


# ---------------------------------------------------------------------------
# wide-vocab: Zipfian text over thousands of word types, medium dimensions
# ---------------------------------------------------------------------------

_WIDE_TYPES = 2500  # every type occurs at least once, so V is the same for every seed
_WIDE_ZIPF = 0.8  # p(rank r) ~ r ** -0.8
_WIDE_SENTENCES = 400
_WIDE_LEMMAS = 6
_WIDE_POOL = 8  # collocates per sense, drawn from the mid-frequency ranks


def wide_vocab(outdir: Path, seed: int) -> Workload:
    """Short Zipfian sentences over 2,500 word types plus a small two-sense
    WSD tail, trained at medium dimensions (embed 128, hidden 256,256) so
    the V-wide layers dominate each step."""
    rng = np.random.default_rng([seed, 1])
    words = [f"w{i:04d}" for i in range(_WIDE_TYPES)]
    ranks = np.arange(1, _WIDE_TYPES + 1)
    zipf = ranks ** -_WIDE_ZIPF
    zipf /= zipf.sum()

    def filler(n: int) -> list[str]:
        return [words[i] for i in rng.choice(_WIDE_TYPES, size=n, p=zipf)]

    corpus = [" ".join(filler(int(rng.integers(3, 9)))) for _ in range(_WIDE_SENTENCES)]
    unseen = sorted(set(words) - {w for line in corpus for w in line.split()})
    unseen = [unseen[i] for i in rng.permutation(len(unseen))]
    corpus += [" ".join(unseen[i:i + 6]) for i in range(0, len(unseen), 6)]

    mid = rng.permutation(np.arange(200, 200 + 2 * _WIDE_LEMMAS * _WIDE_POOL))
    pools = mid.reshape(_WIDE_LEMMAS, 2, _WIDE_POOL)
    inventory: dict[str, list[str]] = {}
    train: list[str] = []
    test: list[str] = []
    for li in range(_WIDE_LEMMAS):
        lemma = f"lemma{li}"
        senses = [f"{lemma}%{s + 1}" for s in range(2)]
        inventory[lemma] = senses
        for split, count in ((train, 50), (test, 50)):
            for n in range(count):
                s = n % 2
                left = [words[i] for i in rng.choice(pools[li, s], size=2)] + filler(1)
                right = filler(1) + [words[i] for i in rng.choice(pools[li, s], size=2)]
                tokens = [*left, lemma, *right]
                prefix = "tr" if split is train else "te"
                split.append(_labeled_row(f"{prefix}{li}.{n}", tokens, len(left), lemma, senses[s]))
    corpus += [row.split("\t")[1] for row in train]
    corpus = [corpus[i] for i in rng.permutation(len(corpus))]
    _write(outdir, corpus, train, test, inventory, {
        "embed_dim": 128, "hidden_dims": "256,256", "epochs": 1, "k": 8, "seed": seed,
    })
    return _describe("wide-vocab", outdir)


# ---------------------------------------------------------------------------
# wsd-lemmas: many lemmas, many labeled instances, a short pretrain
# ---------------------------------------------------------------------------

_LEMMAS = 40
_SENSES = 3
_POOL = 4  # collocates per (lemma, sense); pools are disjoint
_TRAIN_PER_LEMMA = 300
_TEST_PER_LEMMA = 150
_BACKOFF_LEMMAS = 4  # inventory-only lemmas: test instances, no training pairs
_BACKOFF_TEST = 25
_FILLERS = 40
_PRETRAIN_SENTENCES = 600
_SENSE_PRIOR = (0.5, 0.3, 0.2)  # the first-listed sense is the most frequent


def wsd_lemmas(outdir: Path, seed: int) -> Workload:
    """~40 lemmas x 3 senses with disjoint collocate pools; build and
    predict carry most of the work, the language model pretrain is short."""
    rng = np.random.default_rng([seed, 2])
    fillers = [f"f{i:02d}" for i in range(_FILLERS)]
    n_lemmas = _LEMMAS + _BACKOFF_LEMMAS
    pools = [[[f"c{li}s{s}w{w}" for w in range(_POOL)] for s in range(_SENSES)] for li in range(n_lemmas)]

    def phrase(pool: list[str], n: int) -> list[str]:
        return [pool[int(rng.integers(_POOL))] if (i % 2 == 0 or rng.random() < 0.4)
                else fillers[int(rng.integers(_FILLERS))] for i in range(n)]

    def sentence(li: int, s: int) -> tuple[list[str], int]:
        left = phrase(pools[li][s], int(rng.integers(2, 6)))
        right = phrase(pools[li][s], int(rng.integers(2, 6)))
        return [fillers[int(rng.integers(_FILLERS))], *left, f"lemma{li}", *right], len(left) + 1

    inventory = {f"lemma{li}": [f"lemma{li}%{s + 1}" for s in range(_SENSES)] for li in range(n_lemmas)}
    train: list[str] = []
    test: list[str] = []
    for prefix, split, per_lemma, lemmas in (
        ("tr", train, _TRAIN_PER_LEMMA, range(_LEMMAS)),
        ("te", test, _TEST_PER_LEMMA, range(_LEMMAS)),
        ("bo", test, _BACKOFF_TEST, range(_LEMMAS, n_lemmas)),
    ):
        for li in lemmas:
            for n, s in enumerate(rng.choice(_SENSES, size=per_lemma, p=_SENSE_PRIOR)):
                tokens, target = sentence(li, int(s))
                lemma = f"lemma{li}"
                split.append(_labeled_row(f"{prefix}{li}.{n}", tokens, target, lemma, inventory[lemma][s]))
    test = [test[i] for i in rng.permutation(len(test))]
    corpus = [" ".join(sentence(int(rng.integers(n_lemmas)), int(rng.integers(_SENSES)))[0])
              for _ in range(_PRETRAIN_SENTENCES)]
    _write(outdir, corpus, train, test, inventory, {"epochs": 2, "k": 8, "seed": seed})
    return _describe("wsd-lemmas", outdir)
