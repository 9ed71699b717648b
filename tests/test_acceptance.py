"""End-to-end acceptance checks.

Each test prints one ``criterion NN (...): PASS/FAIL`` line (visible with
``pytest -s`` or in captured output) and enforces its stated tolerance and
runtime budget.
"""

import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from fofe_wsd import nn
from fofe_wsd.cli import main
from fofe_wsd.corpus import read_labeled_corpus
from fofe_wsd.evaluation import score
from fofe_wsd.fofe import FofeConfig, context_code, decode, encode_left, encode_order
from fofe_wsd.lm import LmConfig, train_lm
from fofe_wsd.wsd import read_predictions


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:02d} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def _run_pipeline(outdir: Path, seed: int) -> dict:
    """gen-synthetic + train/build/predict/eval through the CLI."""
    assert main(["gen-synthetic", "--outdir", str(outdir), "--seed", str(seed)]) == 0
    config = str(outdir / "run.conf")
    for command in ("train", "build", "predict", "eval"):
        assert main([command, "-c", config]) == 0, command
    report_line = (outdir / "report.tsv").read_text(encoding="utf-8").splitlines()[0]
    micro_f1 = float(report_line.split("\t")[6])
    return {
        "dir": outdir,
        "micro_f1": micro_f1,
        "checkpoint": (outdir / "model.fofe").read_bytes(),
        "predictions": (outdir / "predictions.tsv").read_bytes(),
        "report": (outdir / "report.tsv").read_bytes(),
    }


@pytest.fixture(scope="module")
def pipeline_first(tmp_path_factory):
    start = time.monotonic()
    result = _run_pipeline(tmp_path_factory.mktemp("pipeline-a"), seed=0)
    result["elapsed"] = time.monotonic() - start
    return result


@pytest.fixture(scope="module")
def pipeline_second(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("pipeline-b"), seed=0)


def test_criterion_01_first_order_code_exactness():
    code = encode_left([0, 1, 2], 0.7, 3)
    err = float(np.max(np.abs(code - np.array([0.49, 0.7, 1.0]))))
    _report(1, "first-order code exactness", err <= 1e-12, f"max err {err:.2e}")


def test_criterion_02_decode_roundtrip_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(20)
    failures = 0
    for alpha in (0.2, 0.4, 0.49):
        for _ in range(1000):
            v = int(rng.integers(1, 51))
            t = int(rng.integers(0, 21))
            ids = [int(i) for i in rng.integers(0, v, t)]
            if decode(encode_left(ids, alpha, v), alpha, 25) != ids:
                failures += 1
    elapsed = time.monotonic() - start
    _report(
        2,
        "decode/encode identity, alpha < 0.5",
        failures == 0 and elapsed < 10.0,
        f"{failures} failures in 3x1000 trials, {elapsed:.1f}s",
    )


def test_criterion_03_distinct_codes_at_alpha_07():
    start = time.monotonic()
    codes = []
    for length in range(1, 7):
        for seq in itertools.product(range(3), repeat=length):
            codes.append(encode_left(list(seq), 0.7, 3))
    stacked = np.stack(codes)
    assert stacked.shape[0] == 1092
    min_gap = np.inf
    for i in range(len(stacked) - 1):
        gaps = np.max(np.abs(stacked[i + 1 :] - stacked[i]), axis=1)
        min_gap = min(min_gap, float(gaps.min()))
    elapsed = time.monotonic() - start
    _report(
        3,
        "pairwise-distinct codes over 1092 sequences",
        min_gap > 1e-9 and elapsed < 10.0,
        f"min pairwise gap {min_gap:.3e}, {elapsed:.1f}s",
    )


def test_criterion_04_sparse_dense_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(500):
        v = int(rng.integers(1, 9))
        d = int(rng.integers(1, 5))
        order = int(rng.integers(1, 4))
        cfg = FofeConfig(alpha=float(rng.uniform(0.05, 0.95)), order=order)
        emb = rng.normal(size=(v, d))
        ids = [int(i) for i in rng.integers(0, v, int(rng.integers(0, 11)))]
        direction = "left" if rng.random() < 0.5 else "right"
        # the sequence as the left context of a word after it, or the right
        # context of a word before it
        sentence, target = (ids + [0], len(ids)) if direction == "left" else ([0] + ids, 0)
        code = context_code(sentence, target, cfg, emb).reshape(2, order * d)
        dense = code[0 if direction == "left" else 1]
        slabs = encode_order(ids, cfg, v, direction).reshape(order, v)
        worst = max(worst, float(np.max(np.abs(dense - (slabs @ emb).ravel()), initial=0.0)))
    elapsed = time.monotonic() - start
    _report(
        4,
        "embedded code equals one-hot code times embeddings",
        worst <= 1e-10 and elapsed < 10.0,
        f"max abs diff {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_05_gradient_check_100_seeds():
    # Central differences are only meaningful where the loss is smooth, so
    # points that land a rectifier pre-activation within the probe step of
    # its kink are redrawn (random biases make that rare to begin with).
    start = time.monotonic()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        n_layers = int(rng.integers(1, 5))
        dims = [int(rng.integers(1, 9)) for _ in range(n_layers + 1)]
        params = nn.init_network(dims, seed)
        for _, b in params.layers:
            b += rng.uniform(-0.5, 0.5, size=b.shape)
        target = int(rng.integers(0, dims[-1]))
        for _ in range(100):
            x = rng.normal(size=dims[0])
            preacts = nn.forward(params, x).preacts[:-1]
            if all(np.min(np.abs(p), initial=np.inf) > 1e-3 for p in preacts):
                break
        else:
            raise AssertionError(f"no smooth evaluation point found for seed {seed}")
        worst = max(worst, nn.gradient_check(params, x, target, epsilon=1e-5))
    elapsed = time.monotonic() - start
    _report(
        5,
        "backprop vs central differences over 100 seeds",
        worst < 1e-6 and elapsed < 60.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_06_toy_corpus_overfit(toy_lines):
    start = time.monotonic()
    losses = []
    config = LmConfig(
        fofe=FofeConfig(alpha=0.7, order=3),
        embed_dim=32,
        hidden_dims=(64, 64),
        max_vocab=200,
        epochs=200,
        seed=0,
    )
    model = train_lm(toy_lines, config, progress=lambda e, loss: losses.append(loss))
    elapsed = time.monotonic() - start
    best = min(losses)
    vocab_ok = 80 <= len(model.vocab) <= 120
    _report(
        6,
        "toy-corpus overfit below 0.1 cross-entropy",
        best < 0.1 and vocab_ok and elapsed < 300.0,
        f"best mean loss {best:.4f}, vocab {len(model.vocab)}, {elapsed:.1f}s",
    )


def test_criterion_07_synthetic_end_to_end(pipeline_first):
    checkpoint_mb = len(pipeline_first["checkpoint"]) / 2**20
    _report(
        7,
        "pseudoword pipeline micro F1 >= 0.90",
        pipeline_first["micro_f1"] >= 0.90
        and pipeline_first["elapsed"] < 600.0
        and checkpoint_mb < 10.0,
        f"micro F1 {pipeline_first['micro_f1']:.4f}, {pipeline_first['elapsed']:.1f}s, "
        f"checkpoint {checkpoint_mb:.2f} MB",
    )


def test_criterion_08_backoff_totality(tmp_path):
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("the quick brown fox\njumps over the lazy dog\n" * 5, encoding="utf-8")
    (tmp_path / "train.tsv").write_text("# no training instances\n", encoding="utf-8")
    (tmp_path / "inventory.tsv").write_text(
        "fox\tfox%1,fox%2\ndog\tdog%1,dog%2\n", encoding="utf-8"
    )
    test = tmp_path / "test.tsv"
    test.write_text(
        "q1\tthe quick fox ran\t2\tfox\tfox%1\n"
        "q2\ta fox slept\t1\tfox\tfox%2\n"
        "q3\tthe dog barked\t1\tdog\tdog%1\n"
        "q4\tthat dog howled\t1\tdog\tdog%2\n",
        encoding="utf-8",
    )
    base = [
        "--corpus", str(corpus),
        "--train", str(tmp_path / "train.tsv"),
        "--test", str(test),
        "--inventory", str(tmp_path / "inventory.tsv"),
        "--checkpoint", str(tmp_path / "m.fofe"),
        "--store", str(tmp_path / "s.fwsd"),
        "--predictions", str(tmp_path / "p.tsv"),
        "--report", str(tmp_path / "r.tsv"),
        "--embed-dim", "4", "--hidden-dims", "8", "--max-vocab", "20",
    ]
    assert main(["train", *base, "--epochs", "0"]) == 0
    assert main(["build", *base]) == 0
    assert main(["predict", *base]) == 0
    assert main(["eval", *base]) == 0

    predictions = read_predictions(tmp_path / "p.tsv")
    all_first = predictions == {"q1": "fox%1", "q2": "fox%1", "q3": "dog%1", "q4": "dog%1"}
    report = score(predictions, read_labeled_corpus(test))
    expected_accuracy = 0.5  # gold matches the first sense for half the instances
    collapses = report.precision == report.recall == report.micro_f1 == expected_accuracy
    _report(
        8,
        "unseen lemmas all receive the first sense",
        all_first and collapses,
        f"accuracy {report.micro_f1:.4f}",
    )


def test_criterion_09_scorer_correctness():
    from fofe_wsd.corpus import LabeledInstance

    def inst(iid, senses):
        return LabeledInstance(
            instance_id=iid, tokens=["w"], target_index=0, lemma="w", sense_keys=frozenset(senses)
        )

    gold = [inst("i1", {"s1"}), inst("i2", {"s1"}), inst("i3", {"s1"}), inst("i4", {"s1"})]
    full = score({"i1": "s1", "i2": "s1", "i3": "s1", "i4": "x"}, gold)
    partial = score({"i1": "s1", "i2": "s1"}, gold)
    ok = (
        full.micro_f1 == 0.75
        and partial.precision == 1.0
        and partial.recall == 0.5
        and abs(partial.micro_f1 - 2.0 / 3.0) < 1e-12
    )
    _report(
        9,
        "scorer fixed-point examples",
        ok,
        f"3-of-4 {full.micro_f1:.4f}; partial P {partial.precision:.1f} R {partial.recall:.1f} "
        f"F1 {partial.micro_f1:.4f}",
    )


def test_criterion_10_run_to_run_determinism(pipeline_first, pipeline_second):
    same = {
        key: pipeline_first[key] == pipeline_second[key]
        for key in ("checkpoint", "predictions", "report")
    }
    _report(
        10,
        "byte-identical checkpoint, predictions, report across runs",
        all(same.values()),
        ", ".join(f"{k}={'ok' if v else 'DIFFERS'}" for k, v in same.items()),
    )
