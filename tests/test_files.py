import ast
import os
from pathlib import Path

import numpy as np
import pytest

import fofe_wsd
from fofe_wsd._files import checksum, read_lines, write_file
from fofe_wsd.corpus import SenseInventory, read_labeled_corpus
from fofe_wsd.errors import DataError
from fofe_wsd.fofe import FofeConfig
from fofe_wsd.lm import LmConfig, LmModel, load_checkpoint, save_checkpoint, train_lm
from fofe_wsd.wsd import ClassifierStore, build_classifier_store, load_store, save_store, write_predictions
from labeled import corpus_of, instances_of

FILE_CALLS = {"open", "read_bytes", "read_text", "write_bytes", "write_text"}


def test_only_files_module_touches_files():
    found = []
    for module in sorted(Path(fofe_wsd.__file__).parent.glob("*.py")):
        if module.name == "_files.py":
            continue
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            # Reader.open is the container reader of _files itself
            own = isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "Reader"
            if name in FILE_CALLS and not own:
                found.append(f"{module.name}:{node.lineno} {name}")
    assert found == []


class TestReadLines:
    def test_only_newline_and_carriage_return_end_a_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes("a b c\nd\x0ce\r\nf\x85g\rh".encode("utf-8"))
        assert list(read_lines(path, "corpus")) == ["a b c", "d\x0ce", "f\x85g", "h"]

    def test_corpus_line_with_line_separator_is_one_sentence(self, tmp_path):
        sentence = "the teller counted the money"
        corpus = tmp_path / "corpus.txt"
        corpus.write_text(sentence + "\n", encoding="utf-8")
        labeled = tmp_path / "train.tsv"
        labeled.write_text(f"t1\t{sentence}\t1\tteller\tteller%1\n", encoding="utf-8")
        assert list(read_lines(corpus, "corpus")) == [sentence]
        assert instances_of(read_labeled_corpus(labeled))[0].tokens == sentence.split()


class TestWriteFile:
    def test_failed_encode_keeps_old_file(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_predictions([("i1", "a%1")], path)
        with pytest.raises(UnicodeEncodeError):
            write_predictions([("i1", "\ud800")], path)
        assert path.read_text(encoding="utf-8") == "i1\ta%1\n"
        assert os.listdir(tmp_path) == ["p.tsv"]

    def test_failed_replace_removes_tmp(self, tmp_path):
        target = tmp_path / "out"
        target.mkdir()
        with pytest.raises(DataError, match=f"cannot write {target}"):
            write_file(target, "x\n")
        assert os.listdir(tmp_path) == ["out"]

    def test_replaces_with_plain_open_mode(self, tmp_path):
        path, plain = tmp_path / "new.txt", tmp_path / "plain.txt"
        path.write_text("old and longer\n", encoding="utf-8")
        write_file(path, "new\n")
        with open(plain, "w"):
            pass
        assert path.read_bytes() == b"new\n"
        assert path.stat().st_mode == plain.stat().st_mode
        assert sorted(os.listdir(tmp_path)) == ["new.txt", "plain.txt"]


def _save_checkpoint(tiny_model, path):
    save_checkpoint(tiny_model, path)
    return load_checkpoint, "checkpoint"


def _save_store(tiny_model, path):
    save_store(
        ClassifierStore(
            dim=2, keys={"w": ["A"]}, codes={"w": np.zeros(1, dtype=np.uint32)}, pairs={"w": np.array([[0.5, 0.5]])}
        ),
        path,
    )
    return load_store, "classifier store"


@pytest.mark.parametrize("save", [_save_checkpoint, _save_store], ids=["checkpoint", "store"])
class TestContainerChecks:
    def test_unknown_version_is_incompatible(self, tiny_model, tmp_path, save):
        path = tmp_path / "c.bin"
        load, what = save(tiny_model, path)
        raw = bytearray(path.read_bytes())
        raw[4:8] = (7).to_bytes(4, "little")
        path.write_bytes(raw)
        with pytest.raises(DataError, match=rf"incompatible {what}: .* \(version 7\)"):
            load(path)

    def test_appended_byte_is_trailing_bytes(self, tiny_model, tmp_path, save):
        path = tmp_path / "c.bin"
        load, what = save(tiny_model, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataError, match=rf"corrupt {what}: .* \(trailing bytes\)"):
            load(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_value_is_corrupt(self, tiny_model, tmp_path, save, value):
        path = tmp_path / "c.bin"
        load, what = save(tiny_model, path)
        raw = bytearray(path.read_bytes())
        # the last f32 value: the output layer's last bias, or the store's last pair's last value
        raw[-12:-8] = np.float32(value).tobytes()
        raw[-8:] = checksum(raw[:-8]).to_bytes(8, "little")
        path.write_bytes(raw)
        with pytest.raises(DataError, match=rf"corrupt {what}: .* \(non-finite value\)"):
            load(path)


def _outcome(path, data, load):
    """"rejected" (a DataError), "loaded" (finite values only), or what else ``load`` did with ``data``."""
    path.write_bytes(data)
    try:
        loaded = load(path)
    except DataError:
        return "rejected"
    except Exception as exc:  # a traceback, where the CLI needs a DataError (exit code 2)
        return repr(exc)
    values = loaded.params.tensors() if isinstance(loaded, LmModel) else loaded.pairs.values()
    return "loaded" if all(np.isfinite(v).all() for v in values) else "loaded a non-finite value"


def _flip_escapes(path, raw, bits, load):
    """(bit, outcome) for each single-bit flip of ``raw`` that ``load`` does not reject with DataError."""
    escapes = []
    for bit in bits:
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        if (outcome := _outcome(path, flipped, load)) != "rejected":
            escapes.append((bit, outcome))
    return escapes


class TestSingleBitFlips:
    """The checksum sees every single-bit flip; each must end in ``DataError``, whatever it hits."""

    def test_checkpoint_headers_and_sampled_bits(self, tiny_model, tmp_path):
        path = tmp_path / "m.fofe"
        save_checkpoint(tiny_model, path)
        raw = path.read_bytes()
        dims = tiny_model.config.layer_dims(len(tiny_model.vocab))
        # magic, version, alpha, order, layer dims with their count, vocabulary size
        bits = set(range(8 * (28 + 4 * len(dims))))
        # the tensors fill the file up to its 8-byte checksum: their ranks and dims, and the checksum
        end = len(raw) - 8
        bits.update(range(8 * end, 8 * len(raw)))
        for tensor in reversed(tiny_model.params.tensors()):
            values_at = end - 4 * tensor.size
            end = values_at - 4 * (1 + tensor.ndim)
            bits.update(range(8 * end, 8 * values_at))
        sampled = np.random.default_rng(0).choice(8 * len(raw), size=1500, replace=False)
        assert _flip_escapes(path, raw, sorted(bits.union(sampled.tolist())), load_checkpoint) == []

    def test_every_store_bit(self, tiny_model, tmp_path):
        words = tiny_model.vocab.tokens[1:7]
        instances = corpus_of(
            (f"t{i}", words[i:], 1, lemma, senses)
            for i, (lemma, senses) in enumerate(
                [("bank", ["bank%1"]), ("bank", ["bank%1", "bank%2"]), ("rose", ["rose%1"])]
            )
        )
        path = tmp_path / "s.fwsd"
        inventory = SenseInventory({"bank": ["bank%1", "bank%2"], "rose": ["rose%1"]})
        save_store(build_classifier_store(tiny_model, instances, inventory), path)
        raw = path.read_bytes()
        assert _flip_escapes(path, raw, range(8 * len(raw)), load_store) == []


@pytest.fixture(scope="module")
def small_containers(tmp_path_factory):
    """(bytes, loader) of a checkpoint and a store of a few hundred bytes each."""
    config = LmConfig(fofe=FofeConfig(alpha=0.7, order=1), embed_dim=2, hidden_dims=(3,), epochs=1)
    model = train_lm(["the bank lent money", "the river bank flooded", "money in the river"], config)
    instances = corpus_of([
        ("t1", ["the", "bank", "lent"], 1, "bank", ["bank%1"]),
        ("t2", ["river", "bank", "flooded"], 1, "bank", ["bank%2"]),
        ("t3", ["the", "river"], 1, "river", ["river%1", "river%2"]),
    ])
    inventory = SenseInventory({"bank": ["bank%1", "bank%2"], "river": ["river%1", "river%2"]})
    path = tmp_path_factory.mktemp("small") / "c.bin"
    save_checkpoint(model, path)
    checkpoint = path.read_bytes()
    save_store(build_classifier_store(model, instances, inventory), path)
    return {"checkpoint": (checkpoint, load_checkpoint), "store": (path.read_bytes(), load_store)}


@pytest.mark.parametrize("what", ["checkpoint", "store"])
class TestContainerFuzz:
    def test_every_truncation_is_rejected(self, small_containers, tmp_path, what):
        raw, load = small_containers[what]
        outcomes = {n: _outcome(tmp_path / "c.bin", raw[:n], load) for n in range(len(raw))}
        assert {n: o for n, o in outcomes.items() if o != "rejected"} == {}

    def test_byte_swaps_are_rejected_or_load_finite_values(self, small_containers, tmp_path, what):
        # a swap keeps the byte sum of a v1 container, but CRC32 sees it
        raw, load = small_containers[what]
        rng = np.random.default_rng(0)
        outcomes = {}
        while len(outcomes) < 1000:
            i, j = sorted(rng.choice(len(raw), size=2, replace=False).tolist())
            if raw[i] == raw[j]:  # the same bytes: nothing to see
                continue
            swapped = bytearray(raw)
            swapped[i], swapped[j] = raw[j], raw[i]
            outcomes[i, j] = _outcome(tmp_path / "c.bin", swapped, load)
        assert {ij: o for ij, o in outcomes.items() if o != "rejected"} == {}
