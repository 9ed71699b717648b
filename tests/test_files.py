import os

import numpy as np
import pytest

from fofe_wsd._files import read_lines, write_file
from fofe_wsd.corpus import read_labeled_corpus
from fofe_wsd.errors import DataError
from fofe_wsd.lm import load_checkpoint, save_checkpoint
from fofe_wsd.wsd import ClassifierStore, load_store, save_store, write_predictions


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
        assert read_labeled_corpus(labeled)[0].tokens == sentence.split()


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
    save_store(ClassifierStore(dim=2, senses={"w": ["A"]}, pairs={"w": np.array([[0.5, 0.5]])}), path)
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
