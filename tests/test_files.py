import ast
import builtins
import errno
import os
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fofe_wsd
from fofe_wsd import _files, nn
from fofe_wsd._files import Reader, checksum, read_lines, write_file
from fofe_wsd.corpus import UNK_TOKEN, SenseInventory, Vocabulary, read_labeled_corpus
from fofe_wsd.errors import DataError
from fofe_wsd.fofe import FofeConfig
from fofe_wsd.lm import LmConfig, LmModel, load_checkpoint, save_checkpoint, train_lm
from fofe_wsd.wsd import ClassifierStore, LemmaBlock, build_classifier_store, load_store, save_store, write_predictions
from containers import checkpoint_bytes, container, put_tensor, sealed, store_bytes, write_container
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

    def test_successful_write_removes_nothing(self, tmp_path, monkeypatch):
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        write_file(tmp_path / "out", "x\n")
        assert removed == []
        assert os.listdir(tmp_path) == ["out"]

    def test_interrupted_write_removes_tmp(self, tmp_path, monkeypatch):
        def interrupt(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupt)
        with pytest.raises(KeyboardInterrupt):
            write_file(tmp_path / "out", "x\n")
        assert os.listdir(tmp_path) == []

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
    save_store(ClassifierStore(2, 1, [LemmaBlock("w", ["A"], np.zeros(1, dtype=np.uint32), np.array([[0.5, 0.5]]))]), path)
    return load_store, "classifier store"


@pytest.mark.parametrize("save", [_save_checkpoint, _save_store], ids=["checkpoint", "store"])
class TestContainerChecks:
    def test_unknown_version_is_incompatible(self, tiny_model, tmp_path, save):
        path = tmp_path / "c.bin"
        load, what = save(tiny_model, path)
        raw = bytearray(path.read_bytes())
        for version in (1, 7):  # version 1, the byte-sum container, is read no more
            raw[4:8] = version.to_bytes(4, "little")
            path.write_bytes(raw)
            with pytest.raises(DataError, match=rf"incompatible {what}: .* \(version {version}\)"):
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
    values = loaded.params.tensors() if isinstance(loaded, LmModel) else [block.pairs for block in loaded.blocks]
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
def small_outputs():
    """(object, save function) of a checkpoint and a store of a few hundred bytes each."""
    config = LmConfig(fofe=FofeConfig(alpha=0.7, order=1), embed_dim=2, hidden_dims=(3,), epochs=1)
    model = train_lm(["the bank lent money", "the river bank flooded", "money in the river"], config)
    instances = corpus_of([
        ("t1", ["the", "bank", "lent"], 1, "bank", ["bank%1"]),
        ("t2", ["river", "bank", "flooded"], 1, "bank", ["bank%2"]),
        ("t3", ["the", "river"], 1, "river", ["river%1", "river%2"]),
    ])
    inventory = SenseInventory({"bank": ["bank%1", "bank%2"], "river": ["river%1", "river%2"]})
    store = build_classifier_store(model, instances, inventory)
    return {"checkpoint": (model, save_checkpoint), "store": (store, save_store)}


@pytest.fixture(scope="module")
def small_containers(small_outputs, tmp_path_factory):
    """(bytes, loader) of the checkpoint and the store of ``small_outputs``."""
    path = tmp_path_factory.mktemp("small") / "c.bin"
    containers = {}
    for what, load in (("checkpoint", load_checkpoint), ("store", load_store)):
        saved, save = small_outputs[what]
        save(saved, path)
        containers[what] = (path.read_bytes(), load)
    return containers


@pytest.mark.parametrize("what", ["checkpoint", "store"])
class TestContainerFuzz:
    def test_every_truncation_is_rejected(self, small_containers, tmp_path, what):
        raw, load = small_containers[what]
        outcomes = {n: _outcome(tmp_path / "c.bin", raw[:n], load) for n in range(len(raw))}
        assert {n: o for n, o in outcomes.items() if o != "rejected"} == {}

    def test_byte_swaps_are_rejected_or_load_finite_values(self, small_containers, tmp_path, what):
        # a swap of two different bytes keeps their sum, but not the CRC32 trailer
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


class _FailingFile:
    """The file object ``open`` returned, but a read that would pass byte ``at`` raises EIO."""

    def __init__(self, fh, at):
        self.fh, self.at = fh, at

    def __getattr__(self, name):  # fileno, close, closed
        return getattr(self.fh, name)

    def fault(self, n):
        if self.fh.tell() + n > self.at:
            raise OSError(errno.EIO, os.strerror(errno.EIO))

    def read(self, n):
        self.fault(n)
        return self.fh.read(n)

    def readinto(self, buffer):
        self.fault(memoryview(buffer).nbytes)
        return self.fh.readinto(buffer)

    def peek(self, n=0):
        self.fault(1)
        return self.fh.peek(n)


class _ShrinkingFile(_FailingFile):
    """The file object ``open`` returned; its first read, after the reader's ``fstat``, cuts the file to ``at`` bytes.

    A read after one that came back short fails the test: the short read is the truncation.
    """

    came_short = False

    def fault(self, n):
        if self.came_short:
            raise RuntimeError("read on after a short read")
        if self.at is not None:
            os.truncate(self.fh.name, self.at)
            self.at = None

    def read(self, n):
        data = super().read(n)
        self.came_short = len(data) < n
        return data

    def readinto(self, buffer):
        got = super().readinto(buffer)
        self.came_short = got < memoryview(buffer).nbytes
        return got


@pytest.fixture
def faulty_open(monkeypatch):
    """``install(wrapper, at, mode)``: files ``_files`` opens in ``mode`` come wrapped; returns those opened."""
    opened = []

    def install(wrapper, at, mode="rb"):
        def fake_open(path, how="r", *args, **kwargs):
            fh = builtins.open(path, how, *args, **kwargs)
            if how == mode:
                opened.append(fh := wrapper(fh, at))
            return fh

        monkeypatch.setattr(_files, "open", fake_open, raising=False)
        return opened

    return install


@pytest.mark.parametrize("what, name", [("checkpoint", "checkpoint"), ("store", "classifier store")])
class TestStreamedReadFaults:
    """Each read position, with arrays read two values at a time so every slice is a position."""

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        monkeypatch.setattr(_files, "_SLICE", 2)

    def test_os_error_mid_read_is_cannot_read(self, small_containers, tmp_path, faulty_open, what, name):
        raw, load = small_containers[what]
        path = tmp_path / "c.bin"
        path.write_bytes(raw)
        for at in range(len(raw)):
            opened = faulty_open(_FailingFile, at)
            with pytest.raises(DataError, match=rf"^cannot read {name} {re.escape(str(path))}: \[Errno {errno.EIO}\]"):
                load(path)
            assert opened[-1].closed
        faulty_open(_FailingFile, len(raw))
        load(path)

    def test_read_shorter_than_fstat_is_truncated(self, small_containers, tmp_path, faulty_open, what, name):
        raw, load = small_containers[what]
        path = tmp_path / "c.bin"
        for at in range(len(raw)):
            path.write_bytes(raw)
            opened = faulty_open(_ShrinkingFile, at)
            with pytest.raises(DataError, match=rf"^truncated {name}: {re.escape(str(path))}$"):
                load(path)
            assert opened[-1].closed and path.stat().st_size == at

    def test_every_check_closes_the_file(self, small_containers, tmp_path, faulty_open, what, name):
        raw, load = small_containers[what]
        path = tmp_path / "c.bin"
        opened = faulty_open(_FailingFile, len(raw))
        for n in range(len(raw)):
            flipped = bytearray(raw)
            flipped[n] ^= 0x40
            assert _outcome(path, flipped, load) == "rejected"
        assert len(opened) == len(raw) and all(fh.closed for fh in opened)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="names a pipe through /dev/fd")
@pytest.mark.parametrize("what, name", [("checkpoint", "checkpoint"), ("store", "classifier store")])
def test_a_pipe_is_not_read(small_containers, what, name):
    # its size cannot bound the reads, so it is refused as a whole rather than read as truncated
    raw, load = small_containers[what]
    r, w = os.pipe()
    os.write(w, raw)
    os.close(w)
    try:
        with pytest.raises(DataError, match=rf"^cannot read {name} /dev/fd/{r}: not a regular file$"):
            load(f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_tensor_into_keeps_the_file_byte_order_on_any_host(tmp_path):
    # a big-endian host reads into native '>f4' floats; here the array's byte order stands in for the host's
    values = np.arange(-3.0, 3.0, 0.75, dtype=np.float32).reshape(2, 4)
    out = container(b"TEST", 1)
    put_tensor(out, values)
    write_container(tmp_path / "t.bin", out)
    for dtype in ("<f4", ">f4"):
        got = np.empty(values.shape, dtype)
        with Reader.open(tmp_path / "t.bin", "test file", b"TEST", 1) as rd:
            rd.tensor_into(got)
            rd.close()
        assert got.dtype == np.dtype(dtype) and (got == values).all()


# Write side: ``Writer`` streams the bytes that ``containers``' whole-file builder makes.


def _model(rng, n_tokens, embed_dim, hidden_dims, dtype=np.float32, strided=False):
    """A seeded model of ``n_tokens`` Unicode tokens, its parameters ``dtype`` (every other value if ``strided``)."""
    tokens = [UNK_TOKEN] + [f"w{i}{'é河🙂'[i % 3]}" for i in range(n_tokens - 1)]
    config = LmConfig(
        fofe=FofeConfig(alpha=float(rng.uniform(0.1, 0.9)), order=int(rng.integers(1, 4))),
        embed_dim=embed_dim,
        hidden_dims=hidden_dims,
        max_vocab=n_tokens,
    )
    count = config.parameter_count(n_tokens)
    values = rng.normal(size=2 * count if strided else count).astype(dtype)
    flat = values[::2] if strided else values
    params = nn.NetworkParams.empty(config.layer_dims(n_tokens), (n_tokens, embed_dim), alloc=lambda *_: flat)
    return LmModel(Vocabulary.from_tokens(tokens), config, params)


def _random_store(rng, dim, sizes, dtype=np.float32, layout="contiguous"):
    """A seeded store of one lemma per entry of ``sizes`` (its pair count), with Unicode names and keys."""
    blocks = []
    for n, size in enumerate(sizes):
        lemma = f"lemma{n}{'äß河🙂'[n % 4]}"
        keys = [f"{lemma}%{k}" for k in range(min(1 + n % 3, size))]
        codes = np.arange(size) % len(keys)  # first-use order
        values = rng.normal(size=(dim, 2 * size)).astype(dtype)
        pairs = {
            "contiguous": values[:, :size].copy().T.copy(),
            "transposed": values[:, :size].T,  # Fortran order
            "strided": values.T[::2],  # every other row
        }[layout]
        blocks.append(LemmaBlock(lemma, keys, codes.astype(np.uint32), pairs))
    return ClassifierStore(dim, len(blocks), blocks)


@pytest.fixture(params=[None, 7], ids=["slice", "slice-7"])
def slice_size(request, monkeypatch):
    """The default ``_SLICE``, and 7 values, which cuts slices across rows."""
    if request.param:
        monkeypatch.setattr(_files, "_SLICE", request.param)


class TestWriterBytes:
    @pytest.mark.parametrize(
        "dtype, strided",
        [(np.float32, False), (np.float64, False), (np.float64, True), (">f4", False), (">f8", True)],
        ids=["f32", "f64", "f64-strided", "big-endian-f32", "big-endian-f64-strided"],
    )
    def test_checkpoint_equals_the_whole_file_builder(self, tmp_path, slice_size, dtype, strided):
        rng = np.random.default_rng(0)
        # a 600 x 128 embedding: 76,800 values, more than one default slice
        for model in (_model(rng, 600, 128, (16,), dtype, strided), _model(rng, 5, 2, (), dtype, strided)):
            save_checkpoint(model, tmp_path / "m.fofe")
            assert (tmp_path / "m.fofe").read_bytes() == checkpoint_bytes(model)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64, ">f8"], ids=["f32", "f64", "big-endian-f64"])
    @pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
    def test_store_equals_the_whole_file_builder(self, tmp_path, slice_size, dtype, layout):
        rng = np.random.default_rng(1)
        # 300 x 256 pairs: 76,800 values, more than one default slice
        for sizes in ([3, 300, 1, 20], []):
            store = _random_store(rng, 256, sizes, dtype, layout)
            save_store(store, tmp_path / "s.fwsd")
            assert (tmp_path / "s.fwsd").read_bytes() == store_bytes(store)

    def test_any_array_layout(self, tmp_path, slice_size):
        rng = np.random.default_rng(2)
        arrays = [
            rng.normal(size=(3, 50, 4)),
            rng.normal(size=(50, 4, 3)).transpose(2, 0, 1),
            rng.normal(size=(5, 40)).astype(np.float32)[:, ::3],
            np.float32(1.5).reshape(()),
            np.empty((0, 9)),
            np.empty((9, 0), order="F"),
        ]
        path = tmp_path / "t.bin"
        with _files.Writer.create(path, b"TEST", 1) as wr:
            for arr in arrays:
                wr.tensor(arr)
            wr.u32s(np.arange(40, dtype=np.int64)[::-3])
        out = container(b"TEST", 1)
        for arr in arrays:
            put_tensor(out, arr)
        out += np.arange(40)[::-3].astype("<u4").tobytes()
        assert path.read_bytes() == sealed(out)


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_saving_holds_one_slice_not_the_file(tmp_path):
    rng = np.random.default_rng(3)
    model = _model(rng, 5000, 128, (128,))
    store = _random_store(rng, 256, [1100, 1100, 1100, 1100])
    for save, saved, path in ((save_checkpoint, model, tmp_path / "m.fofe"), (save_store, store, tmp_path / "s.fwsd")):
        peak = _peak_bytes(lambda: save(saved, path))
        assert path.stat().st_size > 4e6
        assert peak < 1e6, (path.name, peak)


class _InterruptedFile:
    """The temp file ``open`` returned; its write number ``at`` (from 0), or its close after ``at`` writes, fails."""

    @staticmethod
    def error():
        return OSError(errno.EFBIG, os.strerror(errno.EFBIG))

    def __init__(self, fh, at):
        self.fh, self.at, self.writes = fh, at, 0

    def __getattr__(self, name):  # closed
        return getattr(self.fh, name)

    def fail(self):
        self.at = None
        raise self.error()

    def write(self, data):
        if self.writes == self.at:
            self.fail()
        self.writes += 1
        return self.fh.write(data)

    def close(self):
        self.fh.close()
        if self.writes == self.at:
            self.fail()


class _KeyboardInterruptedFile(_InterruptedFile):
    error = KeyboardInterrupt


def _with_last_value(saved, value):
    """A copy of a model or a store whose last stored value is ``value``, held as float64."""
    if isinstance(saved, LmModel):
        params = saved.params.astype(np.float64)
        params.flat[-1] = value
        return replace(saved, params=params)
    blocks = [block._replace(pairs=np.array(block.pairs, dtype=np.float64)) for block in saved.blocks]
    blocks[-1].pairs[-1, -1] = value
    return saved._replace(blocks=blocks)


@pytest.mark.parametrize("what", ["checkpoint", "store"])
class TestStreamedWriteFaults:
    """Each write position, with arrays written two values at a time: the old file stays, and no temp file."""

    @pytest.fixture(autouse=True)
    def small_slices(self, monkeypatch):
        monkeypatch.setattr(_files, "_SLICE", 2)

    @pytest.fixture
    def old(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(b"the old file\n")
        return path

    def _writes(self, faulty_open, small_outputs, what, path):
        """The temp file's write calls in one save."""
        opened = faulty_open(_InterruptedFile, None, "wb")
        saved, save = small_outputs[what]
        save(saved, path)
        assert opened[-1].closed
        return opened[-1].writes

    @pytest.mark.parametrize("wrapper", [_InterruptedFile, _KeyboardInterruptedFile], ids=["os-error", "interrupt"])
    def test_failed_write_keeps_the_old_file(self, small_outputs, small_containers, faulty_open, old, what, wrapper):
        saved, save = small_outputs[what]
        raised = DataError if wrapper is _InterruptedFile else KeyboardInterrupt
        writes = self._writes(faulty_open, small_outputs, what, old)
        assert writes > 10  # many slices
        old.write_bytes(b"the old file\n")
        for at in range(writes + 1):  # each write, then the close that flushes the last
            opened = faulty_open(wrapper, at, "wb")
            with pytest.raises(raised) as caught:
                save(saved, old)
            if raised is DataError:
                assert str(caught.value) == f"cannot write {old}: [Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
            assert opened[-1].closed and opened[-1].writes == min(at, writes)
            assert old.read_bytes() == b"the old file\n"
            assert os.listdir(old.parent) == [old.name]
        faulty_open(wrapper, None, "wb")
        save(saved, old)
        assert old.read_bytes() == small_containers[what][0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e39])
    def test_non_finite_last_value_keeps_the_old_file(self, small_outputs, faulty_open, old, what, value):
        saved, save = small_outputs[what]
        writes = self._writes(faulty_open, small_outputs, what, old)
        old.write_bytes(b"the old file\n")
        opened = faulty_open(_InterruptedFile, None, "wb")
        message = rf"^value {re.escape(repr(value))} is not finite as f32, so it cannot be written$"
        with pytest.raises(DataError, match=message):
            save(_with_last_value(saved, value), old)
        assert opened[-1].closed and opened[-1].writes == writes - 2  # all but the last slice and the trailer
        assert old.read_bytes() == b"the old file\n"
        assert os.listdir(old.parent) == [old.name]
