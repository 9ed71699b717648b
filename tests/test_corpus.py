import numpy as np
import pytest

from fofe_wsd.corpus import (
    UNK_ID,
    UNK_TOKEN,
    Vocabulary,
    build_vocabulary,
    read_labeled_corpus,
    read_sense_inventory,
    tokenize_line,
)
from fofe_wsd.errors import DataError
from labeled import instances_of, read_reference


class TestTokenize:
    def test_splits_and_lowercases(self):
        assert tokenize_line("The bank rose") == ["the", "bank", "rose"]

    def test_empty_input(self):
        assert tokenize_line("") == []

    def test_repeated_separators_collapse(self):
        assert tokenize_line("  a  b ") == ["a", "b"]

    def test_unicode_whitespace(self):
        assert tokenize_line("a b\tc") == ["a", "b", "c"]


class TestBuildVocabulary:
    def test_frequency_cutoff(self):
        vocab = build_vocabulary(["a b a c a b"], max_size=3)
        assert vocab.tokens == [UNK_TOKEN, "a", "b"]

    def test_tie_broken_lexicographically(self):
        vocab = build_vocabulary(["x y"], max_size=10)
        assert vocab.tokens == [UNK_TOKEN, "x", "y"]

    def test_empty_corpus(self):
        with pytest.raises(DataError, match="empty corpus"):
            build_vocabulary([""], max_size=5)

    def test_max_size_too_small(self):
        with pytest.raises(ValueError):
            build_vocabulary(["a"], max_size=1)

    def test_deterministic(self):
        lines = ["b a c", "c b", "a a"]
        assert build_vocabulary(lines, 4).tokens == build_vocabulary(lines, 4).tokens

    def test_size_capped(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n_words = int(rng.integers(1, 40))
            lines = [" ".join(f"w{rng.integers(0, 30)}" for _ in range(n_words))]
            cap = int(rng.integers(2, 10))
            assert len(build_vocabulary(lines, cap)) <= cap

    def test_reserved_token_never_counted(self):
        vocab = build_vocabulary([f"{UNK_TOKEN} {UNK_TOKEN} a"], max_size=5)
        assert vocab.tokens == [UNK_TOKEN, "a"]


class TestLookup:
    def test_known_token(self):
        vocab = Vocabulary.from_tokens([UNK_TOKEN, "a", "b"])
        assert vocab.encode(["a"]) == [1]

    def test_unknown_maps_to_unk(self):
        vocab = Vocabulary.from_tokens([UNK_TOKEN, "a", "b"])
        assert vocab.encode(["zzz", "b", "A"]) == [UNK_ID, 2, UNK_ID]

    def test_case_folding_happens_upstream(self):
        vocab = Vocabulary.from_tokens([UNK_TOKEN, "a", "b"])
        assert vocab.encode(tokenize_line("A")) == [1]

    def test_roundtrip_every_token(self):
        vocab = build_vocabulary(["the bank rose over the river bank"], max_size=10)
        assert vocab.encode(vocab.tokens) == list(range(len(vocab)))


class TestReadLabeledCorpus:
    def test_basic_record(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("i1\tthe bank rose\t1\tbank\tbank%1\n", encoding="utf-8")
        (inst,) = instances_of(read_labeled_corpus(path))
        assert inst.instance_id == "i1"
        assert inst.tokens == ["the", "bank", "rose"]
        assert inst.target_index == 1
        assert inst.lemma == "bank"
        assert inst.sense_keys == {"bank%1"}

    def test_target_index_out_of_range(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("i1\ta b c\t9\tbank\tbank%1\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"target index out of range \(line 1\)"):
            read_labeled_corpus(path)

    def test_multi_gold_set(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("i1\tthe bank\t1\tbank\tbank%1,bank%2\n", encoding="utf-8")
        (inst,) = instances_of(read_labeled_corpus(path))
        assert inst.sense_keys == {"bank%1", "bank%2"}

    def test_duplicate_instance_id(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text(
            "i1\ta b\t0\ta\ta%1\ni1\ta b\t1\tb\tb%1\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match="duplicate instance id"):
            read_labeled_corpus(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("i1\ta b\t0\ta\ta%1\nbad line\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"\(line 2\)"):
            read_labeled_corpus(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text(
            "# header comment\n\ni1\ta b\t0\ta\ta%1\n", encoding="utf-8"
        )
        assert len(read_labeled_corpus(path)) == 1

    def test_empty_gold_set(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("i1\ta b\t0\ta\t\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty gold sense set"):
            read_labeled_corpus(path)

    def test_file_order_preserved(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text(
            "z9\ta\t0\ta\ta%1\nb2\ta\t0\ta\ta%1\n", encoding="utf-8"
        )
        assert read_labeled_corpus(path).ids == ["z9", "b2"]


def _read_error(path):
    """The message of the ``DataError`` that reading ``path`` raises."""
    with pytest.raises(DataError) as caught:
        read_labeled_corpus(path)
    return str(caught.value)


def _rows(path):
    """(id, tokens, target, lemma, sorted gold keys) of each instance the reader returns."""
    return [
        (i.instance_id, i.tokens, i.target_index, i.lemma, sorted(i.sense_keys))
        for i in instances_of(read_labeled_corpus(path))
    ]


class TestReaderContracts:
    """Every ``DataError`` of the labeled reader, word for word, and how it normalizes a line."""

    # a valid line and a comment come first, so the line at fault is line 3
    HEAD = "i0\ta b\t0\ta\ta%1\n# comment\n"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("i1\ta b\t0\ta", "malformed line (expected 5 tab-separated fields, got 4) (line 3)"),
            ("i1\ta b\t0\ta\ta%1\tx", "malformed line (expected 5 tab-separated fields, got 6) (line 3)"),
            ("\ta b\t0\ta\ta%1", "empty instance id (line 3)"),
            ("i0\ta b\t1\ta\ta%1", "duplicate instance id 'i0' (line 3)"),
            ("i1\ta b\tx\ta\ta%1", "malformed target index 'x' (line 3)"),
            ("i1\ta b\t2\ta\ta%1", "target index out of range (line 3)"),
            ("i1\ta b\t-1\ta\ta%1", "target index out of range (line 3)"),
            ("i1\t \t0\ta\ta%1", "target index out of range (line 3)"),
            ("i1\ta b\t0\t \t\ta%1", "malformed line (expected 5 tab-separated fields, got 6) (line 3)"),
            ("i1\ta b\t0\t  \ta%1", "empty lemma (line 3)"),
            ("i1\ta b\t0\ta\t , ,", "empty gold sense set (line 3)"),
        ],
    )
    def test_each_message(self, tmp_path, line, message):
        path = tmp_path / "train.tsv"
        path.write_text(self.HEAD + line + "\n", encoding="utf-8")
        assert _read_error(path) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [
            # field count, id, duplicate, index, range, lemma, gold: the first check to fail wins
            ("\tx", "malformed line (expected 5 tab-separated fields, got 2)"),
            ("\ta b\tx\t\t", "empty instance id"),
            ("i0\ta b\tx\t\t", "duplicate instance id 'i0'"),
            ("i1\ta b\tx\t\t", "malformed target index 'x'"),
            ("i1\ta b\t5\t\t", "target index out of range"),
            ("i1\ta b\t0\t\t", "empty lemma"),
        ],
    )
    def test_check_order_within_a_line(self, tmp_path, line, message):
        path = tmp_path / "train.tsv"
        path.write_text(self.HEAD + line + "\n", encoding="utf-8")
        assert _read_error(path) == f"{path}: {message} (line 3)"

    def test_first_bad_line_wins(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("i1\ta\t0\ta\t\nbad line\n", encoding="utf-8")
        assert _read_error(path) == f"{path}: empty gold sense set (line 1)"
        path.write_text("bad line\ni1\ta\t0\ta\t\n", encoding="utf-8")
        assert _read_error(path) == f"{path}: malformed line (expected 5 tab-separated fields, got 1) (line 1)"

    @pytest.mark.parametrize(
        "text, target", [(" 2", 2), ("2 ", 2), ("+1", 1), ("1_0", 10), ("-0", 0), ("\u0662", 2), ("007", 7)]
    )
    def test_target_index_as_int_reads_it(self, tmp_path, text, target):
        path = tmp_path / "train.tsv"
        path.write_text(f"i1\t{' '.join('abcdefghijk')}\t{text}\tw\tw%1\n", encoding="utf-8")
        assert _rows(path)[0][2] == target

    @pytest.mark.parametrize("text", ["", "1.0", "0x1", "1 1", "_1", "one"])
    def test_target_index_int_rejects(self, tmp_path, text):
        path = tmp_path / "train.tsv"
        path.write_text(f"i1\ta b c\t{text}\tw\tw%1\n", encoding="utf-8")
        assert _read_error(path) == f"{path}: malformed target index {text!r} (line 1)"

    def test_cr_and_crlf_line_ends(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_bytes(b"# c\r\ni1\tA b\t0\tA\ta%1\r\n\r\ni2\tc d\t1\tc\tc%1\ri3\te\t0\te\te%1\n")
        assert _rows(path) == [
            ("i1", ["a", "b"], 0, "a", ["a%1"]),
            ("i2", ["c", "d"], 1, "c", ["c%1"]),
            ("i3", ["e"], 0, "e", ["e%1"]),
        ]
        path.write_bytes(b"i1\ta\t0\ta\ta%1\r\n\rbad\r\n")  # a lone CR ends line 2
        assert _read_error(path) == f"{path}: malformed line (expected 5 tab-separated fields, got 1) (line 3)"

    def test_comment_and_blank_lines(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("#\n\n  \t \n\t\t\t\t\n#i0\ta\t0\ta\ta%1\ni1\t#a b#\t0\ta\ta%1\n", encoding="utf-8")
        assert _rows(path) == [("i1", ["#a", "b#"], 0, "a", ["a%1"])]
        path.write_text(" # not a comment\n", encoding="utf-8")
        assert _read_error(path) == f"{path}: malformed line (expected 5 tab-separated fields, got 1) (line 1)"

    def test_lemma_and_gold_keys_normalized(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("i1\ta b\t1\t BaNK \t b%2, B%1 ,b%2,,\n", encoding="utf-8")
        # lemmas are stripped and lowercased; keys stripped, deduplicated and sorted, case kept
        assert _rows(path) == [("i1", ["a", "b"], 1, "bank", ["B%1", "b%2"])]

    def test_tokens_split_on_unicode_whitespace_and_lowercased(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("i1\tThe\x85BANK\u00a0Rose x\x0cy\x1cz\u2003 \t0\tw\tw%1\n", encoding="utf-8")
        assert _rows(path) == [("i1", ["the", "bank", "rose", "x", "y", "z"], 0, "w", ["w%1"])]


class TestLabeledColumns:
    def test_layout(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text(
            "i1\tthe Bank rose\t1\tBank\tbank%2,bank%1\ni2\tthe river\t1\triver\triver%1\n"
            "i3\tbank the\t0\tbank\tbank%1\n",
            encoding="utf-8",
        )
        corpus = read_labeled_corpus(path)
        assert len(corpus) == 3 and corpus.ids == ["i1", "i2", "i3"]
        assert corpus.types == ["the", "bank", "rose", "river"]  # first-use order
        assert corpus.tokens.dtype == np.int32 and corpus.tokens.tolist() == [0, 1, 2, 0, 3, 1, 0]
        assert corpus.offsets.tolist() == [0, 3, 5, 7] and corpus.targets.tolist() == [1, 1, 0]
        assert corpus.lemmas == ["bank", "river"] and corpus.lemma_codes.tolist() == [0, 1, 0]
        assert corpus.keys == ["bank%1", "bank%2", "river%1"]  # sorted
        assert corpus.gold.tolist() == [0, 1, 2, 0] and corpus.gold_offsets.tolist() == [0, 2, 3, 4]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "train.tsv"
        path.write_text("# nothing\n", encoding="utf-8")
        corpus = read_labeled_corpus(path)
        assert len(corpus) == 0 and corpus.types == corpus.lemmas == corpus.keys == []
        assert corpus.offsets.tolist() == corpus.gold_offsets.tolist() == [0]


def _fuzz_line(rng, ids):
    """A labeled line, most often a valid one; its id comes from a small pool, so some repeat."""
    pick = lambda options: options[int(rng.integers(len(options)))]  # noqa: E731
    if rng.random() < 0.05:
        return pick(["", "# a comment", "  \t", "\t\t\t\t", "only\ttwo", " #x\ty"])
    words = [pick(["the", "Bank", "BANK", "röse", "#x", "a\x85b", "c\u00a0d", "\u03a3\u039f\u03a3", "e"])
             for _ in range(int(rng.integers(0, 12)))]
    index = pick(["0", "2", " 1", "+1", "1_0", "-1", "x", "", "\u0661"] + ["0", "1"] * 12)
    lemma = pick(["bank", " Bank ", "ROSE", "rose", "", "  "] + ["bank"] * 8)
    gold = pick(["a%1", "a%2, a%1 ,a%2", "B%1,b%1", "", " , ", "a%3,"] + ["a%1"] * 8)
    instance_id = pick(["", *ids] + [f"i{rng.integers(10**6)}"] * 20)
    fields = [instance_id, " ".join(words), index, lemma, gold]
    if rng.random() < 0.02:
        fields.append("extra")
    return "\t".join(fields)


def test_reader_matches_the_per_line_reference(tmp_path):
    """Seeded files of valid and malformed lines: the columns hold what the
    per-line reference reader reads, or both raise the same first error."""
    rng = np.random.default_rng(21)
    path = tmp_path / "fuzz.tsv"
    outcomes = {"valid": 0, "error": 0}
    for trial in range(300):
        lines = [_fuzz_line(rng, ["i1", "i2"]) for _ in range(int(rng.integers(0, 8)))]
        ends = ["\n", "\r\n", "\r"]
        path.write_bytes("".join(line + ends[int(rng.integers(3))] for line in lines).encode("utf-8"))
        try:
            expected = read_reference(path)
        except DataError as exc:
            outcomes["error"] += 1
            assert _read_error(path) == str(exc), trial
            continue
        outcomes["valid"] += 1
        corpus = read_labeled_corpus(path)
        assert instances_of(corpus) == expected, trial
        tokens = [t for inst in expected for t in inst.tokens]
        assert corpus.types == list(dict.fromkeys(tokens))
        assert corpus.lemmas == list(dict.fromkeys(inst.lemma for inst in expected))
        assert corpus.keys == sorted({k for inst in expected for k in inst.sense_keys})
        assert all(np.diff(corpus.gold[a:b]).min(initial=1) > 0 for a, b in zip(corpus.gold_offsets, corpus.gold_offsets[1:]))
        assert [a.dtype for a in (corpus.tokens, corpus.lemma_codes, corpus.gold)] == [np.int32] * 3
    assert min(outcomes.values()) > 50


class TestReadSenseInventory:
    def test_basic(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("bank\tbank%1,bank%2\n", encoding="utf-8")
        inv = read_sense_inventory(path)
        assert inv.senses("bank") == ["bank%1", "bank%2"]
        assert inv.first_sense("bank") == "bank%1"

    def test_duplicate_lemma(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("bank\tbank%1\nbank\tbank%2\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate lemma"):
            read_sense_inventory(path)

    def test_empty_sense_list(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("rose\t\n", encoding="utf-8")
        with pytest.raises(DataError, match="empty sense list"):
            read_sense_inventory(path)

    def test_order_is_preserved(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("w\tw%3,w%1,w%2\n", encoding="utf-8")
        assert read_sense_inventory(path).senses("w") == ["w%3", "w%1", "w%2"]

    def test_duplicate_key_in_list(self, tmp_path):
        path = tmp_path / "inv.tsv"
        path.write_text("w\tw%1,w%1\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate sense key"):
            read_sense_inventory(path)
