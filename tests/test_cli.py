import argparse
import ast
import builtins
import dataclasses
import errno
import os
import re
import shutil
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import fofe_wsd
from fofe_wsd import _files, cli, lm, synthetic, wsd
from fofe_wsd._files import checksum
from fofe_wsd.cli import main
from fofe_wsd.fofe import FofeConfig
from labeled import embed, instances_of


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture()
def workspace(tmp_path):
    """Small self-contained corpus + labeled data + inventory + config."""
    corpus = _write(
        tmp_path / "corpus.txt",
        "the teller counted the money near the vault\n"
        "a canoe drifted down the muddy river water\n"
        "the teller kept money in the vault\n"
        "reeds grew along the muddy river shore\n"
        "my deposit earned interest at the branch\n"
        "the ferry crossed the river past the reeds\n" * 3,
    )
    train = _write(
        tmp_path / "train.tsv",
        "t1\tthe teller counted the blick near the vault\t4\tblick\tblick%1\n"
        "t2\ta canoe drifted down the blick water\t5\tblick\tblick%2\n"
        "t3\tthe teller kept blick in the vault\t3\tblick\tblick%1\n"
        "t4\treeds grew along the muddy blick shore\t5\tblick\tblick%2\n",
    )
    test = _write(
        tmp_path / "test.tsv",
        "q1\tmy blick earned interest at the branch\t1\tblick\tblick%1\n"
        "q2\tthe ferry crossed the blick past the reeds\t4\tblick\tblick%2\n",
    )
    inventory = _write(tmp_path / "inventory.tsv", "blick\tblick%1,blick%2\n")
    config = _write(
        tmp_path / "run.conf",
        f"corpus = {corpus}\n"
        f"train = {train}\n"
        f"test = {test}\n"
        f"inventory = {inventory}\n"
        f"checkpoint = {tmp_path / 'model.fofe'}\n"
        f"store = {tmp_path / 'store.fwsd'}\n"
        f"predictions = {tmp_path / 'pred.tsv'}\n"
        f"report = {tmp_path / 'report.tsv'}\n"
        "embed_dim = 8\n"
        "hidden_dims = 16\n"
        "order = 2\n"
        "epochs = 3\n"
        "seed = 2\n",
    )
    return tmp_path, config


def test_cli_raises_no_data_error():
    # the rules on data live in the library functions the commands call
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    raised = [ast.unparse(node.exc) for node in ast.walk(tree) if isinstance(node, ast.Raise) and node.exc]
    assert [exc for exc in raised if exc.startswith("DataError")] == []


class TestEncode:
    def test_printed_example(self, capsys):
        assert main(["encode", "--tokens", "a b c", "--alpha", "0.7", "--direction", "left"]) == 0
        assert capsys.readouterr().out.strip() == "0.49 0.7 1"

    def test_empty_tokens(self, capsys):
        assert main(["encode", "--tokens", ""]) == 0
        assert capsys.readouterr().out.strip() == ""

    def test_alpha_validation(self, capsys):
        assert main(["encode", "--tokens", "a", "--alpha", "1.5"]) == 1
        assert "alpha" in capsys.readouterr().err

    def test_right_direction_and_order(self, capsys):
        assert main(["encode", "--tokens", "a b c", "--alpha", "0.7", "--direction", "right"]) == 0
        assert capsys.readouterr().out.strip() == "1 0.7 0.49"

    @pytest.mark.parametrize(
        "flags, code",
        [
            (["--alpha", "0.5"], "0.25 1.015625 0.125 0.03125 0.5703125"),
            (
                ["--alpha", "0.5", "--order", "2", "--direction", "right"],
                "0.0625 1.015625 0.125 0.5 0.28125 0.03125 0.5078125 0.0625 0.25 1.140625",
            ),
        ],
    )
    def test_repeated_tokens_share_an_id(self, capsys, flags, code):
        # ids follow the sorted distinct tokens: and, cat, dog, saw, the
        assert main(["encode", "--tokens", "the cat saw the dog and the cat", *flags]) == 0
        assert capsys.readouterr().out == code + "\n"

    def test_unknown_flag(self, capsys):
        assert main(["encode", "--tokens", "a", "--bogus", "x"]) == 1

    def test_order_too_large_to_allocate_exits_1(self, capsys):
        # the layout of 2**62 columns is beyond numpy's size limit, so nothing is allocated
        assert main(["encode", "--tokens", "a b", "--order", str(2**62)]) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: cannot allocate a code of order [\d,]+$", err, re.M)
        assert "Traceback" not in err


class TestConfigHandling:
    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        config = _write(tmp_path / "c.conf", "alpa = 0.7\n")
        assert main(["train", "-c", str(config)]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line(self, tmp_path, capsys):
        config = _write(tmp_path / "c.conf", "alpha 0.7\n")
        assert main(["train", "-c", str(config)]) == 1
        config.write_bytes(b"alpha = 0.7\xff\n")
        assert main(["train", "-c", str(config)]) == 1
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_missing_paths_reported_before_compute(self, capsys):
        assert main(["train", "--epochs", "1"]) == 1
        err = capsys.readouterr().err
        assert "corpus" in err and "checkpoint" in err

    def test_flag_overrides_file(self, workspace):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0", "--alpha", "0.5"]) == 0
        model = lm.load_checkpoint(tmp_path / "model.fofe")
        assert model.config.fofe.alpha == 0.5

    def test_comments_and_blanks_ok(self, tmp_path, capsys):
        config = _write(tmp_path / "c.conf", "# comment\n\nalpha = 0.7\n")
        assert main(["train", "-c", str(config)]) == 1  # still missing paths
        assert "missing required path" in capsys.readouterr().err

    def test_keys_and_flags_are_the_dataclass_fields(self, tmp_path, capsys):
        schema = (FofeConfig, lm.LmConfig, wsd.ClassifierConfig)
        fields = {f.name for cls in schema for f in dataclasses.fields(cls)} - {"fofe"}
        expected = fields | set(cli._PATH_KEYS)
        assert len(expected) == 12 + 8
        defaults = {**vars(lm.LmConfig().fofe), **vars(lm.LmConfig()), **vars(wsd.ClassifierConfig())}
        settings = {key: defaults.get(key, f"/data/{key}") for key in expected}
        config = _write(
            tmp_path / "all.conf",
            "".join(
                f"{key} = {','.join(map(str, v)) if isinstance(v, tuple) else v}\n"
                for key, v in settings.items()
            ),
        )
        assert cli._read_config_file(str(config)) == settings

        subparsers = next(
            a for a in cli._build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        train_flags = {
            a.dest: a.option_strings
            for a in subparsers.choices["train"]._actions
            if a.dest not in ("help", "config", "resume")
        }
        assert train_flags == {key: ["--" + key.replace("_", "-")] for key in expected}

        _write(tmp_path / "workers.conf", "workers = 1\n")
        assert main(["train", "-c", str(tmp_path / "workers.conf")]) == 1
        assert "unknown config key 'workers'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cls, key, value, text",
        [
            (lm.LmConfig, "optimizer", "foo", "foo"),
            (lm.LmConfig, "learning_rate", 0.0, "0"),
            (lm.LmConfig, "batch_size", 0, "0"),
            (wsd.ClassifierConfig, "k", 0, "0"),
            (FofeConfig, "alpha", 1.5, "1.5"),
            (FofeConfig, "order", 0, "0"),
            (lm.LmConfig, "window_cap", -1, "-1"),
            (lm.LmConfig, "hidden_dims", (0,), "0"),
            (lm.LmConfig, "learning_rate", float("nan"), "nan"),
            (lm.LmConfig, "seed", -1, "-1"),
            (lm.LmConfig, "learning_rate", float("inf"), "inf"),
        ],
    )
    def test_invalid_setting_rejected(self, workspace, capsys, cls, key, value, text):
        required = {"alpha": 0.7} if cls is FofeConfig else {}
        with pytest.raises(ValueError):
            cls(**{**required, key: value})
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--" + key.replace("_", "-"), text]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "model.fofe").exists()

    @pytest.mark.parametrize("text", ["64,,64", ",", "64,", ",64"])
    def test_hidden_dims_with_an_empty_item_rejected(self, workspace, capsys, text):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--hidden-dims", text]) == 1
        assert "--hidden-dims" in capsys.readouterr().err
        _write(config, config.read_text().replace("hidden_dims = 16\n", f"hidden_dims = {text}\n"))
        assert main(["train", "-c", str(config)]) == 1
        assert f"bad value for 'hidden_dims': {text!r}" in capsys.readouterr().err
        assert not (tmp_path / "model.fofe").exists()

    def test_empty_hidden_dims_is_no_hidden_layer(self, workspace):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0", "--hidden-dims", ""]) == 0
        assert lm.load_checkpoint(tmp_path / "model.fofe").config.hidden_dims == ()
        _write(config, config.read_text().replace("hidden_dims = 16\n", "hidden_dims =\n"))
        assert cli._read_config_file(str(config))["hidden_dims"] == ()

    def test_key_set_twice_rejected(self, workspace, capsys):
        tmp_path, config = workspace
        _write(config, config.read_text() + "\n# again\nepochs = 1\n")
        assert main(["train", "-c", str(config)]) == 1
        assert "config key 'epochs' set twice (lines 12 and 16)" in capsys.readouterr().err
        assert not (tmp_path / "model.fofe").exists()

    @pytest.mark.parametrize("key, text", [("hidden_dims", "64,,64"), ("alpha", "x"), ("epochs", "1.5")])
    def test_flag_and_file_word_a_bad_value_alike(self, workspace, capsys, key, text):
        tmp_path, config = workspace
        wording = f"bad value for {key!r}: {text!r}"
        assert main(["train", "-c", str(config), "--" + key.replace("_", "-"), text]) == 1
        err = capsys.readouterr().err
        assert f"argument --{key.replace('_', '-')}: {wording}" in err
        assert "_parse" not in err
        lines = [line for line in config.read_text().splitlines() if not line.startswith(key)]
        _write(config, "\n".join([*lines, f"{key} = {text}"]) + "\n")
        assert main(["train", "-c", str(config)]) == 1
        assert f"{wording} (line {len(lines) + 1})" in capsys.readouterr().err
        assert not (tmp_path / "model.fofe").exists()


class TestTrainCommand:
    def test_missing_corpus_file_is_data_error(self, tmp_path, capsys):
        assert (
            main(
                [
                    "train",
                    "--corpus", str(tmp_path / "nope.txt"),
                    "--checkpoint", str(tmp_path / "m.fofe"),
                ]
            )
            == 2
        )
        assert "cannot read corpus" in capsys.readouterr().err

    def test_epochs_zero_still_writes_checkpoint(self, workspace):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        model = lm.load_checkpoint(tmp_path / "model.fofe")
        assert len(model.vocab) > 1

    def test_writes_epoch_log(self, workspace):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config)]) == 0
        log_lines = (tmp_path / "model.fofe.log").read_text().splitlines()
        assert len(log_lines) == 3
        assert log_lines[0].startswith("1\t")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_3(self, workspace, capsys):
        tmp_path, config = workspace
        code = main(
            ["train", "-c", str(config), "--optimizer", "sgd", "--learning-rate", "1e30"]
        )
        assert code == 3
        assert "non-finite" in capsys.readouterr().err

    def test_resume_appends(self, workspace):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config)]) == 0
        first = (tmp_path / "model.fofe").read_bytes()
        assert main(["train", "-c", str(config), "--resume", "--epochs", "1"]) == 0
        assert (tmp_path / "model.fofe").read_bytes() != first
        assert "# resumed" in (tmp_path / "model.fofe.log").read_text()

    def test_resume_keeps_old_log_lines(self, workspace):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "2"]) == 0
        old = (tmp_path / "model.fofe.log").read_text()
        assert main(["train", "-c", str(config), "--resume", "--epochs", "1"]) == 0
        new = (tmp_path / "model.fofe.log").read_text()
        assert new.startswith(old + "# resumed\n1\t")
        assert len(new.splitlines()) == 4

    def test_resume_without_log_starts_one(self, workspace):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config)]) == 0
        (tmp_path / "model.fofe.log").unlink()
        assert main(["train", "-c", str(config), "--resume", "--epochs", "1"]) == 0
        lines = (tmp_path / "model.fofe.log").read_text().splitlines()
        assert lines[0] == "# resumed"
        assert len(lines) == 2 and lines[1].startswith("1\t")

    @pytest.mark.parametrize(
        "flags",
        [
            pytest.param(["--hidden-dims", "100000000000", "--embed-dim", "1000"], id="hidden-dims"),
            pytest.param(["--embed-dim", "1000000000000"], id="embed-dim"),
            pytest.param(["--order", "100000000000", "--embed-dim", "1000", "--epochs", "1"], id="order"),
            pytest.param(["--embed-dim", str(2**62)], id="embed-dim-beyond-numpy"),
            pytest.param(["--hidden-dims", f"{2**40},{2**40}"], id="hidden-dims-beyond-numpy"),
            pytest.param(["--order", str(2**62), "--epochs", "1"], id="order-beyond-numpy"),
        ],
    )
    def test_network_too_large_to_allocate_exits_1(self, workspace, capsys, flags):
        # Each of the first three cases' first large tensor (the first weight,
        # the embedding of about 30 rows, the first weight) is over 2**47
        # bytes, more than a process can address, so it fails at once under
        # any overcommit policy. The others' parameter count is beyond
        # numpy's size limit, which it checks before allocating anything.
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), *flags]) == 1
        err = capsys.readouterr().err
        assert re.search(r"^error: cannot allocate a network of [\d,]+ parameters$", err, re.M)
        assert "Traceback" not in err
        assert not (tmp_path / "model.fofe").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_run_keeps_checkpoint_and_log(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "2"]) == 0
        outputs = [tmp_path / "model.fofe", tmp_path / "model.fofe.log"]
        before = [path.read_bytes() for path in outputs]
        diverging = ["--optimizer", "sgd", "--learning-rate", "1e30"]
        assert main(["train", "-c", str(config), *diverging]) == 3
        assert "non-finite" in capsys.readouterr().err
        assert [path.read_bytes() for path in outputs] == before
        assert not list(tmp_path.glob("*.tmp"))


class TestBuildPredictEval:
    def test_full_pipeline(self, workspace, capsys):
        tmp_path, config = workspace
        for command in ("train", "build", "predict", "eval"):
            assert main([command, "-c", str(config)]) == 0, command
        out = capsys.readouterr().out
        assert "micro_f1" in out
        report = (tmp_path / "report.tsv").read_text().splitlines()
        assert report[0].startswith("all\t2\t")
        predictions = wsd.read_predictions(tmp_path / "pred.tsv")
        assert list(predictions) == ["q1", "q2"]

    def test_ids_with_unicode_line_breaks_pass_predict_and_eval(self, workspace):
        tmp_path, config = workspace
        _write(
            tmp_path / "test.tsv",
            "q1\x0c\tmy blick earned interest at the branch\t1\tblick\tblick%1\n"
            "q2\x85\tthe ferry crossed the blick past the reeds\t4\tblick\tblick%2\n"
            "q3\u2028\tthe teller kept blick in the vault\t3\tblick\tblick%1\n",
        )
        for command in ("train", "build", "predict", "eval"):
            assert main([command, "-c", str(config)]) == 0, command
        report = (tmp_path / "report.tsv").read_text(encoding="utf-8").split("\n")
        assert report[0].startswith("all\t3\t")
        assert list(wsd.read_predictions(tmp_path / "pred.tsv")) == ["q1\x0c", "q2\x85", "q3\u2028"]

    def test_build_rejects_unknown_sense_key(self, workspace, capsys):
        tmp_path, config = workspace
        _write(
            tmp_path / "train.tsv",
            "t1\tthe blick\t1\tblick\tblick%9\n",
        )
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 2
        err = capsys.readouterr().err
        assert "blick%9" in err and "t1" in err

    def test_build_empty_labeled_file_warns(self, workspace, caplog):
        tmp_path, config = workspace
        _write(tmp_path / "train.tsv", "# no instances\n")
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        with caplog.at_level("WARNING"):
            assert main(["build", "-c", str(config)]) == 0
        assert any("empty" in message for message in caplog.messages)
        assert wsd.load_store(tmp_path / "store.fwsd").blocks == []

    def test_build_logs_sense_counts_only_at_info(self, workspace, caplog, monkeypatch):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        monkeypatch.setenv("FOFE_WSD_LOG", "info")
        assert main(["build", "-c", str(config)]) == 0
        assert "lemma blick: 4 pairs (blick%1=2, blick%2=2)" in caplog.messages
        caplog.clear()

        def no_counts(codes, minlength):
            raise AssertionError("sense counts built below info level")

        monkeypatch.setattr(cli, "np", SimpleNamespace(bincount=no_counts))  # cli's only use of numpy
        monkeypatch.setenv("FOFE_WSD_LOG", "warning")
        assert main(["build", "-c", str(config)]) == 0
        assert not caplog.messages

    def test_log_level_read_on_every_call(self, workspace, caplog, monkeypatch):
        # logging.basicConfig acts once per process, so the level must not depend on it
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        for level, logged in (("warning", False), ("info", True), ("error", False), ("INFO", True)):
            monkeypatch.setenv("FOFE_WSD_LOG", level)
            caplog.clear()
            assert main(["build", "-c", str(config)]) == 0
            assert ("lemma blick: 4 pairs (blick%1=2, blick%2=2)" in caplog.messages) == logged, level

    def test_predict_unknown_lemma_lists_ids(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0
        _write(
            tmp_path / "test.tsv",
            "q1\tthe ghost walked\t1\tghost\tg%1\n"
            "q2\tanother ghost\t1\tghost\tg%1\n",
        )
        assert main(["predict", "-c", str(config)]) == 2
        err = capsys.readouterr().err
        assert "q1" in err and "q2" in err

    def test_predict_flipped_tensor_rank_exits_2(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0
        path = tmp_path / "model.fofe"
        tensors = lm.load_checkpoint(path).params.tensors()
        raw = bytearray(path.read_bytes())
        # the tensors fill the file up to its 8-byte checksum; the embedding comes first
        rank_at = len(raw) - 8 - sum(4 * (1 + t.ndim + t.size) for t in tensors)
        assert raw[rank_at : rank_at + 4] == (2).to_bytes(4, "little")
        raw[rank_at + 1] ^= 1  # rank 2 -> 258, with enough bytes after it for 258 dims
        path.write_bytes(raw)
        assert main(["predict", "-c", str(config)]) == 2
        assert "corrupt checkpoint" in capsys.readouterr().err
        assert not (tmp_path / "pred.tsv").exists()

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name, what", [("model.fofe", "checkpoint"), ("store.fwsd", "classifier store")])
    def test_predict_non_finite_value_exits_2(self, workspace, capsys, name, what, value):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0
        path = tmp_path / name
        raw = bytearray(path.read_bytes())
        raw[-12:-8] = struct.pack("<f", value)  # the last f32 value, with a valid checksum after it
        raw[-8:] = struct.pack("<Q", checksum(raw[:-8]))
        path.write_bytes(raw)
        assert main(["predict", "-c", str(config)]) == 2
        assert f"corrupt {what}: {path} (non-finite value)" in capsys.readouterr().err
        assert not (tmp_path / "pred.tsv").exists()

    @pytest.mark.parametrize("name, what", [("model.fofe", "checkpoint"), ("store.fwsd", "classifier store")])
    def test_predict_read_error_mid_file_exits_2(self, workspace, capsys, monkeypatch, name, what):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0
        path = tmp_path / name

        class Failing:  # the file object, but its array reads fail as a bad disk would
            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, attr):
                return getattr(self.fh, attr)

            def readinto(self, buffer):
                raise OSError(errno.EIO, os.strerror(errno.EIO))

        def failing_open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            return Failing(fh) if Path(file) == path else fh

        monkeypatch.setattr(_files, "open", failing_open, raising=False)
        assert main(["predict", "-c", str(config)]) == 2
        assert f"cannot read {what} {path}: [Errno {errno.EIO}]" in capsys.readouterr().err
        assert not (tmp_path / "pred.tsv").exists()

    def test_predict_backoff_for_unseen_lemma(self, workspace):
        tmp_path, config = workspace
        _write(tmp_path / "train.tsv", "# empty\n")
        _write(
            tmp_path / "inventory.tsv",
            "blick\tblick%1,blick%2\nrose\trose%2,rose%1\n",
        )
        _write(
            tmp_path / "test.tsv",
            "q1\tthe rose grew\t1\trose\trose%1\n"
            "q2\tthe blick rose\t1\tblick\tblick%2\n",
        )
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0
        assert main(["predict", "-c", str(config)]) == 0
        predictions = wsd.read_predictions(tmp_path / "pred.tsv")
        assert predictions == {"q1": "rose%2", "q2": "blick%1"}

    def test_predict_empty_test_file(self, workspace):
        tmp_path, config = workspace
        _write(tmp_path / "test.tsv", "# nothing here\n")
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0
        assert main(["predict", "-c", str(config)]) == 0
        assert (tmp_path / "pred.tsv").read_text(encoding="utf-8") == ""

    def test_duplicate_test_instance_id(self, workspace, capsys):
        tmp_path, config = workspace
        _write(
            tmp_path / "test.tsv",
            "q1\tthe blick\t1\tblick\tblick%1\nq1\tthe blick\t1\tblick\tblick%1\n",
        )
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0
        assert main(["predict", "-c", str(config)]) == 2
        assert "duplicate instance id" in capsys.readouterr().err

    def test_predict_store_width_mismatch(self, workspace, capsys, monkeypatch):
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0  # 16-wide store
        other = str(tmp_path / "other.fofe")
        narrow = ["--epochs", "0", "--hidden-dims", "16,8", "--checkpoint", other]
        assert main(["train", "-c", str(config), *narrow]) == 0

        def no_embedding(*args):
            raise AssertionError("embedded before the width check")

        monkeypatch.setattr(wsd, "context_embeddings", no_embedding)
        assert main(["predict", "-c", str(config), "--checkpoint", other]) == 2
        err = capsys.readouterr().err
        assert "16" in err and "8" in err
        assert not (tmp_path / "pred.tsv").exists()

    def test_eval_missing_predictions_file(self, workspace, capsys):
        tmp_path, config = workspace
        assert main(["eval", "-c", str(config)]) == 2
        assert "cannot read predictions" in capsys.readouterr().err
        (tmp_path / "pred.tsv").write_bytes(b"q1\tblick%1\xff\n")
        assert main(["eval", "-c", str(config)]) == 2
        assert "not valid UTF-8" in capsys.readouterr().err

    def test_eval_perfect_score(self, workspace, capsys):
        tmp_path, config = workspace
        _write(tmp_path / "pred.tsv", "q1\tblick%1\nq2\tblick%2\n")
        assert main(["eval", "-c", str(config)]) == 0
        assert "micro_f1 1.0000" in capsys.readouterr().out

    def test_window_cap_flows_into_build(self, workspace):
        import dataclasses

        from fofe_wsd.corpus import read_labeled_corpus

        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--window-cap", "1"]) == 0
        assert main(["build", "-c", str(config), "--window-cap", "1"]) == 0
        store = wsd.load_store(tmp_path / "store.fwsd")
        model = lm.load_checkpoint(tmp_path / "model.fofe")
        model.config = dataclasses.replace(model.config, window_cap=1)
        first = instances_of(read_labeled_corpus(tmp_path / "train.tsv"))[0]
        (expected,) = embed(model, [(first.tokens, first.target_index)])
        stored = {block.lemma: block for block in store.blocks}[first.lemma].pairs[0]
        assert np.allclose(stored, expected, atol=1e-6)

    def test_window_cap_beyond_intp_keeps_every_token(self, workspace):
        # a cap at or above the longest context is no cap, even one no intp holds
        tmp_path, config = workspace
        outputs = [tmp_path / name for name in ("model.fofe", "model.fofe.log", "store.fwsd", "pred.tsv")]
        runs = []
        for cap in ("0", str(2**63)):
            for command in ("train", "build", "predict"):
                assert main([command, "-c", str(config), "--window-cap", cap]) == 0
            runs.append([path.read_bytes() for path in outputs])
        assert runs[0] == runs[1]

    def test_predict_version_1_checkpoint_exits_2(self, workspace, capsys):
        # version 1, the byte-sum container, is refused like any other unknown version
        tmp_path, config = workspace
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0
        path = tmp_path / "model.fofe"
        raw = bytearray(path.read_bytes())
        raw[4:8] = (1).to_bytes(4, "little")
        raw[-8:] = (sum(raw[:-8]) % 2**64).to_bytes(8, "little")  # the version 1 trailer
        path.write_bytes(raw)
        assert main(["predict", "-c", str(config)]) == 2
        assert f"error: incompatible checkpoint: {path} (version 1)" in capsys.readouterr().err
        assert not (tmp_path / "pred.tsv").exists()


def _three_lemmas(tmp_path):
    """Train, test and inventory files of the lemmas dax, wug and zup, three train instances each."""
    lemmas = ("dax", "wug", "zup")
    _write(
        tmp_path / "train.tsv",
        "".join(
            f"{lemma}{n}\t{context}\t{n + 1}\t{lemma}\t{lemma}%{n % 2 + 1}\n"
            for lemma in lemmas
            for n, context in enumerate(("the teller counted money", "a canoe drifted down", "reeds grew along muddy"))
        ),
    )
    _write(tmp_path / "test.tsv", "".join(f"q-{lemma}\tthe ferry crossed past\t2\t{lemma}\t{lemma}%1\n" for lemma in lemmas))
    _write(tmp_path / "inventory.tsv", "".join(f"{lemma}\t{lemma}%1,{lemma}%2\n" for lemma in lemmas))


def _with_checksum(raw):
    raw[-8:] = struct.pack("<Q", checksum(raw[:-8]))
    return raw


def _crc_flipped(raw):
    raw[-1] ^= 1
    return raw


def _last_lemma_repeats_the_first(raw):
    at = raw.index(b"\x03\x00\x00\x00zup")  # the last block's lemma name
    raw[at + 4 : at + 7] = b"dax"
    return _with_checksum(raw)


def _cut_in_the_last_block(raw):
    return raw[: len(raw) - 8 - 20]  # inside the last block's f32 values


class TestStreamedStoreReadOrder:
    """predict scores each block as it is read, yet a store the loader rejects still writes no prediction."""

    @pytest.mark.parametrize(
        "damage, message",
        [
            (_crc_flipped, "corrupt classifier store: {path} (checksum mismatch)"),
            (_last_lemma_repeats_the_first, "corrupt classifier store: {path} (duplicate lemma 'dax')"),
            (_cut_in_the_last_block, "truncated classifier store: {path}"),
        ],
        ids=["checksum", "repeated-lemma", "cut"],
    )
    def test_damaged_store_keeps_the_old_predictions(self, workspace, capsys, damage, message):
        tmp_path, config = workspace
        _three_lemmas(tmp_path)
        assert main(["train", "-c", str(config), "--epochs", "0"]) == 0
        assert main(["build", "-c", str(config)]) == 0
        path, predictions = tmp_path / "store.fwsd", tmp_path / "pred.tsv"
        assert [block.lemma for block in wsd.load_store(path).blocks] == ["dax", "wug", "zup"]
        path.write_bytes(damage(bytearray(path.read_bytes())))
        _write(predictions, "q-dax\tdax%2\n")
        capsys.readouterr()
        assert main(["predict", "-c", str(config)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert predictions.read_bytes() == b"q-dax\tdax%2\n"
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".tmp")]


def test_build_and_predict_hold_one_lemma_at_a_time(workspace):
    """Neither stage holds the store's pairs at once: each peaks below half of them under tracemalloc."""
    tmp_path, config = workspace
    rng = np.random.default_rng(30)
    words = (tmp_path / "corpus.txt").read_text(encoding="utf-8").split()
    lemmas, per_lemma = [f"w{i}" for i in range(32)], 256  # 8,192 pairs of 256 f32 values: 8 MiB

    def labeled(prefix, count):
        return "".join(
            f"{prefix}{i}-{lemma}\t{' '.join(rng.choice(words, size=8))}\t{i % 8}\t{lemma}\t{lemma}%{i % 3 + 1}\n"
            for i in range(count)
            for lemma in lemmas
        )

    _write(tmp_path / "train.tsv", labeled("t", per_lemma))
    _write(tmp_path / "test.tsv", labeled("q", 4))
    _write(tmp_path / "inventory.tsv", "".join(f"{lemma}\t{lemma}%1,{lemma}%2,{lemma}%3\n" for lemma in lemmas))
    wide = ["-c", str(config), "--hidden-dims", "256"]
    assert main(["train", *wide, "--epochs", "0"]) == 0
    peaks = {}
    for command in ("build", "predict"):
        tracemalloc.start()
        try:
            assert main([command, *wide]) == 0
            peaks[command] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    blocks = wsd.load_store(tmp_path / "store.fwsd").blocks
    pair_bytes = sum(block.pairs.nbytes for block in blocks)
    assert len(blocks) == 32 and pair_bytes == 8 << 20
    assert peaks["build"] < pair_bytes / 2 and peaks["predict"] < pair_bytes / 2, peaks


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "command, flag",
        [
            ("train", "--checkpoint"),
            ("build", "--store"),
            ("predict", "--predictions"),
            ("eval", "--report"),
            ("gen-synthetic", "--outdir"),
        ],
    )
    def test_path_under_a_regular_file_exits_2(self, workspace, capsys, command, flag):
        tmp_path, config = workspace
        stages = ["train", "build", "predict", "eval"]
        for before in stages[: stages.index(command)] if command in stages else []:
            assert main([before, "-c", str(config)]) == 0, before
        blocked = str(tmp_path / "run.conf" / "out")  # run.conf is a regular file
        args = [command, flag, blocked]
        if command in stages:
            args += ["-c", str(config)]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "cannot" in err and blocked in err


@pytest.mark.parametrize(
    "command, flag",
    [("build", "--checkpoint"), ("predict", "--store"), ("eval", "--test"), ("eval", "--report"), ("gen-synthetic", "--outdir")],
)
def test_path_with_a_nul_byte_exits_2(workspace, capsys, command, flag):
    tmp_path, config = workspace
    for before in ("train", "build", "predict"):
        assert main([before, "-c", str(config)]) == 0, before
    args = [command, flag, str(tmp_path / "a\x00b")]
    if command != "gen-synthetic":
        args += ["-c", str(config)]
    assert main(args) == 2
    assert "embedded null byte" in capsys.readouterr().err


_INSERTS = [
    b"\t", b" ", b"=", b"#", b"%", b",", b"-", b".", b"0", b"9", b"x", b"\x00", b"\xff", b"\r",
    "\u00e9".encode(), "\u2028".encode(),
]


def _mutate_line(raw: bytes, rng: np.random.Generator) -> tuple[str, bytes]:
    """One seeded mutation of one line of ``raw``: (what was done, the mutated bytes)."""
    lines = raw.split(b"\n")
    at = int(rng.integers(len(lines)))
    line = lines[at]
    op = ["delete byte", "insert byte", "duplicate line", "delete line", "truncate line", "swap fields",
          "replace field"][int(rng.integers(7))]
    pos = int(rng.integers(len(line) + 1))
    if op == "delete byte":
        lines[at] = line[:pos] + line[pos + 1 :]
    elif op == "insert byte":
        lines[at] = line[:pos] + _INSERTS[int(rng.integers(len(_INSERTS)))] + line[pos:]
    elif op == "duplicate line":
        lines.insert(at, line)
    elif op == "delete line":
        del lines[at]
    elif op == "truncate line":
        lines[at] = line[:pos]
    else:
        sep = b"\t" if b"\t" in line else b"="
        fields = line.split(sep)
        i, j = rng.integers(len(fields), size=2)
        if op == "swap fields":
            fields[i], fields[j] = fields[j], fields[i]
        else:
            fields[i] = [b"", b"-1", b"99999999999999999999", b"nan", b"1e309", b"\xc3"][int(rng.integers(6))]
        lines[at] = sep.join(fields)
    return f"{op} at line {at + 1}", b"\n".join(lines)


def test_mutated_text_inputs_exit_0_1_or_2(workspace, capsys, monkeypatch):
    # Seeded one-line mutations of each text input, through the commands that read it
    tmp_path, config = workspace
    # relative paths, so that a mutated path stays in the workspace
    config.write_text(config.read_text(encoding="utf-8").replace(f"{tmp_path}{os.sep}", ""), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(["train", "-c", "run.conf", "--epochs", "1"]) == 0
    assert main(["build", "-c", "run.conf"]) == 0 and main(["predict", "-c", "run.conf"]) == 0
    readers = {
        "train.tsv": ["build"],
        "test.tsv": ["predict", "eval"],
        "inventory.tsv": ["build", "predict"],
        "pred.tsv": ["eval"],
        "run.conf": ["build", "predict", "eval"],
    }
    base = {name: (tmp_path / name).read_bytes() for name in [*readers, "store.fwsd"]}
    rng = np.random.default_rng(0)
    outcomes = {}
    for case in range(200):
        name = list(readers)[case % len(readers)]
        for restored, raw in base.items():
            (tmp_path / restored).write_bytes(raw)
        what, mutated = _mutate_line(base[name], rng)
        (tmp_path / name).write_bytes(mutated)
        for command in readers[name]:
            try:
                outcomes[case, name, what, command] = main([command, "-c", "run.conf"])
            except Exception as exc:  # a traceback, where the CLI needs exit code 1 or 2
                outcomes[case, name, what, command] = repr(exc)
    capsys.readouterr()
    assert {key: rc for key, rc in outcomes.items() if rc not in (0, 1, 2)} == {}
    assert {0, 1, 2} <= set(outcomes.values())


class TestGenSynthetic:
    def test_writes_all_files(self, tmp_path):
        outdir = tmp_path / "synth"
        assert main(["gen-synthetic", "--outdir", str(outdir), "--seed", "3"]) == 0
        for name in ("corpus.txt", "train.tsv", "test.tsv", "inventory.tsv", "run.conf"):
            assert (outdir / name).exists(), name
        assert len((outdir / "train.tsv").read_text().splitlines()) == 200
        assert len((outdir / "test.tsv").read_text().splitlines()) == 100

    def test_deterministic_per_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-synthetic", "--outdir", str(a), "--seed", "9"]) == 0
        assert main(["gen-synthetic", "--outdir", str(b), "--seed", "9"]) == 0
        assert (a / "corpus.txt").read_bytes() == (b / "corpus.txt").read_bytes()
        assert (a / "train.tsv").read_bytes() == (b / "train.tsv").read_bytes()

    def test_sizes_configurable(self, tmp_path):
        outdir = tmp_path / "synth"
        assert main(["gen-synthetic", "--outdir", str(outdir), "--train-n", "10", "--test-n", "4"]) == 0
        assert len((outdir / "train.tsv").read_text().splitlines()) == 10
        assert len((outdir / "test.tsv").read_text().splitlines()) == 4

    def test_negative_seed_or_size_rejected(self, tmp_path, capsys):
        for flags in (["--seed", "-1"], ["--train-n", "-5"], ["--test-n", "-1"]):
            outdir = tmp_path / "synth"
            assert main(["gen-synthetic", "--outdir", str(outdir), *flags]) == 1, flags
            assert "must be >= 0" in capsys.readouterr().err
            assert not outdir.exists()
        with pytest.raises(ValueError):
            synthetic.SyntheticConfig(n_test=-1)


class TestEntryPoints:
    def test_help_returns_zero(self):
        assert main(["--help"]) == 0

    @staticmethod
    def _encode_module(**env):
        """``python -m fofe_wsd encode`` of the package under test, wherever it was imported from."""
        src = str(Path(fofe_wsd.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "fofe_wsd", "encode", "--tokens", "a b c", "--alpha", "0.7"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path, **env},
        )

    def test_module_invocation(self):
        proc = self._encode_module()
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.49 0.7 1"

    @pytest.mark.parametrize("level", ["error", "Info", "DEBUG"])
    def test_log_levels_accepted_in_any_case(self, level):
        proc = self._encode_module(FOFE_WSD_LOG=level)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.49 0.7 1"

    # In a subprocess, because pytest's own log handlers make logging.basicConfig
    # ignore its arguments in-process. "basic_format" names a logging attribute
    # that is not a level.
    @pytest.mark.parametrize("level", ["basic_format", "bogus", ""])
    def test_unknown_log_level_is_a_usage_error(self, level):
        proc = self._encode_module(FOFE_WSD_LOG=level)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == (
            f"error: FOFE_WSD_LOG must be one of debug, info, warning, error, got {level!r}\n"
        )

    def test_missing_subcommand(self, capsys):
        assert main([]) == 1


@pytest.fixture()
def flagged_parsers(monkeypatch):
    """The ``prog`` of the parser of each flag added, other than ``-h``."""
    progs = []
    add_argument = argparse.ArgumentParser.add_argument

    def spy(parser, *args, **kwargs):
        if kwargs.get("action") != "help":
            progs.append(parser.prog)
        return add_argument(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", spy)
    return progs


@pytest.fixture()
def subparsers(monkeypatch):
    """The name of each subparser created."""
    names = []
    add_parser = argparse._SubParsersAction.add_parser

    def spy(action, name, **kwargs):
        names.append(name)
        return add_parser(action, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", spy)
    return names


USAGE = "usage: fofe-wsd [-h] {encode,train,build,predict,eval,gen-synthetic} ...\n"


class TestParser:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["-h"],
            [],
            ["bogus"],
            *([command, "--help"] for command in ("encode", "train", "build", "predict", "eval", "gen-synthetic")),
            ["train", "--bogus"],
            ["encode", "--corpus", "x"],  # a flag of another subcommand
            ["train", "--epochs", "x"],
            ["gen-synthetic", "--seed", "x"],
            ["-x", "build", "-c", "x"],  # an unknown flag before the subcommand
            ["build", "--bogus"],
            ["build", "stray"],
            ["--help", "build"],
            ["build", "--e", "3"],  # a prefix of several of build's flags
        ],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_output_matches_a_parser_with_every_flag(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        build_parser = cli._build_parser
        outcomes = []
        for parser in (build_parser, lambda *_: build_parser()):
            monkeypatch.setattr(cli, "_build_parser", parser)
            outcomes.append((main(argv), *capsys.readouterr()))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][1] or outcomes[0][2]

    def test_only_the_invoked_subcommand_gets_flags(self, capsys, flagged_parsers):
        assert main(["build", "--k", "x"]) == 1
        assert "argument --k: bad value for 'k': 'x'" in capsys.readouterr().err
        assert set(flagged_parsers) == {"fofe-wsd build"}

    def test_argv_defaults_to_sys_argv(self, monkeypatch, capsys, flagged_parsers, subparsers):
        argv = ["predict", "--k", "x"]
        outcomes = [(main(argv), capsys.readouterr(), set(flagged_parsers), list(subparsers))]
        flagged_parsers.clear()
        subparsers.clear()
        monkeypatch.setattr(sys, "argv", ["fofe-wsd", *argv])
        outcomes.append((main(), capsys.readouterr(), set(flagged_parsers), list(subparsers)))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][2:] == ({"fofe-wsd predict"}, ["predict"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param([], "the following arguments are required: command", id="no-arguments"),
            pytest.param(
                ["bogus"],
                "argument command: invalid choice: 'bogus' "
                "(choose from 'encode', 'train', 'build', 'predict', 'eval', 'gen-synthetic')",
                id="bogus",
            ),
            pytest.param(["build", "--bogus"], "unrecognized arguments: --bogus", id="build --bogus"),
            pytest.param(
                ["build", "-c", "x", "extra", "--bogus"],
                "unrecognized arguments: extra --bogus",
                id="build -c x extra --bogus",
            ),
        ],
    )
    def test_top_level_error_text(self, monkeypatch, capsys, argv, message):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n{USAGE}")

    def test_help_before_a_command_lists_every_command(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(["--help", "build"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(USAGE)
        for name, (help_text, _, _) in cli._COMMANDS.items():
            assert re.search(rf"^    {re.escape(name)} +{re.escape(help_text)}$", out, re.M), name

    @pytest.mark.parametrize(
        "argv, created",
        [
            pytest.param(["predict", "-c", "{tmp}/missing.conf"], ["predict"], id="predict"),
            pytest.param(
                ["gen-synthetic", "--outdir", "{tmp}/out", "--train-n", "2", "--test-n", "2"],
                ["gen-synthetic"],
                id="gen-synthetic",
            ),
            *(
                pytest.param(argv, list(cli._COMMANDS), id=" ".join(argv) or "no-arguments")
                for argv in ([], ["--help"], ["--help", "build"], ["-x", "build"], ["bogus"])
            ),
        ],
    )
    def test_a_leading_command_creates_only_its_subparser(self, capsys, tmp_path, subparsers, argv, created):
        main([a.format(tmp=tmp_path) for a in argv])
        capsys.readouterr()
        assert subparsers == created

    def test_terminal_size_is_read_once_per_main(self, monkeypatch, capsys, tmp_path):
        # one help width per parser build, not one per flag that add_argument checks
        calls = []
        get_terminal_size = shutil.get_terminal_size

        def spy(*args):
            calls.append(args)
            return get_terminal_size(*args)

        monkeypatch.setattr(shutil, "get_terminal_size", spy)
        for _ in range(2):
            assert main(["predict", "-c", str(tmp_path / "missing.conf"), "--k", "3"]) == 1
        assert "cannot read config file" in capsys.readouterr().err
        assert len(calls) <= 2
