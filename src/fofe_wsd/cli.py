"""Command-line pipeline: encode, train, build, predict, eval, gen-synthetic.

Settings come from a flat ``key = value`` config file (``-c``), overridden
by command-line flags; unknown config keys are errors. Exit codes: 0
success, 1 usage error, 2 data error, 3 numerical abort. The only
environment variable is FOFE_WSD_LOG (debug/info/warning/error, any case)
for log verbosity, read on each ``main`` call; any other is a usage error.

``main`` builds only the parser its arguments can reach. When the first one
names a subcommand, the parser holds that one subparser with its flags: the
only top-level message argparse can then print is "unrecognized arguments"
with the usage line, which the subparsers' metavar keeps listing all six.
Any other argument list (none, ``-h`` or ``--help`` first, an unknown command,
an option or ``--`` before the command) gets all six subparsers with their
flags and no metavar, as a metavar would replace ``command`` in the
"required" and "invalid choice" errors.
"""

from __future__ import annotations

import argparse
import logging
import os
import shutil
import sys
from dataclasses import fields, is_dataclass, replace
from functools import partial
from typing import Callable, Collection, Iterator, get_type_hints

import numpy as np

from . import evaluation, fofe, lm, synthetic, wsd
from ._files import read_lines, write_file
from .corpus import read_labeled_corpus, read_sense_inventory, tokenize_line
from .errors import DataError, NumericalError, UsageError

log = logging.getLogger("fofe_wsd")
_LOG_LEVELS = ("debug", "info", "warning", "error")


def _parse_hidden_dims(text: str) -> tuple[int, ...]:
    """Comma-separated integers, or nothing for no hidden layer; raises ValueError on anything else."""
    return tuple(int(p) for p in text.split(",")) if text.strip() else ()


def _setting_parsers(cls: type) -> dict[str, Callable[[str], object]]:
    """Setting name -> value parser for each scalar field of a config dataclass."""
    hints = get_type_hints(cls)
    return {
        f.name: _parse_hidden_dims if hints[f.name] == tuple[int, ...] else hints[f.name]
        for f in fields(cls)
        if not is_dataclass(hints[f.name])
    }


# The library dataclasses are the schema: their fields are the config keys
# and flags, their defaults the defaults, their __post_init__ the validation.
_FOFE_SETTINGS = _setting_parsers(fofe.FofeConfig)
_LM_SETTINGS = _setting_parsers(lm.LmConfig)
_CLASSIFIER_SETTINGS = _setting_parsers(wsd.ClassifierConfig)
_PATH_KEYS = ("corpus", "train", "test", "inventory", "checkpoint", "store", "predictions", "report")
_VALUE_PARSERS = {**_FOFE_SETTINGS, **_LM_SETTINGS, **_CLASSIFIER_SETTINGS, **dict.fromkeys(_PATH_KEYS, str)}


def _bad_value(key: str, value: str) -> str:
    """The one wording for a setting value its parser rejects, from a config file or a flag."""
    return f"bad value for {key!r}: {value!r}"


def _read_config_file(path: str) -> dict:
    try:
        lines = list(read_lines(path, "config file"))
    except DataError as exc:
        raise UsageError(str(exc)) from exc
    values: dict = {}
    set_on: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}: malformed config line {lineno}: {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _VALUE_PARSERS:
            raise UsageError(f"{path}: unknown config key {key!r} (line {lineno})")
        if key in set_on:
            raise UsageError(f"{path}: config key {key!r} set twice (lines {set_on[key]} and {lineno})")
        set_on[key] = lineno
        try:
            values[key] = _VALUE_PARSERS[key](value)
        except ValueError:
            raise UsageError(f"{path}: {_bad_value(key, value)} (line {lineno})")
    return values


def _given(values: dict, keys) -> dict:
    """The entries of ``values`` under ``keys`` that are set (not None)."""
    return {key: values[key] for key in keys if values.get(key) is not None}


def _run_config(
    args: argparse.Namespace,
) -> tuple[lm.LmConfig, wsd.ClassifierConfig, dict[str, str]]:
    """Library defaults, overridden by the config file, then by flags."""
    values = _read_config_file(args.config) if args.config else {}
    values.update(_given(vars(args), _VALUE_PARSERS))
    defaults = lm.LmConfig()
    lm_config = replace(
        defaults,
        fofe=replace(defaults.fofe, **_given(values, _FOFE_SETTINGS)),
        **_given(values, _LM_SETTINGS),
    )
    classifier_config = replace(wsd.ClassifierConfig(), **_given(values, _CLASSIFIER_SETTINGS))
    return lm_config, classifier_config, _given(values, _PATH_KEYS)


def _require(paths: dict[str, str], *names: str) -> list[str]:
    """The named paths in order; a UsageError lists every one that is unset."""
    missing = [n for n in names if n not in paths]
    if missing:
        raise UsageError(
            "missing required path setting(s): " + ", ".join(missing)
            + " (set in the config file or with --" + ", --".join(missing) + ")"
        )
    return [paths[n] for n in names]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_encode(args: argparse.Namespace) -> int:
    # Defaults: the language model's forgetting factor, at FofeConfig's default order.
    defaults = fofe.FofeConfig(alpha=lm.LmConfig().fofe.alpha)
    cfg = replace(defaults, **_given(vars(args), _FOFE_SETTINGS))
    tokens = tokenize_line(args.tokens)
    index = {token: i for i, token in enumerate(sorted(set(tokens)))}
    ids = [index[t] for t in tokens]
    try:
        code = fofe.encode_order(ids, cfg, len(index), args.direction)
    except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
        raise UsageError(f"cannot allocate a code of order {cfg.order:,}") from exc
    print(" ".join(f"{v:.12g}" for v in code))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    lm_config, _, paths = _run_config(args)
    corpus, checkpoint = _require(paths, "corpus", "checkpoint")
    lines = list(read_lines(corpus, "corpus"))
    model, log_lines = None, []
    epoch_log = checkpoint + ".log"
    if args.resume:
        model = lm.load_checkpoint(checkpoint)
        log.info("resuming from %s (vocabulary %d)", checkpoint, len(model.vocab))
        if os.path.exists(epoch_log):
            log_lines = list(read_lines(epoch_log, "training log"))
        log_lines.append("# resumed")

    def progress(epoch: int, mean_loss: float) -> None:
        log_lines.append(f"{epoch}\t{mean_loss:.6f}")
        log.info("epoch %d mean loss %.6f", epoch, mean_loss)

    model = lm.train_lm(lines, lm_config, model=model, progress=progress)
    lm.save_checkpoint(model, checkpoint)
    write_file(epoch_log, "".join(line + "\n" for line in log_lines))
    print(f"checkpoint written to {checkpoint} (vocabulary {len(model.vocab)})")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    lm_config, _, paths = _run_config(args)
    checkpoint, train, inventory_path, store_path = _require(
        paths, "checkpoint", "train", "inventory", "store"
    )
    model = lm.with_run_settings(lm.load_checkpoint(checkpoint), lm_config)
    inventory = read_sense_inventory(inventory_path)
    corpus = read_labeled_corpus(train)
    if not len(corpus):
        log.warning("labeled corpus %s has no instances; writing an empty store", train)
    store = wsd.stream_classifier_store(model, corpus, inventory)
    if log.isEnabledFor(logging.INFO):  # the sense counts are work, not just formatting
        store = store._replace(blocks=_logged_sense_counts(store.blocks))
    wsd.save_store(store, store_path)
    print(f"classifier store written to {store_path} ({store.n_lemmas} lemmas)")
    return 0


def _logged_sense_counts(blocks: Iterator[wsd.LemmaBlock]) -> Iterator[wsd.LemmaBlock]:
    """``blocks``, each logged at info level with its pair count per sense key as it passes."""
    for block in blocks:
        counts = np.bincount(block.codes, minlength=len(block.keys)).tolist()
        per_key = sorted(zip(block.keys, counts))
        log.info("lemma %s: %d pairs (%s)", block.lemma, len(block.codes), ", ".join(f"{key}={n}" for key, n in per_key))
        yield block


def _cmd_predict(args: argparse.Namespace) -> int:
    lm_config, classifier_config, paths = _run_config(args)
    checkpoint, store_path, test, inventory_path, predictions = _require(
        paths, "checkpoint", "store", "test", "inventory", "predictions"
    )
    model = lm.with_run_settings(lm.load_checkpoint(checkpoint), lm_config)
    with wsd.open_store(store_path) as store:  # each lemma's pairs are read as predict_all scores them
        inventory = read_sense_inventory(inventory_path)
        corpus = read_labeled_corpus(test)
        senses = wsd.predict_all(store, inventory, model, classifier_config, corpus)
    rows = list(zip(corpus.ids, senses))
    wsd.write_predictions(rows, predictions)
    print(f"predictions written to {predictions} ({len(rows)} instances)")
    return 0


def _cmd_eval(args: argparse.Namespace) -> int:
    _, _, paths = _run_config(args)
    predictions_path, test, report_path = _require(paths, "predictions", "test", "report")
    predictions = wsd.read_predictions(predictions_path)
    gold = read_labeled_corpus(test)
    report = evaluation.score(predictions, gold)
    evaluation.write_report(report, report_path)
    print(f"micro_f1 {report.micro_f1:.4f}")
    return 0


def _cmd_gen_synthetic(args: argparse.Namespace) -> int:
    config = synthetic.SyntheticConfig(seed=args.seed, n_train=args.train_n, n_test=args.test_n)
    paths = synthetic.generate(args.outdir, config)
    for role, path in paths.items():
        print(f"{role}\t{path}")
    return 0


# ---------------------------------------------------------------------------
# Parser plumbing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{message}\n{self.format_usage().rstrip()}")


def _parse_flag(key: str, parse: Callable[[str], object], text: str) -> object:
    """``parse(text)`` for the flag of setting ``key``: a rejected value reads as in a config file."""
    try:
        return parse(text)
    except ValueError:
        raise argparse.ArgumentTypeError(_bad_value(key, text)) from None


def _add_setting_flags(parser: argparse.ArgumentParser, parsers: dict) -> None:
    for key, parse in parsers.items():
        metavar = "PATH" if key in _PATH_KEYS else None
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, type=partial(_parse_flag, key, parse), metavar=metavar)


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-c", "--config", metavar="FILE", help="key = value settings file")
    _add_setting_flags(parser, _VALUE_PARSERS)


def _add_encode_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tokens", required=True, help="whitespace-separated tokens (may be empty)")
    parser.add_argument("--direction", choices=("left", "right"), default="left")
    _add_setting_flags(parser, _FOFE_SETTINGS)


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    _add_config_flags(parser)
    parser.add_argument("--resume", action="store_true", help="continue from the existing checkpoint")


def _add_gen_synthetic_flags(parser: argparse.ArgumentParser) -> None:
    defaults = synthetic.SyntheticConfig()
    parser.add_argument("--outdir", required=True)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--train-n", dest="train_n", type=int, default=defaults.n_train)
    parser.add_argument("--test-n", dest="test_n", type=int, default=defaults.n_test)


# Subcommand -> (help, handler, flag adder), in the order the top-level help lists them.
_COMMANDS = {
    "encode": ("print the vocab-space code of a token string", _cmd_encode, _add_encode_flags),
    "train": ("train the language model on an unlabelled corpus", _cmd_train, _add_train_flags),
    "build": ("build per-lemma classifiers from a labeled corpus", _cmd_build, _add_config_flags),
    "predict": ("predict senses for a labeled test file", _cmd_predict, _add_config_flags),
    "eval": ("score predictions against gold labels", _cmd_eval, _add_config_flags),
    "gen-synthetic": ("generate a seeded pseudoword benchmark", _cmd_gen_synthetic, _add_gen_synthetic_flags),
}


def _build_parser(commands: Collection[str] = _COMMANDS) -> _Parser:
    """The CLI parser with the subcommands in ``commands`` and their flags."""
    # argparse's own help width, read once: a default HelpFormatter reads the
    # terminal size again for every flag that add_argument checks
    formatter = partial(argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    parser = _Parser(prog="fofe-wsd", description=__doc__.splitlines()[0], formatter_class=formatter)
    # With fewer than six subparsers, the metavar keeps the usage line listing all six.
    # With all six it stays unset: it would replace "command" in the "required" and
    # "invalid choice" errors, which only that parser can print.
    metavar = None if len(commands) == len(_COMMANDS) else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser, metavar=metavar)
    for name in commands:
        help_text, _, add_flags = _COMMANDS[name]
        add_flags(sub.add_parser(name, help=help_text, formatter_class=formatter))
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # after a leading command the one top-level message is "unrecognized
    # arguments" with the usage line, so that command's subparser is enough
    parser = _build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        level = os.environ.get("FOFE_WSD_LOG", "warning")
        if level.lower() not in _LOG_LEVELS:
            raise UsageError(f"FOFE_WSD_LOG must be one of {', '.join(_LOG_LEVELS)}, got {level!r}")
        log.setLevel(level.upper())  # on every call: basicConfig acts only while the root logger has no handler
        logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
        args = parser.parse_args(argv)
        return _COMMANDS[args.command][1](args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except (UsageError, DataError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, UsageError) else 2 if isinstance(exc, DataError) else 3


if __name__ == "__main__":
    sys.exit(main())
