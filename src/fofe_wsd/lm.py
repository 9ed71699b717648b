"""Pseudo language model: predict each word from its encoded surroundings.

Training builds a vocabulary over the unlabelled corpus, turns every
sentence position into one example (target word, encoded bidirectional
context), and minimizes mean softmax cross-entropy of target prediction.
After training, the activation of the second-last layer (the held-out
layer) for a target occurrence is its context embedding; the output layer
plays no further role.

Checkpoint format: a ``_files`` container (magic ``FOFE``, version 1, which
frames and checksums it) whose body is alpha f64, order u32, layer dims as a
u32 count plus u32 values, vocabulary as a u32 token count plus
length-prefixed UTF-8 tokens in id order, then the parameter tensors in
``NetworkParams.tensors()`` order (embedding, then each layer's weight and
bias) as f32 row-major arrays each preceded by its u32 rank and dims.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import fofe, nn
from ._files import Reader, container, put_f64, put_str, put_tensor, put_u32, write_container
from .corpus import Vocabulary, build_vocabulary, tokenize_line
from .errors import DataError, NumericalError, UsageError

CHECKPOINT_MAGIC = b"FOFE"
CHECKPOINT_VERSION = 1
_EMBED_BATCH = 256  # contexts per FOFE layer call in ``context_embeddings``
# The LmConfig fields a trained model fixes; the others are run settings.
_ARCHITECTURE = ("fofe", "embed_dim", "hidden_dims", "max_vocab")

# Production-scale reference values: embed_dim 512, hidden (4096, 4096, 4096),
# max_vocab 100_000. The defaults below are desk-scale so the full pipeline
# runs in seconds on one CPU.


@dataclass(frozen=True)
class LmConfig:
    """Architecture plus training settings for the pseudo language model."""

    fofe: fofe.FofeConfig = field(default_factory=lambda: fofe.FofeConfig(alpha=0.7, order=3))
    embed_dim: int = 32
    hidden_dims: tuple[int, ...] = (64, 64)
    max_vocab: int = 100_000
    window_cap: int = 0  # max context tokens per side; 0 = whole sentence
    optimizer: str = "adam"
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.embed_dim < 1 or any(d < 1 for d in self.hidden_dims):
            raise UsageError("all dimensions must be >= 1")
        if self.max_vocab < 2:
            raise UsageError("max_vocab must be at least 2")
        if self.window_cap < 0:
            raise UsageError("window_cap must be >= 0")
        if self.batch_size < 1:
            raise UsageError("batch_size must be >= 1")
        if self.epochs < 0:
            raise UsageError("epochs must be >= 0")
        if self.optimizer not in ("adam", "sgd"):
            raise UsageError(f"optimizer must be 'adam' or 'sgd', got {self.optimizer!r}")
        if not 0 < self.learning_rate < math.inf:
            raise UsageError(f"learning_rate must be positive and finite, got {self.learning_rate}")
        if self.seed < 0:
            raise UsageError(f"seed must be >= 0, got {self.seed}")

    @property
    def input_dim(self) -> int:
        return 2 * self.fofe.order * self.embed_dim

    @property
    def held_out_dim(self) -> int:
        """Width of a context embedding, the held-out layer's activation."""
        return self.hidden_dims[-1] if self.hidden_dims else self.input_dim

    def layer_dims(self, vocab_size: int) -> list[int]:
        return [self.input_dim, *self.hidden_dims, vocab_size]


@dataclass
class LmModel:
    vocab: Vocabulary
    config: LmConfig
    params: nn.NetworkParams


def with_run_settings(model: LmModel, config: LmConfig) -> LmModel:
    """``model`` under ``config`` but for the fields it fixes (``_ARCHITECTURE``); arrays are shared."""
    fixed = {name: getattr(model.config, name) for name in _ARCHITECTURE}
    return LmModel(vocab=model.vocab, config=replace(config, **fixed), params=model.params)


def _concatenate(sentences: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All sentences back to back as one id array, with each one's start and length."""
    lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
    tokens = np.fromiter(
        itertools.chain.from_iterable(sentences), dtype=np.intp, count=int(lengths.sum())
    )
    return tokens, np.cumsum(lengths) - lengths, lengths


def training_examples(
    sentences: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One example per sentence position, as index arrays.

    Returns all sentences back to back as one id array, and for every
    example the start and length of its sentence and its target position,
    sentence by sentence in position order. Memory is linear in the tokens.
    """
    tokens, starts, lengths = _concatenate(sentences)
    starts, lengths = np.repeat(starts, lengths), np.repeat(lengths, lengths)
    return tokens, starts, lengths, np.arange(len(tokens)) - starts


def context_embeddings(
    model: LmModel, contexts: Sequence[tuple[Sequence[str], int]]
) -> Iterator[np.ndarray]:
    """Held-out-layer activation for each (tokens, target index), in order.

    Unknown words map to the unknown id; the target word itself is excluded
    from the context, and the output layer is not evaluated. The contexts
    are encoded ``_EMBED_BATCH`` at a time, which bounds the FOFE layer's
    buffers and the embeddings held at once. Each code then goes through
    ``nn.held_out`` on its own: a batched matrix product need not give the
    floats of a per-row one.
    """
    cfg = model.config
    for first in range(0, len(contexts), _EMBED_BATCH):
        chunk = contexts[first : first + _EMBED_BATCH]
        sentences = [model.vocab.encode(tokens) for tokens, _ in chunk]
        positions = [target_index for _, target_index in chunk]
        tokens, starts, lengths = _concatenate(sentences)
        layout = fofe.context_ids(tokens, starts, lengths, positions, cfg.fofe.order, cfg.window_cap)
        codes = fofe.encode_contexts(layout, cfg.fofe, model.params.embedding)
        for x in codes:
            yield nn.held_out(model.params, x)


def _train_step(
    model: LmModel,
    tokens: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    positions: np.ndarray,
    state: nn.OptimizerState,
) -> float:
    """One update on the examples given as in ``training_examples``."""
    params = model.params
    cfg = model.config.fofe
    ids = fofe.context_ids(tokens, starts, lengths, positions, cfg.order, model.config.window_cap)
    x = fofe.encode_contexts(ids, cfg, params.embedding)
    words = tokens[starts + positions]
    trace = nn.forward(params, x)
    loss = nn.loss_softmax_xent(trace.logits, words)
    grads = nn.backward(params, trace, words)
    fofe.contexts_backward(ids, cfg, grads.input, grads.embedding)
    nn.apply_update(params, grads, state)
    return loss


def train_lm(
    corpus: Iterable[str],
    config: LmConfig,
    *,
    model: LmModel | None = None,
    progress: Callable[[int, float], None] | None = None,
) -> LmModel:
    """Train on unlabelled sentences (one per line), deterministically per seed.

    Pass an existing ``model`` to continue training it (its vocabulary and
    architecture are kept, as in ``with_run_settings``; optimizer moments
    restart). ``progress`` receives (epoch number, mean training loss) once
    per epoch.
    """
    lines = corpus if isinstance(corpus, list) else list(corpus)
    init_seed, shuffle_seed = np.random.SeedSequence(config.seed).spawn(2)
    if model is None:
        vocab = build_vocabulary(lines, config.max_vocab)
        params = nn.init_network(
            config.layer_dims(len(vocab)), init_seed, embed_shape=(len(vocab), config.embed_dim)
        )
        model = LmModel(vocab=vocab, config=config, params=params)
    else:
        model = with_run_settings(model, config)

    tokens, starts, lengths, positions = training_examples(
        [model.vocab.encode(tokenize_line(line)) for line in lines]
    )
    if not len(tokens):
        raise DataError("empty corpus")

    state = nn.OptimizerState(rule=config.optimizer, learning_rate=config.learning_rate)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(tokens))
        epoch_loss = 0.0
        for start in range(0, len(tokens), config.batch_size):
            batch = order[start : start + config.batch_size]
            loss = _train_step(
                model, tokens, starts[batch], lengths[batch], positions[batch], state
            )
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite training loss ({loss}) at epoch {epoch}, "
                    f"batch starting at example {start}; try a smaller learning rate"
                )
            epoch_loss += loss * len(batch)
        if progress is not None:
            progress(epoch, epoch_loss / len(tokens))
    return model


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(model: LmModel, path: str | Path) -> None:
    """Write the model to ``path``; parameters narrow to f32 on disk."""
    out = container(CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    put_f64(out, model.config.fofe.alpha)
    put_u32(out, model.config.fofe.order)
    dims = model.config.layer_dims(len(model.vocab))
    put_u32(out, len(dims), *dims)
    put_u32(out, len(model.vocab))
    for token in model.vocab.tokens:
        put_str(out, token)
    for tensor in model.params.tensors():
        put_tensor(out, tensor)
    write_container(path, out)


def load_checkpoint(path: str | Path) -> LmModel:
    """Read a checkpoint; the file is self-describing (vocab and dims included)."""
    rd = Reader.open(path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION)
    alpha = rd.f64()
    order = rd.u32()
    dims = [rd.u32() for _ in range(rd.u32())]
    tokens = [rd.text() for _ in range(rd.u32())]
    try:
        if len(dims) < 2:
            raise ValueError(f"layer dims {dims}: needs at least two")
        config = LmConfig(
            fofe=fofe.FofeConfig(alpha=alpha, order=order),
            embed_dim=dims[0] // (2 * order),
            hidden_dims=tuple(dims[1:-1]),
            max_vocab=max(len(tokens), 2),
        )
        if config.layer_dims(len(tokens)) != dims:
            raise ValueError(f"layer dims {dims} for order {order} and {len(tokens)} vocabulary tokens")
        vocab = Vocabulary.from_tokens(tokens)
        params = nn.NetworkParams.zeros(dims, (len(tokens), config.embed_dim))
    except (MemoryError, ValueError) as exc:  # MemoryError: dims that no file could hold
        raise rd.corrupt(str(exc)) from exc
    for tensor in params.tensors():
        rd.tensor_into(tensor)
    rd.close()
    return LmModel(vocab=vocab, config=config, params=params)
