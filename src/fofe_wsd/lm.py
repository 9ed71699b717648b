"""Pseudo language model: predict each word from its encoded surroundings.

Training builds a vocabulary over the unlabelled corpus, turns every
sentence position into one example (target word, encoded bidirectional
context), and minimizes mean softmax cross-entropy of target prediction.
After training, the activation of the second-last layer (the held-out
layer) for a target occurrence is its context embedding; the output layer
plays no further role. ``context_embeddings`` takes its contexts in the
form ``training_examples`` gives: model-id arrays, not token strings.

A model holds its parameters in float32, the precision the checkpoint
keeps, whether ``train_lm`` trained them or ``load_checkpoint`` read them.
``load_checkpoint`` streams the file's tensors straight into one parameter
buffer, and ``save_checkpoint`` streams them out of it a slice at a time.
``context_embeddings`` runs the network in the parameters' dtype, so for
such a model it is the float32 arithmetic of the training forward pass.

Checkpoint format: a ``_files`` container (magic ``FOFE``, version 2, which
frames it and checksums it with CRC32) whose body is alpha f64, order u32,
layer dims as a u32 count plus u32 values, vocabulary as a u32 token count
plus length-prefixed UTF-8 tokens in id order, then the parameter tensors in
``NetworkParams.tensors()`` order (embedding, then each layer's weight and
bias) as f32 row-major arrays each preceded by its u32 rank and dims. A
model's float32 tensors are stored as they are; wider values from other
callers are rounded to the nearest f32. Any other version, such as
version 1 with its byte-sum checksum, is incompatible.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np

from . import fofe, nn
from ._files import Reader, Writer
from .corpus import Vocabulary, build_vocabulary, tokenize_line
from .errors import DataError, NumericalError, UsageError

CHECKPOINT_MAGIC = b"FOFE"
CHECKPOINT_VERSION = 2
_EMBED_BATCH = 256  # contexts per FOFE layer call in ``context_embeddings``
_TRAIN_DTYPE = np.float32  # the parameters, in training and at rest: the precision the checkpoint keeps
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

    def parameter_count(self, vocab_size: int) -> int:
        """Elements of the embedding and of every layer's weight and bias."""
        dims = self.layer_dims(vocab_size)
        return vocab_size * self.embed_dim + sum((i + 1) * o for i, o in zip(dims, dims[1:]))


@dataclass
class LmModel:
    vocab: Vocabulary
    config: LmConfig
    params: nn.NetworkParams


def with_run_settings(model: LmModel, config: LmConfig) -> LmModel:
    """``model`` under ``config`` but for the fields it fixes (``_ARCHITECTURE``); arrays are shared."""
    fixed = {name: getattr(model.config, name) for name in _ARCHITECTURE}
    return LmModel(vocab=model.vocab, config=replace(config, **fixed), params=model.params)


def training_examples(
    sentences: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One example per sentence position, as index arrays.

    Returns all sentences back to back as one id array, and for every
    example the start and length of its sentence and its target position,
    sentence by sentence in position order. Memory is linear in the tokens.
    """
    lengths = np.fromiter(map(len, sentences), dtype=np.intp, count=len(sentences))
    tokens = np.fromiter(itertools.chain.from_iterable(sentences), dtype=np.intp, count=int(lengths.sum()))
    starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
    return tokens, starts, np.repeat(lengths, lengths), np.arange(len(tokens)) - starts


def context_embeddings(
    model: LmModel, tokens: np.ndarray, starts: np.ndarray, lengths: np.ndarray, positions: np.ndarray
) -> np.ndarray:
    """Held-out-layer activations of the contexts given as in ``training_examples``, one row each.

    ``tokens`` holds model ids; context i is the sentence of ``lengths[i]``
    ids from ``starts[i]``, around the target at ``positions[i]``. Returns
    a ``(len(positions), held_out_dim)`` float32 matrix, the precision the
    store keeps. The target word itself is excluded from the context, and
    the output layer is not evaluated. The contexts go ``_EMBED_BATCH`` at a
    time through the FOFE layer and one ``nn.held_out`` product, which
    bounds the FOFE buffers held at once. Both run in the parameters' dtype,
    so a chunk's rows are ``nn.forward``'s held-out activations of its
    layout, bit for bit. A row may differ in its last bits from a one-row
    product's.
    """
    cfg = model.config
    embeddings = np.empty((len(positions), cfg.held_out_dim), dtype=np.float32)
    for first in range(0, len(positions), _EMBED_BATCH):
        chunk = slice(first, first + _EMBED_BATCH)
        layout = fofe.context_ids(
            tokens, starts[chunk], lengths[chunk], positions[chunk], cfg.fofe.order, cfg.window_cap
        )
        embeddings[chunk] = nn.held_out(model.params, fofe.encode_contexts(layout, cfg.fofe, model.params.embedding))
    return embeddings


def _train_step(
    model: LmModel,
    tokens: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    positions: np.ndarray,
    state: nn.OptimizerState,
    grads: nn.Gradients,
) -> float:
    """One update on the examples given as in ``training_examples``.

    ``grads`` is the run's gradient buffer, its embedding slot zeroed; the
    step zeroes that slot again, so it ends zeroed.
    """
    params = model.params
    cfg = model.config.fofe
    ids = fofe.context_ids(tokens, starts, lengths, positions, cfg.order, model.config.window_cap)
    x = fofe.encode_contexts(ids, cfg, params.embedding)
    words = tokens[starts + positions]
    nn.backward(params, nn.forward(params, x), words, out=grads)
    fofe.contexts_backward(ids, cfg, grads.input, grads.embedding)
    nn.apply_update(params, grads, state)
    grads.embedding.fill(0.0)
    return grads.loss


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
    restart; its arrays are not changed). ``progress`` receives (epoch
    number, mean training loss) once per epoch. Training runs on float32
    parameters, drawn straight into float32 or copied from ``model``, and
    the returned model holds them. A network too large to allocate is a
    ``UsageError``.
    """
    lines = corpus if isinstance(corpus, list) else list(corpus)
    init_seed, shuffle_seed = np.random.SeedSequence(config.seed).spawn(2)
    if model is None:
        vocab = build_vocabulary(lines, config.max_vocab)
        try:
            params = nn.init_network(
                config.layer_dims(len(vocab)), init_seed, (len(vocab), config.embed_dim), _TRAIN_DTYPE
            )
        except (MemoryError, ValueError) as exc:  # ValueError: beyond numpy's size limit
            count = config.parameter_count(len(vocab))
            raise UsageError(f"cannot allocate a network of {count:,} parameters") from exc
        model = LmModel(vocab=vocab, config=config, params=params)
    else:
        model = with_run_settings(model, config)
        model = replace(model, params=model.params.astype(_TRAIN_DTYPE))

    tokens, starts, lengths, positions = training_examples(
        [model.vocab.encode(tokenize_line(line)) for line in lines]
    )
    if not len(tokens):
        raise DataError("empty corpus")
    _fit(model, (tokens, starts, lengths, positions), np.random.default_rng(shuffle_seed), progress)
    return model


def _fit(
    model: LmModel,
    examples: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    shuffle_rng: np.random.Generator,
    progress: Callable[[int, float], None] | None,
) -> None:
    """``model.config.epochs`` epochs of minibatch updates on ``training_examples``, in place."""
    config = model.config
    tokens, starts, lengths, positions = examples
    state = nn.OptimizerState(rule=config.optimizer, learning_rate=config.learning_rate)
    grads = nn.Gradients(np.zeros_like(model.params.flat), model.params.layout)
    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(tokens))
        shuffled = starts[order], lengths[order], positions[order]
        epoch_loss = 0.0
        for start in range(0, len(tokens), config.batch_size):
            batch = [column[start : start + config.batch_size] for column in shuffled]
            loss = _train_step(model, tokens, *batch, state, grads)
            if not math.isfinite(loss):
                raise NumericalError(
                    f"non-finite training loss ({loss}) at epoch {epoch}, "
                    f"batch starting at example {start}; try a smaller learning rate"
                )
            epoch_loss += loss * len(batch[0])
        if progress is not None:
            progress(epoch, epoch_loss / len(tokens))


# ---------------------------------------------------------------------------
# Checkpoint serialization
# ---------------------------------------------------------------------------


def save_checkpoint(model: LmModel, path: str | Path) -> None:
    """Write the model to ``path``; its tensors are stored as f32.

    A model's float32 tensors are written as they are; wider floats from
    other callers are rounded to the nearest f32, and one that is not
    finite as f32 is a ``DataError``, before the file is replaced. The
    tensors are streamed to the file from the parameters' own memory.
    """
    dims = model.config.layer_dims(len(model.vocab))
    with Writer.create(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as wr:
        wr.f64(model.config.fofe.alpha)
        wr.u32(model.config.fofe.order)
        wr.u32(len(dims), *dims)
        wr.u32(len(model.vocab))
        wr.texts(model.vocab.tokens)
        for tensor in model.params.tensors():
            wr.tensor(tensor)


def load_checkpoint(path: str | Path) -> LmModel:
    """Read a checkpoint into float32 tensors; the file is self-describing (vocab and dims included).

    The tensors are read straight into one uninitialised parameter buffer.
    """
    with Reader.open(path, "checkpoint", CHECKPOINT_MAGIC, CHECKPOINT_VERSION) as rd:
        alpha = rd.f64()
        order = rd.u32()
        dims = [rd.u32() for _ in range(rd.u32())]
        tokens = rd.texts(rd.u32())
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
            params = nn.NetworkParams.empty(dims, (len(tokens), config.embed_dim), _TRAIN_DTYPE)
        except (MemoryError, ValueError) as exc:  # MemoryError: dims that no file could hold
            raise rd.corrupt(str(exc)) from exc
        for tensor in params.tensors():
            rd.tensor_into(tensor)
        rd.close()
    return LmModel(vocab=vocab, config=config, params=params)
