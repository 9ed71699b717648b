"""Fixed-size ordinally forgetting encodings of token sequences.

A sequence of ids w_1..w_T over a vocabulary of size V is folded into a
fixed-dimension vector by the recursion

    z_0 = 0,   z_t = alpha * z_{t-1} + e_t      (1 <= t <= T)

where e_t is the one-hot vector of w_t and 0 < alpha < 1 is the forgetting
factor. Higher orders stack the trailing partial codes
[z_{T-order+1}, ..., z_T]. The same recursion run over embedding rows
instead of one-hot vectors yields the dense code actually fed to the
network; the two agree through the embedding matrix because the code is
linear in the e_t.

All codes come from one fold over a layout of id rows, left-padded with
-1: it steps the recursion down the columns on every row, padding adding a
zero step, so a row stays exactly +0 until its first token; a row's slabs
are its z after the last ``order`` columns. The network's codes are
computed a batch at a time. The sentences are one flat id array, and an
example is a (sentence start, sentence length, target position) triple.
``context_ids`` lays the n contexts of a batch out as one (2n, W) id
matrix in the order of the codes: row 2i holds example i's left context,
row 2i + 1 its right context reversed, so that the token next to the
target is in the last column. ``encode_contexts`` folds it over the
embedding rows; ``contexts_backward`` runs the adjoint back up the columns
of its reversed-column view (where a row's padding comes after its last
token, so those values go unused). Each token's value is the recursion's,
bit for bit; the adjoint adds them with ``np.add.at`` as it goes, nearest
tokens first and, at one distance, in row order. Both take one
block of at most ``_BLOCK_CELLS`` layout cells at a time, so besides 2n x W
integers their float buffers hold a block and a few rows of d per layout
row, however many tokens the batch holds. The vocab-space codes
(``encode_left``, ``encode_right``, ``encode_order``) fold one row over
the sequence's distinct ids with an identity embedding.

For alpha < 0.5 a code is exactly invertible: the residual mass of all
older positions is bounded by alpha/(1-alpha) < 1, so the latest token is
always the unique dominant component. ``decode`` exploits this as a
verification oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import UsageError

_DIRECTIONS = ("left", "right")
_BLOCK_CELLS = 4096  # layout cells per column block of ``_fold`` and ``contexts_backward`` (at least a column)
_SIDES = np.array([-1, 1])[:, None]  # left rows run back from the target, right rows on from it


@dataclass(frozen=True)
class FofeConfig:
    """Forgetting factor and order of the encoding."""

    alpha: float
    order: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise UsageError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.order < 1:
            raise UsageError(f"order must be >= 1, got {self.order}")


def _check_ids(ids: Sequence[int], vocab_size: int) -> None:
    for i in ids:
        if not 0 <= i < vocab_size:
            raise ValueError(f"token id {i} out of range for vocabulary of size {vocab_size}")


def encode_order(
    ids: Sequence[int], cfg: FofeConfig, vocab_size: int, direction: str = "left"
) -> np.ndarray:
    """Stacked trailing codes [z_{T-order+1}, ..., z_T], zero-padded for short T.

    Dimension is ``order * vocab_size`` regardless of sequence length; the
    fold runs over the distinct ids only, so memory is O(T**2 + vocab_size).
    """
    if direction not in _DIRECTIONS:
        raise ValueError(f"direction must be one of {_DIRECTIONS}, got {direction!r}")
    _check_ids(ids, vocab_size)
    seq = np.asarray(ids, dtype=np.intp)
    if direction == "right":
        seq = seq[::-1]
    distinct, local = np.unique(seq, return_inverse=True)
    layout = np.full((1, max(cfg.order, len(seq))), -1, dtype=np.intp)
    layout[0, layout.shape[1] - len(seq) :] = local
    code = np.zeros((cfg.order, vocab_size))
    code[:, distinct] = _fold(layout, cfg, np.eye(len(distinct)))[:, 0]
    return code.reshape(-1)


def encode_left(ids: Sequence[int], alpha: float, vocab_size: int) -> np.ndarray:
    """Vocab-space code of the sequence read left to right."""
    return encode_order(ids, FofeConfig(alpha), vocab_size, "left")


def encode_right(ids: Sequence[int], alpha: float, vocab_size: int) -> np.ndarray:
    """Vocab-space code of the sequence read right to left."""
    return encode_order(ids, FofeConfig(alpha), vocab_size, "right")


def context_ids(
    tokens: np.ndarray,
    starts: np.ndarray,
    lengths: np.ndarray,
    positions: np.ndarray,
    order: int,
    window_cap: int = 0,
) -> np.ndarray:
    """Padded batch layout of the contexts of n examples.

    ``tokens`` holds all sentences back to back; example i is the word at
    ``positions[i]``, which must lie inside the sentence that starts at
    ``starts[i]`` and has ``lengths[i]`` tokens (else ``ValueError``). Row
    2i of the result is the left context of example i and row 2i + 1 its
    right context reversed, both left-padded with -1, so the token next to
    the target sits in the last column. At most ``window_cap`` tokens per side
    are kept (0 keeps them all); the width is max(order, longest side).
    """
    tokens, starts, lengths, positions = (np.asarray(a, dtype=np.intp) for a in (tokens, starts, lengths, positions))
    sides = np.concatenate([positions, lengths - 1 - positions]).reshape(2, -1).T  # each example's left, right
    if np.minimum.reduce(sides, axis=None, initial=0) < 0:  # only for a position outside its sentence
        i = int(sides.argmin()) // 2
        raise ValueError(f"target index {positions[i]} out of range for {lengths[i]} tokens")
    longest = int(np.maximum.reduce(sides, axis=None, initial=0))
    if 0 < window_cap < longest:  # a wider cap keeps every token, and may not fit an intp
        np.minimum(sides, window_cap, out=sides)
        longest = window_cap
    width = max(order, longest)
    distance = np.arange(width, 0, -1)  # column c is this many tokens from the target
    at = (starts + positions)[:, None, None] + _SIDES * distance
    return np.where(distance <= sides[..., None], tokens.take(at, mode="clip"), -1).reshape(-1, width)


def _fold(ids: np.ndarray, cfg: FofeConfig, embeddings: np.ndarray) -> np.ndarray:
    """The slabs of every row of a -1 left-padded layout: (order, rows, d), in the embeddings' dtype.

    Runs z = alpha * z + e down the columns on every row, e = 0 on padding:
    a row stays +0 until its first token, so it gets the recursion's floats.
    """
    (rows, width), dim = ids.shape, embeddings.shape[1]
    z = np.zeros((rows, dim), embeddings.dtype)
    slabs = np.empty((cfg.order, rows, dim), embeddings.dtype)
    alpha = float(cfg.alpha)  # a Python float keeps float32 arithmetic in float32
    step = max(1, _BLOCK_CELLS // max(rows, 1))  # columns per block
    for first in range(0, width, step):
        block = ids[:, first : first + step].T
        held = block >= 0
        steps = np.zeros((*block.shape, dim), embeddings.dtype)
        steps[held] = embeddings.take(block[held], axis=0)
        for c, e in enumerate(steps, first - (width - cfg.order)):  # from c = 0 on, z is slab c
            z = np.multiply(z, alpha, out=slabs[c] if c >= 0 else z)
            z += e
    return slabs


def encode_contexts(ids: np.ndarray, cfg: FofeConfig, embeddings: np.ndarray) -> np.ndarray:
    """Context codes of a ``context_ids`` layout; returns (n, 2 * order * d).

    Row i is [left slabs, right slabs] of example i, the slabs of layout rows 2i and 2i + 1.
    """
    slabs = _fold(ids, cfg, embeddings)  # (order, rows, d), so that the fold writes whole rows of z
    return slabs.transpose(1, 0, 2).reshape(ids.shape[0] // 2, 2 * cfg.order * embeddings.shape[1])


def contexts_backward(
    ids: np.ndarray, cfg: FofeConfig, grad: np.ndarray, embed_grad: np.ndarray
) -> None:
    """Accumulate d(loss)/d(embeddings) for one ``encode_contexts`` call.

    ``grad`` is the loss gradient w.r.t. the (n, 2 * order * d) codes, which
    are linear in the embedding rows. The adjoint runs column by column from
    the last on every row: lam = alpha * lam, plus the slab gradient in the
    last ``order`` columns. After each column block, one ``np.add.at`` adds
    the block's token values into ``embed_grad``: nearest tokens first and,
    at one distance, example by example, left side before right. That order
    does not depend on the block width.
    """
    rows, width = ids.shape
    n, dim = rows // 2, embed_grad.shape[1]
    if grad.shape != (n, 2 * cfg.order * dim):
        raise ValueError(f"gradient has shape {grad.shape}, expected ({n}, {2 * cfg.order * dim})")
    if not embed_grad.flags.c_contiguous:
        raise ValueError("the embedding gradient must be C-contiguous")
    near_ids = ids[:, ::-1]  # each row's tokens nearest first, then its padding
    slabs = grad.reshape(rows, cfg.order, dim)  # row 2i + side holds that side's slabs of example i
    lam = np.zeros((rows, dim), embed_grad.dtype)
    alpha = float(cfg.alpha)
    # One flat index per gradient element: np.add.at is several times faster
    # on a 1-D target, and still adds in index order.
    flat_grad, columns = embed_grad.reshape(-1), np.arange(dim)
    step = max(1, _BLOCK_CELLS // max(rows, 1))  # columns per block
    for first in range(0, width, step):
        stop = min(first + step, width)
        values = np.empty((stop - first, rows, dim), embed_grad.dtype)
        for k in range(first, stop):  # the tokens k + 1 from their target
            lam = np.multiply(lam, alpha, out=values[k - first])
            if k < cfg.order:
                lam += slabs[:, cfg.order - 1 - k]
        block = near_ids[:, first:stop].T  # nearest column first, each column in row order
        held = block >= 0
        np.add.at(flat_grad, (block[held][:, None] * dim + columns).ravel(), values[held].ravel())
        if stop < width:  # a row with no token left: zero it, not to decay into subnormals
            lam[near_ids[:, stop] < 0] = 0.0


def context_code(
    ids: Sequence[int],
    target_index: int,
    cfg: FofeConfig,
    embeddings: np.ndarray,
    window_cap: int = 0,
) -> np.ndarray:
    """Bidirectional context code for the word at ``target_index``.

    Concatenates the left code of the prefix and the right code of the
    suffix, each cut to ``window_cap`` tokens when it is positive; the
    target word itself is excluded. Dimension ``2 * order * d``. A one-row
    call of ``encode_contexts``.
    """
    _check_ids(ids, embeddings.shape[0])
    layout = context_ids(
        np.asarray(ids, dtype=np.intp), [0], [len(ids)], [target_index], cfg.order, window_cap
    )
    return encode_contexts(layout, cfg, embeddings)[0]


def decode(code: np.ndarray, alpha: float, max_len: int, tol: float = 1e-9) -> list[int]:
    """Recover the exact sequence from a left vocab-space code (alpha < 0.5).

    Walks the code back to front: at step k the latest remaining token is the
    unique component near alpha**k (everything older sums to below
    alpha**(k+1) / (1 - alpha)); emit it, subtract its contribution, continue.
    Thresholds are kept relative to the current scale alpha**k instead of
    rescaling the residual, which would amplify float noise by alpha**-k.
    Stops when the residual is within ``tol`` of zero at the current scale.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"decoding requires 0 < alpha < 0.5, got {alpha}")
    r = np.array(code, dtype=np.float64, copy=True)
    if r.ndim != 1 or not np.all(np.isfinite(r)):
        raise ValueError("not a valid FOFE code")
    # Absolute noise floor: adding 1.0 into a component quantizes older
    # contributions at machine epsilon, so signals below ~64 eps are gone.
    floor = 64.0 * np.finfo(np.float64).eps
    # Pivot cutoff midway between the dominant component (>= scale) and the
    # largest possible non-dominant mass (scale * alpha / (1 - alpha)).
    pivot_frac = 0.5 * (1.0 + alpha / (1.0 - alpha))
    out: list[int] = []
    scale = 1.0
    for _ in range(max_len + 1):
        if np.max(np.abs(r), initial=0.0) <= max(tol * scale, floor):
            return out[::-1]
        if len(out) == max_len:
            raise ValueError(f"code does not terminate within max_len={max_len} tokens")
        pivots = np.flatnonzero(r >= scale * pivot_frac)
        if len(pivots) != 1:
            raise ValueError("not a valid FOFE code")
        token = int(pivots[0])
        out.append(token)
        r[token] -= scale
        scale *= alpha
    raise AssertionError("unreachable")
