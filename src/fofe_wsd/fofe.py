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
-1: it steps the recursion down the columns, each step on the rows that
hold a token in that column, and a row's slabs are its z after the last
``order`` columns. The network's codes are computed a batch at a time. The
sentences are one flat id array, and an example is a (sentence start,
sentence length, target position) triple, so memory is linear in the
tokens. ``context_ids`` lays the n contexts of a batch out as one (2n, W)
id matrix: the left contexts, then the right contexts reversed, so that
the token next to the target is in the last column. ``encode_contexts``
folds it over the embedding rows; ``contexts_backward`` runs the adjoint
the same way, then adds every token's gradient with ``np.add.at``, in the
order a per-token loop would (example by example, left side before right,
nearest token first). Both therefore give the same floats, bit for bit, as
the recursion run token by token. Their float buffers hold one row of d
per token of the batch's contexts; the id matrix is 2n x W integers. The
vocab-space codes (``encode_left``, ``encode_right``, ``encode_order``)
fold one row over the sequence's distinct ids with an identity embedding.

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
_ADD_AT_TOKENS = 2048  # tokens per np.add.at call in ``contexts_backward``


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
    ``starts[i]`` and has ``lengths[i]`` tokens (else ``ValueError``). Row i
    of the result is the left context of example i and row n + i its right
    context reversed, both left-padded with -1, so the token next to the
    target sits in the last column. At most ``window_cap`` tokens per side
    are kept (0 keeps them all); the width is max(order, longest side).
    """
    tokens, starts, lengths, positions = (
        np.asarray(a, dtype=np.intp) for a in (tokens, starts, lengths, positions)
    )
    sides = np.concatenate([positions, lengths - 1 - positions])
    if sides.min(initial=0) < 0:  # a side is negative only for a position outside its sentence
        i = int(sides.argmin()) % len(positions)
        raise ValueError(f"target index {positions[i]} out of range for {lengths[i]} tokens")
    if window_cap > 0:
        sides = np.minimum(sides, window_cap)
    width = max(order, int(sides.max(initial=0)))
    distance = np.arange(width, 0, -1)  # column c is this many tokens from the target
    targets = starts + positions
    at = np.concatenate([targets[:, None] - distance, targets[:, None] + distance])
    return np.where(distance <= sides[:, None], tokens.take(at, mode="clip"), -1)


def _columns(ids: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The rows of a layout longest side first, and each column's token count.

    Left-padding puts a row's tokens in its last columns, so in this row
    order the tokens of every column are a prefix of the rows.
    """
    by_side = np.argsort(np.count_nonzero(ids < 0, axis=1), kind="stable")
    return by_side, np.count_nonzero(ids >= 0, axis=0).tolist()


def _fold(ids: np.ndarray, cfg: FofeConfig, embeddings: np.ndarray) -> np.ndarray:
    """The slabs of every row of a -1 left-padded layout: (order, rows, d).

    Runs z = alpha * z + e down the columns, on the rows that hold a token
    in that column; a row stays exactly 0 until its tokens start, so every
    row gets the same floats as the recursion over its own tokens, and the
    work is one step per token.
    """
    rows, width = ids.shape
    by_side, active = _columns(ids)
    column_major = ids[by_side].T
    steps = embeddings.take(column_major[column_major >= 0], axis=0)  # one row per token
    z = np.zeros((rows, embeddings.shape[1]))
    slabs = np.empty((cfg.order, rows, embeddings.shape[1]))
    end = 0
    for c, k in enumerate(active):
        z[:k] = cfg.alpha * z[:k] + steps[end : end + k]
        end += k
        if c >= width - cfg.order:
            slabs[c - (width - cfg.order), by_side] = z
    return slabs


def encode_contexts(ids: np.ndarray, cfg: FofeConfig, embeddings: np.ndarray) -> np.ndarray:
    """Context codes of a ``context_ids`` layout; returns (n, 2 * order * d).

    Row i is [left slabs, right slabs] of example i.
    """
    n, dim = ids.shape[0] // 2, embeddings.shape[1]
    slabs = _fold(ids, cfg, embeddings)
    return slabs.reshape(cfg.order, 2, n, dim).transpose(2, 1, 0, 3).reshape(n, 2 * cfg.order * dim)


def contexts_backward(
    ids: np.ndarray, cfg: FofeConfig, grad: np.ndarray, embed_grad: np.ndarray
) -> None:
    """Accumulate d(loss)/d(embeddings) for one ``encode_contexts`` call.

    ``grad`` is the loss gradient w.r.t. the (n, 2 * order * d) codes. The
    codes are linear in the embedding rows, so the adjoint runs column by
    column from the last, on the rows that hold a token in that column:
    lam = alpha * lam, plus the slab gradient in the last ``order`` columns;
    each token's row then receives its lam. ``np.add.at`` adds them example
    by example, the left side before the right, nearest token first: the
    order of a per-token loop, and so the same floats.
    """
    rows, width = ids.shape
    n, dim = rows // 2, embed_grad.shape[1]
    if grad.shape != (n, 2 * cfg.order * dim):
        raise ValueError(f"gradient has shape {grad.shape}, expected ({n}, {2 * cfg.order * dim})")
    if not embed_grad.flags.c_contiguous:
        raise ValueError("the embedding gradient must be C-contiguous")
    by_side, active = _columns(ids)
    slabs = grad.reshape(n, 2, cfg.order, dim).transpose(2, 1, 0, 3).reshape(cfg.order, rows, dim)
    slabs = slabs[:, by_side]
    starts = np.cumsum(active) - active  # where column c's tokens start in ``lams``
    lams = np.empty((sum(active), dim))  # one row per token, laid out as ``steps`` is
    lam = np.zeros((rows, dim))
    for c in range(width - 1, -1, -1):
        k, j = active[c], c - (width - cfg.order)
        lam[:k] = cfg.alpha * lam[:k] + slabs[j, :k] if j >= 0 else cfg.alpha * lam[:k]
        lams[starts[c] : starts[c] + k] = lam[:k]
    rank = np.empty(rows, dtype=np.intp)
    rank[by_side] = np.arange(rows)
    pairs = np.arange(rows).reshape(2, n).T.ravel()  # example by example, left before right
    pair_ids = ids[pairs, ::-1]
    keep = pair_ids >= 0
    token_ids = pair_ids[keep]
    cells = (starts[::-1] + rank[pairs, None])[keep]  # each token's row of ``lams``
    # One flat index per gradient element: np.add.at is several times faster
    # on a 1-D target, and still adds in index order. Chunks bound the index
    # arrays; taken in turn, they keep that order.
    flat_grad = embed_grad.reshape(-1)
    for first in range(0, len(cells), _ADD_AT_TOKENS):
        chunk = slice(first, first + _ADD_AT_TOKENS)
        flat_ids = token_ids[chunk, None] * dim + np.arange(dim)
        np.add.at(flat_grad, flat_ids.ravel(), lams[cells[chunk]].ravel())


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
