"""Minimal fully-connected network kernel: forward, loss, exact backprop,
optimizer step, finite-difference gradient verification.

Arithmetic runs in the wider of the input's and the tensors' dtype: the
language model's float32, in training and in its context embeddings alike.
Hidden layers apply an affine map followed by a rectifier max(0, x); the
final layer is affine only and produces logits.
Inputs may be a single vector ``(d,)`` or a batch ``(n, d)``; batch losses
and gradients are means over the batch. A training step's arrays hold a few KB, so
it calls ufuncs, their ``reduce`` and ndarray methods, not wrappers such as ``np.sum``
or ``np.take_along_axis`` that cost more than the arithmetic (same floats).

``NetworkParams.tensors()`` is the one order of the model's tensors: the
embedding, then each layer's weight and bias. A ``NetworkParams`` (and so a
``Gradients``) keeps them back to back in that order in one C-ordered
buffer ``flat`` and carves each tensor from it as a view, once. The
optimizer runs over ``flat``, with one moment array of the same layout
each; the gradient check and the checkpoint walk ``tensors()``.

The Adam step takes the compact form at the end of Section 2 of Kingma & Ba
(ICLR 2015): ``p -= a_t * m / (sqrt(v) + eps_hat)``, with the bias
corrections folded into the scalars ``a_t = lr * sqrt(1 - beta2**t) /
(1 - beta1**t)`` and ``eps_hat = eps * sqrt(1 - beta2**t)``; in exact
arithmetic that is the textbook update. It runs over the flat buffers one
``_ADAM_SLICE_BYTES`` slice at a time through two scratch buffers, so that
the slices it reads and writes stay in cache. Every ``_FLUSH_STEPS`` steps it sets to 0
each first moment below the smallest normal float: one whose gradient stays zero decays
into the subnormals, where x86 arithmetic is many times slower, and sticks there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Bytes of each flat buffer per Adam slice: 32,768 float64 or 65,536 float32
# elements. With the parameter, gradient, both moments and the two scratch
# buffers that is 6 x 256 KiB, within a typical per-core L2 cache.
_ADAM_SLICE_BYTES = 256 << 10
# Adam steps per flush: a moment takes ~150 steps through the float32 subnormals; a flush is 3 passes.
_FLUSH_STEPS = 16


class NetworkParams:
    """Embedding matrix plus the ordered (weight, bias) stack, as views of one buffer.

    Weights have shape (fan_in, fan_out); the forward pass is ``x @ W + b``.
    ``embedding`` may be empty for networks that take raw input vectors.
    ``layout`` holds the shape of each tensor in ``tensors()`` order, and
    ``flat`` the tensors back to back in that order. ``embedding`` and the
    tuple ``layers`` are views carved from ``flat`` at construction, so a
    write to a tensor is a write to ``flat`` and the tensors are not
    replaced. Copies and pickles carve the views again over their own copy.
    """

    def __init__(self, flat: np.ndarray, layout: Sequence[tuple[int, ...]]) -> None:
        self.flat, self.layout = flat, tuple(layout)
        self._carve()

    def _carve(self) -> None:
        views, end = [], 0
        for shape in self.layout:
            start, end = end, end + math.prod(shape)
            views.append(self.flat[start:end].reshape(shape))
        self.embedding = views[0]
        self.layers = tuple(zip(views[1::2], views[2::2]))

    def __getstate__(self) -> dict:
        return {k: v for k, v in vars(self).items() if k not in ("embedding", "layers")}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._carve()

    @classmethod
    def empty(
        cls,
        layer_dims: Sequence[int],
        embed_shape: tuple[int, int] = (0, 0),
        dtype: np.dtype | type = np.float64,
        alloc: Callable[..., np.ndarray] = np.empty,
    ) -> "NetworkParams":
        """Tensors of these shapes in one buffer from ``alloc``: unset by default, for a caller that sets them all."""
        fans = zip(layer_dims[:-1], layer_dims[1:])
        layout = [tuple(embed_shape), *(shape for i, o in fans for shape in ((i, o), (o,)))]
        return cls(alloc(sum(map(math.prod, layout)), dtype), layout)

    @classmethod
    def zeros(
        cls, layer_dims: Sequence[int], embed_shape: tuple[int, int] = (0, 0), dtype: np.dtype | type = np.float64
    ) -> "NetworkParams":
        return cls.empty(layer_dims, embed_shape, dtype, np.zeros)

    def tensors(self) -> list[np.ndarray]:
        """The embedding, then each layer's weight and bias: the one order of the model's tensors."""
        return [self.embedding, *(t for layer in self.layers for t in layer)]

    def astype(self, dtype: np.dtype | type) -> "NetworkParams":
        """A copy with every tensor in ``dtype``."""
        return NetworkParams(self.flat.astype(dtype), self.layout)


@dataclass
class ForwardTrace:
    """Per-layer pre-activations and activations of one forward pass.

    ``activations[0]`` is the input, ``activations[-1]`` the logits and
    ``activations[-2]`` the held-out layer's activation.
    """

    activations: list[np.ndarray]
    preacts: list[np.ndarray]

    @property
    def logits(self) -> np.ndarray:
        return self.activations[-1]


class Gradients(NetworkParams):
    """Loss gradients laid out as NetworkParams, plus ``input``, the network input's gradient, and ``loss``."""

    input: np.ndarray | None = None
    loss: float | None = None


def init_network(
    layer_dims: list[int],
    seed: int | np.random.SeedSequence,
    embed_shape: tuple[int, int] | None = None,
    dtype: np.dtype | type = np.float64,
) -> NetworkParams:
    """Deterministically initialize parameters.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero,
    embedding rows uniform in +-0.05. The embedding is drawn first, then the
    layers in order, from one seeded generator. The draws are float64 in
    any ``dtype``; each is rounded into its tensor as ``astype`` would.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dimensions")
    if any(d < 1 for d in layer_dims):
        raise ValueError(f"layer dimensions must be >= 1, got {layer_dims}")
    params = NetworkParams.zeros(layer_dims, embed_shape or (0, 0), dtype)
    rng = np.random.default_rng(seed)
    params.embedding[...] = rng.uniform(-0.05, 0.05, size=params.embedding.shape)  # (0, 0) draws nothing
    for w, _ in params.layers:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return params


def _network_input(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x)
    if params.layers:
        fan_in = params.layers[0][0].shape[0]
        if x.shape[-1] != fan_in:
            raise ValueError(f"input dimension {x.shape[-1]} does not match first layer ({fan_in})")
    return x


def forward(params: NetworkParams, x: np.ndarray) -> ForwardTrace:
    """Affine + rectifier through the hidden layers, affine logits at the end."""
    x = _network_input(params, x)
    activations = [x]
    preacts = []
    a = x
    last = len(params.layers) - 1
    for li, (w, b) in enumerate(params.layers):
        h = a @ w
        h += b  # in place: w and b share a dtype, so h is as wide as ``a @ w + b``
        preacts.append(h)
        a = h if li == last else np.maximum(h, 0.0)
        activations.append(a)
    return ForwardTrace(activations=activations, preacts=preacts)


def held_out(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """``forward(params, x).activations[-2]`` without evaluating the output layer."""
    a = _network_input(params, x)
    for w, b in params.layers[:-1]:
        a = a @ w
        a += b  # in place, as ``forward`` does: one chunk-sized array per layer
        np.maximum(a, 0.0, out=a)
    return a


def _targets(target: int | np.ndarray, logits: np.ndarray) -> np.ndarray:
    """``target`` as one class index per row of the 2-D ``logits``; a ValueError unless each is a class."""
    targets = np.atleast_1d(np.asarray(target, dtype=np.intp))
    if targets.shape != logits.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    if np.maximum.reduce(targets.view(np.uintp), initial=0) >= logits.shape[-1]:  # unsigned: -1 is large
        raise ValueError("target out of range")
    return targets


def _softmax_xent(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean -log softmax(logits)[targets] of the 2-D ``logits``, and its gradient (softmax - onehot) / n."""
    n, classes = logits.shape
    picks = np.arange(0, n * classes, classes) + targets  # each row's target in the flat logits
    shift = np.maximum.reduce(logits, axis=-1, keepdims=True)
    delta = np.exp(logits - shift)
    total = np.add.reduce(delta, axis=-1, keepdims=True)
    np.divide(delta, total, out=delta)
    delta.reshape(-1)[picks] -= 1.0
    delta /= n
    losses = shift[:, 0] + np.log(total[:, 0]) - logits.reshape(-1)[picks]
    return float(np.add.reduce(losses) / n), delta


def loss_softmax_xent(logits: np.ndarray, target: int | np.ndarray) -> float:
    """-log softmax(logits)[target], via max-shifted log-sum-exp.

    For a batch of logits with a vector of targets, returns the mean; single
    logits are a batch of one.
    """
    logits = np.atleast_2d(np.asarray(logits))
    return _softmax_xent(logits, _targets(target, logits))[0]


def backward(
    params: NetworkParams,
    trace: ForwardTrace,
    target: int | np.ndarray,
    *,
    out: Gradients | None = None,
) -> Gradients:
    """Exact gradients of ``loss_softmax_xent`` for every layer and the input.

    The layer gradients are written into ``out``, a ``Gradients`` of the
    parameters' layout that the caller keeps (training reuses one per run),
    else into a new zeroed one; it is returned with ``input`` and ``loss``
    set, the loss and the output delta from one ``exp`` of the logits. The
    embedding slot is not written. Callers that built the input from
    embedding rows propagate ``Gradients.input`` into it through that
    linear map themselves, and zero it again before the next step.
    """
    single = trace.logits.ndim == 1
    activations, preacts = trace.activations, trace.preacts
    if single:  # a single input as a batch of one
        activations, preacts = [np.atleast_2d(a) for a in activations], [np.atleast_2d(h) for h in preacts]
    if out is None:
        out = Gradients(np.zeros_like(params.flat), params.layout)

    out.loss, delta = _softmax_xent(activations[-1], _targets(target, activations[-1]))
    for li in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[li]
        if activations[li].shape[-1] != w.shape[0]:
            raise ValueError("trace does not match parameters (dimension mismatch)")
        grad_w, grad_b = out.layers[li]
        np.matmul(activations[li].T, delta, out=grad_w)
        np.add.reduce(delta, axis=0, out=grad_b)
        delta = delta @ w.T
        if li > 0:
            delta *= preacts[li - 1] > 0.0
    out.input = delta[0] if single else delta
    return out


@dataclass
class OptimizerState:
    """Step rule plus the adaptive rule's moments, each one array laid out as ``NetworkParams.flat``.

    ``apply_update`` makes the moments on the first Adam step, with
    ``scratch``, the two buffers of one ``_ADAM_SLICE_BYTES`` slice.
    """

    rule: str = "adam"  # "adam" or "sgd"
    learning_rate: float = 1e-3
    step: int = 0
    m: np.ndarray | None = field(default=None, init=False, repr=False)
    v: np.ndarray | None = field(default=None, init=False, repr=False)
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rule not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer rule {self.rule!r}")


def apply_update(params: NetworkParams, grads: Gradients, state: OptimizerState) -> None:
    """Apply one optimizer step in place, over the flat buffers. Must not run concurrently."""
    if grads.layout != params.layout:
        raise ValueError(f"gradient shape mismatch: {grads.layout} for parameters {params.layout}")
    state.step += 1
    # Python floats: a numpy float64 scalar would make every in-place float32
    # operation below compute in float64 (NEP 50), at twice the cost.
    lr = float(state.learning_rate)
    if state.rule == "sgd":
        params.flat -= lr * grads.flat
        return

    p, g = params.flat, grads.flat
    if state.m is None:
        state.m, state.v = np.zeros_like(p), np.zeros_like(p)
        size = _ADAM_SLICE_BYTES // p.itemsize
        state.scratch = (np.empty(size, p.dtype), np.empty(size, p.dtype))
    root_c2 = math.sqrt(1.0 - ADAM_BETA2**state.step)
    a_t = lr * root_c2 / (1.0 - ADAM_BETA1**state.step)
    eps_hat = ADAM_EPS * root_c2
    scratch_t, scratch_u = state.scratch
    flush = state.step % _FLUSH_STEPS == 0
    for first in range(0, p.size, scratch_t.size):
        part = slice(first, first + scratch_t.size)
        ps, gs, ms, vs = p[part], g[part], state.m[part], state.v[part]
        t, u = scratch_t[: ps.size], scratch_u[: ps.size]
        ms *= ADAM_BETA1
        np.multiply(gs, 1.0 - ADAM_BETA1, out=t)
        ms += t
        vs *= ADAM_BETA2
        np.square(gs, out=t)
        t *= 1.0 - ADAM_BETA2
        vs += t
        np.multiply(ms, a_t, out=t)
        np.sqrt(vs, out=u)
        u += eps_hat
        t /= u
        ps -= t
        if flush:
            np.abs(ms, out=t)
            ms[t < np.finfo(p.dtype).tiny] = 0.0


def gradient_check(
    params: NetworkParams, x: np.ndarray, target: int | np.ndarray, epsilon: float = 1e-5
) -> float:
    """Max relative error between backprop and central finite differences.

    Perturbs every layer weight and bias by +-epsilon; the error for one
    entry is |analytic - numeric| / max(|analytic|, |numeric|, 1e-12).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    analytic = backward(params, forward(params, x), target)

    def numeric(arr: np.ndarray, idx: tuple) -> float:
        orig = arr[idx]
        arr[idx] = orig + epsilon
        plus = loss_softmax_xent(forward(params, x).logits, target)
        arr[idx] = orig - epsilon
        minus = loss_softmax_xent(forward(params, x).logits, target)
        arr[idx] = orig
        return (plus - minus) / (2.0 * epsilon)

    worst = 0.0
    # Every tensor but the embedding, which does not enter ``forward(params, x)``.
    for arr, grad in zip(params.tensors()[1:], analytic.tensors()[1:]):
        for idx in np.ndindex(arr.shape):
            n = numeric(arr, idx)
            a = grad[idx]
            rel = abs(a - n) / max(abs(a), abs(n), 1e-12)
            worst = max(worst, rel)
    return worst
