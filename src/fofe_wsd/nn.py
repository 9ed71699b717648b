"""Minimal fully-connected network kernel: forward, loss, exact backprop,
optimizer step, finite-difference gradient verification.

Arithmetic runs in the parameters' dtype: training passes float32 tensors,
the gradient check and the other callers float64. Hidden layers apply an
affine map followed by a rectifier max(0, x); the final layer is affine
only and produces logits.
Inputs may be a single vector ``(d,)`` or a batch ``(n, d)``; batch losses
and gradients are means over the batch.

``NetworkParams.tensors()`` is the one order of the model's tensors: the
embedding, then each layer's weight and bias. Gradients, optimizer moments,
the gradient check and the checkpoint all follow it.

The Adam step takes the compact form at the end of Section 2 of Kingma & Ba
(ICLR 2015): ``p -= a_t * m / (sqrt(v) + eps_hat)``, with the bias
corrections folded into the scalars ``a_t = lr * sqrt(1 - beta2**t) /
(1 - beta1**t)`` and ``eps_hat = eps * sqrt(1 - beta2**t)``; in exact
arithmetic that is the textbook update. A tensor larger than one
``_ADAM_SLICE_BYTES`` slice runs one slice at a time through two scratch
buffers of its dtype, so that the slices it reads and writes stay in cache.
Each element still gets the same float operations in the same order as the
whole-array expressions smaller tensors take, so the parameters and moments
are the same floats either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# Bytes of one tensor per Adam slice: 32,768 float64 or 65,536 float32
# elements. With the parameter, gradient, both moments and the two scratch
# buffers that is 6 x 256 KiB, within a typical per-core L2 cache.
_ADAM_SLICE_BYTES = 256 << 10


@dataclass
class NetworkParams:
    """Embedding matrix plus the ordered (weight, bias) stack.

    Weights have shape (fan_in, fan_out); the forward pass is ``x @ W + b``.
    ``embedding`` may be empty for networks that take raw input vectors.
    """

    embedding: np.ndarray
    layers: list[tuple[np.ndarray, np.ndarray]]

    @classmethod
    def zeros(cls, layer_dims: list[int], embed_shape: tuple[int, int] = (0, 0)) -> "NetworkParams":
        fans = zip(layer_dims[:-1], layer_dims[1:])
        return cls(np.zeros(embed_shape), [(np.zeros((i, o)), np.zeros(o)) for i, o in fans])

    def tensors(self) -> list[np.ndarray]:
        """The embedding, then each layer's weight and bias: the one order of the model's tensors."""
        return [self.embedding, *(t for layer in self.layers for t in layer)]

    def astype(self, dtype: np.dtype | type) -> "NetworkParams":
        """A copy with every tensor in ``dtype``."""
        return NetworkParams(
            self.embedding.astype(dtype), [(w.astype(dtype), b.astype(dtype)) for w, b in self.layers]
        )

    @property
    def layer_dims(self) -> list[int]:
        if not self.layers:
            return []
        return [self.layers[0][0].shape[0]] + [w.shape[1] for w, _ in self.layers]


@dataclass
class ForwardTrace:
    """Per-layer pre-activations and activations of one forward pass.

    ``activations[0]`` is the input, ``activations[-1]`` the logits; the
    held-out layer is the activation of the second-last layer.
    """

    activations: list[np.ndarray]
    preacts: list[np.ndarray]

    @property
    def logits(self) -> np.ndarray:
        return self.activations[-1]

    @property
    def held_out(self) -> np.ndarray:
        return self.activations[-2]


@dataclass
class Gradients(NetworkParams):
    """Loss gradients mirroring NetworkParams, plus the input gradient."""

    input: np.ndarray


def init_network(
    layer_dims: list[int], seed: int | np.random.SeedSequence, embed_shape: tuple[int, int] | None = None
) -> NetworkParams:
    """Deterministically initialize parameters.

    Weights are uniform in +-sqrt(6 / (fan_in + fan_out)), biases zero,
    embedding rows uniform in +-0.05. The embedding is drawn first, then the
    layers in order, from one seeded generator.
    """
    if len(layer_dims) < 2:
        raise ValueError("need at least input and output dimensions")
    if any(d < 1 for d in layer_dims):
        raise ValueError(f"layer dimensions must be >= 1, got {layer_dims}")
    params = NetworkParams.zeros(layer_dims, embed_shape or (0, 0))
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
        h = a @ w + b
        preacts.append(h)
        a = h if li == last else np.maximum(h, 0.0)
        activations.append(a)
    return ForwardTrace(activations=activations, preacts=preacts)


def held_out(params: NetworkParams, x: np.ndarray) -> np.ndarray:
    """``forward(params, x).held_out`` without evaluating the output layer."""
    a = _network_input(params, x)
    for w, b in params.layers[:-1]:
        a = np.maximum(a @ w + b, 0.0)
    return a


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-shifted softmax along the last axis."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


def _targets(target: int | np.ndarray, logits: np.ndarray) -> np.ndarray:
    """``target`` as one class index per row of the 2-D ``logits``; a ValueError unless each is a class."""
    targets = np.atleast_1d(np.asarray(target, dtype=np.intp))
    if targets.shape != logits.shape[:-1]:
        raise ValueError(f"targets shape {targets.shape} does not match logits {logits.shape}")
    if targets.min(initial=0) < 0 or targets.max(initial=0) >= logits.shape[-1]:
        raise ValueError("target out of range")
    return targets


def loss_softmax_xent(logits: np.ndarray, target: int | np.ndarray) -> float:
    """-log softmax(logits)[target], via max-shifted log-sum-exp.

    For a batch of logits with a vector of targets, returns the mean; single
    logits are a batch of one.
    """
    logits = np.atleast_2d(np.asarray(logits))
    targets = _targets(target, logits)
    shift = np.max(logits, axis=-1, keepdims=True)
    lse = shift[..., 0] + np.log(np.sum(np.exp(logits - shift), axis=-1))
    picked = np.take_along_axis(logits, targets[..., None], axis=-1)[..., 0]
    return float(np.mean(lse - picked))


def backward(
    params: NetworkParams,
    trace: ForwardTrace,
    target: int | np.ndarray,
    *,
    embedding_grad: np.ndarray | None = None,
) -> Gradients:
    """Exact gradients of ``loss_softmax_xent`` for every layer and the input.

    ``backward`` does not write the embedding slot. It is ``embedding_grad``
    when given, a zeroed buffer of the embedding's shape that the caller
    keeps (training reuses one per run), else a new zeroed array (zero-size
    without an embedding). Callers that built the input from embedding rows
    propagate ``Gradients.input`` into it through that linear map
    themselves.
    """
    single = trace.logits.ndim == 1
    activations = [np.atleast_2d(a) for a in trace.activations]  # a single input as a batch of one
    preacts = [np.atleast_2d(h) for h in trace.preacts]
    targets = _targets(target, activations[-1])
    n = len(targets)

    delta = softmax(activations[-1])
    delta[np.arange(n), targets] -= 1.0
    delta /= n

    layer_grads: list[tuple[np.ndarray, np.ndarray]] = [None] * len(params.layers)  # type: ignore[list-item]
    for li in range(len(params.layers) - 1, -1, -1):
        w, _ = params.layers[li]
        if activations[li].shape[-1] != w.shape[0]:
            raise ValueError("trace does not match parameters (dimension mismatch)")
        layer_grads[li] = (activations[li].T @ delta, delta.sum(axis=0))
        delta = delta @ w.T
        if li > 0:
            delta = delta * (preacts[li - 1] > 0.0)
    input_grad = delta[0] if single else delta
    if embedding_grad is None:
        embedding_grad = np.zeros_like(params.embedding)
    return Gradients(embedding=embedding_grad, layers=layer_grads, input=input_grad)


@dataclass
class OptimizerState:
    """Step rule plus the adaptive rule's moments, in ``NetworkParams.tensors()`` order.

    ``scratch`` holds the two ``_ADAM_SLICE_BYTES`` buffers of the sliced
    Adam step, made in the parameters' dtype when a tensor first needs them.
    """

    rule: str = "adam"  # "adam" or "sgd"
    learning_rate: float = 1e-3
    step: int = 0
    m: list[np.ndarray] | None = field(default=None, repr=False)
    v: list[np.ndarray] | None = field(default=None, repr=False)
    scratch: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.rule not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer rule {self.rule!r}")


def apply_update(params: NetworkParams, grads: Gradients, state: OptimizerState) -> None:
    """Apply one optimizer step in place. Must not run concurrently."""
    tensors, grad_tensors = params.tensors(), grads.tensors()
    shapes, grad_shapes = [p.shape for p in tensors], [g.shape for g in grad_tensors]
    if grad_shapes != shapes:
        raise ValueError(f"gradient shape mismatch: {grad_shapes} for parameters {shapes}")
    state.step += 1
    # Python floats: a numpy float64 scalar would make every in-place float32
    # operation below compute in float64 (NEP 50), at twice the cost.
    lr = float(state.learning_rate)
    if state.rule == "sgd":
        for p, g in zip(tensors, grad_tensors):
            p -= lr * g
        return

    if state.m is None:
        state.m = [np.zeros_like(p) for p in tensors]
        state.v = [np.zeros_like(p) for p in tensors]
    root_c2 = math.sqrt(1.0 - ADAM_BETA2**state.step)
    a_t = lr * root_c2 / (1.0 - ADAM_BETA1**state.step)
    eps_hat = ADAM_EPS * root_c2
    for p, g, m, v in zip(tensors, grad_tensors, state.m, state.v):
        # Flat views need C order; a tensor in any other order takes the whole-array path.
        if p.nbytes > _ADAM_SLICE_BYTES and all(a.flags.c_contiguous for a in (p, m, v)):
            _adam_sliced(p, g, m, v, a_t, eps_hat, _scratch(state, p.dtype))
            continue
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p -= a_t * m / (np.sqrt(v) + eps_hat)


def _scratch(state: OptimizerState, dtype: np.dtype) -> tuple[np.ndarray, np.ndarray]:
    """The state's two slice buffers, (re)made in ``dtype`` on first use."""
    if state.scratch is None or state.scratch[0].dtype != dtype:
        size = _ADAM_SLICE_BYTES // dtype.itemsize
        state.scratch = (np.empty(size, dtype), np.empty(size, dtype))
    return state.scratch


def _adam_sliced(
    p: np.ndarray,
    g: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    a_t: float,
    eps_hat: float,
    scratch: tuple[np.ndarray, np.ndarray],
) -> None:
    """``apply_update``'s Adam expressions on flat views, one scratch buffer's length at a time.

    The temporaries go to ``scratch`` through ``out=``; each element gets the
    same operations in the same order, so the same floats.
    """
    p, g, m, v = (a.reshape(-1) for a in (p, g, m, v))
    size = len(scratch[0])
    for first in range(0, p.size, size):
        part = slice(first, first + size)
        ps, gs, ms, vs = p[part], g[part], m[part], v[part]
        t, u = scratch[0][: ps.size], scratch[1][: ps.size]
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
