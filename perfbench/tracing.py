"""Outside-in tracing: spans around calls into each layer's public functions.

``Tracer.install`` replaces each function in ``WRAPPED`` at the module
attribute its callers resolve (``lm`` calls ``fofe.context_code``, ``wsd``
imported ``context_embedding`` by name, ...) with a wrapper that records a
span (id, parent id, name, start, end) in memory. ``uninstall`` puts the
originals back. A function or module that no longer exists is skipped,
and a function no longer called through the wrapped attribute reads zero
calls; the time it held then shows up as its parent's self time.

The counts in ``COMPUTED`` are derived from argument shapes and file
sizes, not measured.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
import time
from collections import defaultdict

# (module under fofe_wsd, attribute the callers resolve, span name)
WRAPPED = (
    ("fofe", "context_code", "fofe.context_code"),
    ("fofe", "context_backward", "fofe.context_backward"),
    ("nn", "forward", "nn.forward"),
    ("nn", "loss_softmax_xent", "nn.loss_softmax_xent"),
    ("nn", "backward", "nn.backward"),
    ("nn", "apply_update", "nn.apply_update"),
    ("lm", "train_lm", "lm.train_lm"),
    ("lm", "build_vocabulary", "corpus.build_vocabulary"),
    ("lm", "save_checkpoint", "lm.save_checkpoint"),
    ("lm", "load_checkpoint", "lm.load_checkpoint"),
    ("wsd", "context_embedding", "lm.context_embedding"),
    ("wsd", "build_classifier_store", "wsd.build_classifier_store"),
    ("wsd", "predict_with_backoff", "wsd.predict_with_backoff"),
    ("wsd", "predict_knn", "wsd.predict_knn"),
    ("wsd", "save_store", "wsd.save_store"),
    ("wsd", "load_store", "wsd.load_store"),
    ("cli", "read_labeled_corpus", "corpus.read_labeled_corpus"),
    ("cli", "read_sense_inventory", "corpus.read_sense_inventory"),
    ("evaluation", "score", "evaluation.score"),
)


def _tokens_folded(args, out):
    return {"fofe.tokens_folded": len(args[0]) - 1}


def _forward_gflop(args, out):
    params, x = args[0], args[1]
    rows = x.shape[0] if getattr(x, "ndim", 1) == 2 else 1
    macs = sum(w.shape[0] * w.shape[1] for w, _ in params.layers)
    return {"nn.forward.gflop": 2e-9 * rows * macs}


def _update_mb(args, out):
    grads, state = args[1], args[2]
    tensors = [g for pair in grads.layers for g in pair]
    if grads.embedding is not None:
        tensors.append(grads.embedding)
    # Adam reads and writes parameter, gradient and both moments; SGD the first two.
    arrays = 4 if state.rule == "adam" else 2
    return {"nn.apply_update.mb": 1e-6 * arrays * sum(t.nbytes for t in tensors)}


def _pairs_scanned(args, out):
    store, lemma = args[0], args[2]
    return {"wsd.knn.pairs_scanned": len(store.pairs.get(lemma, ()))}


def _file_bytes(key):
    def count(args, out):
        return {key: os.path.getsize(args[1])}
    return count


# Counts derived from argument shapes and file sizes rather than measured.
COMPUTED = (
    "fofe.tokens_folded",
    "nn.forward.gflop",
    "nn.apply_update.mb",
    "wsd.knn.pairs_scanned",
    "lm.checkpoint_bytes",
    "wsd.store_bytes",
)

COUNTERS = {
    "fofe.context_code": _tokens_folded,
    "nn.forward": _forward_gflop,
    "nn.apply_update": _update_mb,
    "wsd.predict_knn": _pairs_scanned,
    "lm.save_checkpoint": _file_bytes("lm.checkpoint_bytes"),
    "wsd.save_store": _file_bytes("wsd.store_bytes"),
}


class Tracer:
    """Spans and computed counts of one traced pipeline pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.counter_errors = 0
        self._stack = [0]
        self._next_id = 0
        self._originals: list[tuple[object, str, object]] = []

    def _open(self) -> tuple[int, int]:
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _close(self, sid: int, parent: int, name: str, t0: float) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans.append((sid, parent, name, t0, t1))

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` under a span called ``name``."""
        sid, parent = self._open()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(sid, parent, name, t0)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if counter is not None:
                # A counter must never change what the program does: one that
                # no longer fits the function's signature is counted, not raised.
                try:
                    for key, value in counter(args, out).items():
                        self.counts[key] += value
                except Exception:
                    self.counter_errors += 1
            return out

        return wrapper

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = sys.modules.get(f"fofe_wsd.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._originals.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def write(self, path) -> None:
        """One ``id parent name start end`` line per span, tab-separated."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{name}\t{t0:.9f}\t{t1:.9f}\n")

    def layer_metrics(self) -> dict[str, float]:
        """calls and self seconds per span name, computed counts, step and
        per-instance latency percentiles, and the ratios with their bases."""
        child = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child[parent] += t1 - t0
        metrics: dict[str, float] = defaultdict(float)
        for _, _, name in WRAPPED:
            metrics[f"{name}.calls"] = 0
            metrics[f"{name}.self_s"] = 0.0
        metrics.update(dict.fromkeys(COMPUTED, 0.0))
        steps: dict[int, list[float]] = defaultdict(list)
        predict_ms: list[float] = []
        for sid, parent, name, t0, t1 in self.spans:
            metrics[f"{name}.calls"] += 1
            metrics[f"{name}.self_s"] += (t1 - t0) - child[sid]
            if name.startswith("cli."):
                metrics[f"{name}.total_s"] += t1 - t0
            if name == "nn.apply_update":
                steps[parent].append(t1)
            elif name == "wsd.predict_with_backoff":
                predict_ms.append(1e3 * (t1 - t0))
        metrics.update(self.counts)
        # Step time: between consecutive optimizer-step returns of one train_lm call.
        step_ms = [1e3 * (b - a) for ends in steps.values() for a, b in zip(ends, ends[1:])]
        for key, samples in (("lm.step_ms", step_ms), ("wsd.predict_ms", predict_ms)):
            metrics[f"{key}.samples"] = len(samples)
            metrics[f"{key}.p50"] = _percentile(samples, 50)
            metrics[f"{key}.p99"] = _percentile(samples, 99)
        instances = metrics["wsd.predict_with_backoff.calls"]
        metrics["wsd.knn_ratio"] = metrics["wsd.predict_knn.calls"] / instances if instances else 0.0
        metrics["trace.spans"] = len(self.spans)
        metrics["trace.counter_errors"] = self.counter_errors
        return dict(metrics)


def _percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]
