"""Micro-averaged scoring of sense predictions against gold labels."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from ._files import write_file
from .corpus import LabeledCorpus
from .errors import DataError


@dataclass
class EvalReport:
    attempted: int
    correct: int
    total: int
    precision: float
    recall: float
    micro_f1: float
    per_lemma: dict[str, tuple[int, int]]  # lemma -> (attempted, correct)


def score(predictions: Mapping[str, str], gold: LabeledCorpus) -> EvalReport:
    """Count a prediction as correct when it is one of the instance's gold keys.

    Precision pools over predicted instances, recall over all gold instances;
    micro F1 is their harmonic mean (0 when nothing was attempted).
    """
    gold_ids = set(gold.ids)
    for instance_id in predictions:
        if instance_id not in gold_ids:
            raise DataError(f"prediction for unknown instance id {instance_id!r}")

    total = len(gold)
    attempted = np.fromiter(map(predictions.__contains__, gold.ids), dtype=bool, count=total)
    code_of = {key: code for code, key in enumerate(gold.keys)}
    predicted = np.fromiter(map(code_of.get, map(predictions.get, gold.ids), itertools.repeat(-1)), np.intp, total)
    counts = np.diff(gold.gold_offsets)
    hits = np.repeat(predicted, counts) == gold.gold  # a gold key matches once at most
    correct = np.repeat(np.arange(total), counts)[hits]
    lemmas = len(gold.lemmas)
    per_attempted = np.bincount(gold.lemma_codes[attempted], minlength=lemmas).tolist()
    per_correct = np.bincount(gold.lemma_codes[correct], minlength=lemmas).tolist()
    n_attempted, n_correct = int(attempted.sum()), len(correct)
    precision = n_correct / n_attempted if n_attempted else 0.0
    recall = n_correct / total if total else 0.0
    micro_f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        attempted=n_attempted,
        correct=n_correct,
        total=total,
        precision=precision,
        recall=recall,
        micro_f1=micro_f1,
        per_lemma=dict(zip(gold.lemmas, zip(per_attempted, per_correct))),
    )


def render_report(report: EvalReport) -> str:
    """TSV text: one global line, then per-lemma lines sorted by lemma."""
    r = report
    lines = [
        f"all\t{r.attempted}\t{r.correct}\t{r.total}"
        f"\t{r.precision:.4f}\t{r.recall:.4f}\t{r.micro_f1:.4f}"
    ]
    for lemma in sorted(report.per_lemma):
        attempted, correct = report.per_lemma[lemma]
        lines.append(f"{lemma}\t{attempted}\t{correct}")
    return "\n".join(lines) + "\n"


def write_report(report: EvalReport, path: str | Path) -> None:
    write_file(path, render_report(report))
