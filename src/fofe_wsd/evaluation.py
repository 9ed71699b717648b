"""Micro-averaged scoring of sense predictions against gold labels."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from ._files import write_file
from .corpus import LabeledInstance
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


def score(predictions: Mapping[str, str], gold: Sequence[LabeledInstance]) -> EvalReport:
    """Count a prediction as correct when it is one of the instance's gold keys.

    Precision pools over predicted instances, recall over all gold instances;
    micro F1 is their harmonic mean (0 when nothing was attempted).
    """
    gold_ids = {inst.instance_id for inst in gold}
    for instance_id in predictions:
        if instance_id not in gold_ids:
            raise DataError(f"prediction for unknown instance id {instance_id!r}")

    attempted = 0
    correct = 0
    per_lemma: dict[str, tuple[int, int]] = {}
    for inst in gold:
        la, lc = per_lemma.get(inst.lemma, (0, 0))
        predicted = predictions.get(inst.instance_id)
        if predicted is not None:
            attempted += 1
            la += 1
            if predicted in inst.sense_keys:
                correct += 1
                lc += 1
        per_lemma[inst.lemma] = (la, lc)

    total = len(gold)
    precision = correct / attempted if attempted else 0.0
    recall = correct / total if total else 0.0
    micro_f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return EvalReport(
        attempted=attempted,
        correct=correct,
        total=total,
        precision=precision,
        recall=recall,
        micro_f1=micro_f1,
        per_lemma=per_lemma,
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
