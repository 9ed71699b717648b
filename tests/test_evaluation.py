import numpy as np
import pytest

from fofe_wsd.errors import DataError
from fofe_wsd.evaluation import render_report, score
from labeled import corpus_of


def _gold(instance_id, lemma, senses):
    return instance_id, ["the", lemma], 1, lemma, senses


GOLD4_ROWS = [
    _gold("i1", "bank", {"bank%1"}),
    _gold("i2", "bank", {"bank%2"}),
    _gold("i3", "rose", {"rose%1"}),
    _gold("i4", "rose", {"rose%2"}),
]
GOLD4 = corpus_of(GOLD4_ROWS)


class TestScore:
    def test_three_of_four(self):
        preds = {"i1": "bank%1", "i2": "bank%2", "i3": "rose%1", "i4": "rose%1"}
        report = score(preds, GOLD4)
        assert report.attempted == 4
        assert report.correct == 3
        assert report.precision == report.recall == report.micro_f1 == 0.75

    def test_partial_coverage(self):
        preds = {"i1": "bank%1", "i2": "bank%2"}
        report = score(preds, GOLD4)
        assert report.precision == 1.0
        assert report.recall == 0.5
        assert report.micro_f1 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_multi_gold_membership(self):
        gold = corpus_of([_gold("i1", "w", {"s1", "s2"})])
        assert score({"i1": "s2"}, gold).correct == 1
        assert score({"i1": "s3"}, gold).correct == 0

    def test_unknown_instance_id(self):
        with pytest.raises(DataError, match="unknown instance id"):
            score({"zz": "bank%1"}, GOLD4)

    def test_no_predictions(self):
        report = score({}, GOLD4)
        assert report.attempted == 0
        assert report.precision == 0.0
        assert report.micro_f1 == 0.0

    def test_full_coverage_collapses_to_accuracy(self):
        rng = np.random.default_rng(0)
        rows = [_gold(f"i{j}", f"w{j % 3}", {f"s{j}"}) for j in range(30)]
        preds = {
            instance_id: (next(iter(senses)) if rng.random() < 0.6 else "wrong")
            for instance_id, *_, senses in rows
        }
        report = score(preds, corpus_of(rows))
        accuracy = report.correct / len(rows)
        assert report.precision == report.recall == report.micro_f1 == accuracy

    def test_order_invariance(self):
        preds = {"i1": "bank%1", "i3": "rose%1"}
        a = score(preds, GOLD4)
        b = score(preds, corpus_of(GOLD4_ROWS[::-1]))
        assert (a.precision, a.recall, a.micro_f1) == (b.precision, b.recall, b.micro_f1)

    def test_per_lemma_sums_to_global(self):
        preds = {"i1": "bank%1", "i2": "bank%1", "i4": "rose%2"}
        report = score(preds, GOLD4)
        assert sum(c for _, c in report.per_lemma.values()) == report.correct
        assert sum(a for a, _ in report.per_lemma.values()) == report.attempted


class TestRenderReport:
    def test_layout_and_formatting(self):
        preds = {"i1": "bank%1", "i2": "bank%2"}
        text = render_report(score(preds, GOLD4))
        lines = text.splitlines()
        assert lines[0] == "all\t2\t2\t4\t1.0000\t0.5000\t0.6667"
        assert lines[1] == "bank\t2\t2"
        assert lines[2] == "rose\t0\t0"

    def test_three_of_four_line(self):
        preds = {"i1": "bank%1", "i2": "bank%2", "i3": "rose%1", "i4": "rose%1"}
        text = render_report(score(preds, GOLD4))
        assert text.splitlines()[0] == "all\t4\t3\t4\t0.7500\t0.7500\t0.7500"
