import pytest

from fusepool import fusion
from fusepool.answers import VoteTable
from fusepool.corpus import SplitSpec, split
from fusepool.evaluation import (
    answers_equal,
    evaluate_records,
    plurality_accuracy,
    run_split_protocol,
    single_model_accuracies,
    train_and_score_split,
)
from fusepool.fusion import TrainConfig, init_params
from fusepool.synthetic import (
    complementary_experts,
    correlated_pool,
    oeq_pool,
    separable_confidences,
)

from test_corpus import mcq_record, oeq_record
from test_answers import ok_pass


class TestAnswersEqual:
    def test_mcq_index(self):
        rec = mcq_record("r0", gold=2)
        assert answers_equal(rec, 2)
        assert not answers_equal(rec, 1)

    def test_oeq_canonical(self):
        rec = oeq_record("r0", gold="1,200")
        assert answers_equal(rec, "1200")

    def test_none_is_wrong(self):
        assert not answers_equal(mcq_record("r0"), None)


class TestBaselines:
    def test_single_model_accuracies(self):
        records = [
            mcq_record("r0", gold=0, passes={"a": [ok_pass(0)], "b": [ok_pass(1)]}),
            mcq_record("r1", gold=1, passes={"a": [ok_pass(0)], "b": [ok_pass(1)]}),
        ]
        accs = single_model_accuracies(VoteTable(records, ["a", "b"]))
        assert accs == {"a": 0.5, "b": 0.5}

    def test_plurality_accuracy(self):
        records = [
            mcq_record("r0", gold=1, passes={
                "a": [ok_pass(1)], "b": [ok_pass(1)], "c": [ok_pass(0)],
            }),
            mcq_record("r1", gold=2, passes={
                "a": [ok_pass(0)], "b": [ok_pass(1)], "c": [ok_pass(2)],
            }),
        ]
        # r0: majority 1, correct; r1: tie -> a's 0, wrong
        assert plurality_accuracy(VoteTable(records, ["a", "b", "c"])) == pytest.approx(0.5)


class TestEvaluateRecords:
    def test_report_fields_and_abstention(self):
        records = [
            oeq_record("r0", gold="5", passes={"a": [ok_pass("5")], "b": [ok_pass("5")]}),
            oeq_record("r1", gold="9", passes={"a": [], "b": []}),
        ]
        params = init_params((4, 2), seed=0)
        report = evaluate_records(records, ["a", "b"], params, k=2, task="oeq")
        assert report.n_episodes == 2
        assert report.n_abstained == 1
        rows = {r["id"]: r for r in report.predictions}
        assert rows["r1"]["predicted"] is None and rows["r1"]["correct"] is False
        assert set(rows["r0"]) == {"id", "predicted", "gold", "correct"}

    def test_trained_on_experts_beats_baselines(self, monkeypatch):
        monkeypatch.setattr(fusion, "HIDDEN", (32, 32))
        corpus = complementary_experts(1200, seed=3)
        tr, va, te = split(corpus, SplitSpec(0.7, 0.15, 0.15, seed=0))
        _, report = train_and_score_split(
            tr, va, te, corpus.model_ids, k=1, config=TrainConfig(epochs=60, seed=0),
        )
        best_single = max(report.single_accuracies.values())
        assert report.accuracy >= best_single + 0.05
        assert report.accuracy >= report.plurality_accuracy + 0.05


class TestSplitProtocol:
    def test_fixed_members_protocol(self):
        corpus = separable_confidences(240, seed=5)
        accs = run_split_protocol(
            corpus, members=corpus.model_ids, repeats=2, k=1, seed=1,
            config=TrainConfig(epochs=100, seed=1),
        )
        assert len(accs) == 2
        assert all(a > 0.9 for a in accs)

    def test_protocol_prunes_when_members_not_pinned(self):
        corpus = complementary_experts(300, seed=6)
        accs = run_split_protocol(
            corpus, members=None, repeats=1, k=1, seed=2,
            config=TrainConfig(epochs=30, seed=2),
        )
        assert len(accs) == 1

    def test_protocol_prunes_a_pool_too_large_for_exact_search(self, caplog):
        corpus = correlated_pool(24, 300, seed=1)
        with caplog.at_level("INFO"):
            accs = run_split_protocol(
                corpus, members=None, repeats=1, k=1, seed=0,
                config=TrainConfig(epochs=5, seed=0),
            )
        assert len(accs) == 1
        assert "GA stopped" in caplog.text

    def test_oeq_protocol_runs(self):
        corpus = oeq_pool(3, 200, k=5, seed=7)
        accs = run_split_protocol(
            corpus, members=corpus.model_ids, repeats=1, k=5, seed=3,
            config=TrainConfig(epochs=25, seed=3),
        )
        # plurality over 3 reliable solvers is strong; fusion should be too
        assert accs[0] > 0.6
