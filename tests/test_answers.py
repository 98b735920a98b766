import math
import random

import pytest

from fusepool.answers import (
    ChoiceDistribution,
    assemble_mcq_distributions,
    build_final_solution_set,
    canonical_answer,
    model_distribution,
    model_prediction,
    parsed_answers,
    plurality_prediction,
)
from fusepool.corpus import PROB_SUM_TOL, RawPass, _vector_fault

from test_corpus import mcq_record, oeq_record


def ok_pass(parsed, raw=None):
    return RawPass(raw_text=raw if raw is not None else str(parsed), parsed=parsed)


class TestCanonical:
    def test_numeric_formatting(self):
        assert canonical_answer("1,200") == "1200"
        assert canonical_answer("1200.") == "1200"
        assert canonical_answer("$1,200") == "1200"
        assert canonical_answer("42.0") == "42"
        assert canonical_answer("0.50") == "0.5"
        assert canonical_answer(7) == "7"
        assert canonical_answer("1\t200") == "1200"

    def test_text_normalization(self):
        assert canonical_answer("  Solitaire. ") == "solitaire"
        assert canonical_answer("two  words") == "two words"
        assert canonical_answer("Twelve . .") == "twelve"

    def test_distinct_numbers_stay_distinct(self):
        assert canonical_answer("12") != canonical_answer("1200")


class TestFinalSolutionSet:
    def test_worked_example(self):
        final = build_final_solution_set({"A": ["5", "5", "7"], "B": ["7", "9", "9"]}, 3)
        assert final.answers == ["5", "7", "9"]
        assert final.source_counts == {"5": 2, "7": 2, "9": 2}

    def test_single_model_certain(self):
        final = build_final_solution_set({"A": ["8", "8", "8"]}, 3)
        assert final.answers == ["8"]

    def test_k1_keeps_most_frequent(self):
        final = build_final_solution_set({"A": ["3", "9", "9"]}, 1)
        assert final.answers == ["9"]

    def test_empty_when_nothing_parsed(self):
        assert len(build_final_solution_set({"A": [], "B": []}, 5)) == 0

    def test_cap_by_k(self):
        final = build_final_solution_set({"A": ["1", "2", "3", "4"]}, 2)
        assert len(final) == 2

    def test_pass_order_permutation_invariant_with_unique_frequencies(self):
        rng = random.Random(4)
        answers = ["7"] * 5 + ["3"] * 3 + ["9"]
        base = build_final_solution_set({"A": answers}, 3)
        for _ in range(10):
            shuffled = answers[:]
            rng.shuffle(shuffled)
            assert build_final_solution_set({"A": shuffled}, 3).answers == base.answers


class TestModelDistribution:
    def test_worked_example(self):
        final = build_final_solution_set({"A": ["5", "5", "7"], "B": ["7", "9", "9"]}, 3)
        q = model_distribution(["5", "5", "7"], final, 3, model_id="A")
        assert q.probs == pytest.approx([2 / 3, 1 / 3, 0.0])

    def test_out_of_set_answers_give_zeros(self):
        final = build_final_solution_set({"A": ["5"]}, 1)
        q = model_distribution(["8", "9"], final, 2)
        assert q.probs == [0.0]

    def test_missing_passes_divide_by_configured_k(self):
        # 8 of K=10 passes parsed as "42": confidence 0.8, not 1.0
        final = build_final_solution_set({"A": ["42"] * 8}, 10)
        q = model_distribution(["42"] * 8, final, 10)
        assert q.probs == pytest.approx([0.8])

    def test_conservation(self):
        rng = random.Random(9)
        for _ in range(50):
            k = rng.randint(1, 8)
            pool = {
                m: [str(rng.randint(0, 5)) for _ in range(rng.randint(0, k))]
                for m in ("A", "B", "C")
            }
            final = build_final_solution_set(pool, k)
            if not final.answers:
                continue
            for m, answers in pool.items():
                q = model_distribution(answers, final, k)
                total = sum(q.probs)
                assert total <= 1.0 + 1e-9
                in_set = sum(1 for a in answers if final.index_of(a) is not None)
                assert total == pytest.approx(in_set / k)


class TestMcqDistributions:
    def test_provided_probs_pass_through(self):
        rec = mcq_record("r0", probs={"m1": [0.1, 0.6, 0.2, 0.1]})
        dists = assemble_mcq_distributions(rec, ["m1"], k=1)
        assert dists[0].probs == [0.1, 0.6, 0.2, 0.1]

    def test_frequency_over_k_passes(self):
        passes = {"m1": [ok_pass(1)] * 7 + [ok_pass(2)] * 3}
        rec = mcq_record("r0", passes=passes)
        dists = assemble_mcq_distributions(rec, ["m1"], k=10)
        assert dists[0].probs == pytest.approx([0.0, 0.7, 0.3, 0.0])

    def test_zero_parsed_passes_become_uniform(self, caplog):
        passes = {"m1": [RawPass(raw_text="", parsed=None, status="missing")] * 4}
        rec = mcq_record("r0", passes=passes)
        with caplog.at_level("WARNING"):
            dists = assemble_mcq_distributions(rec, ["m1"], k=4)
        assert dists[0].probs == pytest.approx([0.25] * 4)
        assert "uniform" in caplog.text

    def test_partially_parsed_passes_keep_unit_mass(self):
        passes = {"m1": [ok_pass(1)] * 6 + [RawPass(raw_text="", parsed=None, status="missing")] * 4}
        rec = mcq_record("r0", passes=passes)
        dists = assemble_mcq_distributions(rec, ["m1"], k=10)
        assert sum(dists[0].probs) == pytest.approx(1.0)
        assert dists[0].probs[1] == pytest.approx(0.6 + 0.4 / 4)

    def test_member_with_nothing_skips_episode(self, caplog):
        rec = mcq_record("r0", probs={"m1": [0.25, 0.25, 0.25, 0.25]})
        with caplog.at_level("WARNING"):
            assert assemble_mcq_distributions(rec, ["m1", "m2"], k=1) is None
        assert "m2" in caplog.text


class TestChoiceDistribution:
    def test_sum_tolerance_is_the_corpus_one(self):
        # load_corpus accepts a provided vector within PROB_SUM_TOL of 1.
        ChoiceDistribution(model_id="m", probs=[0.25, 0.25, 0.25, 0.2500005])
        with pytest.raises(ValueError, match="m: probabilities sum past 1"):
            ChoiceDistribution(model_id="m", probs=[0.5, 0.5 + 2 * PROB_SUM_TOL])

    def test_accepts_what_the_vector_rule_accepts_on_every_interpreter(self):
        # Added left to right this is 1.000001, within PROB_SUM_TOL of 1. A
        # compensated sum, as the built-in sum of floats is from 3.12, gives
        # 1.0000010000000001 and would refuse it.
        probs = [0.3, 0.2, 1 / 3, 0.16666766666666671]
        assert math.fsum(probs) > 1.0 + PROB_SUM_TOL
        assert _vector_fault(probs, 4) is None
        ChoiceDistribution(model_id="m", probs=probs)


class TestPredictions:
    def test_mcq_modal_choice(self):
        rec = mcq_record("r0", passes={"m1": [ok_pass(2), ok_pass(2), ok_pass(0)]})
        assert model_prediction(rec, "m1") == 2

    def test_mcq_argmax_of_provided_probs(self):
        rec = mcq_record("r0", probs={"m1": [0.1, 0.6, 0.2, 0.1]})
        assert model_prediction(rec, "m1") == 1

    def test_oeq_modal_canonical(self):
        rec = oeq_record("r0", passes={"m1": [ok_pass("1,200"), ok_pass("1200"), ok_pass("57")]})
        assert model_prediction(rec, "m1") == "1200"

    def test_tie_breaks_first_seen(self):
        rec = oeq_record("r0", passes={"m1": [ok_pass("9"), ok_pass("5"), ok_pass("5"), ok_pass("9")]})
        assert model_prediction(rec, "m1") == "9"

    def test_nothing_usable(self):
        rec = oeq_record("r0", passes={"m1": [RawPass(raw_text="", parsed=None, status="missing")]})
        assert model_prediction(rec, "m1") is None

    def test_parsed_answers_are_canonical(self):
        rec = oeq_record("r0", passes={"m1": [ok_pass("$1,200")]})
        assert parsed_answers(rec, "m1") == ["1200"]
        rec = oeq_record("r1", passes={"m1": [ok_pass("1,200"), ok_pass("1200."), ok_pass("12")]})
        assert parsed_answers(rec, "m1") == ["1200", "1200", "12"]

    def test_plurality_majority(self):
        rec = mcq_record("r0", passes={
            "m1": [ok_pass(0)], "m2": [ok_pass(1)], "m3": [ok_pass(1)],
        })
        assert plurality_prediction(rec, ["m1", "m2", "m3"]) == 1

    def test_plurality_tie_goes_to_lowest_index_member(self):
        rec = mcq_record("r0", passes={
            "m1": [ok_pass(3)], "m2": [ok_pass(1)], "m3": [ok_pass(1)], "m4": [ok_pass(3)],
        })
        assert plurality_prediction(rec, ["m1", "m2", "m3", "m4"]) == 3
        assert plurality_prediction(rec, ["m2", "m1", "m3", "m4"]) == 1
