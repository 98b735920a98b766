import itertools
import math

import numpy as np
import pytest

from fusepool.corpus import RawPass
from fusepool.diversity import (
    FailureMatrix,
    failure_matrix,
    failure_vector,
    focal_diversity,
    focal_negative_correlation,
)

from test_corpus import mcq_record, oeq_record
from test_answers import ok_pass


# ---------------------------------------------------------------------------
# Independent oracle: the definition transcribed as plain loops.
# ---------------------------------------------------------------------------

def oracle_rho(rows: list[list[bool]], member_idx: list[int], focal_idx: int) -> float:
    s = len(member_idx)
    focal_rows = [r for r in rows if r[focal_idx]]
    if not focal_rows:
        return 1.0
    n_by_j = {}
    for r in focal_rows:
        j = sum(1 for i in member_idx if r[i])
        n_by_j[j] = n_by_j.get(j, 0) + 1
    p1 = 0.0
    p2 = 0.0
    for j, n in n_by_j.items():
        p = n / len(focal_rows)
        p1 += j / s * p
        p2 += j * (j - 1) / (s * (s - 1)) * p
    rho = 1.0 - p2 / p1
    return min(1.0, max(0.0, rho))


def oracle_lambda(rows, member_idx) -> float:
    return sum(oracle_rho(rows, member_idx, f) for f in member_idx) / len(member_idx)


def matrix_from(rows: list[list[int]]) -> FailureMatrix:
    arr = np.array(rows, dtype=bool)
    return FailureMatrix(
        rows=arr,
        episode_ids=[f"e{i}" for i in range(arr.shape[0])],
        model_ids=[f"m{i}" for i in range(arr.shape[1])],
    )


class TestFailureVector:
    def test_mcq_equality(self):
        rec = mcq_record("r0", gold=1, passes={"m1": [ok_pass(1)]})
        assert failure_vector(rec, "m1") is False

    def test_mcq_inequality(self):
        rec = mcq_record("r0", gold=1, passes={"m1": [ok_pass(3)]})
        assert failure_vector(rec, "m1") is True

    def test_oeq_canonical_equality(self):
        rec = oeq_record("r0", gold="1,200", passes={"m1": [ok_pass("1200")]})
        assert failure_vector(rec, "m1") is False

    def test_gq_unigram_recall_threshold(self):
        gold = " ".join(f"w{i}" for i in range(10))
        rec = oeq_record("r0", gold=gold)
        rec.task = type(rec.task)("gq")
        rec.passes = {"m1": [RawPass(raw_text="w0 w1 w2 and padding text")]}
        assert failure_vector(rec, "m1", tau=0.5) is True
        assert failure_vector(rec, "m1", tau=0.25) is False

    def test_missing_prediction_is_failure(self):
        rec = mcq_record("r0")
        assert failure_vector(rec, "m1") is True


class TestFocalNegativeCorrelation:
    def test_hand_case(self):
        # S=3, focal-failure episodes split 5/3/2 across j=1,2,3 -> p=(.5,.3,.2)
        rows = [[1, 0, 0]] * 5 + [[1, 1, 0]] * 3 + [[1, 1, 1]] * 2
        score = focal_negative_correlation(matrix_from(rows), ["m0", "m1", "m2"], "m0")
        assert score.rho == pytest.approx(0.4706, abs=1e-4)
        assert score.support == 10

    def test_all_fail_together_is_exactly_zero(self):
        f = matrix_from([[1, 1, 1]] * 8)
        for focal in f.model_ids:
            assert focal_negative_correlation(f, f.model_ids, focal).rho == 0.0

    def test_focal_fails_alone_is_exactly_one(self):
        rows = [[1, 0, 0]] * 4 + [[0, 1, 1]] * 4
        score = focal_negative_correlation(matrix_from(rows), ["m0", "m1", "m2"], "m0")
        assert score.rho == 1.0

    def test_never_failing_focal(self):
        rows = [[0, 1, 0]] * 5
        score = focal_negative_correlation(matrix_from(rows), ["m0", "m1", "m2"], "m0")
        assert score.rho == 1.0 and score.support == 0

    def test_focal_must_be_member(self):
        f = matrix_from([[1, 1, 0]])
        with pytest.raises(ValueError):
            focal_negative_correlation(f, ["m0", "m1"], "m2")

    def test_matches_oracle_on_random_matrices(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rows = (rng.random((30, 4)) < 0.4).tolist()
            f = matrix_from(rows)
            for focal_idx in range(4):
                got = focal_negative_correlation(f, f.model_ids, f"m{focal_idx}").rho
                want = oracle_rho(rows, [0, 1, 2, 3], focal_idx)
                assert got == pytest.approx(want, abs=1e-12)


class TestFocalDiversity:
    def test_mean_of_equal_scores(self):
        # one member fails alone on every row it fails: symmetric pattern
        rows = [[1, 1, 0]] * 3 + [[0, 0, 1]] * 3
        f = matrix_from(rows)
        lam = focal_diversity(f, ["m0", "m1"])
        assert lam == focal_negative_correlation(f, ["m0", "m1"], "m0").rho

    def test_disjoint_failures_max_diversity(self):
        rows = [[1, 0]] * 3 + [[0, 1]] * 3
        assert focal_diversity(matrix_from(rows), ["m0", "m1"]) == 1.0

    def test_requires_two_members(self):
        with pytest.raises(ValueError):
            focal_diversity(matrix_from([[1, 1]]), ["m0"])

    def test_oracle_equivalence_over_all_subsets(self):
        rng = np.random.default_rng(12)
        rows = (rng.random((200, 6)) < rng.uniform(0.2, 0.6, size=6)).tolist()
        f = matrix_from(rows)
        for size in range(2, 7):
            for combo in itertools.combinations(range(6), size):
                got = focal_diversity(f, [f"m{i}" for i in combo])
                want = oracle_lambda(rows, list(combo))
                assert math.isclose(got, want, rel_tol=0, abs_tol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        rows = rng.random((40, 5)) < 0.35
        f = matrix_from(rows.tolist())
        members = ["m0", "m2", "m4"]
        base = focal_diversity(f, members)
        assert focal_diversity(f, list(reversed(members))) == pytest.approx(base, abs=1e-15)
        # episode order
        perm = rng.permutation(40)
        f2 = FailureMatrix(rows=rows[perm], episode_ids=[f"e{i}" for i in perm],
                           model_ids=f.model_ids)
        assert focal_diversity(f2, members) == pytest.approx(base, abs=1e-15)

    def test_duplicating_a_model_does_not_increase_diversity(self):
        rng = np.random.default_rng(8)
        for trial in range(10):
            base_rows = rng.random((60, 3)) < 0.4
            # Ensure overlap exists so the duplicate genuinely correlates.
            base_rows[:10] = True
            dup = np.concatenate([base_rows, base_rows[:, :1]], axis=1)
            f3 = matrix_from(base_rows.tolist())
            f4 = matrix_from(dup.tolist())
            lam3 = focal_diversity(f3, ["m0", "m1", "m2"])
            lam4 = focal_diversity(f4, ["m0", "m1", "m2", "m3"])
            assert lam4 <= lam3 + 1e-12


class TestFailureMatrixBuild:
    def test_build_and_export(self, tmp_path):
        records = [
            mcq_record("r0", gold=0, passes={"m1": [ok_pass(0)], "m2": [ok_pass(1)]}),
            mcq_record("r1", gold=2, passes={"m1": [ok_pass(1)], "m2": [ok_pass(2)]}),
        ]
        f = failure_matrix(records, ["m1", "m2"])
        assert f.rows.tolist() == [[False, True], [True, False]]
        path = tmp_path / "failures.csv"
        f.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "episode_id,m1,m2"
        assert lines[1] == "r0,0,1"
        assert lines[2] == "r1,1,0"

    def test_shape_checked(self):
        with pytest.raises(ValueError):
            FailureMatrix(rows=np.ones((2, 2), bool), episode_ids=["a"], model_ids=["m"])
