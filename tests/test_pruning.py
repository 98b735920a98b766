import numpy as np
import pytest

from fusepool.diversity import FailureMatrix, failure_matrix
from fusepool.pruning import (
    BRUTE_FORCE_MAX_POOL,
    GA_AUTO_THRESHOLD,
    GA_MAX_GENERATIONS,
    CandidateScorer,
    GaConfig,
    VoteTable,
    brute_force_prune,
    candidate_count,
    diversity_report,
    enumerate_candidates,
    fitness,
    ga_prune,
    mask_bitstring,
    plurality_accuracy_fn,
    search,
    write_candidates_csv,
)
from fusepool.synthetic import correlated_pool

from test_corpus import mcq_record
from test_answers import ok_pass


def random_failures(n_models: int, n_episodes: int = 120, seed: int = 0) -> FailureMatrix:
    rng = np.random.default_rng(seed)
    rows = rng.random((n_episodes, n_models)) < rng.uniform(0.2, 0.6, size=n_models)
    return FailureMatrix(
        rows=rows,
        episode_ids=[f"e{i}" for i in range(n_episodes)],
        model_ids=[f"m{i}" for i in range(n_models)],
    )


class TestEnumeration:
    def test_paper_counts(self):
        assert candidate_count(8) == 247
        assert candidate_count(6) == 57
        assert candidate_count(20) == 1_048_555

    def test_enumeration_matches_count(self):
        for n in (2, 3, 4, 8):
            masks = list(enumerate_candidates(n))
            assert len(masks) == candidate_count(n)
            assert len(set(masks)) == len(masks)
            assert all(m.bit_count() >= 2 for m in masks)

    def test_n4_explicit(self):
        assert sorted(enumerate_candidates(3)) == [3, 5, 6, 7]

    def test_too_small_pool(self):
        with pytest.raises(ValueError):
            candidate_count(1)


class TestFitness:
    def test_paper_default_weights(self):
        assert fitness(0.5, 0.7, 0.6) == pytest.approx(0.58)

    def test_degenerate_weight(self):
        assert fitness(0.37, 0.9, 1.0) == pytest.approx(0.37)

    def test_fixed_point(self):
        assert fitness(0.42, 0.42, 0.3) == pytest.approx(0.42)

    def test_gq_path_uses_diversity_alone(self):
        assert fitness(0.8, None, 0.6) == 0.8

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            fitness(0.5, 0.5, 1.2)


class TestCandidateValAccuracy:
    def make_records(self, votes_per_episode, golds):
        records = []
        for i, (votes, gold) in enumerate(zip(votes_per_episode, golds)):
            passes = {f"m{j}": [ok_pass(v)] for j, v in enumerate(votes)}
            records.append(mcq_record(f"r{i}", gold=gold, passes=passes))
        return records

    def test_unanimous(self):
        records = self.make_records([(1, 1, 1)] * 5, [1] * 5)
        assert VoteTable(records, ["m0", "m1", "m2"]).plurality_accuracy([0, 1, 2]) == 1.0

    def test_outvoted(self):
        records = self.make_records([(1, 2, 2)] * 5, [1] * 5)
        assert VoteTable(records, ["m0", "m1", "m2"]).plurality_accuracy([0, 1, 2]) == 0.0

    def test_hand_counted_mixed_votes(self):
        # 10 episodes, hand-counted plurality with lowest-index tie break:
        votes = [
            (0, 0, 1),  # gold 0 -> plurality 0, correct
            (1, 2, 2),  # gold 2 -> plurality 2, correct
            (0, 1, 2),  # gold 1 -> three-way tie -> m0's 0, wrong
            (3, 3, 3),  # gold 3 -> correct
            (2, 0, 2),  # gold 2 -> correct
            (1, 0, 0),  # gold 1 -> plurality 0, wrong
            (0, 1, 1),  # gold 1 -> correct
            (2, 3, 1),  # gold 0 -> tie -> m0's 2, wrong
            (3, 0, 3),  # gold 3 -> correct
            (1, 1, 2),  # gold 0 -> plurality 1, wrong
        ]
        golds = [0, 2, 1, 3, 2, 1, 1, 0, 3, 0]
        records = self.make_records(votes, golds)
        assert VoteTable(records, ["m0", "m1", "m2"]).plurality_accuracy([0, 1, 2]) == pytest.approx(0.6)

    def test_vote_table_matches_slow_plurality(self):
        from fusepool.answers import plurality_prediction

        pool = correlated_pool(5, 80, seed=3)
        model_ids = pool.model_ids
        table = VoteTable(pool.records, model_ids)
        for mask in enumerate_candidates(5):
            members = [m for i, m in enumerate(model_ids) if mask >> i & 1]
            slow = sum(
                plurality_prediction(rec, members) == rec.ground_truth
                for rec in pool.records
            ) / len(pool.records)
            fast = table.plurality_accuracy([i for i in range(5) if mask >> i & 1])
            assert fast == pytest.approx(slow)

    def test_gq_records_rejected(self):
        rec = mcq_record("r0")
        rec.task = type(rec.task)("gq")
        with pytest.raises(ValueError):
            VoteTable([rec], ["m0"])


class TestBruteForce:
    def test_exact_against_independent_resort(self):
        failures = random_failures(8, seed=1)
        rng = np.random.default_rng(2)
        accs = {mask: float(rng.random()) for mask in enumerate_candidates(8)}
        scorer = CandidateScorer(failures, lambda masks: [accs[m] for m in masks])
        top = brute_force_prune(scorer, k=5)
        # Oracle: score everything independently and re-sort.
        from fusepool.diversity import focal_diversity

        oracle = []
        for mask in enumerate_candidates(8):
            members = [f"m{i}" for i in range(8) if mask >> i & 1]
            lam = focal_diversity(failures, members)
            fit = 0.6 * lam + 0.4 * accs[mask]
            oracle.append((-fit, mask.bit_count(), mask))
        oracle.sort()
        assert [c.mask for c in top] == [m for _, _, m in oracle[:5]]
        assert top[0].fitness == pytest.approx(-oracle[0][0])

    def test_k_larger_than_pool_returns_all_sorted(self):
        scorer = CandidateScorer(random_failures(4), None)
        ranked = brute_force_prune(scorer, k=10_000)
        assert len(ranked) == candidate_count(4)
        fits = [c.fitness for c in ranked]
        assert fits == sorted(fits, reverse=True)

    def test_dominant_subset_wins(self):
        # m0/m1 never fail together and are always right; the rest always fail.
        records = []
        for i in range(20):
            passes = {
                "m0": [ok_pass(i % 4)],
                "m1": [ok_pass(i % 4)],
                "m2": [ok_pass((i + 1) % 4)],
                "m3": [ok_pass((i + 2) % 4)],
            }
            records.append(mcq_record(f"r{i}", gold=i % 4, passes=passes))
        model_ids = ["m0", "m1", "m2", "m3"]
        failures = failure_matrix(records, model_ids)
        scorer = CandidateScorer(failures, plurality_accuracy_fn(records, model_ids))
        top = brute_force_prune(scorer, k=1)[0]
        assert top.mask == 0b0011
        assert top.val_accuracy == 1.0

    def test_guard_refuses_huge_pools(self):
        failures = random_failures(BRUTE_FORCE_MAX_POOL + 1, n_episodes=5)
        with pytest.raises(ValueError, match="ga_prune"):
            brute_force_prune(CandidateScorer(failures, None), k=1)


class TestGa:
    def test_deterministic_per_seed(self):
        failures = random_failures(8, seed=4)
        results = []
        for _ in range(2):
            scorer = CandidateScorer(failures, None)
            results.append(ga_prune(scorer, GaConfig(seed=9), k=3))
        assert [c.mask for c in results[0].top] == [c.mask for c in results[1].top]
        assert results[0].generations == results[1].generations
        assert results[0].evaluations == results[1].evaluations

    def test_never_beats_brute_force_and_usually_matches(self):
        pool = correlated_pool(8, 100, seed=6)
        failures = failure_matrix(pool.records, pool.model_ids)
        fn = plurality_accuracy_fn(pool.records, pool.model_ids)
        bf = brute_force_prune(CandidateScorer(failures, fn), k=1)[0]
        matches = 0
        for seed in range(20):
            res = ga_prune(CandidateScorer(failures, fn), GaConfig(seed=seed), k=1)
            assert res.top[0].fitness <= bf.fitness + 1e-12
            matches += res.top[0].mask == bf.mask
        assert matches >= 19

    def test_evaluates_fewer_masks_than_brute_force_for_larger_pools(self):
        failures = random_failures(10, seed=7)
        res = ga_prune(CandidateScorer(failures, None), GaConfig(seed=0), k=1)
        assert res.evaluations < candidate_count(10)

    def test_plateau_termination_recorded(self):
        failures = random_failures(6, seed=8)
        config = GaConfig(seed=1, plateau_gens=30)
        res = ga_prune(CandidateScorer(failures, None), config, k=1)
        assert res.plateau_terminated
        assert res.generations < GA_MAX_GENERATIONS

    def test_all_masks_valid_size(self):
        failures = random_failures(7, seed=9)
        scorer = CandidateScorer(failures, None)
        res = ga_prune(scorer, GaConfig(seed=2), k=5)
        assert all(c.size >= 2 for c in res.top)

    def test_population_must_cover_k(self):
        with pytest.raises(ValueError):
            ga_prune(CandidateScorer(random_failures(5), None),
                     GaConfig(population=4), k=10)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population=2)

    def test_trajectory_is_pinned(self):
        # Any change to the search's random draws, its selection, the elite
        # share (0.2) or the per-bit mutation rate (1 / pool size) moves these.
        failures = random_failures(14, seed=11)
        res = ga_prune(CandidateScorer(failures, None), GaConfig(seed=3), k=5)
        assert (res.generations, res.evaluations) == (115, 622)
        assert [c.mask for c in res.top] == [2050, 3074, 3586, 3650, 3906]
        assert res.plateau_terminated


class TestSearch:
    def test_auto_runs_bf_up_to_the_threshold_and_ga_above(self):
        assert GA_AUTO_THRESHOLD == 12
        method, ranked = search(CandidateScorer(random_failures(12, n_episodes=40), None))
        assert method == "bf" and len(ranked) == candidate_count(12)
        scorer = CandidateScorer(random_failures(13, n_episodes=40), None)
        method, ranked = search(scorer, config=GaConfig(seed=0, plateau_gens=10))
        assert method == "ga" and len(ranked) == scorer.evaluations < candidate_count(13)

    def test_ranking_is_the_scorers_and_ga_top_heads_it(self):
        failures = random_failures(9, seed=3)
        scorer = CandidateScorer(failures, None)
        _, ranked = search(scorer, "ga", GaConfig(seed=4))
        assert ranked == scorer.scored()
        fresh = CandidateScorer(failures, None)
        result = ga_prune(fresh, GaConfig(seed=4), k=3)
        assert result.top == ranked[:3]
        assert result.evaluations == len(ranked)

    def test_bf_ranking_matches_brute_force_top(self):
        failures = random_failures(6, seed=5)
        _, ranked = search(CandidateScorer(failures, None), "bf")
        assert ranked[:4] == brute_force_prune(CandidateScorer(failures, None), k=4)

    def test_unknown_method_refused(self):
        with pytest.raises(ValueError, match="unknown search method"):
            search(CandidateScorer(random_failures(4), None), "greedy")

    def test_block_fitness_matches_the_per_mask_rule(self):
        failures = random_failures(7, seed=6)
        rng = np.random.default_rng(7)
        accs = {mask: float(rng.random()) for mask in enumerate_candidates(7)}
        scorer = CandidateScorer(failures, lambda masks: [accs[m] for m in masks], 0.3)
        for c in scorer.score_masks(list(enumerate_candidates(7))):
            assert c.fitness == fitness(c.focal_diversity, c.val_accuracy, 0.3)


class TestReports:
    def test_csv_format(self, tmp_path):
        scorer = CandidateScorer(random_failures(4), None)
        ranked = brute_force_prune(scorer, k=5)
        path = tmp_path / "candidates.csv"
        write_candidates_csv(path, ranked, 4)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "mask,size,lambda,val_accuracy,fitness"
        assert len(lines) == 6
        mask_col = lines[1].split(",")[0]
        assert set(mask_col) <= {"0", "1"} and len(mask_col) == 4

    def test_mask_bitstring_layout(self):
        assert mask_bitstring(0b0101, 4) == "1010"  # bit i printed at position i
        for n in range(1, 13):  # every mask against the per-bit definition
            for mask in range(2**n):
                assert mask_bitstring(mask, n) == "".join(
                    "1" if mask >> i & 1 else "0" for i in range(n))

    def test_diversity_report_correlation_sign(self):
        pool = correlated_pool(6, 200, seed=5)
        failures = failure_matrix(pool.records, pool.model_ids)
        scorer = CandidateScorer(failures,
                                 plurality_accuracy_fn(pool.records, pool.model_ids))
        report = diversity_report(scorer)
        assert len(report.candidates) == candidate_count(6)
        assert report.pearson_rho > 0.0

    def test_memoization(self):
        failures = random_failures(4)
        scorer = CandidateScorer(failures, None)
        first = scorer.score(0b0011)
        assert scorer.score(0b0011) is first
        assert scorer.evaluations == 1
