"""Property tests: batched candidate scoring against the per-mask definitions.

``CandidateScorer.score_masks`` takes focal diversity from co-failure counts
and plurality accuracy from vote matmuls over the prediction table. The
references here are ``focal_diversity`` on the team's failure columns and a
recount of ``plurality_prediction`` episode by episode.
"""
from hypothesis import given, settings, strategies as st

from fusepool.answers import plurality_prediction
from fusepool.corpus import Corpus, EpisodeRecord, RawPass, TaskKind
from fusepool.diversity import focal_diversity
from fusepool.evaluation import answers_equal
from fusepool.pruning import build_scorer, enumerate_candidates, mask_members
from fusepool.synthetic import correlated_pool

OEQ_ANSWERS = ["12", "12.0", "$12", "twelve", "Twelve.", "7", "seven"]
NOBODY = "nobody said this"  # an OEQ gold answer outside every model's answers


@st.composite
def pools(draw, n_models, max_episodes):
    """A corpus plus the records to score on, which may be none.

    Some models always answer right (a focal model without failures), some
    episodes have no prediction at all, some golds are an answer nobody
    gave, and some episodes repeat an earlier one's passes under a new id.
    """
    n = draw(n_models)
    model_ids = [f"m{j}" for j in range(n)]
    mcq = draw(st.booleans())
    m = draw(st.integers(2, 4))
    answers = st.integers(0, m - 1) if mcq else st.sampled_from(OEQ_ANSWERS)
    always_right = {j for j in range(n) if draw(st.integers(0, 4)) == 0}
    records = []
    for i in range(draw(st.integers(1, max_episodes))):
        if records and draw(st.integers(0, 4)) == 0:
            twin = draw(st.sampled_from(records))
            records.append(EpisodeRecord(
                id=f"e{i}", task=twin.task, prompt="q", ground_truth=twin.ground_truth,
                choices=twin.choices, passes=twin.passes))
            continue
        silent = draw(st.integers(0, 5)) == 0
        if mcq:
            gold = draw(answers)
        else:
            gold = NOBODY if draw(st.integers(0, 4)) == 0 else draw(answers)
        passes = {}
        for j, model in enumerate(model_ids):
            if silent:
                passes[model] = [RawPass(raw_text="", status="missing")]
            elif j in always_right:
                passes[model] = [RawPass(raw_text=str(gold), parsed=gold)]
            else:
                parsed = draw(st.lists(answers, max_size=3))
                passes[model] = [RawPass(raw_text=str(p), parsed=p) for p in parsed]
        records.append(EpisodeRecord(
            id=f"e{i}",
            task=TaskKind.mcq(m) if mcq else TaskKind.oeq(),
            prompt="q",
            ground_truth=gold,
            choices=[f"c{c}" for c in range(m)] if mcq else None,
            passes=passes,
        ))
    corpus = Corpus(records=records, model_ids=model_ids)
    return corpus, records[: draw(st.integers(0, len(records)))]


def assert_matches_definitions(corpus, scored, masks):
    scorer = build_scorer(corpus, scored)
    candidates = scorer.score_masks(masks)
    for mask, cand in zip(masks, candidates):
        members = mask_members(mask, corpus.model_ids)
        assert cand.mask == mask and cand.size == len(members)
        assert abs(cand.focal_diversity - focal_diversity(scorer.failures, members)) <= 1e-12
        hits = sum(answers_equal(rec, plurality_prediction(rec, members)) for rec in scored)
        assert cand.val_accuracy == (hits / len(scored) if scored else 0.0)
    assert [scorer.score(mask) for mask in masks] == candidates


@settings(max_examples=60, deadline=None, database=None)
@given(pools(st.integers(2, 10), max_episodes=8))
def test_every_mask_matches_the_definitions(pool):
    corpus, scored = pool
    assert_matches_definitions(corpus, scored, list(enumerate_candidates(len(corpus.model_ids))))


# 48 models: the first pool size whose tie-break weights are not exact in
# float64, so accuracy comes from unit vote counts and a first-voter pass.
@settings(max_examples=10, deadline=None, database=None)
@given(pools(st.just(48), max_episodes=12),
       st.lists(st.integers(3, 2**48 - 1).filter(lambda m: m.bit_count() >= 2),
                min_size=1, max_size=30))
def test_large_pools_match_the_definitions(pool, masks):
    corpus, scored = pool
    assert_matches_definitions(corpus, scored, masks + [2**48 - 1, 0b11 << 46])


def test_a_generation_with_repeated_masks_scores_each_once():
    corpus = correlated_pool(5, 40, seed=0)
    scorer = build_scorer(corpus, corpus.records)
    population = [0b11, 0b101, 0b11, 0b11111, 0b101]
    candidates = scorer.score_masks(population)
    assert [c.mask for c in candidates] == population
    assert candidates[0] is candidates[2] and scorer.evaluations == 3
