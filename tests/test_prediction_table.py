"""Property tests: the coded prediction table against the per-cell definitions.

Production scoring derives failures, plurality votes and single-model
accuracies from one ``VoteTable``; the references here recompute each of
them episode by episode through ``failure_vector``, ``plurality_prediction``
and ``model_prediction``.
"""
import numpy as np
from hypothesis import given, settings, strategies as st

from fusepool.answers import VoteTable, canonical_answer, model_prediction, plurality_prediction
from fusepool.corpus import Corpus, EpisodeRecord, RawPass, TaskKind
from fusepool.diversity import failure_matrix, failure_vector
from fusepool.evaluation import answers_equal, plurality_accuracy, single_model_accuracies
from fusepool.fusion import build_fusion_table
from fusepool.pruning import build_scorer, enumerate_candidates, mask_members

# Surface forms that share canonical answers ("1,200." == "1200" == "$1,200")
# or only look alike ("12" != "1200"), plus free text built from the
# characters the canonical form strips or folds.
OEQ_VARIANTS = ["1200", "1,200.", "$1,200", "1200.0", " 1 200 ", "12", "twelve",
                "Twelve.", "TWELVE . .", "0.50", ".5"]
oeq_answers = st.one_of(st.sampled_from(OEQ_VARIANTS), st.text(alphabet="aB1 .,$\t", max_size=6))


@st.composite
def passes_for(draw, answers):
    """Up to four passes: parsed, ok but unparsed, missing and parse_failed."""
    out = []
    for kind in draw(st.lists(st.sampled_from(["parsed", "parsed", "unparsed", "missing",
                                               "parse_failed"]), max_size=4)):
        if kind == "parsed":
            parsed = draw(answers)
            out.append(RawPass(raw_text=str(parsed), parsed=parsed))
        else:
            status = "ok" if kind == "unparsed" else kind
            out.append(RawPass(raw_text="no answer", status=status))
    return out


@st.composite
def corpora(draw, min_episodes=0):
    n_models = draw(st.integers(2, 5))
    model_ids = [f"m{j}" for j in range(n_models)]
    mcq = draw(st.booleans())
    m = draw(st.integers(2, 4))
    choices = st.integers(0, m - 1)
    records = []
    for i in range(draw(st.integers(min_episodes, 10))):
        passes = {}
        probs = {}
        for model in model_ids:
            if draw(st.booleans()) or not mcq:
                passes[model] = draw(passes_for(choices if mcq else oeq_answers))
            if mcq and draw(st.booleans()):
                # small integer weights make argmax ties common
                weights = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
                weights = weights if any(weights) else [1] * m
                probs[model] = [w / sum(weights) for w in weights]
        records.append(EpisodeRecord(
            id=f"e{i}",
            task=TaskKind.mcq(m) if mcq else TaskKind.oeq(),
            prompt="q",
            ground_truth=draw(choices) if mcq else draw(oeq_answers),
            choices=[f"c{c}" for c in range(m)] if mcq else None,
            passes=passes,
            provided_choice_probs=probs or None,
        ))
    return Corpus(records=records, model_ids=model_ids)


@settings(max_examples=100, deadline=None, database=None)
@given(corpora())
def test_failures_and_baselines_equal_per_cell_definitions(corpus):
    records, model_ids = corpus.records, corpus.model_ids
    table = VoteTable(records, model_ids)
    expected = np.array(
        [[failure_vector(rec, m) for m in model_ids] for rec in records], dtype=bool,
    ).reshape(table.codes.shape)
    assert np.array_equal(table.failed, expected)

    n = len(records)
    plurality_hits = sum(answers_equal(rec, plurality_prediction(rec, model_ids))
                         for rec in records)
    assert plurality_accuracy(table) == (plurality_hits / n if n else 0.0)
    assert single_model_accuracies(table) == {
        m: sum(answers_equal(rec, model_prediction(rec, m)) for rec in records) / n
        if n else 0.0
        for m in model_ids
    }

    if records:
        scorer = build_scorer(corpus, records)
        assert np.array_equal(scorer.failures.rows, failure_matrix(records, model_ids).rows)
        assert scorer.failures.episode_ids == [rec.id for rec in records]


@settings(max_examples=100, deadline=None, database=None)
@given(corpora())
def test_plurality_accuracy_equals_recount_for_every_mask(corpus):
    table = VoteTable(corpus.records, corpus.model_ids)
    n = len(corpus.model_ids)
    for mask in enumerate_candidates(n):
        members = mask_members(mask, corpus.model_ids)
        hits = sum(answers_equal(rec, plurality_prediction(rec, members))
                   for rec in corpus.records)
        recount = hits / len(corpus.records) if corpus.records else 0.0
        assert table.plurality_accuracy([i for i in range(n) if mask >> i & 1]) == recount


@settings(max_examples=200, deadline=None, database=None)
@given(corpora(min_episodes=1).filter(lambda c: c.records[0].task.is_mcq))
def test_mcq_prediction_is_the_argmax_of_its_fusion_block(corpus):
    # Votes and fusion rows read one answer per member: wherever a member's
    # confidence block has a unique maximum, its prediction is that choice.
    k = max([1] + [len(p) for rec in corpus.records for p in rec.passes.values()])
    table, _ = build_fusion_table(corpus.records, corpus.model_ids, k)
    by_id = {rec.id: rec for rec in corpus.records}
    for rec_id, row in zip(table.episode_ids, table.features):
        rec = by_id[rec_id]
        blocks = row.reshape(len(corpus.model_ids), rec.task.num_choices)
        for model, block in zip(corpus.model_ids, blocks):
            if np.count_nonzero(block == block.max()) == 1:
                assert model_prediction(rec, model) == int(np.argmax(block))


def test_provided_vector_tied_maximum_goes_to_the_first_choice():
    rec = EpisodeRecord(id="e0", task=TaskKind.mcq(4), prompt="q", ground_truth=0,
                        choices=["a", "b", "c", "d"],
                        provided_choice_probs={"m": [0.1, 0.4, 0.1, 0.4]})
    assert model_prediction(rec, "m") == 1


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(oeq_answers, st.text()))
def test_canonical_answer_is_a_fixed_point(text):
    once = canonical_answer(text)
    assert canonical_answer(once) == once
