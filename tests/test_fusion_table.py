"""Property tests: the per-split fusion table against the per-episode definitions.

Production builds one ``FusionData`` per split and decodes it in one batch;
the references here rebuild each episode's row from
``assemble_mcq_distributions`` (MCQ) or ``build_final_solution_set`` and
``model_distribution`` (OEQ), and decode it with a one-row ``forward``.
"""
import numpy as np
from hypothesis import assume, given, settings, strategies as st

from fusepool.answers import (
    assemble_mcq_distributions,
    build_final_solution_set,
    model_distribution,
    parsed_answers,
)
from fusepool.evaluation import answers_equal, evaluate_records
from fusepool.fusion import build_fusion_table, build_training_data, forward, init_params

from test_prediction_table import corpora


@st.composite
def fusion_inputs(draw):
    """A random corpus (E >= 0), a member order drawn from its pool, and a K
    no smaller than any member's pass count."""
    corpus = draw(corpora())
    members = draw(st.permutations(corpus.model_ids))
    members = members[: draw(st.integers(1, len(members)))]
    longest = max((len(p) for rec in corpus.records for p in rec.passes.values()), default=0)
    k = draw(st.integers(max(1, longest), longest + 2))
    return corpus, members, k


def reference_row(rec, members, k):
    """(row, active slots, gold slot, slot answers) for one episode, or None
    when it is unusable."""
    if rec.task.is_mcq:
        dists = assemble_mcq_distributions(rec, members, k)
        if dists is None:
            return None
        m = rec.task.num_choices
        return np.concatenate([d.probs for d in dists]), m, rec.ground_truth, list(range(m))
    per_model = {m: parsed_answers(rec, m) for m in members}
    final = build_final_solution_set(per_model, k)
    if len(final) == 0:
        return None
    row = np.zeros(len(members) * k)
    for j, m in enumerate(members):
        probs = model_distribution(per_model[m], final, k).probs
        row[j * k : j * k + len(probs)] = probs
    slot = final.index_of(rec.ground_truth)
    return row, len(final), -1 if slot is None else slot, final.answers


@settings(max_examples=150, deadline=None, database=None)
@given(fusion_inputs())
def test_table_equals_per_episode_construction(inputs):
    corpus, members, k = inputs
    table, unusable = build_fusion_table(corpus.records, members, k)
    refs = [(rec.id, reference_row(rec, members, k)) for rec in corpus.records]
    usable = [(rec_id, ref) for rec_id, ref in refs if ref is not None]
    assert unusable == [rec_id for rec_id, ref in refs if ref is None]
    assert table.episode_ids == [rec_id for rec_id, _ in usable]
    assert len(table.features) == len(usable)
    for i, (_, (row, active, target, answers)) in enumerate(usable):
        assert np.array_equal(table.features[i], row)
        assert table.active[i] == active
        assert table.targets[i] == target
        assert list(table.slot_answers[i]) == list(answers)

    data, skipped = build_training_data(table, unusable)
    kept = table.targets >= 0
    assert data.episode_ids == [i for i, keep in zip(table.episode_ids, kept) if keep]
    assert np.array_equal(data.features, table.features[kept])
    assert skipped == unusable + [i for i, keep in zip(table.episode_ids, kept) if not keep]


@settings(max_examples=150, deadline=None, database=None)
@given(fusion_inputs(), st.integers(0, 2**16))
def test_evaluate_equals_per_episode_forward_decode(inputs, seed):
    corpus, members, k = inputs
    records = corpus.records
    slots = records[0].task.num_choices if records and records[0].task.is_mcq else k
    params = init_params((len(members) * slots, 5, slots), seed=seed)
    task = records[0].task.kind if records else "mcq"
    report = evaluate_records(records, members, params, k, task)

    expected = []
    for rec in records:
        ref = reference_row(rec, members, k)
        if ref is None:
            expected.append(None)
            continue
        row, active, _, answers = ref
        probs = forward(params, row, active=active)
        expected.append(answers[int(np.argmax(probs[:active]))])
    assert [p["predicted"] for p in report.predictions] == expected
    assert [p["correct"] for p in report.predictions] == [
        answers_equal(rec, pred) for rec, pred in zip(records, expected)]
    assert report.n_abstained == expected.count(None)


@settings(max_examples=100, deadline=None, database=None)
@given(fusion_inputs())
def test_permuting_members_permutes_feature_blocks(inputs):
    # MCQ only: an OEQ solution set breaks count ties by member order, so
    # reordering the members may reorder the slots themselves.
    corpus, members, k = inputs
    assume(corpus.records and corpus.records[0].task.is_mcq)
    m = corpus.records[0].task.num_choices
    table, unusable = build_fusion_table(corpus.records, members, k)
    reordered = members[::-1]
    permuted, unusable_p = build_fusion_table(corpus.records, reordered, k)
    assert unusable_p == unusable and permuted.episode_ids == table.episode_ids
    assert np.array_equal(permuted.targets, table.targets)
    for j, member in enumerate(reordered):
        source = members.index(member)
        assert np.array_equal(permuted.features[:, j * m : (j + 1) * m],
                              table.features[:, source * m : (source + 1) * m])
