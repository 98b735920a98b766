"""Property tests: the one answer-counting rule against its direct definition.

Production counts canonical answers with ``Counter.most_common``. The oracle
here is the explicit loop it replaced: rank distinct answers by count,
descending, then by first position. Small alphabets make count ties common,
and member ids come in random order so that model order is not sort order.
"""
from collections import Counter

from hypothesis import given, settings, strategies as st

from fusepool.answers import (
    assemble_mcq_distributions,
    build_final_solution_set,
    canonical_answer,
    model_distribution,
    model_prediction,
    plurality_prediction,
)
from fusepool.corpus import RawPass

from test_corpus import mcq_record, oeq_record

CANONICAL = ["7", "12", "1200", "twelve", "a b"]
# Surface forms whose canonical forms tie or coincide ("1,200." == "1200").
SURFACE = ["7", "7.0", "12", "1,200.", "$1200", "Twelve", "twelve .", "A  b"]


def first_seen_ranking(values):
    """Distinct values by count, descending, then by first position; and the counts."""
    counts: dict = {}
    first_seen: dict = {}
    for position, v in enumerate(values):
        if v not in counts:
            counts[v] = 0
            first_seen[v] = position
        counts[v] += 1
    return sorted(counts, key=lambda v: (-counts[v], first_seen[v])), counts


def mode(values):
    ranking, _ = first_seen_ranking(values)
    return ranking[0] if ranking else None


@st.composite
def pools(draw, answers=st.sampled_from(CANONICAL)):
    """{model id: answers} in a random model order, up to 5 models x 6 passes."""
    ids = draw(st.permutations([f"m{j}" for j in range(draw(st.integers(1, 5)))]))
    return {m: draw(st.lists(answers, max_size=6)) for m in ids}


@st.composite
def episodes(draw, mcq):
    """A record whose members give parsed, unparsed and missing passes, and
    the member order to read it in."""
    pool = draw(pools(st.integers(0, 3) if mcq else st.sampled_from(SURFACE)))
    passes = {}
    for m, parsed in pool.items():
        passes[m] = [RawPass(raw_text=str(a), parsed=a) for a in parsed]
        for status in draw(st.lists(st.sampled_from(["ok", "missing", "parse_failed"]),
                                    max_size=2)):
            passes[m].insert(draw(st.integers(0, len(passes[m]))),
                             RawPass(raw_text="no answer", status=status))
    return (mcq_record if mcq else oeq_record)("e0", passes=passes), list(pool)


@settings(max_examples=300, deadline=None, database=None)
@given(pools())
def test_solution_set_and_confidences_follow_the_first_seen_ranking(pool):
    pooled = [a for answers in pool.values() for a in answers]
    ranking, counts = first_seen_ranking(pooled)
    longest = max(len(answers) for answers in pool.values())
    for k in range(1, max(len(ranking), longest) + 2):
        final = build_final_solution_set(pool, k)
        assert final.answers == ranking[:k]
        assert final.source_counts == {a: counts[a] for a in ranking[:k]}
        if k < longest:
            continue  # K passes per model: a longer list is refused upstream
        for answers in pool.values():
            probs = model_distribution(answers, final, k).probs
            assert probs == [sum(1 for x in answers if x == a) / k for a in final.answers]


@settings(max_examples=300, deadline=None, database=None)
@given(episodes(mcq=True), st.integers(0, 6))
def test_mcq_confidences_are_counts_over_k_plus_the_uniform_residual(episode, extra):
    # The OEQ rule above, count / K, with the unparsed mass spread evenly.
    rec, members = episode
    k = max([1] + [len(passes) for passes in rec.passes.values()]) + extra
    dists = assemble_mcq_distributions(rec, members, k)
    if any(not rec.passes[m] for m in members):
        assert dists is None  # a member with neither probabilities nor passes
        return
    n_choices = rec.task.num_choices
    for m, dist in zip(members, dists):
        counts = Counter(p.parsed for p in rec.passes[m] if p.parsed is not None)
        expected = [counts[c] / k for c in range(n_choices)]
        residual = 1.0 - sum(expected)
        if residual > 1e-12:
            expected = [q + residual / n_choices for q in expected]
        assert dist.probs == expected


@settings(max_examples=300, deadline=None, database=None)
@given(st.booleans().flatmap(episodes))
def test_model_and_plurality_modes_follow_the_first_seen_ranking(episode):
    rec, members = episode
    for m in members:
        parsed = [p.parsed for p in rec.passes[m] if p.status == "ok" and p.parsed is not None]
        expected = mode(parsed if rec.task.is_mcq else [canonical_answer(a) for a in parsed])
        assert model_prediction(rec, m) == expected
    votes = [model_prediction(rec, m) for m in members]
    assert plurality_prediction(rec, members) == mode([v for v in votes if v is not None])
