import logging
import random

import pytest

from fusepool.summary_prep import (
    AttentionMaskSpec,
    BudgetError,
    build_attention_mask,
    candidate_tags,
    receptive_field,
    serialize_inputs,
    token_count,
)


def bfs_reachable(mask, start: int, hops: int) -> set[int]:
    """Graph-reachability oracle over the allowed-pair relation."""
    frontier = {start}
    seen = {start}
    for _ in range(hops):
        nxt = set()
        for i in frontier:
            for j in range(mask.length):
                if mask.allowed(i, j) and j not in seen:
                    seen.add(j)
                    nxt.add(j)
        frontier = nxt
    return seen


class TestSerialize:
    def test_three_candidate_layout(self):
        out = serialize_inputs("x", ["z1", "z2", "z3"])
        assert out.text == (
            "<boq> x <eoq> <boc1> z1 <eoc1> <boc2> z2 <eoc2> <boc3> z3 <eoc3>"
        )

    def test_single_candidate(self):
        out = serialize_inputs("what is it", ["an answer"])
        assert out.text == "<boq> what is it <eoq> <boc1> an answer <eoc1>"
        assert out.model_tags == [("<boc1>", "<eoc1>")]

    def test_spans_roundtrip(self):
        query = "why is the sky blue?"
        candidates = ["scattering of light", "because of rayleigh", "blue photons win"]
        out = serialize_inputs(query, candidates)
        assert out.question() == query
        for i, cand in enumerate(candidates):
            assert out.candidate(i) == cand

    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            serialize_inputs("   ", ["z"])
        with pytest.raises(ValueError):
            serialize_inputs("q", [])

    def test_injective_over_random_tuples(self):
        rng = random.Random(0)
        words = ["sun", "moon", "tide", "rock", "wave"]
        seen = {}
        for _ in range(300):
            query = " ".join(rng.choices(words, k=rng.randint(1, 4)))
            cands = [
                " ".join(rng.choices(words, k=rng.randint(1, 4)))
                for _ in range(rng.randint(1, 3))
            ]
            key = (query, tuple(cands))
            text = serialize_inputs(query, cands).text
            if text in seen:
                assert seen[text] == key
            seen[text] = key

    def test_truncation_trims_longest_candidate_first(self, caplog):
        query = "q1 q2 q3"
        short = "s1 s2"
        long = " ".join(f"w{i}" for i in range(50))
        with caplog.at_level(logging.WARNING):
            out = serialize_inputs(query, [short, long], max_tokens=30)
        assert "truncating" in caplog.text
        assert token_count(out.text) <= 30
        assert out.question() == query
        assert out.candidate(0) == short
        assert out.candidate(1).split() == long.split()[: len(out.candidate(1).split())]

    def test_within_budget_untouched(self):
        out = serialize_inputs("q", ["a b", "c"], max_tokens=16396)
        assert out.candidate(0) == "a b"

    def test_budget_must_leave_a_candidate_token(self):
        # "<boq> q1 q2 <eoq> <boc1> <eoc1> <boc2> <eoc2>" is 8 tokens.
        with pytest.raises(BudgetError, match="question and tags take 8"):
            serialize_inputs("q1 q2", ["a b", "c d"], max_tokens=8)
        out = serialize_inputs("q1 q2", ["a b", "c d"], max_tokens=9)
        assert token_count(out.text) == 9 and out.question() == "q1 q2"

    def test_candidate_tags(self):
        assert candidate_tags(2) == ("<boc2>", "<eoc2>")


class TestAttentionMask:
    def test_tridiagonal_count(self):
        # l=8, window 2, no globals: 8 diagonal + 2*7 off-diagonal pairs
        mask = build_attention_mask(AttentionMaskSpec(length=8, window=2))
        assert mask.allowed_count() == 22

    def test_saturated_by_globals(self):
        spec = AttentionMaskSpec(length=4, window=2, global_tokens=frozenset({0, 1, 2, 3}))
        mask = build_attention_mask(spec)
        assert mask.allowed_count() == 16
        assert all(mask.allowed(i, j) for i in range(4) for j in range(4))

    def test_union_bound(self):
        rng = random.Random(1)
        for _ in range(100):
            length = rng.randint(1, 200)
            window = 2 * rng.randint(1, 8)
            n_globals = rng.randint(0, min(6, length))
            globals_ = frozenset(rng.sample(range(length), n_globals))
            spec = AttentionMaskSpec(length=length, window=window, global_tokens=globals_)
            mask = build_attention_mask(spec)
            bound = length * (window + 1) + 2 * len(globals_) * length
            assert mask.allowed_count() <= bound

    def test_symmetry_and_diagonal(self):
        rng = random.Random(2)
        for _ in range(30):
            length = rng.randint(2, 60)
            spec = AttentionMaskSpec(
                length=length,
                window=2 * rng.randint(1, 5),
                global_tokens=frozenset(rng.sample(range(length), rng.randint(0, 3))),
            )
            mask = build_attention_mask(spec)
            for _ in range(40):
                i, j = rng.randrange(length), rng.randrange(length)
                assert mask.allowed(i, j) == mask.allowed(j, i)
            assert all(mask.allowed(i, i) for i in range(length))

    def test_count_matches_dense_enumeration(self):
        rng = random.Random(3)
        for _ in range(25):
            length = rng.randint(1, 40)
            spec = AttentionMaskSpec(
                length=length,
                window=2 * rng.randint(1, 4),
                global_tokens=frozenset(rng.sample(range(length), rng.randint(0, 4))),
            )
            mask = build_attention_mask(spec)
            dense = sum(
                mask.allowed(i, j) for i in range(length) for j in range(length)
            )
            assert mask.allowed_count() == dense

    def test_sparsity_scales_linearly(self):
        # slope of allowed-count vs length approaches window + 1 + 2|G|
        window, globals_ = 8, frozenset({0, 3, 7})
        counts = {}
        for length in (500, 1000):
            spec = AttentionMaskSpec(length=length, window=window, global_tokens=globals_)
            counts[length] = build_attention_mask(spec).allowed_count()
        slope = (counts[1000] - counts[500]) / 500
        expected = window + 1 + 2 * len(globals_)
        assert abs(slope - expected) / expected < 0.05

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AttentionMaskSpec(length=5, window=3)
        with pytest.raises(ValueError):
            AttentionMaskSpec(length=5, window=2, global_tokens=frozenset({9}))


class TestReceptiveField:
    def test_closed_form_without_globals(self):
        spec = AttentionMaskSpec(length=100, window=4)
        assert receptive_field(spec, layers=3, start=50) == (44, 56)

    def test_clipping(self):
        spec = AttentionMaskSpec(length=10, window=4)
        assert receptive_field(spec, layers=5, start=1) == (0, 9)

    def test_global_shortcut_two_hops(self):
        spec = AttentionMaskSpec(length=64, window=2, global_tokens=frozenset({30}))
        assert receptive_field(spec, layers=2, start=31) == (0, 63)

    def test_bfs_oracle_matches_closed_form_without_globals(self):
        rng = random.Random(4)
        for _ in range(20):
            length = rng.randint(4, 48)
            spec = AttentionMaskSpec(length=length, window=2 * rng.randint(1, 4))
            mask = build_attention_mask(spec)
            start = rng.randrange(length)
            hops = rng.randint(1, 4)
            reach = bfs_reachable(mask, start, hops)
            lo, hi = receptive_field(spec, hops, start)
            assert reach == set(range(lo, hi + 1))

    def test_one_hop_with_globals_is_band_plus_globals_hull(self):
        spec = AttentionMaskSpec(length=40, window=4, global_tokens=frozenset({2, 35}))
        mask = build_attention_mask(spec)
        reach = bfs_reachable(mask, 20, 1)
        lo, hi = receptive_field(spec, 1, 20)
        assert lo == min(reach) and hi == max(reach)

    def test_validation(self):
        spec = AttentionMaskSpec(length=5, window=2)
        with pytest.raises(ValueError):
            receptive_field(spec, 0, 1)
        with pytest.raises(IndexError):
            receptive_field(spec, 1, 9)
