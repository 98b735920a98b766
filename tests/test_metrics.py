import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from fusepool.metrics import (
    bleu1,
    pearson,
    rouge,
    token_f1,
    unigram_recall,
)


class TestTokenF1:
    def test_identity(self):
        assert token_f1("a cat sat", "a cat sat") == 1.0

    def test_hand_case(self):
        # P = 1/3, R = 1 -> F1 = 0.5
        assert token_f1("solitaire rearranging cards", "solitaire") == pytest.approx(0.5)

    def test_disjoint(self):
        assert token_f1("alpha beta", "gamma delta") == 0.0

    def test_both_empty(self):
        assert token_f1("", "") == 1.0

    def test_one_empty(self):
        assert token_f1("", "word") == 0.0


class TestBleu1:
    def test_identity(self):
        assert bleu1("the quick brown fox", "the quick brown fox") == pytest.approx(1.0)

    def test_brevity_penalty(self):
        # precision 1, BP = e^(1 - 3/2)
        assert bleu1("the cat", "the cat sat") == pytest.approx(math.exp(-0.5), abs=1e-6)

    def test_no_penalty_when_longer(self):
        # candidate longer than reference, full overlap: BP = 1, score = precision
        assert bleu1("the cat sat down", "the cat sat") == pytest.approx(3 / 4)

    def test_empty_candidate(self):
        assert bleu1("", "anything") == 0.0

    def test_clipping(self):
        # "the the the" vs "the": clipped count 1, precision 1/3, |ref| < |cand|
        assert bleu1("the the the", "the") == pytest.approx(1 / 3)


class TestRouge:
    def test_identity_all_variants(self):
        for variant in (1, 2, "L"):
            assert rouge("a b c d", "a b c d", variant) == pytest.approx(1.0)

    def test_hand_rouge1(self):
        assert rouge("a b c", "a c d", 1) == pytest.approx(2 / 3)

    def test_hand_rouge_l(self):
        # LCS("a b c", "a c d") = "a c"
        assert rouge("a b c", "a c d", "L") == pytest.approx(2 / 3)

    def test_disjoint(self):
        for variant in (1, 2, "L"):
            assert rouge("a b c", "x y z", variant) == 0.0

    def test_bad_variant(self):
        with pytest.raises(ValueError):
            rouge("a", "a", 3)


class TestUnigramRecall:
    def test_partial_coverage(self):
        gold = "w1 w2 w3 w4 w5 w6 w7 w8 w9 w10"
        pred = "w1 w2 w3 other words"
        assert unigram_recall(pred, gold) == pytest.approx(0.3)

    def test_full(self):
        assert unigram_recall("b a c extra", "a b c") == 1.0


class TestPearson:
    def test_linear(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert pearson(xs, [2 * x + 1 for x in xs]) == pytest.approx(1.0)

    def test_anti_linear(self):
        xs = [1.0, 2.0, 3.0]
        assert pearson(xs, [-x for x in xs]) == pytest.approx(-1.0)

    def test_hand_case(self):
        assert pearson([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5)

    def test_sums_left_to_right_on_every_interpreter(self):
        # A compensated sum, as the built-in sum of floats is from 3.12, gives
        # 0.620209048748695 on this input.
        rng = random.Random(0)
        xs = [rng.random() for _ in range(200)]
        ys = [x + rng.gauss(0, 0.3) for x in xs]
        assert repr(pearson(xs, ys)) == "0.6202090487486955"

    def test_zero_variance(self):
        assert math.isnan(pearson([1, 1, 1], [1, 2, 3]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1, 2], [1, 2, 3])


def test_bounds_and_identity_are_maximal():
    rng = random.Random(0)
    words = ["alpha", "beta", "gamma", "delta", "run", "cat", "42"]
    for _ in range(100):
        a = " ".join(rng.choices(words, k=rng.randint(1, 8)))
        b = " ".join(rng.choices(words, k=rng.randint(1, 8)))
        for fn in (token_f1, bleu1, unigram_recall):
            assert 0.0 <= fn(a, b) <= 1.0
        for variant in (1, 2, "L"):
            assert 0.0 <= rouge(a, b, variant) <= 1.0
            assert rouge(a, a, variant) == pytest.approx(1.0)
        assert token_f1(a, a) == pytest.approx(1.0)
        assert bleu1(a, a) == pytest.approx(1.0)


def test_token_f1_matches_rouge1_without_articles_or_duplicates():
    rng = random.Random(1)
    words = ["solitaire", "cards", "game", "rearranging", "stack"]
    for _ in range(50):
        a = " ".join(rng.sample(words, k=rng.randint(1, len(words))))
        b = " ".join(rng.sample(words, k=rng.randint(1, len(words))))
        assert token_f1(a, b) == pytest.approx(rouge(a, b, 1))


# ---------------------------------------------------------------------------
# Every clipped-overlap metric against its definition, written as explicit
# per-token loops. Four words and two articles make repeated tokens, and so
# clipping, the common case.
# ---------------------------------------------------------------------------

WORDS = ["cat", "sat", "mat", "on", "the", "a"]
bags = st.lists(st.sampled_from(WORDS), max_size=9)


def matched(pred: list, gold: list) -> int:
    """Tokens of ``pred`` that can each be paired with a distinct token of ``gold``."""
    unpaired = list(gold)
    hits = 0
    for tok in pred:
        for j, g in enumerate(unpaired):
            if g == tok:
                del unpaired[j]
                hits += 1
                break
    return hits


def f_measure(hits: int, n_pred: int, n_gold: int) -> float:
    if n_pred == 0 and n_gold == 0:
        return 1.0
    if hits == 0:
        return 0.0
    precision, recall = hits / n_pred, hits / n_gold
    return 2 * precision * recall / (precision + recall)


def grams(tokens: list, n: int) -> list:
    out = []
    for i in range(len(tokens) - n + 1):
        out.append(tuple(tokens[i:i + n]))
    return out


@settings(max_examples=400, deadline=None, derandomize=True)
@given(pred=bags, gold=bags)
def test_clipped_metrics_match_their_definitions(pred, gold):
    a, b = " ".join(pred), " ".join(gold)

    content_pred = [t for t in pred if t not in ("the", "a")]
    content_gold = [t for t in gold if t not in ("the", "a")]
    assert token_f1(a, b) == pytest.approx(f_measure(
        matched(content_pred, content_gold), len(content_pred), len(content_gold)), abs=1e-12)

    expected = 0.0
    if pred and gold:
        expected = (matched(pred, gold) / len(pred)
                    * math.exp(min(0.0, 1.0 - len(gold) / len(pred))))
    assert bleu1(a, b) == pytest.approx(expected, abs=1e-12)

    for n in (1, 2):
        pg, gg = grams(pred, n), grams(gold, n)
        assert rouge(a, b, n) == pytest.approx(
            f_measure(matched(pg, gg), len(pg), len(gg)), abs=1e-12)

    expected = matched(pred, gold) / len(gold) if gold else 1.0
    assert unigram_recall(a, b) == pytest.approx(expected, abs=1e-12)
