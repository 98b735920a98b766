"""Self-contained text and score metrics.

Two tokenizations are deliberately distinct:

* ``tokenize`` lowercases, strips punctuation, and splits on whitespace.
  It feeds BLEU-1, ROUGE, and unigram recall, where articles carry signal.
* ``normalize_answer`` additionally drops the articles a/an/the and
  collapses whitespace (SQuAD-style). It feeds token F1, where
  "the solitaire" and "solitaire" must compare equal.
"""
from __future__ import annotations

import math
import re
from collections import Counter
from collections.abc import Sequence

from .corpus import float_sum

_PUNCT_RE = re.compile(r"[!\"#$%&'()*+,\-./:;<=>?@\[\\\]^_`{|}~]")
_ARTICLES = {"a", "an", "the"}


def tokenize(text: str) -> list[str]:
    """Lowercased, punctuation-stripped whitespace tokens."""
    return _PUNCT_RE.sub(" ", text.lower()).split()


def normalize_answer(text: str) -> str:
    """SQuAD-style normalization: lowercase, no punctuation, no articles."""
    tokens = [t for t in tokenize(text) if t not in _ARTICLES]
    return " ".join(tokens)


def _clipped_overlap(a: Sequence, b: Sequence) -> int:
    """Items shared by two bags, each counted at most as often as in either."""
    return sum((Counter(a) & Counter(b)).values())


def _fscore(overlap: int, n_pred: int, n_gold: int) -> float:
    if n_pred == 0 and n_gold == 0:
        return 1.0
    if overlap == 0 or n_pred == 0 or n_gold == 0:
        return 0.0
    precision = overlap / n_pred
    recall = overlap / n_gold
    return 2 * precision * recall / (precision + recall)


def token_f1(pred: str, gold: str) -> float:
    """Harmonic mean of token precision/recall over normalized bags of tokens."""
    pred_tokens = normalize_answer(pred).split()
    gold_tokens = normalize_answer(gold).split()
    return _fscore(_clipped_overlap(pred_tokens, gold_tokens), len(pred_tokens), len(gold_tokens))


def bleu1(candidate: str, reference: str) -> float:
    """Modified unigram precision times brevity penalty.

    Counts are clipped per token to the reference count, and the brevity
    penalty is exp(min(0, 1 - |ref| / |cand|)). An empty candidate scores 0.
    """
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    precision = _clipped_overlap(cand, ref) / len(cand)
    bp = math.exp(min(0.0, 1.0 - len(ref) / len(cand)))
    return precision * bp


def _ngrams(tokens: Sequence[str], n: int) -> list[tuple[str, ...]]:
    return [tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1)]


def _lcs_length(a: Sequence[str], b: Sequence[str]) -> int:
    # Classic DP, one rolling row.
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            cur[j] = prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def rouge(pred: str, gold: str, variant: int | str = 1) -> float:
    """ROUGE F-measure: n-gram overlap for variants 1 and 2, LCS for "L"."""
    pred_tokens = tokenize(pred)
    gold_tokens = tokenize(gold)
    if str(variant).lower() == "l":
        lcs = _lcs_length(pred_tokens, gold_tokens)
        return _fscore(lcs, len(pred_tokens), len(gold_tokens))
    n = int(variant)
    if n not in (1, 2):
        raise ValueError(f"unsupported ROUGE variant: {variant!r}")
    pred_grams = _ngrams(pred_tokens, n)
    gold_grams = _ngrams(gold_tokens, n)
    return _fscore(_clipped_overlap(pred_grams, gold_grams), len(pred_grams), len(gold_grams))


def unigram_recall(pred: str, gold: str) -> float:
    """Fraction of reference unigrams covered by the prediction (clipped counts)."""
    gold_tokens = tokenize(gold)
    if not gold_tokens:
        return 1.0
    return _clipped_overlap(tokenize(pred), gold_tokens) / len(gold_tokens)


def pearson(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Sample Pearson correlation; NaN when either input has zero variance."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two points")
    n = len(xs)
    mx = float_sum(xs) / n
    my = float_sum(ys) / n
    sxy = float_sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    sxx = float_sum((x - mx) ** 2 for x in xs)
    syy = float_sum((y - my) ** 2 for y in ys)
    if sxx == 0.0 or syy == 0.0:
        return float("nan")
    return sxy / math.sqrt(sxx * syy)

