"""Answer pooling: canonical forms, shared solution sets, per-model confidences.

For open-ended questions each model is sampled K times; the frequency of an
answer across those passes, divided by K, is the model's confidence in it.
The answers of all models are pooled and the K globally most frequent form
the shared solution set over which every model's distribution is expressed.
"""
from __future__ import annotations

import logging
import re
from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

import numpy as np

from .corpus import PROB_SUM_TOL, EpisodeRecord, ProvidedVectors, float_sum, vector_list

log = logging.getLogger(__name__)

_CURRENCY = "$€£"
_NUMERIC_RE = re.compile(r"^[-+]?(\d+(\.\d*)?|\.\d+)([eE][-+]?\d+)?$")


def _decimal_str(d: Decimal) -> str:
    # Exact canonical form without scientific notation or trailing zeros.
    if d == d.to_integral_value():
        return str(d.quantize(Decimal(1)))
    s = format(d, "f")
    return s.rstrip("0").rstrip(".") if "." in s else s


def canonical_answer(text: str | int) -> str:
    """Canonical form for answer equality.

    Numbers lose currency symbols, thousands separators, and trailing
    periods, and compare as exact decimals ("1,200." == "1200"). Everything
    else is lowercased with collapsed whitespace and no trailing periods.
    The form is a fixed point: canonicalizing it again changes nothing.
    """
    if isinstance(text, int):
        return str(text)
    s = " ".join(text.split()).rstrip(". ")
    numeric = s.translate(str.maketrans("", "", _CURRENCY + ", "))
    if _NUMERIC_RE.match(numeric):
        try:
            return _decimal_str(Decimal(numeric))
        except InvalidOperation:
            pass
    return s.lower()


def answer_key(record: EpisodeRecord, answer: str | int):
    """What two answers to this record compare equal by: the choice index
    for MCQ, the canonical form otherwise."""
    return answer if record.task.is_mcq else canonical_answer(answer)


def answers_equal(record: EpisodeRecord, pred: str | int | None) -> bool:
    """Task equality: choice index match for MCQ, canonical text match otherwise."""
    if pred is None:
        return False
    return answer_key(record, pred) == answer_key(record, record.ground_truth)


@dataclass
class SolutionSet:
    """Shared finite answer domain: the top-K answers pooled across models."""

    answers: list[str]
    source_counts: dict[str, int]

    def index_of(self, answer: str | int) -> int | None:
        target = canonical_answer(answer)
        return self.answers.index(target) if target in self.answers else None

    def __len__(self) -> int:
        return len(self.answers)


def build_final_solution_set(
    per_model_answers: dict[str, list[str]], k: int
) -> SolutionSet:
    """Rank pooled answers by total frequency, keep the top K.

    The answers are canonical, as ``parsed_answers`` returns them. Ties break
    by first-seen position (model order, then pass order), as
    ``Counter.most_common`` ranks them. An empty result signals the episode
    is unusable (every model failed to parse).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    ranked = Counter(a for answers in per_model_answers.values() for a in answers).most_common(k)
    return SolutionSet(answers=[a for a, _ in ranked], source_counts=dict(ranked))


@dataclass
class ChoiceDistribution:
    """One model's probability vector over a shared finite solution set."""

    model_id: str
    probs: list[float]

    def __post_init__(self) -> None:
        if any(p < 0 for p in self.probs):
            raise ValueError(f"{self.model_id}: negative probability")
        if float_sum(self.probs) > 1.0 + PROB_SUM_TOL:
            raise ValueError(f"{self.model_id}: probabilities sum past 1")


def model_distribution(
    model_answers: list[str], final: SolutionSet, k: int, model_id: str = ""
) -> ChoiceDistribution:
    """Per-answer frequency divided by the configured pass count K.

    ``model_answers`` are canonical, as ``parsed_answers`` returns them.
    Missing or unparseable passes still divide by K, so a model that failed
    to answer reads as uncertain rather than confident. Answers that fell
    outside the shared set leave the vector summing below 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    counts = Counter(model_answers)
    probs = [counts[a] / k for a in final.answers]
    return ChoiceDistribution(model_id=model_id, probs=probs)


def parsed_answers(record: EpisodeRecord, model_id: str) -> list[str | int]:
    """The ``answer_key`` form of each parsed answer in this model's passes, in
    pass order: the one place where a pass's answer is read. The corpus schema
    has typed every parsed answer and ties it to an ok status."""
    return [
        answer_key(record, p.parsed)
        for p in record.passes.get(model_id, ())
        if p.parsed is not None
    ]


def assemble_mcq_distributions(
    record: EpisodeRecord, members: list[str], k: int
) -> list[ChoiceDistribution] | None:
    """Per-member choice distributions for an MCQ episode.

    Provider-supplied probability vectors pass through unchanged. Otherwise
    a choice's confidence is its count among the member's ``parsed_answers``
    divided by K, and the mass of missing or unparsed passes is spread
    uniformly, so the vector always sums to 1; a member with no parsed pass
    at all becomes uniform. Returns None (the episode is skipped) when a
    member has neither probabilities nor passes.
    """
    if not record.task.is_mcq:
        raise ValueError(f"record {record.id} is not mcq")
    m = record.task.num_choices
    out: list[ChoiceDistribution] = []
    for model_id in members:
        provided = (record.provided_choice_probs or {}).get(model_id)
        if provided is not None:
            out.append(ChoiceDistribution(model_id=model_id, probs=list(vector_list(provided))))
            continue
        if not record.passes.get(model_id):
            log.warning("record %s: model %s has no probs and no passes; skipping episode",
                        record.id, model_id)
            return None
        counts = Counter(parsed_answers(record, model_id))
        probs = [counts[c] / k for c in range(m)]
        residual = 1.0 - float_sum(probs)
        if residual > 1e-12:
            if not counts:
                log.warning("record %s: model %s has zero parsed passes; using uniform",
                            record.id, model_id)
            probs = [p + residual / m for p in probs]
        out.append(ChoiceDistribution(model_id=model_id, probs=probs))
    return out


def first_usable_text(record: EpisodeRecord, model_id: str) -> str | None:
    """Raw text of the model's first ok pass whose text is not blank."""
    for p in record.passes.get(model_id, ()):
        if p.status == "ok" and p.raw_text.strip():
            return p.raw_text
    return None


def first_maxima(vectors) -> np.ndarray:
    """Index of each vector's first maximum, along the last axis: the choice
    a provided vector votes for. The vectors are equally long."""
    return np.argmax(np.asarray(vectors, dtype=np.float64), axis=-1)


def model_prediction(record: EpisodeRecord, model_id: str) -> str | int | None:
    """The model's single prediction for this episode.

    MCQ/OEQ: the ``first_maxima`` choice of the model's provided probability
    vector when it has one, as fusion reads it too; otherwise the modal
    ``parsed_answers`` entry, ties to the first seen, so the prediction is in
    ``answer_key`` form. GQ: raw text of the first ok pass. None when the
    model gave nothing usable.
    """
    if record.task.kind == "gq":
        return first_usable_text(record, model_id)
    provided = (record.provided_choice_probs or {}).get(model_id)
    if provided is not None:
        return int(first_maxima([provided])[0])
    return next((v for v, _ in Counter(parsed_answers(record, model_id)).most_common(1)), None)


def provided_votes(
    records: Sequence[EpisodeRecord], model_ids: Sequence[str]
) -> np.ndarray:
    """Episodes x models choices the provided vectors vote for, -1 where a
    model has none: ``model_prediction``'s vote for each vector. Records that
    share a key order (loaded records share one ``ProvidedVectors`` index)
    are stacked and take one ``first_maxima`` call; a dict of vectors is a
    key order of its own. All vectors have the one length a single-task
    corpus gives them."""
    column = {m: j for j, m in enumerate(model_ids)}
    votes = np.full((len(records), len(model_ids)), -1, dtype=np.int64)
    groups: dict = {}  # id of a key order -> (key order, episodes, their vectors)
    for i, rec in enumerate(records):
        probs = rec.provided_choice_probs
        if probs:
            keys, rows = ((probs.index, probs.rows) if isinstance(probs, ProvidedVectors)
                          else (probs, list(probs.values())))
            _, episodes, vectors = groups.setdefault(id(keys), (keys, [], []))
            episodes.append(i)
            vectors.append(rows)
    for keys, episodes, vectors in groups.values():
        cols = np.array([column.get(m, -1) for m in keys])
        kept = cols >= 0
        votes[np.ix_(episodes, cols[kept])] = first_maxima(vectors)[:, kept]
    return votes


def plurality_prediction(record: EpisodeRecord, members: list[str]) -> str | int | None:
    """Most frequent member prediction; ties go to the lowest-index member."""
    votes = [p for p in (model_prediction(record, m) for m in members) if p is not None]
    return next((v for v, _ in Counter(votes).most_common(1)), None)


# Episodes whose provided vectors ``VoteTable`` stacks at once, so the stacked
# vectors stay small whatever the split's size.
VOTE_BLOCK = 256

# Working-set bound for one block of masks in the batched scoring paths: the
# per-block arrays stay within it whatever the mask count, so peak memory does
# not grow with the number of candidates.
BLOCK_BYTES = 1 << 20


def member_blocks(
    masks: Sequence[int], n_models: int, bytes_per_mask: int
) -> Iterator[tuple[int, np.ndarray]]:
    """(start, 0/1 float masks x models member matrix) for consecutive blocks
    of ``masks``, bit j of a mask marking column j. A block holds as many
    masks as keep ``bytes_per_mask`` each within ``BLOCK_BYTES``."""
    size = max(1, BLOCK_BYTES // bytes_per_mask)
    n_bytes = (n_models + 7) // 8
    for start in range(0, len(masks), size):
        block = masks[start : start + size]
        packed = np.frombuffer(
            b"".join(int(m).to_bytes(n_bytes, "little") for m in block), dtype=np.uint8
        ).reshape(len(block), n_bytes)
        bits = np.unpackbits(packed, axis=1, count=n_models, bitorder="little")
        yield start, bits.astype(np.float64)


class VoteTable:
    """Episodes x models predictions coded as small ints, made once per split;
    failures, plurality votes and single-model accuracies derive from it.

    Each episode gets its own codebook keyed by ``answer_key``, the form
    ``model_prediction`` already returns; -1 marks a model with no usable
    prediction, and a gold answer nobody predicted gets a sentinel code that
    no prediction can match. The votes of provided vectors come from
    ``provided_votes``, the other predictions from ``model_prediction``.
    """

    def __init__(self, records: Sequence[EpisodeRecord], model_ids: Sequence[str]) -> None:
        self.model_ids = list(model_ids)
        self.codes = np.full((len(records), len(self.model_ids)), -1, dtype=np.int64)
        self.gold = np.full(len(records), -2, dtype=np.int64)
        for start in range(0, len(records), VOTE_BLOCK):
            block = records[start : start + VOTE_BLOCK]
            codes = []
            for i, (rec, votes) in enumerate(
                zip(block, provided_votes(block, self.model_ids).tolist()), start
            ):
                if rec.task.kind == "gq":
                    raise ValueError("validation accuracy is not defined for gq tasks")
                book: dict = {}
                row = []
                for model, vote in zip(self.model_ids, votes):
                    pred = vote if vote >= 0 else model_prediction(rec, model)
                    row.append(-1 if pred is None else book.setdefault(pred, len(book)))
                codes.append(row)
                self.gold[i] = book.get(answer_key(rec, rec.ground_truth), -2)
            self.codes[start : start + len(block)] = codes
        self.n_codes = int(self.codes.max()) + 1 if self.codes.size else 1
        # Plurality votes depend only on an episode's (codes, gold) row, so the
        # batched path scores each distinct row once, weighted by its count.
        rows, self._row_counts = np.unique(
            np.column_stack([self.codes, self.gold]), axis=0, return_counts=True
        )
        self._row_codes, self._row_gold = rows[:, :-1], rows[:, -1]

    @property
    def failed(self) -> np.ndarray:
        """Boolean episodes x models failures: no prediction, or not the gold answer."""
        return self.codes != self.gold[:, None]

    def plurality_accuracy(self, member_idx: Iterable[int]) -> float:
        """Plurality vote over the member columns; ties go to the lowest-index
        member, episodes where every member abstained count as wrong."""
        mask = 0
        for j in member_idx:
            mask |= 1 << j
        return float(self.mask_accuracies([mask])[0])

    def mask_accuracies(self, masks: Sequence[int]) -> np.ndarray:
        """Plurality accuracy of each mask's member columns (bit j = column j),
        with ``plurality_accuracy``'s tie-break; all zeros without episodes."""
        out = np.zeros(len(masks))
        if len(self.gold) == 0:
            return out
        n = len(self.model_ids)
        codes = self._row_codes
        # 0/1 rows x models matrices: who voted each answer code, who voted gold.
        votes = (codes == np.arange(self.n_codes)[:, None, None]).astype(np.float64)
        gold = (codes == self._row_gold[:, None]).astype(np.float64)
        # Vote weights 2^N + 2^(N-1-j) stay exact integers in float64 while
        # every sum of them, below (N + 1) * 2^N, is at most 2^53.
        hits = self._weighted_hits if (n + 1) << n <= 1 << 53 else self._first_voter_hits
        # A block holds four float64 (rows x masks) arrays at a time.
        for start, members in member_blocks(masks, n, 8 * 4 * len(codes)):
            out[start : start + len(members)] = hits(votes, gold, members.T)
        return out / len(self.gold)

    def _weighted_hits(self, votes: np.ndarray, gold: np.ndarray, members: np.ndarray):
        """Episodes won by the gold answer for each column of the models x
        masks 0/1 matrix ``members``.

        Member j's vote weighs 2^N + 2^(N-1-j), so an answer's score orders
        answers by vote count first and then by their lowest-index voter; the
        top score is the plurality pick, and 0 means every member abstained.
        """
        n = len(self.model_ids)
        weights = np.ldexp(1.0, n) + np.ldexp(1.0, np.arange(n - 1, -1, -1))
        weighted = members * weights[:, None]
        gold_score = gold @ weighted
        best = np.zeros_like(gold_score)
        for code_votes in votes:
            np.maximum(best, code_votes @ weighted, out=best)
        return self._row_counts @ ((gold_score > 0) & (gold_score == best))

    def _first_voter_hits(self, votes: np.ndarray, gold: np.ndarray, members: np.ndarray):
        """``_weighted_hits`` from unit vote counts, for pools too large for
        exact weights: the pick is the first member, in column order, whose
        answer has the top count."""
        codes = self._row_codes
        top = np.zeros((len(codes), members.shape[1]))
        for code_votes in votes:
            np.maximum(top, code_votes @ members, out=top)
        undecided = np.ones(top.shape, dtype=bool)
        won = np.zeros(top.shape, dtype=bool)
        for j in range(codes.shape[1]):
            voted = codes[:, [j]] >= 0
            tally = ((codes == codes[:, [j]]) & voted) @ members
            take = undecided & voted & (members[j] > 0) & (tally == top)
            won |= take & (gold[:, [j]] > 0)
            undecided &= ~take
        return self._row_counts @ won
