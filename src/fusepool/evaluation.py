"""Scoring of trained combiners and voting baselines on corpus splits."""
from __future__ import annotations

import logging
from dataclasses import dataclass, field
from collections.abc import Sequence

from .answers import VoteTable, answers_equal
from .corpus import Corpus, EpisodeRecord, SplitSpec, split, task_of
from .fusion import (
    FusionData,
    FusionParameters,
    TrainConfig,
    build_fusion_table,
    build_training_data,
    decode,
    train,
)
from .pruning import GaConfig, build_scorer, search

log = logging.getLogger(__name__)


def plurality_accuracy(table: VoteTable) -> float:
    """Plurality-vote accuracy of all the table's models; 0.0 without episodes."""
    return table.plurality_accuracy(range(len(table.model_ids)))


def single_model_accuracies(table: VoteTable) -> dict[str, float]:
    """Each model's accuracy on its own (1 - its failure rate); 0.0 without episodes."""
    hits = (~table.failed).sum(axis=0) / max(1, len(table.gold))
    return {m: float(h) for m, h in zip(table.model_ids, hits)}


@dataclass
class EvalReport:
    task: str
    members: list[str]
    n_episodes: int
    accuracy: float
    n_abstained: int
    plurality_accuracy: float
    single_accuracies: dict[str, float]
    predictions: list[dict] = field(repr=False, default_factory=list)

    def summary(self) -> dict:
        return {
            "task": self.task,
            "members": self.members,
            "n_episodes": self.n_episodes,
            "accuracy": self.accuracy,
            "n_abstained": self.n_abstained,
            "plurality_accuracy": self.plurality_accuracy,
            "best_single_accuracy": max(self.single_accuracies.values(), default=0.0),
            "single_accuracies": self.single_accuracies,
        }


def evaluate_records(
    records: Sequence[EpisodeRecord],
    members: list[str],
    params: FusionParameters,
    k: int,
    task: str,
    table: tuple[FusionData, list[str]] | None = None,
) -> EvalReport:
    """Score the fusion model on episodes; abstentions count as wrong.

    ``task`` is the corpus's task kind (``task_of``), which the report names
    even when ``records`` is empty. ``table`` is the records'
    ``build_fusion_table`` result when the caller has built it already.

    The split's fusion table is built once and decoded in one batch; an
    episode without a row abstains. Episodes whose gold answer fell outside
    the shared solution set score as errors: the combiner could not have
    produced them.
    """
    rows, unusable = table or build_fusion_table(records, members, k)
    decoded = dict(zip(rows.episode_ids, decode(params, rows)))
    predictions = []
    hits = 0
    for rec in records:
        pred = decoded.get(rec.id)
        correct = answers_equal(rec, pred)
        hits += correct
        predictions.append(
            {
                "id": rec.id,
                "predicted": pred,
                "gold": rec.ground_truth,
                "correct": bool(correct),
            }
        )
    n = len(records)
    table = VoteTable(records, members)
    return EvalReport(
        task=task,
        members=list(members),
        n_episodes=n,
        accuracy=hits / n if n else 0.0,
        n_abstained=len(unusable),
        plurality_accuracy=plurality_accuracy(table),
        single_accuracies=single_model_accuracies(table),
        predictions=predictions,
    )


def train_and_score_split(
    train_corpus: Corpus,
    val_corpus: Corpus,
    test_corpus: Corpus,
    members: list[str],
    k: int,
    config: TrainConfig,
) -> tuple[FusionParameters, EvalReport]:
    """Train the combiner on one split and evaluate on its test part.

    Each part's fusion table is built once: a test part that is the val part
    (train-weighted reports on its val part) reuses its table.
    """
    task = task_of(train_corpus.records)
    train_table = build_fusion_table(train_corpus.records, members, k)
    val_table = build_fusion_table(val_corpus.records, members, k)
    train_data, _ = build_training_data(*train_table)
    val_data, _ = build_training_data(*val_table)
    params = train(train_data, val_data, config)
    test_table = val_table if test_corpus is val_corpus else None
    return params, evaluate_records(test_corpus.records, members, params, k, task.kind,
                                    table=test_table)


def run_split_protocol(
    corpus: Corpus,
    members: list[str] | None = None,
    repeats: int = 20,
    train_frac: float = 0.7,
    test_frac: float = 0.3,
    k: int = 1,
    seed: int = 0,
    config: TrainConfig | None = None,
    w1: float = 0.6,
    w2: float = 0.4,
    tau: float = 0.5,
) -> list[float]:
    """Repeated train/test protocol; returns the test accuracy per repeat.

    Each repeat splits the corpus train/test, carves a validation slice out
    of the training part for early stopping (and for pruning when no member
    list is pinned), trains the fusion net, and scores the test part.
    """
    task_of(corpus.records)
    outer = SplitSpec(train_frac, 0.0, test_frac, seed=seed)
    carve = SplitSpec(0.85, 0.15, 0.0, seed=seed)
    accuracies = []
    for repeat in range(repeats):
        train_all, _, test_part = split(corpus, outer, repeat=repeat)
        train_part, val_part, _ = split(train_all, carve, repeat=repeat)
        if members is None:
            scorer = build_scorer(corpus, val_part.records, w1, w2, tau)
            _, ranked = search(scorer, config=GaConfig(seed=seed + repeat))
            picked = ranked[0].members(corpus.model_ids)
        else:
            picked = members
        cfg = config or TrainConfig(seed=seed + repeat)
        _, report = train_and_score_split(
            train_part, val_part, test_part, picked, k, cfg
        )
        log.info("repeat %d: members=%s accuracy=%.4f", repeat, picked, report.accuracy)
        accuracies.append(report.accuracy)
    return accuracies
