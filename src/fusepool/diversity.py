"""Failure matrices and focal error-diversity scores.

The focal negative correlation of a member within an ensemble of size S is
computed on the validation episodes where that member (the focal model)
failed: with p_j the fraction of those episodes on which exactly j of the S
members fail together,

    P(1) = sum_j (j / S) p_j
    P(2) = sum_j j(j-1) / (S(S-1)) p_j
    rho  = 1 - P(2) / P(1),  clamped to [0, 1].

Fully correlated errors give rho = 0; a focal model that only fails alone
gives rho = 1. The focal diversity of an ensemble is the mean of rho over
its members as focal.

Both sums are co-failure counts. With C_ik the episodes where models i and k
both fail and T_ikl those where i, k and l all fail, focal model i in team S
has A_i = sum_{k in S} C_ik = support * S * P(1) and
B_i = sum_{k,l in S} T_ikl = support * (S(S-1) P(2) + S P(1)), so

    rho_i = 1 - (B_i - A_i) / ((S - 1) A_i) = (S A_i - B_i) / ((S - 1) A_i),

which ``CoFailureCounts`` evaluates for whole blocks of teams at once, as one
division of exact integer counts per member.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from .answers import answers_equal, member_blocks, model_prediction
from .corpus import EpisodeRecord, float_sum
from .metrics import unigram_recall


@dataclass
class FailureMatrix:
    """Boolean episodes x models matrix; True marks a model failure."""

    rows: np.ndarray
    episode_ids: list[str]
    model_ids: list[str]

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=bool)
        if self.rows.shape != (len(self.episode_ids), len(self.model_ids)):
            raise ValueError(
                f"matrix shape {self.rows.shape} does not match "
                f"{len(self.episode_ids)} episodes x {len(self.model_ids)} models"
            )

    def column_index(self, model_id: str) -> int:
        try:
            return self.model_ids.index(model_id)
        except ValueError:
            raise KeyError(f"unknown model {model_id!r}") from None

    def columns(self, members: Sequence[str]) -> np.ndarray:
        return self.rows[:, [self.column_index(m) for m in members]]

    def to_csv(self, path: str) -> None:
        """Audit export: episode id column then one 0/1 column per model."""
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["episode_id", *self.model_ids])
            for episode_id, row in zip(self.episode_ids, self.rows):
                writer.writerow([episode_id, *(int(v) for v in row)])


def failure_vector(record: EpisodeRecord, model_id: str, tau: float = 0.5) -> bool:
    """True when the model failed this episode under the task's error rule.

    MCQ/OEQ compare the model's prediction against the label (after
    canonicalization for OEQ); GQ fails when the unigram recall of the
    prediction against the reference falls below ``tau``. A missing
    prediction is a failure.
    """
    pred = model_prediction(record, model_id)
    if pred is not None and record.task.kind == "gq":
        return unigram_recall(pred, record.ground_truth) < tau
    return not answers_equal(record, pred)


def failure_matrix(
    records: Sequence[EpisodeRecord], model_ids: Sequence[str], tau: float = 0.5
) -> FailureMatrix:
    rows = np.array(
        [[failure_vector(rec, m, tau) for m in model_ids] for rec in records],
        dtype=bool,
    ).reshape(len(records), len(model_ids))
    return FailureMatrix(
        rows=rows,
        episode_ids=[rec.id for rec in records],
        model_ids=list(model_ids),
    )


@dataclass(frozen=True)
class FocalScore:
    focal_model: str
    rho: float
    support: int  # number of episodes on which the focal model failed


def focal_negative_correlation(
    failures: FailureMatrix, members: Sequence[str], focal: str
) -> FocalScore:
    """Focal negative correlation of ``focal`` within ``members``.

    A focal model with zero failures has no episodes to correlate on and
    scores rho = 1; callers can discount via ``support``.
    """
    if len(members) < 2:
        raise ValueError("ensemble needs at least 2 members")
    if focal not in members:
        raise ValueError(f"focal model {focal!r} not in ensemble")
    cols = failures.columns(members)
    focal_failed = failures.rows[:, failures.column_index(focal)]
    sub = cols[focal_failed]
    support = sub.shape[0]
    if support == 0:
        return FocalScore(focal_model=focal, rho=1.0, support=0)
    s = len(members)
    joint = sub.sum(axis=1)  # >= 1 everywhere: the focal model failed
    p = np.bincount(joint, minlength=s + 1)[1 : s + 1] / support
    j = np.arange(1, s + 1, dtype=np.float64)
    p1 = float(np.sum(j / s * p))
    p2 = float(np.sum(j * (j - 1) / (s * (s - 1)) * p))
    rho = 1.0 - p2 / p1
    return FocalScore(focal_model=focal, rho=min(1.0, max(0.0, rho)), support=support)


def focal_diversity(failures: FailureMatrix, members: Sequence[str]) -> float:
    """Mean focal negative correlation over all members as focal."""
    if len(members) < 2:
        raise ValueError("ensemble needs at least 2 members")
    scores = [focal_negative_correlation(failures, members, m).rho for m in members]
    return float_sum(scores) / len(scores)


@dataclass(frozen=True)
class CoFailureCounts:
    """Pair and triple co-failure counts of a failure matrix. Every team's
    focal diversity follows from them exactly, so scoring a team costs the
    same whatever the episode count."""

    pairs: np.ndarray  # pairs[i, k]: episodes where models i and k both fail
    triples: np.ndarray  # triples[i, k, l]: episodes where i, k and l all fail

    @classmethod
    def of(cls, failures: FailureMatrix) -> "CoFailureCounts":
        f = failures.rows.astype(np.float64)
        # One focal model at a time: a single einsum would build an
        # episodes x N^3 temporary.
        triples = np.stack([f.T @ (f * f[:, [i]]) for i in range(f.shape[1])])
        return cls(pairs=f.T @ f, triples=triples)

    def focal_diversities(self, masks: Sequence[int]) -> np.ndarray:
        """``focal_diversity`` of each team mask (bit i = model i, at least
        two bits set)."""
        n = len(self.pairs)
        out = np.empty(len(masks))
        # A block holds about six float64 (masks x models) arrays at a time.
        for start, m in member_blocks(masks, n, 8 * 6 * n):
            size = m.sum(axis=1, keepdims=True)
            a = m @ self.pairs
            b = np.stack([((m @ self.triples[i]) * m).sum(axis=1) for i in range(n)], axis=1)
            # Exact counts keep rho in [0, 1] with no clamp: A <= B <= S * A.
            rho = np.divide(size * a - b, (size - 1) * a, out=np.ones_like(a), where=a > 0) * m
            total = np.zeros(len(m))
            for i in range(n):  # member order, as focal_diversity sums
                total += rho[:, i]
            out[start : start + len(m)] = total / size[:, 0]
        return out
