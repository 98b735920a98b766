"""Direct-definition oracle for the benchmark's output checks.

Written from the definitions alone and sharing no code with fusepool's
scoring: a model's prediction is its modal parsed answer over its ok passes
(first seen wins a tie), falling back for MCQ to the argmax of a provided
probability vector; a model fails an episode when it has no prediction or
the prediction differs from the gold answer. Focal diversity and plurality
accuracy follow the paper:

    rho_i = 1 - P(2) / P(1) over the episodes where focal member i failed,
    P(1) = sum_j (j / S) p_j,  P(2) = sum_j j (j - 1) / (S (S - 1)) p_j,

with p_j the share of those episodes on which exactly j of the S members
failed, clamped to [0, 1], and 1 when member i never failed. A team's focal
diversity is the mean of rho_i; its plurality vote takes the most frequent
member answer, ties to the lowest-index member, all-abstain counts as wrong.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Sequence

# Fitness weights of focal diversity and plurality accuracy: prune's defaults.
W1, W2 = 0.6, 0.4


def normalise(answer) -> str:
    """Answer equality for the open-ended fixtures: integers compare by value,
    text by lowercase words."""
    text = str(answer).strip().rstrip(".").strip()
    try:
        return str(int(text.replace(",", "")))
    except ValueError:
        return " ".join(text.lower().split())


def prediction(record, model_id: str):
    votes = [p.parsed for p in record.passes.get(model_id, ())
             if p.status == "ok" and p.parsed is not None]
    if record.task.kind == "mcq":
        votes = [v for v in votes if isinstance(v, int)]
    elif record.task.kind == "oeq":
        votes = [normalise(v) for v in votes]
    else:
        raise ValueError("the oracle covers mcq and oeq tasks")
    if votes:
        counts = Counter(votes)
        top = max(counts.values())
        return next(v for v in votes if counts[v] == top)
    provided = (record.provided_choice_probs or {}).get(model_id)
    if record.task.kind == "mcq" and provided is not None:
        return max(range(len(provided)), key=lambda c: (provided[c], -c))
    return None


def gold(record):
    return record.ground_truth if record.task.kind == "mcq" else normalise(record.ground_truth)


def prediction_table(records, model_ids: Sequence[str]) -> list[list]:
    return [[prediction(rec, m) for m in model_ids] for rec in records]


def failure_rows(predictions: list[list], golds: list) -> list[list[bool]]:
    return [[p is None or p != g for p in row] for row, g in zip(predictions, golds)]


def focal_diversity(failures: list[list[bool]], members: Sequence[int]) -> float:
    s = len(members)
    if s < 2:
        raise ValueError("a team needs at least 2 members")
    rhos = []
    for focal in members:
        joint = [sum(row[k] for k in members) for row in failures if row[focal]]
        if not joint:
            rhos.append(1.0)
            continue
        p1 = sum(j / s for j in joint) / len(joint)
        p2 = sum(j * (j - 1) / (s * (s - 1)) for j in joint) / len(joint)
        rhos.append(min(1.0, max(0.0, 1.0 - p2 / p1)))
    return sum(rhos) / s


def plurality_accuracy(predictions: list[list], golds: list, members: Sequence[int]) -> float:
    if not predictions:
        return 0.0
    hits = 0
    for row, g in zip(predictions, golds):
        votes = [row[k] for k in sorted(members) if row[k] is not None]
        if not votes:
            continue
        counts = Counter(votes)
        top = max(counts.values())
        hits += next(v for v in votes if counts[v] == top) == g
    return hits / len(predictions)


def fitness(diversity: float, accuracy: float) -> float:
    return W1 * diversity + W2 * accuracy
