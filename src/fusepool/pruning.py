"""Sub-ensemble search over the 2^N - N - 1 candidate teams.

Candidates are bitmasks over the model pool (bit i set = model i included,
size >= 2). Each is scored by a convex combination of focal diversity and
plurality-vote validation accuracy; generative tasks have no validation
accuracy and score on diversity alone. Masks are scored in blocks: diversity
from the pool's co-failure counts, accuracy from vote matmuls over the
prediction table. The exact search enumerates every mask; the genetic search
evolves bitmask chromosomes with elitist selection, uniform crossover, and
per-bit mutation, scoring each generation at once and memoizing per mask.
"""
from __future__ import annotations

import csv
import logging
import random
from dataclasses import dataclass
from collections.abc import Callable, Iterator, Sequence

import numpy as np

from .answers import VoteTable
from .corpus import Corpus, EpisodeRecord, task_of
from .diversity import CoFailureCounts, FailureMatrix, FailureRule, failure_matrix
from .metrics import pearson

log = logging.getLogger(__name__)

BRUTE_FORCE_MAX_POOL = 22
GA_AUTO_THRESHOLD = 12  # pools above this are pruned genetically by default


def candidate_count(n: int) -> int:
    """Number of candidate teams of size >= 2 from a pool of n models."""
    if n < 2:
        raise ValueError("pool must have at least 2 models")
    return 2**n - n - 1


def enumerate_candidates(n: int) -> Iterator[int]:
    """Every subset mask with at least two bits set, ascending."""
    if n < 2:
        raise ValueError("pool must have at least 2 models")
    for mask in range(3, 2**n):
        if mask.bit_count() >= 2:
            yield mask


def mask_members(mask: int, model_ids: Sequence[str]) -> list[str]:
    return [m for i, m in enumerate(model_ids) if mask >> i & 1]


def mask_bitstring(mask: int, n: int) -> str:
    """Bit i of the mask rendered at position i (pool order)."""
    return "".join("1" if mask >> i & 1 else "0" for i in range(n))


def fitness(
    lam: float, val_accuracy: float | None, w1: float = 0.6, w2: float = 0.4
) -> float:
    """Convex combination w1 * diversity + w2 * accuracy.

    Without a validation accuracy (generative tasks) the score is the
    diversity alone, i.e. w1 is treated as 1. Arrays score elementwise.
    """
    for name, w in (("w1", w1), ("w2", w2)):
        if not 0.0 <= w <= 1.0:
            raise ValueError(f"{name}={w} outside [0, 1]")
    if abs(w1 + w2 - 1.0) > 1e-9:
        raise ValueError(f"weights sum to {w1 + w2}, expected 1")
    if val_accuracy is None:
        return lam
    return w1 * lam + w2 * val_accuracy


@dataclass(frozen=True)
class EnsembleCandidate:
    mask: int
    size: int
    focal_diversity: float
    val_accuracy: float | None
    fitness: float

    def members(self, model_ids: Sequence[str]) -> list[str]:
        return mask_members(self.mask, model_ids)


def _rank_key(c: EnsembleCandidate) -> tuple:
    # Higher fitness first; ties to the smaller, lower-mask team.
    return (-c.fitness, c.size, c.mask)


class CandidateScorer:
    """Memoized candidate scoring shared by both search strategies.

    ``accuracy_fn`` maps a sequence of masks to their plurality validation
    accuracies; pass None for generative tasks, where fitness is the focal
    diversity alone.
    """

    def __init__(
        self,
        failures: FailureMatrix,
        accuracy_fn: Callable[[Sequence[int]], np.ndarray] | None = None,
        w1: float = 0.6,
        w2: float = 0.4,
    ) -> None:
        fitness(0.0, None if accuracy_fn is None else 0.0, w1, w2)  # validate weights
        self.failures = failures
        self.accuracy_fn = accuracy_fn
        self.w1 = w1
        self.w2 = w2
        self._counts = CoFailureCounts.of(failures)
        self._memo: dict[int, EnsembleCandidate] = {}

    @property
    def n_models(self) -> int:
        return len(self.failures.model_ids)

    @property
    def evaluations(self) -> int:
        """Distinct masks scored so far."""
        return len(self._memo)

    def score(self, mask: int) -> EnsembleCandidate:
        return self.score_masks([mask])[0]

    def score_masks(self, masks: Sequence[int]) -> list[EnsembleCandidate]:
        """Candidates for ``masks`` in order; the masks not yet memoized are
        scored together in one batch."""
        new = [m for m in dict.fromkeys(masks) if m not in self._memo]
        for mask in new:
            if not 0 <= mask < 1 << self.n_models or mask.bit_count() < 2:
                raise ValueError(f"mask {mask:#x} is not a team of at least 2 pool models")
        if new:
            lams = self._counts.focal_diversities(new)
            accs = None if self.accuracy_fn is None else np.asarray(self.accuracy_fn(new), float)
            fits = fitness(lams, accs, self.w1, self.w2).tolist()
            accs = [None] * len(new) if accs is None else accs.tolist()
            for mask, lam, acc, fit in zip(new, lams.tolist(), accs, fits):
                self._memo[mask] = EnsembleCandidate(
                    mask=mask,
                    size=mask.bit_count(),
                    focal_diversity=lam,
                    val_accuracy=acc,
                    fitness=fit,
                )
        return [self._memo[m] for m in masks]

    def scored(self) -> list[EnsembleCandidate]:
        return sorted(self._memo.values(), key=_rank_key)


def plurality_accuracy_fn(
    records: Sequence[EpisodeRecord], model_ids: Sequence[str]
) -> Callable[[Sequence[int]], np.ndarray]:
    """Masks-to-accuracies function over a vote table built once."""
    return VoteTable(records, model_ids).mask_accuracies


def build_scorer(
    corpus: Corpus,
    records: Sequence[EpisodeRecord],
    w1: float = 0.6,
    w2: float = 0.4,
    rule: FailureRule = FailureRule(),
) -> CandidateScorer:
    """Scorer for the corpus's pool on ``records``, episodes of ``corpus``.

    For MCQ and OEQ one vote table supplies both the failure rows and the
    plurality accuracy. GQ failures follow the unigram-recall rule and have
    no accuracy, so fitness is the diversity alone.
    """
    if task_of(corpus.records).kind == "gq":
        return CandidateScorer(failure_matrix(records, corpus.model_ids, rule), None, w1, w2)
    table = VoteTable(records, corpus.model_ids)
    failures = FailureMatrix(table.failed, [rec.id for rec in records], table.model_ids)
    return CandidateScorer(failures, table.mask_accuracies, w1, w2)


def brute_force_prune(scorer: CandidateScorer, k: int = 1) -> list[EnsembleCandidate]:
    """Exact top-k by fitness over every candidate mask."""
    n = scorer.n_models
    if n > BRUTE_FORCE_MAX_POOL:
        raise ValueError(
            f"pool of {n} models means {candidate_count(n)} candidates, and brute force "
            f"stops at {BRUTE_FORCE_MAX_POOL} models: rank this pool with the genetic "
            "search (`prune --method ga`; `ga_prune` in code). diversity-report scores "
            f"every candidate, so it also stops at {BRUTE_FORCE_MAX_POOL} models"
        )
    scorer.score_masks(list(enumerate_candidates(n)))
    return scorer.scored()[:k]


@dataclass(frozen=True)
class GaConfig:
    population: int = 50
    mutation_rate: float | None = None  # None: 1 / pool size
    elite_frac: float = 0.2
    plateau_gens: int = 100
    max_gens: int = 2000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.population < 4:
            raise ValueError("population must be >= 4")
        if self.mutation_rate is not None and not 0.0 < self.mutation_rate < 1.0:
            raise ValueError("mutation_rate must be in (0, 1)")
        if not 0.0 < self.elite_frac <= 1.0:
            raise ValueError("elite_frac must be in (0, 1]")
        if self.plateau_gens < 1 or self.max_gens < 1:
            raise ValueError("plateau_gens and max_gens must be >= 1")


@dataclass
class GaResult:
    top: list[EnsembleCandidate]
    generations: int
    evaluations: int  # masks the scorer scored new during this run
    plateau_terminated: bool


def _repair(mask: int, n: int, rng: random.Random) -> int:
    # Teams need at least two members; set two distinct random bits.
    if mask.bit_count() >= 2:
        return mask
    i, j = rng.sample(range(n), 2)
    return mask | (1 << i) | (1 << j)


def _mutate(mask: int, n: int, rate: float, rng: random.Random) -> int:
    for i in range(n):
        if rng.random() < rate:
            mask ^= 1 << i
    return mask


def ga_prune(scorer: CandidateScorer, config: GaConfig, k: int = 1) -> GaResult:
    """Genetic search for high-fitness teams.

    Elites survive each generation unchanged; offspring come from uniform
    crossover between random elites followed by per-bit mutation, with
    undersized chromosomes repaired. Stops when the best fitness has not
    improved for ``plateau_gens`` generations or at ``max_gens``. Returns the
    k best candidates in the scorer's memo: this run's, for a fresh scorer.
    """
    if config.population < k:
        raise ValueError("population must be >= k")
    n = scorer.n_models
    rng = random.Random(config.seed)
    rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / n

    population = [
        _repair(rng.getrandbits(n), n, rng) for _ in range(config.population)
    ]
    n_elite = max(2, round(config.population * config.elite_frac))
    scored_before = scorer.evaluations
    best: EnsembleCandidate | None = None
    stagnant = 0
    generations = 0
    plateau_terminated = False

    for generations in range(1, config.max_gens + 1):
        ranked = sorted(scorer.score_masks(population), key=_rank_key)
        gen_best = ranked[0]
        if best is None or gen_best.fitness > best.fitness:
            best = gen_best
            stagnant = 0
        else:
            stagnant += 1
        if stagnant >= config.plateau_gens:
            plateau_terminated = True
            break
        elites = ranked[:n_elite]
        offspring: list[int] = []
        while len(offspring) < config.population - n_elite:
            p1 = rng.choice(elites).mask
            p2 = rng.choice(elites).mask
            keep = rng.getrandbits(n)
            child = (p1 & keep) | (p2 & ~keep)
            child = _mutate(child, n, rate, rng)
            offspring.append(_repair(child, n, rng))
        population = [e.mask for e in elites] + offspring

    return GaResult(
        top=scorer.scored()[:k],
        generations=generations,
        evaluations=scorer.evaluations - scored_before,
        plateau_terminated=plateau_terminated,
    )


def search(
    scorer: CandidateScorer, method: str = "auto", config: GaConfig = GaConfig()
) -> tuple[str, list[EnsembleCandidate]]:
    """The method run ("auto": bf up to ``GA_AUTO_THRESHOLD`` models, ga
    above) and the scorer's ranking of every candidate the search scored."""
    if method == "auto":
        method = "bf" if scorer.n_models <= GA_AUTO_THRESHOLD else "ga"
    if method == "bf":
        return method, brute_force_prune(scorer, k=candidate_count(scorer.n_models))
    if method != "ga":
        raise ValueError(f"unknown search method {method!r}; expected auto, bf or ga")
    result = ga_prune(scorer, config)
    log.info("GA stopped after %d generations, %d distinct teams scored",
             result.generations, result.evaluations)
    return method, scorer.scored()


def write_candidates_csv(
    path: str, candidates: Sequence[EnsembleCandidate], n_models: int
) -> None:
    """Ranked CSV: mask, size, lambda, val_accuracy, fitness."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["mask", "size", "lambda", "val_accuracy", "fitness"])
        for c in candidates:
            writer.writerow(
                [
                    mask_bitstring(c.mask, n_models),
                    c.size,
                    f"{c.focal_diversity:.6f}",
                    "" if c.val_accuracy is None else f"{c.val_accuracy:.6f}",
                    f"{c.fitness:.6f}",
                ]
            )


@dataclass
class DiversityReport:
    candidates: list[EnsembleCandidate]
    pearson_rho: float  # correlation of diversity with accuracy, NaN for gq


def diversity_report(scorer: CandidateScorer) -> DiversityReport:
    """Score every candidate and correlate diversity with vote accuracy."""
    ranked = brute_force_prune(scorer, k=candidate_count(scorer.n_models))
    accs = [c.val_accuracy for c in ranked if c.val_accuracy is not None]
    if len(accs) == len(ranked) and len(ranked) >= 2:
        rho = pearson([c.focal_diversity for c in ranked], accs)
    else:
        rho = float("nan")
    return DiversityReport(candidates=ranked, pearson_rho=rho)
