"""Benchmark workloads: inputs made from the workload seed, and the CLI stages
each pass runs.

A workload's build function writes its input files into the run directory
and returns a JSON-serialisable plan. Stage argument lists may hold ``{out}``
(the pass's fresh output directory) and ``{endpoints}`` (the endpoints file
the worker writes once the stub server has a port).
"""
from __future__ import annotations

import random
from pathlib import Path
from typing import Callable

from fusepool.corpus import Corpus, EpisodeRecord, TaskKind, save_corpus
from fusepool.synthetic import correlated_pool, oeq_pool


def _select_exhaustive(seed: int, workdir: Path, smoke: bool) -> dict:
    n, e = (6, 300) if smoke else (12, 4000)
    corpus = str(workdir / "pool.jsonl")
    save_corpus(correlated_pool(n, e, seed=seed), corpus)
    return {
        "corpus": corpus,
        "stages": [
            {"name": "prune",
             "argv": ["prune", "--corpus", corpus, "--out", "{out}", "--seed", str(seed)]},
            {"name": "diversity-report",
             "argv": ["diversity-report", "--corpus", corpus, "--out", "{out}",
                      "--split", "all", "--seed", str(seed)]},
        ],
    }


GA_SEEDS = 6  # prune runs per select-genetic pass


def ga_seeds(seed: int) -> list[int]:
    """The fixed list of GA seeds a workload seed stands for."""
    return random.Random(f"ga-seeds:{seed}").sample(range(1, 10**6), GA_SEEDS)


def _select_genetic(seed: int, workdir: Path, smoke: bool) -> dict:
    n, e, clones = (14, 300, 7) if smoke else (24, 8000, 12)
    corpus = str(workdir / "pool.jsonl")
    save_corpus(correlated_pool(n, e, n_clones=clones, seed=seed), corpus)
    return {
        "corpus": corpus,
        "stages": [
            {"name": "prune", "ga_seed": gs,
             "argv": ["prune", "--corpus", corpus, "--out", f"{{out}}/ga-{gs}",
                      "--seed", str(gs)]}
            for gs in ga_seeds(seed)
        ],
    }


def _fuse_oeq(seed: int, workdir: Path, smoke: bool) -> dict:
    e = 300 if smoke else 4000
    corpus = str(workdir / "oeq.jsonl")
    save_corpus(oeq_pool(n_models=4, n_episodes=e, k=5, seed=seed), corpus)
    common = ["--corpus", corpus, "--out", "{out}", "--seed", str(seed)]
    return {
        "corpus": corpus,
        "k_passes": 5,
        "stages": [
            {"name": "prune", "argv": ["prune", *common]},
            # A fixed epoch count: with early stopping the epochs run, and so
            # the training time, swing 1.3-3.1 s from one seed to the next.
            {"name": "train-weighted", "argv": ["train-weighted", *common, "--k-passes", "5",
                                                "--epochs", "60", "--patience", "60"]},
            {"name": "evaluate", "argv": ["evaluate", *common, "--k-passes", "5"]},
            {"name": "summarize-prep", "argv": ["summarize-prep", *common]},
        ],
    }


# Adjective and noun pools for choice texts. No word appears in the stub's
# reply phrasing, and a query never reuses a word across its choices, so the
# BLEU-1 fallback has exactly one overlapping choice.
_ADJECTIVES = ["amber", "cobalt", "crimson", "jade", "ivory", "onyx", "scarlet", "teal",
               "ochre", "silver"]
_NOUNS = ["falcon", "harbor", "meadow", "lantern", "glacier", "orchard", "canyon",
          "beacon", "quarry", "violin"]
HARVEST_MODELS = {"model-20ms": 20.0, "model-40ms": 40.0, "model-60ms": 60.0,
                  "model-80ms": 80.0}
HARVEST_K = 3
HARVEST_MAX_IN_FLIGHT = 2
N_CHOICES = 4  # choices per harvest query


def harvest_queries(seed: int, n_queries: int) -> Corpus:
    rng = random.Random(f"harvest-queries:{seed}")
    records = []
    for i in range(n_queries):
        adjectives = rng.sample(_ADJECTIVES, N_CHOICES)
        nouns = rng.sample(_NOUNS, N_CHOICES)
        records.append(EpisodeRecord(
            id=f"hq-{i}",
            task=TaskKind.mcq(N_CHOICES),
            prompt=f"[hq-{i}] Which pairing belongs to puzzle {rng.randrange(10**6)}?",
            ground_truth=rng.randrange(N_CHOICES),
            choices=[f"{a} {b}" for a, b in zip(adjectives, nouns)],
        ))
    return Corpus(records=records, model_ids=[])


def _harvest(seed: int, workdir: Path, smoke: bool) -> dict:
    n_queries = 4 if smoke else 12
    queries = harvest_queries(seed, n_queries)
    path = str(workdir / "queries.jsonl")
    save_corpus(queries, path)
    latency_ms = {m: (v / 20.0 if smoke else v) for m, v in HARVEST_MODELS.items()}
    # Exactly round(10 %) of the queries fail once per model, each failure at
    # its own seeded query, so every seed injects the same work on every
    # endpoint and no two backoffs overlap behind one query's barrier.
    rng = random.Random(f"harvest-failures:{seed}")
    per_model = max(1, round(0.1 * n_queries))
    picked = iter(rng.sample(queries.records, per_model * len(latency_ms)))
    fail_first = sorted([m, next(picked).id] for m in latency_ms for _ in range(per_model))
    return {
        "corpus": path,
        "k_passes": HARVEST_K,
        "stub": {"seed": seed, "latency_ms": latency_ms, "fail_first": fail_first},
        "stages": [
            {"name": "harvest",
             "argv": ["harvest", "--corpus", path, "--endpoints", "{endpoints}",
                      "--out-corpus", "{out}/harvested.jsonl",
                      "--k-passes", str(HARVEST_K),
                      "--max-in-flight", str(HARVEST_MAX_IN_FLIGHT), "--seed", str(seed)]},
        ],
    }


# Each workload's reason is recorded in BENCHMARK.json.
WORKLOADS: dict[str, Callable[[int, Path, bool], dict]] = {
    "select-exhaustive": _select_exhaustive,
    "select-genetic": _select_genetic,
    "fuse-oeq": _fuse_oeq,
    "harvest": _harvest,
}
